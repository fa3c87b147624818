//! Interconnect geometry for the VPEC workspace.
//!
//! Provides the filament representation the extraction crate consumes and
//! generators for the two structure families the paper evaluates:
//!
//! * **Aligned / non-aligned parallel buses** (Figs. 2–5, 8; Tables II–IV)
//!   with configurable bit count, per-line segmentation, wire dimensions and
//!   spacing — [`BusSpec`];
//! * the **three-turn spiral inductor on a lossy substrate** (Figs. 6–7)
//!   with ~92 segments — [`SpiralSpec`].
//!
//! Discretization follows the paper's rules: volume decomposition according
//! to skin depth and longitudinal segmentation at one-tenth of the
//! wavelength at the maximum operating frequency ([`discretize`]).
//!
//! # Example
//!
//! ```
//! use vpec_geometry::{BusSpec, um};
//!
//! let layout = BusSpec::new(5)
//!     .line_length(um(1000.0))
//!     .width(um(1.0))
//!     .thickness(um(1.0))
//!     .spacing(um(2.0))
//!     .build();
//! assert_eq!(layout.nets().len(), 5);
//! assert_eq!(layout.filaments().len(), 5);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

mod bus;
pub mod discretize;
mod filament;
mod layout;
mod spiral;
mod units;

pub use bus::BusSpec;
pub use filament::{Axis, Filament};
pub use layout::{Layout, Net, NetId, NetKind};
pub use spiral::{SpiralSpec, SubstrateSpec};
pub use units::{mm, nm, um, GHZ, MHZ};
