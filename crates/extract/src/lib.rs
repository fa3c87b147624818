//! Parasitic extraction for the VPEC workspace — the FastHenry/FastCap
//! substitute.
//!
//! The paper extracts partial inductance with FastHenry at 10 GHz (one
//! filament per wire segment), capacitance from a 2.5-D lookup table
//! interpolated from FastCap (adjacent couplings only), and resistance from
//! the copper resistivity. This crate implements the same quantities with
//! published closed-form models:
//!
//! * **Partial inductance** — Ruehli's self-inductance formula and the
//!   Neumann double-integral closed form for parallel filaments with
//!   arbitrary longitudinal offset, using the geometric-mean-distance of
//!   the rectangular cross section where centerline distance degenerates
//!   ([`inductance`]). Perpendicular filaments do not couple.
//! * **Capacitance** — Sakurai–Tamaru-style area + fringe formulas for the
//!   ground capacitance and an adjacent-line coupling term
//!   ([`capacitance`]).
//! * **Resistance** — `ρl/A` with an optional skin-depth correction, plus
//!   the lossy-substrate eddy-loss lumping used for the spiral inductor
//!   ([`resistance`]).
//!
//! The top-level entry point is [`extract`], which maps a
//! [`vpec_geometry::Layout`] to [`Parasitics`]: the dense partial-inductance
//! matrix `L` (including antiparallel coupling signs), per-filament series
//! resistance, per-filament ground capacitance, and adjacent coupling
//! capacitances.
//!
//! # Example
//!
//! ```
//! use vpec_extract::{extract, ExtractionConfig};
//! use vpec_geometry::BusSpec;
//!
//! let layout = BusSpec::new(5).build();
//! let para = extract(&layout, &ExtractionConfig::paper_default());
//! assert_eq!(para.inductance.rows(), 5);
//! // Partial inductance is dense: every pair couples.
//! assert!(para.inductance[(0, 4)] > 0.0);
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

pub mod capacitance;
pub mod captable;
pub mod impedance;
pub mod inductance;
pub mod resistance;
pub mod volume;

mod config;
mod error;
mod parasitics;

pub use captable::CapTable;
pub use config::ExtractionConfig;
pub use error::ExtractError;
pub use impedance::ConductorSystem;
pub use parasitics::{extract, Parasitics};
