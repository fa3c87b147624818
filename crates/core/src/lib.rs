//! The VPEC model family — the primary contribution of Yu & He, *A
//! Provably Passive and Cost-Efficient Model for Inductive Interconnects*
//! (DAC 2003 / IEEE TCAD 24(8), 2005).
//!
//! Starting from extracted PEEC parasitics (`vpec-extract`), this crate
//! builds:
//!
//! * the **full VPEC model** by inverting the partial-inductance matrix:
//!   `Ĝ = Dₗ·L⁻¹·Dₗ` ([`VpecModel::full`]), provably symmetric positive
//!   definite and strictly diagonally dominant ([`PassivityReport`]);
//! * the **localized VPEC** of Pacelli (adjacent couplings only), kept as
//!   the accuracy baseline of Fig. 2 ([`VpecModel::localized_from_full`]);
//! * the **tVPEC** sparsifications — geometric `(N_W, N_L)` windows over a
//!   bus ([`truncation::truncate_geometric`]) and per-row numerical
//!   thresholds ([`truncation::truncate_numerical`]);
//! * the **wVPEC** sparsifications that avoid the full `O(N³)` inversion by
//!   inverting `b×b` coupling-window submatrices and merging rows with the
//!   passivity-preserving `max` heuristic ([`windowed::windowed_geometric`],
//!   [`windowed::windowed_numerical`]);
//! * SPICE-compatible **netlists** for both the PEEC baseline
//!   ([`peec::build_peec`]) and every VPEC variant ([`lower::build_vpec`]),
//!   ready for `vpec-circuit` analyses, plus the [`harness`] that wires a
//!   whole crosstalk experiment together.
//!
//! # Example
//!
//! ```
//! use vpec_core::{VpecModel, PassivityReport};
//! use vpec_extract::{extract, ExtractionConfig};
//! use vpec_geometry::BusSpec;
//!
//! # fn main() -> Result<(), vpec_core::CoreError> {
//! let layout = BusSpec::new(8).build();
//! let para = extract(&layout, &ExtractionConfig::paper_default());
//! let model = VpecModel::full(&para)?;
//! let report = model.passivity_report();
//! assert!(report.is_passive());           // Theorem 1
//! assert!(report.strictly_diag_dominant); // Theorem 2
//! # Ok(())
//! # }
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

pub mod baselines;
pub mod harness;
pub mod invariants;
pub mod kelement;
pub mod lower;
pub mod noise;
pub mod peec;
pub mod repair;
pub mod truncation;
pub mod windowed;

mod drive;
mod error;
mod model;

pub use drive::DriveConfig;
pub use error::CoreError;
pub use harness::SolveReport;
pub use model::{PassivityReport, VpecModel};
pub use repair::{repair_passivity, RepairReport};
