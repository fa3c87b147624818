//! **vpec** — a Rust reproduction of *A Provably Passive and Cost-Efficient
//! Model for Inductive Interconnects* (Yu & He, DAC 2003 / IEEE TCAD 24(8),
//! 2005): the VPEC model family for on-chip inductance, with guaranteed-
//! passive truncated (tVPEC) and windowed (wVPEC) sparsifications, a full
//! PEEC baseline, closed-form parasitic extraction, and a SPICE-class MNA
//! circuit engine.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`numerics`] — dense/sparse LU, Cholesky, complex arithmetic;
//! * [`geometry`] — filaments, bus and spiral generators, discretization;
//! * [`extract`] — partial inductance, capacitance, resistance extraction;
//! * [`circuit`] — netlists, DC/transient/AC analyses, waveform metrics,
//!   SPICE export;
//! * [`core`] — the VPEC models, sparsifications, passivity checks, and
//!   the experiment harness;
//! * [`engine`] — the resilient batch scenario engine: JSONL request
//!   streams through an isolated boundary with deadlines, budgets,
//!   retry/backoff, graceful wVPEC degradation and a model cache;
//! * [`trace`] — structured tracing and metrics: spans, counters, and
//!   JSONL export, gated by `VPEC_TRACE` / `--trace`.
//!
//! # Quickstart
//!
//! ```
//! use vpec::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's 5-bit bus: extract, build PEEC and full VPEC, simulate.
//! let exp = Experiment::new(
//!     BusSpec::new(5).build(),
//!     &ExtractionConfig::paper_default(),
//!     DriveConfig::paper_default(),
//! );
//! let peec = exp.build(ModelKind::Peec)?;
//! let vpec = exp.build(ModelKind::VpecFull)?;
//! let spec = TransientSpec::new(0.2e-9, 1e-12);
//! let (rp, _) = peec.run_transient(&spec)?;
//! let (rv, _) = vpec.run_transient(&spec)?;
//! let diff = WaveformDiff::compare(
//!     &peec.far_voltage(&rp, 1)?,
//!     &vpec.far_voltage(&rv, 1)?,
//! );
//! assert!(diff.max_pct_of_peak() < 1.0); // Fig. 2: identical waveforms
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use vpec_circuit as circuit;
pub use vpec_core as core;
pub use vpec_engine as engine;
pub use vpec_extract as extract;
pub use vpec_geometry as geometry;
pub use vpec_numerics as numerics;
pub use vpec_trace as trace;

/// One-stop imports for typical use.
pub mod prelude {
    pub use vpec_circuit::ac::AcSpec;
    pub use vpec_circuit::metrics::{crossing_time, peak_abs, resample, WaveformDiff};
    pub use vpec_circuit::{
        Circuit, CircuitError, FactorDiagnostics, FactorStrategy, FaultInjection,
        Integrator, NodeId, SolverKind, TransientDiagnostics, TransientSpec, Waveform,
    };
    pub use vpec_core::harness::{paper_transient_spec, BuiltModel, Experiment, ModelKind};
    pub use vpec_core::noise::{noise_scan, worst_aggressor_alignment, NoiseReport};
    pub use vpec_core::{
        repair_passivity, CoreError, DriveConfig, LoweringStyle, PassivityReport, RepairReport,
        SolveReport, VpecModel,
    };
    pub use vpec_core::harness::BuildBudget;
    pub use vpec_engine::{Engine, EngineConfig, EngineError, ScenarioRequest, ScenarioResponse};
    pub use vpec_extract::{extract, ConductorSystem, ExtractionConfig, Parasitics};
    pub use vpec_geometry::{um, BusSpec, Layout, SpiralSpec, SubstrateSpec, GHZ};
    pub use vpec_numerics::CancelToken;
}
