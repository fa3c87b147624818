//! Resilient batch scenario engine for the VPEC workspace.
//!
//! Reads a JSONL stream of scenario requests (geometry × model kind ×
//! analysis), runs each inside a hardened request boundary, and streams
//! JSONL results. One bad request — a panic, a runaway solve, an absurd
//! size — cannot take the batch down:
//!
//! * **Panic isolation** — every request runs under `catch_unwind`
//!   ([`boundary::run_guarded`]); panics become typed
//!   [`EngineError::RequestPanicked`] responses.
//! * **Deadlines** — a watchdog thread fires a
//!   [`vpec_numerics::CancelToken`] at the wall-clock deadline; the
//!   numerics and circuit layers poll it cooperatively (per elimination
//!   column, per inverse column, per transient step, per AC point).
//! * **Budgets** — per-request filament/matrix-dimension/step limits
//!   ([`vpec_core::harness::BuildBudget`]) are checked against the raw
//!   layout before any O(N²) work.
//! * **Retry with backoff** — retryable failures get a bounded number of
//!   exponentially backed-off retries.
//! * **Graceful degradation** — a full-inversion request that is too
//!   expensive (deadline or matrix-dimension budget) is re-run as a
//!   windowed wVPEC model — provably passive, O(N·b³) — and marked
//!   `degraded: true` instead of failing.
//! * **Model cache** — requests sharing a geometry (by
//!   [`vpec_geometry::Layout::content_hash`]) share one extraction and
//!   one built model per kind ([`ModelCache`]); fault-injected requests
//!   bypass the cache.
//!
//! * **Observability** — [`runner::Engine::run_stream_with`] feeds a
//!   [`telemetry::StreamTelemetry`] bundle: one run-ledger record per
//!   request, registry counters/histograms, and periodic snapshots (see
//!   `vpec_metrics` and DESIGN.md §15).
//!
//! The CLI exposes this as `vpec batch --in FILE` and `vpec serve`
//! (stdin → stdout).

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

pub mod boundary;
pub mod cache;
pub mod error;
pub mod request;
pub mod runner;
pub mod telemetry;

pub use cache::ModelCache;
pub use error::EngineError;
pub use request::{AnalysisSpec, ScenarioRequest, ScenarioResponse, StructureSpec};
pub use runner::{Engine, EngineConfig, StreamSummary};
pub use telemetry::StreamTelemetry;
