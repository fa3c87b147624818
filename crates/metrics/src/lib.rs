//! Service-level observability for the VPEC engine — **vpec-metrics**.
//!
//! Zero-dependency (the workspace's own [`vpec_trace`] is the only
//! import) metrics stack layered under `vpec batch` / `vpec serve`. The
//! counters and histograms themselves live in the one `vpec_trace`
//! registry; this crate writes them out and keeps the per-request record:
//!
//! * [`ledger`] — the run ledger: one schema-validated JSONL record per
//!   engine request (outcome, error class, retries, degradation, cache
//!   levels, solver strategy, phase times, scratch estimate), plus
//!   periodic in-stream snapshot records for long-running streams.
//! * [`exposition`] — Prometheus-style text rendering of a registry
//!   snapshot, written atomically (`write → rename`) for scrapers.
//! * [`stats`] — offline aggregation of one or more ledgers into a
//!   fleet report (exact latency percentiles per kind and outcome,
//!   cache hit ratios per level, strategy/degradation/error
//!   breakdowns, throughput buckets) with `--fail-if` CI thresholds.
//!
//! See DESIGN.md §15 for the registry model, the full ledger schema,
//! and the aggregation semantics.

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

pub mod exposition;
pub mod ledger;
pub mod stats;

pub use exposition::{render, write_atomic};
pub use ledger::{now_ms, parse_ledger, parse_line, Ledger, LedgerRecord, RunRecord};
pub use stats::{
    aggregate, parse_fail_if, percentile, CacheLevelStats, FailCondition, FailMetric,
    LatencySummary, LedgerStats,
};
