//! Service-level observability for the VPEC engine — **vpec-metrics**.
//!
//! Zero-dependency (the workspace's own [`vpec_trace`] JSON codec is the
//! only import) metrics stack layered under `vpec batch` / `vpec serve`.
//! The per-request record is the source of every number:
//!
//! * [`ledger`] — the run ledger: one schema-validated JSONL record per
//!   engine request (outcome, error class, retries, degradation, cache
//!   levels, matrix dimension, phase times, scratch estimate).
//! * [`exposition`] — Prometheus-style text rendering of counters and
//!   latency histograms tallied from those records, written atomically
//!   (`write → rename`) for scrapers.
//! * [`stats`] — offline aggregation of one or more ledgers into a
//!   fleet report (exact latency percentiles per kind and outcome,
//!   cache hit ratios per level, degradation and error breakdowns,
//!   throughput buckets) with `--fail-if` CI thresholds.
//!
//! See DESIGN.md §15 for the exposition, the full ledger schema, and the
//! aggregation semantics.

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

pub use exposition::{render, write_atomic, Histogram};
pub use ledger::{now_ms, parse_ledger, parse_line, Ledger, LedgerRecord, RunRecord};
pub use stats::{
    aggregate, parse_fail_if, percentile, CacheLevelStats, FailCondition, FailMetric,
    LatencySummary, LedgerStats,
};
