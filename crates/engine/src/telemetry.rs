//! Per-stream telemetry sinks: the run ledger, the `vpec_trace`
//! registry, and the Prometheus-style exposition file.
//!
//! [`StreamTelemetry`] bundles everything [`crate::Engine::run_stream_with`]
//! needs to make a batch observable:
//!
//! * one [`vpec_metrics::Ledger`] record per request (see DESIGN.md §15
//!   for the schema);
//! * registry counters (`engine.requests`, `.ok`, `.failed`, `.degraded`,
//!   `.retries`) and latency histograms
//!   (`engine.request.{total,queue,build,solve}_ms`);
//! * periodic in-stream snapshot records plus an atomic rewrite of the
//!   exposition file every `snapshot_interval_ms`, and a final exposition
//!   write when the stream ends.
//!
//! Constructing one with any sink configured calls
//! [`vpec_trace::enable_registry`], so the counters the engine fires at
//! its call sites (cache hits/misses, retries, degradations) are counted
//! with tracing off. [`StreamTelemetry::disabled`] is a no-op bundle:
//! every hook returns immediately, which is what plain
//! [`crate::Engine::run_stream`] uses.

use std::path::PathBuf;
use std::time::{Duration, Instant};
use vpec_metrics::{Ledger, RunRecord};

/// Telemetry sinks for one request stream.
#[derive(Debug)]
pub struct StreamTelemetry {
    ledger: Option<Ledger>,
    metrics_out: Option<PathBuf>,
    snapshot_every: Option<Duration>,
    last_snapshot: Instant,
    active: bool,
}

impl StreamTelemetry {
    /// A bundle with every sink off; all hooks are no-ops.
    #[must_use]
    pub fn disabled() -> StreamTelemetry {
        StreamTelemetry {
            ledger: None,
            metrics_out: None,
            snapshot_every: None,
            last_snapshot: Instant::now(),
            active: false,
        }
    }

    /// Opens the configured sinks: `ledger_path` is created (truncating),
    /// `metrics_out` is rewritten atomically on each snapshot and at the
    /// end of the stream, and `snapshot_interval_ms` (when nonzero) sets
    /// the in-stream snapshot cadence. When any sink is configured the
    /// `vpec_trace` registry is enabled process-wide.
    ///
    /// # Errors
    ///
    /// I/O failures creating the ledger file.
    pub fn new(
        ledger_path: Option<&str>,
        metrics_out: Option<&str>,
        snapshot_interval_ms: Option<u64>,
    ) -> std::io::Result<StreamTelemetry> {
        let active = ledger_path.is_some() || metrics_out.is_some();
        if active {
            vpec_trace::enable_registry();
        }
        let ledger = match ledger_path {
            Some(path) => Some(Ledger::create(path)?),
            None => None,
        };
        Ok(StreamTelemetry {
            ledger,
            metrics_out: metrics_out.map(PathBuf::from),
            snapshot_every: snapshot_interval_ms
                .filter(|&ms| ms > 0)
                .map(Duration::from_millis),
            last_snapshot: Instant::now(),
            active,
        })
    }

    /// `true` when no sink is configured.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        !self.active
    }

    /// Feeds one finished request into every sink: registry counters and
    /// latency histograms, the ledger line, and (when due) a periodic
    /// snapshot.
    ///
    /// # Errors
    ///
    /// I/O failures on the ledger or exposition file.
    pub fn observe(&mut self, record: &RunRecord) -> std::io::Result<()> {
        if !self.active {
            return Ok(());
        }
        vpec_trace::counter_add("engine.requests", 1);
        let outcome = if record.ok {
            "engine.requests.ok"
        } else {
            "engine.requests.failed"
        };
        vpec_trace::counter_add(outcome, 1);
        if record.degraded {
            vpec_trace::counter_add("engine.requests.degraded", 1);
        }
        if record.retries > 0 {
            vpec_trace::counter_add("engine.requests.retries", record.retries as u64);
        }
        vpec_trace::record_value("engine.request.total_ms", record.total_ms);
        vpec_trace::record_value("engine.request.queue_ms", record.queue_ms);
        if let Some(build) = record.build_ms {
            vpec_trace::record_value("engine.request.build_ms", build);
        }
        if let Some(solve) = record.solve_ms {
            vpec_trace::record_value("engine.request.solve_ms", solve);
        }
        if let Some(ledger) = &mut self.ledger {
            ledger.record(record)?;
        }
        self.maybe_snapshot()
    }

    /// Emits the periodic snapshot when the interval elapsed: one ledger
    /// snapshot record plus an atomic exposition rewrite.
    fn maybe_snapshot(&mut self) -> std::io::Result<()> {
        let Some(every) = self.snapshot_every else {
            return Ok(());
        };
        if self.last_snapshot.elapsed() < every {
            return Ok(());
        }
        self.last_snapshot = Instant::now();
        let snap = vpec_trace::snapshot();
        if let Some(ledger) = &mut self.ledger {
            ledger.snapshot(&snap)?;
        }
        if let Some(path) = &self.metrics_out {
            vpec_metrics::write_atomic(path, &snap)?;
        }
        Ok(())
    }

    /// Finalizes the stream: writes the exposition file one last time so
    /// it reflects the complete run.
    ///
    /// # Errors
    ///
    /// I/O failures writing the exposition file.
    pub fn finish(&mut self) -> std::io::Result<()> {
        if !self.active {
            return Ok(());
        }
        if let Some(path) = &self.metrics_out {
            vpec_metrics::write_atomic(path, &vpec_trace::snapshot())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_is_inert() {
        let mut t = StreamTelemetry::disabled();
        assert!(t.is_disabled());
        t.observe(&RunRecord::default()).unwrap();
        t.finish().unwrap();
    }

    #[test]
    fn ledger_and_exposition_sinks_fill() {
        let dir = std::env::temp_dir();
        let ledger_path = dir.join("vpec_engine_telemetry_test.jsonl");
        let metrics_path = dir.join("vpec_engine_telemetry_test.prom");
        let mut t = StreamTelemetry::new(
            Some(&ledger_path.display().to_string()),
            Some(&metrics_path.display().to_string()),
            None,
        )
        .unwrap();
        assert!(!t.is_disabled());
        let record = RunRecord {
            id: "r1".to_string(),
            ok: true,
            kind: "PEEC".to_string(),
            analysis: "transient".to_string(),
            total_ms: 4.0,
            queue_ms: 0.5,
            ..RunRecord::default()
        };
        t.observe(&record).unwrap();
        t.finish().unwrap();
        let ledger = std::fs::read_to_string(&ledger_path).unwrap();
        let records = vpec_metrics::parse_ledger(&ledger).unwrap();
        assert_eq!(records.len(), 1);
        let expo = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(expo.contains("vpec_engine_requests_total"));
        assert!(expo.contains("vpec_engine_request_total_ms_count"));
        let _ = std::fs::remove_file(&ledger_path);
        let _ = std::fs::remove_file(&metrics_path);
    }
}
