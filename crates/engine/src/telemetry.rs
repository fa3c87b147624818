//! Per-stream telemetry sinks: the run ledger and the Prometheus-style
//! exposition file, both fed from the requests' [`RunRecord`]s.
//!
//! [`StreamTelemetry`] bundles everything [`crate::Engine::run_stream_with`]
//! needs to make a batch observable:
//!
//! * one [`vpec_metrics::Ledger`] record per request (see DESIGN.md §15
//!   for the schema);
//! * request counters (`engine.requests`, `.ok`, `.failed`, `.degraded`,
//!   `.retries`, and `engine.cache.hit` from the records' `model_hit`)
//!   and latency histograms (`engine.request.{total,queue,build,solve}_ms`),
//!   tallied from the same records and written to the exposition file
//!   when the stream ends.
//!
//! The exposition therefore counts exactly what the ledger records,
//! whatever the trace mode. [`StreamTelemetry::disabled`] is a no-op
//! bundle: every hook returns immediately, which is what plain
//! [`crate::Engine::run_stream`] uses.

use std::path::PathBuf;
use vpec_metrics::{Histogram, Ledger, RunRecord};

/// Telemetry sinks for one request stream.
#[derive(Debug, Default)]
pub struct StreamTelemetry {
    ledger: Option<Ledger>,
    metrics_out: Option<PathBuf>,
    requests: u64,
    ok: u64,
    degraded: u64,
    retries: u64,
    cache_hits: u64,
    total_ms: Histogram,
    queue_ms: Histogram,
    build_ms: Histogram,
    solve_ms: Histogram,
}

impl StreamTelemetry {
    /// A bundle with every sink off; all hooks are no-ops.
    #[must_use]
    pub fn disabled() -> StreamTelemetry {
        StreamTelemetry::default()
    }

    /// Opens the configured sinks: `ledger_path` is created (truncating),
    /// and `metrics_out` is written atomically when the stream ends.
    ///
    /// # Errors
    ///
    /// I/O failures creating the ledger file.
    pub fn new(
        ledger_path: Option<&str>,
        metrics_out: Option<&str>,
    ) -> std::io::Result<StreamTelemetry> {
        Ok(StreamTelemetry {
            ledger: ledger_path.map(Ledger::create).transpose()?,
            metrics_out: metrics_out.map(PathBuf::from),
            ..StreamTelemetry::default()
        })
    }

    /// `true` when no sink is configured.
    #[must_use]
    pub fn is_disabled(&self) -> bool {
        self.ledger.is_none() && self.metrics_out.is_none()
    }

    /// Feeds one finished request into every sink: the counters and
    /// latency histograms, and the ledger line.
    ///
    /// # Errors
    ///
    /// I/O failures on the ledger.
    pub fn observe(&mut self, record: &RunRecord) -> std::io::Result<()> {
        if self.is_disabled() {
            return Ok(());
        }
        self.requests += 1;
        self.ok += u64::from(record.ok);
        self.degraded += u64::from(record.degraded);
        self.retries += record.retries as u64;
        self.cache_hits += u64::from(record.model_hit);
        self.total_ms.record(record.total_ms);
        self.queue_ms.record(record.queue_ms);
        if let Some(build) = record.build_ms {
            self.build_ms.record(build);
        }
        if let Some(solve) = record.solve_ms {
            self.solve_ms.record(solve);
        }
        match &mut self.ledger {
            Some(ledger) => ledger.record(record),
            None => Ok(()),
        }
    }

    /// Finalizes the stream: writes the exposition file so it reflects
    /// the complete run.
    ///
    /// # Errors
    ///
    /// I/O failures writing the exposition file.
    pub fn finish(&mut self) -> std::io::Result<()> {
        let Some(path) = &self.metrics_out else {
            return Ok(());
        };
        let text = vpec_metrics::render(
            &[
                ("engine.cache.hit", self.cache_hits),
                ("engine.requests", self.requests),
                ("engine.requests.degraded", self.degraded),
                ("engine.requests.failed", self.requests - self.ok),
                ("engine.requests.ok", self.ok),
                ("engine.requests.retries", self.retries),
            ],
            &[
                ("engine.request.build_ms", &self.build_ms),
                ("engine.request.queue_ms", &self.queue_ms),
                ("engine.request.solve_ms", &self.solve_ms),
                ("engine.request.total_ms", &self.total_ms),
            ],
        );
        vpec_metrics::write_atomic(path, &text)
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
        assert!(expo.contains("vpec_engine_requests_total 1\n"));
        assert!(expo.contains("vpec_engine_request_total_ms_count 1\n"));
        let _ = std::fs::remove_file(&ledger_path);
        let _ = std::fs::remove_file(&metrics_path);
    }
}
