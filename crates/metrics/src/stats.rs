//! Offline ledger aggregation for `vpec stats`: fleet-level service
//! analytics from one or more run ledgers.
//!
//! Aggregation works on the raw per-request records, so percentiles here
//! are **exact** nearest-rank values over the recorded latencies (unlike
//! the live registry histograms, which quantize into √2 buckets). The
//! report covers latency percentiles overall, per model-kind and per
//! outcome; cache hit ratios per level; solver-strategy and degradation
//! breakdowns; an error taxonomy; and request throughput
//! over fixed time buckets. [`FailCondition`] turns the report into a CI
//! gate: `--fail-if p99>250ms` / `--fail-if degraded>5%`.

use crate::ledger::LedgerRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use vpec_trace::json;

/// Exact nearest-rank percentile of an **ascending-sorted** slice:
/// the rank-⌈q·n⌉ element. `None` when empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Latency distribution of one request population.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencySummary {
    /// Number of requests.
    pub count: usize,
    /// Exact nearest-rank p50, ms.
    pub p50: Option<f64>,
    /// Exact nearest-rank p90, ms.
    pub p90: Option<f64>,
    /// Exact nearest-rank p99, ms.
    pub p99: Option<f64>,
    /// Largest latency, ms.
    pub max: Option<f64>,
    /// Mean latency, ms.
    pub mean: Option<f64>,
}

impl LatencySummary {
    fn from_sorted(sorted: &[f64]) -> LatencySummary {
        let sum: f64 = sorted.iter().sum();
        LatencySummary {
            count: sorted.len(),
            p50: percentile(sorted, 0.50),
            p90: percentile(sorted, 0.90),
            p99: percentile(sorted, 0.99),
            max: sorted.last().copied(),
            mean: if sorted.is_empty() {
                None
            } else {
                Some(sum / sorted.len() as f64)
            },
        }
    }
}

/// Hit/miss tally of one cache level. Misses are requests that were
/// answered OK without that level hitting — failed requests may never
/// have reached the cache, so they count toward neither side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLevelStats {
    /// Requests the level answered.
    pub hits: usize,
    /// OK requests the level did not answer.
    pub misses: usize,
}

impl CacheLevelStats {
    /// `hits / (hits + misses)`; `None` when the level saw no traffic.
    #[must_use]
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }
}

/// Aggregated view of one or more run ledgers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerStats {
    /// Request records aggregated (snapshot records are not counted).
    pub total: usize,
    /// Requests answered OK (degraded included).
    pub ok: usize,
    /// Requests answered failed.
    pub failed: usize,
    /// Requests served degraded.
    pub degraded: usize,
    /// Total retries consumed across all requests.
    pub retries: usize,
    /// Snapshot records seen (and skipped) while aggregating.
    pub snapshots: usize,
    /// All request latencies, ascending, ms.
    pub latencies_ms: Vec<f64>,
    /// Latencies per requested model kind, ascending, ms.
    pub per_kind: BTreeMap<String, Vec<f64>>,
    /// Latencies per outcome (`"ok"` / `"failed"`), ascending, ms.
    pub per_outcome: BTreeMap<String, Vec<f64>>,
    /// Extraction-level cache tally.
    pub experiment_cache: CacheLevelStats,
    /// Built-model cache tally.
    pub model_cache: CacheLevelStats,
    /// Prepared-factorization cache tally.
    pub factor_cache: CacheLevelStats,
    /// Requests per accepted factorization strategy.
    pub strategies: BTreeMap<String, usize>,
    /// Degraded requests per reason.
    pub degraded_reasons: BTreeMap<String, usize>,
    /// Failed requests per error category.
    pub errors: BTreeMap<String, usize>,
    /// Requests per time bucket (key = bucket start, Unix ms).
    pub throughput: BTreeMap<u64, usize>,
    /// Width of the throughput buckets, ms.
    pub bucket_ms: u64,
    /// Largest peak-scratch estimate seen, bytes.
    pub peak_scratch_bytes: Option<u64>,
}

/// Aggregates parsed ledger records. `bucket_ms` sets the throughput
/// bucket width (pass 0 for the 60 s default).
#[must_use]
pub fn aggregate(records: &[LedgerRecord], bucket_ms: u64) -> LedgerStats {
    let bucket_ms = if bucket_ms == 0 { 60_000 } else { bucket_ms };
    let mut stats = LedgerStats {
        bucket_ms,
        ..LedgerStats::default()
    };
    for rec in records {
        let (ts_ms, run) = match rec {
            LedgerRecord::Snapshot { .. } => {
                stats.snapshots += 1;
                continue;
            }
            LedgerRecord::Request { ts_ms, run, .. } => (*ts_ms, run),
        };
        stats.total += 1;
        stats.retries += run.retries;
        stats.latencies_ms.push(run.total_ms);
        stats
            .per_kind
            .entry(if run.kind.is_empty() {
                "(unparseable)".to_string()
            } else {
                run.kind.clone()
            })
            .or_default()
            .push(run.total_ms);
        let outcome = if run.ok { "ok" } else { "failed" };
        stats
            .per_outcome
            .entry(outcome.to_string())
            .or_default()
            .push(run.total_ms);
        if run.ok {
            stats.ok += 1;
            for (level, hit) in [
                (&mut stats.experiment_cache, run.experiment_hit),
                (&mut stats.model_cache, run.model_hit),
                (&mut stats.factor_cache, run.factor_hit),
            ] {
                if hit {
                    level.hits += 1;
                } else {
                    level.misses += 1;
                }
            }
        } else {
            stats.failed += 1;
            let cat = run.error.clone().unwrap_or_else(|| "unknown".to_string());
            *stats.errors.entry(cat).or_default() += 1;
        }
        if run.degraded {
            stats.degraded += 1;
            let reason = run
                .degraded_reason
                .clone()
                .unwrap_or_else(|| "solve".to_string());
            *stats.degraded_reasons.entry(reason).or_default() += 1;
        }
        if let Some(s) = &run.strategy {
            *stats.strategies.entry(s.clone()).or_default() += 1;
        }
        if let Some(b) = run.peak_scratch_bytes {
            stats.peak_scratch_bytes = Some(stats.peak_scratch_bytes.unwrap_or(0).max(b));
        }
        *stats
            .throughput
            .entry(ts_ms / bucket_ms * bucket_ms)
            .or_default() += 1;
    }
    stats.latencies_ms.sort_by(f64::total_cmp);
    for v in stats.per_kind.values_mut() {
        v.sort_by(f64::total_cmp);
    }
    for v in stats.per_outcome.values_mut() {
        v.sort_by(f64::total_cmp);
    }
    stats
}

impl LedgerStats {
    /// Latency distribution over all requests.
    #[must_use]
    pub fn latency(&self) -> LatencySummary {
        LatencySummary::from_sorted(&self.latencies_ms)
    }

    /// Percentage of requests served degraded (0 when empty).
    #[must_use]
    pub fn degraded_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.degraded as f64 / self.total as f64 * 100.0
        }
    }

    /// Percentage of requests that failed (0 when empty).
    #[must_use]
    pub fn failed_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.failed as f64 / self.total as f64 * 100.0
        }
    }

    /// Human-readable report.
    #[must_use]
    pub fn render_text(&self) -> String {
        fn fmt_ms(v: Option<f64>) -> String {
            v.map_or_else(|| "-".to_string(), |x| format!("{x:.3} ms"))
        }
        fn latency_line(out: &mut String, label: &str, l: &LatencySummary) {
            let _ = writeln!(
                out,
                "  {label:<28} {:>6}x  p50 {:>12}  p90 {:>12}  p99 {:>12}  max {:>12}",
                l.count,
                fmt_ms(l.p50),
                fmt_ms(l.p90),
                fmt_ms(l.p99),
                fmt_ms(l.max)
            );
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ledger stats: {} requests ({} ok, {} failed, {} degraded, {} retries{})",
            self.total,
            self.ok,
            self.failed,
            self.degraded,
            self.retries,
            if self.snapshots > 0 {
                format!(", {} snapshots", self.snapshots)
            } else {
                String::new()
            }
        );
        out.push_str("latency:\n");
        latency_line(&mut out, "all", &self.latency());
        for (kind, lat) in &self.per_kind {
            latency_line(&mut out, kind, &LatencySummary::from_sorted(lat));
        }
        for (outcome, lat) in &self.per_outcome {
            latency_line(
                &mut out,
                &format!("outcome:{outcome}"),
                &LatencySummary::from_sorted(lat),
            );
        }
        out.push_str("cache hit ratios:\n");
        for (name, level) in [
            ("experiment", self.experiment_cache),
            ("model", self.model_cache),
            ("factor", self.factor_cache),
        ] {
            let ratio = level
                .hit_ratio()
                .map_or_else(|| "-".to_string(), |r| format!("{:.1}%", r * 100.0));
            let _ = writeln!(
                out,
                "  {name:<12} {:>4} hits / {:>4} misses  ({ratio})",
                level.hits, level.misses
            );
        }
        let breakdowns: [(&str, &BTreeMap<String, usize>); 3] = [
            ("strategies", &self.strategies),
            ("degraded reasons", &self.degraded_reasons),
            ("errors", &self.errors),
        ];
        for (title, map) in breakdowns {
            if map.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{title}:");
            for (k, v) in map {
                let _ = writeln!(out, "  {k:<28} {v:>6}");
            }
        }
        if !self.throughput.is_empty() {
            let _ = writeln!(out, "throughput ({} s buckets):", self.bucket_ms / 1000);
            let first = self.throughput.keys().next().copied().unwrap_or(0);
            for (t, n) in &self.throughput {
                let _ = writeln!(out, "  t+{:<6}s {n:>6} requests", (t - first) / 1000);
            }
        }
        if let Some(b) = self.peak_scratch_bytes {
            let _ = writeln!(out, "peak scratch estimate: {b} bytes");
        }
        out
    }

    /// Machine-readable report (one JSON object).
    #[must_use]
    pub fn render_json(&self) -> String {
        fn json_opt_f64(v: Option<f64>) -> String {
            match v {
                Some(x) if x.is_finite() => format!("{x}"),
                _ => "null".to_string(),
            }
        }
        fn latency_obj(l: &LatencySummary) -> String {
            format!(
                "{{\"count\":{},\"p50_ms\":{},\"p90_ms\":{},\"p99_ms\":{},\"max_ms\":{},\"mean_ms\":{}}}",
                l.count,
                json_opt_f64(l.p50),
                json_opt_f64(l.p90),
                json_opt_f64(l.p99),
                json_opt_f64(l.max),
                json_opt_f64(l.mean)
            )
        }
        fn count_map(map: &BTreeMap<String, usize>) -> String {
            let mut out = String::from("{");
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", json::escape(k));
            }
            out.push('}');
            out
        }
        fn cache_obj(level: CacheLevelStats) -> String {
            format!(
                "{{\"hits\":{},\"misses\":{},\"hit_ratio\":{}}}",
                level.hits,
                level.misses,
                json_opt_f64(level.hit_ratio())
            )
        }
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"total\":{},\"ok\":{},\"failed\":{},\"degraded\":{},\"retries\":{},\"snapshots\":{}",
            self.total, self.ok, self.failed, self.degraded, self.retries, self.snapshots
        );
        let _ = write!(
            out,
            ",\"degraded_pct\":{},\"failed_pct\":{}",
            self.degraded_pct(),
            self.failed_pct()
        );
        let _ = write!(out, ",\"latency_ms\":{}", latency_obj(&self.latency()));
        out.push_str(",\"per_kind\":{");
        for (i, (k, lat)) in self.per_kind.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{}",
                json::escape(k),
                latency_obj(&LatencySummary::from_sorted(lat))
            );
        }
        out.push_str("},\"per_outcome\":{");
        for (i, (k, lat)) in self.per_outcome.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{}",
                json::escape(k),
                latency_obj(&LatencySummary::from_sorted(lat))
            );
        }
        out.push('}');
        let _ = write!(
            out,
            ",\"cache\":{{\"experiment\":{},\"model\":{},\"factor\":{}}}",
            cache_obj(self.experiment_cache),
            cache_obj(self.model_cache),
            cache_obj(self.factor_cache)
        );
        let _ = write!(out, ",\"strategies\":{}", count_map(&self.strategies));
        let _ = write!(out, ",\"degraded_reasons\":{}", count_map(&self.degraded_reasons));
        let _ = write!(out, ",\"errors\":{}", count_map(&self.errors));
        let _ = write!(out, ",\"throughput\":{{\"bucket_ms\":{},\"buckets\":[", self.bucket_ms);
        for (i, (t, n)) in self.throughput.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"t_ms\":{t},\"requests\":{n}}}");
        }
        out.push_str("]}");
        match self.peak_scratch_bytes {
            Some(b) => {
                let _ = write!(out, ",\"peak_scratch_bytes\":{b}");
            }
            None => out.push_str(",\"peak_scratch_bytes\":null"),
        }
        out.push('}');
        out
    }
}

/// Which aggregate a [`FailCondition`] thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailMetric {
    /// Overall p50 latency (duration threshold).
    P50,
    /// Overall p90 latency (duration threshold).
    P90,
    /// Overall p99 latency (duration threshold).
    P99,
    /// Overall max latency (duration threshold).
    Max,
    /// Percentage of degraded requests (percent threshold).
    DegradedPct,
    /// Percentage of failed requests (percent threshold).
    FailedPct,
}

impl FailMetric {
    fn label(self) -> &'static str {
        match self {
            FailMetric::P50 => "p50",
            FailMetric::P90 => "p90",
            FailMetric::P99 => "p99",
            FailMetric::Max => "max",
            FailMetric::DegradedPct => "degraded",
            FailMetric::FailedPct => "failed",
        }
    }
}

/// One `--fail-if` threshold: fail when the metric **exceeds** the value.
#[derive(Debug, Clone, PartialEq)]
pub struct FailCondition {
    /// The thresholded aggregate.
    pub metric: FailMetric,
    /// Threshold: ms for latency metrics, percent for ratio metrics.
    pub threshold: f64,
    /// The expression as the user wrote it (for messages).
    pub raw: String,
}

/// Parses a `--fail-if` expression: `METRIC>VALUE` with `METRIC` one of
/// `p50|p90|p99|max` (value a duration: `250ms`, `1.5s`, `800us`; bare
/// numbers are ms) or `degraded|failed` (value a percentage: `5%`; bare
/// numbers are percent points).
///
/// # Errors
///
/// A usage message naming the malformed part.
pub fn parse_fail_if(expr: &str) -> Result<FailCondition, String> {
    let (metric_txt, value_txt) = expr
        .split_once('>')
        .ok_or_else(|| format!("fail-if expression {expr:?} must look like METRIC>VALUE"))?;
    let metric = match metric_txt.trim().to_ascii_lowercase().as_str() {
        "p50" => FailMetric::P50,
        "p90" => FailMetric::P90,
        "p99" => FailMetric::P99,
        "max" => FailMetric::Max,
        "degraded" => FailMetric::DegradedPct,
        "failed" => FailMetric::FailedPct,
        other => {
            return Err(format!(
                "unknown fail-if metric {other:?} (expected p50, p90, p99, max, degraded, or failed)"
            ))
        }
    };
    let value_txt = value_txt.trim();
    let is_pct_metric = matches!(metric, FailMetric::DegradedPct | FailMetric::FailedPct);
    // (suffix kind, multiplier into the metric's native unit)
    let (number_txt, is_duration, scale) = if let Some(n) = value_txt.strip_suffix('%') {
        (n, false, 1.0)
    } else if let Some(n) = value_txt.strip_suffix("ms") {
        (n, true, 1.0)
    } else if let Some(n) = value_txt.strip_suffix("us") {
        (n, true, 1e-3)
    } else if let Some(n) = value_txt.strip_suffix('s') {
        (n, true, 1e3)
    } else {
        // Bare number: ms for latency metrics, percent points otherwise.
        (value_txt, !is_pct_metric, 1.0)
    };
    if is_pct_metric && is_duration {
        return Err(format!(
            "percentage metric {:?} takes a percent value (e.g. 5%), not a duration",
            metric.label()
        ));
    }
    if !is_pct_metric && !is_duration {
        return Err(format!(
            "latency metric {:?} takes a duration (e.g. 250ms), not a percentage",
            metric.label()
        ));
    }
    let number: f64 = number_txt
        .trim()
        .parse()
        .map_err(|_| format!("fail-if value {value_txt:?} is not a number"))?;
    if !number.is_finite() || number < 0.0 {
        return Err(format!("fail-if value {value_txt:?} must be finite and non-negative"));
    }
    Ok(FailCondition {
        metric,
        threshold: number * scale,
        raw: expr.trim().to_string(),
    })
}

impl FailCondition {
    /// Checks the condition against aggregated stats: `Some(message)`
    /// describes the breach, `None` means the gate passes. Latency
    /// metrics pass vacuously over an empty ledger.
    #[must_use]
    pub fn check(&self, stats: &LedgerStats) -> Option<String> {
        let latency = stats.latency();
        let (actual, unit) = match self.metric {
            FailMetric::P50 => (latency.p50?, "ms"),
            FailMetric::P90 => (latency.p90?, "ms"),
            FailMetric::P99 => (latency.p99?, "ms"),
            FailMetric::Max => (latency.max?, "ms"),
            FailMetric::DegradedPct => (stats.degraded_pct(), "%"),
            FailMetric::FailedPct => (stats.failed_pct(), "%"),
        };
        if actual > self.threshold {
            Some(format!(
                "{}: {} = {actual:.3}{unit} exceeds {:.3}{unit}",
                self.raw,
                self.metric.label(),
                self.threshold
            ))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::RunRecord;

    fn rec(seq: u64, ts_ms: u64, run: RunRecord) -> LedgerRecord {
        LedgerRecord::Request {
            seq,
            ts_ms,
            run: Box::new(run),
        }
    }

    fn ok_run(kind: &str, total_ms: f64, model_hit: bool) -> RunRecord {
        RunRecord {
            id: format!("{kind}-{total_ms}"),
            ok: true,
            kind: kind.to_string(),
            ran: Some(kind.to_string()),
            analysis: "transient".to_string(),
            model_hit,
            strategy: Some("sparse-lu".to_string()),
            total_ms,
            ..RunRecord::default()
        }
    }

    fn mixed_records() -> Vec<LedgerRecord> {
        let mut failed = RunRecord {
            id: "boom".to_string(),
            ok: false,
            kind: "PEEC".to_string(),
            analysis: "transient".to_string(),
            error: Some("panic".to_string()),
            retries: 2,
            total_ms: 4.0,
            ..RunRecord::default()
        };
        failed.strategy = None;
        let degraded = RunRecord {
            degraded: true,
            degraded_reason: Some("budget".to_string()),
            ..ok_run("full VPEC", 8.0, false)
        };
        vec![
            rec(1, 0, ok_run("PEEC", 1.0, false)),
            rec(2, 10, ok_run("PEEC", 2.0, true)),
            rec(3, 20, failed),
            rec(4, 30, degraded),
            LedgerRecord::Snapshot { seq: 5, ts_ms: 40 },
        ]
    }

    #[test]
    fn aggregate_matches_known_composition() {
        let stats = aggregate(&mixed_records(), 60_000);
        assert_eq!(
            (stats.total, stats.ok, stats.failed, stats.degraded, stats.retries),
            (4, 3, 1, 1, 2)
        );
        assert_eq!(stats.snapshots, 1);
        assert_eq!(stats.model_cache, CacheLevelStats { hits: 1, misses: 2 });
        assert_eq!(stats.strategies.get("sparse-lu"), Some(&3));
        assert_eq!(stats.degraded_reasons.get("budget"), Some(&1));
        assert_eq!(stats.errors.get("panic"), Some(&1));
        assert_eq!(stats.per_kind["PEEC"].len(), 3);
        assert_eq!(stats.per_outcome["failed"], vec![4.0]);
        let latency = stats.latency();
        assert_eq!(latency.p50, Some(2.0));
        assert_eq!(latency.max, Some(8.0));
        assert_eq!(stats.throughput.values().sum::<usize>(), 4);
    }

    #[test]
    fn ledgers_with_the_retired_preconditioner_field_still_aggregate() {
        // Request lines as written before the Krylov solve path was
        // removed: they carry a `"preconditioner"` field the current
        // schema no longer has. Unknown keys are ignored, so old ledgers
        // stay readable.
        let old = concat!(
            r#"{"rec":"request","seq":1,"ts_ms":1000,"id":"a","ok":true,"error":null,"#,
            r#""kind":"gwVPEC(b=2)","ran":"gwVPEC(b=2)","analysis":"transient","retries":0,"#,
            r#""degraded":false,"degraded_reason":null,"experiment_hit":false,"#,
            r#""model_hit":false,"factor_hit":false,"strategy":"sparse-lu","#,
            r#""preconditioner":null,"dim":98,"elements":120,"queue_ms":0.1,"#,
            r#""build_ms":2.5,"solve_ms":4,"total_ms":6.75,"peak_scratch_bytes":76832}"#,
            "\n",
            r#"{"rec":"request","seq":2,"ts_ms":1010,"id":"b","ok":true,"error":null,"#,
            r#""kind":"gwVPEC(b=2)","ran":"gwVPEC(b=2)","analysis":"transient","retries":0,"#,
            r#""degraded":false,"degraded_reason":null,"experiment_hit":true,"#,
            r#""model_hit":true,"factor_hit":false,"strategy":"iterative","#,
            r#""preconditioner":"ilut","dim":98,"elements":120,"queue_ms":0.1,"#,
            r#""build_ms":0.5,"solve_ms":30,"total_ms":30.5,"peak_scratch_bytes":76832}"#,
            "\n",
        );
        let records = crate::ledger::parse_ledger(old).expect("old ledger parses");
        assert_eq!(records.len(), 2);
        let stats = aggregate(&records, 0);
        assert_eq!((stats.total, stats.ok, stats.failed), (2, 2, 0));
        assert_eq!(stats.strategies.get("sparse-lu"), Some(&1));
        assert_eq!(stats.strategies.get("iterative"), Some(&1));
        assert_eq!(stats.model_cache, CacheLevelStats { hits: 1, misses: 1 });
        assert_eq!(stats.latency().max, Some(30.5));
        assert!(!stats.render_json().contains("preconditioner"));
    }

    #[test]
    fn ledgers_with_the_retired_no_ordering_strategy_still_aggregate() {
        // A request line as written while `--solver=sparse-no-ordering`
        // still existed: its strategy label is no longer produced, but a
        // strategy is a free-form string, so old ledgers stay readable.
        let old = concat!(
            r#"{"rec":"request","seq":1,"ts_ms":1000,"id":"a","ok":true,"error":null,"#,
            r#""kind":"gwVPEC(b=2)","ran":"gwVPEC(b=2)","analysis":"transient","retries":0,"#,
            r#""degraded":false,"degraded_reason":null,"experiment_hit":false,"#,
            r#""model_hit":false,"factor_hit":false,"strategy":"sparse-lu-no-ordering","#,
            r#""dim":98,"elements":120,"queue_ms":0.1,"#,
            r#""build_ms":2.5,"solve_ms":4,"total_ms":6.75,"peak_scratch_bytes":76832}"#,
            "\n",
        );
        let records = crate::ledger::parse_ledger(old).expect("old ledger parses");
        assert_eq!(records.len(), 1);
        let stats = aggregate(&records, 0);
        assert_eq!((stats.total, stats.ok, stats.failed), (1, 1, 0));
        assert_eq!(stats.strategies.get("sparse-lu-no-ordering"), Some(&1));
        assert_eq!(stats.latency().max, Some(6.75));
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn json_report_parses_and_carries_the_keys() {
        let stats = aggregate(&mixed_records(), 60_000);
        let text = stats.render_json();
        let v = json::parse(&text).expect("stats JSON parses");
        assert_eq!(v.get("total").and_then(json::JsonValue::as_u64), Some(4));
        assert!(v.get("latency_ms").and_then(|l| l.get("p99_ms")).is_some());
        assert!(v.get("cache").and_then(|c| c.get("model")).is_some());
        assert!(v.get("strategies").is_some());
        assert!(v.get("throughput").is_some());
        let rendered = stats.render_text();
        assert!(rendered.contains("4 requests"));
        assert!(rendered.contains("sparse-lu"));
    }

    #[test]
    fn fail_if_grammar_and_thresholds() {
        let c = parse_fail_if("p99>250ms").unwrap();
        assert_eq!((c.metric, c.threshold), (FailMetric::P99, 250.0));
        assert_eq!(parse_fail_if("max>1.5s").unwrap().threshold, 1500.0);
        assert_eq!(parse_fail_if("p50>800us").unwrap().threshold, 0.8);
        assert_eq!(parse_fail_if("degraded>5%").unwrap().threshold, 5.0);
        assert_eq!(parse_fail_if("failed>0").unwrap().threshold, 0.0);
        assert!(parse_fail_if("p99=250ms").is_err());
        assert!(parse_fail_if("p17>1ms").is_err());
        assert!(parse_fail_if("p99>5%").is_err());
        assert!(parse_fail_if("degraded>5ms").is_err());
        assert!(parse_fail_if("p99>banana").is_err());

        let stats = aggregate(&mixed_records(), 60_000);
        // p99 over [1,2,4,8] = 8 ms.
        assert!(parse_fail_if("p99>60s").unwrap().check(&stats).is_none());
        let breach = parse_fail_if("p99>7ms").unwrap().check(&stats).unwrap();
        assert!(breach.contains("exceeds"), "{breach}");
        // 1 of 4 degraded = 25%.
        assert!(parse_fail_if("degraded>25%").unwrap().check(&stats).is_none());
        assert!(parse_fail_if("degraded>24%").unwrap().check(&stats).is_some());
        // Latency gates pass vacuously on an empty ledger.
        let empty = aggregate(&[], 0);
        assert!(parse_fail_if("p99>1ms").unwrap().check(&empty).is_none());
        assert!(parse_fail_if("failed>0%").unwrap().check(&empty).is_none());
    }
}
