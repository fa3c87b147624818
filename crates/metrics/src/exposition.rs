//! Prometheus-style text exposition of a request stream's counters and
//! latency [`Histogram`]s, which the engine tallies from the
//! [`crate::RunRecord`]s it writes to the ledger.
//!
//! The format is the subset of the Prometheus text format every scraper
//! understands: `# TYPE` comments, `vpec_`-prefixed sanitized metric
//! names, cumulative `_bucket{le="…"}` series plus `_sum`/`_count` for
//! histograms. [`write_atomic`] writes to `<path>.tmp` and renames, so a
//! scraper never observes a half-written file.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Number of buckets per histogram.
const BUCKET_COUNT: usize = 64;

/// Upper bound of the first bucket (1 µs when values are milliseconds).
const BASE: f64 = 1e-3;

/// Inclusive upper bound of bucket `index`: `10⁻³ · 2^(index/2)`, so the
/// buckets cover 10⁻³ to ~3·10⁶ (for milliseconds, ~1 µs to ~50 min).
fn bucket_bound(index: usize) -> f64 {
    BASE * 2f64.powf(index as f64 * 0.5)
}

/// Bucket holding a (finite, non-negative) observation `v`: the smallest
/// bucket whose upper bound is ≥ `v`, saturating in the last bucket.
fn bucket_index(v: f64) -> usize {
    if v <= BASE {
        return 0;
    }
    let raw = (2.0 * (v / BASE).log2()).ceil();
    let mut idx = if raw.is_finite() && raw < (BUCKET_COUNT - 1) as f64 {
        raw as usize
    } else {
        BUCKET_COUNT - 1
    };
    // The log computation can land one bucket off at exact bounds;
    // nudge so the invariant `bound(idx-1) < v ≤ bound(idx)` holds
    // exactly (the last bucket keeps everything beyond its bound).
    while idx > 0 && bucket_bound(idx - 1) >= v {
        idx -= 1;
    }
    while idx < BUCKET_COUNT - 1 && bucket_bound(idx) < v {
        idx += 1;
    }
    idx
}

/// A log-scale histogram over non-negative values: 64 buckets whose
/// upper bounds grow by a factor of √2, plus the exact count and sum.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; BUCKET_COUNT],
    count: u64,
    sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKET_COUNT],
            count: 0,
            sum: 0.0,
        }
    }

    /// Records one observation. Non-finite or negative values are
    /// ignored — no recorded series (phase times in ms) can take them.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() || value < 0.0 {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.counts[bucket_index(value)] += 1;
    }
}

/// Maps a dotted name (`engine.cache.hit`) to a Prometheus metric name
/// (`vpec_engine_cache_hit` + `suffix`).
fn metric_name(raw: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(raw.len() + suffix.len() + 5);
    out.push_str("vpec_");
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out.push_str(suffix);
    out
}

/// Renders counters and histograms, in the order given, as
/// Prometheus-style text exposition.
#[must_use]
pub fn render(counters: &[(&str, u64)], histograms: &[(&str, &Histogram)]) -> String {
    let mut out = String::new();
    for (name, value) in counters {
        let metric = metric_name(name, "_total");
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }
    for (name, h) in histograms {
        let metric = metric_name(name, "");
        let _ = writeln!(out, "# TYPE {metric} histogram");
        let mut cumulative = 0u64;
        for (i, &c) in h.counts.iter().enumerate() {
            if c == 0 {
                continue; // cumulative series stays valid without empty buckets
            }
            cumulative += c;
            let _ = writeln!(
                out,
                "{metric}_bucket{{le=\"{}\"}} {cumulative}",
                bucket_bound(i)
            );
        }
        let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{metric}_sum {}", h.sum);
        let _ = writeln!(out, "{metric}_count {}", h.count);
    }
    out
}

/// Writes `text` to `path` atomically: it goes to `<path>.tmp` first and
/// is renamed into place, so concurrent readers see either the previous
/// complete file or the new one.
///
/// # Errors
///
/// I/O failures creating, writing, or renaming the temporary file.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(100.0);
        render(
            &[("engine.cache.hit", 3)],
            &[("engine.request.total_ms", &h)],
        )
    }

    #[test]
    fn render_covers_all_metric_kinds() {
        let text = sample();
        assert!(text.contains("# TYPE vpec_engine_cache_hit_total counter"));
        assert!(text.contains("vpec_engine_cache_hit_total 3"));
        assert!(text.contains("# TYPE vpec_engine_request_total_ms histogram"));
        // 1 ms falls in the bucket bounded by 2^10 µs.
        assert!(text.contains("vpec_engine_request_total_ms_bucket{le=\"1.024\"} 1"));
        assert!(text.contains("vpec_engine_request_total_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("vpec_engine_request_total_ms_sum 101"));
        assert!(text.contains("vpec_engine_request_total_ms_count 2"));
    }

    #[test]
    fn write_atomic_replaces_the_file() {
        let path = std::env::temp_dir().join("vpec_metrics_expo_test.prom");
        std::fs::write(&path, "stale").unwrap();
        write_atomic(&path, &sample()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("# TYPE"));
        assert!(!std::path::Path::new(&format!("{}.tmp", path.display())).exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_finite_and_negative_observations_are_ignored() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-1.0);
        assert_eq!(h, Histogram::new());
    }

    #[test]
    fn bucket_bounds_cover_the_edges() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(1e-3), 0);
        // A value exactly on a bound lands in that bucket (inclusive
        // upper bound), never the next one up.
        for i in 0..BUCKET_COUNT {
            let b = bucket_bound(i);
            assert_eq!(bucket_index(b), i, "bound {i} maps into the wrong bucket");
        }
        // Beyond the top bound (1e12 ms is ~31.7 years) saturates.
        assert_eq!(bucket_index(1e12), BUCKET_COUNT - 1);
    }
}
