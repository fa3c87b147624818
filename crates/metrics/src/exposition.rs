//! Prometheus-style text exposition of a [`RegistrySnapshot`] of the
//! `vpec_trace` registry.
//!
//! The format is the subset of the Prometheus text format every scraper
//! understands: `# TYPE` comments, `vpec_`-prefixed sanitized metric
//! names, cumulative `_bucket{le="…"}` series plus `_sum`/`_count` for
//! histograms. [`write_atomic`] writes to `<path>.tmp` and renames, so a
//! scraper never observes a half-written file.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use vpec_trace::RegistrySnapshot;

/// Maps a dotted registry name (`engine.cache.hit`) to a Prometheus
/// metric name (`vpec_engine_cache_hit` + `suffix`).
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

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Renders the snapshot as Prometheus-style text exposition.
#[must_use]
pub fn render(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let metric = metric_name(name, "_total");
        let _ = writeln!(out, "# TYPE {metric} counter");
        let _ = writeln!(out, "{metric} {value}");
    }
    for (name, h) in &snapshot.histograms {
        let metric = metric_name(name, "");
        let _ = writeln!(out, "# TYPE {metric} histogram");
        let mut cumulative = 0u64;
        for (i, &c) in h.counts.iter().enumerate() {
            if c == 0 {
                continue; // cumulative series stays valid without empty buckets
            }
            cumulative += c;
            let bound = vpec_trace::bucket_bound(i);
            let _ = writeln!(
                out,
                "{metric}_bucket{{le=\"{}\"}} {cumulative}",
                fmt_f64(bound)
            );
        }
        let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{metric}_sum {}", fmt_f64(h.sum));
        let _ = writeln!(out, "{metric}_count {}", h.count);
    }
    out
}

/// Writes the rendered exposition to `path` atomically: the text goes to
/// `<path>.tmp` first and is renamed into place, so concurrent readers
/// see either the previous complete file or the new one.
///
/// # Errors
///
/// I/O failures creating, writing, or renaming the temporary file.
pub fn write_atomic(path: &Path, snapshot: &RegistrySnapshot) -> std::io::Result<()> {
    let text = render(snapshot);
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
    use std::collections::BTreeMap;
    use vpec_trace::Histogram;

    fn sample() -> RegistrySnapshot {
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(100.0);
        let mut histograms = BTreeMap::new();
        histograms.insert("engine.request.total_ms".to_string(), h.snapshot().unwrap());
        let mut counters = BTreeMap::new();
        counters.insert("engine.cache.hit".to_string(), 3u64);
        RegistrySnapshot {
            counters,
            histograms,
        }
    }

    #[test]
    fn render_covers_all_metric_kinds() {
        let text = render(&sample());
        assert!(text.contains("# TYPE vpec_engine_cache_hit_total counter"));
        assert!(text.contains("vpec_engine_cache_hit_total 3"));
        assert!(text.contains("# TYPE vpec_engine_request_total_ms histogram"));
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
}
