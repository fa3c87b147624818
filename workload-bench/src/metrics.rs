//! Every metric the benchmark reports: name, unit, direction and the
//! regression bound `--compare` applies.
//!
//! `BENCHMARK.json` at the repository root lists the subsets a single
//! `--workload` run prints as its last line ([`END_TO_END`] untraced,
//! [`PER_LAYER`] traced); a test keeps the two in step. Those subsets hold
//! only metrics that every workload measures. The rest are reported in the
//! results file of a full run.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, errors).
    Lower,
    /// Larger is better (rates, ratios, speed-ups).
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name, unique.
    pub name: &'static str,
    /// Unit, printed after every value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// `--compare` calls it a regression; `None` for per-layer metrics,
    /// which explain a change rather than gate it.
    pub bound: Option<f64>,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports, in `BENCHMARK.json` order.
pub const END_TO_END: [&str; 3] = ["setup_s", "wall_s", "peak_rss_mb"];

/// Per-layer metrics every workload reports when traced, in
/// `BENCHMARK.json` order. Layer time is given as a share of the traced
/// trial's wall time (`trace.wall_s`); a layer a workload bypasses reads
/// 0 %.
pub const PER_LAYER: [&str; 28] = [
    "geometry.s",
    "geometry.filaments",
    "trace.wall_s",
    "trace.coverage",
    "trace.overhead_pct",
    "extract.pct",
    "core.model.pct",
    "core.repair.pct",
    "core.repair.rows",
    "core.lower.pct",
    "core.lower.elements",
    "circuit.factor.pct",
    "circuit.factor.dim",
    "circuit.factor.fallbacks",
    "circuit.steps.pct",
    "circuit.steps.count",
    "circuit.steps.retries",
    "circuit.ac.pct",
    "circuit.ac.points",
    "engine.build.pct",
    "engine.solve.pct",
    "engine.overhead.pct",
    "engine.hit_ratio.experiment",
    "engine.hit_ratio.model",
    "engine.hit_ratio.factor",
    "engine.degraded",
    "engine.retries",
    "accuracy.err_pct",
];

/// All metrics, end-to-end first.
pub const METRICS: &[MetricDef] = &[
    m("setup_s", "s", Lower, Some(0.25)),
    m("wall_s", "s", Lower, Some(0.25)),
    m("peak_rss_mb", "MB", Lower, Some(0.20)),
    m("failed_frac", "ratio", Lower, Some(0.0)),
    m("err_pct_peak", "%", Lower, Some(0.01)),
    m("peec_s", "s", Lower, Some(0.10)),
    m("vpec_full_s", "s", Lower, Some(0.10)),
    m("gwvpec_s", "s", Lower, Some(0.10)),
    m("gwvpec_speedup", "x", Higher, Some(0.10)),
    m("invert_s", "s", Lower, Some(0.10)),
    m("window_s", "s", Lower, Some(0.10)),
    m("req_p50_ms", "ms", Lower, Some(0.10)),
    m("req_p99_ms", "ms", Lower, Some(0.10)),
    m("req_per_s", "1/s", Higher, Some(0.10)),
    // Per-layer: the subset a traced single-workload run prints.
    m("geometry.s", "s", Lower, None),
    m("geometry.filaments", "count", Lower, None),
    m("trace.wall_s", "s", Lower, None),
    m("trace.coverage", "ratio", Higher, None),
    m("trace.overhead_pct", "%", Lower, None),
    m("extract.pct", "%", Lower, None),
    m("core.model.pct", "%", Lower, None),
    m("core.repair.pct", "%", Lower, None),
    m("core.repair.rows", "count", Lower, None),
    m("core.lower.pct", "%", Lower, None),
    m("core.lower.elements", "count", Lower, None),
    m("circuit.factor.pct", "%", Lower, None),
    m("circuit.factor.dim", "count", Lower, None),
    m("circuit.factor.fallbacks", "count", Lower, None),
    m("circuit.steps.pct", "%", Lower, None),
    m("circuit.steps.count", "count", Lower, None),
    m("circuit.steps.retries", "count", Lower, None),
    m("circuit.ac.pct", "%", Lower, None),
    m("circuit.ac.points", "count", Lower, None),
    m("engine.build.pct", "%", Lower, None),
    m("engine.solve.pct", "%", Lower, None),
    m("engine.overhead.pct", "%", Lower, None),
    m("engine.hit_ratio.experiment", "ratio", Higher, None),
    m("engine.hit_ratio.model", "ratio", Higher, None),
    m("engine.hit_ratio.factor", "ratio", Higher, None),
    m("engine.degraded", "count", Lower, None),
    m("engine.retries", "count", Lower, None),
    m("accuracy.err_pct", "%", Lower, None),
    // Per-layer: absolute times, in the results file only.
    m("extract.s", "s", Lower, None),
    m("core.model.s", "s", Lower, None),
    m("core.repair.s", "s", Lower, None),
    m("core.lower.s", "s", Lower, None),
    m("circuit.factor.s", "s", Lower, None),
    m("circuit.steps.s", "s", Lower, None),
    m("circuit.steps.us_per_step", "us", Lower, None),
    m("circuit.ac.s", "s", Lower, None),
    m("circuit.ac.ms_per_point", "ms", Lower, None),
    m("engine.build_ms", "ms", Lower, None),
    m("engine.solve_ms", "ms", Lower, None),
    m("engine.overhead_ms", "ms", Lower, None),
];

/// The definition of `name`.
///
/// # Panics
///
/// Panics for a name missing from [`METRICS`] — a bug in this benchmark.
pub fn def(name: &str) -> &'static MetricDef {
    METRICS
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not defined"))
}

/// Layers whose self time a traced model trial attributes, as
/// `(span name, share metric, seconds metric)`.
pub const LAYER_SPANS: [(&str, &str, &str); 7] = [
    ("extract", "extract.pct", "extract.s"),
    ("core.model", "core.model.pct", "core.model.s"),
    ("core.repair", "core.repair.pct", "core.repair.s"),
    ("core.lower", "core.lower.pct", "core.lower.s"),
    ("circuit.factor", "circuit.factor.pct", "circuit.factor.s"),
    ("circuit.steps", "circuit.steps.pct", "circuit.steps.s"),
    ("circuit.ac", "circuit.ac.pct", "circuit.ac.s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_trace::json::{parse, JsonValue};

    #[test]
    fn names_are_unique_and_subsets_defined() {
        let mut names: Vec<&str> = METRICS.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), METRICS.len());
        for n in END_TO_END.iter().chain(PER_LAYER.iter()) {
            def(n);
        }
        for (_, pct, secs) in LAYER_SPANS {
            def(pct);
            def(secs);
        }
    }

    fn list<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        match v.get(key) {
            Some(JsonValue::Arr(items)) => items,
            other => panic!("BENCHMARK.json {key}: {other:?}"),
        }
    }

    /// `BENCHMARK.json` and this table must describe the same metrics.
    #[test]
    fn benchmark_json_matches_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = parse(&text).expect("BENCHMARK.json parses");
        for (key, names) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let items = list(&v, key);
            assert_eq!(items.len(), names.len(), "{key} length");
            for (item, name) in items.iter().zip(names) {
                let d = def(name);
                let field = |k: &str| item.get(k).and_then(JsonValue::as_str);
                assert_eq!(field("name"), Some(d.name));
                assert_eq!(field("unit"), Some(d.unit), "{name}");
                assert_eq!(field("better"), Some(d.better.as_str()), "{name}");
                if key == "end_to_end" {
                    let bound = item.get("bound").and_then(JsonValue::as_f64);
                    assert_eq!(bound, d.bound, "{name}");
                }
            }
        }
        let workloads: Vec<&str> = list(&v, "workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("workload name")
            })
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
