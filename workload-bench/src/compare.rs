//! `--compare BASE.json NEW.json`: per workload and metric, both sides'
//! medians and quartiles and a verdict.

use crate::metrics::{def, Better};
use crate::stats::Summary;
use vpec_trace::json::{parse, JsonValue};

/// How a metric moved from the base run to the new run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Regressed by more than the bound.
    Worse,
    /// The runs scatter more than the bound and neither side beats the
    /// other on every run, so the data cannot say.
    Unresolved,
}

/// Judges `new` against `base`. The change counts when the medians differ
/// by more than `bound` (a share of the base median). It is unresolved
/// when either side's quartile spread exceeds `bound`, unless every run of
/// one side beats every run of the other.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(b), Some(n)) = (Summary::of(base), Summary::of(new)) else {
        return Verdict::Unresolved;
    };
    let max = |v: &[f64]| v.iter().copied().fold(f64::MIN, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::MAX, f64::min);
    let (new_wins, base_wins) = match better {
        Better::Lower => (max(new) < min(base), max(base) < min(new)),
        Better::Higher => (min(new) > max(base), min(base) > max(new)),
    };
    if b.spread().max(n.spread()) > bound && !new_wins && !base_wins {
        return Verdict::Unresolved;
    }
    // Relative improvement of the median; positive is better.
    let gain = match better {
        Better::Lower => b.median - n.median,
        Better::Higher => n.median - b.median,
    };
    let rel = if b.median != 0.0 {
        gain / b.median.abs()
    } else if gain == 0.0 {
        0.0
    } else {
        gain.signum() * f64::INFINITY
    };
    if rel < -bound {
        Verdict::Worse
    } else if rel > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn samples(metric: &JsonValue) -> Vec<f64> {
    match metric.get("samples") {
        Some(JsonValue::Arr(items)) => items.iter().filter_map(JsonValue::as_f64).collect(),
        _ => Vec::new(),
    }
}

fn items<'a>(v: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match v.get(key) {
        Some(JsonValue::Arr(items)) => items,
        _ => &[],
    }
}

fn find<'a>(list: &'a [JsonValue], name: &str) -> Option<&'a JsonValue> {
    list.iter()
        .find(|x| x.get("name").and_then(JsonValue::as_str) == Some(name))
}

fn fmt_summary(s: Option<Summary>) -> String {
    s.map_or("-".to_string(), |s| {
        format!("{:.6} [{:.6}, {:.6}] n={}", s.median, s.q1, s.q3, s.n)
    })
}

/// Compares two results files, printing one row per workload and metric.
/// Returns `Ok(true)` when no gated metric got worse.
///
/// # Errors
///
/// A message when a file cannot be read or parsed.
pub fn run(base_path: &str, new_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    Ok(compare(&load(base_path)?, &load(new_path)?))
}

/// [`run`] on parsed results.
fn compare(base: &JsonValue, new: &JsonValue) -> bool {
    let mut clean = true;
    println!(
        "{:<18} {:<28} {:>10}  {:<44} {:<44}",
        "workload", "metric", "verdict", "base median [q1, q3]", "new median [q1, q3]"
    );
    for w in items(new, "workloads") {
        let Some(name) = w.get("name").and_then(JsonValue::as_str) else {
            continue;
        };
        let Some(bw) = find(items(base, "workloads"), name) else {
            println!("{name:<18} (absent from the base run)");
            continue;
        };
        for metric in items(w, "metrics") {
            let Some(mname) = metric.get("name").and_then(JsonValue::as_str) else {
                continue;
            };
            let Some(bm) = find(items(bw, "metrics"), mname) else {
                continue;
            };
            let (bs, ns) = (samples(bm), samples(metric));
            let d = def(mname);
            let label = match d.bound {
                Some(bound) => {
                    let v = verdict(&bs, &ns, d.better, bound);
                    clean &= v != Verdict::Worse;
                    format!("{v:?}").to_lowercase()
                }
                None => "info".to_string(),
            };
            println!(
                "{name:<18} {:<28} {label:>10}  {:<44} {:<44}",
                format!("{mname} ({})", d.unit),
                fmt_summary(Summary::of(&bs)),
                fmt_summary(Summary::of(&ns)),
            );
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        // Tight runs, 20 % slower: worse.
        assert_eq!(
            verdict(&base, &[1.20, 1.21, 1.19, 1.20], Better::Lower, 0.1),
            Verdict::Worse
        );
        // 20 % faster: better; 3 % slower: same.
        assert_eq!(
            verdict(&base, &[0.80, 0.81, 0.79], Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &[1.03, 1.02, 1.04], Better::Lower, 0.1),
            Verdict::Same
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&base, &[0.80, 0.81, 0.79], Better::Higher, 0.1),
            Verdict::Worse
        );
        // Scatter wider than the bound with overlapping runs: unresolved.
        let noisy = [0.6, 1.5, 0.9, 1.4, 0.7];
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Scatter wider than the bound, but every new run beats every base
        // run: resolved.
        let wide_but_faster = [0.3, 0.5, 0.7, 0.4, 0.6];
        assert_eq!(
            verdict(&base, &wide_but_faster, Better::Lower, 0.1),
            Verdict::Better
        );
        // A zero bound flags any increase of a zero base (failed_frac).
        assert_eq!(
            verdict(&[0.0], &[0.001], Better::Lower, 0.0),
            Verdict::Worse
        );
        assert_eq!(verdict(&[0.0], &[0.0], Better::Lower, 0.0), Verdict::Same);
        assert_eq!(
            verdict(&[], &[1.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_gated_regression_fails_the_comparison() {
        let results = |wall: &str| {
            parse(&format!(
                r#"{{"header":{{}},"workloads":[{{"name":"fig8_dense256","metrics":[
                {{"name":"wall_s","unit":"s","samples":[{wall}]}},
                {{"name":"circuit.steps.pct","unit":"%","samples":[50,51]}}]}}]}}"#
            ))
            .unwrap()
        };
        let base = results("1.0,1.01,0.99");
        assert!(compare(&base, &results("1.0,1.02,0.98")));
        assert!(!compare(&base, &results("1.3,1.31,1.29")));
        assert!(run("no-such-base.json", "no-such-new.json").is_err());
    }
}
