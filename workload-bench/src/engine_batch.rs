//! `engine_batch`: a seeded stream of requests through the batch engine.
//!
//! One closed-loop client sends each request after the previous reply, to
//! a fresh `Engine` per trial, through `Engine::run_request_recorded`. The
//! mix exercises the engine's three cache levels (repeated geometries),
//! cold extraction (fresh geometries), the AC path, build-only requests,
//! budget degradation and a designed budget failure.

use crate::spans::Recorder;
use crate::{Size, TrialOut, INPUTS};
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;
use vpec_core::harness::BuildBudget;
use vpec_engine::{Engine, EngineConfig, ScenarioRequest, ScenarioResponse, StructureSpec};
use vpec_geometry::BusSpec;
use vpec_metrics::RunRecord;
use vpec_numerics::rng::XorShift64;

/// Requests per trial at the paper size.
pub const REQUESTS: usize = 1000;
const TOY_REQUESTS: usize = 100;

/// One class of request in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Transient on one of the six recurring geometries: cache hits.
    Recurring,
    /// Transient on a geometry seen once: cold extraction and build.
    Fresh,
    /// AC sweep on a recurring geometry: one factor per frequency.
    Ac,
    /// Model build only.
    BuildOnly,
    /// Full VPEC past the matrix-dimension budget: degrades to wVPEC.
    OverBudget,
    /// PEEC past the step budget: fails by design.
    OverSteps,
}

/// Share of each category, percent of the batch.
pub const MIX: [(Category, usize); 6] = [
    (Category::Recurring, 45),
    (Category::Fresh, 20),
    (Category::Ac, 15),
    (Category::BuildOnly, 10),
    (Category::OverBudget, 8),
    (Category::OverSteps, 2),
];

/// The engine's admission budget: full inversion up to this many
/// filaments, transients up to [`MAX_STEPS`] steps.
const MAX_MATRIX_DIM: usize = 20;
const MAX_STEPS: usize = 1000;

/// Recurring geometries as `(bits, segments)`, all within
/// [`MAX_MATRIX_DIM`] filaments.
const RECURRING: [(usize, usize); 6] = [(4, 1), (6, 3), (8, 1), (8, 2), (12, 1), (16, 1)];
/// Geometries past [`MAX_MATRIX_DIM`] filaments.
const OVER_BUDGET: [(usize, usize); 2] = [(24, 1), (12, 2)];

/// Expected outcome of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Degraded,
    Failed,
}

impl Category {
    fn outcome(self) -> Outcome {
        match self {
            Category::OverBudget => Outcome::Degraded,
            Category::OverSteps => Outcome::Failed,
            _ => Outcome::Ok,
        }
    }
}

/// A generated batch: one JSON request line per entry, with its category.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Request lines, in send order.
    pub lines: Vec<String>,
    /// Category of each line.
    pub categories: Vec<Category>,
}

/// Generates `n` requests from `seed`: exactly the [`MIX`] shares (the
/// rounding remainder goes to recurring transients), in seeded order.
pub fn generate(seed: u64, n: usize) -> Batch {
    let mut rng = XorShift64::new(seed ^ crate::Workload::EngineBatch.salt());
    let counts: Vec<(Category, usize)> = MIX.iter().map(|&(c, pct)| (c, n * pct / 100)).collect();
    let remainder = n - counts.iter().map(|c| c.1).sum::<usize>();
    let mut entries: Vec<(Category, String)> = Vec::with_capacity(n);
    let transient =
        |t_stop: f64| format!(r#""analysis":"transient","t_stop":{t_stop:e},"dt":1e-12"#);
    let bus = |(bits, segments): (usize, usize)| format!(r#""bits":{bits},"segments":{segments}"#);
    for (cat, count) in counts {
        let count = if cat == Category::Recurring {
            count + remainder
        } else {
            count
        };
        for k in 0..count {
            let recurring = RECURRING[rng.range_usize(0, RECURRING.len())];
            let body = match cat {
                Category::Recurring => {
                    let kind = ["vpec-full", "wvpec-g:4", "peec"][rng.range_usize(0, 3)];
                    let t_stop = [5e-11, 1e-10][rng.range_usize(0, 2)];
                    format!(
                        r#"{},"kind":"{kind}",{}"#,
                        bus(recurring),
                        transient(t_stop)
                    )
                }
                Category::Fresh => {
                    // Distinct misalignments make every fresh bus a new
                    // geometry to the engine's content-hashed caches.
                    let bits = rng.range_usize(4, 13);
                    let misalign = 1e-3 * (k as f64 + rng.range_f64(0.1, 0.9));
                    format!(
                        r#""bits":{bits},"segments":1,"misalign":{misalign},"kind":"vpec-full",{}"#,
                        transient(5e-11)
                    )
                }
                Category::Ac => {
                    let kind = ["vpec-full", "wvpec-g:4"][rng.range_usize(0, 2)];
                    format!(
                        r#"{},"kind":"{kind}","analysis":"ac","f_start":1e8,"f_stop":1e10,"points_per_decade":3"#,
                        bus(recurring)
                    )
                }
                Category::BuildOnly => {
                    let kind = ["vpec-full", "wvpec-g:4"][rng.range_usize(0, 2)];
                    format!(r#"{},"kind":"{kind}","analysis":"none""#, bus(recurring))
                }
                Category::OverBudget => {
                    let g = OVER_BUDGET[rng.range_usize(0, OVER_BUDGET.len())];
                    format!(r#"{},"kind":"vpec-full",{}"#, bus(g), transient(5e-11))
                }
                Category::OverSteps => {
                    format!(r#"{},"kind":"peec",{}"#, bus(recurring), transient(5e-9))
                }
            };
            entries.push((cat, body));
        }
    }
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.range_usize(0, i + 1));
    }
    let (categories, bodies): (Vec<_>, Vec<_>) = entries.into_iter().unzip();
    let lines = bodies
        .into_iter()
        .enumerate()
        .map(|(i, body)| format!(r#"{{"id":"q{i}",{body}}}"#))
        .collect();
    Batch { lines, categories }
}

/// One parsed batch with the expected outcome and identity of each
/// request.
struct Parsed {
    requests: Vec<ScenarioRequest>,
    categories: Vec<Category>,
    /// Request identity without its id: equal keys must get bit-identical
    /// peaks, whether computed cold or served from a cache.
    keys: Vec<String>,
}

/// The seeded batches, one per trial, and the peaks seen so far.
pub struct EngineBatch {
    batches: Vec<Parsed>,
    trials: usize,
    peaks: HashMap<String, u64>,
    filaments: usize,
    /// Seconds spent building layouts during set-up.
    pub geometry_s: f64,
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        budget: BuildBudget {
            max_matrix_dim: Some(MAX_MATRIX_DIM),
            max_steps: Some(MAX_STEPS),
            ..BuildBudget::unlimited()
        },
        backoff_ms: 1,
        ..EngineConfig::default()
    }
}

impl EngineBatch {
    /// Generates and parses [`INPUTS`] seeded batches, so that no trial
    /// repeats another's fresh geometries, and builds each distinct
    /// geometry once to confirm that the categories' expected outcomes
    /// follow from the budget.
    ///
    /// # Panics
    ///
    /// Panics if a generated line fails to parse or a geometry contradicts
    /// its category — bugs in this generator.
    pub fn setup(seed: u64, size: Size) -> EngineBatch {
        let n = if size == Size::Toy {
            TOY_REQUESTS
        } else {
            REQUESTS
        };
        let batches: Vec<Parsed> = (0..INPUTS as u64)
            .map(|k| {
                let batch = generate(seed ^ (k + 1).wrapping_mul(0xD1B5_4A32_D192_ED03), n);
                let requests = batch
                    .lines
                    .iter()
                    .enumerate()
                    .map(|(i, l)| {
                        ScenarioRequest::parse_line(l, i).expect("generated request parses")
                    })
                    .collect();
                let keys = batch
                    .lines
                    .iter()
                    .map(|l| {
                        l.split_once(',')
                            .map_or(l.as_str(), |(_, rest)| rest)
                            .to_string()
                    })
                    .collect();
                Parsed {
                    requests,
                    categories: batch.categories,
                    keys,
                }
            })
            .collect();
        let t0 = Instant::now();
        let mut seen = BTreeSet::new();
        let mut filaments = 0;
        for b in &batches {
            for (req, cat) in b.requests.iter().zip(&b.categories) {
                let StructureSpec::Bus {
                    bits,
                    segments,
                    misalign,
                    ..
                } = req.structure
                else {
                    unreachable!("the generator only emits buses")
                };
                let n_fil = BusSpec::new(bits)
                    .segments(segments)
                    .misalignment(misalign)
                    .build()
                    .filaments()
                    .len();
                assert_eq!(
                    *cat == Category::OverBudget,
                    n_fil > MAX_MATRIX_DIM,
                    "{cat:?} request on {n_fil} filaments"
                );
                if seen.insert((bits, segments, misalign.to_bits())) {
                    filaments += n_fil;
                }
            }
        }
        EngineBatch {
            batches,
            trials: 0,
            peaks: HashMap::new(),
            filaments,
            geometry_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// Filaments over the distinct geometries of all batches.
    pub fn filaments(&self) -> usize {
        self.filaments
    }

    /// One trial: the next batch through a fresh engine.
    pub fn trial(&mut self, rec: Option<&Recorder>) -> TrialOut {
        let batch = self.trials % self.batches.len();
        self.trials += 1;
        let requests = &self.batches[batch].requests;
        let mut engine = Engine::new(engine_config());
        let mut replies: Vec<(ScenarioResponse, RunRecord)> = Vec::with_capacity(requests.len());
        let mut latencies_ms = Vec::with_capacity(requests.len());
        let t0 = Instant::now();
        for req in requests {
            let t = Instant::now();
            let reply = match rec {
                None => engine.run_request_recorded(req, 0.0),
                Some(r) => r.span("engine.request", || engine.run_request_recorded(req, 0.0)),
            };
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            replies.push(reply);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let mut out = TrialOut {
            wall_s,
            attempted: replies.len(),
            ..TrialOut::default()
        };
        for (i, (resp, _)) in replies.iter().enumerate() {
            if let Err(e) = self.check(batch, i, resp) {
                out.failures.push(format!("{}: {e}", resp.id));
            }
        }
        out.failed = out.failures.len();
        per_trial_values(&latencies_ms, wall_s, &mut out);
        record_layers(&replies, &mut out);
        out
    }

    fn check(&mut self, batch: usize, i: usize, resp: &ScenarioResponse) -> Result<(), String> {
        let b = &self.batches[batch];
        let want = b.categories[i].outcome();
        let category = resp.error.as_ref().map(|e| e.category());
        let got = match (resp.ok, resp.degraded) {
            (true, false) => Outcome::Ok,
            (true, true) => Outcome::Degraded,
            (false, _) => Outcome::Failed,
        };
        let reason_ok = match want {
            Outcome::Ok => resp.ran.as_deref() == Some(resp.requested.as_str()),
            Outcome::Degraded => {
                resp.degraded_reason.as_deref() == Some("budget")
                    && resp.ran.as_deref() == Some("gwVPEC(b=4)")
            }
            Outcome::Failed => category == Some("budget"),
        };
        if got != want || !reason_ok {
            return Err(format!(
                "expected {want:?}, got {got:?} (ran {:?}, reason {:?}, error {category:?})",
                resp.ran, resp.degraded_reason
            ));
        }
        if let Some(mv) = resp.peak_mv {
            let first = *self.peaks.entry(b.keys[i].clone()).or_insert(mv.to_bits());
            if first != mv.to_bits() || !mv.is_finite() {
                return Err(format!(
                    "peak {mv} mV differs from {} mV for the same request",
                    f64::from_bits(first)
                ));
            }
        }
        Ok(())
    }
}

/// Latency percentiles and throughput of one trial's requests.
fn per_trial_values(latencies_ms: &[f64], wall_s: f64, out: &mut TrialOut) {
    use crate::stats::percentile;
    for (name, p) in [("req_p50_ms", 50.0), ("req_p99_ms", 99.0)] {
        if let Some(v) = percentile(latencies_ms, p, 10) {
            out.values.push((name, v));
        }
    }
    out.values
        .push(("req_per_s", latencies_ms.len() as f64 / wall_s));
}

/// Engine-layer metrics from the run-ledger records. A model-cache hit
/// reports the cached model's build time, which this request did not pay,
/// so build time counts on misses only.
fn record_layers(replies: &[(ScenarioResponse, RunRecord)], out: &mut TrialOut) {
    let n = replies.len().max(1) as f64;
    let (mut build, mut solve, mut total) = (0.0, 0.0, 0.0);
    for (_, r) in replies {
        let b = if r.model_hit {
            0.0
        } else {
            r.build_ms.unwrap_or(0.0)
        };
        build += b;
        solve += r.solve_ms.unwrap_or(0.0);
        total += r.total_ms;
    }
    let overhead = (total - build - solve).max(0.0);
    let ok: Vec<&RunRecord> = replies
        .iter()
        .filter(|(_, r)| r.ok)
        .map(|(_, r)| r)
        .collect();
    let ratio = |hits: usize, of: usize| {
        if of == 0 {
            0.0
        } else {
            hits as f64 / of as f64
        }
    };
    let transients: Vec<&&RunRecord> = ok.iter().filter(|r| r.analysis == "transient").collect();
    let pct = |part: f64| {
        if total > 0.0 {
            100.0 * part / total
        } else {
            0.0
        }
    };
    out.layer.extend([
        ("engine.build_ms", build / n),
        ("engine.solve_ms", solve / n),
        ("engine.overhead_ms", overhead / n),
        ("engine.build.pct", pct(build)),
        ("engine.solve.pct", pct(solve)),
        ("engine.overhead.pct", pct(overhead)),
        (
            "engine.hit_ratio.experiment",
            ratio(ok.iter().filter(|r| r.experiment_hit).count(), ok.len()),
        ),
        (
            "engine.hit_ratio.model",
            ratio(ok.iter().filter(|r| r.model_hit).count(), ok.len()),
        ),
        (
            "engine.hit_ratio.factor",
            ratio(
                transients.iter().filter(|r| r.factor_hit).count(),
                transients.len(),
            ),
        ),
        (
            "engine.degraded",
            replies.iter().filter(|(_, r)| r.degraded).count() as f64,
        ),
        (
            "engine.retries",
            replies.iter().map(|(_, r)| r.retries).sum::<usize>() as f64,
        ),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_batch_and_the_exact_mix() {
        let a = generate(5, REQUESTS);
        assert_eq!(a, generate(5, REQUESTS));
        assert_ne!(a.lines, generate(6, REQUESTS).lines);
        for (cat, pct) in MIX {
            let count = a.categories.iter().filter(|&&c| c == cat).count();
            assert_eq!(count, REQUESTS * pct / 100, "{cat:?}");
        }
        // Rounding remainder goes to recurring transients.
        let small = generate(5, 33);
        assert_eq!(small.lines.len(), 33);
        // Fresh requests differ only in geometry, so distinct lines (less
        // their ids) are distinct geometries.
        let fresh: BTreeSet<&str> = a
            .lines
            .iter()
            .zip(&a.categories)
            .filter(|(_, &c)| c == Category::Fresh)
            .map(|(l, _)| l.split_once(',').unwrap().1)
            .collect();
        assert_eq!(
            fresh.len(),
            REQUESTS * 20 / 100,
            "fresh geometries are distinct"
        );
    }

    #[test]
    fn toy_batch_meets_every_expected_outcome() {
        let mut b = EngineBatch::setup(3, Size::Toy);
        assert!(b.filaments() > 0);
        for _ in 0..2 {
            let t = b.trial(None);
            assert!(t.failures.is_empty(), "{:?}", t.failures);
            assert_eq!(t.attempted, TOY_REQUESTS);
        }
        let rec = Recorder::new();
        let traced = b.trial(Some(&rec));
        assert!(traced.failures.is_empty(), "{:?}", traced.failures);
        assert_eq!(rec.into_spans().len(), TOY_REQUESTS);
        let layer: HashMap<&str, f64> = traced.layer.iter().copied().collect();
        assert!(layer["engine.hit_ratio.model"] > 0.0);
        assert!(layer["engine.degraded"] >= 1.0);
    }
}
