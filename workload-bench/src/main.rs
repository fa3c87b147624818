//! `workloads` — one benchmark of the VPEC paper's experiments, run end to
//! end and attributed layer by layer.
//!
//! ```text
//! workloads [--seed N] [--seconds S] [--out PATH] [--spans PATH]
//! workloads --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! workloads --compare BASE.json NEW.json
//! ```
//!
//! With no `--workload`, every workload runs in a child process of its
//! own, one at a time, traced, and the results go to `--out` (default
//! `workloads-results.json`) and the spans to `--spans` (default
//! `workloads-spans.jsonl`). With `--workload`, that one workload runs in
//! this process and the last line of standard output is a JSON summary:
//! the end-to-end metrics untraced (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `--compare` judges every metric of a new results file
//! against a base one and exits 1 on a regression. See `README.md`.

mod compare;
mod engine_batch;
mod metrics;
mod models;
mod pins;
mod spans;
mod stats;

use engine_batch::EngineBatch;
use metrics::{def, END_TO_END, LAYER_SPANS, METRICS, PER_LAYER};
use models::ModelWorkload;
use spans::Recorder;
use stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest distinct seeded inputs a set-up generates. Trials use them in
/// turn, so that a cache inside the program cannot answer a trial from an
/// earlier one.
pub const INPUTS: usize = 32;
/// Measured trials per run, however long they take.
const MIN_TRIALS: usize = 3;
/// Traced trials per `--trace 1` run.
const TRACED_TRIALS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 4: gtVPEC(8,1) inversion and gwVPEC(8) windowing, 2048 bits.
    Fig4Extract2048,
    /// Fig. 8: PEEC, full VPEC and gwVPEC(8) transients, 256 bits.
    Fig8Dense256,
    /// Fig. 8: the gwVPEC(8) transient alone, 1024 bits.
    Fig8Windowed1024,
    /// Table III: PEEC, full VPEC and four ntVPEC thresholds, 128 bits.
    Table3Trunc128,
    /// Full VPEC and gwVPEC(8) AC sweeps, 28 bits × 8 segments.
    AcSweep224,
    /// A seeded request stream through the batch engine.
    EngineBatch,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 6] = [
        Workload::Fig4Extract2048,
        Workload::Fig8Dense256,
        Workload::Fig8Windowed1024,
        Workload::Table3Trunc128,
        Workload::AcSweep224,
        Workload::EngineBatch,
    ];

    /// The name used on the command line and in every result.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Extract2048 => "fig4_extract2048",
            Workload::Fig8Dense256 => "fig8_dense256",
            Workload::Fig8Windowed1024 => "fig8_windowed1024",
            Workload::Table3Trunc128 => "table3_trunc128",
            Workload::AcSweep224 => "ac_sweep224",
            Workload::EngineBatch => "engine_batch",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Mixed into the seed so that workloads draw independent streams.
    pub fn salt(self) -> u64 {
        (self as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// Problem size: the paper's, or a toy one for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the workloads are named after.
    Paper,
    /// Small enough for a unit test.
    Toy,
}

/// What one trial measured and checked.
#[derive(Debug, Default)]
pub struct TrialOut {
    /// Wall time of the trial's measured work, checks excluded.
    pub wall_s: f64,
    /// Per-trial samples of workload metrics.
    pub values: Vec<(&'static str, f64)>,
    /// Per-layer samples (counts, engine attribution, accuracy).
    pub layer: Vec<(&'static str, f64)>,
    /// Operations attempted: 1 per model trial, 1 per engine request.
    pub attempted: usize,
    /// Attempted operations whose output failed its oracle.
    pub failed: usize,
    /// What failed, readable.
    pub failures: Vec<String>,
}

enum Bench {
    Models(ModelWorkload),
    Engine(EngineBatch),
}

impl Bench {
    /// Builds the seeded inputs; returns them with the seconds spent
    /// building layouts.
    fn setup(w: Workload, seed: u64) -> (Bench, f64) {
        let t0 = Instant::now();
        match w {
            Workload::EngineBatch => {
                let b = EngineBatch::setup(seed, Size::Paper);
                let g = b.geometry_s;
                (Bench::Engine(b), g)
            }
            _ => {
                let m = ModelWorkload::setup(w, seed, Size::Paper);
                (Bench::Models(m), t0.elapsed().as_secs_f64())
            }
        }
    }

    fn trial(&mut self, rec: Option<&Recorder>) -> TrialOut {
        match self {
            Bench::Models(m) => m.trial(rec),
            Bench::Engine(e) => e.trial(rec),
        }
    }

    fn filaments(&self) -> usize {
        match self {
            Bench::Models(m) => m.filaments(),
            Bench::Engine(e) => e.filaments(),
        }
    }
}

/// Everything one workload run measured.
struct RunResult {
    workload: Workload,
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl RunResult {
    fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    fn tally(&mut self, t: &TrialOut) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.failures.extend(t.failures.iter().cloned());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).and_then(|v| stats::median(v))
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn run_workload(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_path: Option<&str>,
) -> Result<RunResult, String> {
    // Measure the program with its own tracing off, whatever VPEC_TRACE says.
    vpec_trace::set_mode_spec("off")?;
    let mut r = RunResult {
        workload: w,
        samples: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };

    let mut bench = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (b, geometry_s) = Bench::setup(w, seed);
        r.push("setup_s", t0.elapsed().as_secs_f64());
        r.push("geometry.s", geometry_s);
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    r.push("geometry.filaments", bench.filaments() as f64);

    let warm = bench.trial(None);
    r.tally(&warm);

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut trials = 0;
    while trials < MIN_TRIALS || start.elapsed() < budget {
        let t = bench.trial(None);
        r.tally(&t);
        r.push("wall_s", t.wall_s);
        for &(name, v) in &t.values {
            r.push(name, v);
        }
        trials += 1;
        // Read after a fixed number of trials: the high-water mark creeps
        // up with heap fragmentation, and a time-bounded run's trial count
        // varies with the machine's speed.
        if trials == MIN_TRIALS {
            r.push(
                "peak_rss_mb",
                peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
            );
        }
    }

    if trace {
        let mut spans_out = match spans_path {
            Some(p) => Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)
                    .map_err(|e| format!("cannot open {p}: {e}"))?,
            ),
            None => None,
        };
        for k in 0..TRACED_TRIALS {
            let rec = Recorder::new();
            let t = rec.span(spans::TRIAL, || bench.trial(Some(&rec)));
            r.tally(&t);
            let spans = rec.into_spans();
            push_traced(&mut r, &t, &spans);
            if let Some(f) = spans_out.as_mut() {
                f.write_all(spans::jsonl(&spans, w.name(), k).as_bytes())
                    .map_err(|e| format!("cannot write spans: {e}"))?;
            }
        }
        if let (Some(traced), Some(plain)) = (r.median("trace.wall_s"), r.median("wall_s")) {
            r.push("trace.overhead_pct", 100.0 * (traced / plain - 1.0));
        }
    }

    r.push("failed_frac", r.failed as f64 / r.attempted.max(1) as f64);
    Ok(r)
}

/// Per-layer samples of one traced trial, whose root span is `spans[0]`.
fn push_traced(r: &mut RunResult, t: &TrialOut, spans: &[spans::Span]) {
    let wall = spans[0].duration();
    r.push("trace.wall_s", wall);
    r.push("trace.coverage", spans::coverage(spans));
    let totals = spans::totals_by_name(spans);
    let secs = |span: &str| totals.get(span).copied().unwrap_or(0.0);
    for (span, pct, s) in LAYER_SPANS {
        r.push(s, secs(span));
        r.push(pct, 100.0 * secs(span) / wall);
    }
    for &(name, v) in &t.layer {
        r.push(name, v);
    }
    let count = |name: &str| t.layer.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1);
    for (span, counter, metric, scale) in [
        (
            "circuit.steps",
            "circuit.steps.count",
            "circuit.steps.us_per_step",
            1e6,
        ),
        (
            "circuit.ac",
            "circuit.ac.points",
            "circuit.ac.ms_per_point",
            1e3,
        ),
    ] {
        if count(counter) > 0.0 {
            r.push(metric, scale * secs(span) / count(counter));
        }
    }
}

/// A JSON number, or `null` for a non-finite value.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The workload's full record: every measured metric with its samples.
fn record_json(r: &RunResult) -> String {
    let mut out = format!(
        "{{\"name\":\"{}\",\"correct\":{},\"attempted\":{},\"failed\":{},\"failures\":[",
        r.workload.name(),
        r.correct(),
        r.attempted,
        r.failed
    );
    let shown: Vec<String> = r
        .failures
        .iter()
        .take(20)
        .map(|f| format!("\"{}\"", vpec_trace::json::escape(f)))
        .collect();
    out.push_str(&shown.join(","));
    out.push_str("],\"metrics\":[");
    let mut first = true;
    for d in METRICS {
        let Some(v) = r.samples.get(d.name) else {
            continue;
        };
        let Some(s) = Summary::of(v) else {
            continue;
        };
        let samples: Vec<String> = v.iter().map(|&x| num(x)).collect();
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"samples\":[{}]}}",
            if first { "" } else { "," },
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound.map_or("null".to_string(), num),
            num(s.median),
            num(s.q1),
            num(s.q3),
            s.n,
            samples.join(",")
        );
        first = false;
    }
    out.push_str("]}");
    out
}

/// The one-line summary a single `--workload` run ends with.
fn summary_json(r: &RunResult, trace: bool) -> String {
    let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let fields: Vec<String> = names
        .iter()
        .map(|&name| {
            // A layer the workload bypasses has no samples: it spent 0 there.
            let v = r.median(name).unwrap_or(0.0);
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                num(v),
                def(name).unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        fields.join(",")
    )
}

fn print_human(r: &RunResult) {
    let name = r.workload.name();
    for d in METRICS {
        if let Some(s) = r.samples.get(d.name).and_then(|v| Summary::of(v)) {
            println!(
                "{name:<18} {:<28} {:>14.6} {:<5} [q1 {:.6}, q3 {:.6}, n {}]",
                d.name, s.median, d.unit, s.q1, s.q3, s.n
            );
        }
    }
    for f in r.failures.iter().take(20) {
        println!("{name:<18} ORACLE FAILED: {f}");
    }
}

/// The commit of the checkout, read from `.git` without running git.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn header_json(seed: u64, seconds: u64) -> String {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "{{\"commit\":\"{}\",\"seed\":{seed},\"seconds\":{seconds},\"available_parallelism\":{hw},\
         \"pool_threads\":{},\"cpu_model\":\"{}\"}}",
        vpec_trace::json::escape(&commit()),
        vpec_numerics::pool::max_threads(),
        vpec_trace::json::escape(&cpu_model())
    )
}

/// Runs every workload in a child process of its own, one at a time.
fn run_all(seed: u64, seconds: u64, out_path: &str, spans_path: &str) -> Result<bool, String> {
    std::fs::File::create(spans_path).map_err(|e| format!("cannot create {spans_path}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let header = header_json(seed, seconds);
    println!("header {header}");
    let mut records = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let mut child = Command::new(&exe)
            .args([
                "--workload",
                w.name(),
                "--trace",
                "1",
                "--spans",
                spans_path,
            ])
            .args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| format!("reading {}: {e}", w.name()))?;
            match line.strip_prefix("record: ") {
                Some(rec) => records.push(rec.to_string()),
                None => println!("{line}"),
            }
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for {}: {e}", w.name()))?;
        ok &= status.success();
    }
    let results = format!(
        "{{\"header\":{header},\"workloads\":[\n{}\n]}}\n",
        records.join(",\n")
    );
    std::fs::write(out_path, results).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("wrote {out_path} and {spans_path}");
    Ok(ok && records.len() == Workload::ALL.len())
}

const USAGE: &str = "usage:
  workloads [--seed N] [--seconds S] [--out PATH] [--spans PATH]
  workloads --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
  workloads --compare BASE.json NEW.json
workloads: fig4_extract2048 fig8_dense256 fig8_windowed1024 table3_trunc128 ac_sweep224 engine_batch";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: String,
    spans: Option<String>,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: "workloads-results.json".into(),
        spans: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds must be an integer")?;
                if !(1..=3600).contains(&a.seconds) {
                    return Err("--seconds must be within 1..=3600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--out" => a.out = value()?,
            "--spans" => a.spans = Some(value()?),
            "--compare" => {
                let base = value()?;
                a.compare = Some((base, value()?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((base, new)) = &args.compare {
        compare::run(base, new)
    } else if let Some(w) = args.workload {
        run_workload(
            w,
            args.seed,
            args.seconds,
            args.trace,
            args.spans.as_deref(),
        )
        .map(|r| {
            print_human(&r);
            println!("record: {}", record_json(&r));
            println!("{}", summary_json(&r, args.trace));
            r.correct()
        })
    } else {
        let spans = args.spans.as_deref().unwrap_or("workloads-spans.jsonl");
        run_all(args.seed, args.seconds, &args.out, spans)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("workloads: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = args("--workload fig8_dense256 --seed 9 --seconds 4 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::Fig8Dense256), 9, 4, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus").is_err());
    }

    #[test]
    fn single_run_summary_has_every_metric_of_its_mode() {
        let mut r = RunResult {
            workload: Workload::Fig8Windowed1024,
            samples: BTreeMap::new(),
            attempted: 4,
            failed: 0,
            failures: Vec::new(),
        };
        for name in END_TO_END {
            r.push(name, 1.5);
        }
        for trace in [false, true] {
            let v = vpec_trace::json::parse(&summary_json(&r, trace)).unwrap();
            let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
            let metrics = v.get("metrics").unwrap();
            for name in names {
                let m = metrics.get(name).unwrap_or_else(|| panic!("{name}"));
                assert!(m.get("value").and_then(|x| x.as_f64()).is_some());
                assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some(def(name).unit));
            }
            assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(4));
        }
        let rec = vpec_trace::json::parse(&record_json(&r)).unwrap();
        assert_eq!(
            rec.get("name").and_then(|x| x.as_str()),
            Some("fig8_windowed1024")
        );
    }
}
