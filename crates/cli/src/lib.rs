//! Implementation of the `vpec` command-line tool.
//!
//! ```text
//! vpec extract  --bits 32 [--segments 2] [--misalign 0.05] | --spiral [--turns 3]
//! vpec model    <structure> --kind wvpec-g:8
//! vpec simulate <structure> --kind peec [--tstop 0.5n] [--dt 1p]
//!               [--probe 1,2] [-o wave.csv]
//! vpec noise    <structure> --kind tvpec-n:0.01 [--threshold 10m]
//! vpec export   <structure> --kind vpec-full -o deck.sp
//! vpec batch    --in reqs.jsonl [-o out.jsonl] [--deadline-ms 500]
//!               [--max-dim 64] [--retries 2] [--no-degrade]
//!               [--ledger run.jsonl] [--metrics-out metrics.prom]
//! vpec serve    [engine options] [--stats-interval-ms 5000]
//! vpec stats    LEDGER... [--format text|json] [--fail-if p99>250ms]
//! ```
//!
//! All numeric values accept SPICE magnitude suffixes (`1p`, `0.5n`,
//! `10m`, `2k`, …). Model kinds: `peec`, `vpec-full`, `vpec-localized`,
//! `tvpec-g:NW[,NL]`, `tvpec-n:TAU`, `wvpec-g:B`, `wvpec-n:TAU`,
//! `shift:R0` (R0 in meters, suffixes allowed).

#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{parse_args, Command, ParsedArgs};

/// CLI error: a message for the user plus a process exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Suggested process exit code (2 = usage, 1 = runtime failure).
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// A usage error (exit code 2).
    pub fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    /// A runtime error (exit code 1).
    pub fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 1,
        }
    }
}

/// Usage text printed by `vpec help`.
pub const USAGE: &str = "\
vpec — VPEC interconnect modeling toolkit

USAGE:
  vpec <command> [structure options] [command options]

COMMANDS:
  extract    extract parasitics and print a summary
  model      build a VPEC model and print its passivity/sparsity report
  simulate   run a crosstalk transient; optionally write waveform CSV
  noise      scan far-end noise on every quiet net
  export     write a SPICE deck for the chosen model
  batch      run a JSONL scenario file through the resilient engine
  serve      stream JSONL scenarios: stdin -> stdout, one line each way
  stats      aggregate run ledgers into a fleet service report
  help       show this text

STRUCTURE (default: 8-bit bus with the paper's geometry):
  --bits N          parallel bus with N lines
  --segments S      series segments per line (default 1)
  --misalign F      longitudinal misalignment fraction (default 0)
  --shield K        insert a grounded shield wire every K signals
  --spiral          three-turn spiral on lossy substrate instead of a bus
  --turns T         spiral turns (default 3)

COMMON OPTIONS:
  --kind K          model kind (default vpec-full): peec | vpec-full |
                    vpec-localized | tvpec-g:NW[,NL] | tvpec-n:TAU |
                    wvpec-g:B | wvpec-n:TAU | shift:R0
  --tstop T         transient window (default 0.5n seconds)
  --dt T            time step (default 1p seconds)
  --solver K        transient linear-solver backend: auto | dense |
                    sparse (default auto). auto picks dense LU for small
                    or dense systems and fill-reducing sparse LU
                    otherwise; the others force a backend. All choices
                    share the bounded fallback chain, so a failed
                    backend degrades loudly instead of lying.
  --probe LIST      comma-separated net indices to record (default: all)
  --threshold V     noise-margin threshold in volts (noise command)
  --threads N       worker threads for the parallel numerics layer
                    (default: VPEC_THREADS env, then hardware count;
                    results are bit-identical at any thread count).
                    Must be 1..=256 — the pool never spawns more than
                    256 workers, and out-of-range values are rejected
                    at parse time rather than silently clamped
  --audit[=LEVEL]   numerical-correctness audits: off | basic | full
                    (bare --audit = full; default: VPEC_AUDIT env, then
                    full in debug builds, off in release builds)
  --trace[=MODE]    structured tracing: off | summary | jsonl:PATH
                    (bare --trace = summary; default: VPEC_TRACE env,
                    then off). summary appends a span tree with per-phase
                    wall time; jsonl streams open/close/counter events to
                    PATH, one JSON object per line
  -o FILE           output file (simulate: CSV; export: SPICE deck;
                    batch: JSONL responses — summary then on stdout)

ENGINE OPTIONS (batch / serve):
  --in FILE         JSONL scenario requests, one object per line
                    (batch only; serve reads stdin). Blank lines and
                    # comments are skipped; a malformed line yields a
                    failed *response*, never a dead batch
  --deadline-ms N   wall-clock deadline per request (0 = unbounded);
                    a watchdog cancels the solve cooperatively
  --max-filaments N admission budget: reject before extraction
  --max-dim N       admission budget: largest matrix a full-inversion
                    kind may build (over-budget requests degrade)
  --max-steps N     admission budget: transient step count
  --retries N       retries after the first attempt for retryable
                    failures (default 1), exponential backoff
  --backoff-ms N    base backoff before the first retry (default 10)
  --no-degrade      fail over-budget/over-deadline full-inversion
                    requests instead of re-running them as wVPEC
  --degrade-window B  window size of the wVPEC fallback (default 4)
  --ledger PATH     write the run ledger: one JSONL record per request
                    (outcome, error class, retries, degradation, cache
                    levels hit, solver strategy, queue/build/solve phase
                    times, scratch estimate; schema in DESIGN.md §15).
                    Default: the VPEC_LEDGER env var, then off. Lines
                    are flushed one at a time with a contiguous seq, so
                    a killed process leaves a valid prefix behind
  --metrics-out PATH  write Prometheus-style text exposition of the
                    request counters and latency histograms; the file is
                    replaced atomically (write + rename) on every
                    snapshot and when the stream ends
  --stats-interval-ms N  interleave a registry snapshot record into the
                    ledger (and rewrite --metrics-out) every N ms of
                    stream time — for long-running serve fleets
                    (default 0 = only the final exposition write)

  Every request runs inside an isolated boundary: panics, deadline
  overruns and budget rejections become typed JSONL error responses
  while the rest of the batch keeps running. Requests that share a
  geometry share one extraction and one model per kind via a cache.
  The stderr summary counts requests, oks, degradations, failures and
  retries, plus model-cache hits/misses.

STATS (vpec stats LEDGER...):
  Aggregates one or more run ledgers offline into a fleet report:
  exact nearest-rank latency percentiles (overall, per model kind and
  per outcome), cache hit ratios per level (experiment/model/factor),
  solver-strategy and degradation breakdowns, an error taxonomy, and
  throughput over 60 s buckets. Each file is schema-validated first —
  a dropped or reordered record fails loudly.

  --format F        text (default) or json (one machine-readable object)
  --fail-if EXPR    exit 1 when a threshold is exceeded; repeatable.
                    EXPR is METRIC>VALUE with METRIC one of p50, p90,
                    p99, max (duration values: 250ms, 1.5s, 800us; bare
                    numbers are ms) or degraded, failed (percent values:
                    5%; bare numbers are percent points).
                    Example: --fail-if p99>250ms --fail-if degraded>5%

DIAGNOSTICS:
  model prints a passivity-repair summary for sparsified kinds (tvpec-*,
  wvpec-*). simulate prints solve diagnostics whenever a run was degraded:
  passivity repairs applied at build time, factorization fallbacks, and
  checkpointed transient retries at a reduced time step.

  With auditing enabled (--audit or VPEC_AUDIT=basic|full), every layer
  boundary is validated: extracted parasitics (finite, symmetric, SPD L),
  the built model's Ĝ (Theorem 1 passivity; diagonal dominance reported
  as a warning), MNA stamps (finiteness) and the transient solve
  (relative residual; at full level also a cross-backend consistency
  check). Violations carry the matrix name, index and magnitude, and
  abort the pipeline with a typed error instead of producing silently
  wrong waveforms.

  With tracing enabled (--trace or VPEC_TRACE=summary|jsonl:PATH), every
  pipeline phase is timed as a hierarchical span: extract, model.invert,
  build, factor, dc, transient and ac.sweep, down to the parallel-kernel
  dispatch decisions (serial vs blocked, worker counts). When tracing is
  off the instrumentation costs one relaxed atomic load per site.

Values accept SPICE suffixes: 1p, 0.5n, 10m, 2k, 10meg, ...
";
