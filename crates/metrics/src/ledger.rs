//! The run ledger: one structured JSONL record per engine request.
//!
//! A ledger file is the engine's flight recorder. Every request —
//! including ones that failed to parse — appends exactly one
//! `"rec":"request"` line capturing the outcome, error class, retries,
//! degradation reason, which cache levels hit, the matrix dimension, the
//! queue-wait/build/solve phase split, and a peak-scratch estimate.
//! Ledgers written by earlier versions may interleave `"rec":"snapshot"`
//! lines (counters and histogram quick-stats), and their request lines
//! may carry a retired `"strategy"` field; they still parse, aggregation
//! skips the snapshots, and unknown keys are ignored. Lines are flushed
//! one at a time so a crashed process still leaves a valid ledger behind;
//! `seq` is contiguous from 1 so post-hoc tools detect truncation or
//! interleaving.
//!
//! The full field-by-field schema is documented in DESIGN.md §15.

use std::fmt::Write as _;
use std::io::Write as _;
use vpec_trace::json::{self, JsonValue};

/// Milliseconds since the Unix epoch (0 if the clock is before it).
#[must_use]
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Telemetry of one engine request, as written to the run ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRecord {
    /// Request id (from the request, or `lineN` for unparseable lines).
    pub id: String,
    /// `true` when the response was `status: "ok"` (degraded included).
    pub ok: bool,
    /// Error category (`"panic"`, `"deadline"`, `"budget"`, …) when the
    /// request failed.
    pub error: Option<String>,
    /// Requested model-kind label (empty for unparseable lines).
    pub kind: String,
    /// Kind actually run (differs from `kind` after degradation).
    pub ran: Option<String>,
    /// Analysis class: `"transient"`, `"ac"`, `"build"`, or `"unknown"`.
    pub analysis: String,
    /// Retries consumed (attempts beyond the first).
    pub retries: usize,
    /// The response was served degraded.
    pub degraded: bool,
    /// Why the engine degraded (`"budget"`, `"deadline"`), when it did.
    pub degraded_reason: Option<String>,
    /// The geometry-keyed extraction cache answered.
    pub experiment_hit: bool,
    /// The built-model cache answered.
    pub model_hit: bool,
    /// The prepared-factorization cache answered.
    pub factor_hit: bool,
    /// MNA matrix dimension of the transient or AC system, when known.
    pub dim: Option<usize>,
    /// Circuit element count of the model that answered.
    pub elements: Option<usize>,
    /// Time between the previous response and this request starting, ms
    /// (stream read + wait time).
    pub queue_ms: f64,
    /// Model-build phase wall time, ms.
    pub build_ms: Option<f64>,
    /// Solve phase wall time, ms.
    pub solve_ms: Option<f64>,
    /// End-to-end request wall time, ms.
    pub total_ms: f64,
    /// Scratch estimate for the solve: one scalar per stored entry of the
    /// sparse factor, so
    /// `8·factor_nnz` bytes for a transient and `16·factor_nnz` for the
    /// largest complex factor of an AC sweep.
    pub peak_scratch_bytes: Option<u64>,
}

fn push_opt_str(out: &mut String, key: &str, v: Option<&str>) {
    match v {
        Some(s) => {
            let _ = write!(out, ",\"{key}\":\"{}\"", json::escape(s));
        }
        None => {
            let _ = write!(out, ",\"{key}\":null");
        }
    }
}

fn push_opt_u64(out: &mut String, key: &str, v: Option<u64>) {
    match v {
        Some(n) => {
            let _ = write!(out, ",\"{key}\":{n}");
        }
        None => {
            let _ = write!(out, ",\"{key}\":null");
        }
    }
}

fn push_f64(out: &mut String, key: &str, v: f64) {
    if v.is_finite() {
        let _ = write!(out, ",\"{key}\":{v}");
    } else {
        let _ = write!(out, ",\"{key}\":null");
    }
}

fn push_opt_f64(out: &mut String, key: &str, v: Option<f64>) {
    match v {
        Some(x) if x.is_finite() => {
            let _ = write!(out, ",\"{key}\":{x}");
        }
        _ => {
            let _ = write!(out, ",\"{key}\":null");
        }
    }
}

impl RunRecord {
    /// Serializes the record as one ledger line (no trailing newline)
    /// with the given sequence number and timestamp.
    #[must_use]
    pub fn to_json_line(&self, seq: u64, ts_ms: u64) -> String {
        let mut out = String::with_capacity(320);
        let _ = write!(out, "{{\"rec\":\"request\",\"seq\":{seq},\"ts_ms\":{ts_ms}");
        let _ = write!(out, ",\"id\":\"{}\"", json::escape(&self.id));
        let _ = write!(out, ",\"ok\":{}", self.ok);
        push_opt_str(&mut out, "error", self.error.as_deref());
        let _ = write!(out, ",\"kind\":\"{}\"", json::escape(&self.kind));
        push_opt_str(&mut out, "ran", self.ran.as_deref());
        let _ = write!(out, ",\"analysis\":\"{}\"", json::escape(&self.analysis));
        let _ = write!(out, ",\"retries\":{}", self.retries);
        let _ = write!(out, ",\"degraded\":{}", self.degraded);
        push_opt_str(&mut out, "degraded_reason", self.degraded_reason.as_deref());
        let _ = write!(out, ",\"experiment_hit\":{}", self.experiment_hit);
        let _ = write!(out, ",\"model_hit\":{}", self.model_hit);
        let _ = write!(out, ",\"factor_hit\":{}", self.factor_hit);
        push_opt_u64(&mut out, "dim", self.dim.map(|d| d as u64));
        push_opt_u64(&mut out, "elements", self.elements.map(|e| e as u64));
        push_f64(&mut out, "queue_ms", self.queue_ms);
        push_opt_f64(&mut out, "build_ms", self.build_ms);
        push_opt_f64(&mut out, "solve_ms", self.solve_ms);
        push_f64(&mut out, "total_ms", self.total_ms);
        push_opt_u64(&mut out, "peak_scratch_bytes", self.peak_scratch_bytes);
        out.push('}');
        out
    }
}

/// One parsed ledger line.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerRecord {
    /// A per-request record.
    Request {
        /// Contiguous-from-1 sequence number.
        seq: u64,
        /// Unix milliseconds when the record was written.
        ts_ms: u64,
        /// The request telemetry (boxed: a snapshot line is two integers,
        /// a request line is ~20 fields).
        run: Box<RunRecord>,
    },
    /// An in-stream snapshot line, as earlier versions of `serve` wrote
    /// them; only its position in the sequence is kept.
    Snapshot {
        /// Contiguous-from-1 sequence number.
        seq: u64,
        /// Unix milliseconds when the snapshot was taken.
        ts_ms: u64,
    },
}

impl LedgerRecord {
    /// The record's sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        match self {
            LedgerRecord::Request { seq, .. } | LedgerRecord::Snapshot { seq, .. } => *seq,
        }
    }
}

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer \"{key}\""))
}

fn req_str(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string \"{key}\""))
}

fn req_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(JsonValue::Bool(b)) => Ok(*b),
        _ => Err(format!("missing or non-boolean \"{key}\"")),
    }
}

fn req_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing or non-numeric \"{key}\""))
}

/// `null` / absent → `None`; wrong type → error.
fn opt_str(v: &JsonValue, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("\"{key}\" must be a string or null")),
    }
}

fn opt_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" must be a non-negative integer or null")),
    }
}

fn opt_f64(v: &JsonValue, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(n) => n
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("\"{key}\" must be a number or null")),
    }
}

/// Parses and schema-validates one ledger line.
///
/// # Errors
///
/// A human-readable message for malformed JSON, an unknown `rec` tag, or
/// a missing/mistyped required field.
pub fn parse_line(line: &str) -> Result<LedgerRecord, String> {
    let v = json::parse(line)?;
    let rec = req_str(&v, "rec")?;
    let seq = req_u64(&v, "seq")?;
    let ts_ms = req_u64(&v, "ts_ms")?;
    match rec.as_str() {
        "snapshot" => Ok(LedgerRecord::Snapshot { seq, ts_ms }),
        "request" => {
            let run = RunRecord {
                id: req_str(&v, "id")?,
                ok: req_bool(&v, "ok")?,
                error: opt_str(&v, "error")?,
                kind: req_str(&v, "kind")?,
                ran: opt_str(&v, "ran")?,
                analysis: req_str(&v, "analysis")?,
                retries: req_u64(&v, "retries")? as usize,
                degraded: req_bool(&v, "degraded")?,
                degraded_reason: opt_str(&v, "degraded_reason")?,
                experiment_hit: req_bool(&v, "experiment_hit")?,
                model_hit: req_bool(&v, "model_hit")?,
                factor_hit: req_bool(&v, "factor_hit")?,
                dim: opt_u64(&v, "dim")?.map(|d| d as usize),
                elements: opt_u64(&v, "elements")?.map(|e| e as usize),
                queue_ms: req_f64(&v, "queue_ms")?,
                build_ms: opt_f64(&v, "build_ms")?,
                solve_ms: opt_f64(&v, "solve_ms")?,
                total_ms: req_f64(&v, "total_ms")?,
                peak_scratch_bytes: opt_u64(&v, "peak_scratch_bytes")?,
            };
            Ok(LedgerRecord::Request {
                seq,
                ts_ms,
                run: Box::new(run),
            })
        }
        other => Err(format!("unknown \"rec\" tag {other:?}")),
    }
}

/// Parses a whole ledger file: every non-blank line must validate, and
/// `seq` must be contiguous starting at 1.
///
/// # Errors
///
/// The first offending line, with its line number.
pub fn parse_ledger(content: &str) -> Result<Vec<LedgerRecord>, String> {
    let mut out = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let n = lineno + 1;
        let rec = parse_line(line).map_err(|e| format!("line {n}: {e}"))?;
        let expected = out.len() as u64 + 1;
        if rec.seq() != expected {
            return Err(format!(
                "line {n}: expected seq {expected}, got {} (dropped or reordered records)",
                rec.seq()
            ));
        }
        out.push(rec);
    }
    Ok(out)
}

/// A line-flushed ledger writer. Each record costs one `write` + `flush`
/// so a killed process leaves a complete, valid prefix behind.
#[derive(Debug)]
pub struct Ledger {
    file: std::io::BufWriter<std::fs::File>,
    next_seq: u64,
}

impl Ledger {
    /// Creates (truncating) the ledger file at `path`.
    ///
    /// # Errors
    ///
    /// I/O failures creating the file.
    pub fn create(path: &str) -> std::io::Result<Ledger> {
        Ok(Ledger {
            file: std::io::BufWriter::new(std::fs::File::create(path)?),
            next_seq: 1,
        })
    }

    /// Appends one request record, stamping the next sequence number and
    /// the current wall-clock time.
    ///
    /// # Errors
    ///
    /// I/O failures writing the line.
    pub fn record(&mut self, run: &RunRecord) -> std::io::Result<()> {
        let line = run.to_json_line(self.next_seq, now_ms());
        self.next_seq += 1;
        writeln!(self.file, "{line}")?;
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            id: "req-1".to_string(),
            ok: true,
            error: None,
            kind: "full VPEC".to_string(),
            ran: Some("gwVPEC(b=4)".to_string()),
            analysis: "transient".to_string(),
            retries: 1,
            degraded: true,
            degraded_reason: Some("budget".to_string()),
            experiment_hit: true,
            model_hit: false,
            factor_hit: false,
            dim: Some(17),
            elements: Some(120),
            queue_ms: 0.2,
            build_ms: Some(3.5),
            solve_ms: Some(9.25),
            total_ms: 13.25,
            peak_scratch_bytes: Some(8 * 17 * 17),
        }
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = sample();
        let line = rec.to_json_line(1, 1234);
        match parse_line(&line).unwrap() {
            LedgerRecord::Request { seq, ts_ms, run } => {
                assert_eq!(seq, 1);
                assert_eq!(ts_ms, 1234);
                assert_eq!(*run, rec);
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_schema_violations() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"rec\":\"mystery\",\"seq\":1,\"ts_ms\":0}").is_err());
        // Required field missing.
        let line = sample().to_json_line(1, 0).replace("\"ok\":true,", "");
        assert!(parse_line(&line).is_err());
        // Wrong type on an optional field.
        let line = sample()
            .to_json_line(1, 0)
            .replace("\"dim\":17", "\"dim\":\"x\"");
        assert!(parse_line(&line).is_err());
    }

    #[test]
    fn ledger_writes_contiguous_seq() {
        let path = std::env::temp_dir().join("vpec_metrics_ledger_test.jsonl");
        let mut ledger = Ledger::create(&path.display().to_string()).unwrap();
        for _ in 0..3 {
            ledger.record(&sample()).unwrap();
        }
        drop(ledger);
        let content = std::fs::read_to_string(&path).unwrap();
        let records = parse_ledger(&content).unwrap();
        assert_eq!(records.len(), 3);
        assert!(matches!(records[1], LedgerRecord::Request { seq: 2, .. }));
        // A gap in seq is detected.
        let broken = content.replace("\"seq\":3", "\"seq\":7");
        assert!(parse_ledger(&broken)
            .unwrap_err()
            .contains("expected seq 3"));
        let _ = std::fs::remove_file(&path);
    }
}
