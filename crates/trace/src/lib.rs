//! Structured tracing for the VPEC workspace.
//!
//! Every layer of the pipeline (extraction → model build → factorization →
//! transient/AC solve) reports into this crate so a run can be profiled
//! end-to-end without external tooling:
//!
//! * **Spans** — hierarchical wall-time regions opened by [`span()`] (or the
//!   [`span!`] macro) and closed by RAII drop. Each span records its
//!   parent (via a thread-local stack), the worker thread that ran it, and
//!   optional string attributes such as `mode=serial|parallel`. Parentage
//!   propagates across pool worker threads via [`current_span`] +
//!   [`parent_scope`].
//! * **Instant events** — point-in-time markers with a detail string
//!   ([`instant_event`]), e.g. one event per transient retry.
//! * **Counters** — named totals ([`counter_add`]: extracted inductance
//!   pairs, window reads of `L`, transient steps and retries), listed in
//!   the summary tree and written as JSONL `counter` events by
//!   [`finish`].
//!
//! # Sinks and gating
//!
//! Spans, instant events, counters and JSONL lines all record exactly
//! when tracing is on. With tracing off every call site costs one relaxed
//! atomic load of the mode byte, the same pattern as `VPEC_AUDIT`.
//!
//! The process-global [`TraceMode`] selects the trace sink:
//!
//! * [`TraceMode::Off`] (default) — no spans or events are recorded.
//! * [`TraceMode::Summary`] — events are collected in memory;
//!   [`summary_tree`] renders a human-readable span tree with the
//!   counters appended.
//! * [`TraceMode::Jsonl`] — additionally streams machine-readable JSONL
//!   events to a file (one JSON object per line; see the event schema in
//!   [`validate_jsonl`]).
//!
//! The mode comes from the `VPEC_TRACE` environment variable
//! (`off` / `summary` / `jsonl:<path>`) on first use, or from the CLI
//! `--trace[=…]` flag via [`set_mode_spec`].
//!
//! JSONL lines carry a monotonic `seq` field, contiguous from 1 per
//! sink, validated by [`validate_jsonl`].
//!
//! # Example
//!
//! ```
//! vpec_trace::reset("summary").unwrap();
//! {
//!     let mut outer = vpec_trace::span("build");
//!     outer.set_attr("kind", "demo");
//!     let _inner = vpec_trace::span("build.extract");
//!     vpec_trace::counter_add("demo.widgets", 3);
//! }
//! let tree = vpec_trace::summary_tree();
//! assert!(tree.contains("build.extract"));
//! vpec_trace::reset("off").unwrap();
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

pub mod json;

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Which sink the process-global tracer feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No tracing; spans and events cost one relaxed atomic load.
    Off = 0,
    /// Collect in memory for the human-readable [`summary_tree`].
    Summary = 1,
    /// Collect in memory *and* stream JSONL events to a file.
    Jsonl = 2,
}

// By hand: a derived `PartialOrd` calls the `partial_cmp` clippy.toml disallows.
impl Ord for TraceMode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

impl PartialOrd for TraceMode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl TraceMode {
    fn from_u8(v: u8) -> TraceMode {
        match v {
            1 => TraceMode::Summary,
            2 => TraceMode::Jsonl,
            _ => TraceMode::Off,
        }
    }

    /// The mode name (`off` / `summary` / `jsonl`).
    pub fn label(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Summary => "summary",
            TraceMode::Jsonl => "jsonl",
        }
    }
}

/// Sentinel meaning "not yet resolved from the environment".
const MODE_UNSET: u8 = u8::MAX;

/// The one gate: every call site reads this byte, so the disabled cost
/// is a single relaxed load.
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD_ID: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static STATE: OnceLock<Mutex<State>> = OnceLock::new();

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: RefCell<Option<u32>> = const { RefCell::new(None) };
}

/// A closed span as retained by the in-memory collector.
#[derive(Debug, Clone)]
pub struct ClosedSpan {
    /// Process-unique span id.
    pub id: u64,
    /// Parent span id, if the span was opened inside another.
    pub parent: Option<u64>,
    /// Span name (e.g. `"transient.factor"`).
    pub name: String,
    /// Small integer id of the thread that ran the span.
    pub thread: u32,
    /// Open time, microseconds since the process trace epoch.
    pub start_us: f64,
    /// Wall-clock duration in microseconds.
    pub dur_us: f64,
    /// Attributes attached via [`SpanGuard::set_attr`].
    pub attrs: Vec<(String, String)>,
}

#[derive(Debug)]
struct OpenSpan {
    name: String,
    parent: Option<u64>,
}

struct State {
    jsonl: Option<BufWriter<File>>,
    /// Sequence number stamped on the next JSONL line; restarts at 1
    /// whenever a sink opens, so every stream is contiguous from 1 and
    /// post-hoc tools can detect dropped or reordered lines.
    next_seq: u64,
    open: HashMap<u64, OpenSpan>,
    closed: Vec<ClosedSpan>,
    counters: BTreeMap<String, u64>,
    /// Names of the instant events recorded (their JSONL lines carry the
    /// thread, time and detail).
    instants: Vec<String>,
}

impl State {
    fn new() -> State {
        State {
            jsonl: None,
            next_seq: 1,
            open: HashMap::new(),
            closed: Vec::new(),
            counters: BTreeMap::new(),
            instants: Vec::new(),
        }
    }

    fn write_line(&mut self, line: &str) {
        if self.jsonl.is_none() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(w) = self.jsonl.as_mut() {
            // `line` is always a JSON object; the monotonic sequence
            // number is injected as its first field. Per-line flush keeps
            // the file schema-valid even if the process exits without
            // calling `finish()`.
            let rest = line.strip_prefix('{').unwrap_or(line);
            let _ = writeln!(w, "{{\"seq\":{seq},{rest}");
            let _ = w.flush();
        }
    }
}

fn state() -> &'static Mutex<State> {
    STATE.get_or_init(|| Mutex::new(State::new()))
}

fn lock_state() -> std::sync::MutexGuard<'static, State> {
    match state().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

fn thread_id() -> u32 {
    THREAD_ID.with(|slot| {
        let mut slot = slot.borrow_mut();
        *slot.get_or_insert_with(|| NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed))
    })
}

/// The current process-global trace mode.
///
/// On first call the mode is resolved from the `VPEC_TRACE` environment
/// variable, defaulting to [`TraceMode::Off`]; thereafter the cached value
/// is returned (one relaxed atomic load).
pub fn mode() -> TraceMode {
    match MODE.load(Ordering::Relaxed) {
        MODE_UNSET => {
            let spec = std::env::var("VPEC_TRACE").unwrap_or_default();
            match set_mode_spec(&spec) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("warning: invalid VPEC_TRACE ({e}); tracing disabled");
                    MODE.store(TraceMode::Off as u8, Ordering::Relaxed);
                    TraceMode::Off
                }
            }
        }
        v => TraceMode::from_u8(v),
    }
}

/// `true` when a trace sink is active. This is the hot-path gate for
/// spans, events and counters: a single relaxed atomic load once the mode
/// has been resolved.
#[inline]
pub fn enabled() -> bool {
    match MODE.load(Ordering::Relaxed) {
        0 => false,
        MODE_UNSET => mode() != TraceMode::Off,
        _ => true,
    }
}

/// Validates a trace-mode spec without applying it or touching the
/// filesystem, returning the mode it would select and, for `jsonl`, the
/// sink path. Used by argument parsers that want typo errors before the
/// run starts.
///
/// # Errors
///
/// A human-readable message for unknown specs or a path-less `jsonl`.
pub fn parse_mode_spec(spec: &str) -> Result<(TraceMode, Option<&str>), String> {
    let spec = spec.trim();
    let lower = spec.to_ascii_lowercase();
    if spec.is_empty() || lower == "off" || lower == "none" || lower == "0" {
        Ok((TraceMode::Off, None))
    } else if lower == "summary" || lower == "on" || lower == "1" {
        Ok((TraceMode::Summary, None))
    } else if lower == "jsonl" {
        Err("jsonl sink needs a path: --trace=jsonl:<path>".to_string())
    } else if let Some(path) = spec.strip_prefix("jsonl:") {
        // `jsonl:` with nothing after the colon would otherwise defer the
        // failure to sink-open time; reject it while it is still a spec
        // (= usage) problem.
        if path.trim().is_empty() {
            Err("jsonl sink needs a path: --trace=jsonl:<path>".to_string())
        } else {
            Ok((TraceMode::Jsonl, Some(path)))
        }
    } else {
        Err(format!(
            "unknown trace mode {spec:?} (expected off, summary, or jsonl:<path>)"
        ))
    }
}

/// Sets the process-global trace mode from a `--trace=` / `VPEC_TRACE`
/// spec: `off`, `summary`, or `jsonl:<path>`.
///
/// An empty spec means `off`. For `jsonl:<path>` the file is created
/// (truncating any existing content) before the mode switches; an
/// unopenable path is an error and leaves the previous mode in place.
pub fn set_mode_spec(spec: &str) -> Result<TraceMode, String> {
    let (resolved, path) = parse_mode_spec(spec)?;
    if let Some(path) = path {
        let file =
            File::create(path).map_err(|e| format!("cannot open trace file {path:?}: {e}"))?;
        let mut st = lock_state();
        if let Some(mut old) = st.jsonl.take() {
            let _ = old.flush();
        }
        st.jsonl = Some(BufWriter::new(file));
        st.next_seq = 1;
        drop(st);
        MODE.store(TraceMode::Jsonl as u8, Ordering::Relaxed);
        return Ok(TraceMode::Jsonl);
    }
    // Off / Summary: drop any previous jsonl sink.
    {
        let mut st = lock_state();
        if let Some(mut old) = st.jsonl.take() {
            let _ = old.flush();
        }
    }
    MODE.store(resolved as u8, Ordering::Relaxed);
    Ok(resolved)
}

/// Clears all collected data, counters included, and sets a fresh mode
/// (tests, repeated CLI invocations in one process). Accepts the same
/// specs as [`set_mode_spec`].
pub fn reset(spec: &str) -> Result<TraceMode, String> {
    {
        let mut st = lock_state();
        *st = State::new();
    }
    MODE.store(TraceMode::Off as u8, Ordering::Relaxed);
    set_mode_spec(spec)
}

/// RAII guard for one span. Created by [`span()`]; the span closes when the
/// guard drops. When tracing is off the guard is inert.
#[derive(Debug)]
pub struct SpanGuard {
    id: Option<u64>,
    start_us: f64,
    attrs: Vec<(String, String)>,
}

impl SpanGuard {
    /// `true` when the span is actually recording.
    pub fn is_active(&self) -> bool {
        self.id.is_some()
    }

    /// Attaches a string attribute, recorded on the close event. Values
    /// are only formatted when the span is active, so passing cheap
    /// display types costs nothing with tracing off.
    pub fn set_attr(&mut self, key: &str, value: impl std::fmt::Display) {
        if self.id.is_some() {
            self.attrs.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end_us = now_us();
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&x| x == id) {
                stack.remove(pos);
            }
        });
        let dur_us = end_us - self.start_us;
        let mut st = lock_state();
        let Some(info) = st.open.remove(&id) else {
            return;
        };
        if st.jsonl.is_some() {
            let mut line = format!(
                "{{\"ev\":\"close\",\"id\":{id},\"name\":\"{}\",\"t_us\":{end_us:.3},\"dur_us\":{dur_us:.3}",
                json::escape(&info.name)
            );
            if !self.attrs.is_empty() {
                line.push_str(",\"attrs\":{");
                for (i, (k, v)) in self.attrs.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "\"{}\":\"{}\"", json::escape(k), json::escape(v));
                }
                line.push('}');
            }
            line.push('}');
            st.write_line(&line);
        }
        st.closed.push(ClosedSpan {
            id,
            parent: info.parent,
            name: info.name,
            thread: thread_id(),
            start_us: self.start_us,
            dur_us,
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

/// Opens a span named `name` under the calling thread's current span.
/// Close it by dropping the returned guard. A no-op (inert guard) when
/// tracing is off.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            id: None,
            start_us: 0.0,
            attrs: Vec::new(),
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed) + 1;
    let parent = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    let thread = thread_id();
    let start_us = now_us();
    let mut st = lock_state();
    if st.jsonl.is_some() {
        let parent_txt = match parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        let line = format!(
            "{{\"ev\":\"open\",\"id\":{id},\"parent\":{parent_txt},\"name\":\"{}\",\"thread\":{thread},\"t_us\":{start_us:.3}}}",
            json::escape(name)
        );
        st.write_line(&line);
    }
    st.open.insert(
        id,
        OpenSpan {
            name: name.to_string(),
            parent,
        },
    );
    SpanGuard {
        id: Some(id),
        start_us,
        attrs: Vec::new(),
    }
}

/// Opens a span — `span!("name")`, optionally with initial attributes:
/// `span!("cholesky.factor", "dim" => n, "mode" => "serial")`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr $(, $k:expr => $v:expr)+ $(,)?) => {{
        let mut guard = $crate::span($name);
        $( guard.set_attr($k, $v); )+
        guard
    }};
}

/// The calling thread's innermost active span id, for handing to
/// [`parent_scope`] on a worker thread. `None` when tracing is off or no
/// span is open.
pub fn current_span() -> Option<u64> {
    if !enabled() {
        return None;
    }
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// RAII guard that seeds a worker thread's span stack with a parent
/// captured on the submitting thread. See [`parent_scope`].
#[derive(Debug)]
pub struct ParentScope {
    id: Option<u64>,
}

impl Drop for ParentScope {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|&x| x == id) {
                    stack.remove(pos);
                }
            });
        }
    }
}

/// Links spans opened on this (worker) thread to `parent`, a span id
/// captured with [`current_span`] on the submitting thread. The link is
/// removed when the returned guard drops. Inert when `parent` is `None`
/// or tracing is off.
pub fn parent_scope(parent: Option<u64>) -> ParentScope {
    match parent {
        Some(id) if enabled() => {
            SPAN_STACK.with(|s| s.borrow_mut().push(id));
            ParentScope { id: Some(id) }
        }
        _ => ParentScope { id: None },
    }
}

/// Adds `delta` to the named counter. A no-op costing one relaxed atomic
/// load when tracing is off.
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    let mut st = lock_state();
    // Avoid allocating the key when the counter already exists — counters
    // fire on hot paths (per-step solves).
    match st.counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            st.counters.insert(name.to_string(), delta);
        }
    }
}

/// Emits a point-in-time event (e.g. one per transient retry) with a
/// human-readable detail string. A no-op when tracing is off.
pub fn instant_event(name: &str, detail: &str) {
    if !enabled() {
        return;
    }
    let t_us = now_us();
    let thread = thread_id();
    let mut st = lock_state();
    if st.jsonl.is_some() {
        let line = format!(
            "{{\"ev\":\"instant\",\"name\":\"{}\",\"thread\":{thread},\"t_us\":{t_us:.3},\"detail\":\"{}\"}}",
            json::escape(name),
            json::escape(detail)
        );
        st.write_line(&line);
    }
    st.instants.push(name.to_string());
}

/// Current value of a counter (0 if never incremented). Test helper.
pub fn counter_value(name: &str) -> u64 {
    lock_state().counters.get(name).copied().unwrap_or(0)
}

/// Number of recorded instant events with the given name. Test helper.
pub fn instant_count(name: &str) -> usize {
    if !enabled() {
        return 0;
    }
    lock_state().instants.iter().filter(|e| *e == name).count()
}

/// Number of spans closed so far (all names). Test helper.
pub fn closed_span_count() -> usize {
    if !enabled() {
        return 0;
    }
    lock_state().closed.len()
}

/// Snapshot of the closed spans retained by the collector. Test helper.
pub fn closed_spans() -> Vec<ClosedSpan> {
    if !enabled() {
        return Vec::new();
    }
    lock_state().closed.clone()
}

/// A position in the event stream, for [`phase_totals_since`].
#[derive(Debug, Clone, Copy)]
pub struct Mark(usize);

/// Marks the current position in the closed-span stream.
pub fn mark() -> Mark {
    if !enabled() {
        return Mark(0);
    }
    Mark(lock_state().closed.len())
}

/// Wall-time total for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTotal {
    /// Span name.
    pub name: String,
    /// Number of spans closed under this name.
    pub count: u64,
    /// Total wall-clock seconds across those spans.
    pub seconds: f64,
}

/// Aggregates spans closed since `mark` by name, sorted by descending
/// total time. Empty when tracing is off.
pub fn phase_totals_since(mark: Mark) -> Vec<PhaseTotal> {
    if !enabled() {
        return Vec::new();
    }
    let st = lock_state();
    let mut by_name: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    for span in st.closed.iter().skip(mark.0) {
        let e = by_name.entry(&span.name).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += span.dur_us;
    }
    let mut totals: Vec<PhaseTotal> = by_name
        .into_iter()
        .map(|(name, (count, us))| PhaseTotal {
            name: name.to_string(),
            count,
            seconds: us * 1e-6,
        })
        .collect();
    totals.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
    totals
}

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.3} s", us * 1e-6)
    } else if us >= 1e3 {
        format!("{:.2} ms", us * 1e-3)
    } else {
        format!("{us:.1} µs")
    }
}

/// Renders the human-readable summary: the aggregated span tree followed
/// by the counters. Empty string when tracing is off or nothing was
/// recorded.
pub fn summary_tree() -> String {
    if !enabled() {
        return String::new();
    }
    let st = lock_state();
    if st.closed.is_empty() && st.counters.is_empty() {
        return String::new();
    }

    // Name lookup across closed and still-open spans so parent chains
    // resolve even for spans whose parent has not closed yet.
    let mut names: HashMap<u64, (&str, Option<u64>)> = HashMap::new();
    for s in &st.closed {
        names.insert(s.id, (s.name.as_str(), s.parent));
    }
    for (id, info) in &st.open {
        names.insert(*id, (info.name.as_str(), info.parent));
    }

    // Aggregate closed spans by their full name path.
    let mut agg: BTreeMap<Vec<String>, (u64, f64)> = BTreeMap::new();
    for s in &st.closed {
        let mut path = vec![s.name.clone()];
        let mut cur = s.parent;
        let mut depth = 0;
        while let Some(pid) = cur {
            if depth > 64 {
                break;
            }
            match names.get(&pid) {
                Some((name, parent)) => {
                    path.push((*name).to_string());
                    cur = *parent;
                }
                None => break,
            }
            depth += 1;
        }
        path.reverse();
        let e = agg.entry(path).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += s.dur_us;
    }

    let mut out = String::from("trace summary:\n");
    if !agg.is_empty() {
        out.push_str("  span tree (count, total wall time):\n");
        for (path, (count, us)) in &agg {
            let indent = "  ".repeat(path.len() + 1);
            let name = path.last().map(String::as_str).unwrap_or("?");
            let label = format!("{indent}{name}");
            let _ = writeln!(out, "{label:<42} {count:>5}\u{d7}  {:>12}", fmt_us(*us));
        }
    }
    if !st.counters.is_empty() {
        out.push_str("  counters:\n");
        for (name, value) in &st.counters {
            let label = format!("    {name}");
            let _ = writeln!(out, "{label:<42} {value:>12}");
        }
    }
    out
}

/// Flushes the active sink: for JSONL, the counters are written as
/// `counter` events followed by a `finish` event. The counters keep their
/// totals, so each call writes the totals so far. Safe to call repeatedly
/// and in any mode.
pub fn finish() {
    if !enabled() {
        return;
    }
    let mut st = lock_state();
    if st.jsonl.is_some() {
        let counters = std::mem::take(&mut st.counters);
        for (name, value) in &counters {
            let line = format!(
                "{{\"ev\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
                json::escape(name)
            );
            st.write_line(&line);
        }
        st.counters = counters;
        let t_us = now_us();
        let line = format!("{{\"ev\":\"finish\",\"t_us\":{t_us:.3}}}");
        st.write_line(&line);
    }
    if let Some(w) = st.jsonl.as_mut() {
        let _ = w.flush();
    }
}

/// Validation result of a JSONL trace stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonlSummary {
    /// Number of `open` events.
    pub opens: usize,
    /// Number of `close` events (each matched an `open`).
    pub closes: usize,
    /// Number of `instant` events.
    pub instants: usize,
    /// Number of `counter` events.
    pub counters: usize,
    /// Distinct span names seen on `open` events, sorted.
    pub span_names: Vec<String>,
    /// Distinct instant-event names seen, sorted.
    pub instant_names: Vec<String>,
}

/// Validates a JSONL trace stream: every line parses as a JSON object
/// with a known `ev` tag and a monotonic `seq` field contiguous from 1
/// (so dropped or reordered lines from concurrent sinks are detected),
/// every `close` refers to a previously opened span id, and no id is
/// opened twice.
pub fn validate_jsonl(content: &str) -> Result<JsonlSummary, String> {
    let mut summary = JsonlSummary::default();
    let mut open_ids: HashMap<u64, ()> = HashMap::new();
    let mut span_names: Vec<String> = Vec::new();
    let mut instant_names: Vec<String> = Vec::new();
    let mut expected_seq: u64 = 1;
    for (lineno, line) in content.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let n = lineno + 1;
        let v = json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let seq = v
            .get("seq")
            .and_then(json::JsonValue::as_u64)
            .ok_or_else(|| format!("line {n}: missing or non-integer \"seq\" field"))?;
        if seq != expected_seq {
            return Err(format!(
                "line {n}: expected seq {expected_seq}, got {seq} (dropped or reordered lines)"
            ));
        }
        expected_seq += 1;
        let ev = v
            .get("ev")
            .and_then(json::JsonValue::as_str)
            .ok_or_else(|| format!("line {n}: missing \"ev\" tag"))?;
        match ev {
            "open" => {
                let id = v
                    .get("id")
                    .and_then(json::JsonValue::as_u64)
                    .ok_or_else(|| format!("line {n}: open without integer id"))?;
                let name = v
                    .get("name")
                    .and_then(json::JsonValue::as_str)
                    .ok_or_else(|| format!("line {n}: open without name"))?;
                if open_ids.insert(id, ()).is_some() {
                    return Err(format!("line {n}: span id {id} opened twice"));
                }
                span_names.push(name.to_string());
                summary.opens += 1;
            }
            "close" => {
                let id = v
                    .get("id")
                    .and_then(json::JsonValue::as_u64)
                    .ok_or_else(|| format!("line {n}: close without integer id"))?;
                if open_ids.remove(&id).is_none() {
                    return Err(format!("line {n}: close for span id {id} with no open"));
                }
                summary.closes += 1;
            }
            "instant" => {
                if let Some(name) = v.get("name").and_then(json::JsonValue::as_str) {
                    instant_names.push(name.to_string());
                }
                summary.instants += 1;
            }
            "counter" => summary.counters += 1,
            "finish" => {}
            other => return Err(format!("line {n}: unknown event tag {other:?}")),
        }
    }
    span_names.sort();
    span_names.dedup();
    instant_names.sort();
    instant_names.dedup();
    summary.span_names = span_names;
    summary.instant_names = instant_names;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global; serialize the tests that touch it.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn off_mode_records_nothing() {
        let _g = guard();
        reset("off").unwrap();
        {
            let mut s = span("should.not.exist");
            s.set_attr("k", "v");
            counter_add("c", 5);
            instant_event("e", "detail");
        }
        assert!(!enabled());
        assert_eq!(closed_span_count(), 0);
        assert_eq!(counter_value("c"), 0);
        assert_eq!(summary_tree(), "");
        assert!(phase_totals_since(mark()).is_empty());
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let _g = guard();
        reset("summary").unwrap();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span("inner");
            }
        }
        let spans = closed_spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        for inner in spans.iter().filter(|s| s.name == "inner") {
            assert_eq!(inner.parent, Some(outer.id));
        }
        let tree = summary_tree();
        assert!(tree.contains("outer"), "{tree}");
        assert!(tree.contains("inner"), "{tree}");
        let totals = phase_totals_since(Mark(0));
        let inner = totals.iter().find(|t| t.name == "inner").unwrap();
        assert_eq!(inner.count, 2);
        reset("off").unwrap();
    }

    #[test]
    fn parent_scope_links_across_threads() {
        let _g = guard();
        reset("summary").unwrap();
        let parent_id;
        {
            let _outer = span("submit");
            parent_id = current_span();
            assert!(parent_id.is_some());
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _link = parent_scope(parent_id);
                    let _w = span("worker");
                });
            });
        }
        let spans = closed_spans();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, parent_id);
        let submit = spans.iter().find(|s| s.name == "submit").unwrap();
        assert_ne!(worker.thread, submit.thread);
        reset("off").unwrap();
    }

    #[test]
    fn counters_accumulate_while_tracing() {
        let _g = guard();
        reset("summary").unwrap();
        counter_add("hits", 2);
        counter_add("hits", 3);
        assert_eq!(counter_value("hits"), 5);
        let tree = summary_tree();
        assert!(tree.contains("hits"), "{tree}");
        // Counters record exactly when tracing is on.
        set_mode_spec("off").unwrap();
        counter_add("hits", 1);
        assert_eq!(counter_value("hits"), 5);
        reset("off").unwrap();
    }

    #[test]
    fn jsonl_round_trips_and_validates() {
        let _g = guard();
        let path = std::env::temp_dir().join("vpec_trace_unit.jsonl");
        let spec = format!("jsonl:{}", path.display());
        reset(&spec).unwrap();
        {
            let mut s = span("alpha");
            s.set_attr("mode", "serial");
            let _inner = span("beta");
            instant_event("tick", "quote \" and \\ backslash");
        }
        counter_add("n", 7);
        finish();
        reset("off").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let summary = validate_jsonl(&content).unwrap();
        assert_eq!(summary.opens, 2);
        assert_eq!(summary.closes, 2);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.counters, 1);
        assert_eq!(
            summary.span_names,
            vec!["alpha".to_string(), "beta".to_string()]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        let _g = guard();
        assert!(validate_jsonl("not json\n").is_err());
        assert!(validate_jsonl("{\"seq\":1,\"ev\":\"close\",\"id\":1}\n").is_err());
        assert!(
            validate_jsonl(
                "{\"seq\":1,\"ev\":\"open\",\"id\":1,\"parent\":null,\"name\":\"a\",\"thread\":0,\"t_us\":0}\n\
                 {\"seq\":2,\"ev\":\"open\",\"id\":1,\"parent\":null,\"name\":\"b\",\"thread\":0,\"t_us\":1}\n"
            )
            .is_err()
        );
        assert!(validate_jsonl("{\"seq\":1,\"ev\":\"mystery\"}\n").is_err());
        let good = "{\"seq\":1,\"ev\":\"open\",\"id\":1,\"parent\":null,\"name\":\"a\",\"thread\":0,\"t_us\":0}\n\
                    {\"seq\":2,\"ev\":\"close\",\"id\":1,\"name\":\"a\",\"t_us\":5,\"dur_us\":5}\n\
                    {\"seq\":3,\"ev\":\"finish\",\"t_us\":6}\n";
        assert!(validate_jsonl(good).is_ok());
        // Sequence numbers must be present and contiguous from 1.
        let unnumbered =
            "{\"ev\":\"open\",\"id\":1,\"parent\":null,\"name\":\"a\",\"thread\":0,\"t_us\":0}\n";
        let err = validate_jsonl(unnumbered).unwrap_err();
        assert!(err.contains("seq"), "{err}");
        let gap = good.replace("\"seq\":3", "\"seq\":9");
        let err = validate_jsonl(&gap).unwrap_err();
        assert!(err.contains("expected seq 3"), "{err}");
    }

    #[test]
    fn mode_specs_parse() {
        let _g = guard();
        assert_eq!(set_mode_spec("off").unwrap(), TraceMode::Off);
        assert_eq!(set_mode_spec("summary").unwrap(), TraceMode::Summary);
        assert_eq!(set_mode_spec("").unwrap(), TraceMode::Off);
        assert!(set_mode_spec("jsonl").is_err());
        // A jsonl spec without a usable path is a parse-time error, so
        // the CLI can reject it before doing any work.
        assert!(parse_mode_spec("jsonl:").is_err());
        assert!(parse_mode_spec("jsonl:   ").is_err());
        assert!(set_mode_spec("banana").is_err());
        assert_eq!(mode(), TraceMode::Off);
        reset("off").unwrap();
    }

    #[test]
    fn span_macro_attaches_attrs() {
        let _g = guard();
        reset("summary").unwrap();
        {
            let _s = span!("macro.span", "dim" => 42, "mode" => "parallel");
        }
        let spans = closed_spans();
        let s = spans.iter().find(|s| s.name == "macro.span").unwrap();
        assert!(s.attrs.contains(&("dim".to_string(), "42".to_string())));
        assert!(s
            .attrs
            .contains(&("mode".to_string(), "parallel".to_string())));
        reset("off").unwrap();
    }
}
