//! Spans the benchmark records around its own calls into each layer.
//!
//! Spans live in memory while a traced trial runs and are written out
//! afterwards. The program's own tracing stays off, so a traced trial
//! costs only this file's bookkeeping.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of a traced trial.
pub const TRIAL: &str = "trial";
/// Name of the span around one model's build and analysis.
pub const MODEL: &str = "model";

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `circuit.steps`.
    pub name: &'static str,
    /// Model kind label of the enclosing [`MODEL`] span, if any.
    pub model: Option<String>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Seconds since the recorder was created.
    pub start: f64,
    /// Seconds since the recorder was created.
    pub end: f64,
}

impl Span {
    /// Wall time between open and close.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open_span(name, None, f)
    }

    /// Runs `f` inside a [`MODEL`] span labelled `label`; spans opened
    /// inside inherit the label.
    pub fn model<R>(&self, label: String, f: impl FnOnce() -> R) -> R {
        self.open_span(MODEL, Some(label), f)
    }

    fn open_span<R>(&self, name: &'static str, model: Option<String>, f: impl FnOnce() -> R) -> R {
        let parent = self.open.borrow().last().copied();
        let model = model.or_else(|| parent.and_then(|p| self.spans.borrow()[p].model.clone()));
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                model,
                parent,
                start: 0.0,
                end: 0.0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start = start;
        spans[id].end = end;
        out
    }

    /// The closed spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Self time summed by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// Share of the root spans' wall time spent in layer calls, i.e. in spans
/// other than [`TRIAL`] and [`MODEL`]: the rest is the benchmark's glue.
pub fn coverage(spans: &[Span]) -> f64 {
    let wall: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::duration)
        .sum();
    let layers: f64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name != TRIAL && s.name != MODEL)
        .map(|(_, t)| t)
        .sum();
    if wall > 0.0 {
        layers / wall
    } else {
        0.0
    }
}

/// One JSON line per span, tagged with the workload and trial index.
pub fn jsonl(spans: &[Span], workload: &str, trial: usize) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let model = s.model.as_deref().map_or("null".to_string(), |m| {
            format!("\"{}\"", vpec_trace::json::escape(m))
        });
        let _ = writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"trial\":{trial},\"id\":{id},\"parent\":{parent},\
             \"name\":\"{}\",\"model\":{model},\"start_s\":{:e},\"end_s\":{:e}}}",
            s.name, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            model: None,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(TRIAL, None, 0.0, 10.0),
            span("extract", Some(0), 0.0, 2.0),
            span(MODEL, Some(0), 2.0, 9.0),
            span("circuit.factor", Some(2), 2.5, 4.0),
            span("circuit.steps", Some(2), 4.0, 8.0),
            // Overlaps its sibling: the overlap is subtracted once.
            span("circuit.steps", Some(2), 7.0, 8.5),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 10.0 - 2.0 - 7.0);
        assert_eq!(t[2], 7.0 - (8.5 - 2.5));
        assert_eq!(t[4], 4.0);
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["circuit.steps"], 4.0 + 1.5);
        // Layers: 2 + 1.5 + 4 + 1.5 = 9 of 10 seconds.
        assert!((coverage(&spans) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_inherits_model_label() {
        let rec = Recorder::new();
        let v = rec.span(TRIAL, || {
            rec.model("PEEC".to_string(), || rec.span("core.lower", || 7))
        });
        assert_eq!(v, 7);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].model.as_deref(), Some("PEEC"));
        assert_eq!(spans[0].model, None);
        assert!(spans[0].start <= spans[2].start && spans[2].end <= spans[0].end);
        let lines = jsonl(&spans, "w", 0);
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.contains("\"name\":\"core.lower\",\"model\":\"PEEC\""));
    }
}
