//! Integration tests for the tracing subsystem across the whole
//! pipeline: span nesting across pool workers, JSONL round-tripping
//! through the crate's own parser, fault-injected retry events, and the
//! guarantee that the disabled path emits nothing.
//!
//! The trace collector is process-global, so every test takes the same
//! lock and resets the mode on entry and exit.

use std::sync::Mutex;
use vpec::circuit::diagnostics::FaultInjection;
use vpec::circuit::transient::run_transient_with_report;
use vpec::numerics::pool::Pool;
use vpec::prelude::*;
use vpec::trace;

/// Serializes tests against the process-global trace collector.
fn guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn experiment(bits: usize) -> Experiment {
    Experiment::new(
        BusSpec::new(bits).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    )
}

#[test]
fn spans_nest_across_pool_workers() {
    let _g = guard();
    trace::reset("summary").unwrap();

    let root = trace::span("test.root");
    let root_id = trace::current_span().expect("root span is active");
    let pool = Pool::with_threads(4);
    let out = pool.par_map(&[1u64, 2, 3, 4, 5, 6, 7, 8], |_, &x| {
        let _child = trace::span("test.worker");
        x * 2
    });
    assert_eq!(out, vec![2, 4, 6, 8, 10, 12, 14, 16]);
    drop(root);

    let closed = trace::closed_spans();
    let workers: Vec<_> = closed.iter().filter(|s| s.name == "test.worker").collect();
    assert_eq!(workers.len(), 8, "one span per mapped item");
    for w in &workers {
        assert_eq!(
            w.parent,
            Some(root_id),
            "worker spans must link to the root span even on scoped pool threads"
        );
    }
    trace::reset("off").unwrap();
}

#[test]
fn pipeline_jsonl_round_trips_through_the_parser() {
    let _g = guard();
    let path = std::env::temp_dir().join("vpec_trace_it_pipeline.jsonl");
    trace::reset(&format!("jsonl:{}", path.display())).unwrap();

    let exp = experiment(4);
    let built = exp.build(ModelKind::VpecFull).expect("model builds");
    let (res, _report, _) = built
        .run_transient_with_report(&TransientSpec::new(0.05e-9, 1e-12))
        .expect("transient runs");
    assert!(res.len() > 10);
    let (_ac, _) = built
        .run_ac(&AcSpec::points(vec![1e8, 1e9, 1e10]))
        .expect("AC sweep runs");
    trace::finish();
    trace::reset("off").unwrap();

    let content = std::fs::read_to_string(&path).unwrap();
    let summary = trace::validate_jsonl(&content).expect("stream validates");
    assert_eq!(summary.opens, summary.closes, "all spans closed");
    for phase in ["extract", "model.invert", "build", "factor", "dc", "transient", "ac.sweep"] {
        assert!(
            summary.span_names.iter().any(|n| n == phase),
            "stream must cover phase {phase}: {:?}",
            summary.span_names
        );
    }
    assert!(summary.counters > 0, "counter events flushed by finish()");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_retries_produce_exactly_that_many_retry_events() {
    let _g = guard();
    trace::reset("summary").unwrap();

    // An RC step-response circuit with a poisoned step: the guarded
    // transient halves dt once per poisoning and emits one retry event
    // per halving.
    let mut c = vpec::circuit::Circuit::new();
    let inp = c.node("in");
    let out = c.node("out");
    c.add_vsource(
        "V1",
        inp,
        vpec::circuit::Circuit::GROUND,
        vpec::circuit::Waveform::dc(1.0),
    )
    .unwrap();
    c.add_resistor("R1", inp, out, 1000.0).unwrap();
    c.add_capacitor("C1", out, vpec::circuit::Circuit::GROUND, 1e-9).unwrap();

    let spec = TransientSpec::new(1e-7, 1e-9).fault_injection(FaultInjection {
        poison_step: Some(10),
        ..FaultInjection::none()
    });
    let (_, diag) = run_transient_with_report(&c, &spec).unwrap();
    assert_eq!(diag.retries, 1, "one poisoned step, one retry");

    assert_eq!(
        trace::instant_count("transient.retry"),
        1,
        "exactly one retry event for one injected fault"
    );
    assert_eq!(trace::counter_value("transient.retries"), 1);
    assert_eq!(trace::counter_value("transient.dt_halvings"), 1);
    trace::reset("off").unwrap();
}

#[test]
fn clean_run_emits_no_retry_events() {
    let _g = guard();
    trace::reset("summary").unwrap();
    let exp = experiment(3);
    let built = exp.build(ModelKind::VpecFull).unwrap();
    let (_, report, _) = built
        .run_transient_with_report(&TransientSpec::new(0.05e-9, 1e-12))
        .unwrap();
    assert_eq!(trace::instant_count("transient.retry"), 0);
    assert_eq!(trace::counter_value("transient.retries"), 0);
    // The phase breakdown folded into the report covers the span names.
    assert!(
        report.phases.iter().any(|p| p.name == "transient"),
        "SolveReport.phases covers the transient: {:?}",
        report.phases
    );
    assert!(report.phases.iter().any(|p| p.name == "build"));
    trace::reset("off").unwrap();
}

#[test]
fn sparse_factor_span_carries_its_evidence() {
    let _g = guard();
    trace::reset("summary").unwrap();
    // 8-bit full VPEC (MNA dim 74) goes sparse.
    let exp = experiment(8);
    let built = exp.build(ModelKind::VpecFull).unwrap();
    let spec = TransientSpec::new(0.05e-9, 1e-12);
    let (_, report, _) = built.run_transient_with_report(&spec).unwrap();
    let diag = report.transient.expect("transient diagnostics").factor;
    assert_eq!(diag.accepted(), Some(FactorStrategy::SparseLu));
    let ordering = diag.ordering.expect("a sparse factor reports its ordering");
    let factor_spans: Vec<_> = trace::closed_spans()
        .into_iter()
        .filter(|s| s.name == "factor")
        .collect();
    assert!(!factor_spans.is_empty());
    for span in &factor_spans {
        let attr = |k: &str| span.attrs.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
        assert_eq!(attr("ordering").as_deref(), Some("amd"), "{span:?}");
        assert!(attr("off_diagonal_pivots").is_some(), "{span:?}");
        assert!(attr("factor_nnz").is_some(), "{span:?}");
    }
    // The transient factor is the first one opened (the DC point follows).
    let first = &factor_spans[0];
    let attr = |k: &str| first.attrs.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone());
    assert_eq!(attr("ordering").as_deref(), Some(ordering.label()));
    assert_eq!(attr("off_diagonal_pivots"), Some(diag.off_diagonal_pivots.to_string()));
    trace::reset("off").unwrap();
}

#[test]
fn off_mode_emits_nothing() {
    let _g = guard();
    trace::reset("off").unwrap();

    let before = trace::closed_span_count();
    let exp = experiment(3);
    let built = exp.build(ModelKind::VpecFull).unwrap();
    let (_, report, _) = built
        .run_transient_with_report(&TransientSpec::new(0.05e-9, 1e-12))
        .unwrap();

    assert_eq!(trace::closed_span_count(), before, "no spans recorded");
    assert_eq!(trace::counter_value("transient.steps"), 0);
    assert_eq!(trace::instant_count("transient.retry"), 0);
    assert!(report.phases.is_empty(), "no phase breakdown when off");
    assert!(trace::summary_tree().is_empty());
}
