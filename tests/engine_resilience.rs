//! End-to-end exercises of the resilient batch engine, driven through the
//! public streaming API exactly as `vpec batch` / `vpec serve` drive it:
//! a JSONL request stream goes in, a JSONL response stream comes out, and
//! no single request — panicking, stalling, over-budget or malformed —
//! can take down its neighbours.
//!
//! 1. the acceptance batch: one panicking, one deadline-exceeding and one
//!    over-budget request ride alongside healthy ones; the healthy ones
//!    succeed, every line of output is valid JSON, and the degraded
//!    wVPEC fallback is marked `degraded: true`;
//! 2. the fault-injection matrix: deterministic faults at the extraction
//!    and transient sites in a single batch, with per-request isolation
//!    asserted, and a legacy factorization fault that runs clean;
//! 3. policy edges: `--no-degrade` fails hard, budget overruns on
//!    windowed kinds are not degradable, and repeated geometry is served
//!    from the model cache.

use vpec::engine::{Engine, EngineConfig};
use vpec::prelude::BuildBudget;
use vpec::trace::json::{parse, JsonValue};

/// Runs a JSONL request stream through a fresh engine, returning the
/// parsed response objects (validating every line as JSON on the way)
/// plus the stream summary.
fn run_batch(
    config: EngineConfig,
    requests: &str,
) -> (Vec<JsonValue>, vpec::engine::StreamSummary) {
    let mut out = Vec::new();
    let summary = Engine::new(config)
        .run_stream(requests.as_bytes(), &mut out)
        .expect("the stream itself never fails on request errors");
    let text = String::from_utf8(out).expect("responses are UTF-8");
    let responses: Vec<JsonValue> = text
        .lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("invalid JSONL line {l:?}: {e}")))
        .collect();
    (responses, summary)
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("response missing string field {key}: {v:?}"))
}

fn bool_field(v: &JsonValue, key: &str) -> bool {
    match v.get(key) {
        Some(JsonValue::Bool(b)) => *b,
        other => panic!("response missing bool field {key}: {other:?}"),
    }
}

fn error_category(v: &JsonValue) -> &str {
    v.get("error")
        .and_then(|e| e.get("category"))
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("failed response carries a typed error: {v:?}"))
}

/// The ISSUE acceptance scenario: a batch containing a panicking request,
/// a deadline-exceeding request and an over-budget request, where every
/// other request still succeeds and the output stays schema-clean.
#[test]
fn batch_survives_panic_deadline_and_budget_failures() {
    let config = EngineConfig {
        budget: BuildBudget {
            max_filaments: Some(64),
            max_matrix_dim: Some(6),
            max_steps: None,
        },
        retries: 1,
        backoff_ms: 1,
        degrade: true,
        degrade_window: 2,
        deadline_ms: None,
    };
    let requests = r#"
        {"id":"healthy-1","bits":3,"kind":"wvpec-g:2","t_stop":5e-11}
        {"id":"panics","bits":3,"kind":"wvpec-g:2","t_stop":5e-11,"faults":{"panic_engine":true}}
        {"id":"stalls","bits":3,"kind":"vpec-full","t_stop":5e-11,"deadline_ms":60,"faults":{"stall_ms":400}}
        {"id":"over-budget","bits":8,"kind":"vpec-full","t_stop":5e-11}
        {"id":"healthy-2","bits":3,"kind":"wvpec-g:2","t_stop":5e-11}
    "#;
    let (responses, summary) = run_batch(config, requests);
    assert_eq!(responses.len(), 5, "one response line per request");
    assert_eq!(summary.total, 5);
    assert_eq!(summary.failed, 1, "only the panicking request fails");
    assert_eq!(summary.ok, 4);
    assert_eq!(
        summary.degraded, 2,
        "the stalled and over-budget requests degrade"
    );

    for (resp, id) in
        responses
            .iter()
            .zip(["healthy-1", "panics", "stalls", "over-budget", "healthy-2"])
    {
        assert_eq!(str_field(resp, "id"), id, "responses stream in order");
    }

    // The healthy requests are untouched by their neighbours' failures.
    for i in [0, 4] {
        assert_eq!(str_field(&responses[i], "status"), "ok");
        assert!(!bool_field(&responses[i], "degraded"));
    }
    // The second healthy request shares the first one's geometry and
    // model kind, so it is served from the cache.
    assert!(bool_field(&responses[4], "cache_hit"));

    // The panic is contained, retried, and reported as a typed error.
    let panicked = &responses[1];
    assert_eq!(str_field(panicked, "status"), "failed");
    assert_eq!(error_category(panicked), "panic");
    assert_eq!(
        panicked.get("attempts").and_then(JsonValue::as_u64),
        Some(2),
        "retries=1 means two attempts"
    );

    // The stalled full-inversion request hits its 60 ms deadline and is
    // re-run as the windowed fallback, marked degraded.
    let stalled = &responses[2];
    assert_eq!(str_field(stalled, "status"), "ok");
    assert!(bool_field(stalled, "degraded"));
    assert_eq!(str_field(stalled, "degraded_reason"), "deadline");
    assert_eq!(str_field(stalled, "ran"), "gwVPEC(b=2)");

    // The over-budget full-inversion request (8 filaments > max dim 6)
    // degrades to the windowed kind instead of failing.
    let over = &responses[3];
    assert_eq!(str_field(over, "status"), "ok");
    assert!(bool_field(over, "degraded"));
    assert_eq!(str_field(over, "degraded_reason"), "budget");
    assert_eq!(str_field(over, "ran"), "gwVPEC(b=2)");
}

/// Deterministic faults at the extraction and transient sites in one
/// batch, beside a request carrying the retired factorization fault.
/// Each fault stays inside its own request boundary.
#[test]
fn fault_matrix_is_isolated_per_request() {
    let config = EngineConfig {
        retries: 0,
        backoff_ms: 1,
        ..EngineConfig::default()
    };
    let requests = r#"
        {"id":"clean-a","bits":3,"kind":"vpec-full","t_stop":5e-11}
        {"id":"fault-extract","bits":3,"kind":"vpec-full","t_stop":5e-11,"faults":{"panic_extraction":true}}
        {"id":"fault-factor","bits":3,"kind":"vpec-full","t_stop":5e-11,"faults":{"fail_primary_factor":true}}
        {"id":"fault-step","bits":3,"kind":"vpec-full","t_stop":5e-11,"faults":{"poison_step":20}}
        {"id":"clean-b","bits":3,"kind":"vpec-full","t_stop":5e-11}
    "#;
    let (responses, summary) = run_batch(config, requests);
    assert_eq!(summary.total, 5);

    // The extraction panic is contained by the boundary and reported as
    // a typed panic error.
    let extract = &responses[1];
    assert_eq!(str_field(extract, "status"), "failed");
    assert_eq!(error_category(extract), "panic");

    // The retired factorization fault is an unknown key: every system
    // gets one sparse factor and there is no fallback to force, so the
    // request runs clean.
    let factor = &responses[2];
    assert_eq!(str_field(factor, "status"), "ok");
    assert!(!bool_field(factor, "degraded"));

    // The poisoned transient step is recovered *inside* the solve by the
    // checkpointed half-step retry; the response is ok but marked
    // degraded, with the recovery visible in the notes.
    let step = &responses[3];
    assert_eq!(str_field(step, "status"), "ok");
    assert!(
        bool_field(step, "degraded"),
        "in-solve retry marks degraded"
    );
    match step.get("notes") {
        Some(JsonValue::Arr(a)) => assert!(
            a.iter()
                .filter_map(JsonValue::as_str)
                .any(|n| n.contains("retry")),
            "recovery note present: {a:?}"
        ),
        other => panic!("fault-step must carry notes: {other:?}"),
    }

    // The clean requests bracket the faults and both succeed; the second
    // one must be served from the cache — fault-injected neighbours
    // neither evict nor bypass the clean cache entry.
    for i in [0usize, 4] {
        assert_eq!(str_field(&responses[i], "status"), "ok");
        assert!(!bool_field(&responses[i], "degraded"));
    }
    assert!(bool_field(&responses[4], "cache_hit"));
    assert_eq!(summary.failed, 1);
    assert_eq!(summary.ok, 4);
}

/// Policy edges: no-degrade fails hard with the budget error, and a
/// windowed kind over its filament budget has no fallback to degrade to.
#[test]
fn budget_policy_edges() {
    let no_degrade = EngineConfig {
        budget: BuildBudget {
            max_filaments: None,
            max_matrix_dim: Some(4),
            max_steps: None,
        },
        degrade: false,
        retries: 0,
        ..EngineConfig::default()
    };
    let (responses, summary) = run_batch(
        no_degrade,
        r#"{"id":"hard-fail","bits":8,"kind":"vpec-full","t_stop":5e-11}"#,
    );
    assert_eq!(summary.failed, 1);
    assert_eq!(str_field(&responses[0], "status"), "failed");
    assert_eq!(error_category(&responses[0]), "budget");
    assert!(!bool_field(&responses[0], "degraded"));

    let filament_cap = EngineConfig {
        budget: BuildBudget {
            max_filaments: Some(4),
            max_matrix_dim: None,
            max_steps: None,
        },
        retries: 0,
        ..EngineConfig::default()
    };
    let (responses, _) = run_batch(
        filament_cap,
        r#"{"id":"windowed-over","bits":8,"kind":"wvpec-g:2","t_stop":5e-11}"#,
    );
    // A filament-count overrun is not a full-inversion cost problem, so
    // the wVPEC fallback cannot help: this fails even with degrade on.
    assert_eq!(str_field(&responses[0], "status"), "failed");
    assert_eq!(error_category(&responses[0]), "budget");
}
