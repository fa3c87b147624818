//! The `--metrics-out` exposition is tallied from the run records: over a
//! stream with a cache hit, a retried panic, a degraded request and an AC
//! sweep, its counters equal the ledger's, and every series is one of the
//! engine's.

use vpec_core::harness::BuildBudget;
use vpec_engine::{Engine, EngineConfig, StreamTelemetry};
use vpec_metrics::{aggregate, parse_ledger};

const REQUESTS: &str = r#"{"id":"ok-1","bits":3,"kind":"wvpec-g:2","t_stop":5e-11}
{"id":"ok-2","bits":3,"kind":"wvpec-g:2","t_stop":5e-11}
{"id":"over-budget","bits":8,"kind":"vpec-full","t_stop":5e-11}
{"id":"boom","bits":3,"kind":"wvpec-g:2","t_stop":5e-11,"faults":{"panic_engine":true}}
{"id":"ac-1","bits":3,"kind":"wvpec-g:2","analysis":"ac","points_per_decade":2}
"#;

/// The value of the unlabelled series `name`.
fn series(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no series {name} in\n{exposition}"))
        .parse()
        .unwrap()
}

#[test]
fn exposition_counts_what_the_ledger_records() {
    let dir = std::env::temp_dir();
    let ledger_path = dir.join("vpec_engine_exposition_test.jsonl");
    let prom_path = dir.join("vpec_engine_exposition_test.prom");
    let mut telemetry = StreamTelemetry::new(
        Some(&ledger_path.display().to_string()),
        Some(&prom_path.display().to_string()),
    )
    .unwrap();
    let config = EngineConfig {
        budget: BuildBudget {
            max_matrix_dim: Some(6),
            ..BuildBudget::unlimited()
        },
        retries: 1,
        backoff_ms: 1,
        degrade_window: 2,
        ..EngineConfig::default()
    };
    let mut responses = Vec::new();
    Engine::new(config)
        .run_stream_with(REQUESTS.as_bytes(), &mut responses, &mut telemetry)
        .unwrap();

    let stats = aggregate(
        &parse_ledger(&std::fs::read_to_string(&ledger_path).unwrap()).unwrap(),
        0,
    );
    let expo = std::fs::read_to_string(&prom_path).unwrap();
    let _ = std::fs::remove_file(&ledger_path);
    let _ = std::fs::remove_file(&prom_path);
    // The stream exercises every counter.
    assert_eq!((stats.total, stats.failed, stats.retries), (5, 1, 1));
    assert!(
        stats.degraded >= 1 && stats.model_cache.hits >= 1,
        "{stats:?}"
    );

    let tallies = [
        ("vpec_engine_requests_total", stats.total),
        ("vpec_engine_requests_ok_total", stats.ok),
        ("vpec_engine_requests_failed_total", stats.failed),
        ("vpec_engine_requests_degraded_total", stats.degraded),
        ("vpec_engine_requests_retries_total", stats.retries),
        ("vpec_engine_cache_hit_total", stats.model_cache.hits),
        (
            "vpec_engine_request_total_ms_count",
            stats.latencies_ms.len(),
        ),
    ];
    for (name, tally) in tallies {
        assert_eq!(series(&expo, name), tally as u64, "{name}");
    }
    for line in expo.lines() {
        let metric = line.strip_prefix("# TYPE ").unwrap_or(line);
        assert!(metric.starts_with("vpec_engine_"), "{line}");
    }
}
