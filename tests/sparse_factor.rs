//! The fill-reducing sparse factor on the paper's buses: every factor is
//! ordered by transversal + AMD, real and complex alike; it stays under
//! fixed size ceilings on Table III's sparsest model and on a full-VPEC
//! AC sweep, and its transient solves agree with dense LU at every size.

use vpec::numerics::audit::{self, AuditLevel};
use vpec::prelude::*;
use vpec::trace;
use vpec_circuit::dc::solve_dc_report;

fn experiment(bits: usize, misalign: f64) -> Experiment {
    Experiment::new(
        BusSpec::new(bits).misalignment(misalign).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    )
}

/// Asserts that the factor holds at most `ceiling` stored entries.
fn assert_sparse_within(what: &str, diag: &FactorDiagnostics, ceiling: usize) {
    assert!(
        diag.factor_nnz <= ceiling,
        "{what}: {} entries, ceiling {ceiling}",
        diag.factor_nnz
    );
}

/// Table III's misaligned 128-bit bus under its sparsest truncation: both
/// its transient and its DC factor. The ceilings are their sizes when
/// this test still compared them with RCM factors of the same matrices,
/// which were no smaller.
#[test]
fn table3_factors_stay_under_their_ceilings() {
    let exp = experiment(128, 0.05);
    let built = exp
        .build(ModelKind::TVpecNumerical { threshold: 3e-2 })
        .unwrap();
    let spec = TransientSpec::new(0.5e-9, 1e-12);
    let factor = built.prepare_transient(&spec).unwrap();
    assert_sparse_within("transient", factor.factor_diagnostics(), 11_345);
    let (_, dc) = solve_dc_report(&built.model.circuit).unwrap();
    assert_sparse_within("dc", &dc, 4_080);
}

/// The `factor_nnz` attributes of the `factor` spans opened inside
/// `ac.point` spans.
fn ac_factor_sizes(spans: &[trace::ClosedSpan]) -> Vec<usize> {
    let points: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "ac.point")
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == "factor" && s.parent.is_some_and(|p| points.contains(&p)))
        .map(|s| {
            let nnz = s.attrs.iter().find(|(k, _)| k == "factor_nnz");
            nnz.expect("a factor span carries its size")
                .1
                .parse()
                .unwrap()
        })
        .collect()
}

/// Full VPEC on the 28 × 8 bus of the AC benchmark: each complex factor
/// of its 0.1–10 GHz sweep holds at most 200,000 entries, where the RCM
/// factors this sweep used to take held 246,895–304,273. The sizes are
/// read from the `factor` spans, so the test records a trace; spans other
/// tests open meanwhile are told apart by their parents.
#[test]
fn full_vpec_ac_factors_stay_under_their_ceiling() {
    let exp = Experiment::new(
        BusSpec::new(28).segments(8).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    );
    let built = exp.build(ModelKind::VpecFull).unwrap();
    let spec = AcSpec::log_sweep(1e8, 1e10, 10).unwrap();
    trace::reset("summary").unwrap();
    let run = built.run_ac(&spec);
    let sizes = ac_factor_sizes(&trace::closed_spans());
    trace::reset("off").unwrap();
    run.unwrap();
    assert_eq!(sizes.len(), spec.frequencies.len());
    for (f, nnz) in spec.frequencies.iter().zip(&sizes) {
        assert!(*nnz <= 200_000, "{f:e} Hz: {nnz} entries");
    }
}

/// Sparse and dense LU agree on crosstalk transients within 1e-9 of
/// max|x|: 32-bit PEEC, full VPEC and gwVPEC(8), and the engine-sized
/// buses of the batch benchmark's recurring geometries whose MNA systems
/// have at most 64 unknowns (4 bits: 18 and 38; PEEC on 6 × 3, 8 × 1,
/// 8 × 2 and 12 × 1: 62, 34, 58 and 50). Every system has one sparse
/// factor, whatever its size; the Full audit re-solves each run's final
/// step with dense LU with partial pivoting (systems of at most 512
/// unknowns) and records the largest difference relative to max|x|. The
/// sparse factor pivots in a different order than dense LU (threshold
/// pivoting that prefers the diagonal, under a fill-reducing ordering),
/// so this path is audited-close, not bit-identical.
#[test]
fn sparse_and_dense_transients_agree_on_a_32_bit_bus() {
    audit::set_level(AuditLevel::Full);
    let wide = [
        ModelKind::Peec,
        ModelKind::VpecFull,
        ModelKind::WVpecGeometric { b: 8 },
    ];
    let small = [
        ModelKind::Peec,
        ModelKind::VpecFull,
        ModelKind::WVpecGeometric { b: 4 },
    ];
    let peec = [ModelKind::Peec];
    let cases: [((usize, usize), &[ModelKind]); 6] = [
        ((32, 1), &wide),
        ((4, 1), &small),
        ((6, 3), &peec),
        ((8, 1), &peec),
        ((8, 2), &peec),
        ((12, 1), &peec),
    ];
    for ((bits, segments), kinds) in cases {
        let exp = Experiment::new(
            BusSpec::new(bits).segments(segments).build(),
            &ExtractionConfig::paper_default(),
            DriveConfig::paper_default(),
        );
        for &kind in kinds {
            let what = format!("{bits} x {segments} {kind:?}");
            let built = exp.build(kind).unwrap();
            let dim = built.model.circuit.mna_dim();
            assert!(dim <= if bits < 32 { 64 } else { 512 }, "{what}: {dim}");
            let spec = TransientSpec::new(0.1e-9, 1e-12);
            let (_, report, _) = built.run_transient_with_report(&spec).unwrap();
            let audit = report.transient.unwrap().audit.expect("the audit ran");
            assert!(audit.is_clean(), "{what}: {:?}", audit.violations);
            let worst = audit.backend_max_diff.expect("the dense re-solve ran");
            assert!(worst <= 1e-9, "{what}: sparse vs dense {worst:e} of max|x|");
        }
    }
}
