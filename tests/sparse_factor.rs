//! The fill-reducing sparse factor on the paper's buses: real-valued
//! factors are ordered by transversal + AMD, on Table III's sparsest model
//! they hold no more nonzeros than RCM ordering gives, and their waveforms
//! agree with dense LU.

use vpec::prelude::*;
use vpec_circuit::dc::{dc_matrix, solve_dc_report};
use vpec_circuit::SparseOrdering;
use vpec_numerics::ordering::rcm_ordering;
use vpec_numerics::{CooMatrix, SparseLu};

fn experiment(bits: usize, misalign: f64) -> Experiment {
    Experiment::new(
        BusSpec::new(bits).misalignment(misalign).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    )
}

/// Asserts that the accepted factor of `a` is a transversal + AMD one
/// that holds no more nonzeros than the RCM factor of the same matrix
/// with full partial pivoting.
fn assert_amd_no_larger_than_rcm(what: &str, a: &CooMatrix<f64>, diag: &FactorDiagnostics) {
    let csr = a.to_csr();
    let rcm = SparseLu::new_ordered(&csr, &rcm_ordering(&csr)).unwrap();
    assert_eq!(diag.ordering, Some(SparseOrdering::Amd), "{what}: {diag:?}");
    assert!(
        diag.factor_nnz <= rcm.factor_nnz(),
        "{what}: AMD {} vs RCM {}",
        diag.factor_nnz,
        rcm.factor_nnz()
    );
}

/// Table III's misaligned 128-bit bus under its sparsest truncation: both
/// its transient and its DC factor.
#[test]
fn table3_factor_is_no_larger_than_rcm() {
    let exp = experiment(128, 0.05);
    let built = exp
        .build(ModelKind::TVpecNumerical { threshold: 3e-2 })
        .unwrap();
    let spec = TransientSpec::new(0.5e-9, 1e-12);
    let factor = built.prepare_transient(&spec).unwrap();
    assert_amd_no_larger_than_rcm("transient", factor.matrix(), factor.factor_diagnostics());
    let ckt = &built.model.circuit;
    let (_, dc) = solve_dc_report(ckt).unwrap();
    assert_amd_no_larger_than_rcm("dc", &dc_matrix(ckt).unwrap(), &dc);
}

/// Sparse and dense LU agree on 32-bit PEEC, full VPEC and gwVPEC(8)
/// crosstalk transients within 1e-9 of each probe's peak. All three go
/// sparse; the dense reference is the fallback chain's dense LU, reached
/// by failing the sparse primary. The sparse factor pivots in a
/// different order than dense LU (threshold pivoting that prefers the
/// diagonal, under a fill-reducing ordering), so this path is
/// audited-close, not bit-identical.
#[test]
fn sparse_and_dense_transients_agree_on_a_32_bit_bus() {
    let exp = experiment(32, 0.0);
    for kind in [
        ModelKind::Peec,
        ModelKind::VpecFull,
        ModelKind::WVpecGeometric { b: 8 },
    ] {
        let built = exp.build(kind).unwrap();
        let run = |fail_primary_factor, strategy| {
            let spec = TransientSpec::new(0.1e-9, 1e-12).fault_injection(FaultInjection {
                fail_primary_factor,
                ..FaultInjection::none()
            });
            let (res, report, _) = built.run_transient_with_report(&spec).unwrap();
            let factor = report.transient.unwrap().factor;
            assert_eq!(factor.accepted(), Some(strategy), "{kind:?}");
            [0, 1].map(|k| built.far_voltage(&res, k).unwrap())
        };
        let sparse = run(false, FactorStrategy::SparseLu);
        let dense = run(true, FactorStrategy::DenseLu);
        for (probe, (s, d)) in sparse.iter().zip(&dense).enumerate() {
            let peak = peak_abs(d);
            let worst = s
                .iter()
                .zip(d)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(
                worst <= 1e-9 * peak,
                "{kind:?} probe {probe}: sparse vs dense {worst:e} of peak {peak:e}"
            );
        }
    }
}
