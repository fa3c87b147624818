//! The fill-reducing sparse factor on the paper's buses: its fill guard
//! never accepts more nonzeros than RCM ordering gives, and its waveforms
//! agree with dense LU.

use vpec::prelude::*;
use vpec_numerics::ordering::rcm_ordering;
use vpec_numerics::SparseLu;

fn experiment(bits: usize, misalign: f64) -> Experiment {
    Experiment::new(
        BusSpec::new(bits).misalignment(misalign).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    )
}

/// Table III's misaligned 128-bit bus under its sparsest truncation: the
/// accepted transient factor holds no more nonzeros than the RCM factor
/// of the same matrix with full partial pivoting.
#[test]
fn table3_factor_is_no_larger_than_rcm() {
    let exp = experiment(128, 0.05);
    let built = exp
        .build(ModelKind::TVpecNumerical { threshold: 3e-2 })
        .unwrap();
    let spec = TransientSpec::new(0.5e-9, 1e-12).solver(SolverKind::Sparse);
    let factor = built.prepare_transient(&spec).unwrap();
    let diag = factor.factor_diagnostics();
    let csr = factor.matrix().to_csr();
    let rcm = SparseLu::new_ordered(&csr, &rcm_ordering(&csr)).unwrap();
    assert!(diag.ordering.is_some(), "a sparse factor: {diag:?}");
    assert!(
        diag.factor_nnz <= rcm.factor_nnz(),
        "accepted {} ({:?}) vs RCM {}",
        diag.factor_nnz,
        diag.ordering,
        rcm.factor_nnz()
    );
}

/// Sparse and dense LU agree on 32-bit PEEC, full VPEC and gwVPEC(8)
/// crosstalk transients within 1e-9 of each probe's peak. The sparse
/// factor pivots in a different order than dense LU (threshold pivoting
/// that prefers the diagonal, under a fill-reducing ordering), so this
/// path is audited-close, not bit-identical.
#[test]
fn sparse_and_dense_transients_agree_on_a_32_bit_bus() {
    let exp = experiment(32, 0.0);
    for kind in [
        ModelKind::Peec,
        ModelKind::VpecFull,
        ModelKind::WVpecGeometric { b: 8 },
    ] {
        let built = exp.build(kind).unwrap();
        let run = |solver| {
            let spec = TransientSpec::new(0.1e-9, 1e-12).solver(solver);
            let (res, _) = built.run_transient(&spec).unwrap();
            [0, 1].map(|k| built.far_voltage(&res, k).unwrap())
        };
        let sparse = run(SolverKind::Sparse);
        let dense = run(SolverKind::Dense);
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
