//! The transient step loop costs one solve (DESIGN.md §8.8).
//!
//! * A coupled inductor's flux history `h = coef·Σ L·i` is carried from
//!   step to step instead of formed as a product. It must stay within
//!   1e-12 of the run's voltage peak of the direct product over 3,000
//!   steps, and be formed afresh when a retry halves the step.
//! * The sparse factor's dense trailing block is swept as slices. On the
//!   256-bit PEEC and full-VPEC transient factors it must hold most of
//!   PEEC's L and U and a fifth of full VPEC's, and its solves must equal
//!   the index-walking sweep bit for bit.
//! * The factorization eliminates that block as slices too. The 256-bit
//!   PEEC and full-VPEC transient and DC factors, and the full-VPEC AC
//!   factor of the 28 × 8 bus at 1 GHz, must equal the factor that
//!   scatters every update through row indices, entry for entry.
//!
//! The history is read back from the waveforms: step `n → n+1` solved the
//! branch row `v₍ₙ₊₁₎ − coef·Σ L·i₍ₙ₊₁₎ = −vₙ − hₙ`, so the
//! recorded state gives the `hₙ` it used, up to the solve's rounding.

use std::collections::HashMap;
use vpec::circuit::ac::ac_matrix;
use vpec::circuit::dc::dc_matrix;
use vpec::circuit::{Element, ElementId, TransientResult};
use vpec::numerics::ordering::FillOrdering;
use vpec::numerics::{CsrMatrix, Scalar, SparseLu};
use vpec::prelude::*;

/// Largest admitted gap between the carried and the direct history, and
/// between a retried run and a clean one, as a share of the run's largest
/// node voltage.
const BOUND: f64 = 1e-12;

fn experiment(bits: usize, misalign: f64) -> Experiment {
    Experiment::new(
        BusSpec::new(bits).misalignment(misalign).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    )
}

/// A symmetric pair of coupled RLC lines, eight segments each: series R
/// and L, shunt C, a coupling C between facing nodes and a mutual
/// inductance between facing segments. Line 0 is driven by `drive`
/// through 50 Ω, line 1 is held low through 50 Ω, and both far ends see
/// 10 fF and, if given, a load resistor to ground (a DC path through the
/// inductors).
fn coupled_pair(drive: Waveform, r_load: Option<f64>) -> Circuit {
    const SEGMENTS: usize = 8;
    let mut c = Circuit::new();
    let mut inductors = [Vec::new(), Vec::new()];
    let mut prev = [Circuit::GROUND; 2];
    for (line, ind) in inductors.iter_mut().enumerate() {
        let src = c.node(&format!("src{line}"));
        let near = c.node(&format!("n{line}_0"));
        let wave = if line == 0 {
            drive.clone()
        } else {
            Waveform::dc(0.0)
        };
        c.add_vsource(&format!("V{line}"), src, Circuit::GROUND, wave)
            .unwrap();
        c.add_resistor(&format!("Rd{line}"), src, near, 50.0)
            .unwrap();
        prev[line] = near;
        for s in 0..SEGMENTS {
            let mid = c.node(&format!("m{line}_{s}"));
            let next = c.node(&format!("n{line}_{}", s + 1));
            c.add_resistor(&format!("R{line}_{s}"), prev[line], mid, 5.0)
                .unwrap();
            ind.push(
                c.add_inductor(&format!("L{line}_{s}"), mid, next, 0.5e-9)
                    .unwrap(),
            );
            c.add_capacitor(&format!("C{line}_{s}"), next, Circuit::GROUND, 20e-15)
                .unwrap();
            prev[line] = next;
        }
        c.add_capacitor(&format!("Cl{line}"), prev[line], Circuit::GROUND, 10e-15)
            .unwrap();
        if let Some(r) = r_load {
            c.add_resistor(&format!("Rl{line}"), prev[line], Circuit::GROUND, r)
                .unwrap();
        }
    }
    let [first, second] = inductors;
    for (s, (la, lb)) in first.into_iter().zip(second).enumerate() {
        let (a, b) = (
            c.node(&format!("n0_{}", s + 1)),
            c.node(&format!("n1_{}", s + 1)),
        );
        c.add_capacitor(&format!("Cc{s}"), a, b, 10e-15).unwrap();
        c.add_mutual(&format!("K{s}"), la, lb, 0.2e-9).unwrap();
    }
    c
}

/// Every recorded sample of every node voltage, node by node.
fn node_voltages(ckt: &Circuit, res: &TransientResult) -> Vec<f64> {
    (1..ckt.node_count())
        .flat_map(|n| res.voltage(NodeId(n)).unwrap())
        .collect()
}

/// One inductor's recorded branch voltage and the terms of its flux, as
/// `(inductor, inductance)`: the self term first, then each coupling.
struct Branch {
    v: Vec<f64>,
    terms: Vec<(usize, f64)>,
}

/// Largest gap, over every step and every inductor, between the history
/// the step used and the direct product `coef·Σ L·i` of the state it
/// started from, as a share of the run's largest node voltage. `dt(n)` is
/// the size of step `n → n+1`.
fn history_drift(ckt: &Circuit, res: &TransientResult, dt: impl Fn(usize) -> f64) -> f64 {
    let volts = |n: NodeId| {
        if n.is_ground() {
            vec![0.0; res.len()]
        } else {
            res.voltage(n).unwrap()
        }
    };
    let mut branches = Vec::new();
    let mut currents = Vec::new();
    let mut index = HashMap::new();
    for (idx, e) in ckt.elements().iter().enumerate() {
        if let Element::Inductor { a, b, l, .. } = e {
            let (va, vb) = (volts(*a), volts(*b));
            index.insert(idx, branches.len());
            currents.push(res.branch_current(ElementId(idx)).unwrap());
            branches.push(Branch {
                v: va.iter().zip(&vb).map(|(x, y)| x - y).collect(),
                terms: vec![(branches.len(), *l)],
            });
        }
    }
    for e in ckt.elements() {
        if let Element::Mutual { la, lb, m, .. } = e {
            let (ka, kb) = (index[&la.0], index[&lb.0]);
            branches[ka].terms.push((kb, *m));
            branches[kb].terms.push((ka, *m));
        }
    }
    let peak = node_voltages(ckt, res)
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()));
    assert!(peak > 0.0);
    let mut worst = 0.0f64;
    for n in 0..res.len() - 1 {
        let coef = 2.0 / dt(n);
        let flux = |br: &Branch, step: usize| {
            coef * br
                .terms
                .iter()
                .map(|&(k, l)| l * currents[k][step])
                .sum::<f64>()
        };
        for br in &branches {
            let used = -br.v[n] - (br.v[n + 1] - flux(br, n + 1));
            worst = worst.max((used - flux(br, n)).abs());
        }
    }
    worst / peak
}

/// Table III's misaligned 128-bit bus as PEEC: 16,256 mutual couplings.
#[test]
fn carried_history_tracks_the_direct_product_on_the_table3_bus() {
    let built = experiment(128, 0.05).build(ModelKind::Peec).unwrap();
    let ckt = &built.model.circuit;
    let spec = TransientSpec::new(3e-9, 1e-12);
    let (res, _) = vpec::circuit::transient::run_transient_with_report(ckt, &spec).unwrap();
    assert_eq!(res.len(), 3001);
    let drift = history_drift(ckt, &res, |_| 1e-12);
    assert!(drift <= BOUND, "drift {drift:e} of peak");
}

#[test]
fn carried_history_tracks_the_direct_product_on_a_coupled_pair() {
    let ckt = coupled_pair(Waveform::step(1.0, 10e-12), None);
    let spec = TransientSpec::new(3e-9, 1e-12);
    let (res, _) = vpec::circuit::transient::run_transient_with_report(&ckt, &spec).unwrap();
    assert_eq!(res.len(), 3001);
    let drift = history_drift(&ckt, &res, |_| 1e-12);
    assert!(drift <= BOUND, "drift {drift:e} of peak");
}

/// A NaN injected into a step of the coupled pair halves the step. The
/// pair carries 10 mA through its inductors at DC, so a history left at
/// the old step size would be wrong by half its value: poisoned at the
/// first step, the run must match a clean run at the halved step, and
/// poisoned mid-run, every step must still use the direct product's
/// history at its own step size.
#[test]
fn a_halved_step_forms_the_history_afresh() {
    let drive = Waveform::Step {
        v0: 1.0,
        v1: 0.0,
        delay: 10e-12,
        rise: 10e-12,
    };
    let ckt = coupled_pair(drive, Some(10.0));
    let run = |spec: &TransientSpec| {
        vpec::circuit::transient::run_transient_with_report(&ckt, spec).unwrap()
    };
    let spec = |dt: f64, poison: Option<usize>| {
        TransientSpec::new(0.6e-9, dt).fault_injection(FaultInjection {
            poison_step: poison,
            ..FaultInjection::none()
        })
    };
    let (clean, _) = run(&spec(0.5e-12, None));
    let (retried, diag) = run(&spec(1e-12, Some(0)));
    assert_eq!((diag.retries, diag.final_dt), (1, 0.5e-12));
    assert_eq!(clean.len(), retried.len());
    let (clean, retried) = (node_voltages(&ckt, &clean), node_voltages(&ckt, &retried));
    let peak = clean.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (a, b) in clean.iter().zip(&retried) {
        assert!((a - b).abs() <= BOUND * peak, "{a} vs {b}");
    }

    let (mid, diag) = run(&spec(1e-12, Some(200)));
    assert_eq!((diag.retries, diag.steps), (1, 200 + 800));
    let drift = history_drift(&ckt, &mid, |n| if n < 200 { 1e-12 } else { 0.5e-12 });
    assert!(drift <= BOUND, "drift {drift:e} of peak");
}

/// The 256-bit PEEC and full-VPEC transient factors end in a dense block
/// that holds at least 80 % and 20 % of their L and U (85.5 % and 21.3 %
/// measured), and solving with it is bit-identical to walking every
/// column's indices.
#[test]
fn dense_tail_of_the_256_bit_factors_is_swept_bit_identically() {
    let exp = experiment(256, 0.0);
    for (kind, share) in [(ModelKind::Peec, 0.8), (ModelKind::VpecFull, 0.2)] {
        let built = exp.build(kind).unwrap();
        let factor = built
            .prepare_transient(&TransientSpec::new(0.5e-9, 1e-12))
            .unwrap();
        let lu = SparseLu::new_fill_reducing(&factor.matrix().to_csr()).unwrap();
        assert_eq!(lu.factor_nnz(), factor.factor_diagnostics().factor_nnz);
        let covered = lu.dense_tail_nnz() as f64 / lu.factor_nnz() as f64;
        assert!(covered >= share, "{kind:?}: tail holds {covered:.3}");
        let n = lu.dim();
        let mut one_hot = vec![0.0; n];
        one_hot[n / 3] = 1.0;
        for b in [
            (0..n)
                .map(|i| ((i as f64) * 0.37).sin())
                .collect::<Vec<_>>(),
            one_hot,
        ] {
            let (x, reference) = (lu.solve(&b).unwrap(), lu.solve_indexed(&b).unwrap());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x), bits(&reference), "{kind:?}");
        }
    }
}

/// The factor of `a` and the row-indexed reference's, which must agree
/// bit for bit.
fn factor_against_reference<T: Scalar>(what: &str, a: &CsrMatrix<T>) -> SparseLu<T> {
    let lu = SparseLu::new_fill_reducing(a).unwrap();
    let ordering = FillOrdering::of(a).unwrap();
    let reference = SparseLu::with_ordering_indexed(a, &ordering).unwrap();
    assert_eq!(lu.first_difference(&reference), None, "{what}");
    lu
}

/// The dense trailing block's width, from its `m² + m` entries.
fn tail_width<T: Scalar>(lu: &SparseLu<T>) -> usize {
    let entries = lu.dense_tail_nnz();
    (0..=lu.dim()).find(|m| m * m + m == entries).unwrap()
}

/// The block kernel eliminates the 256-bit PEEC and full-VPEC transient
/// and DC factors from the first column of their dense trailing blocks
/// (full VPEC's transient factor from two columns before it, as the AC
/// factor below), and gives the row-indexed factor bit for bit. The
/// transient factors keep the sizes and blocks DESIGN §8.6 and §8.8
/// record.
#[test]
fn block_kernel_factors_the_256_bit_systems_bit_identically() {
    let exp = experiment(256, 0.0);
    for kind in [ModelKind::Peec, ModelKind::VpecFull] {
        let built = exp.build(kind).unwrap();
        let factor = built
            .prepare_transient(&TransientSpec::new(0.5e-9, 1e-12))
            .unwrap();
        let transient =
            factor_against_reference(&format!("{kind:?} transient"), &factor.matrix().to_csr());
        let (nnz, width) = (transient.factor_nnz(), tail_width(&transient));
        let block = transient.dense_block();
        match kind {
            ModelKind::Peec => assert_eq!((nnz, width, block), (77_591, 257, 257)),
            _ => assert_eq!((nnz, width, block), (83_744, 133, 135)),
        }
        let dc = factor_against_reference(
            &format!("{kind:?} dc"),
            &dc_matrix(&built.model.circuit).unwrap().to_csr(),
        );
        // The kernel leaves blocks under 32 columns (PEEC's DC tail of 2)
        // to the row-indexed update.
        let width = tail_width(&dc);
        let eliminated = if width >= 32 { width } else { 0 };
        assert_eq!(dc.dense_block(), eliminated, "{kind:?} dc");
    }
}

/// The full-VPEC AC factor of the 28 × 8 bus at 1 GHz, a complex system
/// that ends in a dense block of over 100 columns, equals the row-indexed
/// factor bit for bit.
#[test]
fn block_kernel_factors_the_full_vpec_ac_system_bit_identically() {
    let exp = Experiment::new(
        BusSpec::new(28).segments(8).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    );
    let built = exp.build(ModelKind::VpecFull).unwrap();
    let a = ac_matrix(&built.model.circuit, 1e9).unwrap().to_csr();
    let lu = factor_against_reference("full VPEC ac", &a);
    let width = tail_width(&lu);
    assert!(width > 100, "block of {width}");
    assert!(lu.dense_block() >= width, "{} < {width}", lu.dense_block());
}
