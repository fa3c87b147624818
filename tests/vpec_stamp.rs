//! The VPEC stamp: one branch current `Iᵢ` and one vector potential `Aᵢ`
//! per filament (DESIGN.md §8.6).
//!
//! * Full VPEC is an exact reformulation of PEEC (`D·Ĝ⁻¹·D = L`), so its
//!   transient must match PEEC's to within rounding: 1e-12 of the victim's
//!   peak on the Fig. 8 and Table III buses (measured 1.1e-13). The Fig. 1
//!   realization the engine simulated before missed by 1.1e-11–1.3e-11.
//! * The stamp equals the paper's Fig. 1 realization: the `to_spice` deck,
//!   parsed back, simulates to the same waveforms within
//!   [`DECK_BOUND`].
//! * The DC point is nonsingular and equals PEEC's (within 1e-12 V of a
//!   1 V drive; measured 2.2e-16 V), and an AC sweep matches PEEC's |H|
//!   within 1e-12 of the victim's peak (measured 1.2e-13).
//! * The native transient matrix is better conditioned than Fig. 1's: its
//!   κ₁ is at least 10⁶ below the deck's (measured 1.1e14 against 2.3e23
//!   at 32 bits).

use vpec::circuit::dc::solve_dc_report;
use vpec::circuit::spice_in::from_spice;
use vpec::circuit::spice_out::to_spice;
use vpec::circuit::transient::{prepare_transient, run_transient};
use vpec::circuit::Element;
use vpec::numerics::probe::condition_estimate;
use vpec::prelude::*;

/// Largest admitted gap between full VPEC and PEEC, as a share of the
/// victim's peak.
const FULL_VS_PEEC: f64 = 1e-12;

/// Largest admitted gap between a model and its Fig. 1 deck parsed back,
/// as a share of the victim's peak. The deck writes every value to seven
/// significant digits, a relative rounding of up to 5e-7 per value;
/// measured 2.2e-7 at 32 bits.
const DECK_BOUND: f64 = 1e-6;

fn experiment(bits: usize, segments: usize, misalign: f64, drive: DriveConfig) -> Experiment {
    Experiment::new(
        BusSpec::new(bits)
            .segments(segments)
            .misalignment(misalign)
            .build(),
        &ExtractionConfig::paper_default(),
        drive,
    )
}

fn peak(w: &[f64]) -> f64 {
    w.iter().fold(0.0, |m, v| m.max(v.abs()))
}

fn max_gap(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |m, (x, y)| m.max((x - y).abs()))
}

/// Aggressor and victim far ends over 0.5 ns at 1 ps steps.
fn far_ends(built: &BuiltModel) -> [Vec<f64>; 2] {
    let probes = [0, 1].map(|k| built.model.far_nodes[k]);
    let spec = TransientSpec::new(0.5e-9, 1e-12).probes(probes.to_vec());
    let (res, _) = built.run_transient(&spec).unwrap();
    [0, 1].map(|k| built.far_voltage(&res, k).unwrap())
}

#[test]
fn full_vpec_matches_peec_to_rounding_on_the_workload_buses() {
    for (bits, misalign) in [(256, 0.0), (128, 0.05)] {
        let exp = experiment(bits, 1, misalign, DriveConfig::paper_default());
        let peec = far_ends(&exp.build(ModelKind::Peec).unwrap());
        let full = far_ends(&exp.build(ModelKind::VpecFull).unwrap());
        let scale = peak(&peec[1]);
        for k in 0..2 {
            let gap = max_gap(&peec[k], &full[k]) / scale;
            assert!(
                gap <= FULL_VS_PEEC,
                "{bits} bits, probe {k}: {gap:e} of the victim peak"
            );
        }
    }
}

#[test]
fn native_stamp_matches_the_fig1_deck() {
    let exp = experiment(32, 1, 0.0, DriveConfig::paper_default());
    for kind in [ModelKind::VpecFull, ModelKind::WVpecGeometric { b: 8 }] {
        let built = exp.build(kind).unwrap();
        let native = &built.model.circuit;
        let mut deck = from_spice(&to_spice(native, &kind.label())).unwrap();
        let count = |f: fn(&Element) -> bool| deck.elements().iter().filter(|e| f(e)).count();
        assert_eq!(count(|e| matches!(e, Element::MagneticBranch { .. })), 0);
        assert_eq!(count(|e| matches!(e, Element::Inductor { .. })), 32);
        assert_eq!(count(|e| matches!(e, Element::Vcvs { .. })), 32);
        assert_eq!(count(|e| matches!(e, Element::Vccs { .. })), 32);
        assert_eq!(deck.mna_dim(), native.mna_dim() + 4 * 32);

        let spec = TransientSpec::new(0.5e-9, 1e-12);
        let (rn, rd) = (
            run_transient(native, &spec).unwrap(),
            run_transient(&deck, &spec).unwrap(),
        );
        let waves: Vec<[Vec<f64>; 2]> = [0, 1]
            .map(|k| {
                let far = built.model.far_nodes[k];
                let in_deck = deck.node(native.node_name(far));
                [rn.voltage(far).unwrap(), rd.voltage(in_deck).unwrap()]
            })
            .into();
        let scale = peak(&waves[1][0]);
        for (k, [n, d]) in waves.iter().enumerate() {
            let gap = max_gap(n, d) / scale;
            assert!(gap <= DECK_BOUND, "{kind:?} probe {k}: {gap:e} of peak");
        }
    }
}

#[test]
fn dc_point_is_nonsingular_and_equals_peec() {
    // A 1 V DC aggressor into a 50 Ω far-end load, so DC current flows
    // through every filament of net 0 and every vector potential is set.
    let drive = DriveConfig::paper_default().stimulus(Waveform::dc(1.0));
    let exp = experiment(16, 2, 0.0, drive);
    let dc = |kind: ModelKind| {
        let mut built = exp.build(kind).unwrap();
        let far = built.model.far_nodes[0];
        let ckt = &mut built.model.circuit;
        ckt.add_resistor("load", far, Circuit::GROUND, 50.0)
            .unwrap();
        // The one sparse factor accepts it: the DC point is nonsingular.
        let (sol, _) = solve_dc_report(ckt).unwrap();
        (built, sol)
    };
    let (peec, peec_dc) = dc(ModelKind::Peec);
    let nodes = peec.model.circuit.node_count();
    let far = peec_dc.voltage(peec.model.far_nodes[0]).unwrap();
    assert!(far > 0.2, "aggressor far end at {far} V");
    for kind in [
        ModelKind::VpecFull,
        ModelKind::TVpecNumerical { threshold: 3e-2 },
        ModelKind::WVpecGeometric { b: 8 },
    ] {
        let (vpec, sol) = dc(kind);
        // The electrical nodes come first and in the same order in both.
        for id in 1..nodes {
            let node = NodeId(id);
            assert_eq!(
                vpec.model.circuit.node_name(node),
                peec.model.circuit.node_name(node)
            );
            let gap = (sol.voltage(node).unwrap() - peec_dc.voltage(node).unwrap()).abs();
            assert!(gap <= 1e-12, "{kind:?} node {id}: {gap:e} V");
        }
        let potentials = vpec.model.circuit.node_count() - nodes;
        assert_eq!(potentials, 32, "{kind:?}: one magnetic node per filament");
        let set = (nodes..vpec.model.circuit.node_count())
            .filter(|&id| sol.voltage(NodeId(id)) != Ok(0.0))
            .count();
        assert_eq!(set, potentials, "{kind:?}: every vector potential is set");
    }
}

#[test]
fn ac_sweep_of_full_vpec_matches_peec_on_the_28_by_8_bus() {
    let exp = experiment(28, 8, 0.0, DriveConfig::paper_default());
    let spec = AcSpec::log_sweep(1e8, 1e10, 10).unwrap();
    let magnitudes = |kind: ModelKind| {
        let built = exp.build(kind).unwrap();
        let (res, _) = built.run_ac(&spec).unwrap();
        [0, 1].map(|k| res.magnitude(built.model.far_nodes[k]).unwrap())
    };
    let (peec, full) = (magnitudes(ModelKind::Peec), magnitudes(ModelKind::VpecFull));
    let scale = peak(&peec[1]);
    for k in 0..2 {
        let gap = max_gap(&peec[k], &full[k]) / scale;
        assert!(
            gap <= FULL_VS_PEEC,
            "probe {k}: {gap:e} of the victim's peak |H|"
        );
    }
}

#[test]
fn native_transient_matrix_is_better_conditioned_than_fig1() {
    let exp = experiment(32, 1, 0.0, DriveConfig::paper_default());
    let built = exp.build(ModelKind::VpecFull).unwrap();
    let native = &built.model.circuit;
    let deck = from_spice(&to_spice(native, "full VPEC")).unwrap();
    let spec = TransientSpec::new(0.5e-9, 1e-12);
    let kappa = |ckt: &Circuit| {
        let a = prepare_transient(ckt, &spec).unwrap().matrix().to_csr();
        condition_estimate(&a.to_dense())
    };
    let (k_native, k_deck) = (kappa(native), kappa(&deck));
    assert!(
        k_native.is_finite() && k_native * 1e6 <= k_deck,
        "κ₁ native {k_native:e} against Fig. 1 {k_deck:e}"
    );
}
