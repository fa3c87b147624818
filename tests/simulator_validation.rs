//! Cross-crate validation of the circuit engine on analytically solvable
//! interconnect structures, driven through the facade.

use vpec::circuit::dc::solve_dc;
use vpec::prelude::*;

/// A single RC-loaded line driven by a step settles to the source value;
/// its Elmore-style delay scales with the line length.
#[test]
fn single_line_settles_and_delay_scales() {
    let mut delays = Vec::new();
    for len_um in [500.0, 2000.0] {
        let exp = Experiment::new(
            BusSpec::new(1).line_length(um(len_um)).build(),
            &ExtractionConfig::paper_default(),
            DriveConfig::paper_default(),
        );
        let built = exp.build(ModelKind::Peec).unwrap();
        let (res, _) = built
            .run_transient(&TransientSpec::new(1e-9, 0.5e-12))
            .unwrap();
        let w = built.far_voltage(&res, 0).unwrap();
        assert!(
            (w.last().unwrap() - 1.0).abs() < 5e-3,
            "line must settle to 1 V, got {}",
            w.last().unwrap()
        );
        delays.push(crossing_time(res.time(), &w, 0.5).expect("rises"));
    }
    assert!(
        delays[1] > delays[0],
        "longer line must be slower: {delays:?}"
    );
}

/// Energy sanity: quiet victims start and end at 0 V; the noise pulse is
/// transient only (passivity in action).
#[test]
fn victim_noise_is_transient() {
    let exp = Experiment::new(
        BusSpec::new(8).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    );
    for kind in [ModelKind::Peec, ModelKind::VpecFull] {
        let built = exp.build(kind).unwrap();
        let (res, _) = built
            .run_transient(&TransientSpec::new(1e-9, 1e-12))
            .unwrap();
        for victim in 1..8 {
            let w = built.far_voltage(&res, victim).unwrap();
            assert!(w[0].abs() < 1e-9, "victim must start quiet");
            assert!(
                w.last().unwrap().abs() < 2e-3,
                "victim must return to quiet, got {}",
                w.last().unwrap()
            );
            assert!(w.iter().all(|v| v.is_finite()));
        }
    }
}

/// Transient/AC consistency: the aggressor far-end settles (transient,
/// t → ∞) to the same value as the AC response extrapolates at very low
/// frequency — both equal the resistive-divider DC limit.
#[test]
fn transient_and_ac_agree_at_dc_limit() {
    let exp = Experiment::new(
        BusSpec::new(3).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    );
    let built = exp.build(ModelKind::VpecFull).unwrap();
    let (tr, _) = built
        .run_transient(&TransientSpec::new(1e-9, 1e-12))
        .unwrap();
    let settled = *built.far_voltage(&tr, 0).unwrap().last().unwrap();
    let (ac, _) = built.run_ac(&AcSpec::points(vec![1.0])).unwrap();
    let low_freq = ac.magnitude(built.model.far_nodes[0]).unwrap()[0];
    assert!(
        (settled - low_freq).abs() < 1e-3,
        "transient settle {settled} vs 1 Hz AC {low_freq}"
    );
}

/// The DC operating point of the VPEC netlist equals the resistive-only
/// network's (the magnetic branches are shorts at DC).
#[test]
fn vpec_netlist_dc_point_is_resistive() {
    let exp = Experiment::new(
        BusSpec::new(2).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    );
    // DC source value is 0 (the step starts at 0), so everything sits at 0.
    let built = exp.build(ModelKind::VpecFull).unwrap();
    let dc = solve_dc(&built.model.circuit).unwrap();
    for &node in &built.model.far_nodes {
        assert!(dc.voltage(node).unwrap().abs() < 1e-12);
    }
}

/// The PEEC and VPEC netlists present identical resistive paths: with a DC
/// drive value the aggressor's settled level matches the Rd / (Rd + Rline
/// + ∞-load) divider — i.e. 1 V since the load is capacitive.
#[test]
fn resistive_path_equivalence() {
    let drive = DriveConfig::paper_default().stimulus(Waveform::dc(0.75));
    let exp = Experiment::new(
        BusSpec::new(2).build(),
        &ExtractionConfig::paper_default(),
        drive,
    );
    for kind in [ModelKind::Peec, ModelKind::VpecFull] {
        let built = exp.build(kind).unwrap();
        let dc = solve_dc(&built.model.circuit).unwrap();
        let v_far = dc.voltage(built.model.far_nodes[0]).unwrap();
        assert!(
            (v_far - 0.75).abs() < 1e-9,
            "{kind:?}: no DC current flows, so far end sits at source level; got {v_far}"
        );
    }
}

/// Multi-segment refinement converges: an 8-segment line's victim noise is
/// close to a 4-segment line's (discretization stability).
#[test]
fn segmentation_refinement_is_stable() {
    let noise = |segs: usize| -> f64 {
        let exp = Experiment::new(
            BusSpec::new(2).segments(segs).build(),
            &ExtractionConfig::paper_default(),
            DriveConfig::paper_default(),
        );
        let built = exp.build(ModelKind::Peec).unwrap();
        let (res, _) = built
            .run_transient(&TransientSpec::new(0.5e-9, 1e-12))
            .unwrap();
        peak_abs(&built.far_voltage(&res, 1).unwrap())
    };
    let n4 = noise(4);
    let n8 = noise(8);
    assert!(
        (n4 - n8).abs() < 0.25 * n4.max(n8),
        "refinement must be stable: {n4} vs {n8}"
    );
}

use vpec::circuit::metrics::peak_abs;
