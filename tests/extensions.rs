//! Facade-level integration tests of the extension subsystems: every
//! extension must be reachable and consistent through the public `vpec`
//! crate, not only within its home crate.

use vpec::circuit::mor::reduce_about;
use vpec::circuit::spice_in::from_spice;
use vpec::circuit::spice_out::to_spice;
use vpec::circuit::Element;
use vpec::core::baselines::{return_limited, shift_truncate};
use vpec::core::kelement::KNodalModel;
use vpec::core::noise::noise_scan;
use vpec::extract::volume::try_decompose;
use vpec::extract::{CapTable, ConductorSystem};
use vpec::prelude::*;

fn experiment(bits: usize) -> Experiment {
    Experiment::new(
        BusSpec::new(bits).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    )
}

/// MOR of the PEEC netlist reproduces the victim waveform through the
/// facade.
#[test]
fn mor_macromodel_tracks_victim() {
    let exp = experiment(12);
    let built = exp.build(ModelKind::Peec).unwrap();
    let ckt = &built.model.circuit;
    let src = ckt
        .elements()
        .iter()
        .position(|e| matches!(e, Element::VSource { name, .. } if name.starts_with("drv")))
        .map(vpec::circuit::ElementId)
        .unwrap();
    let victim = built.model.far_nodes[1];
    let rom = reduce_about(ckt, src, &[victim], 16, 2.0 * std::f64::consts::PI * 3e9).unwrap();
    let (t_rom, y) = rom.transient(0.4e-9, 1e-12).unwrap();
    let (full, _) = built
        .run_transient(&TransientSpec::new(0.4e-9, 1e-12))
        .unwrap();
    let v_rom = resample(&t_rom, &y[0], full.time());
    let d = WaveformDiff::compare(&full.voltage(victim).unwrap(), &v_rom);
    assert!(
        d.max_pct_of_peak() < 10.0,
        "ROM error {}%",
        d.max_pct_of_peak()
    );
}

/// The K-element nodal solver matches MNA at GHz through the facade.
#[test]
fn kelement_matches_at_high_frequency() {
    let exp = experiment(3);
    let (model, _) = exp.vpec_model(ModelKind::VpecFull).unwrap();
    let k = KNodalModel::build(&exp.layout, &exp.parasitics, &model, &exp.drive).unwrap();
    let built = exp.build(ModelKind::Peec).unwrap();
    let (ac, _) = built.run_ac(&AcSpec::points(vec![2e9])).unwrap();
    let reference = ac.magnitude(built.model.far_nodes[1]).unwrap()[0];
    let x = k.solve_ac(2e9).unwrap();
    let knodal = x[k.far_node(1)].abs();
    assert!((reference - knodal).abs() < 0.02 * reference.max(1e-3));
}

/// Baselines and noise scans compose: shift-truncated parasitics still
/// drive a noise scan; return-limited needs shields.
#[test]
fn baselines_compose_with_noise_scan() {
    let exp = experiment(8);
    let spec = TransientSpec::new(0.3e-9, 1e-12);
    let report = noise_scan(&exp, ModelKind::ShiftTruncated { r0: um(10.0) }, &spec).unwrap();
    assert_eq!(report.victims.len(), 7);
    assert!(report.worst().unwrap().peak > 1e-3);

    // Shift truncation itself is reachable and sparsifies.
    let st = shift_truncate(&exp.parasitics, &exp.layout, um(10.0)).unwrap();
    assert!(
        vpec::core::baselines::inductance_nnz(&st)
            < vpec::core::baselines::inductance_nnz(&exp.parasitics)
    );

    // Return-limited on a shielded variant.
    let shielded = BusSpec::new(4).shield_every(2).build();
    let para = extract(&shielded, &ExtractionConfig::paper_default());
    let drive = DriveConfig::paper_default().aggressors(vec![shielded.signal_nets()[0]]);
    let (mc, signals) = return_limited(&shielded, &para, &drive).unwrap();
    assert_eq!(signals.len(), 4);
    assert!(mc.circuit.element_count() > 0);
}

/// Volume filaments + impedance solve through the facade: skin effect on
/// a fat wire.
#[test]
fn volume_impedance_facade() {
    let wire = vpec::geometry::Filament::new(
        [0.0; 3],
        vpec::geometry::Axis::X,
        um(500.0),
        um(6.0),
        um(3.0),
    );
    let sys = ConductorSystem::new(&[try_decompose(&wire, 6, 3).unwrap()], 1.7e-8);
    let (r_lo, l_lo) = sys.effective_rl(0, 1e6).unwrap();
    let (r_hi, l_hi) = sys.effective_rl(0, 2e10).unwrap();
    assert!(r_hi > 1.2 * r_lo);
    assert!(l_hi < l_lo);
}

/// The capacitance lookup table approximates the analytic extraction used
/// by the default pipeline.
#[test]
fn captable_consistent_with_pipeline() {
    let table = CapTable::paper_default();
    let exp = experiment(2);
    // Pipeline ground cap per meter vs table (1000 µm lines, 1 µm wide).
    let per_meter = exp.parasitics.cap_ground[0] / exp.parasitics.lengths[0];
    let from_table = table.ground_per_meter(um(1.0));
    assert!(
        (per_meter - from_table).abs() < 0.01 * per_meter,
        "{per_meter} vs {from_table}"
    );
    // Coupling at the paper's 2 µm spacing.
    let cc = exp.parasitics.cap_coupling[0].2 / exp.parasitics.lengths[0];
    let from_table = table.coupling_per_meter(um(1.0), um(2.0));
    assert!((cc - from_table).abs() < 0.01 * cc, "{cc} vs {from_table}");
}

/// Deck export/import of every model kind the harness can build: the
/// parsed deck renders back to the same cards (the parser places
/// current-controlled cards after the sources they sense). (A VPEC
/// circuit's magnetic branches come back as their Fig. 1 cards, so the
/// parsed circuit holds more elements than the built one.)
#[test]
fn all_model_kinds_roundtrip_through_spice() {
    let exp = experiment(4);
    for kind in [
        ModelKind::Peec,
        ModelKind::VpecFull,
        ModelKind::TVpecNumerical { threshold: 0.02 },
        ModelKind::WVpecGeometric { b: 2 },
        ModelKind::ShiftTruncated { r0: um(10.0) },
    ] {
        let built = exp.build(kind).unwrap();
        let deck = to_spice(&built.model.circuit, &kind.label());
        let back =
            from_spice(&deck).unwrap_or_else(|e| panic!("{kind:?} deck failed to parse: {e}"));
        let sorted = |d: &str| {
            let mut lines: Vec<String> = d.lines().map(str::to_string).collect();
            lines.sort();
            lines
        };
        assert_eq!(
            sorted(&to_spice(&back, &kind.label())),
            sorted(&deck),
            "{kind:?} roundtrip deck"
        );
    }
}
