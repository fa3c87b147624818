//! Integration tests for the paper's headline claims, exercised through
//! the public facade end to end (geometry → extraction → model → netlist
//! → simulation → metrics).

use vpec::prelude::*;

fn bus_experiment(bits: usize) -> Experiment {
    Experiment::new(
        BusSpec::new(bits).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    )
}

/// §II-C / Fig. 2: "the full VPEC model and the PEEC model obtain
/// identical waveforms in both frequency- and time-domain simulations".
#[test]
fn full_vpec_matches_peec_time_and_frequency_domain() {
    let exp = bus_experiment(5);
    let peec = exp.build(ModelKind::Peec).unwrap();
    let vpec = exp.build(ModelKind::VpecFull).unwrap();

    // Time domain.
    let tspec = TransientSpec::new(0.4e-9, 0.5e-12);
    let (rp, _) = peec.run_transient(&tspec).unwrap();
    let (rv, _) = vpec.run_transient(&tspec).unwrap();
    for net in 0..5 {
        let d = WaveformDiff::compare(
            &peec.far_voltage(&rp, net).unwrap(),
            &vpec.far_voltage(&rv, net).unwrap(),
        );
        assert!(
            d.max_pct_of_peak() < 0.5,
            "net {net}: time-domain mismatch {}%",
            d.max_pct_of_peak()
        );
    }

    // Frequency domain, 1 Hz – 10 GHz.
    let aspec = AcSpec::log_sweep(1.0, 1e10, 5).expect("valid sweep");
    let (ap, _) = peec.run_ac(&aspec).unwrap();
    let (av, _) = vpec.run_ac(&aspec).unwrap();
    let mp = ap.magnitude(peec.model.far_nodes[1]).unwrap();
    let mv = av.magnitude(vpec.model.far_nodes[1]).unwrap();
    let peak = mp.iter().cloned().fold(0.0f64, f64::max);
    for (a, b) in mp.iter().zip(mv.iter()) {
        assert!(
            (a - b).abs() < 0.01 * peak,
            "frequency-domain mismatch: {a} vs {b}"
        );
    }
}

/// Fig. 2: "the localized VPEC model introduces nonnegligible error".
#[test]
fn localized_vpec_is_visibly_wrong() {
    let exp = bus_experiment(5);
    let peec = exp.build(ModelKind::Peec).unwrap();
    let local = exp.build(ModelKind::VpecLocalized).unwrap();
    let tspec = TransientSpec::new(0.4e-9, 0.5e-12);
    let (rp, _) = peec.run_transient(&tspec).unwrap();
    let (rl, _) = local.run_transient(&tspec).unwrap();
    let d = WaveformDiff::compare(
        &peec.far_voltage(&rp, 1).unwrap(),
        &local.far_voltage(&rl, 1).unwrap(),
    );
    assert!(
        d.max_pct_of_peak() > 2.0,
        "localized model should be visibly off, got {}%",
        d.max_pct_of_peak()
    );
}

/// Theorems 1–2 + §IV: every sparsified VPEC variant stays passive.
#[test]
fn all_sparsifications_preserve_passivity() {
    let exp = bus_experiment(20);
    for kind in [
        ModelKind::VpecFull,
        ModelKind::VpecLocalized,
        ModelKind::TVpecGeometric { nw: 6, nl: 1 },
        ModelKind::TVpecNumerical { threshold: 0.02 },
        ModelKind::WVpecGeometric { b: 6 },
        ModelKind::WVpecNumerical { threshold: 1e-2 },
    ] {
        let (model, _) = exp.vpec_model(kind).unwrap();
        let rep = model.passivity_report();
        assert!(rep.is_passive(), "{kind:?} lost passivity");
        assert!(
            rep.strictly_diag_dominant,
            "{kind:?} lost diagonal dominance"
        );
    }
}

/// §V / Fig. 4: windowed extraction avoids the full inversion and is
/// faster at scale.
#[test]
fn windowed_extraction_beats_full_inversion_at_scale() {
    let exp = bus_experiment(192);
    let (_, t_full) = exp.vpec_model(ModelKind::VpecFull).unwrap();
    let (_, t_win) = exp.vpec_model(ModelKind::WVpecGeometric { b: 8 }).unwrap();
    assert!(
        t_win < t_full,
        "windowing ({t_win}s) must beat full inversion ({t_full}s) at 192 bits"
    );
}

/// §VI: the victim-noise waveform of a sparsified model stays within a
/// bounded fraction of the PEEC noise peak, and the aggressor delay
/// matches within 3 % (the paper's delay criterion).
#[test]
fn sparsified_delay_within_three_percent() {
    let exp = bus_experiment(16);
    let tspec = TransientSpec::new(0.4e-9, 0.5e-12);
    let peec = exp.build(ModelKind::Peec).unwrap();
    let (rp, _) = peec.run_transient(&tspec).unwrap();
    let agg_p = peec.far_voltage(&rp, 0).unwrap();
    let delay_p = crossing_time(rp.time(), &agg_p, 0.5).expect("aggressor rises");

    let gw = exp.build(ModelKind::WVpecGeometric { b: 8 }).unwrap();
    let (rw, _) = gw.run_transient(&tspec).unwrap();
    let agg_w = gw.far_voltage(&rw, 0).unwrap();
    let delay_w = crossing_time(rw.time(), &agg_w, 0.5).expect("aggressor rises");

    let delay_diff = (delay_w - delay_p).abs() / delay_p;
    assert!(
        delay_diff < 0.03,
        "50% delay difference {delay_diff} exceeds the paper's 3% bound"
    );
}

/// The full model's implied inductance is recovered exactly: building the
/// VPEC model and lowering it to a netlist loses no information (checked
/// through the DC path and a probe simulation elsewhere; here through
/// effective resistances).
#[test]
fn effective_resistance_identities() {
    let exp = bus_experiment(6);
    let (model, _) = exp.vpec_model(ModelKind::VpecFull).unwrap();
    for (i, ground) in model.ground_conductances().into_iter().enumerate() {
        // Ĝii = 1/R̂i0 + Σ 1/R̂ij (eq. (6)), with R̂i0 = 1/ground.
        let mut sum = ground;
        for j in 0..model.len() {
            if j != i {
                sum += 1.0 / model.coupling_resistance(i, j).expect("full model");
            }
        }
        let gii = model.g_diag()[i];
        assert!(
            (sum - gii).abs() < 1e-9 * gii.abs(),
            "eq. (6) identity violated at row {i}: {sum} vs {gii}"
        );
    }
}

/// VPEC handles shielded buses out of the box: the shields join the
/// inversion like any other conductor and the resulting model stays
/// passive; shields also visibly reduce victim noise (their raison
/// d'être).
#[test]
fn vpec_on_shielded_bus() {
    let shielded = Experiment::new(
        BusSpec::new(6).shield_every(2).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default().aggressors(vec![1]), // first signal net
    );
    let (model, _) = shielded.vpec_model(ModelKind::VpecFull).unwrap();
    assert!(model.passivity_report().is_passive());

    let tspec = TransientSpec::new(0.4e-9, 1e-12);
    let built = shielded.build(ModelKind::VpecFull).unwrap();
    let (res, _) = built.run_transient(&tspec).unwrap();
    // Victim = second signal net (original net index 2).
    let shielded_noise = peak_abs(&built.far_voltage(&res, 2).unwrap());

    let open = Experiment::new(
        BusSpec::new(6).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    );
    let built_open = open.build(ModelKind::VpecFull).unwrap();
    let (res_open, _) = built_open.run_transient(&tspec).unwrap();
    let open_noise = peak_abs(&built_open.far_voltage(&res_open, 1).unwrap());

    assert!(
        shielded_noise < open_noise,
        "shields must reduce adjacent-victim noise: {shielded_noise} vs {open_noise}"
    );
}

/// Fig. 8(b): the full VPEC netlist is the same order of size as PEEC
/// (paper: ~10 % larger), and sparsified netlists are smaller at scale.
#[test]
fn netlist_sizes_are_comparable() {
    let exp = bus_experiment(32);
    let peec = exp.build(ModelKind::Peec).unwrap().netlist_bytes();
    let full = exp.build(ModelKind::VpecFull).unwrap().netlist_bytes();
    let gw = exp
        .build(ModelKind::WVpecGeometric { b: 8 })
        .unwrap()
        .netlist_bytes();
    let ratio = full as f64 / peec as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "full VPEC vs PEEC netlist size ratio {ratio} out of range"
    );
    assert!(gw < full, "sparsified netlist must be smaller than full");
}
