//! Quickstart: the paper's 5-bit bus end to end.
//!
//! Builds the PEEC baseline and the full VPEC model for the same 5-bit
//! aligned bus, runs the 1 V / 10 ps-rise crosstalk transient, and shows
//! that the two models produce the same waveforms while VPEC replaces all
//! 10 mutual inductances with a resistive magnetic circuit.
//!
//! Run with: `cargo run --release --example quickstart`

use vpec::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Geometry: 5 lines, 1000 µm × 1 µm × 1 µm, 2 µm spacing (paper §II-C).
    let layout = BusSpec::new(5).build();
    println!(
        "bus: {} nets, {} filaments, total wire length {:.1} mm",
        layout.nets().len(),
        layout.filaments().len(),
        layout.total_length() * 1e3
    );

    // 2. Extraction (copper, low-k, 10 GHz) + drive (Rd 120 Ω, CL 10 fF).
    let exp = Experiment::new(
        layout,
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    );
    println!(
        "extracted: L[0][0] = {:.3} nH, adjacent M = {:.3} nH, R = {:.1} Ω per line",
        exp.parasitics.inductance()[(0, 0)] * 1e9,
        exp.parasitics.inductance()[(0, 1)] * 1e9,
        exp.parasitics.resistance[0]
    );

    // 3. The VPEC model and its passivity certificate (Theorems 1–2).
    let (model, secs) = exp.vpec_model(ModelKind::VpecFull)?;
    let report = model.passivity_report();
    println!(
        "full VPEC built in {:.2} ms: passive = {}, strictly diagonally dominant = {}",
        secs * 1e3,
        report.is_passive(),
        report.strictly_diag_dominant
    );
    println!(
        "effective resistances: R^10 (ground) = {:.3} mΩ, R^12 (coupling) = {:.3} mΩ",
        1e3 / model.ground_conductances()[0],
        model
            .coupling_resistance(0, 1)
            .expect("full model keeps all couplings")
            * 1e3
    );

    // 4. Simulate PEEC vs full VPEC and compare the victim waveform.
    let peec = exp.build(ModelKind::Peec)?;
    let vpec = exp.build(ModelKind::VpecFull)?;
    let spec = TransientSpec::new(0.5e-9, 0.5e-12);
    let (rp, t_peec) = peec.run_transient(&spec)?;
    let (rv, t_vpec) = vpec.run_transient(&spec)?;
    let victim = 1; // far end of the second bit, the paper's probe
    let diff = WaveformDiff::compare(
        &peec.far_voltage(&rp, victim)?,
        &vpec.far_voltage(&rv, victim)?,
    );
    println!(
        "victim noise peak {:.1} mV | VPEC-vs-PEEC max diff {:.4}% of peak",
        diff.ref_peak * 1e3,
        diff.max_pct_of_peak()
    );
    println!(
        "sim times: PEEC {:.1} ms, full VPEC {:.1} ms | reactive elements: PEEC {}, VPEC {}",
        t_peec * 1e3,
        t_vpec * 1e3,
        peec.model.circuit.reactive_count(),
        vpec.model.circuit.reactive_count()
    );
    Ok(())
}
