//! **EXP-F2 (Fig. 2)** — 5-bit aligned bus accuracy comparison.
//!
//! A 1 V step with 10 ps rise time drives bit 1; all other bits are quiet.
//! The far-end response of bit 2 is compared across the PEEC model, the
//! full VPEC model, and the localized VPEC model, in both time domain
//! (Fig. 2a) and frequency domain, 1 Hz–10 GHz (Fig. 2b).
//!
//! Paper findings to reproduce: full VPEC and PEEC give *identical*
//! waveforms; the localized model shows ~15 % time-domain waveform
//! difference and a large frequency-domain deviation beyond ~5 GHz.

use crate::report::{pct, Table};
use vpec_circuit::ac::AcSpec;
use vpec_circuit::metrics::WaveformDiff;
use vpec_circuit::TransientSpec;
use vpec_core::harness::{Experiment, ModelKind};
use vpec_core::DriveConfig;
use vpec_extract::ExtractionConfig;
use vpec_geometry::BusSpec;

/// Per-model accuracy numbers extracted by the experiment.
#[derive(Debug, Clone)]
pub struct Fig2Outcome {
    /// Time-domain max waveform difference vs PEEC, % of PEEC peak, for
    /// (full VPEC, localized VPEC) at the victim far end.
    pub td_max_pct: (f64, f64),
    /// Frequency-domain max relative magnitude deviation vs PEEC for
    /// (full VPEC, localized VPEC).
    pub fd_max_rel: (f64, f64),
    /// Rendered report.
    pub report: String,
}

/// Runs the Fig. 2 experiment.
///
/// # Panics
///
/// Panics if any model fails to build or simulate (the 5-bit bus is well
/// within every code path's domain).
pub fn run() -> Fig2Outcome {
    let exp = Experiment::new(
        BusSpec::new(5).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    );
    let victim = 1; // second bit, far end — the paper's probe

    let peec = exp.build(ModelKind::Peec).expect("PEEC build");
    let full = exp.build(ModelKind::VpecFull).expect("full VPEC build");
    let local = exp
        .build(ModelKind::VpecLocalized)
        .expect("localized VPEC build");

    // ---- Time domain ----
    let tspec = TransientSpec::new(0.5e-9, 0.5e-12);
    let (rp, t_peec) = peec.run_transient(&tspec).expect("PEEC transient");
    let (rf, t_full) = full.run_transient(&tspec).expect("full VPEC transient");
    let (rl, t_local) = local.run_transient(&tspec).expect("localized transient");
    let wp = peec.far_voltage(&rp, victim).unwrap();
    let wf = full.far_voltage(&rf, victim).unwrap();
    let wl = local.far_voltage(&rl, victim).unwrap();
    let d_full = WaveformDiff::compare(&wp, &wf);
    let d_local = WaveformDiff::compare(&wp, &wl);

    // ---- Frequency domain: 1 Hz – 10 GHz ----
    let aspec = AcSpec::log_sweep(1.0, 10e9, 8).expect("valid sweep");
    let (ap, _) = peec.run_ac(&aspec).expect("PEEC AC");
    let (af, _) = full.run_ac(&aspec).expect("full VPEC AC");
    let (al, _) = local.run_ac(&aspec).expect("localized AC");
    let mp = ap.magnitude(peec.model.far_nodes[victim]).unwrap();
    let mf = af.magnitude(full.model.far_nodes[victim]).unwrap();
    let ml = al.magnitude(local.model.far_nodes[victim]).unwrap();
    let rel_dev = |reference: &[f64], cand: &[f64]| -> f64 {
        let peak = reference.iter().cloned().fold(0.0f64, f64::max).max(1e-30);
        reference
            .iter()
            .zip(cand.iter())
            .map(|(a, b)| (a - b).abs() / peak)
            .fold(0.0, f64::max)
    };
    let fd_full = rel_dev(&mp, &mf);
    let fd_local = rel_dev(&mp, &ml);

    // High-frequency-only deviation (≥ 3 GHz), where the paper sees the
    // localized model diverge.
    let hi: Vec<usize> = aspec
        .frequencies
        .iter()
        .enumerate()
        .filter(|(_, &f)| f >= 3e9)
        .map(|(i, _)| i)
        .collect();
    let pick = |v: &[f64]| -> Vec<f64> { hi.iter().map(|&i| v[i]).collect() };
    let fd_local_hi = rel_dev(&pick(&mp), &pick(&ml));

    let mut report = String::from(
        "== Fig. 2: 5-bit bus, far end of bit 2; PEEC vs full VPEC vs localized VPEC ==\n\n",
    );
    let mut t = Table::new(&[
        "model",
        "TD avg |dV| (% peak)",
        "TD max |dV| (% peak)",
        "FD max rel dev",
        "sim time",
    ]);
    t.row(&[
        "PEEC (reference)".into(),
        "0".into(),
        "0".into(),
        "0".into(),
        crate::report::secs(t_peec),
    ]);
    t.row(&[
        "full VPEC".into(),
        format!("{:.3}%", d_full.avg_pct_of_peak()),
        format!("{:.3}%", d_full.max_pct_of_peak()),
        pct(fd_full),
        crate::report::secs(t_full),
    ]);
    t.row(&[
        "localized VPEC".into(),
        format!("{:.3}%", d_local.avg_pct_of_peak()),
        format!("{:.3}%", d_local.max_pct_of_peak()),
        pct(fd_local),
        crate::report::secs(t_local),
    ]);
    report.push_str(&t.render());
    report.push_str(&format!(
        "\nlocalized VPEC deviation at/above 3 GHz: {}\n",
        pct(fd_local_hi)
    ));
    report.push_str(
        "paper: full VPEC identical to PEEC; localized ~15% TD difference, \
         large FD deviation beyond 5 GHz\n",
    );

    // A compact waveform excerpt (16 samples) for visual comparison.
    report.push_str("\nvictim far-end waveform samples (V):\n");
    let mut wt = Table::new(&["t (ps)", "PEEC", "full VPEC", "localized"]);
    let n = wp.len();
    for k in (0..n).step_by((n / 16).max(1)) {
        wt.row(&[
            format!("{:.0}", rp.time()[k] * 1e12),
            format!("{:+.5}", wp[k]),
            format!("{:+.5}", wf[k]),
            format!("{:+.5}", wl[k]),
        ]);
    }
    report.push_str(&wt.render());

    Fig2Outcome {
        td_max_pct: (d_full.max_pct_of_peak(), d_local.max_pct_of_peak()),
        fd_max_rel: (fd_full, fd_local),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_vpec_identical_localized_worse() {
        let out = run();
        let (full_td, local_td) = out.td_max_pct;
        assert!(full_td < 1.0, "full VPEC must track PEEC: {full_td}%");
        assert!(
            local_td > 2.0 * full_td,
            "localized must be clearly worse: {local_td}% vs {full_td}%"
        );
        let (full_fd, local_fd) = out.fd_max_rel;
        assert!(full_fd < 0.02, "full VPEC FD must track PEEC: {full_fd}");
        assert!(local_fd > full_fd, "localized FD must deviate more");
        assert!(out.report.contains("Fig. 2"));
    }
}
