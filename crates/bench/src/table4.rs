//! **EXP-F5 / EXP-T4 (Fig. 5, Table IV)** — gtVPEC vs gwVPEC accuracy at
//! equal sparsity on a 128-bit bus.
//!
//! A pulse drives bit 1; far-end responses of bit 2 (near the aggressor)
//! and bit 64 (far away) are compared against PEEC for gtVPEC with
//! (N_W, N_L) = (b, 1) and gwVPEC with window size b. The paper finds both
//! nearly exact at bit 2, but at bit 64 the truncated model shows
//! non-negligible error while the windowed model stays accurate — on
//! average wVPEC is ~2× more accurate (Table IV sweeps b = 64, 32, 16, 8).

use crate::report::{secs, volts, Table};
use vpec_circuit::metrics::{peak_abs, WaveformDiff};
use vpec_circuit::TransientSpec;
use vpec_core::harness::{Experiment, ModelKind};
use vpec_core::DriveConfig;
use vpec_extract::ExtractionConfig;
use vpec_geometry::BusSpec;

/// Outcome of the Table IV sweep.
#[derive(Debug, Clone)]
pub struct Table4Outcome {
    /// `(b, gtVPEC avg diff @far bit, gwVPEC avg diff @far bit)` in volts.
    pub rows: Vec<(usize, f64, f64)>,
    /// Near-victim diffs at the largest window `(gt, gw)` for Fig. 5's
    /// "virtually no error at the second bit".
    pub near_diffs: (f64, f64),
    /// Far-victim noise peak (volts).
    pub far_peak: f64,
    /// Rendered report.
    pub report: String,
}

/// Runs the Fig. 5 / Table IV experiment on a `bits`-line bus over window
/// sizes `bs`.
///
/// # Panics
///
/// Panics if a model fails to build or simulate.
pub fn run(bits: usize, bs: &[usize]) -> Table4Outcome {
    let exp = Experiment::new(
        BusSpec::new(bits).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    );
    let near_victim = 1;
    let far_victim = bits / 2;
    let tspec = TransientSpec::new(0.5e-9, 1e-12);

    let peec = exp.build(ModelKind::Peec).expect("PEEC build");
    let (rp, peec_secs) = peec.run_transient(&tspec).expect("PEEC transient");
    let wp_near = peec.far_voltage(&rp, near_victim).unwrap();
    let wp_far = peec.far_voltage(&rp, far_victim).unwrap();
    let far_peak = peak_abs(&wp_far);

    let mut rows = Vec::new();
    let mut near_diffs = (0.0, 0.0);
    let mut t = Table::new(&[
        "b",
        "gtVPEC avg |dV| @bit N/2",
        "gwVPEC avg |dV| @bit N/2",
        "gt % of peak",
        "gw % of peak",
        "accuracy ratio (gt/gw)",
    ]);
    for (k, &b) in bs.iter().enumerate() {
        let gt = exp
            .build(ModelKind::TVpecGeometric { nw: b, nl: 1 })
            .expect("gtVPEC build");
        let gw = exp
            .build(ModelKind::WVpecGeometric { b })
            .expect("gwVPEC build");
        let (rt, _) = gt.run_transient(&tspec).expect("gtVPEC transient");
        let (rw, _) = gw.run_transient(&tspec).expect("gwVPEC transient");
        let dt_far = WaveformDiff::compare(&wp_far, &gt.far_voltage(&rt, far_victim).unwrap());
        let dw_far = WaveformDiff::compare(&wp_far, &gw.far_voltage(&rw, far_victim).unwrap());
        if k == 0 {
            let dt_near =
                WaveformDiff::compare(&wp_near, &gt.far_voltage(&rt, near_victim).unwrap());
            let dw_near =
                WaveformDiff::compare(&wp_near, &gw.far_voltage(&rw, near_victim).unwrap());
            near_diffs = (dt_near.avg_abs, dw_near.avg_abs);
        }
        rows.push((b, dt_far.avg_abs, dw_far.avg_abs));
        let ratio = if dw_far.avg_abs > 0.0 {
            dt_far.avg_abs / dw_far.avg_abs
        } else {
            f64::INFINITY
        };
        t.row(&[
            b.to_string(),
            volts(dt_far.avg_abs),
            volts(dw_far.avg_abs),
            format!("{:.2}%", dt_far.avg_pct_of_peak()),
            format!("{:.2}%", dw_far.avg_pct_of_peak()),
            format!("{ratio:.2}"),
        ]);
    }

    let mut report = format!(
        "== Fig. 5 / Table IV: gtVPEC vs gwVPEC at equal sparsity, {bits}-bit bus ==\n\
         PEEC reference sim: {} | far victim (bit {}) noise peak {}\n\n",
        secs(peec_secs),
        far_victim,
        volts(far_peak)
    );
    report.push_str(&t.render());
    report.push_str(&format!(
        "\nnear victim (bit 2) avg diffs at largest window: gt {} | gw {}\n",
        volts(near_diffs.0),
        volts(near_diffs.1)
    ));
    report.push_str(
        "paper: both nearly exact at bit 2; at bit 64 gtVPEC shows visible error while \
         gwVPEC stays accurate (~2x better on average)\n",
    );

    Table4Outcome {
        rows,
        near_diffs,
        far_peak,
        report,
    }
}

/// The paper's setting: 128-bit bus, b ∈ {64, 32, 16, 8}.
pub fn run_paper() -> Table4Outcome {
    run(128, &[64, 32, 16, 8])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowing_beats_truncation_at_far_victim() {
        let out = run(32, &[16, 8]);
        assert_eq!(out.rows.len(), 2);
        for &(b, gt, gw) in &out.rows {
            assert!(
                gw <= gt * 1.2,
                "b={b}: gwVPEC ({gw}) should not be worse than gtVPEC ({gt})"
            );
        }
        assert!(out.report.contains("Table IV"));
    }
}
