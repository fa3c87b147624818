//! **EXP-F4 (Fig. 4)** — model *extraction* time: truncation (full
//! inversion) vs windowing, buses of 8…2048 bits, one segment per line.
//!
//! gtVPEC with (N_W, N_L) = (8, 1) requires the full `O(N³)` inversion
//! before truncating; gwVPEC with b = 8 solves N windows of size 8
//! (`O(N·b³)`). The paper reports comparable times below ~128 bits and a
//! 90× windowing advantage at 2048 bits (8.6 s vs 543.1 s on their
//! hardware).

use crate::report::{secs, speedup, Table};
use std::time::Instant;
use vpec_core::harness::{Experiment, ModelKind};
use vpec_core::DriveConfig;
use vpec_extract::ExtractionConfig;
use vpec_geometry::BusSpec;

/// Outcome of the extraction-time scaling sweep.
#[derive(Debug, Clone)]
pub struct Fig4Outcome {
    /// `(bits, truncation_seconds, windowing_seconds)`.
    pub rows: Vec<(usize, f64, f64)>,
    /// Rendered report.
    pub report: String,
}

/// Runs the sweep over the given bus sizes.
///
/// # Panics
///
/// Panics if a model fails to build.
pub fn run(sizes: &[usize]) -> Fig4Outcome {
    let mut rows = Vec::new();
    let mut t = Table::new(&[
        "bits",
        "gtVPEC(8,1) extract",
        "gwVPEC(b=8) extract",
        "windowing speedup",
    ]);
    for &bits in sizes {
        let exp = Experiment::new(
            BusSpec::new(bits).build(),
            &ExtractionConfig::paper_default(),
            DriveConfig::paper_default(),
        );
        // Time only the VPEC model construction (inversion / windowing),
        // which is what Fig. 4 plots.
        let t0 = Instant::now();
        let _trunc = exp
            .vpec_model(ModelKind::TVpecGeometric { nw: 8, nl: 1 })
            .expect("gtVPEC");
        let trunc_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let _win = exp
            .vpec_model(ModelKind::WVpecGeometric { b: 8 })
            .expect("gwVPEC");
        let win_secs = t1.elapsed().as_secs_f64();
        rows.push((bits, trunc_secs, win_secs));
        t.row(&[
            bits.to_string(),
            secs(trunc_secs),
            secs(win_secs),
            speedup(trunc_secs, win_secs),
        ]);
    }
    let mut report =
        String::from("== Fig. 4: extraction time, truncation (full inversion) vs windowing ==\n\n");
    report.push_str(&t.render());
    report.push_str("\npaper: comparable below ~128 bits; windowing ~90x faster at 2048 bits\n");
    Fig4Outcome { rows, report }
}

/// The paper's sweep: powers of two from 8 to `max_bits` (2048 reproduces
/// the figure; smaller caps keep the run quick).
pub fn run_paper(max_bits: usize) -> Fig4Outcome {
    let sizes: Vec<usize> = (3..=11)
        .map(|k| 1usize << k)
        .filter(|&b| b <= max_bits)
        .collect();
    run(&sizes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowing_wins_at_scale() {
        // 256 bits gives a ~17x gap — far beyond scheduling noise.
        let out = run(&[16, 256]);
        assert_eq!(out.rows.len(), 2);
        let (_, trunc_big, win_big) = out.rows[1];
        assert!(
            win_big < trunc_big,
            "windowing must beat full inversion at 256 bits: {win_big} vs {trunc_big}"
        );
        assert!(out.report.contains("Fig. 4"));
    }

    #[test]
    fn speedup_grows_with_size() {
        let out = run(&[32, 256]);
        let s_small = out.rows[0].1 / out.rows[0].2.max(1e-12);
        let s_big = out.rows[1].1 / out.rows[1].2.max(1e-12);
        assert!(
            s_big > s_small,
            "windowing advantage must grow: {s_small} -> {s_big}"
        );
    }
}
