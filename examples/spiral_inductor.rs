//! The three-turn spiral inductor on a lossy substrate (Figs. 6–7).
//!
//! Builds the paper's 92-segment spiral, extracts RLCM parasitics with the
//! substrate eddy-loss lumping, applies numerical windowing (nwVPEC), and
//! compares the output-port pulse response of the PEEC, full VPEC and
//! nwVPEC models.
//!
//! Run with: `cargo run --release --example spiral_inductor`

use vpec::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = SpiralSpec::paper_three_turn();
    let layout = spec.build();
    println!(
        "spiral: {} segments over {} turns, total length {:.0} µm",
        layout.filaments().len(),
        3,
        layout.total_length() * 1e6
    );

    let cfg = ExtractionConfig::paper_default()
        .with_substrate(spec.substrate_spec().expect("paper spiral has a substrate"));
    let drive =
        DriveConfig::paper_default().stimulus(Waveform::pulse(1.0, 10e-12, 200e-12, 10e-12));
    let exp = Experiment::new(layout, &cfg, drive);

    // Antiparallel sides couple negatively — count the signs.
    let l = exp.parasitics.inductance();
    let (mut pos, mut neg) = (0usize, 0usize);
    for i in 0..l.rows() {
        for j in 0..i {
            if l[(i, j)] > 0.0 {
                pos += 1;
            } else if l[(i, j)] < 0.0 {
                neg += 1;
            }
        }
    }
    println!("mutual terms: {pos} positive (parallel), {neg} negative (antiparallel)");

    let tspec = TransientSpec::new(0.6e-9, 0.5e-12);
    let peec = exp.build(ModelKind::Peec)?;
    let (rp, sp) = peec.run_transient(&tspec)?;
    let wp = peec.far_voltage(&rp, 0)?;

    for kind in [
        ModelKind::VpecFull,
        ModelKind::WVpecNumerical { threshold: 1.5e-4 },
        ModelKind::WVpecNumerical { threshold: 5e-2 },
    ] {
        let built = exp.build(kind)?;
        let (r, secs) = built.run_transient(&tspec)?;
        let d = WaveformDiff::compare(&wp, &built.far_voltage(&r, 0)?);
        println!(
            "{:<16} sparse factor {:>5.1}% | sim {:>5.0} ms (PEEC {:.0} ms) | avg err {:.3}% of peak",
            built.kind.label(),
            100.0 * built.sparse_factor.unwrap_or(1.0),
            secs * 1e3,
            sp * 1e3,
            d.avg_pct_of_peak()
        );
    }

    // A few output samples for the curious.
    println!("\noutput-port pulse response (PEEC):");
    let n = wp.len();
    for k in (0..n).step_by(n / 10) {
        println!("  t = {:5.0} ps  v = {:+8.4} V", rp.time()[k] * 1e12, wp[k]);
    }
    Ok(())
}
