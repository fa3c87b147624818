//! Crosstalk noise analysis of a 32-bit bus with sparsified VPEC models.
//!
//! The motivating workload of the paper: estimating far-end crosstalk
//! noise on a wide parallel bus where dense PEEC coupling makes SPICE slow.
//! This example sweeps sparsification levels (numerical tVPEC thresholds
//! and wVPEC window sizes) and prints the noise-peak estimate per victim
//! plus the accuracy/size trade-off against the PEEC reference.
//!
//! Run with: `cargo run --release --example bus_crosstalk`

use vpec::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bits = 32;
    let exp = Experiment::new(
        BusSpec::new(bits).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(), // bit 0 aggressor, rest quiet
    );
    let spec = TransientSpec::new(0.5e-9, 1e-12);

    // Reference: PEEC.
    let peec = exp.build(ModelKind::Peec)?;
    let (rp, t_peec) = peec.run_transient(&spec)?;
    println!(
        "PEEC reference ({bits}-bit bus), sim {:.0} ms",
        t_peec * 1e3
    );
    println!("\nnoise peaks along the bus (far-end |V| max):");
    for victim in [1, 2, 4, 8, 16, 31] {
        let w = peec.far_voltage(&rp, victim)?;
        println!("  bit {victim:>2}: {:7.2} mV", peak_abs(&w) * 1e3);
    }

    // Sweep sparsified models.
    println!("\nmodel                    elements   sim time   avg victim-1 err");
    let wp = peec.far_voltage(&rp, 1)?;
    for kind in [
        ModelKind::VpecFull,
        ModelKind::TVpecNumerical { threshold: 0.005 },
        ModelKind::TVpecNumerical { threshold: 0.02 },
        ModelKind::WVpecGeometric { b: 16 },
        ModelKind::WVpecGeometric { b: 8 },
    ] {
        let built = exp.build(kind)?;
        let (r, secs) = built.run_transient(&spec)?;
        let d = WaveformDiff::compare(&wp, &built.far_voltage(&r, 1)?);
        println!(
            "{:<24} {:>8}   {:>6.0} ms   {:.3}% of peak",
            kind.label(),
            built.element_count(),
            secs * 1e3,
            d.avg_pct_of_peak()
        );
    }

    println!(
        "\n(noise is worst at the nearest victim and decays slowly along the bus —\n\
         the long-range inductive coupling the paper's models preserve)"
    );
    Ok(())
}

use vpec::circuit::metrics::peak_abs;
