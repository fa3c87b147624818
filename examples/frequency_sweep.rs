//! Frequency-dependent R(f) / L(f) of a thick conductor via volume
//! filaments — the FastHenry-style extraction the paper invokes for
//! frequencies beyond 10 GHz ("the volume filament or conduction mode
//! based decomposition can be applied to consider the skin and proximity
//! effects").
//!
//! A wide power wire is decomposed into an 8×4 sub-filament bundle and
//! its terminal impedance solved from 1 MHz to 50 GHz. The classic skin-
//! effect signature appears: resistance rises as √f once the skin depth
//! drops below the conductor dimensions, and inductance falls as the
//! internal flux is expelled.
//!
//! Run with: `cargo run --release --example frequency_sweep`

use vpec::extract::volume::{auto_subdivisions, try_decompose};
use vpec::extract::ConductorSystem;
use vpec::geometry::discretize::skin_depth;
use vpec::geometry::{um, Axis, Filament, GHZ};

const RHO_CU: f64 = 1.7e-8;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wire = Filament::new([0.0; 3], Axis::X, um(1000.0), um(8.0), um(4.0));
    println!(
        "conductor: {} µm × {} µm × {} µm copper",
        wire.length * 1e6,
        wire.width * 1e6,
        wire.thickness * 1e6
    );
    let (nw, nt) = auto_subdivisions(&wire, RHO_CU, 50.0 * GHZ, 8);
    println!("volume decomposition at 50 GHz: {nw} × {nt} sub-filaments\n");

    let sys = ConductorSystem::new(&[try_decompose(&wire, nw, nt)?], RHO_CU);
    println!("freq        skin depth   R (Ω)     R/Rdc    L (nH)");
    println!("---------------------------------------------------");
    let r_dc = RHO_CU * wire.length / wire.cross_section();
    for &f in &[1e6, 1e7, 1e8, 1e9, 2e9, 5e9, 10e9, 20e9, 50e9_f64] {
        let (r, l) = sys.effective_rl(0, f)?;
        println!(
            "{:>7.0e} Hz   {:>6.2} µm   {:>7.4}   {:>5.2}   {:>6.4}",
            f,
            skin_depth(RHO_CU, f) * 1e6,
            r,
            r / r_dc,
            l * 1e9
        );
    }

    // Proximity effect: a nearby return conductor reshapes the current.
    println!("\nproximity: same wire with an adjacent return conductor (3 µm gap)");
    let ret = Filament::new([0.0, um(11.0), 0.0], Axis::X, um(1000.0), um(8.0), um(4.0))
        .with_direction(-1.0);
    let pair = ConductorSystem::new(
        &[try_decompose(&wire, nw, nt)?, try_decompose(&ret, nw, nt)?],
        RHO_CU,
    );
    for &f in &[1e8, 10e9_f64] {
        let (r_iso, _) = sys.effective_rl(0, f)?;
        let (r_prox, _) = pair.effective_rl(0, f)?;
        println!(
            "  {:>6.0e} Hz: isolated R = {:.4} Ω, with return R = {:.4} Ω ({:+.1}%)",
            f,
            r_iso,
            r_prox,
            100.0 * (r_prox - r_iso) / r_iso
        );
    }
    Ok(())
}
