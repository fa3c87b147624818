//! Why VPEC exists: truncating `L` destroys passivity, truncating `Ĝ`
//! does not.
//!
//! Reproduces the paper's motivation (§I) and Theorems 1–2 numerically:
//!
//! 1. the partial-inductance matrix `L` of a bus is **not** diagonally
//!    dominant, and naively dropping its small off-diagonals produces an
//!    indefinite matrix (an active — energy-creating — model);
//! 2. the VPEC circuit matrix `Ĝ = Dₗ·L⁻¹·Dₗ` **is** strictly diagonally
//!    dominant, so the same truncation keeps it positive definite.
//!
//! Run with: `cargo run --release --example passivity`

use vpec::numerics::{Cholesky, DenseMatrix};
use vpec::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let layout = BusSpec::new(24).build();
    let para = extract(&layout, &ExtractionConfig::paper_default());
    let l = para.inductance();

    println!("24-bit bus, partial inductance matrix L:");
    println!(
        "  symmetric:                      {}",
        l.is_symmetric(1e-12)
    );
    println!(
        "  positive definite:              {}",
        Cholesky::is_spd(l, 1e-9)
    );
    println!(
        "  strictly diagonally dominant:   {}   <-- the problem",
        l.is_strictly_diagonally_dominant()
    );

    // Naive truncation of L: drop couplings beyond ±4 neighbours.
    let n = l.rows();
    let mut l_trunc = DenseMatrix::<f64>::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if i.abs_diff(j) <= 4 {
                l_trunc[(i, j)] = l[(i, j)];
            }
        }
    }
    println!("\nnaively truncated L (±4 neighbours kept):");
    println!(
        "  positive definite:              {}   <-- passivity lost!",
        Cholesky::is_spd(&l_trunc, 1e-9)
    );

    // The VPEC route: invert first, then truncate.
    let full = VpecModel::full(&para)?;
    let g_report = full.passivity_report();
    println!("\nfull VPEC circuit matrix Ĝ = Dl·L⁻¹·Dl:");
    println!(
        "  positive definite:              {} (Theorem 1)",
        g_report.positive_definite
    );
    println!(
        "  strictly diagonally dominant:   {} (Theorem 2)",
        g_report.strictly_diag_dominant
    );

    let truncated = full.retain(|i, j| i.abs_diff(j) <= 4);
    let t_report = truncated.passivity_report();
    println!("\ntruncated Ĝ (same ±4 neighbours kept):");
    println!(
        "  positive definite:              {}   <-- passivity preserved",
        t_report.positive_definite
    );
    println!(
        "  strictly diagonally dominant:   {}",
        t_report.strictly_diag_dominant
    );
    println!(
        "  kept couplings: {} of {}",
        truncated.g_off().len(),
        full.g_off().len()
    );

    assert!(!Cholesky::is_spd(&l_trunc, 1e-9));
    assert!(t_report.is_passive());
    println!("\nconclusion: sparsify the inverse (VPEC), never the inductance matrix itself.");
    Ok(())
}
