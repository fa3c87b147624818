//! The spatial index against all-pairs references: the coupling
//! capacitances `extract` finds through it, and the bound on the mutual
//! inductance it certifies.

use vpec_extract::capacitance::coupling_capacitance;
use vpec_extract::inductance::mutual_inductance;
use vpec_extract::locality::{FilamentIndex, BOUND_MARGIN};
use vpec_extract::{extract, ExtractionConfig};
use vpec_geometry::{um, Axis, BusSpec, Filament, Layout, SpiralSpec};
use vpec_numerics::rng::XorShift64;

/// The all-pairs coupling scan: every parallel pair `(i, j > i)` within
/// range with a positive coupling capacitance, in pair order.
fn all_pairs_coupling(layout: &Layout, cfg: &ExtractionConfig) -> Vec<(usize, usize, f64)> {
    let fils = layout.filaments();
    let mut out = Vec::new();
    for (i, a) in fils.iter().enumerate() {
        for (j, b) in fils.iter().enumerate().skip(i + 1) {
            if !a.is_parallel_to(b) || a.radial_distance_to(b) > cfg.cap_coupling_range {
                continue;
            }
            let c = coupling_capacitance(a, b, cfg.ground_height, cfg.eps_r);
            if c > 0.0 {
                out.push((i, j, c));
            }
        }
    }
    out
}

#[test]
fn coupling_list_matches_the_all_pairs_scan() {
    let jittered = |bits: usize| {
        BusSpec::new(bits)
            .line_length(um(1000.0) * (1.0 + 7e-7))
            .build()
    };
    let layouts = [
        // The workloads' buses.
        jittered(2048),
        jittered(1024),
        jittered(256),
        BusSpec::new(128).misalignment(0.05).build(),
        BusSpec::new(28).segments(8).build(),
        BusSpec::new(12).segments(2).build(),
        BusSpec::new(7).misalignment(3.5e-3).build(),
        // Multi-segment, misaligned and shielded.
        BusSpec::new(10).segments(5).misalignment(0.4).build(),
        BusSpec::new(9).segments(3).shield_every(2).build(),
        SpiralSpec::paper_three_turn().build(),
    ];
    for layout in &layouts {
        for range in [um(4.0), um(7.0), um(0.5), um(60.0)] {
            let mut cfg = ExtractionConfig::paper_default();
            cfg.cap_coupling_range = range;
            let got = extract(layout, &cfg).cap_coupling;
            let want = all_pairs_coupling(layout, &cfg);
            assert_eq!(
                got,
                want,
                "{} filaments, range {range:e}",
                layout.filaments().len()
            );
        }
    }
}

/// A filament along x with random length, offset along the axis and
/// cross-section, at transverse position `(y, z)`.
fn random_filament(rng: &mut XorShift64, y: f64, z: f64) -> Filament {
    let f = Filament::new(
        [um(rng.range_f64(-800.0, 800.0)), y, z],
        Axis::X,
        um(rng.range_f64(5.0, 1500.0)),
        um(rng.range_f64(0.2, 5.0)),
        um(rng.range_f64(0.2, 5.0)),
    );
    if rng.chance(0.5) {
        f.with_direction(-1.0)
    } else {
        f
    }
}

#[test]
fn bound_covers_every_mutual_at_or_beyond_its_distance() {
    let mut rng = XorShift64::new(0xb0_4d);
    for case in 0..4000 {
        let a = random_filament(&mut rng, 0.0, 0.0);
        let mut b = random_filament(&mut rng, 0.0, 0.0);
        // Radial distance log-uniform from 10 nm to 10⁴ times the longer
        // length, the range `BOUND_MARGIN` covers; one case in eight
        // collinear (distance 0, GMD floor).
        let reach = 1e4 * a.length.max(b.length);
        let d = if case % 8 == 0 {
            0.0
        } else {
            um(0.01) * (reach / um(0.01)).powf(rng.next_f64())
        };
        let angle = rng.range_f64(0.0, std::f64::consts::TAU);
        b.origin[1] = d * angle.cos();
        b.origin[2] = d * angle.sin();
        let m = mutual_inductance(&a, &b).abs();
        let index = FilamentIndex::new(&[a, b]);
        let d_ab = a.radial_distance_to(&b);
        for fraction in [1.0, 0.999_999, 0.5, 0.0] {
            let bound = index.mutual_bound(0, d_ab * fraction);
            assert!(
                m <= bound,
                "case {case}: |M| = {m:e} above B({:e}) = {bound:e} \
                 (lengths {:e}, {:e}; offsets {:e}, {:e})",
                d_ab * fraction,
                a.length,
                b.length,
                a.origin[0],
                b.origin[0]
            );
        }
        // Centred, fully overlapping pairs of the longest length are the
        // worst case: there the bound is tight to its stated margin.
        let mut twin = a;
        twin.origin[1] = b.origin[1];
        twin.origin[2] = b.origin[2];
        twin.width = a.width;
        twin.thickness = a.thickness;
        if d_ab > 0.0 {
            let tight = mutual_inductance(&a, &twin).abs();
            let bound = FilamentIndex::new(&[a, twin]).mutual_bound(0, d_ab);
            assert!(tight <= bound && bound <= tight * (1.0 + 2.0 * BOUND_MARGIN) + 1e-30);
        }
    }
}

#[test]
fn bound_holds_across_a_mixed_class() {
    // The class-wide bound uses the longest length and the thinnest
    // cross-section of all members, so it also covers every pair of a
    // mixed bus.
    let mut rng = XorShift64::new(0xc1a55);
    let fils: Vec<Filament> = (0..40)
        .map(|k| {
            let z = um(rng.range_f64(-2.0, 2.0));
            random_filament(&mut rng, um(3.0 * k as f64), z)
        })
        .collect();
    let index = FilamentIndex::new(&fils);
    for i in 0..fils.len() {
        for j in 0..fils.len() {
            if i != j {
                let m = mutual_inductance(&fils[i], &fils[j]).abs();
                let d = fils[i].radial_distance_to(&fils[j]);
                assert!(m <= index.mutual_bound(i, d), "pair ({i}, {j})");
            }
        }
    }
}
