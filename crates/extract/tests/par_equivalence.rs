//! Serial/parallel equivalence of the extraction assembly paths.
//!
//! The row-partitioned inductance assembly and the chunked parasitics
//! tables must reproduce the 1-worker result bit-for-bit at any worker
//! count (the upper triangle is computed in a fixed orientation and
//! mirrored, never recomputed).

use vpec_extract::inductance::{mutual_inductance, partial_inductance_matrix, self_inductance};
use vpec_extract::{extract, ExtractionConfig};
use vpec_geometry::BusSpec;
use vpec_numerics::pool;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn inductance_assembly_matches_serial() {
    let layout = BusSpec::new(12).segments(5).misalignment(0.3).build();
    pool::set_threads(1);
    let serial = partial_inductance_matrix(layout.filaments());
    for nt in THREAD_COUNTS {
        pool::set_threads(nt);
        let par = partial_inductance_matrix(layout.filaments());
        assert_eq!(serial.as_slice(), par.as_slice(), "inductance matrix");
    }
    pool::set_threads(0);
}

#[test]
fn tiled_mirror_matches_the_upper_triangle_at_any_worker_count() {
    // Sizes around the 64-wide mirror tile: one partial tile, exact
    // tiles, and a ragged last tile row and column.
    for bits in [1, 63, 64, 65, 150] {
        let layout = BusSpec::new(bits).misalignment(0.2).build();
        let fils = layout.filaments();
        let n = fils.len();
        for nt in THREAD_COUNTS {
            pool::set_threads(nt);
            let l = partial_inductance_matrix(fils);
            for i in 0..n {
                assert_eq!(l[(i, i)].to_bits(), self_inductance(&fils[i]).to_bits());
                for j in (i + 1)..n {
                    let m = mutual_inductance(&fils[i], &fils[j]).to_bits();
                    assert_eq!(l[(i, j)].to_bits(), m, "upper ({i}, {j}) at {nt} workers");
                    assert_eq!(l[(j, i)].to_bits(), m, "mirror ({j}, {i}) at {nt} workers");
                }
            }
        }
    }
    pool::set_threads(0);
}

#[test]
fn full_extraction_matches_serial() {
    let layout = BusSpec::new(10).segments(4).shield_every(3).build();
    let cfg = ExtractionConfig::paper_default();
    pool::set_threads(1);
    let serial = extract(&layout, &cfg);
    for nt in THREAD_COUNTS {
        pool::set_threads(nt);
        let par = extract(&layout, &cfg);
        assert_eq!(
            serial.inductance().as_slice(),
            par.inductance().as_slice(),
            "inductance"
        );
        assert_eq!(serial.resistance, par.resistance, "resistance");
        assert_eq!(serial.cap_ground, par.cap_ground, "cap_ground");
        assert_eq!(
            serial.cap_coupling, par.cap_coupling,
            "coupling list must match exactly (order and values)"
        );
        assert_eq!(serial.lengths, par.lengths, "lengths");
    }
    pool::set_threads(0);
}
