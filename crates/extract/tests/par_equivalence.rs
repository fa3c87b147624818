//! Serial/parallel equivalence of the extraction assembly paths.
//!
//! The row-partitioned inductance assembly and the chunked parasitics
//! tables must reproduce the 1-worker result bit-for-bit at any worker
//! count (the upper triangle is computed in a fixed orientation and
//! mirrored, never recomputed).

use vpec_extract::inductance::partial_inductance_matrix;
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
fn full_extraction_matches_serial() {
    let layout = BusSpec::new(10).segments(4).shield_every(3).build();
    let cfg = ExtractionConfig::paper_default();
    pool::set_threads(1);
    let serial = extract(&layout, &cfg);
    for nt in THREAD_COUNTS {
        pool::set_threads(nt);
        let par = extract(&layout, &cfg);
        assert_eq!(
            serial.inductance.as_slice(),
            par.inductance.as_slice(),
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
