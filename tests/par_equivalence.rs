//! Whole-pipeline serial/parallel equivalence.
//!
//! Every parallel stage — extraction, inversion, MNA factor, transient and
//! AC sweep — promises the 1-worker result bit for bit at any worker count.
//! The crate-level `par_equivalence` suites check each kernel alone; this
//! case checks the stages composed, through the public facade.

use vpec::numerics::pool;
use vpec::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const PROBED_NETS: [usize; 2] = [0, 1];

/// Far-end transient voltages and AC magnitudes of the probed nets, for
/// PEEC and full VPEC on a 16-bit × 6-segment bus, as raw bit patterns.
/// Everything from extraction on runs at the current pool size.
fn pipeline_bits() -> Vec<u64> {
    let exp = Experiment::new(
        BusSpec::new(16).segments(6).build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    );
    let tspec = TransientSpec::new(0.2e-9, 1e-12);
    let aspec = AcSpec::log_sweep(1e8, 1e10, 4).expect("valid sweep");
    let mut bits = Vec::new();
    for kind in [ModelKind::Peec, ModelKind::VpecFull] {
        let built = exp.build(kind).expect("model builds");
        let (tran, _) = built.run_transient(&tspec).expect("transient runs");
        let (ac, _) = built.run_ac(&aspec).expect("AC sweep runs");
        for net in PROBED_NETS {
            let v = built.far_voltage(&tran, net).expect("net recorded");
            bits.extend(v.iter().map(|x| x.to_bits()));
            let mag = ac.magnitude(built.model.far_nodes[net]).expect("far node");
            bits.extend(mag.iter().map(|x| x.to_bits()));
        }
    }
    bits
}

#[test]
fn pipeline_waveforms_are_bit_identical_at_any_worker_count() {
    pool::set_threads(1);
    let serial = pipeline_bits();
    for nt in THREAD_COUNTS {
        pool::set_threads(nt);
        let par = pipeline_bits();
        assert_eq!(serial.len(), par.len(), "sample count at {nt} workers");
        let differing = serial.iter().zip(&par).filter(|(a, b)| a != b).count();
        assert_eq!(differing, 0, "{differing} samples differ at {nt} workers");
    }
    pool::set_threads(0);
}
