//! Serial/parallel equivalence of the AC sweep.
//!
//! `run_ac` distributes frequency points over the pool; each point is
//! assembled and factored independently (sharing only the pattern's RCM
//! ordering), so the sweep must match the 1-worker run bit-for-bit at any
//! worker count.

use vpec_circuit::ac::{run_ac, AcSpec};
use vpec_circuit::{Circuit, SolverKind, Waveform};
use vpec_numerics::pool;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const TOL: f64 = 1e-12;

/// A coupled RLC ladder with enough nodes to make the per-point solves
/// nontrivial.
fn ladder(stages: usize) -> (Circuit, Vec<vpec_circuit::NodeId>) {
    let mut c = Circuit::new();
    let inp = c.node("in");
    c.add_vsource_ac("V1", inp, Circuit::GROUND, Waveform::dc(0.0), 1.0, 0.0)
        .unwrap();
    let mut prev = inp;
    let mut taps = Vec::new();
    for k in 0..stages {
        let mid = c.node(&format!("m{k}"));
        let out = c.node(&format!("o{k}"));
        c.add_resistor(&format!("R{k}"), prev, mid, 50.0 + k as f64)
            .unwrap();
        c.add_inductor(&format!("L{k}"), mid, out, 1e-9 * (1.0 + k as f64))
            .unwrap();
        c.add_capacitor(&format!("C{k}"), out, Circuit::GROUND, 20e-15)
            .unwrap();
        taps.push(out);
        prev = out;
    }
    c.add_resistor("Rload", prev, Circuit::GROUND, 75.0).unwrap();
    (c, taps)
}

#[test]
fn ac_sweep_matches_serial_at_any_thread_count() {
    let (c, taps) = ladder(8);
    let spec = AcSpec::log_sweep(1e7, 1e11, 5).expect("valid sweep");
    pool::set_threads(1);
    let serial = run_ac(&c, &spec).expect("serial sweep");
    for nt in THREAD_COUNTS {
        pool::set_threads(nt);
        let par = run_ac(&c, &spec).expect("parallel sweep");
        assert_eq!(serial.frequency(), par.frequency(), "sweep grid");
        for &tap in &taps {
            let vs = serial.voltage(tap).expect("serial tap");
            let vp = par.voltage(tap).expect("parallel tap");
            for (i, (a, b)) in vs.iter().zip(&vp).enumerate() {
                assert!(
                    (a.re - b.re).abs() <= TOL && (a.im - b.im).abs() <= TOL,
                    "point {i} differs at {nt} threads: {a:?} vs {b:?}"
                );
            }
        }
    }
    // A forced sparse sweep orders once, from its first point, and reuses
    // that RCM ordering at every point of the same pattern. RCM depends on
    // the pattern alone, so every point must match, bit for bit, a sweep
    // of that point alone (which orders from the point itself).
    let sparse = spec.clone().solver(SolverKind::Sparse);
    for nt in THREAD_COUNTS {
        pool::set_threads(nt);
        let swept = run_ac(&c, &sparse).expect("sparse sweep");
        for (i, &f) in sparse.frequencies.iter().enumerate() {
            let alone = AcSpec::points(vec![f]).solver(SolverKind::Sparse);
            let point = run_ac(&c, &alone).expect("single-point sweep");
            for &tap in &taps {
                let a = swept.voltage(tap).expect("swept tap")[i];
                let b = point.voltage(tap).expect("single tap")[0];
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "point {i} at {nt} threads: {a:?} vs {b:?}"
                );
            }
        }
    }
    pool::set_threads(0);
}
