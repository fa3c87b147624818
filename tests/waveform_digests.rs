//! Waveform digests of the paper's workloads at reduced size.
//!
//! Each case runs one model through the production path
//! (`Experiment::build` and its one-call analysis) and hashes the bits of
//! every probed sample: the time grid and both far ends (aggressor bit 0,
//! victim bit 1) of a transient, the frequencies and the real and
//! imaginary parts of both far ends of an AC sweep. The hash is 64-bit
//! FNV-1a over the little-endian bytes of each `f64`.
//!
//! A change that moves any sample by one bit changes its digest. Such a
//! change must record the new digest here and state in CHANGES.md how far
//! the waveform moved, as a share of its peak, and against which audited
//! bound. On a mismatch the test prints every case's digest in the form
//! of [`DIGESTS`].

use vpec::circuit::{AcResult, TransientResult};
use vpec::prelude::*;

/// `(case, digest)`, in the order [`cases`] runs them.
const DIGESTS: &[(&str, u64)] = &[
    ("fig8/peec", 0x1546_0421_2468_697c),
    ("fig8/vpec-full", 0x47c5_e35b_25e0_fc08),
    ("fig8/gwvpec8", 0xef15_1f52_747c_3aa6),
    ("table3/peec", 0x6fb5_990b_6713_7ce0),
    ("table3/vpec-full", 0x2a4a_987a_08f3_b7ff),
    ("table3/ntvpec1e-3", 0x3f04_9d19_93d6_f322),
    ("table3/ntvpec3e-2", 0xcce9_d3fd_5fc3_d7e6),
    ("ac/vpec-full", 0x6192_73f0_2368_db7a),
    ("ac/gwvpec8", 0x79e8_ca0c_f418_e6f8),
];

/// Far ends probed in every case: the aggressor and the adjacent victim.
const PROBES: [usize; 2] = [0, 1];

/// 64-bit FNV-1a.
#[derive(Clone, Copy)]
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: f64) {
        for byte in v.to_bits().to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn add_all(&mut self, vs: &[f64]) {
        vs.iter().for_each(|&v| self.add(v));
    }
}

fn experiment(bits: usize, segments: usize, misalign: f64) -> Experiment {
    Experiment::new(
        BusSpec::new(bits)
            .segments(segments)
            .misalignment(misalign)
            .build(),
        &ExtractionConfig::paper_default(),
        DriveConfig::paper_default(),
    )
}

fn transient_digest(exp: &Experiment, kind: ModelKind) -> u64 {
    let built = exp.build(kind).unwrap();
    let probes = PROBES.iter().map(|&k| built.model.far_nodes[k]).collect();
    let spec = TransientSpec::new(0.5e-9, 1e-12).probes(probes);
    let (res, _): (TransientResult, _) = built.run_transient(&spec).unwrap();
    let mut h = Fnv1a::new();
    h.add_all(res.time());
    for &k in &PROBES {
        h.add_all(&built.far_voltage(&res, k).unwrap());
    }
    h.0
}

fn ac_digest(exp: &Experiment, kind: ModelKind) -> u64 {
    let built = exp.build(kind).unwrap();
    let spec = AcSpec::log_sweep(1e8, 1e10, 10).unwrap();
    let (res, _): (AcResult, _) = built.run_ac(&spec).unwrap();
    let mut h = Fnv1a::new();
    h.add_all(res.frequency());
    for &k in &PROBES {
        for z in res.voltage(built.model.far_nodes[k]).unwrap() {
            h.add(z.re);
            h.add(z.im);
        }
    }
    h.0
}

/// Every case's digest: the Fig. 8 bus (16 bits), the misaligned Table III
/// bus (32 bits, misalignment 0.05) and the AC bus (6 bits × 2 segments),
/// the workload-bench models of each at 1 ps steps over 0.5 ns, or 10
/// points per decade from 100 MHz to 10 GHz.
fn cases() -> Vec<(&'static str, u64)> {
    let gw8 = ModelKind::WVpecGeometric { b: 8 };
    let nt = |threshold| ModelKind::TVpecNumerical { threshold };
    let fig8 = experiment(16, 1, 0.0);
    let table3 = experiment(32, 1, 0.05);
    let ac = experiment(6, 2, 0.0);
    vec![
        ("fig8/peec", transient_digest(&fig8, ModelKind::Peec)),
        (
            "fig8/vpec-full",
            transient_digest(&fig8, ModelKind::VpecFull),
        ),
        ("fig8/gwvpec8", transient_digest(&fig8, gw8)),
        ("table3/peec", transient_digest(&table3, ModelKind::Peec)),
        (
            "table3/vpec-full",
            transient_digest(&table3, ModelKind::VpecFull),
        ),
        ("table3/ntvpec1e-3", transient_digest(&table3, nt(1e-3))),
        ("table3/ntvpec3e-2", transient_digest(&table3, nt(3e-2))),
        ("ac/vpec-full", ac_digest(&ac, ModelKind::VpecFull)),
        ("ac/gwvpec8", ac_digest(&ac, gw8)),
    ]
}

#[test]
fn fnv1a_matches_its_reference_vectors() {
    // FNV-1a 64 of the empty input and of the single byte 'a'.
    assert_eq!(Fnv1a::new().0, 0xcbf2_9ce4_8422_2325);
    let mut h = Fnv1a::new();
    h.0 ^= u64::from(b'a');
    h.0 = h.0.wrapping_mul(0x0000_0100_0000_01b3);
    assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
}

#[test]
fn probed_waveforms_match_their_digests() {
    let got = cases();
    let report: String = got
        .iter()
        .map(|(case, d)| {
            format!(
                "    (\"{case}\", 0x{:04x}_{:04x}_{:04x}_{:04x}),\n",
                d >> 48,
                (d >> 32) & 0xffff,
                (d >> 16) & 0xffff,
                d & 0xffff
            )
        })
        .collect();
    let expected: Vec<(&str, u64)> = DIGESTS.to_vec();
    assert_eq!(got, expected, "digests now read:\n{report}");
}
