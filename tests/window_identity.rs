//! Window-local wVPEC against a dense reference.
//!
//! The windowed builders read `L` through `Parasitics::mutual` and stop
//! each aggressor's nearest-first walk once a certified bound rules out
//! the rest. This suite rebuilds every model the old way, by fully
//! sorting each row of the dense `L`, and requires the two `VpecModel`s
//! to be equal bit for bit on every bus the workloads build, on the
//! paper's spiral, on layouts with perpendicular filaments and with
//! windows larger than the layout.

use std::collections::HashMap;
use vpec::core::windowed::{windowed_geometric, windowed_numerical};
use vpec::geometry::{Axis, Filament};
use vpec::numerics::pool;
use vpec::numerics::rng::XorShift64;
use vpec::numerics::{Cholesky, LuFactor};
use vpec::prelude::*;

/// The benchmark's relative jitter on the 1000 µm line length.
const LENGTH_JITTER: f64 = 1e-6;

/// wVPEC from explicit windows over the dense `L`: principal submatrix,
/// one solve per aggressor, the eq. (18) merge over mutually contained
/// pairs.
fn dense_model(para: &Parasitics, windows: &[Vec<usize>]) -> VpecModel {
    let l = para.inductance();
    let n = para.len();
    let mut s_diag = vec![0.0; n];
    let mut s_off: HashMap<(usize, usize), (f64, u8)> = HashMap::new();
    for (m, idx) in windows.iter().enumerate() {
        let pos = idx.binary_search(&m).expect("window holds its aggressor");
        let sub = l.principal_submatrix(idx);
        let mut e = vec![0.0; idx.len()];
        e[pos] = 1.0;
        let s = match Cholesky::new(&sub) {
            Ok(ch) => ch.solve(&e).unwrap(),
            Err(_) => LuFactor::new(&sub).unwrap().solve(&e).unwrap(),
        };
        for (k, &j) in idx.iter().enumerate() {
            if j == m {
                s_diag[m] = s[k];
                continue;
            }
            s_off
                .entry((m.min(j), m.max(j)))
                .and_modify(|(v, seen)| {
                    if s[k].abs() < v.abs() {
                        *v = s[k];
                    }
                    *seen += 1;
                })
                .or_insert((s[k], 1));
        }
    }
    let len = &para.lengths;
    let mut g_off: Vec<(usize, usize, f64)> = s_off
        .into_iter()
        .filter(|&(_, (_, seen))| seen >= 2)
        .map(|((i, j), (s, _))| (i, j, len[i] * len[j] * s))
        .filter(|&(_, _, v)| v != 0.0)
        .collect();
    g_off.sort_by_key(|&(i, j, _)| (i, j));
    let g_diag = (0..n).map(|i| len[i] * len[i] * s_diag[i]).collect();
    VpecModel::from_parts(len.clone(), g_diag, g_off)
}

/// gwVPEC the dense way: each row stably sorted by `|Lₘⱼ|` descending.
fn dense_geometric(para: &Parasitics, b: usize) -> VpecModel {
    let l = para.inductance();
    let n = para.len();
    let windows: Vec<Vec<usize>> = (0..n)
        .map(|m| {
            let mut others: Vec<usize> = (0..n).filter(|&j| j != m).collect();
            others.sort_by(|&x, &y| l[(m, y)].abs().total_cmp(&l[(m, x)].abs()));
            let mut idx: Vec<usize> = std::iter::once(m)
                .chain(others.into_iter().take(b - 1))
                .collect();
            idx.sort_unstable();
            idx
        })
        .collect();
    dense_model(para, &windows)
}

/// nwVPEC the dense way: every `j` with `|Lₘⱼ|/Lₘₘ ≥ threshold`.
fn dense_numerical(para: &Parasitics, threshold: f64) -> VpecModel {
    let l = para.inductance();
    let n = para.len();
    let windows: Vec<Vec<usize>> = (0..n)
        .map(|m| {
            (0..n)
                .filter(|&j| j == m || l[(m, j)].abs() / l[(m, m)] >= threshold)
                .collect()
        })
        .collect();
    dense_model(para, &windows)
}

/// Local and dense builds on two extractions of `layout`: the local one
/// never sees a dense `L`. Thresholds are chosen so that nwVPEC windows
/// stay well below the bus width, which keeps the debug-build run short.
fn assert_identical(what: &str, layout: &Layout, bs: &[usize], thresholds: &[f64]) {
    let cfg = ExtractionConfig::paper_default();
    let reference = extract(layout, &cfg);
    for &b in bs {
        let local = windowed_geometric(&extract(layout, &cfg), b).unwrap();
        assert!(
            local == dense_geometric(&reference, b),
            "{what}: gwVPEC({b}) differs from the dense build"
        );
    }
    for &t in thresholds {
        let local = windowed_numerical(&extract(layout, &cfg), t).unwrap();
        assert!(
            local == dense_numerical(&reference, t),
            "{what}: nwVPEC({t:e}) differs from the dense build"
        );
    }
}

/// Seeded paper buses with the benchmark's length jitter.
fn jittered_buses(bits: usize, count: usize, seed: u64) -> Vec<Layout> {
    let mut rng = XorShift64::new(seed);
    (0..count)
        .map(|_| {
            let length = um(1000.0) * (1.0 + LENGTH_JITTER * (2.0 * rng.next_f64() - 1.0));
            BusSpec::new(bits).line_length(length).build()
        })
        .collect()
}

#[test]
fn aligned_256_bit_buses_with_length_jitter() {
    for layout in jittered_buses(256, 4, 0x5eed_0256) {
        assert_identical("256-bit bus", &layout, &[2, 5, 8, 9], &[0.3, 0.45]);
    }
}

#[test]
fn aligned_1024_bit_buses_with_length_jitter() {
    for layout in jittered_buses(1024, 2, 0x5eed_1024) {
        assert_identical("1024-bit bus", &layout, &[8], &[0.3]);
    }
}

#[test]
fn aligned_2048_bit_bus_with_length_jitter() {
    for layout in jittered_buses(2048, 1, 0x5eed_2048) {
        assert_identical("2048-bit bus", &layout, &[8], &[0.3]);
    }
}

#[test]
fn misaligned_128_bit_bus() {
    let layout = BusSpec::new(128).misalignment(0.05).build();
    assert_identical("misaligned 128-bit bus", &layout, &[4, 8], &[0.1, 0.3]);
}

#[test]
fn twenty_eight_bits_by_eight_segments() {
    let layout = BusSpec::new(28).segments(8).build();
    assert_identical("28 x 8 bus", &layout, &[8], &[0.1]);
}

#[test]
fn engine_batch_buses_with_window_four() {
    let recurring = [
        (4, 1),
        (6, 3),
        (8, 1),
        (8, 2),
        (12, 1),
        (16, 1),
        (24, 1),
        (12, 2),
    ];
    for (bits, segments) in recurring {
        let layout = BusSpec::new(bits).segments(segments).build();
        assert_identical("engine bus", &layout, &[2, 4], &[]);
    }
    let mut rng = XorShift64::new(0xba7c);
    for k in 0..8 {
        let bits = rng.range_usize(4, 13);
        let misalign = 1e-3 * (k as f64 + rng.range_f64(0.1, 0.9));
        let layout = BusSpec::new(bits).misalignment(misalign).build();
        assert_identical("fresh engine bus", &layout, &[4], &[]);
    }
}

#[test]
fn paper_spiral() {
    let layout = SpiralSpec::paper_three_turn().build();
    assert_identical("spiral", &layout, &[3, 8], &[1.5e-4, 1e-2]);
}

#[test]
fn windows_at_least_as_large_as_the_layout() {
    let bus = BusSpec::new(6).segments(2).build();
    assert_identical("12-filament bus", &bus, &[12, 13, 100], &[0.0]);
    let spiral = SpiralSpec::paper_three_turn().build();
    let n = spiral.filaments().len();
    assert_identical("spiral", &spiral, &[n, n + 5], &[0.0]);
}

#[test]
fn layout_with_perpendicular_filaments() {
    // A 6-bit bus along x, crossed by three wires along y and one along
    // z: windows larger than a filament's parallel class must fill with
    // zero-coupled filaments, lowest index first.
    let mut layout = BusSpec::new(6).segments(2).build();
    for k in 0..3 {
        let y_wire = Filament::new(
            [um(100.0 + 300.0 * k as f64), um(-5.0), um(2.0)],
            Axis::Y,
            um(40.0),
            um(1.0),
            um(1.0),
        );
        layout.push_net(format!("cross{k}"), vec![y_wire]);
    }
    let via = Filament::new(
        [um(50.0), um(30.0), 0.0],
        Axis::Z,
        um(5.0),
        um(1.0),
        um(1.0),
    );
    layout.push_net("via", vec![via]);
    assert_identical(
        "crossed bus",
        &layout,
        &[1, 2, 3, 4, 8, 14, 16, 20],
        &[0.0, 1e-3],
    );
}

#[test]
fn worker_count_does_not_change_the_model() {
    // 512 aggressors: enough for the walks and solves to split over up
    // to eight workers.
    let layout = BusSpec::new(512).misalignment(0.05).build();
    let para = extract(&layout, &ExtractionConfig::paper_default());
    pool::set_threads(1);
    let geometric = windowed_geometric(&para, 8).unwrap();
    let numerical = windowed_numerical(&para, 0.3).unwrap();
    for nt in [2, 8] {
        pool::set_threads(nt);
        assert!(
            windowed_geometric(&para, 8).unwrap() == geometric,
            "gwVPEC at {nt} workers"
        );
        assert!(
            windowed_numerical(&para, 0.3).unwrap() == numerical,
            "nwVPEC at {nt} workers"
        );
    }
    pool::set_threads(0);
}
