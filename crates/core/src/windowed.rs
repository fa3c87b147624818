//! wVPEC: window-based sparsification (paper §V).
//!
//! Instead of inverting the full `N×N` inductance matrix (`O(N³)`), each
//! conductor `m` in turn becomes the *aggressor*: a small coupling-window
//! submatrix `L⁽ᵐ⁾` is built around it and `L⁽ᵐ⁾·s⁽ᵐ⁾ = e_m` is solved
//! (`O(b³)` each, `O(N·b³)` total). The per-aggressor rows are merged into
//! one sparse approximate inverse with the heuristic of eq. (18),
//!
//! ```text
//! S′ₘₙ = max(s⁽ᵐ⁾ₙ, s⁽ⁿ⁾ₘ)
//! ```
//!
//! which — the entries being negative — selects the smaller magnitude and
//! thereby keeps `S′` diagonally dominant (eq. (19)), i.e. the resulting
//! wVPEC model is passive by construction.
//!
//! # Window-local reads
//!
//! Neither builder reads or builds the dense `L`. Each aggressor walks
//! its parallel filaments nearest first ([`Parasitics::nearest`]) and
//! reads `Lₘⱼ` through [`Parasitics::mutual`], until the walk's
//! certified bound on everything farther out
//! ([`Nearest::remaining_bound`](vpec_extract::locality::Nearest::remaining_bound))
//! falls strictly below the weakest coupling the window keeps (gwVPEC) or
//! below `threshold·Lₘₘ` (nwVPEC). Every unread partner is therefore
//! ranked below the window, and the windows — and so the models — are
//! the ones a full sort of each dense row picks, bit for bit.

use crate::{CoreError, VpecModel};
use vpec_extract::Parasitics;
use vpec_numerics::{pool, Cholesky, DenseMatrix, LuFactor, NumericsError, Pool};

/// Rejects inductance matrices the window machinery cannot safely
/// consume: any non-finite entry would make the coupling-strength sort
/// input-order-dependent (NaN compares as `Equal`), and a zero/negative
/// diagonal would turn the `|Lₘⱼ|/Lₘₘ` ratios into NaN/∞ and silently
/// mis-select windows. Run on a caller-supplied matrix, whose entries no
/// geometry vouches for.
fn validate_inductance(l: &DenseMatrix<f64>) -> Result<(), CoreError> {
    for i in 0..l.rows() {
        for j in 0..l.cols() {
            if !l[(i, j)].is_finite() {
                return Err(non_finite((i, j)));
            }
        }
    }
    for m in 0..l.rows() {
        if l[(m, m)] <= 0.0 {
            return Err(CoreError::BadInductanceMatrix(
                NumericsError::NotPositiveDefinite { row: m },
            ));
        }
    }
    Ok(())
}

fn non_finite(index: (usize, usize)) -> CoreError {
    CoreError::BadInductanceMatrix(NumericsError::NonFinite {
        op: "wVPEC windowing",
        index,
    })
}

/// Minimum aggressors per worker before the window walks and solves go
/// parallel. One aggressor of gwVPEC(8) costs about 4 µs, so 64 of them
/// outweigh spawning a scoped worker; the engine's small buses stay
/// serial.
const WINDOW_MIN_PER_THREAD: usize = 64;

/// Reads `Lᵢⱼ` through [`Parasitics::mutual`] and checks it.
fn read(parasitics: &Parasitics, i: usize, j: usize) -> Result<f64, CoreError> {
    let v = parasitics.mutual(i, j);
    if v.is_finite() {
        Ok(v)
    } else {
        Err(non_finite((i, j)))
    }
}

/// `Lₘₘ` for every `m`, checked finite and positive; a caller-supplied
/// `L` is checked whole first.
fn checked_diagonal(parasitics: &Parasitics) -> Result<Vec<f64>, CoreError> {
    if let Some(l) = parasitics.explicit_inductance() {
        validate_inductance(l)?;
    }
    let diag: Vec<f64> = (0..parasitics.len())
        .map(|m| parasitics.mutual(m, m))
        .collect();
    if let Some(m) = diag.iter().position(|d| !d.is_finite()) {
        return Err(non_finite((m, m)));
    }
    if let Some(m) = diag.iter().position(|&d| d <= 0.0) {
        return Err(CoreError::BadInductanceMatrix(
            NumericsError::NotPositiveDefinite { row: m },
        ));
    }
    Ok(diag)
}

/// One aggressor's window and the entries its walk read.
struct Walk {
    /// Sorted filament indices, the aggressor included.
    window: Vec<usize>,
    /// `(j, Lₘⱼ)` for every partner `j` the walk read, sorted by `j`.
    row: Vec<(usize, f64)>,
}

impl Walk {
    fn new(mut window: Vec<usize>, mut row: Vec<(usize, f64)>) -> Walk {
        window.sort_unstable();
        row.sort_unstable_by_key(|e| e.0);
        Walk { window, row }
    }
}

/// Aggressor `m` plus its `partners` largest-`|Lₘⱼ|` partners, ties to
/// the lower index: the first `partners` of the row sorted stably by
/// `|Lₘⱼ|` descending.
fn geometric_walk(parasitics: &Parasitics, m: usize, partners: usize) -> Result<Walk, CoreError> {
    if partners == 0 {
        return Ok(Walk::new(vec![m], Vec::new()));
    }
    // The best `partners` read so far, in rank order.
    let mut best: Vec<(f64, usize)> = Vec::with_capacity(partners + 1);
    let mut row = Vec::new();
    let mut walk = parasitics.nearest(m);
    loop {
        if best.len() == partners {
            match walk.remaining_bound() {
                Some(b) if b >= best[partners - 1].0 => {}
                _ => break,
            }
        }
        let Some((j, _)) = walk.next() else { break };
        let v = read(parasitics, m, j)?;
        row.push((j, v));
        let a = v.abs();
        let pos = best.partition_point(|&(b, k)| b.total_cmp(&a).then(j.cmp(&k)).is_gt());
        if pos < partners {
            best.insert(pos, (a, j));
            best.truncate(partners);
        }
    }
    let mut window: Vec<usize> = std::iter::once(m)
        .chain(best.iter().filter(|e| e.0 > 0.0).map(|e| e.1))
        .collect();
    // Zero couplings (perpendicular filaments, or b past the parallel
    // ones) rank last, lowest index first, as in the dense sort.
    let zeros = partners + 1 - window.len();
    if zeros > 0 {
        let fils = parasitics.filaments();
        let kept_zero = |j: usize| best.iter().any(|e| e.1 == j && e.0 == 0.0);
        window.extend(
            (0..fils.len())
                .filter(|&j| j != m && (!fils[m].is_parallel_to(&fils[j]) || kept_zero(j)))
                .take(zeros),
        );
    }
    Ok(Walk::new(window, row))
}

/// Aggressor `m` plus every `j` with `|Lₘⱼ|/Lₘₘ ≥ threshold`.
fn numerical_walk(
    parasitics: &Parasitics,
    m: usize,
    lmm: f64,
    threshold: f64,
) -> Result<Walk, CoreError> {
    let mut window = vec![m];
    let mut row = Vec::new();
    let mut walk = parasitics.nearest(m);
    loop {
        match walk.remaining_bound() {
            Some(b) if b / lmm >= threshold => {}
            _ => break,
        }
        let Some((j, _)) = walk.next() else { break };
        let v = read(parasitics, m, j)?;
        row.push((j, v));
        if v.abs() / lmm >= threshold {
            window.push(j);
        }
    }
    if threshold == 0.0 {
        // Zero couplings pass a zero threshold.
        let fils = parasitics.filaments();
        window.extend((0..fils.len()).filter(|&j| !fils[m].is_parallel_to(&fils[j])));
    }
    Ok(Walk::new(window, row))
}

/// Runs `walk` for every aggressor, then solves and merges the windows.
fn windowed_by(
    parasitics: &Parasitics,
    walk: impl Fn(usize, f64) -> Result<Walk, CoreError> + Sync,
) -> Result<VpecModel, CoreError> {
    let n = parasitics.len();
    if n == 0 {
        return Err(CoreError::InvalidParameter {
            reason: "cannot build a VPEC model over zero filaments",
        });
    }
    let diag = checked_diagonal(parasitics)?;
    let pool = Pool::with_threads(pool::threads_for(n, WINDOW_MIN_PER_THREAD));
    let walks = pool
        .par_map_index(n, |m| walk(m, diag[m]))
        .into_iter()
        .collect::<Result<Vec<Walk>, CoreError>>()?;
    let solves = pool
        .par_map_index(n, |m| solve_window(parasitics, &diag, &walks, m))
        .into_iter()
        .collect::<Result<Vec<(Vec<f64>, usize)>, CoreError>>()?;
    let reads = n
        + walks.iter().map(|w| w.row.len()).sum::<usize>()
        + solves.iter().map(|s| s.1).sum::<usize>();
    vpec_trace::counter_add("model.window.mutuals", reads as u64);
    Ok(merge(&parasitics.lengths, &walks, &solves))
}

/// Solves `L⁽ᵐ⁾·s⁽ᵐ⁾ = e_m` on aggressor `m`'s window. Entries come from
/// the walks' reads where one saw them; the count of fresh reads is
/// returned with `s⁽ᵐ⁾`.
fn solve_window(
    parasitics: &Parasitics,
    diag: &[f64],
    walks: &[Walk],
    m: usize,
) -> Result<(Vec<f64>, usize), CoreError> {
    let idx = &walks[m].window;
    let Ok(pos_m) = idx.binary_search(&m) else {
        return Err(CoreError::InvalidParameter {
            reason: "every aggressor's window must contain the aggressor",
        });
    };
    let mut reads = 0;
    let mut entry = |i: usize, j: usize| -> Result<f64, CoreError> {
        if i == j {
            return Ok(diag[i]);
        }
        for (r, c) in [(i, j), (j, i)] {
            let row = &walks[r].row;
            if let Ok(k) = row.binary_search_by_key(&c, |e| e.0) {
                return Ok(row[k].1);
            }
        }
        reads += 1;
        read(parasitics, i, j)
    };
    let k = idx.len();
    let mut sub = DenseMatrix::<f64>::zeros(k, k);
    for p in 0..k {
        for q in p..k {
            let v = entry(idx[p], idx[q])?;
            sub[(p, q)] = v;
            sub[(q, p)] = v;
        }
    }
    let mut e = vec![0.0; k];
    e[pos_m] = 1.0;
    // The submatrix of an s.p.d. matrix is s.p.d.; fall back to LU for
    // numerically borderline geometry.
    let s = match Cholesky::new(&sub) {
        Ok(ch) => ch.solve(&e)?,
        Err(_) => LuFactor::new(&sub)?.solve(&e)?,
    };
    Ok((s, reads))
}

/// Merges the window solves into `Ĝ` with eq. (18).
///
/// A pair is kept only when *both* windows contain each other —
/// symmetric windows are what makes the eq. (19) dominance argument
/// airtight: every kept |S′ₘₙ| is bounded by the corresponding entry of
/// aggressor m's own window solve, whose row is dominated by s⁽ᵐ⁾ₘ.
fn merge(lengths: &[f64], walks: &[Walk], solves: &[(Vec<f64>, usize)]) -> VpecModel {
    let n = walks.len();
    let mut g_diag = Vec::with_capacity(n);
    let mut g_off = Vec::new();
    for (m, (walk, (s, _))) in walks.iter().zip(solves).enumerate() {
        for (k, &j) in walk.window.iter().enumerate() {
            if j == m {
                g_diag.push(lengths[m] * lengths[m] * s[k]);
                continue;
            }
            if j < m {
                continue;
            }
            let Ok(back) = walks[j].window.binary_search(&m) else {
                continue;
            };
            // Eq. (18): keep the smaller-magnitude candidate, the first
            // (aggressor m < j) on a tie; for the typical all-negative
            // entries this is exactly `max`.
            let theirs = solves[j].0[back];
            let v = if theirs.abs() < s[k].abs() {
                theirs
            } else {
                s[k]
            };
            let g = lengths[m] * lengths[j] * v;
            if g != 0.0 {
                g_off.push((m, j, g));
            }
        }
    }
    VpecModel::from_parts(lengths.to_vec(), g_diag, g_off)
}

/// Geometric windowing (gwVPEC): a uniform window of the `b` most strongly
/// coupled conductors (by `|Lₘⱼ|`, ties to the lower index) around each
/// aggressor. For an aligned parallel bus this is exactly the paper's
/// "coupling window with uniform size b".
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] if `b == 0` or there are no
///   filaments.
/// * [`CoreError::BadInductanceMatrix`] if an entry it reads is
///   non-finite, a diagonal entry is not positive, a caller-supplied `L`
///   has either defect anywhere, or a window submatrix is singular.
pub fn windowed_geometric(parasitics: &Parasitics, b: usize) -> Result<VpecModel, CoreError> {
    let _sp = vpec_trace::span!(
        "model.window",
        "kind" => "geometric",
        "dim" => parasitics.len(),
    );
    if b == 0 {
        return Err(CoreError::InvalidParameter {
            reason: "window size b must be at least 1",
        });
    }
    windowed_by(parasitics, |m, _| geometric_walk(parasitics, m, b - 1))
}

/// Numerical windowing (nwVPEC) for general layouts: the window of
/// aggressor `m` contains every conductor whose coupling strength
/// `|Lₘⱼ|/Lₘₘ` reaches `threshold` (the paper uses 1.5e-4 for the spiral).
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] if `threshold` is negative/NaN or
///   there are no filaments.
/// * [`CoreError::BadInductanceMatrix`] as for [`windowed_geometric`]; a
///   non-positive diagonal would divide the coupling ratio by zero.
pub fn windowed_numerical(parasitics: &Parasitics, threshold: f64) -> Result<VpecModel, CoreError> {
    let _sp = vpec_trace::span!(
        "model.window",
        "kind" => "numerical",
        "dim" => parasitics.len(),
    );
    if !threshold.is_finite() || threshold < 0.0 {
        return Err(CoreError::InvalidParameter {
            reason: "window threshold must be a nonnegative finite number",
        });
    }
    windowed_by(parasitics, |m, lmm| {
        numerical_walk(parasitics, m, lmm, threshold)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_extract::{extract, ExtractionConfig};
    use vpec_geometry::{BusSpec, SpiralSpec};

    fn bus_parasitics(bits: usize) -> Parasitics {
        extract(
            &BusSpec::new(bits).build(),
            &ExtractionConfig::paper_default(),
        )
    }

    #[test]
    fn full_window_matches_full_inversion() {
        let para = bus_parasitics(8);
        let full = VpecModel::full(&para).unwrap();
        let win = windowed_geometric(&para, 8).unwrap();
        // With b = N every window is the whole matrix: exact inverse.
        let diff = full.g_matrix().max_abs_diff(&win.g_matrix()).unwrap();
        let scale = full.g_matrix().max_abs();
        assert!(diff < 1e-9 * scale, "diff {diff} vs scale {scale}");
    }

    #[test]
    fn geometric_window_selects_strongest_couplings_deterministically() {
        // Regression for the comparator switch to `total_cmp`: window
        // membership must still be conductor m plus its b−1 largest-|L|
        // partners, and repeated builds must agree bit-for-bit.
        let para = bus_parasitics(9);
        let a = windowed_geometric(&para, 3).unwrap();
        let b = windowed_geometric(&para, 3).unwrap();
        assert_eq!(a.g_diag(), b.g_diag());
        assert_eq!(a.g_off(), b.g_off());
        // Inductive coupling on a uniform bus decays with distance, so
        // the middle conductor's window is its two nearest neighbors:
        // row 4 of Ĝ couples to exactly {3, 5}.
        let mut partners: Vec<usize> = a
            .g_off()
            .iter()
            .filter_map(|&(i, j, _)| match (i, j) {
                (4, j) => Some(j),
                (i, 4) => Some(i),
                _ => None,
            })
            .collect();
        partners.sort_unstable();
        assert_eq!(partners, vec![3, 5], "window of the middle conductor");
    }

    #[test]
    fn windowed_model_is_sparse_and_passive() {
        let para = bus_parasitics(24);
        let win = windowed_geometric(&para, 6).unwrap();
        assert!(win.sparse_factor() < 0.5);
        let rep = win.passivity_report();
        assert!(rep.is_passive(), "windowing must preserve passivity");
        assert!(rep.strictly_diag_dominant, "eq. (19)");
    }

    #[test]
    fn window_of_one_is_diagonal() {
        let para = bus_parasitics(5);
        let win = windowed_geometric(&para, 1).unwrap();
        assert_eq!(win.g_off().len(), 0);
        for i in 0..5 {
            // S'mm = 1/Lmm for a 1×1 window.
            let expected = para.lengths[i] * para.lengths[i] / para.mutual(i, i);
            assert!((win.g_diag()[i] - expected).abs() < 1e-9 * expected);
        }
    }

    #[test]
    fn windowed_more_accurate_than_truncation_at_same_sparsity() {
        // The paper's §V finding: windowing interpolates with neighbouring
        // entries, so its kept entries approximate the true inverse better
        // than simply truncating the exact inverse *rows it did not keep*.
        // Here: compare the full Ĝ against (a) gtVPEC with (b,1) and
        // (b) gwVPEC with window b, same sparsity, in matrix norm.
        let para = bus_parasitics(32);
        let layout = BusSpec::new(32).build();
        let full = VpecModel::full(&para).unwrap();
        let b = 8;
        let trunc = crate::truncation::truncate_geometric(&full, &layout, b, 1).unwrap();
        let win = windowed_geometric(&para, b).unwrap();
        // Measure how well each sparse Ĝ reproduces Ĝ_full action on the
        // all-ones vector (a crude but monotone accuracy proxy).
        let ones = vec![1.0; full.len()];
        let ref_v = full.g_matrix().matvec(&ones).unwrap();
        let tv = trunc.g_matrix().matvec(&ones).unwrap();
        let wv = win.g_matrix().matvec(&ones).unwrap();
        let err = |v: &[f64]| -> f64 {
            v.iter()
                .zip(ref_v.iter())
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
        };
        assert!(
            err(&wv) <= err(&tv) * 1.5,
            "windowed {} should not be much worse than truncated {}",
            err(&wv),
            err(&tv)
        );
    }

    #[test]
    fn numerical_windowing_on_spiral_is_passive() {
        let spec = SpiralSpec::paper_three_turn();
        let layout = spec.build();
        let cfg = ExtractionConfig::paper_default()
            .with_substrate(spec.substrate_spec().expect("paper spiral has substrate"));
        let para = extract(&layout, &cfg);
        let win = windowed_numerical(&para, 1.5e-4).unwrap();
        assert!(win.sparse_factor() < 1.0);
        let rep = win.passivity_report();
        assert!(rep.positive_definite, "spiral wVPEC must stay passive");
    }

    #[test]
    fn numerical_threshold_monotone() {
        let para = bus_parasitics(16);
        let loose = windowed_numerical(&para, 1e-6).unwrap();
        let tight = windowed_numerical(&para, 0.3).unwrap();
        assert!(tight.element_count() <= loose.element_count());
    }

    #[test]
    fn parameter_validation() {
        let para = bus_parasitics(3);
        assert!(windowed_geometric(&para, 0).is_err());
        assert!(windowed_numerical(&para, -0.5).is_err());
        assert!(windowed_numerical(&para, f64::NAN).is_err());
    }

    #[test]
    fn non_finite_coupling_is_rejected_not_missorted() {
        // Regression: a NaN off-diagonal used to compare as `Equal` in the
        // coupling-strength sort, silently producing input-order-dependent
        // windows instead of an error.
        let para = bus_parasitics(6);
        let mut l = para.inductance().clone();
        l[(2, 4)] = f64::NAN;
        l[(4, 2)] = f64::NAN;
        let para = para.with_inductance(l);
        match windowed_geometric(&para, 3) {
            Err(CoreError::BadInductanceMatrix(NumericsError::NonFinite { index, .. })) => {
                assert_eq!(index, (2, 4));
            }
            other => panic!("expected NonFinite error, got {other:?}"),
        }
        assert!(matches!(
            windowed_numerical(&para, 1e-4),
            Err(CoreError::BadInductanceMatrix(
                NumericsError::NonFinite { .. }
            ))
        ));
    }

    #[test]
    fn bad_diagonal_is_rejected_not_divided_by() {
        // Regression: `windowed_numerical` used to divide |Lmj| by Lmm
        // unchecked; a zero or negative self-inductance produced NaN/∞
        // coupling ratios and silently wrong windows.
        for bad in [0.0, -1e-9] {
            let para = bus_parasitics(5);
            let mut l = para.inductance().clone();
            l[(3, 3)] = bad;
            let para = para.with_inductance(l);
            match windowed_numerical(&para, 1e-4) {
                Err(CoreError::BadInductanceMatrix(NumericsError::NotPositiveDefinite { row })) => {
                    assert_eq!(row, 3)
                }
                other => panic!("expected NotPositiveDefinite for Lmm={bad}, got {other:?}"),
            }
            assert!(matches!(
                windowed_geometric(&para, 2),
                Err(CoreError::BadInductanceMatrix(
                    NumericsError::NotPositiveDefinite { .. }
                ))
            ));
        }
    }

    #[test]
    fn oversized_window_clamps() {
        let para = bus_parasitics(4);
        let win = windowed_geometric(&para, 100).unwrap();
        assert_eq!(win.g_off().len(), 6, "4 choose 2 pairs");
    }
}
