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

use crate::{CoreError, VpecModel};
use std::collections::HashMap;
use vpec_extract::Parasitics;
use vpec_numerics::{Cholesky, DenseMatrix, LuFactor, NumericsError};

/// Rejects inductance matrices the window machinery cannot safely
/// consume: any non-finite entry would make the coupling-strength sort
/// input-order-dependent (NaN compares as `Equal`), and a zero/negative
/// diagonal would turn the `|Lₘⱼ|/Lₘₘ` ratios into NaN/∞ and silently
/// mis-select windows.
fn validate_inductance(l: &DenseMatrix<f64>) -> Result<(), CoreError> {
    for i in 0..l.rows() {
        for j in 0..l.cols() {
            if !l[(i, j)].is_finite() {
                return Err(CoreError::BadInductanceMatrix(NumericsError::NonFinite {
                    op: "wVPEC windowing",
                    index: (i, j),
                }));
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

/// Geometric windowing (gwVPEC): a uniform window of the `b` most strongly
/// coupled conductors (by `|Lₘⱼ|`) around each aggressor. For an aligned
/// parallel bus this is exactly the paper's "coupling window with uniform
/// size b".
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] if `b == 0`.
/// * [`CoreError::BadInductanceMatrix`] if `L` has non-finite entries, a
///   non-positive diagonal, or a singular window submatrix.
pub fn windowed_geometric(parasitics: &Parasitics, b: usize) -> Result<VpecModel, CoreError> {
    let _sp = vpec_trace::span!(
        "model.window",
        "kind" => "geometric",
        "dim" => parasitics.inductance.rows(),
    );
    if b == 0 {
        return Err(CoreError::InvalidParameter {
            reason: "window size b must be at least 1",
        });
    }
    validate_inductance(&parasitics.inductance)?;
    let n = parasitics.inductance.rows();
    let l = &parasitics.inductance;
    let mut windows = Vec::with_capacity(n);
    for m in 0..n {
        let mut others: Vec<usize> = (0..n).filter(|&j| j != m).collect();
        // `total_cmp` keeps the ordering deterministic even for the NaN
        // entries `validate_inductance` already rejects above; `abs()`
        // never produces -0.0 here, so it agrees with the partial order
        // on every value that can reach this sort.
        others.sort_by(|&x, &y| l[(m, y)].abs().total_cmp(&l[(m, x)].abs()));
        let mut idx: Vec<usize> = std::iter::once(m)
            .chain(others.into_iter().take(b.saturating_sub(1)))
            .collect();
        idx.sort_unstable();
        windows.push(idx);
    }
    windowed_from(parasitics, &windows)
}

/// Numerical windowing (nwVPEC) for general layouts: the window of
/// aggressor `m` contains every conductor whose coupling strength
/// `|Lₘⱼ|/Lₘₘ` reaches `threshold` (the paper uses 1.5e-4 for the spiral).
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] if `threshold` is negative/NaN.
/// * [`CoreError::BadInductanceMatrix`] if `L` has non-finite entries, a
///   non-positive diagonal (which would divide the coupling ratio by
///   zero), or a singular window submatrix.
pub fn windowed_numerical(parasitics: &Parasitics, threshold: f64) -> Result<VpecModel, CoreError> {
    let _sp = vpec_trace::span!(
        "model.window",
        "kind" => "numerical",
        "dim" => parasitics.inductance.rows(),
    );
    if !threshold.is_finite() || threshold < 0.0 {
        return Err(CoreError::InvalidParameter {
            reason: "window threshold must be a nonnegative finite number",
        });
    }
    validate_inductance(&parasitics.inductance)?;
    let n = parasitics.inductance.rows();
    let l = &parasitics.inductance;
    let mut windows = Vec::with_capacity(n);
    for m in 0..n {
        let lmm = l[(m, m)];
        let mut idx: Vec<usize> = (0..n)
            .filter(|&j| j == m || l[(m, j)].abs() / lmm >= threshold)
            .collect();
        idx.sort_unstable();
        windows.push(idx);
    }
    windowed_from(parasitics, &windows)
}

/// Shared submatrix-solve + merge machinery.
fn windowed_from(parasitics: &Parasitics, windows: &[Vec<usize>]) -> Result<VpecModel, CoreError> {
    let n = parasitics.inductance.rows();
    if n == 0 {
        return Err(CoreError::InvalidParameter {
            reason: "cannot build a VPEC model over zero filaments",
        });
    }
    let l = &parasitics.inductance;
    let lengths = &parasitics.lengths;

    let mut s_diag = vec![0.0f64; n];
    // (i, j) with i < j → (merged S′ candidate, number of windows that
    // produced one). A pair is kept only when *both* windows contain each
    // other — symmetric windows are what makes the eq. (19) dominance
    // argument airtight: every kept |S′ₘₙ| is bounded by the corresponding
    // entry of aggressor m's own window solve, whose row is dominated by
    // s⁽ᵐ⁾ₘ.
    let mut s_off: HashMap<(usize, usize), (f64, u8)> = HashMap::new();

    for (m, idx) in windows.iter().enumerate() {
        let Ok(pos_m) = idx.binary_search(&m) else {
            return Err(CoreError::InvalidParameter {
                reason: "every aggressor's window must contain the aggressor",
            });
        };
        let sub = l.principal_submatrix(idx);
        let mut e = vec![0.0; idx.len()];
        e[pos_m] = 1.0;
        // The submatrix of an s.p.d. matrix is s.p.d.; fall back to LU for
        // numerically borderline geometry.
        let s = match Cholesky::new(&sub) {
            Ok(ch) => ch.solve(&e)?,
            Err(_) => LuFactor::new(&sub)?.solve(&e)?,
        };
        for (k, &j) in idx.iter().enumerate() {
            if j == m {
                s_diag[m] = s[k];
            } else {
                let key = (m.min(j), m.max(j));
                // Eq. (18): keep the smaller-magnitude candidate (for the
                // typical all-negative entries this is exactly `max`).
                s_off
                    .entry(key)
                    .and_modify(|(v, seen)| {
                        if s[k].abs() < v.abs() {
                            *v = s[k];
                        }
                        *seen += 1;
                    })
                    .or_insert((s[k], 1));
            }
        }
    }

    let mut g_off: Vec<(usize, usize, f64)> = s_off
        .into_iter()
        .filter(|&(_, (_, seen))| seen >= 2)
        .map(|((i, j), (s, _))| (i, j, lengths[i] * lengths[j] * s))
        .filter(|&(_, _, v)| v != 0.0)
        .collect();
    g_off.sort_by_key(|&(i, j, _)| (i, j));
    let g_diag: Vec<f64> = s_diag
        .iter()
        .enumerate()
        .map(|(i, &s)| lengths[i] * lengths[i] * s)
        .collect();
    Ok(VpecModel::from_parts(lengths.clone(), g_diag, g_off))
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
            let expected = para.lengths[i] * para.lengths[i] / para.inductance[(i, i)];
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
        assert!(rep.symmetric);
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
        let mut para = bus_parasitics(6);
        para.inductance[(2, 4)] = f64::NAN;
        para.inductance[(4, 2)] = f64::NAN;
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
            let mut para = bus_parasitics(5);
            para.inductance[(3, 3)] = bad;
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
