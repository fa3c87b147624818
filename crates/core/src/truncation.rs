//! tVPEC: truncation-based sparsification (paper §IV).
//!
//! Both truncations delete small off-diagonal entries of the full model's
//! `Ĝ`, keeping the diagonal; because `Ĝ` is strictly diagonally dominant
//! (Theorem 2) the result is provably passive. They differ in when they
//! choose:
//!
//! * geometric truncation (gtVPEC) knows its pairs from the layout, so
//!   [`geometric_window`] is a keep predicate that
//!   [`VpecModel::full_cancel`] applies while inverting: only the kept
//!   entries of `L⁻¹` are ever formed;
//! * numerical truncation (ntVPEC) needs the values, so
//!   [`truncate_numerical`] filters the full model after the `O(N³)`
//!   inversion.

use crate::{CoreError, VpecModel};
use vpec_geometry::Layout;

/// The couplings geometric truncation (gtVPEC) keeps on an aligned
/// parallel bus of `n` filaments: the paper's truncating window
/// `(N_W, N_L)`, where `N_W` and `N_L` are "the numbers of coupled
/// segments in the directions of wire width and length". A coupling
/// between filaments `i` and `j` is kept iff their lines are at most
/// `N_W/2` bits apart *and* their segment positions are at most `N_L/2`
/// segments apart — i.e. the window counts *total* coupled neighbours, so
/// gtVPEC `(b, 1)` and gwVPEC with window size `b` have the same
/// sparsification ratio (as the paper's Fig. 5 comparison assumes).
///
/// `(8, 2)` is the paper's fastest Table II setting (±4 bits, ±1
/// segment). gtVPEC is `VpecModel::full_cancel(p, window, …)`, or
/// `full.retain(window)` from a full model, entry for entry.
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] if `nw` or `nl` is zero.
/// * [`CoreError::ShapeMismatch`] if the layout does not have `n`
///   filaments.
pub fn geometric_window(
    layout: &Layout,
    n: usize,
    nw: usize,
    nl: usize,
) -> Result<impl Fn(usize, usize) -> bool + Sync, CoreError> {
    if nw == 0 || nl == 0 {
        return Err(CoreError::InvalidParameter {
            reason: "truncating window dimensions must be at least 1",
        });
    }
    if layout.filaments().len() != n {
        return Err(CoreError::ShapeMismatch {
            parasitics: n,
            layout: layout.filaments().len(),
        });
    }
    // (bit, segment) coordinates per filament, from the net structure.
    let mut coord = vec![(0usize, 0usize); n];
    for (bit, net) in layout.nets().iter().enumerate() {
        for (seg, &f) in net.filaments().iter().enumerate() {
            coord[f] = (bit, seg);
        }
    }
    Ok(move |i: usize, j: usize| {
        let (bi, si) = coord[i];
        let (bj, sj) = coord[j];
        bi.abs_diff(bj) <= nw / 2 && si.abs_diff(sj) <= nl / 2
    })
}

/// Numerical truncation (ntVPEC), applicable to conductors of any shape:
/// keep `Ĝᵢⱼ` iff its **coupling strength** — the ratio of the off-diagonal
/// element to its corresponding diagonal element — reaches `threshold` in
/// either row `i` or row `j`.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] if `threshold` is negative or not
/// finite.
pub fn truncate_numerical(full: &VpecModel, threshold: f64) -> Result<VpecModel, CoreError> {
    let _sp = vpec_trace::span!("model.truncate", "kind" => "numerical", "dim" => full.len());
    if !threshold.is_finite() || threshold < 0.0 {
        return Err(CoreError::InvalidParameter {
            reason: "truncation threshold must be a nonnegative finite number",
        });
    }
    let diag = full.g_diag();
    let g_off = full
        .g_off()
        .iter()
        .filter(|&&(i, j, v)| v.abs() / diag[i] >= threshold || v.abs() / diag[j] >= threshold)
        .copied()
        .collect();
    Ok(VpecModel::from_parts(
        full.lengths().to_vec(),
        diag.to_vec(),
        g_off,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_extract::{extract, ExtractionConfig};
    use vpec_geometry::BusSpec;

    /// gtVPEC as `retain` of a full model.
    fn truncate_geometric(
        full: &VpecModel,
        layout: &Layout,
        nw: usize,
        nl: usize,
    ) -> Result<VpecModel, CoreError> {
        Ok(full.retain(geometric_window(layout, full.len(), nw, nl)?))
    }

    fn full_model(bits: usize, segs: usize) -> (VpecModel, Layout) {
        let layout = BusSpec::new(bits).segments(segs).build();
        let para = extract(&layout, &ExtractionConfig::paper_default());
        (VpecModel::full(&para).unwrap(), layout)
    }

    #[test]
    fn factor_built_truncations_equal_retain_of_the_full_model() {
        // gtVPEC and localized VPEC form only their kept entries of L⁻¹,
        // straight from the Cholesky factor. On a 2-segment bus whose
        // lines are misaligned (so forward couplings, parallel neighbours
        // at several distances and abutting segments all occur), each must
        // keep exactly the pairs `retain` keeps of the full model, with
        // the same bits: every entry is one dot product, whichever others
        // are formed.
        use crate::harness::{Experiment, ModelKind};
        let layout = BusSpec::new(9).segments(2).misalignment(0.5).build();
        let exp = Experiment::new(
            layout,
            &ExtractionConfig::paper_default(),
            crate::DriveConfig::paper_default(),
        );
        let full = VpecModel::full(&exp.parasitics).unwrap();
        let bits = |m: &VpecModel| {
            let diag: Vec<u64> = m.g_diag().iter().map(|v| v.to_bits()).collect();
            let off: Vec<(usize, usize, u64)> = m
                .g_off()
                .iter()
                .map(|&(i, j, v)| (i, j, v.to_bits()))
                .collect();
            (diag, off)
        };
        let cases = [
            (
                ModelKind::TVpecGeometric { nw: 4, nl: 1 },
                truncate_geometric(&full, &exp.layout, 4, 1).unwrap(),
            ),
            (
                ModelKind::TVpecGeometric { nw: 8, nl: 2 },
                truncate_geometric(&full, &exp.layout, 8, 2).unwrap(),
            ),
            (
                ModelKind::VpecLocalized,
                full.retain(crate::model::adjacent_pairs(&exp.layout)),
            ),
        ];
        for (kind, expected) in cases {
            let (built, _) = exp.vpec_model(kind).unwrap();
            assert!(!expected.g_off().is_empty() && expected.g_off().len() < full.g_off().len());
            assert_eq!(bits(&built), bits(&expected), "{}", kind.label());
        }
    }

    #[test]
    fn full_window_keeps_everything() {
        let (m, layout) = full_model(4, 2);
        // ±4 bits, ±2 segments covers every pair of a 4×2 bus.
        let t = truncate_geometric(&m, &layout, 8, 4).unwrap();
        assert_eq!(t.g_off().len(), m.g_off().len());
    }

    #[test]
    fn narrow_window_truncates() {
        let (m, layout) = full_model(8, 1);
        let t = truncate_geometric(&m, &layout, 2, 1).unwrap();
        // Window 2 → |bit difference| ≤ 1: the 7 adjacent pairs.
        assert_eq!(t.g_off().len(), 7);
        for &(i, j, _) in t.g_off() {
            assert_eq!(j - i, 1);
        }
    }

    #[test]
    fn window_cuts_forward_coupling_independently() {
        let (m, layout) = full_model(2, 4);
        // nw=2 keeps adjacent bits; nl=1 keeps only same-segment pairs.
        let t = truncate_geometric(&m, &layout, 2, 1).unwrap();
        for &(i, j, _) in t.g_off() {
            // Filaments 0..4 = bit0 segs, 4..8 = bit1 segs.
            let (si, sj) = (i % 4, j % 4);
            assert_eq!(si, sj, "only aligned (same-segment) couplings kept");
            assert!(i < 4 && j >= 4, "same-line forward couplings dropped");
        }
        assert_eq!(t.g_off().len(), 4);
    }

    #[test]
    fn matches_windowed_sparsity() {
        // The paper compares gtVPEC (b,1) with gwVPEC(b) "to achieve the
        // same sparsification ratio" — the half-window semantics make the
        // kept-pair counts close for interior wires.
        let (m, layout) = full_model(32, 1);
        let t = truncate_geometric(&m, &layout, 8, 1).unwrap();
        let para = vpec_extract::extract(
            &vpec_geometry::BusSpec::new(32).build(),
            &vpec_extract::ExtractionConfig::paper_default(),
        );
        let w = crate::windowed::windowed_geometric(&para, 8).unwrap();
        let ratio = t.element_count() as f64 / w.element_count() as f64;
        assert!(
            (0.7..=1.4).contains(&ratio),
            "sparsities should be comparable, ratio {ratio}"
        );
    }

    #[test]
    fn geometric_truncation_preserves_passivity() {
        let (m, layout) = full_model(12, 1);
        let t = truncate_geometric(&m, &layout, 4, 1).unwrap();
        let rep = t.passivity_report();
        assert!(rep.is_passive());
        assert!(rep.strictly_diag_dominant);
    }

    #[test]
    fn numerical_truncation_thresholds() {
        let (m, _) = full_model(10, 1);
        let none = truncate_numerical(&m, 0.0).unwrap();
        assert_eq!(none.g_off().len(), m.g_off().len());
        let all = truncate_numerical(&m, 1.0).unwrap();
        assert_eq!(all.g_off().len(), 0, "no off-diagonal reaches its diagonal");
        let some = truncate_numerical(&m, 0.05).unwrap();
        assert!(some.g_off().len() < m.g_off().len());
        assert!(!some.g_off().is_empty());
        // Larger thresholds keep fewer entries (monotonicity).
        let tighter = truncate_numerical(&m, 0.15).unwrap();
        assert!(tighter.g_off().len() <= some.g_off().len());
    }

    #[test]
    fn numerical_truncation_preserves_passivity() {
        let (m, _) = full_model(16, 1);
        let t = truncate_numerical(&m, 0.02).unwrap();
        let rep = t.passivity_report();
        assert!(rep.is_passive());
        assert!(rep.strictly_diag_dominant);
    }

    #[test]
    fn numerical_keeps_strongest_neighbours() {
        let (m, _) = full_model(10, 1);
        let t = truncate_numerical(&m, 0.05).unwrap();
        // Adjacent couplings are the strongest and must survive.
        for i in 0..9 {
            assert!(
                t.coupling_resistance(i, i + 1).is_some(),
                "adjacent coupling ({i},{}) must be kept",
                i + 1
            );
        }
    }

    #[test]
    fn parameter_validation() {
        let (m, layout) = full_model(2, 1);
        assert!(truncate_geometric(&m, &layout, 0, 1).is_err());
        assert!(truncate_geometric(&m, &layout, 1, 0).is_err());
        assert!(truncate_numerical(&m, -1.0).is_err());
        assert!(truncate_numerical(&m, f64::NAN).is_err());
        let other = BusSpec::new(5).build();
        assert!(matches!(
            truncate_geometric(&m, &other, 1, 1),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }
}
