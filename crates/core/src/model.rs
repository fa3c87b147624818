//! The VPEC model: the circuit matrix `Ĝ`, effective resistances, and the
//! passivity properties of Theorems 1–2.

use crate::CoreError;
use vpec_extract::Parasitics;
use vpec_geometry::Layout;
use vpec_numerics::{
    CancelToken, Cholesky, CooMatrix, CsrMatrix, DenseMatrix, LuFactor, NumericsError,
};

/// A VPEC model: the symmetric circuit matrix `Ĝ` stored sparsely
/// (diagonal + one entry per off-diagonal pair) together with the
/// filament lengths that scale it.
///
/// Symmetry is a property of the type: each pair `(i, j)`, `i < j`, is
/// stored once and stands for both `Ĝᵢⱼ` and `Ĝⱼᵢ`, so every `Ĝ` a
/// `VpecModel` holds equals its transpose and no check needs to test it.
///
/// Physical reading (paper §II): the magnetic circuit has one node per
/// filament; node `i` ties to vector-potential ground through
/// `R̂ᵢ₀ = 1/(Ĝᵢᵢ + Σⱼ Ĝᵢⱼ)` and to node `j` through `R̂ᵢⱼ = −1/Ĝᵢⱼ`.
/// Sparsification (tVPEC/wVPEC) deletes off-diagonal entries while keeping
/// the diagonal, which Theorem 2 shows preserves passivity.
#[derive(Debug, Clone, PartialEq)]
pub struct VpecModel {
    lengths: Vec<f64>,
    /// `Ĝᵢᵢ` per filament.
    g_diag: Vec<f64>,
    /// `(i, j, Ĝᵢⱼ)` with `i < j`, typically negative entries.
    g_off: Vec<(usize, usize, f64)>,
}

impl VpecModel {
    /// Builds the **full VPEC model** by inverting the partial-inductance
    /// matrix: `S = L⁻¹`, `Ĝ = Dₗ·S·Dₗ` (paper eq. (9)–(10), generalized
    /// to per-filament lengths `Ĝᵢⱼ = lᵢ·lⱼ·Sᵢⱼ`).
    ///
    /// Uses Cholesky (the matrix is s.p.d. for physical geometry) and falls
    /// back to LU if rounding pushed the extracted `L` off definiteness.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadInductanceMatrix`] if `L` is singular, and
    /// [`CoreError::InvalidParameter`] for an empty model.
    pub fn full(parasitics: &Parasitics) -> Result<Self, CoreError> {
        Self::full_cancel(parasitics, |_, _| true, &CancelToken::none())
    }

    /// The full model's diagonal and the couplings `(i, j)`, `i < j`, for
    /// which `keep(i, j)` holds: `VpecModel::full(p).retain(keep)`, entry
    /// for entry, without forming the others. From the Cholesky factor
    /// `L = G·Gᵀ`, each kept `Sᵢⱼ` is one dot product of two columns of
    /// `G⁻¹` ([`Cholesky::inverse_entries`]), so a truncated model costs
    /// the factor and `G⁻¹` but neither an `n × n` inverse nor an `n²`
    /// entry list. The LU fallback forms its dense inverse and keeps the
    /// same pairs.
    ///
    /// The token is threaded through the factorization (polled per
    /// elimination column) and the inversion (polled per block of four
    /// columns of `G⁻¹` and per tile of entries, or per column on the LU
    /// fallback), so a deadline watchdog can abort the O(N³) hot path
    /// mid-flight.
    ///
    /// # Errors
    ///
    /// As [`VpecModel::full`]; a fired token surfaces as
    /// [`CoreError::BadInductanceMatrix`] wrapping
    /// [`NumericsError::Cancelled`](vpec_numerics::NumericsError::Cancelled).
    pub fn full_cancel(
        parasitics: &Parasitics,
        keep: impl Fn(usize, usize) -> bool + Sync,
        cancel: &CancelToken,
    ) -> Result<Self, CoreError> {
        let l = parasitics.inductance();
        let lengths = &parasitics.lengths;
        let n = l.rows();
        if n == 0 {
            return Err(CoreError::InvalidParameter {
                reason: "cannot build a VPEC model over zero filaments",
            });
        }
        let mut sp = vpec_trace::span!("model.invert", "dim" => n);
        let threads = vpec_numerics::pool::max_threads();
        match Cholesky::with_threads_cancel(l, threads, cancel) {
            Ok(ch) => {
                sp.set_attr("backend", "cholesky");
                let s = ch.inverse_entries(keep, cancel)?;
                let g_diag = s.diag.iter().zip(lengths).map(|(d, l)| l * l * d).collect();
                let g_off = s
                    .upper
                    .into_iter()
                    .map(|(i, j, v)| (i, j, lengths[i] * lengths[j] * v))
                    .filter(|&(_, _, v)| v != 0.0)
                    .collect();
                Ok(VpecModel {
                    lengths: lengths.clone(),
                    g_diag,
                    g_off,
                })
            }
            // A cancelled factorization must not fall through to the LU
            // retry — that would restart the work the deadline just killed.
            Err(e @ NumericsError::Cancelled { .. }) => Err(e.into()),
            Err(_) => {
                sp.set_attr("backend", "lu");
                let s = LuFactor::new_cancel(l, cancel)?.inverse_cancel(cancel)?;
                Ok(Self::from_inverse(&s, lengths, keep))
            }
        }
    }

    /// Builds a model from an approximate inverse `S` of `L`, the filament
    /// lengths and the couplings to keep. Off-diagonal entries are
    /// symmetrized by averaging, since an LU inverse is symmetric only to
    /// rounding.
    fn from_inverse(
        s: &DenseMatrix<f64>,
        lengths: &[f64],
        keep: impl Fn(usize, usize) -> bool,
    ) -> Self {
        let n = s.rows();
        let mut g_diag = Vec::with_capacity(n);
        let mut g_off = Vec::new();
        for i in 0..n {
            g_diag.push(lengths[i] * lengths[i] * s[(i, i)]);
            for j in (i + 1)..n {
                let v = lengths[i] * lengths[j] * 0.5 * (s[(i, j)] + s[(j, i)]);
                if v != 0.0 && keep(i, j) {
                    g_off.push((i, j, v));
                }
            }
        }
        VpecModel {
            lengths: lengths.to_vec(),
            g_diag,
            g_off,
        }
    }

    /// Builds a model directly from sparse `Ĝ` entries (used by the
    /// windowed extraction).
    ///
    /// # Panics
    ///
    /// Panics if an off-diagonal index is out of range or not strictly
    /// lower-triangular (`i < j`).
    pub fn from_parts(
        lengths: Vec<f64>,
        g_diag: Vec<f64>,
        g_off: Vec<(usize, usize, f64)>,
    ) -> Self {
        let n = lengths.len();
        assert_eq!(g_diag.len(), n, "diagonal must match length vector");
        for &(i, j, _) in &g_off {
            assert!(
                i < j && j < n,
                "off-diagonal indices must satisfy i < j < n"
            );
        }
        VpecModel {
            lengths,
            g_diag,
            g_off,
        }
    }

    /// Number of filaments.
    pub fn len(&self) -> usize {
        self.g_diag.len()
    }

    /// `true` for an empty model (cannot be constructed via [`full`]).
    ///
    /// [`full`]: VpecModel::full
    pub fn is_empty(&self) -> bool {
        self.g_diag.is_empty()
    }

    /// Filament lengths.
    pub fn lengths(&self) -> &[f64] {
        &self.lengths
    }

    /// Diagonal of `Ĝ`.
    pub fn g_diag(&self) -> &[f64] {
        &self.g_diag
    }

    /// Off-diagonal entries `(i, j, Ĝᵢⱼ)` with `i < j`.
    pub fn g_off(&self) -> &[(usize, usize, f64)] {
        &self.g_off
    }

    /// Stored circuit-element count: one ground resistance per filament
    /// plus one coupling resistance per kept off-diagonal pair.
    pub fn element_count(&self) -> usize {
        self.len() + self.g_off.len()
    }

    /// The paper's **sparse factor**: this model's element count over the
    /// full model's (`n + n(n−1)/2`).
    pub fn sparse_factor(&self) -> f64 {
        let n = self.len();
        let full = n + n * (n - 1) / 2;
        self.element_count() as f64 / full as f64
    }

    /// Effective coupling resistance `R̂ᵢⱼ = −1/Ĝᵢⱼ` for a kept pair, or
    /// `None` if the pair was truncated.
    pub fn coupling_resistance(&self, i: usize, j: usize) -> Option<f64> {
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.g_off
            .iter()
            .find(|&&(x, y, _)| x == a && y == b)
            .map(|&(_, _, g)| -1.0 / g)
    }

    /// Ground conductance `Ĝᵢᵢ + Σⱼ Ĝᵢⱼ` of every filament over the *kept*
    /// couplings (positive by strict diagonal dominance): the conductance
    /// to vector-potential ground that makes each magnetic node's total
    /// self-conductance equal `Ĝᵢᵢ`, and the reciprocal of the effective
    /// ground resistance `R̂ᵢ₀`. One pass over the couplings adds each to
    /// both its rows, in stored order.
    pub fn ground_conductances(&self) -> Vec<f64> {
        let mut g = self.g_diag.clone();
        for &(i, j, v) in &self.g_off {
            g[i] += v;
            g[j] += v;
        }
        g
    }

    /// Keeps only off-diagonal entries for which `keep(i, j)` is true; the
    /// diagonal is preserved, which is exactly the truncation Theorem 2
    /// proves passivity-preserving.
    #[must_use]
    pub fn retain(&self, mut keep: impl FnMut(usize, usize) -> bool) -> VpecModel {
        VpecModel {
            lengths: self.lengths.clone(),
            g_diag: self.g_diag.clone(),
            g_off: self
                .g_off
                .iter()
                .filter(|&&(i, j, _)| keep(i, j))
                .copied()
                .collect(),
        }
    }

    /// Densifies `Ĝ` (for verification and small models).
    pub fn g_matrix(&self) -> DenseMatrix<f64> {
        let n = self.len();
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = self.g_diag[i];
        }
        for &(i, j, v) in &self.g_off {
            m[(i, j)] = v;
            m[(j, i)] = v;
        }
        m
    }

    /// `Ĝ` with both triangles stored, in O(nnz).
    fn g_csr(&self) -> Result<CsrMatrix<f64>, NumericsError> {
        let n = self.len();
        let mut coo = CooMatrix::new(n, n);
        for (i, &d) in self.g_diag.iter().enumerate() {
            coo.push(i, i, d)?;
        }
        for &(i, j, v) in &self.g_off {
            coo.push(i, j, v)?;
            coo.push(j, i, v)?;
        }
        Ok(coo.to_csr())
    }

    /// `Σ_{j≠i} |Ĝᵢⱼ|` of every row `i`, from the stored entries.
    pub(crate) fn off_diagonal_abs_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0f64; self.len()];
        for &(i, j, v) in &self.g_off {
            sums[i] += v.abs();
            sums[j] += v.abs();
        }
        sums
    }

    /// Quantitative passivity margin: the extreme eigenvalues of `Ĝ`.
    /// `min > 0` certifies passivity with `min` as the distance to the
    /// boundary; the condition number indicates how aggressively further
    /// truncation could proceed.
    ///
    /// The `model.margin` span carries the power iterations' matvec count
    /// as its `iterations` attribute.
    ///
    /// # Errors
    ///
    /// Propagates numerics failures (cannot occur for a square `Ĝ`).
    pub fn passivity_margin(&self) -> Result<vpec_numerics::eigen::EigenExtremes, CoreError> {
        let mut sp = vpec_trace::span!("model.margin", "dim" => self.len());
        let margin = vpec_numerics::eigen::symmetric_extremes(&self.g_csr()?, 2000, 1e-10)?;
        sp.set_attr("iterations", margin.iterations);
        Ok(margin)
    }

    /// Checks the properties proved in §III on this concrete model, in
    /// O(nnz) whenever Theorem 2 holds.
    ///
    /// `Ĝ` is symmetric by construction (see [`VpecModel`]). A
    /// symmetric `Ĝ` whose positive diagonal strictly dominates every row
    /// has all its Gershgorin discs in the right half-plane, so it is
    /// positive definite (Theorem 2 ⇒ Theorem 1); only a model that fails
    /// that test is densified for a Cholesky factorization.
    pub fn passivity_report(&self) -> PassivityReport {
        let off = self.off_diagonal_abs_sums();
        let sdd = self.g_diag.iter().zip(&off).all(|(d, o)| d.abs() > *o);
        let gershgorin = sdd && self.g_diag.iter().all(|&d| d > 0.0);
        PassivityReport {
            strictly_diag_dominant: sdd,
            positive_definite: gershgorin || Cholesky::new(&self.g_matrix()).is_ok(),
        }
    }
}

/// The couplings the **localized VPEC** model of Pacelli keeps: only
/// those between geometrically adjacent filaments. As in the paper's
/// §II-C, the model is the accurate full model with only these couplings
/// left ("we find an accurate full VPEC model and then only keep the
/// adjacently coupled resistances"), so it is
/// `VpecModel::full_cancel(p, adjacent_pairs(&layout), …)`.
///
/// Adjacency: parallel filaments at (approximately) the minimal positive
/// radial distance of either filament, or abutting collinear segments of
/// the same line. Pairs outside the layout are not adjacent.
pub fn adjacent_pairs(layout: &Layout) -> impl Fn(usize, usize) -> bool + Sync + '_ {
    let fils = layout.filaments();
    let n = fils.len();
    // Minimal positive radial distance per filament among parallel
    // neighbours.
    let mut min_d = vec![f64::INFINITY; n];
    for i in 0..n {
        for j in 0..n {
            if i == j || !fils[i].is_parallel_to(&fils[j]) {
                continue;
            }
            let d = fils[i].radial_distance_to(&fils[j]);
            if d > 0.0 && d < min_d[i] {
                min_d[i] = d;
            }
        }
    }
    move |i, j| {
        let (Some(a), Some(b)) = (fils.get(i), fils.get(j)) else {
            return false;
        };
        if !a.is_parallel_to(b) {
            return false;
        }
        let d = a.radial_distance_to(b);
        if d == 0.0 {
            // Same line: adjacent iff the segments abut.
            let (s1, e1) = a.span();
            let (s2, e2) = b.span();
            return (e1 - s2).abs() < 1e-12 || (e2 - s1).abs() < 1e-12;
        }
        d <= 1.01 * min_d[i].min(min_d[j])
    }
}

/// Outcome of the passivity checks (Theorems 1–2 evaluated numerically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassivityReport {
    /// `Ĝᵢᵢ > Σ_{j≠i} |Ĝᵢⱼ|` for every row (Theorem 2).
    pub strictly_diag_dominant: bool,
    /// Cholesky succeeds, i.e. `Ĝ ≻ 0` (Theorem 1).
    pub positive_definite: bool,
}

impl PassivityReport {
    /// The model is passive iff `Ĝ` is positive definite (it is
    /// symmetric by construction).
    pub fn is_passive(&self) -> bool {
        self.positive_definite
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_extract::{extract, ExtractionConfig};
    use vpec_geometry::BusSpec;

    fn bus_model(bits: usize) -> (VpecModel, Layout) {
        let layout = BusSpec::new(bits).build();
        let para = extract(&layout, &ExtractionConfig::paper_default());
        (VpecModel::full(&para).unwrap(), layout)
    }

    #[test]
    fn full_model_is_passive_and_dominant() {
        let (m, _) = bus_model(12);
        let rep = m.passivity_report();
        assert!(rep.positive_definite, "Theorem 1");
        assert!(rep.strictly_diag_dominant, "Theorem 2");
        assert!(rep.is_passive());
    }

    #[test]
    fn g_equals_scaled_inverse() {
        let layout = BusSpec::new(6).build();
        let para = extract(&layout, &ExtractionConfig::paper_default());
        let m = VpecModel::full(&para).unwrap();
        let g = m.g_matrix();
        // Ĝ·(Dₗ⁻¹·L·Dₗ⁻¹) should be the identity.
        let n = g.rows();
        let mut l_scaled = para.inductance().clone();
        for i in 0..n {
            for j in 0..n {
                l_scaled[(i, j)] /= para.lengths[i] * para.lengths[j];
            }
        }
        let prod = g.matmul(&l_scaled).unwrap();
        assert!(
            prod.max_abs_diff(&DenseMatrix::identity(n)).unwrap() < 1e-6,
            "Ĝ must be the length-scaled inverse of L"
        );
    }

    #[test]
    fn indefinite_inductance_falls_back_to_lu() {
        // Negating one self inductance leaves L symmetric and nonsingular
        // but indefinite, so Cholesky fails and the inversion takes LU.
        let layout = BusSpec::new(6).build();
        let para = extract(&layout, &ExtractionConfig::paper_default());
        let mut l = para.inductance().clone();
        l[(2, 2)] = -l[(2, 2)];
        assert!(Cholesky::new(&l).is_err(), "L must be indefinite");
        let para = para.with_inductance(l);

        vpec_trace::reset("summary").unwrap();
        let m = VpecModel::full(&para).unwrap();
        let lu_inverts = vpec_trace::closed_spans().iter().any(|sp| {
            sp.name == "model.invert" && sp.attrs.contains(&("backend".into(), "lu".into()))
        });
        vpec_trace::reset("off").unwrap();
        assert!(lu_inverts, "model.invert must record the lu backend");

        // Ĝ·(Dₗ⁻¹·L·Dₗ⁻¹) is the identity, as for the Cholesky inverse.
        let g = m.g_matrix();
        let n = g.rows();
        let mut l_scaled = para.inductance().clone();
        for i in 0..n {
            for j in 0..n {
                l_scaled[(i, j)] /= para.lengths[i] * para.lengths[j];
            }
        }
        let prod = g.matmul(&l_scaled).unwrap();
        assert!(
            prod.max_abs_diff(&DenseMatrix::identity(n)).unwrap() < 1e-6,
            "Ĝ must be the length-scaled inverse of L"
        );

        // The LU inverse keeps the pairs it is asked to keep.
        let band = |i: usize, j: usize| j - i == 1;
        assert_eq!(
            VpecModel::full_cancel(&para, band, &CancelToken::none()).unwrap(),
            m.retain(band)
        );

        // A fired token stops the build instead of retrying through LU.
        let token = CancelToken::new();
        token.cancel();
        assert!(matches!(
            VpecModel::full_cancel(&para, |_, _| true, &token),
            Err(CoreError::BadInductanceMatrix(
                NumericsError::Cancelled { .. }
            ))
        ));
    }

    #[test]
    fn effective_resistances_positive_for_bus() {
        let (m, _) = bus_model(8);
        for (i, ground) in m.ground_conductances().into_iter().enumerate() {
            assert!(1.0 / ground > 0.0, "R̂i0 must be positive");
            for j in (i + 1)..m.len() {
                let r = m.coupling_resistance(i, j).expect("full model keeps all");
                assert!(r > 0.0, "R̂ij must be positive for a parallel bus");
            }
        }
    }

    #[test]
    fn nearest_coupling_is_strongest() {
        let (m, _) = bus_model(8);
        // Coupling resistance grows with separation (coupling weakens).
        let r01 = m.coupling_resistance(0, 1).unwrap();
        let r02 = m.coupling_resistance(0, 2).unwrap();
        let r05 = m.coupling_resistance(0, 5).unwrap();
        assert!(r01 < r02 && r02 < r05);
    }

    #[test]
    fn retain_preserves_diag_and_filters() {
        let (m, _) = bus_model(6);
        let t = m.retain(|i, j| j - i == 1);
        assert_eq!(t.g_diag(), m.g_diag());
        assert_eq!(t.g_off().len(), 5);
        assert!(t.coupling_resistance(0, 5).is_none());
        assert!(t.coupling_resistance(0, 1).is_some());
        // Truncation preserves passivity (Theorem 2 corollary).
        let rep = t.passivity_report();
        assert!(rep.is_passive() && rep.strictly_diag_dominant);
    }

    #[test]
    fn localized_keeps_only_adjacent() {
        let (m, layout) = bus_model(6);
        let loc = m.retain(adjacent_pairs(&layout));
        assert_eq!(loc.g_off().len(), 5, "5 adjacent pairs in a 6-bit bus");
        for &(i, j, _) in loc.g_off() {
            assert_eq!(j, i + 1);
        }
    }

    #[test]
    fn sparse_factor_and_element_count() {
        let (m, _) = bus_model(6);
        assert_eq!(m.element_count(), 6 + 15);
        assert!((m.sparse_factor() - 1.0).abs() < 1e-12);
        let t = m.retain(|i, j| j - i == 1);
        assert!(t.sparse_factor() < 0.6);
    }

    #[test]
    fn from_parts_validates() {
        let m = VpecModel::from_parts(vec![1.0, 1.0], vec![2.0, 2.0], vec![(0, 1, -0.5)]);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert!((m.coupling_resistance(1, 0).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "i < j")]
    fn from_parts_rejects_bad_indices() {
        VpecModel::from_parts(vec![1.0], vec![1.0], vec![(0, 0, 1.0)]);
    }

    #[test]
    fn passivity_margin_is_quantitative() {
        let (m, _) = bus_model(10);
        let full = m.passivity_margin().unwrap();
        assert!(full.min > 0.0, "full model margin {}", full.min);
        assert!(full.max > full.min);
        // Truncation shrinks off-diagonals: margin stays positive and the
        // conditioning cannot collapse below 1.
        let t = m.retain(|i, j| j - i == 1);
        let tm = t.passivity_margin().unwrap();
        assert!(tm.min > 0.0);
        assert!(tm.condition() >= 1.0);
        // Margin agrees with the binary Cholesky verdict.
        assert_eq!(tm.min > 0.0, t.passivity_report().positive_definite);
    }

    #[test]
    fn passivity_report_agrees_with_the_dense_checks() {
        // Dominant; passive but not dominant; indefinite; and a negative
        // diagonal that dominates its row.
        let (bus, _) = bus_model(6);
        for m in [
            bus,
            VpecModel::from_parts(
                vec![1.0; 3],
                vec![1.0, 1.0, 1.0],
                vec![(0, 1, -0.6), (1, 2, -0.6)],
            ),
            VpecModel::from_parts(vec![1.0; 2], vec![1.0, 1.0], vec![(0, 1, -2.0)]),
            VpecModel::from_parts(vec![1.0; 2], vec![-3.0, 3.0], vec![(0, 1, 1.0)]),
        ] {
            let g = m.g_matrix();
            let rep = m.passivity_report();
            assert_eq!(
                rep.strictly_diag_dominant,
                g.is_strictly_diagonally_dominant()
            );
            assert_eq!(rep.positive_definite, Cholesky::new(&g).is_ok());
            let margin = m.passivity_margin().unwrap();
            assert_eq!(margin.min > 0.0, rep.positive_definite);
        }
    }

    #[test]
    fn ground_conductance_adjusts_after_truncation() {
        let (m, _) = bus_model(5);
        let t = m.retain(|_, _| false); // drop all couplings
        let (full, none) = (m.ground_conductances(), t.ground_conductances());
        for i in 0..5 {
            // With no couplings the ground conductance is the full diag.
            assert_eq!(none[i], t.g_diag()[i]);
            // The full model's ground conductance is smaller (negative
            // couplings subtract).
            assert!(full[i] < none[i]);
            assert!(full[i] > 0.0);
            // Each row's sum takes its couplings in stored order.
            let mut row = m.g_diag()[i];
            for &(a, b, v) in m.g_off() {
                if a == i || b == i {
                    row += v;
                }
            }
            assert_eq!(full[i].to_bits(), row.to_bits());
        }
    }
}
