//! The one factor of every MNA system: sparse Gilbert–Peierls LU,
//! ordered by maximum transversal + AMD with threshold pivoting (an
//! attempt at 10⁻³, redone at 10⁻¹ when its pivots grew), real and
//! complex systems alike, DC, transient and every AC point. No caller
//! picks a backend, and there is no second one: a system the sparse
//! factor rejects is a [`CircuitError::SingularSystem`].
//!
//! The sparse factor mirrors the behaviour the paper attributes to
//! SPICE: "its internal sparse solver is more efficient for a less dense
//! matrix" — sparsified VPEC models profit from it, and dense PEEC
//! stamps end in a fully stored trailing block the sparse kernel
//! eliminates as slices.
//!
//! At 10⁻¹ the kernel rejects only a column whose every candidate pivot
//! is exactly zero. A seeded census of random netlists (the `census`
//! tests below) finds the systems that dense LU with partial pivoting
//! still factors after that: every one is singular to working precision
//! (dense κ₁ ≥ 1/ε), so its dense "solution" has no correct digit.

use crate::diagnostics::{FactorAttempt, FactorDiagnostics};
use crate::error::CircuitError;
use vpec_numerics::ordering::FillOrdering;
use vpec_numerics::{CsrMatrix, Scalar, SparseLu};

/// Factors an assembled MNA system and reports the factor's evidence.
///
/// `ordering` is a [`FillOrdering`] of `csr`'s pattern made beforehand
/// (an AC sweep orders its pattern once for every point); `None` orders
/// it here. Either way it is the same factor, bit for bit. `analysis`
/// names the analysis in a [`CircuitError::SingularSystem`].
pub(crate) fn factor<T: Scalar>(
    csr: &CsrMatrix<T>,
    ordering: Option<&FillOrdering>,
    analysis: &'static str,
) -> Result<(SparseLu<T>, FactorDiagnostics), CircuitError> {
    let mut sp = vpec_trace::span!("factor", "dim" => csr.rows());
    let lu = match ordering {
        None => SparseLu::new_fill_reducing(csr),
        Some(o) => SparseLu::with_ordering(csr, o),
    }
    .map_err(|e| match CircuitError::from(e) {
        CircuitError::SingularSystem { .. } => CircuitError::SingularSystem { analysis },
        other => other,
    })?;
    let diag = FactorDiagnostics {
        attempts: vec![FactorAttempt { succeeded: true }],
        condition_estimate: Some(lu.diag_condition_estimate()),
        factor_nnz: lu.factor_nnz(),
        off_diagonal_pivots: lu.off_diagonal_pivots(),
    };
    sp.set_attr("factor_nnz", diag.factor_nnz);
    sp.set_attr("off_diagonal_pivots", diag.off_diagonal_pivots);
    sp.set_attr("dense_block", lu.dense_block());
    if let Some(j) = lu.redo_from() {
        sp.set_attr("redo_from", j);
    }
    Ok((lu, diag))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_numerics::{CooMatrix, LuFactor};

    fn diag_csr(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn every_size_factors_sparse_with_its_evidence() {
        for dim in [5, 8, 64, 65, 100, 500] {
            let (lu, diag) = factor(&diag_csr(dim), None, "dc").unwrap();
            assert_eq!(diag.attempts, [FactorAttempt { succeeded: true }], "{dim}");
            assert_eq!(diag.condition_estimate, Some(1.0), "{dim}");
            assert_eq!(diag.factor_nnz, 2 * dim, "{dim}");
            assert_eq!(diag.off_diagonal_pivots, 0, "{dim}");
            assert_eq!(lu.redo_from(), None, "{dim}");
        }
    }

    #[test]
    fn both_backends_agree() {
        // The 10 × 10 grid (dim 100): the sparse factor against dense LU
        // with partial pivoting on the same matrix.
        let a = grid(10, 10);
        let b: Vec<f64> = (0..100).map(|i| 1.0 + i as f64).collect();
        let (sparse, _) = factor(&a, None, "dc").unwrap();
        let xs = sparse.solve(&b).unwrap();
        let xd = LuFactor::new(&a.to_dense()).unwrap().solve(&b).unwrap();
        for (u, v) in xd.iter().zip(xs.iter()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    /// The 5-point Laplacian of a `rows × cols` grid, numbered row-major.
    fn grid(rows: usize, cols: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(rows * cols, rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                coo.push(v, v, 4.0).unwrap();
                for u in [
                    (c + 1 < cols).then(|| v + 1),
                    (r + 1 < rows).then(|| v + cols),
                ]
                .into_iter()
                .flatten()
                {
                    coo.push(v, u, -1.0).unwrap();
                    coo.push(u, v, -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn singular_system_is_a_typed_error_naming_its_analysis() {
        // All-zero: no transversal, at any size.
        for dim in [2, 100] {
            let a = CooMatrix::<f64>::new(dim, dim).to_csr();
            let err = factor(&a, None, "ac").unwrap_err();
            assert_eq!(
                err,
                CircuitError::SingularSystem { analysis: "ac" },
                "{dim}"
            );
        }
    }
}

/// The census behind the one factor: seeded random netlists of R, C, L,
/// K, V, I, E, G, F and H elements, each assembled as its DC, transient
/// and AC system. Every system the sparse factor rejects but dense LU
/// with partial pivoting factors must be singular to working precision:
/// its dense Hager κ₁ is at least 1/ε, so dense LU's answer would carry
/// no correct digit. The seed and budget are fixed: a system below 1/ε
/// would be a nonsingular input that needs a second factor, to be kept
/// as a test of its own, not re-seeded away.
#[cfg(test)]
mod census {
    use super::factor;
    use crate::ac::ac_matrix;
    use crate::dc::dc_matrix;
    use crate::elements::ElementId;
    use crate::mna::MnaLayout;
    use crate::netlist::{Circuit, NodeId};
    use crate::transient::companion_matrix;
    use crate::waveform::Waveform;
    use vpec_numerics::probe::condition_estimate;
    use vpec_numerics::rng::XorShift64;
    use vpec_numerics::{Complex64, CsrMatrix, DenseMatrix, LuFactor, Scalar};

    /// `10^u` with `u` uniform in `[lo, hi)`: element values spread over
    /// decades, as on real netlists.
    fn decades(rng: &mut XorShift64, lo: f64, hi: f64) -> f64 {
        10f64.powf(rng.range_f64(lo, hi))
    }

    /// [`decades`] with a random sign.
    fn signed_decades(rng: &mut XorShift64, lo: f64, hi: f64) -> f64 {
        let v = decades(rng, lo, hi);
        if rng.chance(0.5) {
            v
        } else {
            -v
        }
    }

    /// A netlist on 2..=`max_nodes` nodes with `n..=3n` random elements
    /// between random nodes (ground included, ends may coincide).
    fn random_netlist(rng: &mut XorShift64, max_nodes: usize) -> Circuit {
        let n = rng.range_usize(2, max_nodes + 1);
        let mut c = Circuit::new();
        let nodes: Vec<NodeId> = (0..n).map(|k| c.node(&format!("n{k}"))).collect();
        let pick = |rng: &mut XorShift64| match rng.range_usize(0, n + 1) {
            0 => Circuit::GROUND,
            k => nodes[k - 1],
        };
        let mut inductors: Vec<(ElementId, f64)> = Vec::new();
        let mut branches: Vec<ElementId> = Vec::new();
        for k in 0..rng.range_usize(n, 3 * n + 1) {
            let name = format!("x{k}");
            let (p, q) = (pick(rng), pick(rng));
            let sense =
                (!branches.is_empty()).then(|| branches[rng.range_usize(0, branches.len())]);
            let added = match (rng.range_usize(0, 10), sense) {
                (1, _) => c.add_capacitor(&name, p, q, decades(rng, -15.0, -9.0)),
                (2, _) => {
                    let l = decades(rng, -12.0, -6.0);
                    let id = c.add_inductor(&name, p, q, l);
                    if let Ok(id) = id {
                        inductors.push((id, l));
                        branches.push(id);
                    }
                    id
                }
                (3, _) if inductors.len() >= 2 => {
                    let i = rng.range_usize(0, inductors.len());
                    let j = (i + rng.range_usize(1, inductors.len())) % inductors.len();
                    let ((la, a), (lb, b)) = (inductors[i], inductors[j]);
                    let m = rng.range_f64(-0.99, 0.99) * (a * b).sqrt();
                    c.add_mutual(&name, la, lb, m)
                }
                (4, _) => {
                    let v = rng.range_f64(-2.0, 2.0);
                    let id = c.add_vsource_ac(&name, p, q, Waveform::dc(v), 1.0, 0.0);
                    branches.extend(id.iter().copied());
                    id
                }
                (5, _) => c.add_isource(&name, p, q, Waveform::dc(rng.range_f64(-1e-3, 1e-3))),
                (6, _) => {
                    let (cp, cn) = (pick(rng), pick(rng));
                    let gain = signed_decades(rng, -2.0, 2.0);
                    let id = c.add_vcvs(&name, p, q, cp, cn, gain);
                    branches.extend(id.iter().copied());
                    id
                }
                (7, _) => {
                    let (cp, cn) = (pick(rng), pick(rng));
                    let gm = signed_decades(rng, -5.0, 0.0);
                    c.add_vccs(&name, p, q, cp, cn, gm)
                }
                (8, Some(sense)) => {
                    let gain = signed_decades(rng, -2.0, 2.0);
                    c.add_cccs(&name, p, q, sense, gain)
                }
                (9, Some(sense)) => {
                    let r = signed_decades(rng, -1.0, 4.0);
                    let id = c.add_ccvs(&name, p, q, sense, r);
                    branches.extend(id.iter().copied());
                    id
                }
                _ => c.add_resistor(&name, p, q, decades(rng, -1.0, 5.0)),
            };
            added.unwrap();
        }
        c
    }

    /// `[[Re, −Im], [Im, Re]]`: the real matrix of twice the dimension
    /// whose condition number is that of the complex matrix `a`.
    fn real_embedding(a: &DenseMatrix<Complex64>) -> DenseMatrix<f64> {
        let n = a.rows();
        let mut e = DenseMatrix::zeros(2 * n, 2 * n);
        for i in 0..n {
            for j in 0..n {
                let z = a[(i, j)];
                e[(i, j)] = z.re;
                e[(i, j + n)] = -z.im;
                e[(i + n, j)] = z.im;
                e[(i + n, j + n)] = z.re;
            }
        }
        e
    }

    /// Systems of one analysis: how many the sparse factor rejected while
    /// dense LU factored them, and the smallest dense κ₁ among those (∞
    /// while there are none).
    struct Tally {
        rescued: usize,
        min_kappa: f64,
    }

    impl Tally {
        const EMPTY: Tally = Tally {
            rescued: 0,
            min_kappa: f64::INFINITY,
        };

        /// Counts `a` when the sparse factor rejects it and dense LU
        /// factors it; `kappa` gives its dense κ₁.
        fn check<T: Scalar>(&mut self, a: &CsrMatrix<T>, kappa: impl Fn(DenseMatrix<T>) -> f64) {
            if factor(a, None, "census").is_ok() {
                return;
            }
            let dense = a.to_dense();
            if LuFactor::new(&dense).is_ok() {
                self.min_kappa = self.min_kappa.min(kappa(dense));
                self.rescued += 1;
            }
        }
    }

    #[test]
    fn dense_lu_rescues_only_systems_singular_to_working_precision() {
        let mut rng = XorShift64::new(0x3737);
        let (mut dc, mut tr, mut ac) = (Tally::EMPTY, Tally::EMPTY, Tally::EMPTY);
        for (netlists, max_nodes) in [(20_000, 9), (2_000, 39)] {
            for _ in 0..netlists {
                let c = random_netlist(&mut rng, max_nodes);
                let layout = MnaLayout::new(&c);
                dc.check(&dc_matrix(&c).unwrap().to_csr(), |d| condition_estimate(&d));
                let a = companion_matrix(&c, &layout, 1e-12).unwrap().to_csr();
                tr.check(&a, |d| condition_estimate(&d));
                let a = ac_matrix(&c, 1e9).unwrap().to_csr();
                ac.check(&a, |d| condition_estimate(&real_embedding(&d)));
            }
        }
        let floor = 1.0 / f64::EPSILON;
        for (what, t) in [("dc", &dc), ("transient", &tr), ("ac", &ac)] {
            assert!(
                t.min_kappa >= floor,
                "{what}: a system the sparse factor rejects has dense κ₁ {:e} < 1/ε",
                t.min_kappa
            );
        }
        assert!(dc.rescued + tr.rescued + ac.rescued > 0);
    }
}
