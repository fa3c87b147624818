//! Runtime numerical-correctness audits.
//!
//! The VPEC pipeline's value proposition is *provable* passivity — Ĝ
//! symmetric, positive definite, strictly diagonally dominant (paper
//! §III/§V) — but the proofs assume exact arithmetic and well-formed
//! inputs. This module turns the invariants into cheap runtime validators
//! that run at the boundaries between pipeline layers (extraction → model
//! build → MNA stamp → factor → solve).
//!
//! # Levels
//!
//! Audits are controlled by a process-global [`AuditLevel`]:
//!
//! * **debug builds** default to [`AuditLevel::Full`];
//! * **release builds** default to [`AuditLevel::Off`] (zero overhead: one
//!   relaxed atomic load per gate);
//! * the `VPEC_AUDIT` environment variable (`off`/`basic`/`full`) or the
//!   CLI `--audit[=level]` flag (via [`set_level`]) overrides the default.
//!
//! [`AuditLevel::Basic`] runs the O(n²) structural checks (finiteness,
//! symmetry, diagonal dominance) plus the O(n³) SPD probe at model build;
//! [`AuditLevel::Full`] adds cross-backend solve-consistency checks and
//! solve residual verification.
//!
//! # Violations
//!
//! Every violation carries the offending matrix name, index, and magnitude
//! ([`AuditViolation`]), so a failed audit is actionable rather than a bare
//! panic. Violations are collected into an [`AuditReport`]; enforcement
//! (turning a dirty report into an error) is the caller's choice via
//! [`AuditReport::into_result`]. Strict-diagonal-dominance violations are
//! classified as warnings — Theorem 2 only guarantees dominance on aligned
//! geometries, so a non-dominant Ĝ is suspicious but not necessarily wrong
//! — while finiteness, symmetry, positive-definiteness, residual, and
//! backend-consistency violations are errors.

use crate::{Cholesky, CooMatrix, CsrMatrix, DenseMatrix, LuFactor, Scalar, SparseLu};
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// How much auditing to perform at pipeline layer boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditLevel {
    /// No audits; gates cost one relaxed atomic load.
    Off = 0,
    /// Structural checks (finite / symmetric / dominant) plus the SPD
    /// probe at model-build boundaries.
    Basic = 1,
    /// Everything in `Basic`, plus solve residual verification and
    /// cross-backend solve-consistency checks.
    Full = 2,
}

// By hand: a derived `PartialOrd` calls the `partial_cmp` clippy.toml disallows.
impl Ord for AuditLevel {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

impl PartialOrd for AuditLevel {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl AuditLevel {
    /// Parses a level name as accepted by `VPEC_AUDIT` and `--audit=`.
    pub fn parse(s: &str) -> Option<AuditLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(AuditLevel::Off),
            "basic" | "1" => Some(AuditLevel::Basic),
            "full" | "on" | "2" => Some(AuditLevel::Full),
            _ => None,
        }
    }

    /// The built-in default: `Full` in debug builds, `Off` in release.
    pub fn default_for_build() -> AuditLevel {
        if cfg!(debug_assertions) {
            AuditLevel::Full
        } else {
            AuditLevel::Off
        }
    }

    fn from_u8(v: u8) -> AuditLevel {
        match v {
            1 => AuditLevel::Basic,
            2 => AuditLevel::Full,
            _ => AuditLevel::Off,
        }
    }

    /// The level name (`off` / `basic` / `full`).
    pub fn label(self) -> &'static str {
        match self {
            AuditLevel::Off => "off",
            AuditLevel::Basic => "basic",
            AuditLevel::Full => "full",
        }
    }
}

/// Sentinel meaning "not yet resolved from the environment".
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The current process-global audit level.
///
/// On first call the level is resolved from the `VPEC_AUDIT` environment
/// variable, falling back to [`AuditLevel::default_for_build`]; thereafter
/// the cached value is returned (one relaxed atomic load).
pub fn level() -> AuditLevel {
    match LEVEL.load(Ordering::Relaxed) {
        LEVEL_UNSET => {
            let resolved = std::env::var("VPEC_AUDIT")
                .ok()
                .and_then(|s| AuditLevel::parse(&s))
                .unwrap_or_else(AuditLevel::default_for_build);
            LEVEL.store(resolved as u8, Ordering::Relaxed);
            resolved
        }
        v => AuditLevel::from_u8(v),
    }
}

/// Overrides the process-global audit level (CLI `--audit`, tests).
pub fn set_level(l: AuditLevel) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

/// `true` when the current level is at least `at_least`.
pub fn enabled(at_least: AuditLevel) -> bool {
    level() >= at_least
}

/// Which invariant a validator checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditCheck {
    /// Every entry is finite (no NaN/∞).
    Finite,
    /// `|a_ij − a_ji|` within tolerance.
    Symmetric,
    /// Cholesky succeeds (symmetric positive definite).
    PositiveDefinite,
    /// `|a_ii| > Σ_{j≠i} |a_ij|` on every row (paper Theorem 2).
    DiagonallyDominant,
    /// Relative solve residual `‖Ax−b‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)` within
    /// tolerance.
    SolveResidual,
    /// Sparse LU, dense LU, and Cholesky solutions agree within tolerance.
    BackendConsistency,
}

impl AuditCheck {
    /// Human-readable check name.
    pub fn label(self) -> &'static str {
        match self {
            AuditCheck::Finite => "finiteness",
            AuditCheck::Symmetric => "symmetry",
            AuditCheck::PositiveDefinite => "positive definiteness",
            AuditCheck::DiagonallyDominant => "strict diagonal dominance",
            AuditCheck::SolveResidual => "solve residual",
            AuditCheck::BackendConsistency => "backend consistency",
        }
    }
}

/// A single invariant violation, with enough context to act on.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// Name of the offending matrix (e.g. `Ĝ (wvpec-g:8)`).
    pub matrix: String,
    /// Which invariant failed.
    pub check: AuditCheck,
    /// The offending `(row, col)` index, when the failure is localized
    /// (vectors use column 0).
    pub index: Option<(usize, usize)>,
    /// Magnitude of the violation (entry value, asymmetry, dominance
    /// deficit, residual, or backend disagreement — see `check`).
    pub magnitude: f64,
    /// Free-form explanation of what was measured.
    pub detail: String,
}

impl AuditViolation {
    /// `false` for advisory checks (strict diagonal dominance only holds on
    /// Theorem 2's aligned-geometry domain), `true` for hard invariants.
    pub fn is_error(&self) -> bool {
        self.check != AuditCheck::DiagonallyDominant
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} failed {}", self.matrix, self.check.label())?;
        if let Some((i, j)) = self.index {
            write!(f, " at ({i}, {j})")?;
        }
        write!(f, ": {} (magnitude {:.3e})", self.detail, self.magnitude)
    }
}

/// Outcome of auditing one subject (a matrix or a solve).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// What was audited.
    pub subject: String,
    /// How many individual checks ran.
    pub checks_run: usize,
    /// Violations found (errors and warnings; empty = clean).
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// An empty report for `subject`.
    pub fn new(subject: impl Into<String>) -> Self {
        AuditReport {
            subject: subject.into(),
            checks_run: 0,
            violations: Vec::new(),
        }
    }

    /// Records one check outcome (`None` = passed).
    pub fn record(&mut self, outcome: Option<AuditViolation>) {
        self.checks_run += 1;
        if let Some(v) = outcome {
            vpec_trace::counter_add(
                if v.is_error() {
                    "audit.violations.error"
                } else {
                    "audit.violations.warning"
                },
                1,
            );
            self.violations.push(v);
        }
    }

    /// `true` when no violations at all (errors or warnings) were found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// `true` when at least one error-severity violation was found.
    pub fn has_errors(&self) -> bool {
        self.violations.iter().any(AuditViolation::is_error)
    }

    /// Folds another report's checks and violations into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.checks_run += other.checks_run;
        self.violations.extend(other.violations);
    }

    /// One-line summary suitable for CLI diagnostics.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!("{}: clean ({} checks)", self.subject, self.checks_run)
        } else {
            let errors = self.violations.iter().filter(|v| v.is_error()).count();
            format!(
                "{}: {} violation(s) ({} error(s)) in {} checks; first: {}",
                self.subject,
                self.violations.len(),
                errors,
                self.checks_run,
                self.violations[0]
            )
        }
    }

    /// Converts to `Err(AuditFailure)` when any error-severity violation
    /// was recorded; warnings alone stay `Ok`.
    ///
    /// # Errors
    ///
    /// [`AuditFailure`] wrapping this report.
    pub fn into_result(self) -> Result<(), AuditFailure> {
        if self.has_errors() {
            Err(AuditFailure(self))
        } else {
            Ok(())
        }
    }
}

/// An audit report promoted to an error (at least one hard violation).
#[derive(Debug, Clone, PartialEq)]
pub struct AuditFailure(pub AuditReport);

impl fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first = self
            .0
            .violations
            .iter()
            .find(|v| v.is_error())
            .or_else(|| self.0.violations.first());
        match first {
            Some(v) => {
                write!(f, "{v}")?;
                if self.0.violations.len() > 1 {
                    write!(f, " (+{} more)", self.0.violations.len() - 1)?;
                }
                Ok(())
            }
            None => write!(f, "audit of {} failed", self.0.subject),
        }
    }
}

impl std::error::Error for AuditFailure {}

/// Checks that every entry of `a` is finite.
pub fn check_finite(name: &str, a: &DenseMatrix<f64>) -> Option<AuditViolation> {
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            let v = a[(i, j)];
            if !v.is_finite() {
                return Some(AuditViolation {
                    matrix: name.to_string(),
                    check: AuditCheck::Finite,
                    index: Some((i, j)),
                    magnitude: v,
                    detail: format!("entry is {v}"),
                });
            }
        }
    }
    None
}

/// Checks that every element of slice `v` is finite (column index 0).
pub fn check_finite_slice(name: &str, v: &[f64]) -> Option<AuditViolation> {
    for (i, &x) in v.iter().enumerate() {
        if !x.is_finite() {
            return Some(AuditViolation {
                matrix: name.to_string(),
                check: AuditCheck::Finite,
                index: Some((i, 0)),
                magnitude: x,
                detail: format!("element is {x}"),
            });
        }
    }
    None
}

/// Checks `|a_ij − a_ji| ≤ tol` for every pair, reporting the worst pair.
pub fn check_symmetric(name: &str, a: &DenseMatrix<f64>, tol: f64) -> Option<AuditViolation> {
    if a.rows() != a.cols() {
        return Some(AuditViolation {
            matrix: name.to_string(),
            check: AuditCheck::Symmetric,
            index: None,
            magnitude: f64::INFINITY,
            detail: format!("matrix is {}x{}, not square", a.rows(), a.cols()),
        });
    }
    let mut worst = 0.0f64;
    let mut at = (0, 0);
    for i in 0..a.rows() {
        for j in (i + 1)..a.cols() {
            let d = (a[(i, j)] - a[(j, i)]).abs();
            if d > worst || !d.is_finite() {
                worst = d;
                at = (i, j);
                if !d.is_finite() {
                    break;
                }
            }
        }
    }
    if worst > tol || !worst.is_finite() {
        return Some(AuditViolation {
            matrix: name.to_string(),
            check: AuditCheck::Symmetric,
            index: Some(at),
            magnitude: worst,
            detail: format!(
                "|a[{0},{1}] - a[{1},{0}]| = {worst:.3e} exceeds tol {tol:.3e}",
                at.0, at.1
            ),
        });
    }
    None
}

/// Checks positive definiteness by attempting a Cholesky factorization.
pub fn check_positive_definite(name: &str, a: &DenseMatrix<f64>) -> Option<AuditViolation> {
    match Cholesky::new(a) {
        Ok(_) => None,
        Err(e) => {
            let index = match e {
                crate::NumericsError::NotPositiveDefinite { row } => Some((row, row)),
                _ => None,
            };
            let magnitude = index.map_or(f64::NAN, |(r, _)| a[(r, r)]);
            Some(AuditViolation {
                matrix: name.to_string(),
                check: AuditCheck::PositiveDefinite,
                index,
                magnitude,
                detail: format!("Cholesky failed: {e}"),
            })
        }
    }
}

/// Checks strict diagonal dominance row-by-row (paper Theorem 2),
/// reporting the first violating row with its dominance deficit.
pub fn check_diag_dominant(name: &str, a: &DenseMatrix<f64>) -> Option<AuditViolation> {
    for i in 0..a.rows() {
        let mut off = 0.0f64;
        for j in 0..a.cols() {
            if j != i {
                off += a[(i, j)].abs();
            }
        }
        let diag = a[(i, i)].abs();
        // NaN-safe: anything other than a definite `diag > off` is a
        // violation, including incomparable (NaN) entries.
        #[expect(
            clippy::disallowed_methods,
            reason = "partial order is the point: NaN must compare not-Greater and register as a violation"
        )]
        if diag.partial_cmp(&off) != Some(std::cmp::Ordering::Greater) {
            return Some(AuditViolation {
                matrix: name.to_string(),
                check: AuditCheck::DiagonallyDominant,
                index: Some((i, i)),
                magnitude: off - diag,
                detail: format!(
                    "row {i}: |diag| = {diag:.3e} does not exceed off-diagonal sum {off:.3e}"
                ),
            });
        }
    }
    None
}

/// Runs the four structural SPD checks (finite, symmetric, positive
/// definite, strictly diagonally dominant) on `a` and collects the
/// outcomes. `sym_tol` is the absolute symmetry tolerance; pass something
/// scaled to the matrix magnitude (e.g. `1e-9 * a.max_abs()`).
pub fn audit_spd_matrix(name: &str, a: &DenseMatrix<f64>, sym_tol: f64) -> AuditReport {
    let mut report = AuditReport::new(name);
    let finite = check_finite(name, a);
    let finite_ok = finite.is_none();
    report.record(finite);
    report.record(check_symmetric(name, a, sym_tol));
    if finite_ok {
        // Cholesky on a NaN-bearing matrix can loop over garbage; skip the
        // expensive probes once finiteness has already failed.
        report.record(check_positive_definite(name, a));
        report.record(check_diag_dominant(name, a));
    }
    report
}

/// Relative residual `‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)` of a proposed
/// solution to `Ax = b`, computed from raw triplets (duplicates summed).
///
/// Returns `f64::INFINITY` when any input is non-finite or the shapes do
/// not line up, so callers can compare against a tolerance without a
/// separate error path. The ∞-norm of `A` is computed from the raw
/// triplet moduli, which over-estimates the norm when entries cancel —
/// conservative for a denominator.
pub fn relative_residual<T: Scalar>(a: &CooMatrix<T>, x: &[T], b: &[T]) -> f64 {
    let n = a.rows();
    if x.len() != n || b.len() != n || a.cols() != x.len() {
        return f64::INFINITY;
    }
    if n == 0 {
        return 0.0;
    }
    // r = b − A·x, accumulated straight from the triplets. `f64::max`
    // swallows NaN, so non-finiteness is tracked explicitly.
    let mut r: Vec<T> = b.to_vec();
    let mut row_norm = vec![0.0f64; n];
    let mut nonfinite = false;
    for &(i, j, v) in a.entries() {
        r[i] -= v * x[j];
        let m = v.modulus();
        nonfinite |= !m.is_finite();
        row_norm[i] += m;
    }
    let inf_norm = |vals: &mut dyn Iterator<Item = f64>| -> (f64, bool) {
        let mut worst = 0.0f64;
        let mut bad = false;
        for m in vals {
            bad |= !m.is_finite();
            worst = worst.max(m);
        }
        (worst, bad)
    };
    let (r_inf, r_bad) = inf_norm(&mut r.iter().map(|v| v.modulus()));
    let (a_inf, _) = inf_norm(&mut row_norm.iter().copied());
    let (x_inf, x_bad) = inf_norm(&mut x.iter().map(|v| v.modulus()));
    let (b_inf, b_bad) = inf_norm(&mut b.iter().map(|v| v.modulus()));
    let denom = a_inf * x_inf + b_inf;
    if nonfinite || r_bad || x_bad || b_bad || !denom.is_finite() {
        return f64::INFINITY;
    }
    if denom == 0.0 {
        // A, x, and b all zero: residual is exactly r_inf (0 for x = 0).
        return r_inf;
    }
    r_inf / denom
}

/// Checks a solve residual against `tol`, returning the measured relative
/// residual alongside any violation.
pub fn check_residual<T: Scalar>(
    name: &str,
    a: &CooMatrix<T>,
    x: &[T],
    b: &[T],
    tol: f64,
) -> (f64, Option<AuditViolation>) {
    let rel = relative_residual(a, x, b);
    let violation = if rel > tol {
        Some(AuditViolation {
            matrix: name.to_string(),
            check: AuditCheck::SolveResidual,
            index: None,
            magnitude: rel,
            detail: format!("relative residual {rel:.3e} exceeds tol {tol:.3e}"),
        })
    } else {
        None
    };
    (rel, violation)
}

/// Result of a cross-backend solve-consistency check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendAgreement {
    /// How many backends produced a solution (dense LU reference plus
    /// sparse LU, plus Cholesky when the matrix is SPD).
    pub backends: usize,
    /// Worst relative per-element difference against the dense-LU
    /// reference, normalized by `‖x_ref‖∞`.
    pub max_rel_diff: f64,
}

/// Solves `a·x = b` with dense LU (reference), sparse LU, and — when `a`
/// is symmetric positive definite — Cholesky, and compares the solutions.
///
/// Returns the agreement measurement plus a violation when either a
/// backend disagrees beyond `tol` or a backend that should have succeeded
/// failed to factor.
pub fn check_solve_consistency(
    name: &str,
    a: &DenseMatrix<f64>,
    b: &[f64],
    tol: f64,
) -> (Option<BackendAgreement>, Option<AuditViolation>) {
    let mismatch = |detail: String, magnitude: f64, index: Option<(usize, usize)>| AuditViolation {
        matrix: name.to_string(),
        check: AuditCheck::BackendConsistency,
        index,
        magnitude,
        detail,
    };
    let x_ref = match LuFactor::new(a).and_then(|lu| lu.solve(b)) {
        Ok(x) => x,
        Err(e) => {
            return (
                None,
                Some(mismatch(format!("dense LU reference failed: {e}"), f64::NAN, None)),
            )
        }
    };
    let x_ref_inf = x_ref.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let scale = x_ref_inf.max(f64::MIN_POSITIVE);
    let mut backends = 1usize;
    let mut worst = 0.0f64;
    let mut worst_at: Option<(usize, usize)> = None;
    let mut compare = |x_other: &[f64], label: &str| -> Option<AuditViolation> {
        for (i, (xo, xr)) in x_other.iter().zip(&x_ref).enumerate() {
            let d = (xo - xr).abs() / scale;
            if d > worst || !d.is_finite() {
                worst = d;
                worst_at = Some((i, 0));
            }
            if d > tol || !d.is_finite() {
                return Some(mismatch(
                    format!("{label} disagrees with dense LU: rel diff {d:.3e} at element {i}"),
                    d,
                    Some((i, 0)),
                ));
            }
        }
        None
    };

    let csr = CsrMatrix::from_dense(a, 0.0);
    match SparseLu::new(&csr).and_then(|lu| lu.solve(b)) {
        Ok(x_sparse) => {
            backends += 1;
            if let Some(v) = compare(&x_sparse, "sparse LU") {
                return (Some(BackendAgreement { backends, max_rel_diff: worst }), Some(v));
            }
        }
        Err(e) => {
            return (
                Some(BackendAgreement { backends, max_rel_diff: worst }),
                Some(mismatch(
                    format!("sparse LU failed where dense LU succeeded: {e}"),
                    f64::NAN,
                    None,
                )),
            )
        }
    }

    // Cholesky only applies on the SPD cone; silently skip otherwise.
    if a.is_symmetric(1e-9 * a.max_abs().max(f64::MIN_POSITIVE)) {
        if let Ok(chol) = Cholesky::new(a) {
            if let Ok(x_chol) = chol.solve(b) {
                backends += 1;
                if let Some(v) = compare(&x_chol, "Cholesky") {
                    return (Some(BackendAgreement { backends, max_rel_diff: worst }), Some(v));
                }
            }
        }
    }

    (Some(BackendAgreement { backends, max_rel_diff: worst }), None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DenseMatrix<f64> {
        DenseMatrix::from_rows(&[
            &[4.0, 1.0, 0.5],
            &[1.0, 5.0, 1.5],
            &[0.5, 1.5, 6.0],
        ])
        .unwrap()
    }

    #[test]
    fn level_parsing_and_ordering() {
        assert_eq!(AuditLevel::parse("off"), Some(AuditLevel::Off));
        assert_eq!(AuditLevel::parse("BASIC"), Some(AuditLevel::Basic));
        assert_eq!(AuditLevel::parse(" full "), Some(AuditLevel::Full));
        assert_eq!(AuditLevel::parse("2"), Some(AuditLevel::Full));
        assert_eq!(AuditLevel::parse("bogus"), None);
        assert!(AuditLevel::Full > AuditLevel::Basic);
        assert!(AuditLevel::Basic > AuditLevel::Off);
        assert_eq!(AuditLevel::Full.label(), "full");
    }

    #[test]
    fn set_level_round_trips() {
        let prior = level();
        set_level(AuditLevel::Basic);
        assert_eq!(level(), AuditLevel::Basic);
        assert!(enabled(AuditLevel::Basic));
        assert!(!enabled(AuditLevel::Full));
        set_level(prior);
    }

    #[test]
    fn clean_spd_matrix_passes_all_checks() {
        let a = spd3();
        let report = audit_spd_matrix("A", &a, 1e-12);
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(report.checks_run, 4);
        assert!(report.into_result().is_ok());
    }

    #[test]
    fn nan_entry_is_located() {
        let mut a = spd3();
        a[(1, 2)] = f64::NAN;
        let v = check_finite("A", &a).expect("must flag NaN");
        assert_eq!(v.index, Some((1, 2)));
        assert_eq!(v.check, AuditCheck::Finite);
        assert!(v.is_error());
        assert!(v.to_string().contains("(1, 2)"));
    }

    #[test]
    fn asymmetry_is_located_with_magnitude() {
        let mut a = spd3();
        a[(0, 2)] += 1e-3;
        let v = check_symmetric("A", &a, 1e-9).expect("must flag asymmetry");
        assert_eq!(v.index, Some((0, 2)));
        assert!((v.magnitude - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn non_spd_matrix_is_flagged_actionably() {
        let mut a = spd3();
        a[(2, 2)] = -6.0;
        let report = audit_spd_matrix("G-hat", &a, 1e-12);
        assert!(report.has_errors());
        let v = report
            .violations
            .iter()
            .find(|v| v.check == AuditCheck::PositiveDefinite)
            .expect("SPD violation expected");
        assert_eq!(v.index, Some((2, 2)));
        assert!(v.to_string().contains("G-hat"));
        assert!(report.into_result().is_err());
    }

    #[test]
    fn dominance_violation_is_warning_not_error() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 8.0]]).unwrap();
        let v = check_diag_dominant("A", &a).expect("row 0 not dominant");
        assert_eq!(v.index, Some((0, 0)));
        assert!((v.magnitude - 1.0).abs() < 1e-12);
        assert!(!v.is_error());
        let mut report = AuditReport::new("A");
        report.record(Some(v));
        assert!(!report.is_clean());
        assert!(!report.has_errors());
        assert!(report.into_result().is_ok());
    }

    #[test]
    fn residual_is_small_for_true_solution_and_large_for_garbage() {
        let a = spd3();
        let b = vec![1.0, 2.0, 3.0];
        let x = LuFactor::new(&a).unwrap().solve(&b).unwrap();
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                coo.push(i, j, a[(i, j)]).unwrap();
            }
        }
        let (rel, violation) = check_residual("solve", &coo, &x, &b, 1e-10);
        assert!(rel < 1e-14, "rel = {rel}");
        assert!(violation.is_none());
        let (rel_bad, violation_bad) = check_residual("solve", &coo, &[1.0, 1.0, 1.0], &b, 1e-10);
        assert!(rel_bad > 1e-2);
        assert!(violation_bad.is_some());
        // Non-finite solution reads as infinite residual, not a panic.
        let (rel_nan, v_nan) = check_residual("solve", &coo, &[f64::NAN, 0.0, 0.0], &b, 1e-10);
        assert!(rel_nan.is_infinite());
        assert!(v_nan.is_some());
    }

    #[test]
    fn backends_agree_on_spd_system() {
        let a = spd3();
        let b = vec![1.0, -2.0, 0.5];
        let (agreement, violation) = check_solve_consistency("A", &a, &b, 1e-9);
        let agreement = agreement.expect("reference solve must succeed");
        assert_eq!(agreement.backends, 3, "dense LU + sparse LU + Cholesky");
        assert!(agreement.max_rel_diff < 1e-10);
        assert!(violation.is_none());
    }

    #[test]
    fn singular_reference_reports_violation_not_panic() {
        let a = DenseMatrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let (agreement, violation) = check_solve_consistency("A", &a, &[1.0, 2.0], 1e-9);
        assert!(agreement.is_none());
        let v = violation.expect("singular reference must be flagged");
        assert_eq!(v.check, AuditCheck::BackendConsistency);
    }

    #[test]
    fn finite_slice_check_locates_element() {
        assert!(check_finite_slice("b", &[0.0, 1.0]).is_none());
        let v = check_finite_slice("b", &[0.0, f64::INFINITY]).expect("must flag");
        assert_eq!(v.index, Some((1, 0)));
    }
}
