//! Runtime numerical-correctness audits.
//!
//! The VPEC pipeline's value proposition is *provable* passivity — Ĝ
//! symmetric, positive definite, strictly diagonally dominant (paper
//! §III/§V) — but the proofs assume exact arithmetic and well-formed
//! inputs. This module turns the invariants into cheap runtime validators
//! that run at the boundaries between pipeline layers (extraction → model
//! build → MNA stamp → factor → solve).
//!
//! # The switch
//!
//! Audits are on or off, one process-global switch ([`enabled`]):
//!
//! * **debug builds** default to on;
//! * **release builds** default to off (zero overhead: one relaxed atomic
//!   load per gate);
//! * the `VPEC_AUDIT` environment variable or the CLI `--audit[=on|off]`
//!   flag (via [`set_enabled`]) overrides the default. Both accept `on`
//!   and `off`; the retired level names `basic` and `full` read as on,
//!   and `none` as off ([`parse_switch`]).
//!
//! On, every check runs: the structural checks on `L` (finiteness,
//! symmetry, the SPD probe), the passivity checks on `Ĝ`, the stamp
//! finiteness check, and the transient solve's residual and dense re-solve.
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
//! — while finiteness, symmetry, positive-definiteness and residual
//! violations are errors.

use crate::{Cholesky, CooMatrix, DenseMatrix, Scalar};
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Parses a switch setting as accepted by `VPEC_AUDIT` and `--audit=`:
/// `on`, `basic`, `full`, `1` and `2` mean on; `off`, `none` and `0`
/// mean off.
pub fn parse_switch(s: &str) -> Option<bool> {
    match s.trim().to_ascii_lowercase().as_str() {
        "off" | "none" | "0" => Some(false),
        "on" | "basic" | "full" | "1" | "2" => Some(true),
        _ => None,
    }
}

/// Sentinel meaning "not yet resolved from the environment".
const UNSET: u8 = u8::MAX;

static STATE: AtomicU8 = AtomicU8::new(UNSET);

/// `true` when audits are on.
///
/// On first call the switch is resolved from the `VPEC_AUDIT` environment
/// variable, falling back to the build profile (on under
/// `debug_assertions`, off in release); thereafter the cached value is
/// returned (one relaxed atomic load).
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        UNSET => {
            let on = std::env::var("VPEC_AUDIT")
                .ok()
                .and_then(|s| parse_switch(&s))
                .unwrap_or(cfg!(debug_assertions));
            set_enabled(on);
            on
        }
        v => v != 0,
    }
}

/// Turns the process-global audit switch on or off (CLI `--audit`,
/// tests).
pub fn set_enabled(on: bool) {
    STATE.store(u8::from(on), Ordering::Relaxed);
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
    /// deficit or residual — see `check`).
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

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DenseMatrix<f64> {
        DenseMatrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 5.0, 1.5], &[0.5, 1.5, 6.0]]).unwrap()
    }

    #[test]
    fn switch_parsing() {
        for on in ["on", " ON ", "basic", "Full", "1", "2"] {
            assert_eq!(parse_switch(on), Some(true), "{on}");
        }
        for off in ["off", "none", "0"] {
            assert_eq!(parse_switch(off), Some(false), "{off}");
        }
        assert_eq!(parse_switch("bogus"), None);
    }

    #[test]
    fn set_enabled_round_trips() {
        let prior = enabled();
        set_enabled(!prior);
        assert_eq!(enabled(), !prior);
        set_enabled(prior);
        assert_eq!(enabled(), prior);
    }

    #[test]
    fn clean_spd_matrix_passes_every_check() {
        let a = spd3();
        assert!(check_finite("A", &a).is_none());
        assert!(check_symmetric("A", &a, 1e-12).is_none());
        assert!(check_positive_definite("A", &a).is_none());
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
        let v = check_positive_definite("G-hat", &a).expect("SPD violation expected");
        assert_eq!(v.check, AuditCheck::PositiveDefinite);
        assert_eq!(v.index, Some((2, 2)));
        assert!(v.to_string().contains("G-hat"));
        let mut report = AuditReport::new("G-hat");
        report.record(Some(v));
        assert!(report.has_errors());
        assert!(report.into_result().is_err());
    }

    #[test]
    fn dominance_violation_is_warning_not_error() {
        let v = AuditViolation {
            matrix: "A".to_string(),
            check: AuditCheck::DiagonallyDominant,
            index: Some((0, 0)),
            magnitude: 1.0,
            detail: "row 0".to_string(),
        };
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
        let x = crate::LuFactor::new(&a).unwrap().solve(&b).unwrap();
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
    fn finite_slice_check_locates_element() {
        assert!(check_finite_slice("b", &[0.0, 1.0]).is_none());
        let v = check_finite_slice("b", &[0.0, f64::INFINITY]).expect("must flag");
        assert_eq!(v.index, Some((1, 0)));
    }
}
