//! Pipeline-level numerical invariants, built on [`vpec_numerics::audit`].
//!
//! The audit layer in `vpec-numerics` knows about matrices; this module
//! knows about the *pipeline*: what must hold at each layer boundary of
//! extraction → model build → netlist lowering.
//!
//! * **Extraction boundary** ([`audit_parasitics`]): the partial-inductance
//!   matrix `L` must be finite, symmetric and positive definite (it is a
//!   Gram matrix of the filament geometry), and the per-filament lengths,
//!   resistances and capacitances must be finite with positive lengths.
//!   `L` is *not* checked for diagonal dominance — partial-inductance
//!   matrices are naturally non-dominant, which is the very problem the
//!   VPEC transformation solves.
//! * **Model boundary** ([`audit_model`]): the VPEC conductance matrix
//!   `Ĝ` must be finite and SPD (Theorem 1 passivity); strict diagonal
//!   dominance (Theorem 2) is recorded as a warning because it only
//!   provably holds for aligned geometries. Both verdicts come from
//!   [`VpecModel::passivity_report`], the one passivity check, in
//!   O(nnz) whenever Theorem 2 holds. `Ĝ` is symmetric by construction,
//!   so no check tests it. No analysis factors `Ĝ`, so no solve of it is
//!   cross-checked.
//!
//! Enforcement ([`enforce_parasitics`], [`enforce_model`]) is gated on the
//! global audit switch: on by default in debug builds, opt-in via
//! `--audit`/`VPEC_AUDIT` in release builds, and a single relaxed atomic
//! load when off.

use crate::{CoreError, VpecModel};
use vpec_extract::Parasitics;
use vpec_numerics::audit::{self, AuditCheck, AuditReport, AuditViolation};

/// Relative symmetry tolerance, scaled to the matrix magnitude.
fn sym_tol(max_abs: f64) -> f64 {
    1e-9 * max_abs.max(f64::MIN_POSITIVE)
}

/// Audits extracted parasitics at the extraction → model-build boundary.
///
/// Checks: `L` finite, symmetric, positive definite; lengths, resistances
/// and capacitances finite; lengths strictly positive. Never checks `L`
/// for diagonal dominance (see module docs).
pub fn audit_parasitics(parasitics: &Parasitics) -> AuditReport {
    let mut report = AuditReport::new("extracted parasitics");
    let l = parasitics.inductance();
    let name = "partial inductance L";
    report.record(audit::check_finite(name, l));
    report.record(audit::check_symmetric(name, l, sym_tol(l.max_abs())));
    if report.is_clean() {
        // A Cholesky on NaN/asymmetric input would report nonsense.
        report.record(audit::check_positive_definite(name, l));
    }
    report.record(audit::check_finite_slice(
        "filament lengths",
        &parasitics.lengths,
    ));
    report.record(audit::check_finite_slice(
        "filament resistance",
        &parasitics.resistance,
    ));
    report.record(audit::check_finite_slice(
        "ground capacitance",
        &parasitics.cap_ground,
    ));
    // NaN-safe: NaN compares as not-Greater, so it is flagged too.
    #[expect(
        clippy::disallowed_methods,
        reason = "partial order is the point: a NaN length must compare not-Greater and be flagged"
    )]
    report.record(
        parasitics
            .lengths
            .iter()
            .enumerate()
            .find(|(_, &len)| len.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater))
            .map(|(i, &len)| AuditViolation {
                matrix: "filament lengths".to_string(),
                check: AuditCheck::PositiveDefinite,
                index: Some((i, i)),
                magnitude: len,
                detail: format!("filament length {len:.3e} m must be positive"),
            }),
    );
    report
}

/// Audits a VPEC model's conductance matrix `Ĝ` at the model-build
/// boundary: every stored entry finite, then the verdicts of
/// [`VpecModel::passivity_report`] — positive definiteness as an error
/// at the row where Cholesky failed, strict diagonal dominance as a
/// warning at the first non-dominant row with its deficit.
pub fn audit_model(label: &str, model: &VpecModel) -> AuditReport {
    let violation =
        |check, row: usize, col: usize, magnitude: f64, detail: String| AuditViolation {
            matrix: label.to_string(),
            check,
            index: Some((row, col)),
            magnitude,
            detail,
        };
    let g_diag = model.g_diag();
    let mut report = AuditReport::new(label);
    report.record(
        g_diag
            .iter()
            .enumerate()
            .map(|(i, &v)| (i, i, v))
            .chain(model.g_off().iter().copied())
            .find(|e| !e.2.is_finite())
            .map(|(i, j, v)| violation(AuditCheck::Finite, i, j, v, format!("entry is {v}"))),
    );
    if !report.is_clean() {
        // Cholesky on a NaN-bearing matrix would report nonsense.
        return report;
    }
    let passivity = model.passivity_report();
    report.record(passivity.cholesky_failed_at.map(|r| {
        violation(
            AuditCheck::PositiveDefinite,
            r,
            r,
            g_diag[r],
            format!("Cholesky pivot of row {r} is not positive (Theorem 1)"),
        )
    }));
    report.record(passivity.first_non_dominant.map(|(i, deficit)| {
        let d = g_diag[i].abs();
        violation(
            AuditCheck::DiagonallyDominant,
            i,
            i,
            deficit,
            format!(
                "row {i}: |diag| = {d:.3e} does not exceed off-diagonal sum {:.3e}",
                d + deficit
            ),
        )
    }));
    report
}

/// Gated enforcement of [`audit_parasitics`]: a no-op (one relaxed atomic
/// load) unless audits are on.
///
/// # Errors
///
/// [`CoreError::AuditFailed`] carrying the full report when any
/// error-severity violation was found.
pub fn enforce_parasitics(parasitics: &Parasitics) -> Result<(), CoreError> {
    if !audit::enabled() {
        return Ok(());
    }
    audit_parasitics(parasitics).into_result()?;
    Ok(())
}

/// Gated enforcement of [`audit_model`]: a no-op (one relaxed atomic
/// load) unless audits are on.
///
/// Call this *after* passivity repair — a freshly sparsified model may
/// legitimately be non-SPD before [`crate::repair::repair_passivity`]
/// restores dominance.
///
/// # Errors
///
/// [`CoreError::AuditFailed`] carrying the full report when any
/// error-severity violation was found.
pub fn enforce_model(label: &str, model: &VpecModel) -> Result<(), CoreError> {
    if !audit::enabled() {
        return Ok(());
    }
    audit_model(label, model).into_result()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_extract::{extract, ExtractionConfig};
    use vpec_geometry::BusSpec;

    fn bus_parasitics(bits: usize) -> Parasitics {
        extract(
            &BusSpec::new(bits).build(),
            &ExtractionConfig::paper_default(),
        )
    }

    #[test]
    fn healthy_parasitics_audit_clean() {
        let report = audit_parasitics(&bus_parasitics(6));
        assert!(report.is_clean(), "{}", report.summary());
        assert!(report.checks_run >= 6);
    }

    #[test]
    fn corrupted_inductance_is_flagged_with_index() {
        let para = bus_parasitics(4);
        let mut l = para.inductance().clone();
        l[(1, 2)] = f64::NAN;
        l[(2, 1)] = f64::NAN;
        let para = para.with_inductance(l);
        let report = audit_parasitics(&para);
        assert!(report.has_errors());
        let v = &report.violations[0];
        assert_eq!(v.matrix, "partial inductance L");
        assert_eq!(v.check, AuditCheck::Finite);
        assert_eq!(v.index, Some((1, 2)));
    }

    #[test]
    fn non_positive_length_is_flagged() {
        let mut para = bus_parasitics(3);
        para.lengths[2] = -1e-6;
        let report = audit_parasitics(&para);
        assert!(report.has_errors());
        assert!(report
            .violations
            .iter()
            .any(|v| v.matrix == "filament lengths" && v.index == Some((2, 2))));
    }

    #[test]
    fn healthy_model_audit_clean() {
        let para = bus_parasitics(8);
        let model = VpecModel::full(&para).unwrap();
        let report = audit_model("full VPEC Ĝ", &model);
        assert!(report.is_clean(), "{}", report.summary());
    }

    #[test]
    fn hand_corrupted_model_is_flagged_actionably() {
        // A Ĝ with one negated diagonal entry is not positive definite;
        // the audit must say which matrix, which check, and where.
        let n = 4;
        let mut g_diag = vec![1.0; n];
        g_diag[2] = -0.5;
        let model = VpecModel::from_parts(vec![1.0; n], g_diag, vec![(0, 1, -0.1)]);
        let report = audit_model("corrupted Ĝ", &model);
        assert!(report.has_errors());
        assert_eq!(report.violations.len(), 1, "{}", report.summary());
        let v = &report.violations[0];
        assert_eq!(v.matrix, "corrupted Ĝ");
        assert_eq!(v.check, AuditCheck::PositiveDefinite);
        assert_eq!(v.index, Some((2, 2)));
        let msg = v.to_string();
        assert!(msg.contains("corrupted Ĝ"), "actionable message: {msg}");
    }

    #[test]
    fn non_dominant_model_is_a_located_warning() {
        // Passive, but row 1 misses dominance by 0.2: a warning, not an
        // error.
        let model = VpecModel::from_parts(
            vec![1.0; 3],
            vec![1.0, 1.0, 1.0],
            vec![(0, 1, -0.6), (1, 2, -0.6)],
        );
        let report = audit_model("tridiagonal Ĝ", &model);
        assert!(!report.has_errors(), "{}", report.summary());
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.matrix, "tridiagonal Ĝ");
        assert_eq!(v.check, AuditCheck::DiagonallyDominant);
        assert_eq!(v.index, Some((1, 1)));
        assert!((v.magnitude - 0.2).abs() < 1e-12, "deficit {}", v.magnitude);
    }

    #[test]
    fn non_finite_coupling_is_located_before_any_factor() {
        let model = VpecModel::from_parts(
            vec![1.0; 3],
            vec![1.0, 1.0, 1.0],
            vec![(0, 1, -0.1), (1, 2, f64::NAN)],
        );
        let report = audit_model("NaN Ĝ", &model);
        assert_eq!(report.violations.len(), 1, "{}", report.summary());
        let v = &report.violations[0];
        assert_eq!(v.matrix, "NaN Ĝ");
        assert_eq!(v.check, AuditCheck::Finite);
        assert_eq!(v.index, Some((1, 2)));
    }

    #[test]
    fn enforcement_is_typed_error_not_panic() {
        if !audit::enabled() {
            return; // enforcement explicitly disabled in this run
        }
        let para = bus_parasitics(3);
        let mut l = para.inductance().clone();
        l[(0, 0)] = f64::INFINITY;
        let para = para.with_inductance(l);
        match enforce_parasitics(&para) {
            Err(CoreError::AuditFailed(f)) => {
                assert!(f.0.has_errors());
            }
            other => panic!("expected AuditFailed, got {other:?}"),
        }
        let model = VpecModel::from_parts(vec![1.0; 2], vec![-1.0, 1.0], Vec::new());
        assert!(matches!(
            enforce_model("bad model", &model),
            Err(CoreError::AuditFailed(_))
        ));
    }

    #[test]
    fn enforcement_passes_healthy_inputs() {
        let para = bus_parasitics(5);
        enforce_parasitics(&para).unwrap();
        let model = VpecModel::full(&para).unwrap();
        enforce_model("full VPEC Ĝ", &model).unwrap();
    }
}
