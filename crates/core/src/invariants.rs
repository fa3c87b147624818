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
//!   `Ĝ` must be finite, symmetric and SPD (Theorem 1 passivity); strict
//!   diagonal dominance (Theorem 2) is recorded as a warning because it
//!   only provably holds for aligned geometries. At
//!   [`AuditLevel::Full`] and moderate sizes, the model system is also
//!   solved with every available backend and cross-checked.
//!
//! Enforcement ([`enforce_parasitics`], [`enforce_model`]) is gated on the
//! global audit level: on by default in debug builds, opt-in via
//! `--audit`/`VPEC_AUDIT` in release builds, and a single relaxed atomic
//! load when off.

use crate::{CoreError, VpecModel};
use vpec_extract::Parasitics;
use vpec_numerics::audit::{self, AuditCheck, AuditLevel, AuditReport, AuditViolation};

/// Largest model dimension the Full-level backend cross-check will solve;
/// above this the dense reference solve would dominate build time.
const CONSISTENCY_DIM_CAP: usize = 256;

/// Worst tolerated relative disagreement between solver backends.
const CONSISTENCY_TOL: f64 = 1e-6;

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
/// boundary.
///
/// Always runs the SPD battery (finite / symmetric / positive definite as
/// errors, strict diagonal dominance as a warning). At
/// [`AuditLevel::Full`] on models of dimension ≤ `256` whose battery came
/// back error-free, additionally solves `Ĝ·x = 1` with dense LU, sparse LU
/// and Cholesky and records any cross-backend disagreement.
pub fn audit_model(label: &str, model: &VpecModel) -> AuditReport {
    let g = model.g_matrix();
    let mut report = audit::audit_spd_matrix(label, &g, sym_tol(g.max_abs()));
    if audit::level() >= AuditLevel::Full
        && !report.has_errors()
        && (1..=CONSISTENCY_DIM_CAP).contains(&g.rows())
    {
        let rhs = vec![1.0; g.rows()];
        let (_, violation) = audit::check_solve_consistency(label, &g, &rhs, CONSISTENCY_TOL);
        report.record(violation);
    }
    report
}

/// Gated enforcement of [`audit_parasitics`]: a no-op (one relaxed atomic
/// load) unless the audit level is at least [`AuditLevel::Basic`].
///
/// # Errors
///
/// [`CoreError::AuditFailed`] carrying the full report when any
/// error-severity violation was found.
pub fn enforce_parasitics(parasitics: &Parasitics) -> Result<(), CoreError> {
    if !audit::enabled(AuditLevel::Basic) {
        return Ok(());
    }
    audit_parasitics(parasitics).into_result()?;
    Ok(())
}

/// Gated enforcement of [`audit_model`]: a no-op (one relaxed atomic
/// load) unless the audit level is at least [`AuditLevel::Basic`].
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
    if !audit::enabled(AuditLevel::Basic) {
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
        let v = report
            .violations
            .iter()
            .find(|v| v.check == AuditCheck::PositiveDefinite)
            .expect("SPD violation expected");
        assert_eq!(v.matrix, "corrupted Ĝ");
        let msg = v.to_string();
        assert!(msg.contains("corrupted Ĝ"), "actionable message: {msg}");
    }

    #[test]
    fn enforcement_is_typed_error_not_panic() {
        if !audit::enabled(AuditLevel::Basic) {
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
