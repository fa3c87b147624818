//! Passivity repair for sparsified VPEC models.
//!
//! Aggressive truncation or windowing can push a model past the paper's
//! passivity guarantees: Theorem 2 proves the *exact* `Ĝ` is strictly
//! diagonally dominant, but deleting off-diagonals and approximating the
//! inverse both perturb the balance, and a model that loses dominance can
//! also lose positive definiteness — a non-passive netlist that may ring
//! or diverge in transient analysis.
//!
//! The repair here is diagonal compensation: for every row where the
//! diagonal fails to dominate, raise `Ĝᵢᵢ` to `(1 + margin)·Σⱼ≠ᵢ|Ĝᵢⱼ|`.
//! Because `Ĝ` is symmetric, a strictly dominant positive diagonal makes
//! the matrix SPD by Gershgorin's theorem, so the repaired model is
//! provably passive again. In circuit terms, raising a diagonal adds a
//! small extra conductance to ground at that VPEC node — a conservative
//! (energy-absorbing) perturbation. The [`RepairReport`] records exactly
//! how much was added so the accuracy cost is visible, not silent.

use crate::model::VpecModel;

/// Default dominance margin: the repaired diagonal exceeds the row's
/// off-diagonal absolute sum by this relative amount.
pub const DEFAULT_MARGIN: f64 = 1e-9;

/// What a passivity-repair pass did to a model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepairReport {
    /// Rows whose diagonal had to be raised.
    pub rows_repaired: usize,
    /// Largest single diagonal increase (siemens·meter, the unit of `Ĝ`).
    pub max_delta: f64,
    /// Sum of all diagonal increases.
    pub total_delta: f64,
    /// Largest *relative* diagonal increase (`delta / old_diag`), when the
    /// old diagonal was positive; absolute delta otherwise.
    pub max_relative_delta: f64,
    /// Whether the model was already strictly diagonally dominant before
    /// repair (if so, nothing was touched).
    pub was_dominant_before: bool,
}

impl RepairReport {
    /// `true` if the pass changed the model.
    pub fn repaired(&self) -> bool {
        self.rows_repaired > 0
    }

    /// One-line human-readable summary for solve reports.
    pub fn summary(&self) -> String {
        if self.repaired() {
            format!(
                "repaired {} row(s), max diag delta {:.3e} (rel {:.3e})",
                self.rows_repaired, self.max_delta, self.max_relative_delta
            )
        } else {
            "passive, no repair needed".to_string()
        }
    }
}

/// Repairs a (possibly non-passive) sparsified model by diagonal
/// compensation with the given dominance margin, returning the repaired
/// model and a report of what changed.
///
/// A model that is already strictly diagonally dominant is returned
/// unchanged (`rows_repaired == 0`). The repaired model is symmetric,
/// strictly diagonally dominant with a positive diagonal, and therefore
/// SPD — i.e. passive in the sense of the paper's Theorem 1.
pub fn repair_passivity(model: &VpecModel, margin: f64) -> (VpecModel, RepairReport) {
    let mut sp = vpec_trace::span!("model.repair", "dim" => model.len());
    let n = model.len();
    let off_sum = model.off_diagonal_abs_sums();

    let mut report = RepairReport {
        was_dominant_before: true,
        ..RepairReport::default()
    };
    let mut g_diag = model.g_diag().to_vec();
    for i in 0..n {
        let required = (1.0 + margin) * off_sum[i];
        if g_diag[i] <= off_sum[i] || g_diag[i] <= 0.0 {
            report.was_dominant_before = false;
            // `required` can still be 0 for an all-zero row; pin a tiny
            // positive diagonal so the matrix stays nonsingular.
            let target = if required > 0.0 {
                required
            } else {
                margin.max(f64::MIN_POSITIVE)
            };
            let delta = target - g_diag[i];
            if delta > 0.0 {
                let rel = if g_diag[i] > 0.0 {
                    delta / g_diag[i]
                } else {
                    delta
                };
                g_diag[i] = target;
                report.rows_repaired += 1;
                report.max_delta = report.max_delta.max(delta);
                report.max_relative_delta = report.max_relative_delta.max(rel);
                report.total_delta += delta;
            }
        }
    }

    sp.set_attr("rows_repaired", report.rows_repaired);
    if report.rows_repaired == 0 {
        return (model.clone(), report);
    }
    let repaired = VpecModel::from_parts(model.lengths().to_vec(), g_diag, model.g_off().to_vec());
    (repaired, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_model_untouched() {
        let m = VpecModel::from_parts(vec![1.0, 1.0], vec![2.0, 2.0], vec![(0, 1, -0.5)]);
        let (r, rep) = repair_passivity(&m, DEFAULT_MARGIN);
        assert!(!rep.repaired());
        assert!(rep.was_dominant_before);
        assert_eq!(r.g_diag(), m.g_diag());
        assert!(rep.summary().contains("no repair"));
    }

    #[test]
    fn deficient_row_is_raised_to_dominance() {
        // Row 0: diag 0.4 vs off-sum 1.0 — not dominant.
        let m = VpecModel::from_parts(vec![1.0, 1.0], vec![0.4, 3.0], vec![(0, 1, -1.0)]);
        let (r, rep) = repair_passivity(&m, 1e-6);
        assert_eq!(rep.rows_repaired, 1);
        assert!(!rep.was_dominant_before);
        assert!(rep.max_delta > 0.0);
        assert!(r.g_diag()[0] > 1.0, "raised above the off-sum");
        assert!(r.passivity_report().is_passive());
        assert!(rep.summary().contains("repaired 1 row"));
    }

    #[test]
    fn negative_diagonal_is_recovered() {
        let m = VpecModel::from_parts(vec![1.0, 1.0], vec![-0.1, 3.0], vec![(0, 1, 0.5)]);
        let (r, rep) = repair_passivity(&m, 1e-6);
        assert!(rep.repaired());
        assert!(r.g_diag()[0] > 0.0);
        assert!(r.passivity_report().is_passive());
    }

    #[test]
    fn isolated_zero_row_gets_positive_diagonal() {
        let m = VpecModel::from_parts(vec![1.0, 1.0], vec![0.0, 1.0], vec![]);
        let (r, rep) = repair_passivity(&m, 1e-6);
        assert!(rep.repaired());
        assert!(r.g_diag()[0] > 0.0);
    }

    #[test]
    fn repair_delta_is_tracked() {
        let m = VpecModel::from_parts(
            vec![1.0; 3],
            vec![0.5, 0.1, 5.0],
            vec![(0, 1, 1.0), (1, 2, -1.0)],
        );
        let (_, rep) = repair_passivity(&m, 1e-6);
        assert_eq!(rep.rows_repaired, 2);
        // total >= max, both positive.
        assert!(rep.total_delta >= rep.max_delta && rep.max_delta > 0.0);
    }
}
