//! K-element (susceptance) nodal-analysis baseline — the method the paper
//! positions VPEC against (§II-B).
//!
//! The K-method [Devgan/Ji/Dai; InductWise] also starts from `K = L⁻¹`,
//! but stamps it as a new circuit element in **nodal analysis**: the
//! inductive sub-network contributes the admittance block
//!
//! ```text
//! Γ(s) = (1/s) · A·K·Aᵀ
//! ```
//!
//! with `A` the inductor-branch incidence. The paper's §II-B argument for
//! VPEC is precisely that "the Γ matrix becomes indefinite when s → 0.
//! Therefore, it will lose correct dc information", while the VPEC model
//! stamps into MNA and keeps exact DC behaviour. This module implements
//! the K-element solver faithfully so that claim can be measured: at
//! gigahertz frequencies it matches the MNA reference, and as the
//! frequency drops toward DC the `1/s` block swamps the resistive
//! information and the computed response degrades — run
//! `low_frequency_breakdown` in the tests, or the comparison in
//! EXPERIMENTS.md.
//!
//! The same electrical topology as [`crate::peec::build_peec`] is used
//! (chain nodes, series resistances, π capacitances, drivers and loads);
//! only the inductance representation differs.

use crate::{CoreError, DriveConfig, VpecModel};
use std::collections::HashMap;
use vpec_extract::Parasitics;
use vpec_geometry::Layout;
use vpec_numerics::{Complex64, DenseMatrix, LuFactor};

/// A nodal-analysis model with the inductive coupling stamped as a
/// (possibly sparsified) K element.
#[derive(Debug, Clone)]
pub struct KNodalModel {
    /// Number of non-ground nodes.
    n_nodes: usize,
    /// Static conductance stamps `(i, j, g)` (ground = usize::MAX skipped).
    conductance: Vec<(usize, usize, f64)>,
    /// Capacitance stamps `(i, j, c)` multiplying `s`.
    capacitance: Vec<(usize, usize, f64)>,
    /// Susceptance stamps `(i, j, k)` multiplying `1/s`.
    susceptance: Vec<(usize, usize, f64)>,
    /// AC current injections per node (from Norton-transformed drivers).
    injection: Vec<(usize, f64)>,
    /// Far-end node index per net.
    far_nodes: Vec<usize>,
}

const GND: usize = usize::MAX;

impl KNodalModel {
    /// Builds the K-element model. `model` supplies the (possibly
    /// truncated) inverse-inductance entries: `Kᵢⱼ = Ĝᵢⱼ/(lᵢ·lⱼ)`.
    ///
    /// # Errors
    ///
    /// [`CoreError::ShapeMismatch`] if layout/parasitics/model disagree.
    pub fn build(
        layout: &Layout,
        parasitics: &Parasitics,
        model: &VpecModel,
        drive: &DriveConfig,
    ) -> Result<Self, CoreError> {
        let nf = parasitics.len();
        if layout.filaments().len() != nf || model.len() != nf {
            return Err(CoreError::ShapeMismatch {
                parasitics: nf,
                layout: layout.filaments().len(),
            });
        }
        let mut node_ids: HashMap<String, usize> = HashMap::new();
        let mut n_nodes = 0usize;
        let mut node = |name: String, n_nodes: &mut usize| -> usize {
            *node_ids.entry(name).or_insert_with(|| {
                let id = *n_nodes;
                *n_nodes += 1;
                id
            })
        };

        let mut conductance = Vec::new();
        let mut capacitance = Vec::new();
        let mut injection = Vec::new();
        let mut far_nodes = Vec::new();
        // Per-filament branch terminals (mid → out) for the K incidence,
        // plus the chain input node (where coupling caps attach).
        let mut branch = vec![(GND, GND); nf];
        let mut inputs = vec![GND; nf];

        for (k, net) in layout.nets().iter().enumerate() {
            let chain = net.filaments();
            let mut nodes = Vec::with_capacity(chain.len() + 1);
            for p in 0..=chain.len() {
                nodes.push(node(format!("n{k}_{p}"), &mut n_nodes));
            }
            // `nodes` holds chain.len() + 1 entries, so the far end always exists.
            let far = nodes[chain.len()];
            far_nodes.push(far);
            for (p, &f) in chain.iter().enumerate() {
                let mid = node(format!("m{k}_{p}"), &mut n_nodes);
                conductance.push((nodes[p], mid, 1.0 / parasitics.resistance[f]));
                branch[f] = (mid, nodes[p + 1]);
                inputs[f] = nodes[p];
                let cg2 = parasitics.cap_ground[f] / 2.0;
                if cg2 > 0.0 {
                    capacitance.push((nodes[p], GND, cg2));
                    capacitance.push((nodes[p + 1], GND, cg2));
                }
            }
            // Driver: Norton transform of (1 V AC source behind Rd).
            conductance.push((nodes[0], GND, 1.0 / drive.rd));
            if drive.is_aggressor(k) {
                injection.push((nodes[0], 1.0 / drive.rd));
            }
            capacitance.push((far, GND, drive.cl));
        }
        // Coupling capacitances (halved at each end, as in the netlists).
        for &(i, j, c) in &parasitics.cap_coupling {
            let c2 = c / 2.0;
            capacitance.push((inputs[i], inputs[j], c2));
            capacitance.push((branch[i].1, branch[j].1, c2));
        }

        // K stamps: Γ = (1/s)·A·K·Aᵀ over filament branches.
        let mut susceptance = Vec::new();
        let lengths = model.lengths();
        let stamp_k = |bi: (usize, usize),
                       bj: (usize, usize),
                       k_val: f64,
                       out: &mut Vec<(usize, usize, f64)>| {
            // Branch pair (a1→b1, a2→b2): ±k at the four node pairs.
            out.push((bi.0, bj.0, k_val));
            out.push((bi.1, bj.1, k_val));
            out.push((bi.0, bj.1, -k_val));
            out.push((bi.1, bj.0, -k_val));
        };
        for (i, &gd) in model.g_diag().iter().enumerate() {
            let k_ii = gd / (lengths[i] * lengths[i]);
            stamp_k(branch[i], branch[i], k_ii, &mut susceptance);
        }
        for &(i, j, g) in model.g_off() {
            let k_ij = g / (lengths[i] * lengths[j]);
            stamp_k(branch[i], branch[j], k_ij, &mut susceptance);
            stamp_k(branch[j], branch[i], k_ij, &mut susceptance);
        }

        Ok(KNodalModel {
            n_nodes,
            conductance,
            capacitance,
            susceptance,
            injection,
            far_nodes,
        })
    }

    /// Far-end node index of net `k` (into the solution vector).
    pub fn far_node(&self, k: usize) -> usize {
        self.far_nodes[k]
    }

    /// Number of nodal unknowns.
    pub fn dim(&self) -> usize {
        self.n_nodes
    }

    /// Assembles and solves the nodal system at `frequency`, returning the
    /// complex node voltages.
    ///
    /// # Errors
    ///
    /// Propagates a singular nodal matrix — which is exactly what happens
    /// as `s → 0` (the paper's §II-B indefiniteness argument); callers
    /// should treat low-frequency failures as the expected breakdown.
    pub fn solve_ac(&self, frequency: f64) -> Result<Vec<Complex64>, CoreError> {
        assert!(frequency > 0.0, "nodal K analysis needs s = jω ≠ 0");
        let omega = 2.0 * std::f64::consts::PI * frequency;
        let s = Complex64::new(0.0, omega);
        let inv_s = Complex64::ONE / s;
        let n = self.n_nodes;
        let mut y = DenseMatrix::<Complex64>::zeros(n, n);
        let add = |i: usize, j: usize, v: Complex64, y: &mut DenseMatrix<Complex64>| match (i, j) {
            (GND, _) | (_, GND) => {}
            (i, j) => {
                y[(i, i)] += v;
                y[(j, j)] += v;
                y[(i, j)] -= v;
                y[(j, i)] -= v;
            }
        };
        let add_pair = |i: usize, j: usize, v: Complex64, y: &mut DenseMatrix<Complex64>| {
            // Two-terminal admittance between i and j (either may be GND).
            if i == GND && j == GND {
                return;
            }
            if j == GND {
                y[(i, i)] += v;
            } else if i == GND {
                y[(j, j)] += v;
            } else {
                add(i, j, v, y);
            }
        };
        for &(i, j, g) in &self.conductance {
            add_pair(i, j, Complex64::from_real(g), &mut y);
        }
        for &(i, j, c) in &self.capacitance {
            add_pair(i, j, s * c, &mut y);
        }
        // Susceptance stamps are direct matrix entries (already expanded
        // over node pairs, including signs).
        for &(i, j, k) in &self.susceptance {
            if i != GND && j != GND {
                y[(i, j)] += inv_s * k;
            }
        }
        let mut rhs = vec![Complex64::ZERO; n];
        for &(i, g) in &self.injection {
            rhs[i] += Complex64::from_real(g);
        }
        let lu = LuFactor::new(&y)?;
        Ok(lu.solve(&rhs)?)
    }

    /// A rough conditioning probe of the nodal matrix at `frequency`
    /// (ratio of extreme |pivot|s) — diverges as `s → 0`.
    ///
    /// # Errors
    ///
    /// Propagates a singular factorization.
    pub fn condition_estimate(&self, frequency: f64) -> Result<f64, CoreError> {
        // Reassemble and factor; reuse solve_ac's assembly by solving and
        // inspecting the factor is overkill — assemble again cheaply.
        let omega = 2.0 * std::f64::consts::PI * frequency;
        let s = Complex64::new(0.0, omega);
        let inv_s = Complex64::ONE / s;
        let n = self.n_nodes;
        let mut y = DenseMatrix::<Complex64>::zeros(n, n);
        for &(i, j, g) in &self.conductance {
            if i == GND {
                y[(j, j)] += Complex64::from_real(g);
            } else if j == GND {
                y[(i, i)] += Complex64::from_real(g);
            } else {
                y[(i, i)] += Complex64::from_real(g);
                y[(j, j)] += Complex64::from_real(g);
                y[(i, j)] -= Complex64::from_real(g);
                y[(j, i)] -= Complex64::from_real(g);
            }
        }
        for &(i, j, c) in &self.capacitance {
            let v = s * c;
            if i == GND {
                y[(j, j)] += v;
            } else if j == GND {
                y[(i, i)] += v;
            } else {
                y[(i, i)] += v;
                y[(j, j)] += v;
                y[(i, j)] -= v;
                y[(j, i)] -= v;
            }
        }
        for &(i, j, k) in &self.susceptance {
            if i != GND && j != GND {
                y[(i, j)] += inv_s * k;
            }
        }
        let lu = LuFactor::new(&y)?;
        Ok(lu.diag_condition_estimate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Experiment, ModelKind};
    use vpec_circuit::ac::AcSpec;
    use vpec_extract::ExtractionConfig;
    use vpec_geometry::BusSpec;

    fn setup(bits: usize) -> (Experiment, KNodalModel) {
        let exp = Experiment::new(
            BusSpec::new(bits).build(),
            &ExtractionConfig::paper_default(),
            DriveConfig::paper_default(),
        );
        let (model, _) = exp.vpec_model(ModelKind::VpecFull).unwrap();
        let k = KNodalModel::build(&exp.layout, &exp.parasitics, &model, &exp.drive).unwrap();
        (exp, k)
    }

    #[test]
    fn matches_mna_at_high_frequency() {
        let (exp, k) = setup(4);
        let built = exp.build(ModelKind::Peec).unwrap();
        for f in [1.0e9, 5.0e9, 10.0e9] {
            let (ac, _) = built.run_ac(&AcSpec::points(vec![f])).unwrap();
            let x = k.solve_ac(f).unwrap();
            for net in 0..4 {
                let reference = ac.magnitude(built.model.far_nodes[net]).unwrap()[0];
                let knodal = x[k.far_node(net)].abs();
                assert!(
                    (reference - knodal).abs() < 0.02 * reference.max(1e-3),
                    "net {net} at {f} Hz: MNA {reference} vs K {knodal}"
                );
            }
        }
    }

    #[test]
    fn low_frequency_breakdown() {
        // §II-B: "the Γ matrix becomes indefinite when s → 0 … it will
        // lose correct dc information". At DC the aggressor's far end must
        // sit at the full 1 V (no DC current); the MNA/VPEC formulation
        // gets this right at any frequency, the K nodal analysis degrades.
        let (exp, k) = setup(4);
        let built = exp.build(ModelKind::VpecFull).unwrap();
        let f_low = 1.0e-2; // 10 mHz: deep in the 1/s regime
        let (ac, _) = built.run_ac(&AcSpec::points(vec![f_low])).unwrap();
        let mna_val = ac.magnitude(built.model.far_nodes[0]).unwrap()[0];
        assert!((mna_val - 1.0).abs() < 1e-3, "MNA keeps DC info: {mna_val}");
        // The K-element system either fails to factor or returns a badly
        // conditioned answer.
        match k.solve_ac(f_low) {
            Err(_) => {} // singular: the breakdown in its bluntest form
            Ok(x) => {
                let k_val = x[k.far_node(0)].abs();
                let cond = k.condition_estimate(f_low).unwrap_or(f64::INFINITY);
                assert!(
                    (k_val - 1.0).abs() > 1e-3 || cond > 1e12,
                    "expected DC-information loss: value {k_val}, cond {cond}"
                );
            }
        }
        // And the conditioning ratio between 10 GHz and 10 mHz is huge.
        let c_hi = k.condition_estimate(10.0e9).unwrap();
        let c_lo = k.condition_estimate(f_low).unwrap_or(f64::INFINITY);
        assert!(
            c_lo > 1e4 * c_hi,
            "conditioning must collapse toward DC: {c_hi} -> {c_lo}"
        );
    }

    #[test]
    fn sparsified_k_also_works_at_high_frequency() {
        // The K-method's own sparsification (truncating K) corresponds to
        // our truncated model; it should still track at high frequency.
        let exp = Experiment::new(
            BusSpec::new(6).build(),
            &ExtractionConfig::paper_default(),
            DriveConfig::paper_default(),
        );
        let (model, _) = exp
            .vpec_model(ModelKind::TVpecNumerical { threshold: 0.01 })
            .unwrap();
        let k = KNodalModel::build(&exp.layout, &exp.parasitics, &model, &exp.drive).unwrap();
        let x = k.solve_ac(5.0e9).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
        assert!(x[k.far_node(0)].abs() > 0.05, "aggressor response present");
    }

    #[test]
    fn shape_mismatch_detected() {
        let exp = Experiment::new(
            BusSpec::new(3).build(),
            &ExtractionConfig::paper_default(),
            DriveConfig::paper_default(),
        );
        let other = Experiment::new(
            BusSpec::new(4).build(),
            &ExtractionConfig::paper_default(),
            DriveConfig::paper_default(),
        );
        let (model, _) = other.vpec_model(ModelKind::VpecFull).unwrap();
        assert!(matches!(
            KNodalModel::build(&exp.layout, &exp.parasitics, &model, &exp.drive),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }
}
