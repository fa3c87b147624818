//! Krylov-subspace model order reduction (the paper's stated future work:
//! "the authors intend to develop model order reduction for the VPEC
//! model").
//!
//! The linear MNA descriptor system
//!
//! ```text
//! C·ẋ + G·x = b·u(t),    y = Lᵀ·x
//! ```
//!
//! is projected onto the block-Krylov subspace
//! `span{A·r, A²·r, …}` with `A = G⁻¹C`, `r = G⁻¹b` (the PRIMA iteration
//! for a single input), built with one sparse factorization of `G` and
//! modified Gram–Schmidt orthogonalization. The reduced `q×q` system
//! matches the first `q` moments of the input→state transfer function and
//! simulates in microseconds regardless of the original netlist size.
//!
//! Branch rows are sign-flipped during assembly so the descriptor takes
//! the standard passive-MNA form (`C` block-diagonal with the capacitance
//! and inductance blocks both positive semidefinite), the structure PRIMA's
//! passivity argument relies on for RLC netlists.
//!
//! # Scope
//!
//! Stability of the reduced model is guaranteed for **RLC(+K) netlists**
//! (the PEEC models of this workspace): there the congruence transform
//! preserves the semidefinite structure. Netlists containing controlled
//! sources — including the VPEC magnetic-circuit realization — do not have
//! that structure, and plain Krylov projection can produce unstable
//! reduced models; reducing *those* requires a structure-preserving method
//! and is exactly the future work the paper announces. Reduce the PEEC
//! form of a model, or the electrical subcircuit, instead.

use crate::elements::Element;
use crate::error::CircuitError;
use crate::mna::{assemble, MnaLayout};
use crate::netlist::{Circuit, NodeId};
use crate::solver::factor;
use crate::waveform::Waveform;
use vpec_numerics::{Complex64, CooMatrix, CsrMatrix, DenseMatrix, LuFactor};

/// A reduced-order model of one source → several node voltages.
#[derive(Debug, Clone)]
pub struct ReducedModel {
    /// Reduced conductance `Vᵀ G V`.
    g_r: DenseMatrix<f64>,
    /// Reduced dynamic matrix `Vᵀ C V`.
    c_r: DenseMatrix<f64>,
    /// Reduced input vector `Vᵀ b`.
    b_r: Vec<f64>,
    /// Reduced output selectors, one row per requested node.
    l_r: Vec<Vec<f64>>,
    /// The driving source's waveform.
    wave: Waveform,
}

impl ReducedModel {
    /// Reduced state dimension.
    pub fn order(&self) -> usize {
        self.g_r.rows()
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.l_r.len()
    }

    /// Fixed-step trapezoidal transient of the reduced system from its DC
    /// point; returns `(times, y)` with `y[k]` the waveform of output `k`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidSpec`] for bad time parameters, or a
    /// singular reduced system.
    pub fn transient(
        &self,
        t_stop: f64,
        dt: f64,
    ) -> Result<(Vec<f64>, Vec<Vec<f64>>), CircuitError> {
        if !t_stop.is_finite() || t_stop <= 0.0 || !dt.is_finite() || dt <= 0.0 || dt > t_stop {
            return Err(CircuitError::InvalidSpec {
                reason: "need 0 < dt <= t_stop, finite",
            });
        }
        let q = self.order();
        // DC initial condition: G_r z = b_r u(0).
        let g_lu = LuFactor::new(&self.g_r)?;
        let u0 = self.wave.dc_value();
        let mut z = g_lu.solve(&self.b_r.iter().map(|v| v * u0).collect::<Vec<_>>())?;

        // Trapezoidal: (G_r + 2C_r/dt)·z⁺ = b_r·u⁺ + b_r·u + (2C_r/dt − G_r)·z
        let coef = 2.0 / dt;
        let lhs = DenseMatrix::from_fn(q, q, |i, j| self.g_r[(i, j)] + coef * self.c_r[(i, j)]);
        let rhs_mat = DenseMatrix::from_fn(q, q, |i, j| coef * self.c_r[(i, j)] - self.g_r[(i, j)]);
        let lhs_lu = LuFactor::new(&lhs)?;

        let n_steps = (t_stop / dt).round() as usize;
        let mut times = Vec::with_capacity(n_steps + 1);
        let mut outputs = vec![Vec::with_capacity(n_steps + 1); self.l_r.len()];
        let push = |t: f64, z: &[f64], times: &mut Vec<f64>, outputs: &mut Vec<Vec<f64>>| {
            times.push(t);
            for (k, l) in self.l_r.iter().enumerate() {
                outputs[k].push(l.iter().zip(z.iter()).map(|(a, b)| a * b).sum());
            }
        };
        push(0.0, &z, &mut times, &mut outputs);
        let mut u_prev = u0;
        for step in 1..=n_steps {
            let t = step as f64 * dt;
            let u = self.wave.value(t);
            let mut rhs = rhs_mat.matvec(&z)?;
            for (r, b) in rhs.iter_mut().zip(self.b_r.iter()) {
                *r += b * (u + u_prev);
            }
            z = lhs_lu.solve(&rhs)?;
            u_prev = u;
            push(t, &z, &mut times, &mut outputs);
        }
        Ok((times, outputs))
    }

    /// Transfer function `y_k / u` at the given frequencies.
    ///
    /// # Errors
    ///
    /// Propagates a singular reduced system.
    pub fn transfer(&self, output: usize, freqs: &[f64]) -> Result<Vec<Complex64>, CircuitError> {
        assert!(output < self.l_r.len(), "output index out of range");
        let q = self.order();
        let mut out = Vec::with_capacity(freqs.len());
        for &f in freqs {
            let omega = 2.0 * std::f64::consts::PI * f;
            let a = DenseMatrix::from_fn(q, q, |i, j| {
                Complex64::new(self.g_r[(i, j)], omega * self.c_r[(i, j)])
            });
            let b: Vec<Complex64> = self.b_r.iter().map(|&v| Complex64::from_real(v)).collect();
            let z = LuFactor::new(&a)?.solve(&b)?;
            let y: Complex64 = self.l_r[output]
                .iter()
                .zip(z.iter())
                .map(|(&l, &zz)| zz * l)
                .sum();
            out.push(y);
        }
        Ok(out)
    }
}

/// The `(G, C, b)` descriptor triple extracted from a netlist, plus the
/// input source's waveform.
type Descriptor = (CsrMatrix<f64>, CsrMatrix<f64>, Vec<f64>, Waveform);

/// Builds the `(G, C)` descriptor pair of a circuit with branch rows
/// sign-flipped into standard passive-MNA form, plus the input vector and
/// waveform of the chosen source.
fn descriptor(ckt: &Circuit, layout: &MnaLayout, input: usize) -> Result<Descriptor, CircuitError> {
    // A(κ) = G + κ·C_stamps: extract C by differencing κ = 1 and κ = 0.
    let a0 = assemble::<f64>(ckt, layout, |_| 0.0, |_| 0.0)?;
    let a1 = assemble::<f64>(ckt, layout, |c| c, |l| l)?;
    let n = layout.dim;
    let flip = |row: usize| -> f64 {
        if row >= layout.n_nodes {
            -1.0
        } else {
            1.0
        }
    };
    let mut g_coo = CooMatrix::new(n, n);
    let csr0 = a0.to_csr();
    for i in 0..n {
        let (cols, vals) = csr0.row(i);
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            g_coo.push(i, j, flip(i) * v)?;
        }
    }
    let mut c_coo = CooMatrix::new(n, n);
    let csr1 = a1.to_csr();
    for i in 0..n {
        let (cols, vals) = csr1.row(i);
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            let g = csr0.get(i, j);
            let diff = v - g;
            if diff != 0.0 {
                // Inductor stamps enter A(κ) as −κ·L; flipping the branch
                // row makes the C block +L (positive semidefinite).
                c_coo.push(i, j, flip(i) * diff)?;
            }
        }
    }
    let mut b = vec![0.0; n];
    let wave = match (ckt.elements().get(input), layout.branch_idx(input)) {
        (Some(Element::VSource { wave, .. }), Some(br)) => {
            b[br] = flip(br); // flipped with its row
            wave.clone()
        }
        _ => {
            return Err(CircuitError::InvalidSpec {
                reason: "MOR input must be a voltage source",
            })
        }
    };
    Ok((g_coo.to_csr(), c_coo.to_csr(), b, wave))
}

/// Reduces `ckt` (driven by the voltage source `input`, observed at
/// `outputs`) to a model of order `q`, matching moments about `s = 0`.
///
/// # Errors
///
/// See [`reduce_about`].
pub fn reduce(
    ckt: &Circuit,
    input: crate::ElementId,
    outputs: &[NodeId],
    q: usize,
) -> Result<ReducedModel, CircuitError> {
    reduce_about(ckt, input, outputs, q, 0.0)
}

/// [`reduce`] with a real expansion point `s0` (rad/s): the Krylov
/// recursion uses `(G + s0·C)⁻¹·C`, matching moments of the transfer
/// function about `s = s0`. A shift near the band of interest (e.g.
/// `2π·f_signal`) dramatically improves accuracy for fast transients,
/// where the DC moments underweight the high-frequency poles.
///
/// # Errors
///
/// * [`CircuitError::InvalidSpec`] if `q` is zero, `s0` is negative or
///   non-finite, the input is not a voltage source, or an output node is
///   ground/unknown.
/// * [`CircuitError::SingularSystem`] if `G + s0·C` is singular.
pub fn reduce_about(
    ckt: &Circuit,
    input: crate::ElementId,
    outputs: &[NodeId],
    q: usize,
    s0: f64,
) -> Result<ReducedModel, CircuitError> {
    if q == 0 {
        return Err(CircuitError::InvalidSpec {
            reason: "reduced order must be at least 1",
        });
    }
    if !s0.is_finite() || s0 < 0.0 {
        return Err(CircuitError::InvalidSpec {
            reason: "expansion point must be nonnegative and finite",
        });
    }
    let layout = MnaLayout::new(ckt);
    let (g, c, b, wave) = descriptor(ckt, &layout, input.0)?;
    let n = layout.dim;
    let q = q.min(n);

    // Factor the (shifted) pencil G + s0·C.
    let mut pencil = CooMatrix::new(n, n);
    for i in 0..n {
        let (cols, vals) = g.row(i);
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            pencil.push(i, j, v)?;
        }
    }
    if s0 > 0.0 {
        for i in 0..n {
            let (cols, vals) = c.row(i);
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                pencil.push(i, j, s0 * v)?;
            }
        }
    }
    let (g_factored, _) = factor(&pencil.to_csr(), None, "solve")?;

    // Arnoldi with modified Gram–Schmidt.
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(q);
    let mut v = g_factored.solve(&b)?;
    for _ in 0..q {
        // Orthogonalize against the current basis.
        for u in &basis {
            let proj: f64 = u.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
            for (vi, ui) in v.iter_mut().zip(u.iter()) {
                *vi -= proj * ui;
            }
        }
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-300 {
            break; // Krylov space exhausted
        }
        for vi in v.iter_mut() {
            *vi /= norm;
        }
        basis.push(v.clone());
        // Next direction: G⁻¹·C·v.
        let cv = c.matvec(&v)?;
        v = g_factored.solve(&cv)?;
    }
    let q_eff = basis.len();

    // Project.
    let project = |m: &CsrMatrix<f64>| -> Result<DenseMatrix<f64>, CircuitError> {
        let mut out = DenseMatrix::zeros(q_eff, q_eff);
        for (j, vj) in basis.iter().enumerate() {
            let mvj = m.matvec(vj)?;
            for (i, vi) in basis.iter().enumerate() {
                out[(i, j)] = vi.iter().zip(mvj.iter()).map(|(a, b)| a * b).sum();
            }
        }
        Ok(out)
    };
    let g_r = project(&g)?;
    let c_r = project(&c)?;
    let b_r: Vec<f64> = basis
        .iter()
        .map(|vi| vi.iter().zip(b.iter()).map(|(a, b)| a * b).sum())
        .collect();

    let mut l_r = Vec::with_capacity(outputs.len());
    for &node in outputs {
        let idx = layout.node_idx(node).ok_or(CircuitError::InvalidSpec {
            reason: "cannot observe the ground node",
        })?;
        l_r.push(basis.iter().map(|vi| vi[idx]).collect());
    }

    Ok(ReducedModel {
        g_r,
        c_r,
        b_r,
        l_r,
        wave,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{resample, WaveformDiff};
    use crate::transient::{run_transient, TransientSpec};

    /// An RC ladder with 20 sections.
    fn ladder() -> (Circuit, crate::ElementId, Vec<NodeId>) {
        let mut ckt = Circuit::new();
        let mut prev = ckt.node("in");
        let src = ckt
            .add_vsource("src", prev, Circuit::GROUND, Waveform::step(1.0, 50e-12))
            .unwrap();
        let mut nodes = Vec::new();
        for k in 0..20 {
            let node = ckt.node(&format!("n{k}"));
            ckt.add_resistor(&format!("r{k}"), prev, node, 100.0)
                .unwrap();
            ckt.add_capacitor(&format!("c{k}"), node, Circuit::GROUND, 20e-15)
                .unwrap();
            nodes.push(node);
            prev = node;
        }
        (ckt, src, nodes)
    }

    #[test]
    fn reduced_ladder_matches_full_transient() {
        let (ckt, src, nodes) = ladder();
        let far = *nodes.last().unwrap();
        let rom = reduce(&ckt, src, &[far], 8).unwrap();
        assert_eq!(rom.order(), 8);
        assert_eq!(rom.outputs(), 1);
        let t_stop = 2e-9;
        let dt = 1e-12;
        let (t_r, y) = rom.transient(t_stop, dt).unwrap();
        let full = run_transient(&ckt, &TransientSpec::new(t_stop, dt)).unwrap();
        let v_full = full.voltage(far).unwrap();
        let v_rom = resample(&t_r, &y[0], full.time());
        let d = WaveformDiff::compare(&v_full, &v_rom);
        assert!(
            d.max_pct_of_peak() < 2.0,
            "order-8 ROM should track the 20-section ladder: {}%",
            d.max_pct_of_peak()
        );
    }

    #[test]
    fn transfer_function_matches_ac_at_dc_and_midband() {
        let (ckt, src, nodes) = ladder();
        let far = *nodes.last().unwrap();
        let rom = reduce(&ckt, src, &[far], 10).unwrap();
        let h = rom.transfer(0, &[1.0, 1e8]).unwrap();
        // DC gain of the unloaded RC ladder is 1.
        assert!((h[0].abs() - 1.0).abs() < 1e-6, "DC gain {}", h[0].abs());
        // Compare the midband point against the full AC solve.
        let mut ac_ckt = ckt.clone();
        let inp = ac_ckt.node("in");
        // Rebuild with an AC-tagged source for the reference.
        let mut ref_ckt = Circuit::new();
        let mut prev = ref_ckt.node("in");
        ref_ckt
            .add_vsource_ac("src", prev, Circuit::GROUND, Waveform::dc(0.0), 1.0, 0.0)
            .unwrap();
        for k in 0..20 {
            let node = ref_ckt.node(&format!("n{k}"));
            ref_ckt
                .add_resistor(&format!("r{k}"), prev, node, 100.0)
                .unwrap();
            ref_ckt
                .add_capacitor(&format!("c{k}"), node, Circuit::GROUND, 20e-15)
                .unwrap();
            prev = node;
        }
        let _ = (ac_ckt, inp);
        let res = crate::ac::run_ac(&ref_ckt, &crate::ac::AcSpec::points(vec![1e8])).unwrap();
        let reference = res.magnitude(prev).unwrap()[0];
        assert!(
            (h[1].abs() - reference).abs() < 0.02 * reference.max(1e-9),
            "ROM {} vs AC {}",
            h[1].abs(),
            reference
        );
    }

    #[test]
    fn reduction_works_on_rlc_with_branches() {
        // A ladder with series inductors: branch rows exercised.
        let mut ckt = Circuit::new();
        let mut prev = ckt.node("in");
        let src = ckt
            .add_vsource("src", prev, Circuit::GROUND, Waveform::step(1.0, 20e-12))
            .unwrap();
        let mut last = prev;
        for k in 0..6 {
            let mid = ckt.node(&format!("m{k}"));
            let node = ckt.node(&format!("n{k}"));
            ckt.add_resistor(&format!("r{k}"), prev, mid, 20.0).unwrap();
            ckt.add_inductor(&format!("l{k}"), mid, node, 0.2e-9)
                .unwrap();
            ckt.add_capacitor(&format!("c{k}"), node, Circuit::GROUND, 15e-15)
                .unwrap();
            prev = node;
            last = node;
        }
        let rom = reduce(&ckt, src, &[last], 10).unwrap();
        let t_stop = 1.5e-9;
        let dt = 0.5e-12;
        let (t_r, y) = rom.transient(t_stop, dt).unwrap();
        let full = run_transient(&ckt, &TransientSpec::new(t_stop, dt)).unwrap();
        let v_full = full.voltage(last).unwrap();
        let v_rom = resample(&t_r, &y[0], full.time());
        let d = WaveformDiff::compare(&v_full, &v_rom);
        assert!(
            d.max_pct_of_peak() < 5.0,
            "RLC ROM mismatch: {}%",
            d.max_pct_of_peak()
        );
    }

    #[test]
    fn shifted_expansion_improves_fast_transients() {
        // A sharper stimulus than the ladder's dominant pole: the shifted
        // ROM must beat the DC-moments ROM at equal order.
        let (ckt, src, nodes) = ladder();
        let far = *nodes.last().unwrap();
        let t_stop = 1.0e-9;
        let dt = 0.5e-12;
        let full = run_transient(&ckt, &TransientSpec::new(t_stop, dt)).unwrap();
        let v_full = full.voltage(far).unwrap();

        let err_for = |s0: f64| -> f64 {
            let rom = reduce_about(&ckt, src, &[far], 6, s0).unwrap();
            let (t_r, y) = rom.transient(t_stop, dt).unwrap();
            let v_rom = resample(&t_r, &y[0], full.time());
            WaveformDiff::compare(&v_full, &v_rom).max_abs
        };
        let err_dc = err_for(0.0);
        let err_shifted = err_for(2.0 * std::f64::consts::PI * 2.0e9);
        assert!(
            err_shifted <= err_dc * 1.05,
            "shifted expansion should not be worse: {err_shifted} vs {err_dc}"
        );
        assert!(reduce_about(&ckt, src, &[far], 6, -1.0).is_err());
        assert!(reduce_about(&ckt, src, &[far], 6, f64::NAN).is_err());
    }

    #[test]
    fn reduction_handles_mutual_inductors() {
        // Coupled inductors (the PEEC K stamps) flow through the C block.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c = ckt.node("c");
        let src = ckt
            .add_vsource("src", a, Circuit::GROUND, Waveform::step(1.0, 20e-12))
            .unwrap();
        ckt.add_resistor("r1", a, b, 50.0).unwrap();
        let l1 = ckt.add_inductor("l1", b, Circuit::GROUND, 1e-9).unwrap();
        let l2 = ckt.add_inductor("l2", c, Circuit::GROUND, 1e-9).unwrap();
        ckt.add_mutual("k", l1, l2, 0.6e-9).unwrap();
        ckt.add_resistor("r2", c, Circuit::GROUND, 50.0).unwrap();
        ckt.add_capacitor("cl", c, Circuit::GROUND, 20e-15).unwrap();
        let rom = reduce(&ckt, src, &[c], 5).unwrap();
        let t_stop = 0.5e-9;
        let dt = 0.25e-12;
        let (t_r, y) = rom.transient(t_stop, dt).unwrap();
        let full = run_transient(&ckt, &TransientSpec::new(t_stop, dt)).unwrap();
        let v_full = full.voltage(c).unwrap();
        let v_rom = resample(&t_r, &y[0], full.time());
        let d = WaveformDiff::compare(&v_full, &v_rom);
        // Induced secondary voltage reproduced by the ROM.
        assert!(
            d.max_abs < 0.05 * (crate::metrics::peak_abs(&v_full)).max(1e-6),
            "ROM must track the coupled response: {}",
            d.max_abs
        );
    }

    #[test]
    fn order_capped_by_system_size() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let src = ckt
            .add_vsource("s", a, Circuit::GROUND, Waveform::dc(1.0))
            .unwrap();
        let b = ckt.node("b");
        ckt.add_resistor("r", a, b, 10.0).unwrap();
        ckt.add_capacitor("c", b, Circuit::GROUND, 1e-12).unwrap();
        let rom = reduce(&ckt, src, &[b], 50).unwrap();
        assert!(rom.order() <= 3, "order cannot exceed the MNA dimension");
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (ckt, src, nodes) = ladder();
        assert!(reduce(&ckt, src, &nodes[..1], 0).is_err());
        assert!(reduce(&ckt, src, &[Circuit::GROUND], 4).is_err());
        // A resistor is not a valid input.
        assert!(reduce(&ckt, crate::ElementId(1), &nodes[..1], 4).is_err());
        let rom = reduce(&ckt, src, &nodes[..1], 4).unwrap();
        assert!(rom.transient(-1.0, 1e-12).is_err());
        assert!(rom.transient(1e-9, 0.0).is_err());
    }
}
