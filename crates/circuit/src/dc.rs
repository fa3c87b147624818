//! DC operating-point analysis: capacitors open, inductors shorted,
//! sources at their `t = 0` values.

use crate::diagnostics::FactorDiagnostics;
use crate::elements::Element;
use crate::error::CircuitError;
use crate::mna::{add_source_rhs, assemble, MnaLayout};
use crate::netlist::{Circuit, NodeId};
use crate::solver::Factored;
use vpec_numerics::CooMatrix;

/// The DC solution: node voltages and branch currents.
#[derive(Debug, Clone)]
pub struct DcSolution {
    pub(crate) x: Vec<f64>,
    n_nodes: usize,
}

impl DcSolution {
    /// DC voltage of a node (0 for ground).
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the solved circuit.
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            assert!(node.0 - 1 < self.n_nodes, "node out of range");
            self.x[node.0 - 1]
        }
    }

    /// The raw unknown vector (nodes then branch currents).
    pub fn unknowns(&self) -> &[f64] {
        &self.x
    }
}

/// Computes the DC operating point.
///
/// # Errors
///
/// [`CircuitError::SingularSystem`] for floating nodes (e.g. a node only
/// reachable through capacitors) or voltage-source loops.
pub fn solve_dc(ckt: &Circuit) -> Result<DcSolution, CircuitError> {
    solve_dc_report(ckt).map(|(sol, _)| sol)
}

/// The MNA matrix [`solve_dc`] factors: capacitors open, inductors
/// shorted. For analyses that want to weigh its factor against another
/// one.
///
/// # Errors
///
/// [`CircuitError::Numerics`] when an element stamps outside the layout.
pub fn dc_matrix(ckt: &Circuit) -> Result<CooMatrix<f64>, CircuitError> {
    Ok(assemble::<f64>(
        ckt,
        &MnaLayout::new(ckt),
        |_| 0.0,
        |_| 0.0,
    )?)
}

/// [`solve_dc`] plus the factorization fallback-chain diagnostics.
///
/// # Errors
///
/// See [`solve_dc`].
pub fn solve_dc_report(ckt: &Circuit) -> Result<(DcSolution, FactorDiagnostics), CircuitError> {
    let layout = MnaLayout::new(ckt);
    let _sp = vpec_trace::span!("dc", "dim" => layout.dim);
    let a = dc_matrix(ckt)?;
    let mut rhs = vec![0.0; layout.dim];
    for (idx, e) in ckt.elements().iter().enumerate() {
        match e {
            Element::VSource { wave, .. } | Element::ISource { wave, .. } => {
                add_source_rhs(&mut rhs, &layout, idx, e, wave.dc_value());
            }
            _ => {}
        }
    }
    let (factored, diag) = Factored::factor_with(&a, false).map_err(|e| match e {
        CircuitError::SingularSystem { .. } => CircuitError::SingularSystem { analysis: "dc" },
        other => other,
    })?;
    let x = factored.solve(&rhs)?;
    Ok((
        DcSolution {
            x,
            n_nodes: layout.n_nodes,
        },
        diag,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    #[test]
    fn divider_with_inductor_short() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let mid = c.node("mid");
        let out = c.node("out");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::dc(2.0))
            .unwrap();
        c.add_resistor("R1", inp, mid, 100.0).unwrap();
        // Inductor shorts mid to out in DC.
        c.add_inductor("L1", mid, out, 1e-9).unwrap();
        c.add_resistor("R2", out, Circuit::GROUND, 100.0).unwrap();
        let sol = solve_dc(&c).unwrap();
        assert!((sol.voltage(mid) - 1.0).abs() < 1e-12);
        assert!((sol.voltage(out) - 1.0).abs() < 1e-12);
        assert_eq!(sol.voltage(Circuit::GROUND), 0.0);
    }

    #[test]
    fn capacitor_is_open_in_dc() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::dc(5.0))
            .unwrap();
        c.add_resistor("R1", inp, out, 1000.0).unwrap();
        c.add_capacitor("C1", out, Circuit::GROUND, 1e-12).unwrap();
        // No DC path from `out` to ground except the capacitor, but the
        // resistor pins its voltage: no current flows, so v(out)=v(in).
        c.add_resistor("Rload", out, Circuit::GROUND, 1e9).unwrap();
        let sol = solve_dc(&c).unwrap();
        assert!((sol.voltage(out) - 5.0).abs() < 1e-4);
    }

    #[test]
    fn floating_node_is_singular() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0))
            .unwrap();
        // Node b only reachable through a capacitor: open in DC.
        c.add_capacitor("C1", a, b, 1e-12).unwrap();
        let err = solve_dc(&c).unwrap_err();
        assert!(matches!(err, CircuitError::SingularSystem { .. }));
    }

    #[test]
    fn cccs_mirror() {
        // A current mirror via CCCS: sense V1's branch current, inject
        // twice that into a load resistor.
        let mut c = Circuit::new();
        let a = c.node("a");
        let out = c.node("out");
        let v = c
            .add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0))
            .unwrap();
        c.add_resistor("R1", a, Circuit::GROUND, 100.0).unwrap();
        // i(V1) = -10 mA by MNA convention (current flows out of + through R1).
        c.add_cccs("F1", Circuit::GROUND, out, v, 2.0).unwrap();
        c.add_resistor("RL", out, Circuit::GROUND, 50.0).unwrap();
        let sol = solve_dc(&c).unwrap();
        // |v(out)| = |2 · 10 mA · 50 Ω| = 1 V.
        assert!((sol.voltage(out).abs() - 1.0).abs() < 1e-9);
    }
}
