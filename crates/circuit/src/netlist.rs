//! Netlist construction: nodes, element builders, validation, statistics.

use crate::elements::{Element, ElementId};
use crate::error::CircuitError;
use crate::waveform::Waveform;
use std::collections::HashMap;

/// A circuit node. `NodeId(0)` is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

// By hand: a derived `PartialOrd` calls the `partial_cmp` clippy.toml disallows.
impl Ord for NodeId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for NodeId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl NodeId {
    /// `true` for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// A linear circuit netlist.
///
/// Build nodes with [`Circuit::node`], add elements with the `add_*`
/// methods (each validates its value and node references and returns an
/// [`ElementId`]), then hand the circuit to [`crate::dc`],
/// [`crate::transient`] or [`crate::ac`].
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    name_to_node: HashMap<String, NodeId>,
    elements: Vec<Element>,
}

impl Circuit {
    /// The ground (reference) node.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit (ground pre-defined as node `"0"`).
    pub fn new() -> Self {
        let mut c = Circuit {
            node_names: vec!["0".to_string()],
            name_to_node: HashMap::new(),
            elements: Vec::new(),
        };
        c.name_to_node.insert("0".to_string(), NodeId(0));
        c
    }

    /// Interns a named node, creating it on first use.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.name_to_node.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.to_string());
        self.name_to_node.insert(name.to_string(), id);
        id
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this circuit.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// All elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Element by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this circuit.
    pub fn element(&self, id: ElementId) -> &Element {
        &self.elements[id.0]
    }

    fn check_node(&self, name: &str, n: NodeId) -> Result<(), CircuitError> {
        if n.0 < self.node_names.len() {
            Ok(())
        } else {
            Err(CircuitError::UnknownNode {
                element: name.to_string(),
            })
        }
    }

    fn check_positive(name: &str, v: f64, reason: &'static str) -> Result<(), CircuitError> {
        if v > 0.0 && v.is_finite() {
            Ok(())
        } else {
            Err(CircuitError::InvalidValue {
                element: name.to_string(),
                reason,
            })
        }
    }

    fn check_finite(name: &str, v: f64, reason: &'static str) -> Result<(), CircuitError> {
        if v.is_finite() {
            Ok(())
        } else {
            Err(CircuitError::InvalidValue {
                element: name.to_string(),
                reason,
            })
        }
    }

    fn push(&mut self, e: Element) -> ElementId {
        let id = ElementId(self.elements.len());
        self.elements.push(e);
        id
    }

    /// Adds a resistor.
    ///
    /// Negative resistance is allowed — the VPEC magnetic circuit maps
    /// antiparallel inductive couplings to negative effective resistances
    /// (overall passivity is a property of the full `Ĝ` matrix, not of
    /// individual entries). Zero and non-finite values are rejected.
    ///
    /// # Errors
    ///
    /// Rejects zero or non-finite resistance and unknown nodes.
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        r: f64,
    ) -> Result<ElementId, CircuitError> {
        if r == 0.0 || !r.is_finite() {
            return Err(CircuitError::InvalidValue {
                element: name.to_string(),
                reason: "resistance must be nonzero and finite",
            });
        }
        self.check_node(name, a)?;
        self.check_node(name, b)?;
        Ok(self.push(Element::Resistor {
            name: name.to_string(),
            a,
            b,
            r,
        }))
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite capacitance and unknown nodes.
    pub fn add_capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        c: f64,
    ) -> Result<ElementId, CircuitError> {
        Self::check_positive(name, c, "capacitance must be positive and finite")?;
        self.check_node(name, a)?;
        self.check_node(name, b)?;
        Ok(self.push(Element::Capacitor {
            name: name.to_string(),
            a,
            b,
            c,
        }))
    }

    /// Adds an inductor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite inductance and unknown nodes.
    pub fn add_inductor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        l: f64,
    ) -> Result<ElementId, CircuitError> {
        Self::check_positive(name, l, "inductance must be positive and finite")?;
        self.check_node(name, a)?;
        self.check_node(name, b)?;
        Ok(self.push(Element::Inductor {
            name: name.to_string(),
            a,
            b,
            l,
        }))
    }

    /// Adds a mutual inductance between two inductors.
    ///
    /// # Errors
    ///
    /// Rejects ids that are not inductors and non-finite coupling.
    pub fn add_mutual(
        &mut self,
        name: &str,
        la: ElementId,
        lb: ElementId,
        m: f64,
    ) -> Result<ElementId, CircuitError> {
        Self::check_finite(name, m, "mutual inductance must be finite")?;
        let ok = |id: ElementId| {
            id.0 < self.elements.len() && matches!(self.elements[id.0], Element::Inductor { .. })
        };
        if !ok(la) || !ok(lb) || la == lb {
            return Err(CircuitError::BadSenseElement {
                element: name.to_string(),
            });
        }
        Ok(self.push(Element::Mutual {
            name: name.to_string(),
            la,
            lb,
            m,
        }))
    }

    /// Adds a VPEC magnetic branch from `p` to `n` whose voltage is
    /// `l·d v(a)/dt` (see [`Element::MagneticBranch`]).
    ///
    /// # Errors
    ///
    /// Rejects non-positive or non-finite `l`, unknown nodes and a ground
    /// magnetic node.
    pub fn add_magnetic_branch(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        a: NodeId,
        l: f64,
    ) -> Result<ElementId, CircuitError> {
        Self::check_positive(name, l, "length must be positive and finite")?;
        self.check_node(name, p)?;
        self.check_node(name, n)?;
        self.check_node(name, a)?;
        if a.is_ground() {
            return Err(CircuitError::InvalidValue {
                element: name.to_string(),
                reason: "magnetic node must not be ground",
            });
        }
        Ok(self.push(Element::MagneticBranch {
            name: name.to_string(),
            p,
            n,
            a,
            l,
        }))
    }

    /// Adds an independent voltage source (no AC component).
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes.
    pub fn add_vsource(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        wave: Waveform,
    ) -> Result<ElementId, CircuitError> {
        self.check_node(name, p)?;
        self.check_node(name, n)?;
        Ok(self.push(Element::VSource {
            name: name.to_string(),
            p,
            n,
            wave,
            ac: None,
        }))
    }

    /// Adds an independent voltage source with an AC magnitude/phase for
    /// frequency sweeps.
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes and non-finite AC parameters.
    pub fn add_vsource_ac(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        wave: Waveform,
        ac_mag: f64,
        ac_phase: f64,
    ) -> Result<ElementId, CircuitError> {
        self.check_node(name, p)?;
        self.check_node(name, n)?;
        Self::check_finite(name, ac_mag, "AC magnitude must be finite")?;
        Self::check_finite(name, ac_phase, "AC phase must be finite")?;
        Ok(self.push(Element::VSource {
            name: name.to_string(),
            p,
            n,
            wave,
            ac: Some((ac_mag, ac_phase)),
        }))
    }

    /// Adds an independent current source.
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes.
    pub fn add_isource(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        wave: Waveform,
    ) -> Result<ElementId, CircuitError> {
        self.check_node(name, p)?;
        self.check_node(name, n)?;
        Ok(self.push(Element::ISource {
            name: name.to_string(),
            p,
            n,
            wave,
            ac: None,
        }))
    }

    /// Adds a voltage-controlled voltage source (E element).
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes and non-finite gain.
    pub fn add_vcvs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gain: f64,
    ) -> Result<ElementId, CircuitError> {
        Self::check_finite(name, gain, "gain must be finite")?;
        for node in [p, n, cp, cn] {
            self.check_node(name, node)?;
        }
        Ok(self.push(Element::Vcvs {
            name: name.to_string(),
            p,
            n,
            cp,
            cn,
            gain,
        }))
    }

    /// Adds a voltage-controlled current source (G element).
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes and non-finite transconductance.
    pub fn add_vccs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    ) -> Result<ElementId, CircuitError> {
        Self::check_finite(name, gm, "transconductance must be finite")?;
        for node in [p, n, cp, cn] {
            self.check_node(name, node)?;
        }
        Ok(self.push(Element::Vccs {
            name: name.to_string(),
            p,
            n,
            cp,
            cn,
            gm,
        }))
    }

    /// Adds a current-controlled current source (F element) sensing the
    /// branch current of `sense`.
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes, non-finite gain, or a `sense` element that
    /// carries no branch current.
    pub fn add_cccs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        sense: ElementId,
        gain: f64,
    ) -> Result<ElementId, CircuitError> {
        Self::check_finite(name, gain, "gain must be finite")?;
        self.check_node(name, p)?;
        self.check_node(name, n)?;
        self.check_sense(name, sense)?;
        Ok(self.push(Element::Cccs {
            name: name.to_string(),
            p,
            n,
            sense,
            gain,
        }))
    }

    /// Adds a current-controlled voltage source (H element).
    ///
    /// # Errors
    ///
    /// Rejects unknown nodes, non-finite transresistance, or a bad sense
    /// element.
    pub fn add_ccvs(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        sense: ElementId,
        r: f64,
    ) -> Result<ElementId, CircuitError> {
        Self::check_finite(name, r, "transresistance must be finite")?;
        self.check_node(name, p)?;
        self.check_node(name, n)?;
        self.check_sense(name, sense)?;
        Ok(self.push(Element::Ccvs {
            name: name.to_string(),
            p,
            n,
            sense,
            r,
        }))
    }

    fn check_sense(&self, name: &str, sense: ElementId) -> Result<(), CircuitError> {
        if sense.0 < self.elements.len() && self.elements[sense.0].is_branch() {
            Ok(())
        } else {
            Err(CircuitError::BadSenseElement {
                element: name.to_string(),
            })
        }
    }

    /// Number of reactive elements (C, L, K) — the paper's model-complexity
    /// metric ("the VPEC model largely reduces reactive elements").
    pub fn reactive_count(&self) -> usize {
        self.elements.iter().filter(|e| e.is_reactive()).count()
    }

    /// Number of elements carrying a branch-current unknown.
    pub fn branch_count(&self) -> usize {
        self.elements.iter().filter(|e| e.is_branch()).count()
    }

    /// Total element count.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Dimension of the MNA system: non-ground nodes + branch currents.
    pub fn mna_dim(&self) -> usize {
        (self.node_count() - 1) + self.branch_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_interning() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        let b = c.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.node_name(a), "a");
        assert!(Circuit::GROUND.is_ground());
        assert!(!a.is_ground());
    }

    #[test]
    fn element_builders_validate() {
        let mut c = Circuit::new();
        let a = c.node("a");
        assert!(c.add_resistor("R1", a, Circuit::GROUND, 100.0).is_ok());
        assert!(c.add_resistor("R2", a, Circuit::GROUND, 0.0).is_err());
        // Negative resistance is legal (VPEC antiparallel couplings).
        assert!(c.add_resistor("R3", a, Circuit::GROUND, -5.0).is_ok());
        assert!(c.add_resistor("R4", a, Circuit::GROUND, f64::NAN).is_err());
        assert!(c
            .add_resistor("R5", a, Circuit::GROUND, f64::INFINITY)
            .is_err());
        assert!(c.add_capacitor("C1", a, Circuit::GROUND, 1e-12).is_ok());
        assert!(c.add_capacitor("C2", a, Circuit::GROUND, -1e-12).is_err());
        assert!(c.add_inductor("L1", a, Circuit::GROUND, 1e-9).is_ok());
        assert!(c.add_inductor("L2", a, Circuit::GROUND, 0.0).is_err());
    }

    #[test]
    fn unknown_node_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let err = c.add_resistor("R1", a, NodeId(42), 1.0).unwrap_err();
        assert!(matches!(err, CircuitError::UnknownNode { .. }));
    }

    #[test]
    fn mutual_requires_inductors() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let l1 = c.add_inductor("L1", a, Circuit::GROUND, 1e-9).unwrap();
        let l2 = c.add_inductor("L2", b, Circuit::GROUND, 1e-9).unwrap();
        let r1 = c.add_resistor("R1", a, b, 1.0).unwrap();
        assert!(c.add_mutual("K1", l1, l2, 0.5e-9).is_ok());
        assert!(c.add_mutual("K2", l1, r1, 0.5e-9).is_err());
        assert!(c.add_mutual("K3", l1, l1, 0.5e-9).is_err());
    }

    #[test]
    fn magnetic_branch_is_validated_and_sensed() {
        let mut c = Circuit::new();
        let (p, a) = (c.node("p"), c.node("a"));
        for (node, l) in [
            (a, 0.0),
            (a, f64::NAN),
            (Circuit::GROUND, 1e-3),
            (NodeId(9), 1e-3),
        ] {
            assert!(c
                .add_magnetic_branch("x", p, Circuit::GROUND, node, l)
                .is_err());
        }
        let br = c
            .add_magnetic_branch("0", p, Circuit::GROUND, a, 1e-3)
            .unwrap();
        assert!(c.add_cccs("f0", Circuit::GROUND, a, br, 1e-3).is_ok());
        assert_eq!(
            (c.branch_count(), c.reactive_count(), c.mna_dim()),
            (1, 1, 3)
        );
    }

    #[test]
    fn sense_must_be_branch() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let v = c
            .add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0))
            .unwrap();
        let r = c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        assert!(c.add_cccs("F1", a, Circuit::GROUND, v, 2.0).is_ok());
        assert!(c.add_cccs("F2", a, Circuit::GROUND, r, 2.0).is_err());
        assert!(c.add_ccvs("H1", a, Circuit::GROUND, v, 10.0).is_ok());
    }

    #[test]
    fn statistics() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0))
            .unwrap();
        c.add_resistor("R1", a, b, 10.0).unwrap();
        let l1 = c.add_inductor("L1", b, Circuit::GROUND, 1e-9).unwrap();
        let l2 = c.add_inductor("L2", a, Circuit::GROUND, 1e-9).unwrap();
        c.add_mutual("K1", l1, l2, 1e-10).unwrap();
        c.add_capacitor("C1", b, Circuit::GROUND, 1e-15).unwrap();
        assert_eq!(c.element_count(), 6);
        assert_eq!(c.reactive_count(), 4); // L1, L2, K1, C1
        assert_eq!(c.branch_count(), 3); // V1, L1, L2
        assert_eq!(c.mna_dim(), 2 + 3);
    }
}
