//! Circuit elements.

use crate::netlist::NodeId;
use crate::waveform::Waveform;

/// Index of an element within its [`crate::Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub usize);

// By hand: a derived `PartialOrd` calls the `partial_cmp` clippy.toml disallows.
impl Ord for ElementId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for ElementId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A netlist element.
///
/// Branch-type elements (voltage sources, inductors, magnetic branches,
/// VCVS, CCVS) introduce an extra MNA unknown for their branch current;
/// current-controlled sources (`Cccs`, `Ccvs`) sense the branch current of
/// such an element.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Element {
    /// Linear resistor between `a` and `b`.
    Resistor {
        /// Element name (netlist identifier).
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance in ohms (must be positive).
        r: f64,
    },
    /// Linear capacitor between `a` and `b`.
    Capacitor {
        /// Element name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance in farads (must be positive).
        c: f64,
    },
    /// Inductor between `a` and `b` (current flows a → b inside the
    /// element). May be magnetically coupled via [`Element::Mutual`].
    Inductor {
        /// Element name.
        name: String,
        /// Positive terminal.
        a: NodeId,
        /// Negative terminal.
        b: NodeId,
        /// Self inductance in henries (must be positive).
        l: f64,
    },
    /// Mutual inductance between two previously declared inductors
    /// (by element id). The PEEC model declares one per coupled pair.
    Mutual {
        /// Element name.
        name: String,
        /// First coupled inductor.
        la: ElementId,
        /// Second coupled inductor.
        lb: ElementId,
        /// Mutual inductance in henries (sign allowed; |m| < √(L₁L₂) for
        /// passivity of the pair).
        m: f64,
    },
    /// VPEC magnetic branch between `p` and `n` (current flows p → n
    /// inside the element): its voltage is `l·d v(a)/dt`, the inductive
    /// drop `lᵢ·dAᵢ/dt` a filament sees from the vector potential on its
    /// magnetic node `a`. It is a short at DC. A CCCS sensing it injects
    /// `lᵢ·Iᵢ` into `a`, which closes the VPEC loop.
    ///
    /// The SPICE writer expands it into the paper's Fig. 1 realization: a
    /// 0 V ammeter `Vamm{name}` from `p` to `s{name}`, a VCVS `Ee{name}`
    /// from `s{name}` to `n` of gain `l` on `v(d{name})`, a unit VCCS
    /// `Gg{name}` copying `v(a)` into `d{name}` and a unit inductor
    /// `Llu{name}` from `d{name}` to ground.
    MagneticBranch {
        /// Element name; the Fig. 1 expansion derives its cards' and
        /// internal nodes' names from it.
        name: String,
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Magnetic node whose voltage is the vector potential.
        a: NodeId,
        /// Filament length `lᵢ` scaling `d v(a)/dt` (must be positive).
        l: f64,
    },
    /// Independent voltage source (`p` is the positive terminal). A 0 V DC
    /// source doubles as an ammeter for current-controlled elements.
    VSource {
        /// Element name.
        name: String,
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Transient waveform.
        wave: Waveform,
        /// AC magnitude and phase (radians) for frequency sweeps.
        ac: Option<(f64, f64)>,
    },
    /// Independent current source (current flows p → n through the source,
    /// i.e. it injects into `n`).
    ISource {
        /// Element name.
        name: String,
        /// Terminal the current leaves from (source side).
        p: NodeId,
        /// Terminal the current is injected into.
        n: NodeId,
        /// Transient waveform.
        wave: Waveform,
        /// AC magnitude and phase (radians).
        ac: Option<(f64, f64)>,
    },
    /// Voltage-controlled voltage source: `v(p,n) = gain·v(cp,cn)`.
    Vcvs {
        /// Element name.
        name: String,
        /// Positive output terminal.
        p: NodeId,
        /// Negative output terminal.
        n: NodeId,
        /// Positive controlling node.
        cp: NodeId,
        /// Negative controlling node.
        cn: NodeId,
        /// Voltage gain.
        gain: f64,
    },
    /// Voltage-controlled current source: `i(p→n) = gm·v(cp,cn)`.
    Vccs {
        /// Element name.
        name: String,
        /// Terminal current flows out of.
        p: NodeId,
        /// Terminal current flows into.
        n: NodeId,
        /// Positive controlling node.
        cp: NodeId,
        /// Negative controlling node.
        cn: NodeId,
        /// Transconductance in siemens.
        gm: f64,
    },
    /// Current-controlled current source: `i(p→n) = gain·i(sense)`.
    Cccs {
        /// Element name.
        name: String,
        /// Terminal current flows out of.
        p: NodeId,
        /// Terminal current flows into.
        n: NodeId,
        /// Branch element whose current is sensed (must be a branch
        /// element: voltage source, VCVS, CCVS, inductor or magnetic
        /// branch).
        sense: ElementId,
        /// Current gain.
        gain: f64,
    },
    /// Current-controlled voltage source: `v(p,n) = r·i(sense)`.
    Ccvs {
        /// Element name.
        name: String,
        /// Positive output terminal.
        p: NodeId,
        /// Negative output terminal.
        n: NodeId,
        /// Branch element whose current is sensed.
        sense: ElementId,
        /// Transresistance in ohms.
        r: f64,
    },
}

impl Element {
    /// The element's netlist name.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::Inductor { name, .. }
            | Element::Mutual { name, .. }
            | Element::MagneticBranch { name, .. }
            | Element::VSource { name, .. }
            | Element::ISource { name, .. }
            | Element::Vcvs { name, .. }
            | Element::Vccs { name, .. }
            | Element::Cccs { name, .. }
            | Element::Ccvs { name, .. } => name,
        }
    }

    /// `true` if this element carries its own MNA branch-current unknown.
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Element::Inductor { .. }
                | Element::MagneticBranch { .. }
                | Element::VSource { .. }
                | Element::Vcvs { .. }
                | Element::Ccvs { .. }
        )
    }

    /// `true` if this element is reactive (stores energy): the paper's
    /// "number of reactive elements" complexity metric. A magnetic branch
    /// counts once, as the unit inductor of its Fig. 1 expansion.
    pub fn is_reactive(&self) -> bool {
        matches!(
            self,
            Element::Capacitor { .. }
                | Element::Inductor { .. }
                | Element::Mutual { .. }
                | Element::MagneticBranch { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let r = Element::Resistor {
            name: "R1".into(),
            a: NodeId(1),
            b: NodeId(0),
            r: 1.0,
        };
        assert_eq!(r.name(), "R1");
        assert!(!r.is_branch());
        assert!(!r.is_reactive());

        let l = Element::Inductor {
            name: "L1".into(),
            a: NodeId(1),
            b: NodeId(0),
            l: 1e-9,
        };
        assert!(l.is_branch());
        assert!(l.is_reactive());

        let v = Element::VSource {
            name: "V1".into(),
            p: NodeId(1),
            n: NodeId(0),
            wave: Waveform::dc(1.0),
            ac: None,
        };
        assert!(v.is_branch());
        assert!(!v.is_reactive());

        let m = Element::Mutual {
            name: "K1".into(),
            la: ElementId(0),
            lb: ElementId(1),
            m: 1e-10,
        };
        assert!(m.is_reactive());
        assert!(!m.is_branch());
    }
}
