//! SPICE netlist export.
//!
//! The paper's Fig. 8(b) compares "model size", defined as "the file size
//! of the resulting SPICE netlists". This module renders a [`Circuit`] in
//! SPICE syntax so the same metric can be measured here; the decks are
//! also valid input for external SPICE-class simulators (HSPICE/ngspice
//! dialect for the element cards used).

use crate::elements::Element;
use crate::netlist::Circuit;
use crate::waveform::Waveform;
use std::fmt::Write as _;

fn fmt_wave(w: &Waveform) -> String {
    match w {
        Waveform::Dc(v) => format!("DC {v:.6e}"),
        Waveform::Step {
            v0,
            v1,
            delay,
            rise,
        } => {
            let rise = rise.max(1e-15);
            if *delay > 0.0 {
                format!(
                    "PWL({:.6e} {:.6e} {:.6e} {:.6e} {:.6e} {:.6e})",
                    0.0,
                    v0,
                    delay,
                    v0,
                    delay + rise,
                    v1
                )
            } else {
                format!("PWL({:.6e} {:.6e} {:.6e} {:.6e})", 0.0, v0, rise, v1)
            }
        }
        Waveform::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period,
        } => {
            let per = if period.is_finite() { *period } else { 1.0 };
            format!(
                "PULSE({v0:.6e} {v1:.6e} {delay:.6e} {rise:.6e} {fall:.6e} {width:.6e} {per:.6e})"
            )
        }
        Waveform::Pwl(pts) => {
            let mut s = String::from("PWL(");
            for (i, (t, v)) in pts.iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                let _ = write!(s, "{t:.6e} {v:.6e}");
            }
            s.push(')');
            s
        }
    }
}

/// The voltage source a current-controlled card names for `sense`: the
/// element itself, or a magnetic branch's ammeter.
fn sense_card(sense: &Element) -> String {
    match sense {
        Element::MagneticBranch { name, .. } => format!("Vamm{name}"),
        other => format!("V{}", other.name()),
    }
}

/// Renders the circuit as SPICE netlist text.
///
/// Coupled inductors are emitted as `K` cards with the coupling
/// coefficient `k = M/√(L₁L₂)` as SPICE requires. A magnetic branch is
/// emitted as the paper's Fig. 1 realization: ammeter, VCVS, VCCS and
/// unit inductor (see [`Element::MagneticBranch`]).
pub fn to_spice(ckt: &Circuit, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "* {title}");
    let node = |n: crate::NodeId| ckt.node_name(n).to_string();
    let gnd = node(Circuit::GROUND);
    for e in ckt.elements() {
        match e {
            Element::Resistor { name, a, b, r } => {
                let _ = writeln!(out, "R{name} {} {} {r:.6e}", node(*a), node(*b));
            }
            Element::Capacitor { name, a, b, c } => {
                let _ = writeln!(out, "C{name} {} {} {c:.6e}", node(*a), node(*b));
            }
            Element::Inductor { name, a, b, l } => {
                let _ = writeln!(out, "L{name} {} {} {l:.6e}", node(*a), node(*b));
            }
            Element::Mutual { name, la, lb, m } => {
                let (l1, l2) = match (ckt.element(*la), ckt.element(*lb)) {
                    (
                        Element::Inductor {
                            l: l1, name: n1, ..
                        },
                        Element::Inductor {
                            l: l2, name: n2, ..
                        },
                    ) => ((*l1, n1.clone()), (*l2, n2.clone())),
                    #[expect(
                        clippy::unreachable,
                        reason = "`Circuit::add_mutual` is the only way to add a Mutual and rejects \
                                  any reference that is not an existing inductor"
                    )]
                    _ => unreachable!("mutual references validated at build time"),
                };
                let k = m / (l1.0 * l2.0).sqrt();
                let _ = writeln!(out, "K{name} L{} L{} {k:.6e}", l1.1, l2.1);
            }
            Element::MagneticBranch { name, p, n, a, l } => {
                let (s, d) = (format!("s{name}"), format!("d{name}"));
                let (p, n, a) = (node(*p), node(*n), node(*a));
                let zero = fmt_wave(&Waveform::dc(0.0));
                let unit = 1.0f64;
                let _ = writeln!(out, "Vamm{name} {p} {s} {zero}");
                let _ = writeln!(out, "Ee{name} {s} {n} {d} {gnd} {l:.6e}");
                let _ = writeln!(out, "Gg{name} {gnd} {d} {a} {gnd} {unit:.6e}");
                let _ = writeln!(out, "Llu{name} {d} {gnd} {unit:.6e}");
            }
            Element::VSource {
                name,
                p,
                n,
                wave,
                ac,
            } => {
                let mut card = format!("V{name} {} {} {}", node(*p), node(*n), fmt_wave(wave));
                if let Some((m, ph)) = ac {
                    let _ = write!(card, " AC {m:.6e} {ph:.6e}");
                }
                let _ = writeln!(out, "{card}");
            }
            Element::ISource {
                name,
                p,
                n,
                wave,
                ac,
            } => {
                let mut card = format!("I{name} {} {} {}", node(*p), node(*n), fmt_wave(wave));
                if let Some((m, ph)) = ac {
                    let _ = write!(card, " AC {m:.6e} {ph:.6e}");
                }
                let _ = writeln!(out, "{card}");
            }
            Element::Vcvs {
                name,
                p,
                n,
                cp,
                cn,
                gain,
            } => {
                let _ = writeln!(
                    out,
                    "E{name} {} {} {} {} {gain:.6e}",
                    node(*p),
                    node(*n),
                    node(*cp),
                    node(*cn)
                );
            }
            Element::Vccs {
                name,
                p,
                n,
                cp,
                cn,
                gm,
            } => {
                let _ = writeln!(
                    out,
                    "G{name} {} {} {} {} {gm:.6e}",
                    node(*p),
                    node(*n),
                    node(*cp),
                    node(*cn)
                );
            }
            Element::Cccs {
                name,
                p,
                n,
                sense,
                gain,
            } => {
                let _ = writeln!(
                    out,
                    "F{name} {} {} {} {gain:.6e}",
                    node(*p),
                    node(*n),
                    sense_card(ckt.element(*sense))
                );
            }
            Element::Ccvs {
                name,
                p,
                n,
                sense,
                r,
            } => {
                let _ = writeln!(
                    out,
                    "H{name} {} {} {} {r:.6e}",
                    node(*p),
                    node(*n),
                    sense_card(ckt.element(*sense))
                );
            }
        }
    }
    let _ = writeln!(out, ".end");
    out
}

/// Size in bytes of the rendered netlist — the paper's model-size metric.
pub fn netlist_size(ckt: &Circuit, title: &str) -> usize {
    to_spice(ckt, title).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;

    fn sample() -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("in", a, Circuit::GROUND, Waveform::step(1.0, 10e-12))
            .unwrap();
        c.add_resistor("1", a, b, 120.0).unwrap();
        let l1 = c.add_inductor("1", b, Circuit::GROUND, 1e-9).unwrap();
        let l2 = c.add_inductor("2", a, Circuit::GROUND, 2e-9).unwrap();
        c.add_mutual("12", l1, l2, 0.5e-9).unwrap();
        c.add_capacitor("L", b, Circuit::GROUND, 10e-15).unwrap();
        c
    }

    #[test]
    fn renders_all_cards() {
        let s = to_spice(&sample(), "test deck");
        assert!(s.starts_with("* test deck"));
        assert!(s.contains("Vin a 0 PWL("));
        assert!(s.contains("R1 a b 1.2"));
        assert!(s.contains("L1 b 0"));
        assert!(s.contains("L2 a 0"));
        assert!(s.contains("K12 L1 L2"));
        assert!(s.contains("CL b 0 1.0"));
        assert!(s.trim_end().ends_with(".end"));
    }

    #[test]
    fn coupling_coefficient_computed() {
        let s = to_spice(&sample(), "t");
        // k = 0.5e-9 / sqrt(1e-9 * 2e-9) ≈ 0.3536
        let line = s.lines().find(|l| l.starts_with("K12")).unwrap();
        let k: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
        assert!((k - 0.35355).abs() < 1e-4);
    }

    #[test]
    fn controlled_sources_render() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let v = c
            .add_vsource("s", a, Circuit::GROUND, Waveform::dc(0.0))
            .unwrap();
        c.add_vcvs("e1", b, Circuit::GROUND, a, Circuit::GROUND, 2.0)
            .unwrap();
        c.add_vccs("g1", b, Circuit::GROUND, a, Circuit::GROUND, 0.1)
            .unwrap();
        c.add_cccs("f1", b, Circuit::GROUND, v, 3.0).unwrap();
        c.add_ccvs("h1", b, Circuit::GROUND, v, 7.0).unwrap();
        let s = to_spice(&c, "ctl");
        assert!(s.contains("Ee1 b 0 a 0"));
        assert!(s.contains("Gg1 b 0 a 0"));
        assert!(s.contains("Ff1 b 0 Vs"));
        assert!(s.contains("Hh1 b 0 Vs"));
    }

    #[test]
    fn magnetic_branch_renders_as_fig1_cards() {
        let mut c = Circuit::new();
        let (m, o, a) = (c.node("m"), c.node("o"), c.node("a7"));
        let br = c.add_magnetic_branch("7", m, o, a, 1e-3).unwrap();
        c.add_cccs("f7", Circuit::GROUND, a, br, 1e-3).unwrap();
        let s = to_spice(&c, "vpec");
        let cards: Vec<&str> = s.lines().skip(1).collect();
        assert_eq!(
            cards,
            [
                "Vamm7 m s7 DC 0.000000e0",
                "Ee7 s7 o d7 0 1.000000e-3",
                "Gg7 0 d7 a7 0 1.000000e0",
                "Llu7 d7 0 1.000000e0",
                "Ff7 0 a7 Vamm7 1.000000e-3",
                ".end",
            ]
        );
    }

    #[test]
    fn size_metric_positive_and_grows() {
        let small = netlist_size(&sample(), "t");
        assert!(small > 50);
        let mut big = sample();
        let z = big.node("z");
        for i in 0..100 {
            big.add_resistor(&format!("x{i}"), z, Circuit::GROUND, 1.0)
                .unwrap();
        }
        assert!(netlist_size(&big, "t") > small + 1000);
    }

    #[test]
    fn waveform_cards() {
        assert!(fmt_wave(&Waveform::dc(1.0)).starts_with("DC"));
        assert!(fmt_wave(&Waveform::pulse(1.0, 1e-12, 1e-9, 1e-12)).starts_with("PULSE"));
        assert!(fmt_wave(&Waveform::pwl(vec![(0.0, 0.0), (1e-9, 1.0)])).starts_with("PWL"));
    }
}
