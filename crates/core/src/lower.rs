//! VPEC netlist builder: lowers a [`VpecModel`] to its circuit equations.
//!
//! Per filament `i` the model has two unknowns, the segment current `Iᵢ`
//! and the vector potential `Aᵢ` on a magnetic node `aᵢ`, and two rows:
//!
//! * **electrical row** — `v_mid − v_out − lᵢ·dAᵢ/dt = 0`, stamped by one
//!   [`Element::MagneticBranch`](vpec_circuit::Element::MagneticBranch)
//!   behind the PEEC series resistance;
//! * **magnetic row** — `Σⱼ Ĝᵢⱼ·Aⱼ − lᵢ·Iᵢ = 0`: `aᵢ` is tied to ground
//!   through `R̂ᵢ₀` and to the other magnetic nodes through the kept
//!   `R̂ᵢⱼ`, and a CCCS sensing the branch injects `Îᵢ = lᵢ·Iᵢ` into `aᵢ`.
//!
//! Eliminating `A` gives PEEC's branch rows back, because `D·Ĝ⁻¹·D = L`.
//! The paper's Fig. 1 realization for SPICE (ammeter, VCVS, VCCS and unit
//! inductor per filament) is only the export: `to_spice` expands each
//! magnetic branch into it.
//!
//! The capacitances, drivers and loads are identical to the PEEC netlist,
//! so waveform differences measure exactly the inductance-model error.

use crate::peec::{build_electrical, ModelCircuit};
use crate::{CoreError, DriveConfig, VpecModel};
use vpec_circuit::Circuit;
use vpec_extract::Parasitics;
use vpec_geometry::Layout;

/// Builds the VPEC netlist for any [`VpecModel`] (full, localized,
/// truncated or windowed — the model's kept couplings decide the magnetic
/// network's sparsity), one magnetic branch, ground resistor and CCCS per
/// filament.
///
/// # Errors
///
/// Propagates shape mismatches and netlist-validation failures.
pub fn build_vpec(
    layout: &Layout,
    parasitics: &Parasitics,
    model: &VpecModel,
    drive: &DriveConfig,
) -> Result<ModelCircuit, CoreError> {
    if model.len() != parasitics.len() {
        return Err(CoreError::ShapeMismatch {
            parasitics: parasitics.len(),
            layout: model.len(),
        });
    }
    let (mut mc, spans) = build_electrical(layout, parasitics, drive)?;
    let ckt = &mut mc.circuit;
    let n = model.len();

    // Per filament: the magnetic branch `v_mid − v_out = lᵢ·dAᵢ/dt`, the
    // ground resistance R̂ᵢ₀ on aᵢ and the injection lᵢ·Iᵢ into aᵢ.
    let mut mag_nodes = Vec::with_capacity(n);
    for (i, span) in spans.iter().enumerate() {
        let li = model.lengths()[i];
        let (_, mid, out) = *span;
        let a_node = ckt.node(&format!("a{i}"));
        mag_nodes.push(a_node);
        let branch = ckt.add_magnetic_branch(&i.to_string(), mid, out, a_node, li)?;
        ckt.add_resistor(
            &format!("rg{i}"),
            a_node,
            Circuit::GROUND,
            model.ground_resistance(i),
        )?;
        ckt.add_cccs(&format!("f{i}"), Circuit::GROUND, a_node, branch, li)?;
    }

    // Magnetic coupling resistances for the kept pairs.
    for &(i, j, g) in model.g_off() {
        ckt.add_resistor(&format!("rc{i}_{j}"), mag_nodes[i], mag_nodes[j], -1.0 / g)?;
    }

    Ok(mc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_circuit::metrics::WaveformDiff;
    use vpec_circuit::transient::run_transient;
    use vpec_circuit::TransientSpec;
    use vpec_extract::{extract, ExtractionConfig};
    use vpec_geometry::BusSpec;

    fn setup(bits: usize) -> (Layout, Parasitics) {
        let layout = BusSpec::new(bits).build();
        let para = extract(&layout, &ExtractionConfig::paper_default());
        (layout, para)
    }

    #[test]
    fn vpec_netlist_has_expected_blocks() {
        let (layout, para) = setup(3);
        let model = VpecModel::full(&para).unwrap();
        let mc = build_vpec(&layout, &para, &model, &DriveConfig::paper_default()).unwrap();
        let c = &mc.circuit;
        use vpec_circuit::Element;
        let count = |f: &dyn Fn(&Element) -> bool| c.elements().iter().filter(|e| f(e)).count();
        // One magnetic branch and one CCCS per filament, no inductors,
        // mutuals or Fig. 1 sources.
        assert_eq!(count(&|e| matches!(e, Element::MagneticBranch { .. })), 3);
        assert_eq!(count(&|e| matches!(e, Element::Cccs { .. })), 3);
        assert_eq!(count(&|e| matches!(e, Element::Inductor { .. })), 0);
        assert_eq!(count(&|e| matches!(e, Element::Mutual { .. })), 0);
        assert_eq!(count(&|e| matches!(e, Element::Vcvs { .. })), 0);
        assert_eq!(count(&|e| matches!(e, Element::Vccs { .. })), 0);
        // The driver is the only voltage source.
        assert_eq!(count(&|e| matches!(e, Element::VSource { .. })), 1);
        // One unknown per filament more than PEEC: Aᵢ beside Iᵢ.
        let peec = crate::peec::build_peec(&layout, &para, &DriveConfig::paper_default()).unwrap();
        assert_eq!(c.mna_dim(), peec.circuit.mna_dim() + 3);
        // Magnetic resistors: 3 ground + 3 coupling pairs.
        let resistors = count(&|e| matches!(e, Element::Resistor { .. }));
        assert_eq!(
            resistors,
            3 /*series*/ + 3 /*rd*/ + 3 /*rg*/ + 3 /*rc*/
        );
        // Fewer reactive elements than PEEC (3 branches vs 3L+3K).
        assert!(c.reactive_count() < peec.circuit.reactive_count());
    }

    #[test]
    fn full_vpec_matches_peec_waveform() {
        // The paper's central accuracy claim (Fig. 2): full VPEC and PEEC
        // produce identical waveforms.
        let (layout, para) = setup(3);
        let drive = DriveConfig::paper_default();
        let model = VpecModel::full(&para).unwrap();
        let peec = crate::peec::build_peec(&layout, &para, &drive).unwrap();
        let vpec = build_vpec(&layout, &para, &model, &drive).unwrap();
        let spec = TransientSpec::new(0.3e-9, 0.5e-12);
        let rp = run_transient(&peec.circuit, &spec).unwrap();
        let rv = run_transient(&vpec.circuit, &spec).unwrap();
        for net in 0..3 {
            let wp = rp.voltage(peec.far_nodes[net]).unwrap();
            let wv = rv.voltage(vpec.far_nodes[net]).unwrap();
            let d = WaveformDiff::compare(&wp, &wv);
            assert!(
                d.max_pct_of_peak() < 1.0,
                "net {net}: full VPEC must track PEEC, max diff {}%",
                d.max_pct_of_peak()
            );
        }
    }

    #[test]
    fn truncated_vpec_still_simulates() {
        let (layout, para) = setup(5);
        let drive = DriveConfig::paper_default();
        let full = VpecModel::full(&para).unwrap();
        let trunc = full.retain(|i, j| j - i == 1);
        let mc = build_vpec(&layout, &para, &trunc, &drive).unwrap();
        let res = run_transient(&mc.circuit, &TransientSpec::new(0.2e-9, 0.5e-12)).unwrap();
        let v = res.voltage(mc.far_nodes[0]).unwrap();
        assert!((v.last().unwrap() - 1.0).abs() < 0.02);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn shape_mismatch_detected() {
        let (layout, para) = setup(3);
        let (_, other_para) = setup(4);
        let model = VpecModel::full(&other_para).unwrap();
        assert!(matches!(
            build_vpec(&layout, &para, &model, &DriveConfig::paper_default()),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }
}
