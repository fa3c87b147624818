//! PEEC netlist builder: the distributed π-type RLCM baseline model.
//!
//! Every filament becomes a series `R`–`L` segment of its net's ladder,
//! with half the ground capacitance at each segment end and half of each
//! adjacent coupling capacitance between corresponding ends. All pairwise
//! partial mutual inductances are stamped as `K` elements — this is the
//! dense inductive coupling whose cost the VPEC models attack.

use crate::{CoreError, DriveConfig};
use vpec_circuit::{Circuit, ElementId, NodeId, Waveform};
use vpec_extract::Parasitics;
use vpec_geometry::Layout;
use vpec_numerics::{pool, Pool};

/// Minimum matrix rows per worker before the mutual-pair gather goes
/// parallel.
const GATHER_MIN_ROWS_PER_THREAD: usize = 32;

/// A model netlist plus the probe nodes of each net.
#[derive(Debug, Clone)]
pub struct ModelCircuit {
    /// The netlist.
    pub circuit: Circuit,
    /// Near-end (driver-side) node per net.
    pub near_nodes: Vec<NodeId>,
    /// Far-end (receiver-side) node per net — where the paper measures.
    pub far_nodes: Vec<NodeId>,
}

/// Shared electrical scaffolding for PEEC and VPEC netlists: chain nodes,
/// series resistances, capacitances, drivers and loads. Returns per-
/// filament `(input_node, mid_node, output_node)` triples — the inductive
/// element of filament `f` belongs between `mid` and `output`.
pub(crate) type FilamentSpans = Vec<(NodeId, NodeId, NodeId)>;

pub(crate) fn build_electrical(
    layout: &Layout,
    parasitics: &Parasitics,
    drive: &DriveConfig,
) -> Result<(ModelCircuit, FilamentSpans), CoreError> {
    let n = parasitics.len();
    if layout.filaments().len() != n {
        return Err(CoreError::ShapeMismatch {
            parasitics: n,
            layout: layout.filaments().len(),
        });
    }
    let mut ckt = Circuit::new();
    let mut near_nodes = Vec::with_capacity(layout.nets().len());
    let mut far_nodes = Vec::with_capacity(layout.nets().len());
    let mut spans = vec![(Circuit::GROUND, Circuit::GROUND, Circuit::GROUND); n];

    for (k, net) in layout.nets().iter().enumerate() {
        let chain = net.filaments();
        // Chain nodes n{k}_0 .. n{k}_s.
        let mut nodes = Vec::with_capacity(chain.len() + 1);
        for p in 0..=chain.len() {
            nodes.push(ckt.node(&format!("n{k}_{p}")));
        }
        // `nodes` holds chain.len() + 1 entries, so the far end always exists.
        let far = nodes[chain.len()];
        near_nodes.push(nodes[0]);
        far_nodes.push(far);

        for (p, &f) in chain.iter().enumerate() {
            let mid = ckt.node(&format!("m{k}_{p}"));
            ckt.add_resistor(&format!("r{f}"), nodes[p], mid, parasitics.resistance[f])?;
            spans[f] = (nodes[p], mid, nodes[p + 1]);
            // π model: half ground capacitance at each end.
            let cg2 = parasitics.cap_ground[f] / 2.0;
            if cg2 > 0.0 {
                ckt.add_capacitor(&format!("cgi{f}"), nodes[p], Circuit::GROUND, cg2)?;
                ckt.add_capacitor(&format!("cgo{f}"), nodes[p + 1], Circuit::GROUND, cg2)?;
            }
        }

        // Termination. Power/ground return nets are tied to ground at
        // both ends through a negligible via resistance; signal nets get
        // the paper's driver/load.
        if net.is_ground() {
            ckt.add_resistor(&format!("vgn{k}"), nodes[0], Circuit::GROUND, 1.0e-3)?;
            ckt.add_resistor(&format!("vgf{k}"), far, Circuit::GROUND, 1.0e-3)?;
            continue;
        }
        if drive.is_aggressor(k) {
            let src = ckt.node(&format!("src{k}"));
            if drive.ac_stimulus {
                ckt.add_vsource_ac(
                    &format!("drv{k}"),
                    src,
                    Circuit::GROUND,
                    drive.stimulus.clone(),
                    1.0,
                    0.0,
                )?;
            } else {
                ckt.add_vsource(
                    &format!("drv{k}"),
                    src,
                    Circuit::GROUND,
                    drive.stimulus.clone(),
                )?;
            }
            ckt.add_resistor(&format!("rd{k}"), src, nodes[0], drive.rd)?;
        } else {
            // Quiet bit: grounded through its driver resistance.
            ckt.add_resistor(&format!("rd{k}"), nodes[0], Circuit::GROUND, drive.rd)?;
        }
        ckt.add_capacitor(&format!("cl{k}"), far, Circuit::GROUND, drive.cl)?;
    }

    // Coupling capacitances, halved between corresponding filament ends.
    for &(i, j, c) in &parasitics.cap_coupling {
        let c2 = c / 2.0;
        if c2 > 0.0 {
            ckt.add_capacitor(&format!("cci{i}_{j}"), spans[i].0, spans[j].0, c2)?;
            ckt.add_capacitor(&format!("cco{i}_{j}"), spans[i].2, spans[j].2, c2)?;
        }
    }

    Ok((
        ModelCircuit {
            circuit: ckt,
            near_nodes,
            far_nodes,
        },
        spans,
    ))
}

/// Builds the full PEEC RLCM netlist.
///
/// # Errors
///
/// Propagates shape mismatches and netlist-validation failures.
pub fn build_peec(
    layout: &Layout,
    parasitics: &Parasitics,
    drive: &DriveConfig,
) -> Result<ModelCircuit, CoreError> {
    let (mut model, spans) = build_electrical(layout, parasitics, drive)?;
    let n = parasitics.len();
    let l = parasitics.inductance();
    // Series self inductances.
    let mut l_ids: Vec<ElementId> = Vec::with_capacity(n);
    for (f, span) in spans.iter().enumerate() {
        let id = model
            .circuit
            .add_inductor(&format!("l{f}"), span.1, span.2, l[(f, f)])?;
        l_ids.push(id);
    }
    // Dense mutual coupling. The O(n²) scan over the upper triangle is
    // row-partitioned (netlist insertion itself stays serial — `Circuit`
    // is single-writer); flattening row results in index order reproduces
    // the serial stamping order exactly.
    let nt = pool::threads_for(n, GATHER_MIN_ROWS_PER_THREAD);
    let pairs: Vec<(usize, usize, f64)> = Pool::with_threads(nt)
        .par_map_index(n, |i| {
            let row = l.row(i);
            row.iter()
                .enumerate()
                .skip(i + 1)
                .filter(|&(_, &m)| m != 0.0)
                .map(|(j, &m)| (i, j, m))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
    for (i, j, m) in pairs {
        model
            .circuit
            .add_mutual(&format!("k{i}_{j}"), l_ids[i], l_ids[j], m)?;
    }
    Ok(model)
}

/// A quiet placeholder waveform for doc examples.
#[doc(hidden)]
pub fn quiet() -> Waveform {
    Waveform::dc(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_circuit::transient::run_transient;
    use vpec_circuit::TransientSpec;
    use vpec_extract::{extract, ExtractionConfig};
    use vpec_geometry::BusSpec;

    fn build(bits: usize) -> (ModelCircuit, Layout) {
        let layout = BusSpec::new(bits).build();
        let para = extract(&layout, &ExtractionConfig::paper_default());
        let model = build_peec(&layout, &para, &DriveConfig::paper_default()).unwrap();
        (model, layout)
    }

    #[test]
    fn element_counts_match_structure() {
        let (m, _) = build(5);
        // 5 series R + 5 Rd/drivers-resistors... count pieces:
        // per net: 1 R(seg) + 2 half ground caps + 1 driver R + 1 CL
        // plus aggressor V source, 4 coupling-cap pairs, 5 L, 10 K.
        let c = &m.circuit;
        assert_eq!(m.far_nodes.len(), 5);
        assert_eq!(m.near_nodes.len(), 5);
        let n_inductors = c
            .elements()
            .iter()
            .filter(|e| matches!(e, vpec_circuit::Element::Inductor { .. }))
            .count();
        assert_eq!(n_inductors, 5);
        let n_mutual = c
            .elements()
            .iter()
            .filter(|e| matches!(e, vpec_circuit::Element::Mutual { .. }))
            .count();
        assert_eq!(n_mutual, 10, "all pairs coupled");
        assert_eq!(c.reactive_count(), 5 + 10 + 10 + 8 + 5); // L + K + Cg + Ccpl + CL
    }

    #[test]
    fn aggressor_drives_and_victims_see_noise() {
        let (m, _) = build(3);
        let res = run_transient(&m.circuit, &TransientSpec::new(0.3e-9, 0.5e-12)).unwrap();
        let v_agg = res.voltage(m.far_nodes[0]).unwrap();
        let v_vic = res.voltage(m.far_nodes[1]).unwrap();
        // Aggressor settles to 1 V.
        assert!((v_agg.last().unwrap() - 1.0).abs() < 0.02);
        // Victim sees transient crosstalk noise but returns to ~0.
        let peak = v_vic.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
        assert!(peak > 1e-3, "expected visible crosstalk, got {peak}");
        assert!(v_vic.last().unwrap().abs() < 0.01);
    }

    #[test]
    fn quiet_nets_grounded_through_rd() {
        let (m, _) = build(2);
        // Netlist contains rd1 as a plain resistor to ground and a single
        // driver source.
        let n_sources = m
            .circuit
            .elements()
            .iter()
            .filter(|e| matches!(e, vpec_circuit::Element::VSource { .. }))
            .count();
        assert_eq!(n_sources, 1);
    }

    #[test]
    fn shape_mismatch_detected() {
        let layout = BusSpec::new(3).build();
        let other = BusSpec::new(4).build();
        let para = extract(&other, &ExtractionConfig::paper_default());
        assert!(matches!(
            build_peec(&layout, &para, &DriveConfig::paper_default()),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn multisegment_chains() {
        let layout = BusSpec::new(2).segments(3).build();
        let para = extract(&layout, &ExtractionConfig::paper_default());
        let m = build_peec(&layout, &para, &DriveConfig::paper_default()).unwrap();
        let res = run_transient(&m.circuit, &TransientSpec::new(0.3e-9, 0.5e-12)).unwrap();
        let v = res.voltage(m.far_nodes[0]).unwrap();
        assert!((v.last().unwrap() - 1.0).abs() < 0.02);
    }
}
