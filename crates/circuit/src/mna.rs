//! Modified nodal analysis: unknown layout and generic matrix assembly.
//!
//! The same stamping code serves all three analyses through two closures:
//! `cap_adm` maps a capacitance to the admittance stamped at its nodes
//! (0 for DC, `coef·C` for transient companions, `jωC` for AC) and
//! `ind_imp` maps an inductance to the impedance subtracted in its branch
//! row (0 for DC — a short, `coef·L` for transient, `jωL` for AC). A
//! magnetic branch's length `l` goes through `ind_imp` too, into the
//! column of its magnetic node: its row reads `v_p − v_n − Z(l)·v_a`.

use crate::elements::Element;
use crate::netlist::{Circuit, NodeId};
use vpec_numerics::{CooMatrix, CsrMatrix, NumericsError, Scalar};

/// Mapping from circuit nodes/branches to MNA unknown indices.
#[derive(Debug, Clone)]
pub(crate) struct MnaLayout {
    /// Number of non-ground nodes.
    pub n_nodes: usize,
    /// Branch-current unknown of each element, indexed by element
    /// (`None` for non-branch elements).
    pub branch_of: Vec<Option<usize>>,
    /// Total unknown count.
    pub dim: usize,
}

impl MnaLayout {
    /// Builds the layout for a circuit: non-ground nodes first, then one
    /// branch unknown per branch element in element order.
    pub fn new(ckt: &Circuit) -> Self {
        let n_nodes = ckt.node_count() - 1;
        let mut next = n_nodes;
        let mut branch_of = Vec::with_capacity(ckt.elements().len());
        for e in ckt.elements() {
            branch_of.push(e.is_branch().then_some(next));
            if e.is_branch() {
                next += 1;
            }
        }
        MnaLayout {
            n_nodes,
            branch_of,
            dim: next,
        }
    }

    /// Unknown index of a node, or `None` for ground.
    #[inline]
    pub fn node_idx(&self, n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.0 - 1)
        }
    }

    /// Branch-current unknown of element `idx`, or `None` if it is not a
    /// branch element.
    #[inline]
    pub fn branch_idx(&self, idx: usize) -> Option<usize> {
        self.branch_of.get(idx).copied().flatten()
    }
}

/// Calls `sink(row, col, value)` for every element's static stamps
/// (conductances, branch incidence, gains) and dynamic stamps (defined by
/// `cap_adm` / `ind_imp`), in element order, skipping those on ground.
/// The sequence of calls depends on the circuit alone: a stamp whose value
/// is zero is passed like any other.
fn stamp_all<T: Scalar>(
    ckt: &Circuit,
    layout: &MnaLayout,
    cap_adm: impl Fn(f64) -> T,
    ind_imp: impl Fn(f64) -> T,
    mut sink: impl FnMut(usize, usize, T) -> Result<(), NumericsError>,
) -> Result<(), NumericsError> {
    let mut stamp = |r: Option<usize>, c: Option<usize>, v: T| match (r, c) {
        (Some(r), Some(c)) => sink(r, c, v),
        _ => Ok(()),
    };
    let one = T::one();
    for (idx, e) in ckt.elements().iter().enumerate() {
        match e {
            Element::Resistor {
                a: na, b: nb, r, ..
            } => {
                let g = T::from_f64(1.0 / r);
                let (ia, ib) = (layout.node_idx(*na), layout.node_idx(*nb));
                stamp(ia, ia, g)?;
                stamp(ib, ib, g)?;
                stamp(ia, ib, -g)?;
                stamp(ib, ia, -g)?;
            }
            Element::Capacitor {
                a: na, b: nb, c, ..
            } => {
                let y = cap_adm(*c);
                let (ia, ib) = (layout.node_idx(*na), layout.node_idx(*nb));
                stamp(ia, ia, y)?;
                stamp(ib, ib, y)?;
                stamp(ia, ib, -y)?;
                stamp(ib, ia, -y)?;
            }
            Element::Inductor {
                a: na, b: nb, l, ..
            } => {
                let br = layout.branch_idx(idx);
                let (ia, ib) = (layout.node_idx(*na), layout.node_idx(*nb));
                // KCL columns: current flows a → b.
                stamp(ia, br, one)?;
                stamp(ib, br, -one)?;
                // Branch row: v_a − v_b − Z·i = rhs.
                stamp(br, ia, one)?;
                stamp(br, ib, -one)?;
                stamp(br, br, -ind_imp(*l))?;
            }
            Element::MagneticBranch { p, n, a, l, .. } => {
                let br = layout.branch_idx(idx);
                let (ip, in_) = (layout.node_idx(*p), layout.node_idx(*n));
                stamp(ip, br, one)?;
                stamp(in_, br, -one)?;
                // Branch row: v_p − v_n − Z(l)·v_a = rhs.
                stamp(br, ip, one)?;
                stamp(br, in_, -one)?;
                stamp(br, layout.node_idx(*a), -ind_imp(*l))?;
            }
            Element::Mutual { la, lb, m, .. } => {
                let z = ind_imp(*m);
                let (ba, bb) = (layout.branch_idx(la.0), layout.branch_idx(lb.0));
                stamp(ba, bb, -z)?;
                stamp(bb, ba, -z)?;
            }
            Element::VSource { p, n, .. } => {
                let br = layout.branch_idx(idx);
                let (ip, in_) = (layout.node_idx(*p), layout.node_idx(*n));
                stamp(ip, br, one)?;
                stamp(in_, br, -one)?;
                stamp(br, ip, one)?;
                stamp(br, in_, -one)?;
            }
            Element::ISource { .. } => {
                // RHS only.
            }
            Element::Vcvs {
                p, n, cp, cn, gain, ..
            } => {
                let br = layout.branch_idx(idx);
                let (ip, in_) = (layout.node_idx(*p), layout.node_idx(*n));
                let (icp, icn) = (layout.node_idx(*cp), layout.node_idx(*cn));
                let g = T::from_f64(*gain);
                stamp(ip, br, one)?;
                stamp(in_, br, -one)?;
                stamp(br, ip, one)?;
                stamp(br, in_, -one)?;
                stamp(br, icp, -g)?;
                stamp(br, icn, g)?;
            }
            Element::Vccs {
                p, n, cp, cn, gm, ..
            } => {
                let (ip, in_) = (layout.node_idx(*p), layout.node_idx(*n));
                let (icp, icn) = (layout.node_idx(*cp), layout.node_idx(*cn));
                let g = T::from_f64(*gm);
                stamp(ip, icp, g)?;
                stamp(ip, icn, -g)?;
                stamp(in_, icp, -g)?;
                stamp(in_, icn, g)?;
            }
            Element::Cccs {
                p, n, sense, gain, ..
            } => {
                let bs = layout.branch_idx(sense.0);
                let (ip, in_) = (layout.node_idx(*p), layout.node_idx(*n));
                let g = T::from_f64(*gain);
                stamp(ip, bs, g)?;
                stamp(in_, bs, -g)?;
            }
            Element::Ccvs { p, n, sense, r, .. } => {
                let br = layout.branch_idx(idx);
                let bs = layout.branch_idx(sense.0);
                let (ip, in_) = (layout.node_idx(*p), layout.node_idx(*n));
                stamp(ip, br, one)?;
                stamp(in_, br, -one)?;
                stamp(br, ip, one)?;
                stamp(br, in_, -one)?;
                stamp(br, bs, -T::from_f64(*r))?;
            }
        }
    }
    Ok(())
}

/// Assembles the MNA matrix from [`stamp_all`]'s stamps, dropping the
/// zero ones.
///
/// # Errors
///
/// [`NumericsError::IndexOutOfBounds`] when a stamp falls outside the
/// layout (an element naming a node or branch the layout does not hold).
pub(crate) fn assemble<T: Scalar>(
    ckt: &Circuit,
    layout: &MnaLayout,
    cap_adm: impl Fn(f64) -> T,
    ind_imp: impl Fn(f64) -> T,
) -> Result<CooMatrix<T>, NumericsError> {
    let mut a = CooMatrix::new(layout.dim, layout.dim);
    stamp_all(ckt, layout, cap_adm, ind_imp, |r, c, v| a.push(r, c, v))?;
    Ok(a)
}

/// Slot of a stamp that was zero when its [`StampPlan`] was made.
const NO_SLOT: usize = usize::MAX;

/// The CSR pattern of a sweep's MNA matrices, built once, and the slot
/// each of [`stamp_all`]'s stamps adds into.
///
/// [`StampPlan::refill`] replays the stamps with new `cap_adm` /
/// `ind_imp` straight into the slots, in [`assemble`]'s order, starting
/// every slot from its first nonzero stamp. [`CooMatrix::to_csr`] sums a
/// slot's triplets in that same order (its sort is stable), so a refill
/// gives `assemble(..).to_csr()` bit for bit, signed zeros included,
/// without building or sorting triplets.
#[derive(Debug)]
pub(crate) struct StampPlan<T> {
    /// Every position some stamp was nonzero at when the plan was made.
    pattern: CsrMatrix<T>,
    /// Per stamp, in [`stamp_all`]'s order: its index into `pattern`'s
    /// values, or [`NO_SLOT`].
    slots: Vec<usize>,
}

impl<T: Scalar> StampPlan<T> {
    /// Plans from the stamps [`assemble`] makes with these `cap_adm` /
    /// `ind_imp`.
    ///
    /// # Errors
    ///
    /// Everything [`assemble`] returns.
    pub fn new(
        ckt: &Circuit,
        layout: &MnaLayout,
        cap_adm: impl Fn(f64) -> T,
        ind_imp: impl Fn(f64) -> T,
    ) -> Result<Self, NumericsError> {
        let mut slots = Vec::new();
        // (row, col, stamp) of every nonzero stamp.
        let mut positions: Vec<(usize, usize, usize)> = Vec::new();
        stamp_all(ckt, layout, cap_adm, ind_imp, |r, c, v| {
            if r >= layout.dim || c >= layout.dim {
                return Err(NumericsError::IndexOutOfBounds {
                    index: (r, c),
                    shape: (layout.dim, layout.dim),
                });
            }
            if !v.is_zero() {
                positions.push((r, c, slots.len()));
            }
            slots.push(NO_SLOT);
            Ok(())
        })?;
        // Sorted, the distinct positions come in CSR value order.
        positions.sort_unstable();
        let mut pattern = CooMatrix::new(layout.dim, layout.dim);
        let mut last = None;
        for &(r, c, stamp) in &positions {
            if last != Some((r, c)) {
                pattern.push(r, c, T::one())?;
                last = Some((r, c));
            }
            slots[stamp] = pattern.nnz_raw() - 1;
        }
        Ok(StampPlan {
            pattern: pattern.to_csr(),
            slots,
        })
    }

    /// The planned pattern (its values are placeholders).
    pub fn pattern(&self) -> &CsrMatrix<T> {
        &self.pattern
    }

    /// `assemble(ckt, layout, cap_adm, ind_imp)?.to_csr()`, the same
    /// pattern and value bits, or `None` when that matrix has another
    /// pattern: a slot that no nonzero stamp reaches or that sums to
    /// exactly zero, or a nonzero stamp the plan has no slot for. The
    /// caller then assembles the matrix afresh.
    ///
    /// # Errors
    ///
    /// Everything [`assemble`] returns.
    pub fn refill(
        &self,
        ckt: &Circuit,
        layout: &MnaLayout,
        cap_adm: impl Fn(f64) -> T,
        ind_imp: impl Fn(f64) -> T,
    ) -> Result<Option<CsrMatrix<T>>, NumericsError> {
        let mut a = self.pattern.clone();
        let values = a.values_mut();
        let mut started = vec![false; values.len()];
        let mut slots = self.slots.iter();
        let mut stray = false;
        stamp_all(ckt, layout, cap_adm, ind_imp, |_, _, v| {
            let slot = slots.next().copied().unwrap_or(NO_SLOT);
            if v.is_zero() {
                return Ok(());
            }
            match values.get_mut(slot) {
                None => stray = true,
                Some(x) if started[slot] => *x += v,
                Some(x) => {
                    *x = v;
                    started[slot] = true;
                }
            }
            Ok(())
        })?;
        let same = !stray && started.iter().all(|&s| s) && !values.iter().any(|v| v.is_zero());
        Ok(same.then_some(a))
    }
}

/// Adds an independent-source contribution to the RHS: voltage `val` for a
/// V source branch, current `val` (flowing p → n through the source, i.e.
/// injected into `n`) for an I source.
pub(crate) fn add_source_rhs<T: Scalar>(
    rhs: &mut [T],
    layout: &MnaLayout,
    idx: usize,
    e: &Element,
    val: T,
) {
    match e {
        Element::VSource { .. } => {
            if let Some(br) = layout.branch_idx(idx) {
                rhs[br] += val;
            }
        }
        Element::ISource { p, n, .. } => {
            if let Some(ip) = layout.node_idx(*p) {
                rhs[ip] -= val;
            }
            if let Some(in_) = layout.node_idx(*n) {
                rhs[in_] += val;
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;
    use vpec_numerics::LuFactor;

    #[test]
    fn layout_orders_nodes_then_branches() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_resistor("R1", a, b, 1.0).unwrap();
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0))
            .unwrap();
        c.add_inductor("L1", b, Circuit::GROUND, 1e-9).unwrap();
        let layout = MnaLayout::new(&c);
        assert_eq!(layout.n_nodes, 2);
        assert_eq!(layout.dim, 4);
        assert_eq!(layout.node_idx(Circuit::GROUND), None);
        assert_eq!(layout.node_idx(a), Some(0));
        assert_eq!(layout.branch_idx(0), None); // R1
        assert_eq!(layout.branch_idx(1), Some(2)); // V1
        assert_eq!(layout.branch_idx(2), Some(3)); // L1
        assert_eq!(layout.branch_idx(3), None); // out of range
    }

    #[test]
    fn dc_voltage_divider_solves() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let mid = c.node("mid");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::dc(10.0))
            .unwrap();
        c.add_resistor("R1", inp, mid, 1000.0).unwrap();
        c.add_resistor("R2", mid, Circuit::GROUND, 1000.0).unwrap();
        let layout = MnaLayout::new(&c);
        let a = assemble::<f64>(&c, &layout, |_| 0.0, |_| 0.0).unwrap();
        let mut rhs = vec![0.0; layout.dim];
        for (idx, e) in c.elements().iter().enumerate() {
            if let Element::VSource { wave, .. } = e {
                add_source_rhs(&mut rhs, &layout, idx, e, wave.dc_value());
            }
        }
        let x = LuFactor::new(&a.to_csr().to_dense())
            .unwrap()
            .solve(&rhs)
            .unwrap();
        // mid node should be at 5 V.
        assert!((x[layout.node_idx(mid).unwrap()] - 5.0).abs() < 1e-12);
        // Source branch current: 10 V over 2 kΩ = 5 mA flowing out of +.
        assert!((x[2].abs() - 5e-3).abs() < 1e-12);
    }

    #[test]
    fn isource_injects_into_n() {
        let mut c = Circuit::new();
        let out = c.node("out");
        c.add_isource("I1", Circuit::GROUND, out, Waveform::dc(1e-3))
            .unwrap();
        c.add_resistor("R1", out, Circuit::GROUND, 1000.0).unwrap();
        let layout = MnaLayout::new(&c);
        let a = assemble::<f64>(&c, &layout, |_| 0.0, |_| 0.0).unwrap();
        let mut rhs = vec![0.0; layout.dim];
        for (idx, e) in c.elements().iter().enumerate() {
            if let Element::ISource { wave, .. } = e {
                add_source_rhs(&mut rhs, &layout, idx, e, wave.dc_value());
            }
        }
        let x = LuFactor::new(&a.to_csr().to_dense())
            .unwrap()
            .solve(&rhs)
            .unwrap();
        // 1 mA into 1 kΩ: +1 V.
        assert!((x[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vcvs_doubles_voltage() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::dc(1.5))
            .unwrap();
        c.add_vcvs("E1", out, Circuit::GROUND, inp, Circuit::GROUND, 2.0)
            .unwrap();
        c.add_resistor("RL", out, Circuit::GROUND, 50.0).unwrap();
        let layout = MnaLayout::new(&c);
        let a = assemble::<f64>(&c, &layout, |_| 0.0, |_| 0.0).unwrap();
        let mut rhs = vec![0.0; layout.dim];
        rhs[layout.branch_idx(0).unwrap()] = 1.5;
        let x = LuFactor::new(&a.to_csr().to_dense())
            .unwrap()
            .solve(&rhs)
            .unwrap();
        assert!((x[layout.node_idx(out).unwrap()] - 3.0).abs() < 1e-12);
    }
}
