//! Prior-art sparsification baselines the paper's introduction positions
//! VPEC against.
//!
//! **Shift truncation** (Krauter & Pileggi, ICCAD'95; the paper's \[9\])
//! "calculates a sparse inductance matrix by assuming that the current
//! returns from a shell with shell radius r₀":
//!
//! ```text
//! L′ᵢⱼ = Lᵢⱼ − Mᵢⱼ(r₀)   if dᵢⱼ < r₀,   0 otherwise
//! ```
//!
//! i.e. every entry is reduced by the mutual coupling of the same filament
//! pair displaced to the shell radius, which zeroes all couplings beyond
//! `r₀` while keeping the matrix positive semidefinite. The paper's
//! critique — "it is difficult to determine the shell radius to obtain the
//! desired accuracy" — can be measured here by sweeping `r₀` against
//! tVPEC/wVPEC at matched sparsity (see the `baselines` experiment).

//! **Return-limited inductance** (Shepard & Tian, TCAD'00; the paper's
//! \[8\]) "assumes that the current for a signal wire returns from its
//! nearest power/ground (P/G) wires": each signal's partial inductance is
//! converted into a *loop* inductance with respect to its nearest shields
//! and couplings are kept only between signals sharing a return shield.
//! The paper notes "this model loses accuracy when the P/G grid is
//! sparsely distributed" — [`return_limited`] plus a shield-density sweep
//! measures that claim (see the `baselines` experiment).

use crate::peec::{build_peec, ModelCircuit};
use crate::{CoreError, DriveConfig};
use vpec_extract::inductance::mutual_at_distance;
use vpec_extract::Parasitics;

/// Applies shift truncation with shell radius `r0` (meters) to the
/// extracted parasitics, returning a copy whose partial-inductance matrix
/// is sparsified. Resistances and capacitances are untouched.
///
/// # Errors
///
/// [`CoreError::InvalidParameter`] if `r0` is not positive/finite, or the
/// parasitics carry mixed current directions (the shell argument assumes
/// a same-direction bus; spirals need the VPEC route).
pub fn shift_truncate(
    parasitics: &Parasitics,
    layout: &vpec_geometry::Layout,
    r0: f64,
) -> Result<Parasitics, CoreError> {
    if !r0.is_finite() || r0 <= 0.0 {
        return Err(CoreError::InvalidParameter {
            reason: "shell radius must be positive and finite",
        });
    }
    let fils = layout.filaments();
    if fils.len() != parasitics.len() {
        return Err(CoreError::ShapeMismatch {
            parasitics: parasitics.len(),
            layout: fils.len(),
        });
    }
    if fils.iter().any(|f| f.direction < 0.0) {
        return Err(CoreError::InvalidParameter {
            reason: "shift truncation assumes same-direction currents (a bus)",
        });
    }
    let full = parasitics.inductance();
    let mut l = full.clone();
    let n = fils.len();
    for i in 0..n {
        for j in i..n {
            let a = &fils[i];
            let b = &fils[j];
            if !a.is_parallel_to(b) {
                continue;
            }
            let d = if i == j { 0.0 } else { a.radial_distance_to(b) };
            let v = if d < r0 {
                let shell = mutual_at_distance(a, b, r0);
                (full[(i, j)] - shell).max(0.0)
            } else {
                0.0
            };
            l[(i, j)] = v;
            l[(j, i)] = v;
        }
    }
    Ok(parasitics.with_inductance(l))
}

/// Builds the return-limited model of a shielded bus: a PEEC-style
/// netlist over the **signal** nets only, with loop inductances taken
/// with respect to each signal's nearest shield(s) and couplings kept
/// only between signals that share a return shield.
///
/// Returns the netlist plus the original net index of each signal
/// position (the netlist's `far_nodes[k]` belongs to original net
/// `signal_nets[k]`).
///
/// # Errors
///
/// * [`CoreError::InvalidParameter`] if the layout has no shield nets or
///   no signal nets.
/// * [`CoreError::ShapeMismatch`] if layout and parasitics disagree.
pub fn return_limited(
    layout: &vpec_geometry::Layout,
    parasitics: &Parasitics,
    drive: &DriveConfig,
) -> Result<(ModelCircuit, Vec<usize>), CoreError> {
    let fils = layout.filaments();
    if fils.len() != parasitics.len() {
        return Err(CoreError::ShapeMismatch {
            parasitics: parasitics.len(),
            layout: fils.len(),
        });
    }
    let signal_nets = layout.signal_nets();
    let shield_fils: Vec<usize> = layout
        .nets()
        .iter()
        .filter(|n| n.is_ground())
        .flat_map(|n| n.filaments().iter().copied())
        .collect();
    if shield_fils.is_empty() {
        return Err(CoreError::InvalidParameter {
            reason: "return-limited model needs at least one shield (P/G) net",
        });
    }
    if signal_nets.is_empty() {
        return Err(CoreError::InvalidParameter {
            reason: "return-limited model needs at least one signal net",
        });
    }

    // Old filament index → new (signal-only) index.
    let mut signal_fils: Vec<usize> = Vec::new();
    for &k in &signal_nets {
        signal_fils.extend(layout.nets()[k].filaments().iter().copied());
    }
    let mut new_idx = vec![usize::MAX; fils.len()];
    for (ni, &fi) in signal_fils.iter().enumerate() {
        new_idx[fi] = ni;
    }

    // Nearest shields per signal filament: up to one per side (by y),
    // equal current split when both exist.
    let returns: Vec<Vec<(usize, f64)>> = signal_fils
        .iter()
        .map(|&f| {
            let y = fils[f].origin[1];
            let mut below: Option<(usize, f64)> = None;
            let mut above: Option<(usize, f64)> = None;
            for &g in &shield_fils {
                if !fils[f].is_parallel_to(&fils[g]) {
                    continue;
                }
                let yg = fils[g].origin[1];
                let d = (y - yg).abs();
                if yg < y {
                    if below.is_none_or(|(_, bd)| d < bd) {
                        below = Some((g, d));
                    }
                } else if above.is_none_or(|(_, ad)| d < ad) {
                    above = Some((g, d));
                }
            }
            let picked: Vec<usize> = [below, above]
                .into_iter()
                .flatten()
                .map(|(g, _)| g)
                .collect();
            let w = 1.0 / picked.len() as f64;
            picked.into_iter().map(|g| (g, w)).collect()
        })
        .collect();

    // Loop inductance between reindexed signal filaments.
    let l = parasitics.inductance();
    let n = signal_fils.len();
    let mut loop_l = vpec_numerics::DenseMatrix::<f64>::zeros(n, n);
    let shares_return = |a: &[(usize, f64)], b: &[(usize, f64)]| -> bool {
        a.iter().any(|(g, _)| b.iter().any(|(h, _)| g == h))
    };
    for i in 0..n {
        for j in i..n {
            if i != j && !shares_return(&returns[i], &returns[j]) {
                continue; // return-limited locality
            }
            let (fi, fj) = (signal_fils[i], signal_fils[j]);
            // L_loop = (row_i − Σw·row_gi) · (col_j − Σw·col_gj)
            let mut v = l[(fi, fj)];
            for &(g, w) in &returns[j] {
                v -= w * l[(fi, g)];
            }
            for &(g, w) in &returns[i] {
                v -= w * l[(g, fj)];
                for &(h, u) in &returns[j] {
                    v += w * u * l[(g, h)];
                }
            }
            loop_l[(i, j)] = v;
            loop_l[(j, i)] = v;
        }
    }

    // Reduced parasitics: signal filaments only; coupling caps to shields
    // fold into ground capacitance.
    let mut cap_ground: Vec<f64> = signal_fils
        .iter()
        .map(|&f| parasitics.cap_ground[f])
        .collect();
    let mut cap_coupling = Vec::new();
    for &(a, b, c) in &parasitics.cap_coupling {
        match (new_idx[a], new_idx[b]) {
            (usize::MAX, usize::MAX) => {}
            (usize::MAX, nb) => cap_ground[nb] += c,
            (na, usize::MAX) => cap_ground[na] += c,
            (na, nb) => cap_coupling.push((na.min(nb), na.max(nb), c)),
        }
    }
    // Loop resistance: the signal's own plus the weighted return path.
    let resistance: Vec<f64> = signal_fils
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let mut r = parasitics.resistance[f];
            for &(g, w) in &returns[i] {
                r += w * w * parasitics.resistance[g];
            }
            r
        })
        .collect();
    let reduced = Parasitics::from_parts(
        signal_fils.iter().map(|&f| fils[f]).collect(),
        loop_l,
        resistance,
        cap_ground,
        cap_coupling,
    );

    // Reduced layout: signal nets in order, with remapped drive.
    let mut reduced_layout = vpec_geometry::Layout::new();
    for &k in &signal_nets {
        let chain: Vec<vpec_geometry::Filament> = layout.nets()[k]
            .filaments()
            .iter()
            .map(|&f| fils[f])
            .collect();
        reduced_layout.push_net(layout.nets()[k].name().to_string(), chain);
    }
    let remapped_aggressors: Vec<usize> = drive
        .aggressors
        .iter()
        .filter_map(|a| signal_nets.iter().position(|&k| k == *a))
        .collect();
    let reduced_drive = drive.clone().aggressors(remapped_aggressors);

    let mc = build_peec(&reduced_layout, &reduced, &reduced_drive)?;
    Ok((mc, signal_nets))
}

/// Count of nonzero inductance entries (diagonal + upper triangle) — the
/// sparsity metric for the baseline comparison.
pub fn inductance_nnz(parasitics: &Parasitics) -> usize {
    let n = parasitics.len();
    let l = parasitics.inductance();
    let mut nnz = 0;
    for i in 0..n {
        for j in i..n {
            if l[(i, j)] != 0.0 {
                nnz += 1;
            }
        }
    }
    nnz
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_extract::{extract, ExtractionConfig};
    use vpec_geometry::{um, BusSpec, SpiralSpec};
    use vpec_numerics::Cholesky;

    fn bus(bits: usize) -> (vpec_geometry::Layout, Parasitics) {
        let layout = BusSpec::new(bits).build();
        let para = extract(&layout, &ExtractionConfig::paper_default());
        (layout, para)
    }

    #[test]
    fn couplings_beyond_shell_are_zero() {
        let (layout, para) = bus(12);
        // Pitch 3 µm: a 10 µm shell keeps ~3 neighbours a side.
        let st = shift_truncate(&para, &layout, um(10.0)).unwrap();
        assert_eq!(st.inductance()[(0, 11)], 0.0);
        assert_eq!(st.inductance()[(0, 4)], 0.0); // 12 µm away
        assert!(st.inductance()[(0, 1)] > 0.0);
        assert!(st.inductance()[(0, 0)] > 0.0);
        assert!(inductance_nnz(&st) < inductance_nnz(&para));
    }

    #[test]
    fn shifted_matrix_stays_positive_semidefinite() {
        // The Krauter–Pileggi guarantee (versus naive truncation, which
        // goes indefinite — see the `passivity` example).
        let (layout, para) = bus(16);
        for r0_um in [5.0, 10.0, 30.0] {
            let st = shift_truncate(&para, &layout, um(r0_um)).unwrap();
            // Allow semidefiniteness: add a tiny ridge before Cholesky.
            let mut l = st.inductance().clone();
            for i in 0..l.rows() {
                l[(i, i)] += 1e-15;
            }
            assert!(
                Cholesky::new(&l).is_ok(),
                "shift truncation at r0={r0_um} µm must stay p.s.d."
            );
        }
    }

    #[test]
    fn shell_growth_recovers_the_full_matrix() {
        let (layout, para) = bus(6);
        // Enormous shell: shifts vanish, matrix approaches the original.
        let st = shift_truncate(&para, &layout, 1.0).unwrap();
        let diff = st
            .inductance()
            .max_abs_diff(para.inductance())
            .expect("same shape");
        assert!(
            diff < 0.02 * para.inductance().max_abs(),
            "r0 = 1 m should barely perturb L: {diff}"
        );
    }

    #[test]
    fn shifted_self_inductance_shrinks() {
        let (layout, para) = bus(4);
        let st = shift_truncate(&para, &layout, um(10.0)).unwrap();
        for i in 0..4 {
            assert!(st.inductance()[(i, i)] < para.inductance()[(i, i)]);
        }
    }

    #[test]
    fn return_limited_builds_and_localizes() {
        let layout = BusSpec::new(6).shield_every(2).build();
        let para = extract(&layout, &ExtractionConfig::paper_default());
        let drive = crate::DriveConfig::paper_default().aggressors(vec![1]); // bit0
        let (mc, signal_nets) = return_limited(&layout, &para, &drive).unwrap();
        assert_eq!(signal_nets.len(), 6);
        // Only signal nets appear: 6 far nodes.
        assert_eq!(mc.far_nodes.len(), 6);
        // Mutual elements only within/between adjacent bays: signals 0,1
        // (bay 0) and 2,3 (bay 1) share shield g1; signals 0 and 4 share
        // nothing → far fewer K elements than the full 15 pairs.
        let n_mutual = mc
            .circuit
            .elements()
            .iter()
            .filter(|e| matches!(e, vpec_circuit::Element::Mutual { .. }))
            .count();
        assert!(n_mutual < 15, "couplings must be localized, got {n_mutual}");
        assert!(n_mutual >= 3, "same-bay couplings kept");
    }

    #[test]
    fn return_limited_loop_inductance_sane() {
        let layout = BusSpec::new(4).shield_every(2).build();
        let para = extract(&layout, &ExtractionConfig::paper_default());
        let drive = crate::DriveConfig::paper_default();
        let (mc, _) = return_limited(&layout, &para, &drive).unwrap();
        // Every inductor value is positive and below the partial self-L
        // (the return path cancels flux).
        let max_partial = (0..para.len())
            .map(|i| para.inductance()[(i, i)])
            .fold(0.0f64, f64::max);
        for e in mc.circuit.elements() {
            if let vpec_circuit::Element::Inductor { l, .. } = e {
                assert!(*l > 0.0 && *l < max_partial, "loop L out of range: {l}");
            }
        }
    }

    #[test]
    fn return_limited_accuracy_degrades_with_sparse_grid() {
        // The paper on [8]: "this model loses accuracy when the P/G grid
        // is sparsely distributed".
        use vpec_circuit::metrics::{peak_abs, WaveformDiff};
        use vpec_circuit::transient::run_transient;
        use vpec_circuit::TransientSpec;
        let spec = TransientSpec::new(0.3e-9, 1e-12);
        let err_for = |every: usize| -> f64 {
            let layout = BusSpec::new(8).shield_every(every).build();
            let para = extract(&layout, &ExtractionConfig::paper_default());
            // Aggressor = first signal net, victim = second.
            let signals = layout.signal_nets();
            let drive = crate::DriveConfig::paper_default().aggressors(vec![signals[0]]);
            let exp = crate::harness::Experiment {
                layout: layout.clone(),
                parasitics: para.clone(),
                drive: drive.clone(),
            };
            let peec = exp.build(crate::harness::ModelKind::Peec).unwrap();
            let (rp, _) = peec.run_transient(&spec).unwrap();
            let wp = rp.voltage(peec.model.far_nodes[signals[1]]).unwrap();
            let (mc, signal_nets) = return_limited(&layout, &para, &drive).unwrap();
            let pos = signal_nets.iter().position(|&k| k == signals[1]).unwrap();
            let rr = run_transient(&mc.circuit, &spec).unwrap();
            let wr = rr.voltage(mc.far_nodes[pos]).unwrap();
            let d = WaveformDiff::compare(&wp, &wr);
            d.avg_abs / peak_abs(&wp).max(1e-12)
        };
        let dense = err_for(2);
        let sparse = err_for(8);
        assert!(
            sparse > dense,
            "sparser P/G grid must hurt the return-limited model: {dense} vs {sparse}"
        );
    }

    #[test]
    fn return_limited_rejects_unshielded() {
        let layout = BusSpec::new(4).build();
        let para = extract(&layout, &ExtractionConfig::paper_default());
        assert!(matches!(
            return_limited(&layout, &para, &crate::DriveConfig::paper_default()),
            Err(CoreError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn rejects_bad_inputs() {
        let (layout, para) = bus(3);
        assert!(shift_truncate(&para, &layout, 0.0).is_err());
        assert!(shift_truncate(&para, &layout, f64::NAN).is_err());
        let spiral = SpiralSpec::paper_three_turn().build();
        let spara = extract(&spiral, &ExtractionConfig::paper_default());
        assert!(
            shift_truncate(&spara, &spiral, um(10.0)).is_err(),
            "mixed directions rejected"
        );
        let (other_layout, _) = bus(5);
        assert!(matches!(
            shift_truncate(&para, &other_layout, um(10.0)),
            Err(CoreError::ShapeMismatch { .. })
        ));
    }
}
