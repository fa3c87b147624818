//! Adaptive-step transient analysis (variable-step trapezoidal with
//! local-truncation-error control).
//!
//! This is the integration style HSPICE actually uses, and the mechanism
//! behind the paper's full-VPEC-vs-PEEC simulation speedups: a variable
//! step size forces **re-factorization whenever the step changes**, so the
//! factorization cost — where sparsity wins — is paid throughout the run
//! instead of once. The engine keeps a small cache of factorizations per
//! step size (steps move on a halving/doubling ladder), which is what a
//! production linear-circuit engine would do; the ablation benches compare
//! this against the fixed-step engine.
//!
//! Error control: a second-order predictor (linear extrapolation of the
//! last two accepted points) is compared against the trapezoidal
//! corrector; the step is halved when the discrepancy exceeds `tol` and
//! doubled when it stays below `tol/16` for a full step.

use crate::dc::solve_dc_with;
use crate::elements::Element;
use crate::error::CircuitError;
use crate::mna::{add_source_rhs, assemble, MnaLayout};
use crate::netlist::Circuit;
use crate::result::{ResultMapping, TransientResult};
use crate::solver::{Factored, SolverKind};
use std::collections::HashMap;

/// Specification for the adaptive transient engine.
#[derive(Debug, Clone)]
pub struct AdaptiveSpec {
    /// End time, seconds.
    pub t_stop: f64,
    /// Initial (and maximum-ladder reference) step, seconds.
    pub dt_initial: f64,
    /// Minimum allowed step, seconds.
    pub dt_min: f64,
    /// Maximum allowed step, seconds.
    pub dt_max: f64,
    /// Relative local-error tolerance (scaled by the solution swing).
    pub tol: f64,
    /// Linear-solver backend.
    pub solver: SolverKind,
}

impl AdaptiveSpec {
    /// A reasonable default ladder for the paper's crosstalk runs.
    pub fn new(t_stop: f64, dt_initial: f64) -> Self {
        AdaptiveSpec {
            t_stop,
            dt_initial,
            dt_min: dt_initial / 64.0,
            dt_max: dt_initial * 16.0,
            tol: 1e-3,
            solver: SolverKind::Auto,
        }
    }

    /// Sets the error tolerance.
    #[must_use]
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }
}

/// Statistics of an adaptive run — the ablation benches report these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveStats {
    /// Accepted time steps.
    pub accepted: usize,
    /// Rejected (re-done) steps.
    pub rejected: usize,
    /// Distinct factorizations performed (cache misses).
    pub factorizations: usize,
}

struct CapState {
    ia: Option<usize>,
    ib: Option<usize>,
    c: f64,
    v_prev: f64,
    i_prev: f64,
}

struct IndState {
    br: usize,
    ia: Option<usize>,
    ib: Option<usize>,
    couplings: Vec<(usize, f64)>,
    v_prev: f64,
}

/// Runs the adaptive transient from the DC operating point.
///
/// # Errors
///
/// * [`CircuitError::InvalidSpec`] for inconsistent time parameters.
/// * [`CircuitError::SingularSystem`] if any factorization fails.
pub fn run_transient_adaptive(
    ckt: &Circuit,
    spec: &AdaptiveSpec,
) -> Result<(TransientResult, AdaptiveStats), CircuitError> {
    if !spec.t_stop.is_finite() || spec.t_stop <= 0.0 {
        return Err(CircuitError::InvalidSpec {
            reason: "t_stop must be positive and finite",
        });
    }
    if spec.dt_min.is_nan()
        || spec.dt_min <= 0.0
        || spec.dt_min > spec.dt_initial
        || spec.dt_initial > spec.dt_max
        || spec.dt_max > spec.t_stop
    {
        return Err(CircuitError::InvalidSpec {
            reason: "need 0 < dt_min <= dt_initial <= dt_max <= t_stop",
        });
    }
    if spec.tol.is_nan() || spec.tol <= 0.0 {
        return Err(CircuitError::InvalidSpec {
            reason: "tolerance must be positive",
        });
    }

    let layout = MnaLayout::new(ckt);
    let dc = solve_dc_with(ckt, spec.solver)?;
    let mut x = dc.x;

    // Element states (trapezoidal companions).
    let mut caps: Vec<CapState> = Vec::new();
    let mut inds: Vec<IndState> = Vec::new();
    for (idx, e) in ckt.elements().iter().enumerate() {
        match e {
            Element::Capacitor { a, b, c, .. } => {
                let ia = layout.node_idx(*a);
                let ib = layout.node_idx(*b);
                let va = ia.map_or(0.0, |i| x[i]);
                let vb = ib.map_or(0.0, |i| x[i]);
                caps.push(CapState {
                    ia,
                    ib,
                    c: *c,
                    v_prev: va - vb,
                    i_prev: 0.0,
                });
            }
            Element::Inductor { a, b, l, .. } => {
                let Some(br) = layout.branch_idx(idx) else {
                    continue;
                };
                inds.push(IndState {
                    br,
                    ia: layout.node_idx(*a),
                    ib: layout.node_idx(*b),
                    couplings: vec![(br, *l)],
                    v_prev: 0.0,
                });
            }
            _ => {}
        }
    }
    let br_to_ind: HashMap<usize, usize> =
        inds.iter().enumerate().map(|(k, s)| (s.br, k)).collect();
    for e in ckt.elements() {
        if let Element::Mutual { la, lb, m, .. } = e {
            if let (Some(ba), Some(bb)) = (layout.branch_idx(la.0), layout.branch_idx(lb.0)) {
                inds[br_to_ind[&ba]].couplings.push((bb, *m));
                inds[br_to_ind[&bb]].couplings.push((ba, *m));
            }
        }
    }

    // Factor cache keyed by the dt ladder (exact bits of dt).
    let mut cache: HashMap<u64, Factored<f64>> = HashMap::new();
    let mut stats = AdaptiveStats {
        accepted: 0,
        rejected: 0,
        factorizations: 0,
    };

    let mut times = vec![0.0];
    let mut data = vec![x.clone()];
    let mut t = 0.0;
    let mut dt = spec.dt_initial;
    let mut x_prev: Option<(f64, Vec<f64>)> = None; // (dt of last step, state before x)
    let mut quiet_steps = 0usize;
    // Scale for the error norm: evolves with the observed swing.
    let mut swing = 1e-6f64;

    let mut rhs = vec![0.0f64; layout.dim];
    while t < spec.t_stop - 1e-18 {
        let dt_eff = dt.min(spec.t_stop - t);
        let key = dt_eff.to_bits();
        let factored = match cache.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                let coef = 2.0 / dt_eff;
                let a = assemble::<f64>(ckt, &layout, |c| coef * c, |l| coef * l);
                let f = Factored::factor(&a, spec.solver).map_err(|e| match e {
                    CircuitError::SingularSystem { .. } => CircuitError::SingularSystem {
                        analysis: "transient",
                    },
                    other => other,
                })?;
                stats.factorizations += 1;
                v.insert(f)
            }
        };
        let coef = 2.0 / dt_eff;
        let t_new = t + dt_eff;

        rhs.iter_mut().for_each(|v| *v = 0.0);
        for (idx, e) in ckt.elements().iter().enumerate() {
            match e {
                Element::VSource { wave, .. } | Element::ISource { wave, .. } => {
                    add_source_rhs(&mut rhs, &layout, idx, e, wave.value(t_new));
                }
                _ => {}
            }
        }
        for s in &caps {
            let hist = coef * s.c * s.v_prev + s.i_prev;
            if let Some(ia) = s.ia {
                rhs[ia] += hist;
            }
            if let Some(ib) = s.ib {
                rhs[ib] -= hist;
            }
        }
        for s in &inds {
            let mut flux = 0.0;
            for &(col, l) in &s.couplings {
                flux += l * x[col];
            }
            rhs[s.br] = -s.v_prev - coef * flux;
        }

        let x_new = factored.solve(&rhs)?;

        // Local error estimate: compare against the linear predictor from
        // the previous accepted step.
        let err = match &x_prev {
            Some((dt_last, xp)) if *dt_last > 0.0 => {
                let r = dt_eff / dt_last;
                let mut e = 0.0f64;
                for k in 0..x.len() {
                    let pred = x[k] + (x[k] - xp[k]) * r;
                    e = e.max((x_new[k] - pred).abs());
                }
                e
            }
            _ => 0.0,
        };
        for v in &x_new {
            swing = swing.max(v.abs());
        }

        if err > spec.tol * swing && dt_eff > spec.dt_min * 1.0001 {
            // Reject: halve the step and retry (states untouched).
            stats.rejected += 1;
            dt = (dt_eff / 2.0).max(spec.dt_min);
            quiet_steps = 0;
            continue;
        }

        // Accept: update companions and history.
        for s in &mut caps {
            let va = s.ia.map_or(0.0, |i| x_new[i]);
            let vb = s.ib.map_or(0.0, |i| x_new[i]);
            let v_new = va - vb;
            let i_new = coef * s.c * (v_new - s.v_prev) - s.i_prev;
            s.v_prev = v_new;
            s.i_prev = i_new;
        }
        for s in &mut inds {
            let va = s.ia.map_or(0.0, |i| x_new[i]);
            let vb = s.ib.map_or(0.0, |i| x_new[i]);
            s.v_prev = va - vb;
        }
        x_prev = Some((dt_eff, x.clone()));
        x = x_new;
        t = t_new;
        stats.accepted += 1;
        times.push(t);
        data.push(x.clone());

        if err < spec.tol * swing / 16.0 {
            quiet_steps += 1;
            if quiet_steps >= 4 && dt * 2.0 <= spec.dt_max {
                dt *= 2.0;
                quiet_steps = 0;
            }
        } else {
            quiet_steps = 0;
        }
    }

    Ok((
        TransientResult {
            times,
            data,
            mapping: ResultMapping::Full {
                n_nodes: layout.n_nodes,
                branch_of: layout.branch_of.clone(),
            },
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::resample;
    use crate::transient::{run_transient, TransientSpec};
    use crate::waveform::Waveform;

    fn rc_step() -> (Circuit, crate::NodeId) {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("V1", inp, Circuit::GROUND, Waveform::step(1.0, 1e-9))
            .unwrap();
        c.add_resistor("R1", inp, out, 1000.0).unwrap();
        c.add_capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        (c, out)
    }

    #[test]
    fn matches_fixed_step_on_rc() {
        let (c, out) = rc_step();
        let t_stop = 5e-6;
        let fixed = run_transient(&c, &TransientSpec::new(t_stop, 1e-9)).unwrap();
        let (adaptive, stats) =
            run_transient_adaptive(&c, &AdaptiveSpec::new(t_stop, 2e-9).tol(1e-4)).unwrap();
        assert!(stats.accepted > 10);
        // Resample the adaptive result onto the fixed grid and compare.
        let va = adaptive.voltage(out).unwrap();
        let vf = fixed.voltage(out).unwrap();
        let va_resampled = resample(adaptive.time(), &va, fixed.time());
        for (a, f) in va_resampled.iter().zip(vf.iter()) {
            assert!((a - f).abs() < 5e-3, "adaptive {a} vs fixed {f}");
        }
    }

    #[test]
    fn step_grows_in_quiet_regions() {
        let (c, _) = rc_step();
        // Long quiet tail after the transient: the step should coarsen.
        let (res, stats) =
            run_transient_adaptive(&c, &AdaptiveSpec::new(50e-6, 10e-9)).unwrap();
        // With a fixed 10 ns step we would need 5000 points; adaptivity
        // should do much better.
        assert!(
            res.len() < 3000,
            "expected step growth, took {} points",
            res.len()
        );
        assert!(stats.factorizations >= 1);
        assert!(stats.factorizations <= 12, "ladder keeps the cache small");
    }

    #[test]
    fn sharp_edge_forces_refinement() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        // 1 ps edge at t = 10 ns, long quiet lead-in.
        c.add_vsource(
            "V1",
            inp,
            Circuit::GROUND,
            Waveform::Step {
                v0: 0.0,
                v1: 1.0,
                delay: 10e-9,
                rise: 1e-12,
            },
        )
        .unwrap();
        c.add_resistor("R1", inp, out, 100.0).unwrap();
        c.add_capacitor("C1", out, Circuit::GROUND, 1e-13).unwrap();
        let (res, stats) =
            run_transient_adaptive(&c, &AdaptiveSpec::new(20e-9, 0.2e-9).tol(1e-3)).unwrap();
        assert!(stats.rejected > 0, "the edge must trigger rejections");
        let v = res.voltage(out).unwrap();
        assert!((v.last().unwrap() - 1.0).abs() < 5e-3);
    }

    #[test]
    fn invalid_specs_rejected() {
        let (c, _) = rc_step();
        assert!(run_transient_adaptive(&c, &AdaptiveSpec::new(-1.0, 1e-9)).is_err());
        let mut bad = AdaptiveSpec::new(1e-6, 1e-9);
        bad.dt_min = 1e-8; // > dt_initial
        assert!(run_transient_adaptive(&c, &bad).is_err());
        let bad2 = AdaptiveSpec::new(1e-6, 1e-9).tol(0.0);
        assert!(run_transient_adaptive(&c, &bad2).is_err());
    }
}
