//! AC (small-signal frequency-domain) analysis.
//!
//! Solves the complex MNA system `(G + jωC_stamps)·x = b(ω)` at each sweep
//! point. Used by the Fig. 2(b) reproduction (1 Hz – 10 GHz response of the
//! 5-bit bus under PEEC, full VPEC and localized VPEC models).

use crate::diagnostics::FactorStrategy;
use crate::elements::Element;
use crate::error::CircuitError;
use crate::mna::{add_source_rhs, assemble, MnaLayout};
use crate::netlist::Circuit;
use crate::result::AcResult;
use crate::solver::Factored;
use vpec_numerics::cancel::CancelToken;
use vpec_numerics::ordering::rcm_ordering;
use vpec_numerics::{pool, Complex64, CsrMatrix, Pool};

/// Minimum sweep points per worker before the per-frequency solves go
/// parallel: below it fan-out overhead costs more than it buys (commit
/// 6c958f5 measured a 0.978× "speedup" on an 8-bit, 4-segment bus).
const AC_MIN_POINTS_PER_THREAD: usize = 8;

/// AC sweep specification.
#[derive(Debug, Clone)]
pub struct AcSpec {
    /// Frequencies to solve at, hertz (each must be positive).
    pub frequencies: Vec<f64>,
    /// Cooperative cancellation, polled once per sweep point. Disarmed by
    /// default; the engine's deadline watchdog arms it.
    pub cancel: CancelToken,
}

impl AcSpec {
    /// A logarithmic sweep with `points_per_decade` points from `f_start`
    /// to `f_stop`. The final point is always exactly `f_stop`, whatever
    /// the floating-point rounding of the decade count does.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidSpec`] when the bounds are non-positive,
    /// non-finite, or inverted, or when `points_per_decade` is zero —
    /// these are CLI-reachable inputs, not programming errors.
    pub fn log_sweep(
        f_start: f64,
        f_stop: f64,
        points_per_decade: usize,
    ) -> Result<Self, CircuitError> {
        if !(f_start.is_finite() && f_stop.is_finite() && f_start > 0.0 && f_stop > f_start) {
            return Err(CircuitError::InvalidSpec {
                reason: "log sweep needs finite bounds with 0 < f_start < f_stop",
            });
        }
        if points_per_decade == 0 {
            return Err(CircuitError::InvalidSpec {
                reason: "log sweep needs at least one point per decade",
            });
        }
        let decades = (f_stop / f_start).log10();
        let n = (decades * points_per_decade as f64).ceil() as usize + 1;
        // Interior points only; the exact endpoint is appended so float
        // truncation in `decades * points_per_decade` can never drop it.
        let mut frequencies: Vec<f64> = (0..n)
            .map(|k| f_start * 10f64.powf(k as f64 / points_per_decade as f64))
            .filter(|&f| f < f_stop)
            .collect();
        frequencies.push(f_stop);
        Ok(AcSpec {
            frequencies,
            cancel: CancelToken::none(),
        })
    }

    /// A sweep over explicit frequencies.
    pub fn points(frequencies: Vec<f64>) -> Self {
        AcSpec {
            frequencies,
            cancel: CancelToken::none(),
        }
    }

    /// Attaches a cancellation token, polled once per sweep point.
    #[must_use]
    pub fn cancel_token(mut self, t: CancelToken) -> Self {
        self.cancel = t;
        self
    }
}

/// Runs the AC sweep. Sources contribute their AC magnitude/phase; sources
/// without an AC spec are quiet (their branch rows pin 0 V).
///
/// # Errors
///
/// * [`CircuitError::InvalidSpec`] for an empty sweep or non-positive
///   frequencies.
/// * [`CircuitError::SingularSystem`] if the complex MNA matrix is
///   singular at some frequency.
pub fn run_ac(ckt: &Circuit, spec: &AcSpec) -> Result<AcResult, CircuitError> {
    if spec.frequencies.is_empty() {
        return Err(CircuitError::InvalidSpec {
            reason: "AC sweep needs at least one frequency",
        });
    }
    if spec.frequencies.iter().any(|&f| !f.is_finite() || f <= 0.0) {
        return Err(CircuitError::InvalidSpec {
            reason: "AC frequencies must be positive and finite",
        });
    }
    let layout = MnaLayout::new(ckt);
    let assemble_at = |f: f64| -> Result<_, CircuitError> {
        let omega = 2.0 * std::f64::consts::PI * f;
        Ok(assemble::<Complex64>(
            ckt,
            &layout,
            |c| Complex64::new(0.0, omega * c),
            |l| Complex64::new(0.0, omega * l),
        )?
        .to_csr())
    };
    // Sparse AC factors keep RCM with partial pivoting (the fill-reducing
    // path of the real factors does not pay off on complex matrices; see
    // DESIGN.md §8.6). RCM depends on the pattern alone, and G + jωC has
    // the same pattern at every ω > 0, so the first point's ordering
    // serves every point whose pattern matches it; a point whose pattern
    // differs is ordered afresh. Dense-primary systems need no ordering.
    let rcm_for = |a: &CsrMatrix<Complex64>| {
        (Factored::primary_strategy(a) == FactorStrategy::SparseLu).then(|| rcm_ordering(a))
    };
    let first = assemble_at(spec.frequencies[0])?;
    let first_rcm = rcm_for(&first);
    // Each sweep point is an independent assemble + factor + solve, so the
    // sweep maps over frequencies in parallel. Results come back in sweep
    // order; on failure the error reported is the one at the lowest
    // failing frequency, matching the serial loop's behaviour. Short
    // sweeps stay serial (see [`AC_MIN_POINTS_PER_THREAD`]).
    let nt = pool::threads_for(spec.frequencies.len(), AC_MIN_POINTS_PER_THREAD);
    let _sp = vpec_trace::span!(
        "ac.sweep",
        "points" => spec.frequencies.len(),
        "mode" => if nt > 1 { "parallel" } else { "serial" },
        "workers" => nt,
    );
    let solved = Pool::with_threads(nt).par_map(&spec.frequencies, |_, &f| {
        if spec.cancel.is_cancelled() {
            return Err(CircuitError::Cancelled { analysis: "ac" });
        }
        let _ps = vpec_trace::span("ac.point");
        let a = assemble_at(f)?;
        let mut rhs = vec![Complex64::ZERO; layout.dim];
        for (idx, e) in ckt.elements().iter().enumerate() {
            match e {
                Element::VSource {
                    ac: Some((m, p)), ..
                }
                | Element::ISource {
                    ac: Some((m, p)), ..
                } => {
                    add_source_rhs(&mut rhs, &layout, idx, e, Complex64::from_polar(*m, *p));
                }
                _ => {}
            }
        }
        let own_rcm;
        let rcm = if a.same_pattern(&first) {
            first_rcm.as_deref()
        } else {
            own_rcm = rcm_for(&a);
            own_rcm.as_deref()
        };
        let (factored, _) = Factored::factor_csr(&a, false, rcm).map_err(|e| match e {
            CircuitError::SingularSystem { .. } => CircuitError::SingularSystem { analysis: "ac" },
            other => other,
        })?;
        factored.solve(&rhs)
    });
    let mut data = Vec::with_capacity(spec.frequencies.len());
    for point in solved {
        data.push(point?);
    }
    Ok(AcResult {
        freqs: spec.frequencies.clone(),
        data,
        n_nodes: layout.n_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;
    use crate::waveform::Waveform;

    #[test]
    fn rc_lowpass_corner() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource_ac("V1", inp, Circuit::GROUND, Waveform::dc(0.0), 1.0, 0.0)
            .unwrap();
        let r = 1000.0;
        let cap = 1e-9;
        c.add_resistor("R1", inp, out, r).unwrap();
        c.add_capacitor("C1", out, Circuit::GROUND, cap).unwrap();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * cap);
        let res = run_ac(&c, &AcSpec::points(vec![fc / 100.0, fc, fc * 100.0])).unwrap();
        let mag = res.magnitude(out).unwrap();
        assert!((mag[0] - 1.0).abs() < 1e-3, "passband flat, got {}", mag[0]);
        assert!(
            (mag[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3,
            "-3 dB at corner, got {}",
            mag[1]
        );
        assert!(mag[2] < 0.02, "strong rolloff, got {}", mag[2]);
    }

    #[test]
    fn rl_highpass_behaviour() {
        // Series L into resistor: v(out)/v(in) = R/(R + jωL) — low-pass in
        // this arrangement; check both extremes.
        let mut c = Circuit::new();
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource_ac("V1", inp, Circuit::GROUND, Waveform::dc(0.0), 1.0, 0.0)
            .unwrap();
        c.add_inductor("L1", inp, out, 1e-6).unwrap();
        c.add_resistor("R1", out, Circuit::GROUND, 100.0).unwrap();
        let fc = 100.0 / (2.0 * std::f64::consts::PI * 1e-6);
        let res = run_ac(&c, &AcSpec::points(vec![fc / 1000.0, fc * 1000.0])).unwrap();
        let mag = res.magnitude(out).unwrap();
        assert!((mag[0] - 1.0).abs() < 1e-3);
        assert!(mag[1] < 0.01);
    }

    #[test]
    fn lc_resonance_peaks() {
        // Series RLC: current peaks at ω = 1/√(LC).
        let mut c = Circuit::new();
        let inp = c.node("in");
        let mid = c.node("mid");
        let out = c.node("out");
        c.add_vsource_ac("V1", inp, Circuit::GROUND, Waveform::dc(0.0), 1.0, 0.0)
            .unwrap();
        c.add_resistor("R1", inp, mid, 1.0).unwrap();
        c.add_inductor("L1", mid, out, 1e-9).unwrap();
        c.add_capacitor("C1", out, Circuit::GROUND, 1e-12).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-9f64 * 1e-12).sqrt());
        let res = run_ac(&c, &AcSpec::points(vec![f0 / 10.0, f0, f0 * 10.0])).unwrap();
        // At resonance the cap voltage is Q times the input; off resonance
        // it falls away.
        let mag = res.magnitude(out).unwrap();
        assert!(mag[1] > mag[0] && mag[1] > mag[2], "resonant peak: {mag:?}");
    }

    #[test]
    fn log_sweep_covers_range() {
        let s = AcSpec::log_sweep(1.0, 1e10, 10).unwrap();
        assert!((s.frequencies[0] - 1.0).abs() < 1e-12);
        assert!(s.frequencies.iter().all(|&f| f <= 1e10 * (1.0 + 1e-9)));
        assert!(s.frequencies.len() >= 100);
        // Strictly monotonic — the endpoint is appended, never duplicated.
        assert!(s.frequencies.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn log_sweep_ends_exactly_at_f_stop() {
        // Regression: fractional decade counts used to truncate away the
        // endpoint (the last generated point was clamped or fell short).
        for &(f_start, f_stop, ppd) in &[
            (1.0, 1e10, 10),
            (1.0, 3.16e7, 7), // fractional decades
            (2.5, 9.9e3, 3),
            (1e3, 1e3 * 1.5, 10), // less than one decade
        ] {
            let s = AcSpec::log_sweep(f_start, f_stop, ppd).unwrap();
            assert_eq!(
                *s.frequencies.last().unwrap(),
                f_stop,
                "sweep ({f_start}, {f_stop}, {ppd}) must end exactly at f_stop"
            );
            assert_eq!(s.frequencies[0], f_start);
            assert!(s.frequencies.windows(2).all(|w| w[1] > w[0]));
        }
    }

    #[test]
    fn log_sweep_rejects_bad_bounds_without_panicking() {
        // Regression: these used to be `assert!` panics reachable from the
        // CLI; they are typed errors now.
        assert!(AcSpec::log_sweep(0.0, 1e9, 10).is_err());
        assert!(AcSpec::log_sweep(-1.0, 1e9, 10).is_err());
        assert!(AcSpec::log_sweep(1e9, 1e6, 10).is_err());
        assert!(AcSpec::log_sweep(1e6, 1e6, 10).is_err());
        assert!(AcSpec::log_sweep(1.0, f64::INFINITY, 10).is_err());
        assert!(AcSpec::log_sweep(f64::NAN, 1e9, 10).is_err());
        assert!(AcSpec::log_sweep(1.0, 1e9, 0).is_err());
        assert!(matches!(
            AcSpec::log_sweep(1e9, 1e6, 10),
            Err(CircuitError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn bad_specs_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        assert!(run_ac(&c, &AcSpec::points(vec![])).is_err());
        assert!(run_ac(&c, &AcSpec::points(vec![-1.0])).is_err());
    }

    #[test]
    fn cancelled_token_aborts_sweep() {
        let mut c = Circuit::new();
        let inp = c.node("in");
        c.add_vsource_ac("V1", inp, Circuit::GROUND, Waveform::dc(0.0), 1.0, 0.0)
            .unwrap();
        c.add_resistor("R1", inp, Circuit::GROUND, 1.0).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let spec = AcSpec::points(vec![1e6, 1e7]).cancel_token(token);
        assert!(matches!(
            run_ac(&c, &spec),
            Err(CircuitError::Cancelled { analysis: "ac" })
        ));
    }

    #[test]
    fn quiet_source_pins_zero() {
        // A source with no AC spec acts as an AC short (0 V) — the paper's
        // "all other bits are quiet" driver model.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("V1", a, Circuit::GROUND, Waveform::dc(1.0))
            .unwrap();
        c.add_resistor("R1", a, b, 1.0).unwrap();
        c.add_resistor("R2", b, Circuit::GROUND, 1.0).unwrap();
        let res = run_ac(&c, &AcSpec::points(vec![1e6])).unwrap();
        assert!(res.magnitude(a).unwrap()[0] < 1e-12);
        assert!(res.magnitude(b).unwrap()[0] < 1e-12);
    }
}
