//! AC (small-signal frequency-domain) analysis.
//!
//! Solves the complex MNA system `(G + jωC_stamps)·x = b(ω)` at each sweep
//! point. Used by the Fig. 2(b) reproduction (1 Hz – 10 GHz response of the
//! 5-bit bus under PEEC, full VPEC and localized VPEC models).
//!
//! A sweep's matrices share one pattern, so it is stamped and ordered
//! once, whatever its size: each point refills the values and factors
//! them sparse under that ordering, with the same threshold pivoting and
//! growth check as every DC and transient factor.

use crate::diagnostics::FactorDiagnostics;
use crate::elements::Element;
use crate::error::CircuitError;
use crate::mna::{add_source_rhs, assemble, MnaLayout, StampPlan};
use crate::netlist::Circuit;
use crate::result::AcResult;
use crate::solver::factor;
use vpec_numerics::cancel::CancelToken;
use vpec_numerics::ordering::FillOrdering;
use vpec_numerics::{pool, Complex64, CooMatrix, Pool};

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
    // The ordering depends on the pattern alone, and G + jωC has the same
    // pattern at every ω > 0: the stamp plan builds that pattern once, it
    // is ordered once, and each point refills the values. A point whose
    // pattern differs (a slot summing to exactly zero) is assembled afresh
    // and its factor orders it. A pattern with no transversal is left for
    // the factor to fail on.
    let f0 = spec.frequencies[0];
    let plan = StampPlan::new(ckt, &layout, jw(f0), jw(f0))?;
    let plan_ordering = FillOrdering::of(plan.pattern()).ok();
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
    // Each sweep point is an independent refill + factor + solve, so the
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
        let (a, ordering) = match plan.refill(ckt, &layout, jw(f), jw(f))? {
            Some(a) => (a, plan_ordering.as_ref()),
            None => (assemble(ckt, &layout, jw(f), jw(f))?.to_csr(), None),
        };
        let (lu, diag) = factor(&a, ordering, "ac")?;
        Ok((lu.solve(&rhs)?, diag))
    });
    let mut data = Vec::with_capacity(spec.frequencies.len());
    let mut largest = FactorDiagnostics::default();
    for point in solved {
        let (x, diag) = point?;
        data.push(x);
        if diag.factor_nnz > largest.factor_nnz {
            largest = diag;
        }
    }
    Ok(AcResult {
        freqs: spec.frequencies.clone(),
        data,
        n_nodes: layout.n_nodes,
        factor: largest,
    })
}

/// The complex MNA matrix [`run_ac`] factors at `freq` hertz,
/// `G + jωC` with `jωL` on the inductor branches: the one a sweep point
/// refills, bit for bit. For analyses that want to weigh its factor
/// against another one.
///
/// # Errors
///
/// [`CircuitError::Numerics`] when an element stamps outside the layout.
pub fn ac_matrix(ckt: &Circuit, freq: f64) -> Result<CooMatrix<Complex64>, CircuitError> {
    Ok(assemble(ckt, &MnaLayout::new(ckt), jw(freq), jw(freq))?)
}

/// Both dynamic stamps at `f` hertz, angular frequency ω: `x ↦ jωx`, for
/// jωC and jωL.
fn jw(f: f64) -> impl Fn(f64) -> Complex64 + Copy {
    let omega = 2.0 * std::f64::consts::PI * f;
    move |x: f64| Complex64::new(0.0, omega * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;
    use crate::waveform::Waveform;
    use vpec_numerics::{CsrMatrix, LuFactor};

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

    /// `lines` coupled lines of `segs` RL segments, PEEC-shaped: a driven
    /// line 0, quiet drivers elsewhere, ground and coupling capacitors, and
    /// a mutual between every pair of segment inductors.
    fn peec_bus(lines: usize, segs: usize) -> Circuit {
        let mut c = Circuit::new();
        let mut inductors = Vec::new();
        let mut prev_line: Vec<crate::NodeId> = Vec::new();
        for k in 0..lines {
            let src = c.node(&format!("src{k}"));
            let (mag, wave) = (if k == 0 { 1.0 } else { 0.0 }, Waveform::dc(0.0));
            c.add_vsource_ac(&format!("V{k}"), src, Circuit::GROUND, wave, mag, 0.0)
                .unwrap();
            let mut node = c.node(&format!("n{k}_0"));
            c.add_resistor(&format!("Rd{k}"), src, node, 30.0).unwrap();
            let mut line = vec![node];
            for s in 0..segs {
                let mid = c.node(&format!("m{k}_{s}"));
                let next = c.node(&format!("n{k}_{}", s + 1));
                c.add_resistor(&format!("R{k}_{s}"), node, mid, 2.0)
                    .unwrap();
                let l = c
                    .add_inductor(&format!("L{k}_{s}"), mid, next, 1e-10)
                    .unwrap();
                inductors.push(l);
                c.add_capacitor(&format!("C{k}_{s}"), next, Circuit::GROUND, 5e-15)
                    .unwrap();
                line.push(next);
                node = next;
            }
            if let Some(prev) = prev_line.get(1..) {
                for (s, (&a, &b)) in prev.iter().zip(&line[1..]).enumerate() {
                    c.add_capacitor(&format!("Cc{k}_{s}"), a, b, 2e-15).unwrap();
                }
            }
            c.add_capacitor(&format!("Cl{k}"), node, Circuit::GROUND, 10e-15)
                .unwrap();
            prev_line = line;
        }
        for (i, &a) in inductors.iter().enumerate() {
            for (j, &b) in inductors.iter().enumerate().skip(i + 1) {
                let m = 0.5e-10 / (1.0 + (j - i) as f64);
                c.add_mutual(&format!("K{i}_{j}"), a, b, m).unwrap();
            }
        }
        c
    }

    /// `lines` lines lowered the way full VPEC lowers them: per line a
    /// magnetic branch, a ground resistor on its magnetic node and a CCCS
    /// injection, with negative coupling resistors between every pair of
    /// magnetic nodes.
    fn vpec_bus(lines: usize) -> Circuit {
        let mut c = Circuit::new();
        let mut mag = Vec::new();
        for k in 0..lines {
            let src = c.node(&format!("src{k}"));
            let (near, mid, out) = (
                c.node(&format!("near{k}")),
                c.node(&format!("mid{k}")),
                c.node(&format!("out{k}")),
            );
            let a = c.node(&format!("a{k}"));
            let mag_v = if k == 0 { 1.0 } else { 0.0 };
            c.add_vsource_ac(
                &format!("V{k}"),
                src,
                Circuit::GROUND,
                Waveform::dc(0.0),
                mag_v,
                0.0,
            )
            .unwrap();
            c.add_resistor(&format!("Rd{k}"), src, near, 30.0).unwrap();
            c.add_resistor(&format!("R{k}"), near, mid, 5.0).unwrap();
            let li = 1e-3 * (1.0 + 0.1 * k as f64);
            let branch = c
                .add_magnetic_branch(&k.to_string(), mid, out, a, li)
                .unwrap();
            c.add_capacitor(&format!("C{k}"), out, Circuit::GROUND, 20e-15)
                .unwrap();
            c.add_resistor(&format!("rg{k}"), a, Circuit::GROUND, 1e5)
                .unwrap();
            c.add_cccs(&format!("f{k}"), Circuit::GROUND, a, branch, li)
                .unwrap();
            mag.push(a);
        }
        for i in 0..lines {
            for j in i + 1..lines {
                let r = -1e6 * (1.0 + (j - i) as f64);
                c.add_resistor(&format!("rc{i}_{j}"), mag[i], mag[j], r)
                    .unwrap();
            }
        }
        c
    }

    /// An RLC ladder of `stages` sections driven at its input.
    fn rlc_ladder(stages: usize) -> Circuit {
        let mut c = Circuit::new();
        let mut prev = c.node("in");
        c.add_vsource_ac("V1", prev, Circuit::GROUND, Waveform::dc(0.0), 1.0, 0.0)
            .unwrap();
        for k in 0..stages {
            let mid = c.node(&format!("m{k}"));
            let out = c.node(&format!("o{k}"));
            c.add_resistor(&format!("R{k}"), prev, mid, 50.0 + k as f64)
                .unwrap();
            c.add_inductor(&format!("L{k}"), mid, out, 1e-9 * (1.0 + k as f64))
                .unwrap();
            c.add_capacitor(&format!("C{k}"), out, Circuit::GROUND, 20e-15)
                .unwrap();
            prev = out;
        }
        c.add_resistor("Rload", prev, Circuit::GROUND, 75.0)
            .unwrap();
        c
    }

    fn fresh(ckt: &Circuit, layout: &MnaLayout, f: f64) -> CsrMatrix<Complex64> {
        assemble(ckt, layout, jw(f), jw(f)).unwrap().to_csr()
    }

    fn assert_same_bits(a: &CsrMatrix<Complex64>, b: &CsrMatrix<Complex64>, what: &str) {
        assert!(a.same_pattern(b), "{what}: pattern");
        for i in 0..a.rows() {
            for (x, y) in a.row(i).1.iter().zip(b.row(i).1) {
                let bits = |z: &Complex64| (z.re.to_bits(), z.im.to_bits());
                assert_eq!(bits(x), bits(y), "{what}: row {i}: {x:?} vs {y:?}");
            }
        }
    }

    /// The sweep as it ran before the stamp plan: every point assembled,
    /// compressed and ordered afresh, serially. With `dense`, each point
    /// is solved by dense LU with partial pivoting instead.
    fn fresh_sweep(ckt: &Circuit, freqs: &[f64], dense: bool) -> Vec<Vec<Complex64>> {
        let layout = MnaLayout::new(ckt);
        let mut rhs = vec![Complex64::ZERO; layout.dim];
        for (idx, e) in ckt.elements().iter().enumerate() {
            if let Element::VSource {
                ac: Some((m, p)), ..
            } = e
            {
                add_source_rhs(&mut rhs, &layout, idx, e, Complex64::from_polar(*m, *p));
            }
        }
        freqs
            .iter()
            .map(|&f| {
                let a = fresh(ckt, &layout, f);
                if dense {
                    LuFactor::new(&a.to_dense()).unwrap().solve(&rhs).unwrap()
                } else {
                    factor(&a, None, "ac").unwrap().0.solve(&rhs).unwrap()
                }
            })
            .collect()
    }

    fn assert_sweep_matches_fresh(ckt: &Circuit, freqs: &[f64]) {
        let swept = run_ac(ckt, &AcSpec::points(freqs.to_vec())).unwrap();
        for (i, x) in fresh_sweep(ckt, freqs, false).iter().enumerate() {
            let same = x
                .iter()
                .zip(&swept.data[i])
                .all(|(u, v)| u.re.to_bits() == v.re.to_bits() && u.im.to_bits() == v.im.to_bits());
            assert!(
                same,
                "point {i} ({} Hz) differs from a fresh assembly",
                freqs[i]
            );
        }
    }

    #[test]
    fn stamp_plan_refills_every_point_like_a_fresh_assembly() {
        let freqs = AcSpec::log_sweep(1e6, 1e11, 4).unwrap().frequencies;
        for (name, ckt) in [
            ("peec", peec_bus(6, 4)),
            ("vpec", vpec_bus(12)),
            ("ladder", rlc_ladder(24)),
        ] {
            let layout = MnaLayout::new(&ckt);
            let plan = StampPlan::new(&ckt, &layout, jw(freqs[0]), jw(freqs[0])).unwrap();
            let ordering = FillOrdering::of(plan.pattern()).unwrap();
            for &f in &freqs {
                let refilled = plan.refill(&ckt, &layout, jw(f), jw(f)).unwrap();
                let refilled = refilled.unwrap_or_else(|| panic!("{name} at {f} Hz: no refill"));
                let what = format!("{name} at {f} Hz");
                assert_same_bits(&refilled, &fresh(&ckt, &layout, f), &what);
                assert_eq!(FillOrdering::of(&refilled).unwrap(), ordering, "{what}");
            }
            // The sweep factors each point under the plan's ordering; the
            // fresh sweep orders each point afresh.
            assert_sweep_matches_fresh(&ckt, &freqs);
        }
    }

    #[test]
    fn sparse_sweep_matches_dense_lu() {
        // The reference is dense LU with partial pivoting on each point's
        // matrix.
        let freqs = AcSpec::log_sweep(1e6, 1e11, 4).unwrap().frequencies;
        for (name, ckt) in [("peec", peec_bus(6, 4)), ("vpec", vpec_bus(12))] {
            let swept = run_ac(&ckt, &AcSpec::points(freqs.clone())).unwrap();
            for (i, dense) in fresh_sweep(&ckt, &freqs, true).iter().enumerate() {
                let scale = dense.iter().map(|v| v.abs()).fold(0.0, f64::max);
                let worst = dense
                    .iter()
                    .zip(&swept.data[i])
                    .map(|(d, s)| (*d - *s).abs())
                    .fold(0.0, f64::max);
                assert!(
                    worst <= 1e-9 * scale,
                    "{name} at {} Hz: sparse vs dense {worst:e} of {scale:e}",
                    freqs[i]
                );
            }
        }
    }

    #[test]
    fn a_cancelling_slot_takes_the_fresh_assembly_path() {
        // Mutuals of +M and −M between the same two inductors cancel their
        // branch-branch slots exactly: a fresh assembly drops them.
        let mut ckt = rlc_ladder(24);
        let inductors: Vec<_> = (0..ckt.elements().len())
            .filter(|&i| matches!(ckt.elements()[i], Element::Inductor { .. }))
            .map(crate::ElementId)
            .collect();
        ckt.add_mutual("Kp", inductors[3], inductors[7], 2e-10)
            .unwrap();
        ckt.add_mutual("Kn", inductors[3], inductors[7], -2e-10)
            .unwrap();
        let freqs = [1e8, 1e9, 1e10];
        let layout = MnaLayout::new(&ckt);
        let plan = StampPlan::new(&ckt, &layout, jw(freqs[0]), jw(freqs[0])).unwrap();
        for &f in &freqs {
            assert!(plan.refill(&ckt, &layout, jw(f), jw(f)).unwrap().is_none());
            assert_eq!(fresh(&ckt, &layout, f).nnz() + 2, plan.pattern().nnz());
        }
        assert_sweep_matches_fresh(&ckt, &freqs);
    }

    #[test]
    fn a_slot_that_underflows_at_some_points_takes_the_fresh_assembly_path() {
        // ω·C underflows to zero below about 0.08 Hz for the smallest
        // subnormal capacitance, so this capacitor's slots exist only at
        // the higher frequencies. Plan from either end of the sweep.
        let mut ckt = rlc_ladder(24);
        let (a, b) = (crate::NodeId(5), crate::NodeId(40));
        ckt.add_capacitor("Ctiny", a, b, f64::from_bits(1)).unwrap();
        let layout = MnaLayout::new(&ckt);
        for freqs in [[0.01, 1.0, 1e9], [1e9, 1.0, 0.01]] {
            let plan = StampPlan::new(&ckt, &layout, jw(freqs[0]), jw(freqs[0])).unwrap();
            let refilled: Vec<bool> = freqs
                .iter()
                .map(|&f| plan.refill(&ckt, &layout, jw(f), jw(f)).unwrap().is_some())
                .collect();
            let stamped = |f: f64| f >= 1.0;
            assert_eq!(refilled, freqs.map(|f| stamped(f) == stamped(freqs[0])));
            assert_sweep_matches_fresh(&ckt, &freqs);
        }
    }

    #[test]
    fn zero_stamps_need_no_slot() {
        // A zero mutual and a zero-gain VCVS stamp nothing at any ω.
        let mut ckt = rlc_ladder(24);
        let inductors: Vec<_> = (0..ckt.elements().len())
            .filter(|&i| matches!(ckt.elements()[i], Element::Inductor { .. }))
            .map(crate::ElementId)
            .collect();
        ckt.add_mutual("K0", inductors[1], inductors[2], 0.0)
            .unwrap();
        let (p, cp) = (ckt.node("m3"), ckt.node("o9"));
        let q = ckt.node("vq");
        ckt.add_vcvs("E0", q, Circuit::GROUND, p, cp, 0.0).unwrap();
        ckt.add_resistor("Rq", q, Circuit::GROUND, 10.0).unwrap();
        let freqs = [1e7, 1e9];
        let layout = MnaLayout::new(&ckt);
        let plan = StampPlan::new(&ckt, &layout, jw(freqs[0]), jw(freqs[0])).unwrap();
        for &f in &freqs {
            let refilled = plan.refill(&ckt, &layout, jw(f), jw(f)).unwrap().unwrap();
            assert_same_bits(&refilled, &fresh(&ckt, &layout, f), "zero stamps");
        }
        assert_sweep_matches_fresh(&ckt, &freqs);
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
