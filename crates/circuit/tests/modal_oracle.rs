//! An exact oracle for the trapezoidal transient: a symmetric pair of
//! coupled RLC lines splits into an even and an odd mode, each a series
//! RLC circuit with a closed-form response (the even/odd decomposition of
//! arXiv:1004.4458).
//!
//! Each line is a source, series R and self inductance L into a node
//! with capacitance C to ground; the inductors couple through M and the
//! two nodes through Cc. With line 1 driven by a ramp to `V` and line 2
//! held at 0 V, each mode is driven by `V/2`:
//!
//! * even, `(v₁ + v₂)/2`: inductance `L + M`, capacitance `C`;
//! * odd, `(v₁ − v₂)/2`: inductance `L − M`, capacitance `C + 2Cc`.
//!
//! So `v₁` is the sum and `v₂` the difference of two mode responses.
//! The ramp's two corners fall on the time grid, so the trapezoidal rule
//! is second order across the whole run.

use vpec_circuit::transient::{run_transient, TransientSpec};
use vpec_circuit::{Circuit, NodeId, Waveform};
use vpec_numerics::Complex64;

const R: f64 = 10.0;
const L: f64 = 1e-9;
const M: f64 = 0.3e-9;
const C: f64 = 100e-15;
const CC: f64 = 30e-15;
const V: f64 = 1.0;
/// Rise time of the drive's ramp.
const T_RISE: f64 = 20e-12;
const T_STOP: f64 = 200e-12;

/// The pair, and its two capacitor nodes.
fn pair() -> (Circuit, [NodeId; 2]) {
    let mut c = Circuit::new();
    let mut caps = [Circuit::GROUND; 2];
    let mut inductors = Vec::new();
    for (k, cap) in caps.iter_mut().enumerate() {
        let src = c.node(&format!("src{k}"));
        let mid = c.node(&format!("mid{k}"));
        *cap = c.node(&format!("cap{k}"));
        let v1 = if k == 0 { V } else { 0.0 };
        let drive = Waveform::Step {
            v0: 0.0,
            v1,
            delay: 0.0,
            rise: T_RISE,
        };
        c.add_vsource(&format!("V{k}"), src, Circuit::GROUND, drive)
            .unwrap();
        c.add_resistor(&format!("R{k}"), src, mid, R).unwrap();
        inductors.push(c.add_inductor(&format!("L{k}"), mid, *cap, L).unwrap());
        c.add_capacitor(&format!("C{k}"), *cap, Circuit::GROUND, C)
            .unwrap();
    }
    c.add_capacitor("Cc", caps[0], caps[1], CC).unwrap();
    c.add_mutual("K", inductors[0], inductors[1], M).unwrap();
    (c, caps)
}

/// One underdamped series RLC mode: the unit step response of its
/// capacitor voltage is `s(t) = 1 − Re[c·e^{λt}]`, with `λ = −α + iω_d`
/// and `c = 1 − iα/ω_d`.
struct Mode {
    lambda: Complex64,
    c: Complex64,
}

impl Mode {
    fn new(l: f64, cap: f64) -> Mode {
        let alpha = R / (2.0 * l);
        let omega_d = (1.0 / (l * cap) - alpha * alpha).sqrt();
        Mode {
            lambda: Complex64::new(-alpha, omega_d),
            c: Complex64::new(1.0, -alpha / omega_d),
        }
    }

    /// `∫₀ᵗ s = t − Re[c·(e^{λt} − 1)/λ]`.
    fn step_integral(&self, t: f64) -> f64 {
        let z = self.lambda * t;
        let e = Complex64::from_polar(z.re.exp(), z.im);
        t - (self.c * (e - Complex64::ONE) / self.lambda).re
    }

    /// Response to the drive's ramp to `V/2` over `T_RISE`.
    fn response(&self, t: f64) -> f64 {
        let late = if t > T_RISE {
            self.step_integral(t - T_RISE)
        } else {
            0.0
        };
        0.5 * V / T_RISE * (self.step_integral(t) - late)
    }

    /// Bound on the third derivative of [`Mode::response`]: `s''` is
    /// `−Re[c·λ²·e^{λt}]`, and the ramp is the difference of two shifted
    /// integrated steps.
    fn third_derivative_bound(&self) -> f64 {
        0.5 * V / T_RISE * 2.0 * self.c.abs() * self.lambda.abs().powi(2)
    }
}

/// Largest error of either line against the mode sum and difference.
fn max_error(dt: f64, even: &Mode, odd: &Mode) -> f64 {
    let (ckt, [n1, n2]) = pair();
    let res = run_transient(&ckt, &TransientSpec::new(T_STOP, dt)).unwrap();
    let (v1, v2) = (res.voltage(n1).unwrap(), res.voltage(n2).unwrap());
    assert_eq!(res.len(), (T_STOP / dt).round() as usize + 1);
    let mut worst = 0.0f64;
    for (k, &t) in res.time().iter().enumerate() {
        let (e, o) = (even.response(t), odd.response(t));
        worst = worst
            .max((v1[k] - (e + o)).abs())
            .max((v2[k] - (e - o)).abs());
    }
    worst
}

/// The trapezoidal rule's global error bound at step `dt`: every step's
/// local error `dt³/12·|y'''|`, never amplified (the rule's propagator
/// has modulus at most 1 on a passive mode), summed over the
/// `T_STOP/dt` steps and over both modes (each line is one mode plus or
/// minus the other). Measured: 23 % of the bound at both steps.
fn truncation_bound(dt: f64, even: &Mode, odd: &Mode) -> f64 {
    T_STOP * dt * dt / 12.0 * (even.third_derivative_bound() + odd.third_derivative_bound())
}

/// At `dt` and `dt/2` the error stays within the bound, and halving the
/// step cuts it by 4 (measured 4.00).
#[test]
fn coupled_pair_matches_its_modes_within_the_trapezoidal_bound() {
    let even = Mode::new(L + M, C);
    let odd = Mode::new(L - M, C + 2.0 * CC);
    let dt = 0.5e-12;
    let mut errors = Vec::new();
    for step in [dt, dt / 2.0] {
        let err = max_error(step, &even, &odd);
        let bound = truncation_bound(step, &even, &odd);
        assert!(
            err <= bound,
            "dt {step:e}: error {err:e} above the bound {bound:e}"
        );
        errors.push(err);
    }
    let peak_noise = (0..=400)
        .map(|k| {
            let t = k as f64 * T_STOP / 400.0;
            (even.response(t) - odd.response(t)).abs()
        })
        .fold(0.0f64, f64::max);
    assert!(peak_noise > 0.05, "line 2 sees crosstalk: {peak_noise}");
    let ratio = errors[0] / errors[1];
    assert!(
        (3.8..=4.2).contains(&ratio),
        "halving dt cut the error {ratio}x"
    );
}
