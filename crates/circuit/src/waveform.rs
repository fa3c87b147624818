//! Source waveforms for transient analysis, plus AC magnitude/phase.

/// A time-domain source waveform.
///
/// The paper's stimuli are covered by [`Waveform::step`] (the 1 V step with
/// 10 ps rise time used for every crosstalk experiment) and
/// [`Waveform::pulse`]; [`Waveform::pwl`] is the general escape hatch.
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// Constant value.
    Dc(f64),
    /// Linear ramp from `v0` to `v1` starting at `delay`, over `rise`
    /// seconds, holding `v1` afterwards.
    Step {
        /// Initial value.
        v0: f64,
        /// Final value.
        v1: f64,
        /// Start of the ramp, seconds.
        delay: f64,
        /// Ramp duration, seconds (0 gives an ideal step).
        rise: f64,
    },
    /// SPICE-style pulse.
    Pulse {
        /// Base value.
        v0: f64,
        /// Pulsed value.
        v1: f64,
        /// Delay before the first edge, seconds.
        delay: f64,
        /// Rise time, seconds.
        rise: f64,
        /// Fall time, seconds.
        fall: f64,
        /// Pulse width at `v1`, seconds.
        width: f64,
        /// Period for repetition, seconds (`f64::INFINITY` for one-shot).
        period: f64,
    },
    /// Piece-wise linear `(time, value)` points, sorted by time; the value
    /// is held constant outside the covered range.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Constant source.
    pub fn dc(v: f64) -> Self {
        Waveform::Dc(v)
    }

    /// The paper's canonical stimulus: 0 → `v` starting at t = 0 with the
    /// given rise time.
    pub fn step(v: f64, rise: f64) -> Self {
        Waveform::Step {
            v0: 0.0,
            v1: v,
            delay: 0.0,
            rise,
        }
    }

    /// One-shot pulse 0 → `v` → 0.
    pub fn pulse(v: f64, rise: f64, width: f64, fall: f64) -> Self {
        Waveform::Pulse {
            v0: 0.0,
            v1: v,
            delay: 0.0,
            rise,
            fall,
            width,
            period: f64::INFINITY,
        }
    }

    /// Piece-wise linear waveform from `(time, value)` points.
    ///
    /// # Panics
    ///
    /// Panics if points are not sorted by strictly increasing time.
    pub fn pwl(points: Vec<(f64, f64)>) -> Self {
        assert!(
            points.windows(2).all(|w| w[0].0 < w[1].0),
            "PWL points must have strictly increasing times"
        );
        Waveform::Pwl(points)
    }

    /// Value at time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Step {
                v0,
                v1,
                delay,
                rise,
            } => {
                if t <= *delay {
                    *v0
                } else if *rise <= 0.0 || t >= delay + rise {
                    *v1
                } else {
                    v0 + (v1 - v0) * (t - delay) / rise
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
                if t < *delay {
                    return *v0;
                }
                let mut tau = t - delay;
                if period.is_finite() && *period > 0.0 {
                    tau %= period;
                }
                if tau < *rise {
                    if *rise <= 0.0 {
                        *v1
                    } else {
                        v0 + (v1 - v0) * tau / rise
                    }
                } else if tau < rise + width {
                    *v1
                } else if tau < rise + width + fall {
                    if *fall <= 0.0 {
                        *v0
                    } else {
                        v1 + (v0 - v1) * (tau - rise - width) / fall
                    }
                } else {
                    *v0
                }
            }
            Waveform::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                for w in points.windows(2) {
                    let (t0, v0) = w[0];
                    let (t1, v1) = w[1];
                    if t >= t0 && t <= t1 {
                        return v0 + (v1 - v0) * (t - t0) / (t1 - t0);
                    }
                }
                points[points.len() - 1].1
            }
        }
    }

    /// Value at `t = 0⁻` — the DC operating-point value.
    pub fn dc_value(&self) -> f64 {
        self.value(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::dc(2.5);
        assert_eq!(w.value(0.0), 2.5);
        assert_eq!(w.value(1e9), 2.5);
        assert_eq!(w.dc_value(), 2.5);
    }

    #[test]
    fn step_ramps_linearly() {
        // The paper's stimulus: 1 V with 10 ps rise time.
        let w = Waveform::step(1.0, 10e-12);
        assert_eq!(w.value(0.0), 0.0);
        assert!((w.value(5e-12) - 0.5).abs() < 1e-12);
        assert_eq!(w.value(10e-12), 1.0);
        assert_eq!(w.value(1e-9), 1.0);
    }

    #[test]
    fn step_with_zero_rise_is_ideal() {
        let w = Waveform::Step {
            v0: 0.0,
            v1: 1.0,
            delay: 1e-9,
            rise: 0.0,
        };
        assert_eq!(w.value(0.999e-9), 0.0);
        assert_eq!(w.value(1.001e-9), 1.0);
    }

    #[test]
    fn pulse_shape() {
        let w = Waveform::pulse(1.0, 10e-12, 100e-12, 10e-12);
        assert_eq!(w.value(0.0), 0.0);
        assert_eq!(w.value(50e-12), 1.0); // on the flat top
        assert!((w.value(115e-12) - 0.5).abs() < 1e-9); // mid-fall
        assert_eq!(w.value(200e-12), 0.0); // after
    }

    #[test]
    fn periodic_pulse_repeats() {
        let w = Waveform::Pulse {
            v0: 0.0,
            v1: 1.0,
            delay: 0.0,
            rise: 0.0,
            fall: 0.0,
            width: 1.0,
            period: 2.0,
        };
        assert_eq!(w.value(0.5), 1.0);
        assert_eq!(w.value(1.5), 0.0);
        assert_eq!(w.value(2.5), 1.0);
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::pwl(vec![(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)]);
        assert_eq!(w.value(-1.0), 0.0);
        assert!((w.value(0.5) - 1.0).abs() < 1e-12);
        assert_eq!(w.value(2.0), 2.0);
        assert_eq!(w.value(9.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn pwl_rejects_unsorted() {
        Waveform::pwl(vec![(1.0, 0.0), (0.5, 1.0)]);
    }

    #[test]
    fn empty_pwl_is_zero() {
        assert_eq!(Waveform::Pwl(vec![]).value(1.0), 0.0);
    }
}
