//! Crosstalk noise analysis — the application the paper's introduction
//! motivates ("inductive effects … become increasingly significant in
//! terms of … aggravation of signal crosstalk").
//!
//! [`noise_scan`] drives the configured aggressors, simulates the chosen
//! interconnect model, and reports the peak far-end noise on every quiet
//! net; [`worst_aggressor_alignment`] sweeps single-aggressor positions to
//! find which neighbour hurts a given victim most. Both work with any
//! [`ModelKind`], so a sparsified VPEC model can screen thousands of nets
//! and the PEEC model can verify the flagged ones — exactly the
//! fast-model/accurate-model workflow sparsification enables.

use crate::harness::{Experiment, ModelKind};
use crate::CoreError;
use vpec_circuit::TransientSpec;

/// Peak noise seen at one quiet net's far end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VictimNoise {
    /// Net index within the layout.
    pub net: usize,
    /// Peak |V| over the transient window, volts.
    pub peak: f64,
    /// Time of the peak, seconds.
    pub peak_time: f64,
    /// |V| at the end of the window (should be ≈ 0 for a settled victim).
    pub residual: f64,
}

/// Result of a noise scan.
#[derive(Debug, Clone)]
pub struct NoiseReport {
    /// Aggressor nets that were driven.
    pub aggressors: Vec<usize>,
    /// One entry per quiet net, ordered by net index.
    pub victims: Vec<VictimNoise>,
    /// Wall-clock seconds for model build + simulation.
    pub seconds: f64,
}

impl NoiseReport {
    /// The victim with the highest peak noise, if any victim exists.
    ///
    /// [`noise_scan`] guarantees every recorded peak is finite; should a
    /// hand-built report carry a NaN peak anyway, the total order ranks
    /// it *highest*, so a poisoned entry surfaces as the worst victim
    /// instead of silently losing every comparison.
    pub fn worst(&self) -> Option<&VictimNoise> {
        self.victims.iter().max_by(|a, b| a.peak.total_cmp(&b.peak))
    }

    /// Victims whose peak exceeds `threshold` volts (noise-margin check),
    /// ordered worst-first.
    pub fn above(&self, threshold: f64) -> Vec<&VictimNoise> {
        let mut v: Vec<&VictimNoise> = self.victims.iter().filter(|n| n.peak > threshold).collect();
        v.sort_by(|a, b| b.peak.total_cmp(&a.peak));
        v
    }
}

/// Peak |V| of one victim waveform with its sample index, rejecting
/// non-finite samples. The previous `max_by(partial_cmp.unwrap_or(Equal))`
/// ranking could return a non-peak sample when the waveform carried a NaN
/// (every comparison against it collapsed to `Equal`), and `peak_abs`'s
/// `f64::max` fold silently dropped NaN entirely — a diverged solve would
/// read as a quiet net.
fn victim_peak(net: usize, w: &[f64]) -> Result<(f64, usize), CoreError> {
    if !w.iter().all(|v| v.is_finite()) {
        return Err(CoreError::NonFinitePeak { net });
    }
    let idx = w
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
        .map_or(0, |(i, _)| i);
    Ok((w.get(idx).copied().unwrap_or(0.0).abs(), idx))
}

/// Runs a noise scan: build the model `kind` for the experiment, simulate
/// the drive's aggressors, and collect far-end peaks on every quiet net.
///
/// # Errors
///
/// Propagates model-construction and simulation failures.
pub fn noise_scan(
    exp: &Experiment,
    kind: ModelKind,
    spec: &TransientSpec,
) -> Result<NoiseReport, CoreError> {
    let t0 = std::time::Instant::now();
    let built = exp.build(kind)?;
    let (res, _) = built.run_transient(spec)?;
    let mut victims = Vec::new();
    for net in 0..exp.layout.nets().len() {
        if exp.drive.is_aggressor(net) || exp.layout.nets()[net].is_ground() {
            continue;
        }
        let w = built.far_voltage(&res, net)?;
        let (peak, peak_idx) = victim_peak(net, &w)?;
        victims.push(VictimNoise {
            net,
            peak,
            peak_time: res.time()[peak_idx],
            residual: w.last().copied().unwrap_or(0.0).abs(),
        });
    }
    Ok(NoiseReport {
        aggressors: exp.drive.aggressors.clone(),
        victims,
        seconds: t0.elapsed().as_secs_f64(),
    })
}

/// Sweeps single aggressors over `candidates` and returns, for the given
/// `victim`, the aggressor producing the highest far-end peak, with the
/// peak value.
///
/// # Errors
///
/// Propagates model-construction and simulation failures;
/// [`CoreError::InvalidParameter`] if `candidates` is empty or contains
/// the victim.
pub fn worst_aggressor_alignment(
    exp: &Experiment,
    kind: ModelKind,
    spec: &TransientSpec,
    victim: usize,
    candidates: &[usize],
) -> Result<(usize, f64), CoreError> {
    if candidates.is_empty() || candidates.contains(&victim) {
        return Err(CoreError::InvalidParameter {
            reason: "candidate aggressors must be non-empty and exclude the victim",
        });
    }
    let mut worst = (candidates[0], f64::MIN);
    for &agg in candidates {
        let mut sub = exp.clone();
        sub.drive = sub.drive.aggressors(vec![agg]);
        let built = sub.build(kind)?;
        let (res, _) = built.run_transient(spec)?;
        let (peak, _) = victim_peak(victim, &built.far_voltage(&res, victim)?)?;
        if peak > worst.1 {
            worst = (agg, peak);
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DriveConfig;
    use vpec_extract::ExtractionConfig;
    use vpec_geometry::BusSpec;

    fn experiment(bits: usize, aggressors: Vec<usize>) -> Experiment {
        Experiment::new(
            BusSpec::new(bits).build(),
            &ExtractionConfig::paper_default(),
            DriveConfig::paper_default().aggressors(aggressors),
        )
    }

    #[test]
    fn scan_finds_nearest_victim_worst() {
        let exp = experiment(8, vec![0]);
        let spec = TransientSpec::new(0.4e-9, 1e-12);
        let report = noise_scan(&exp, ModelKind::VpecFull, &spec).unwrap();
        assert_eq!(report.victims.len(), 7);
        assert_eq!(report.aggressors, vec![0]);
        let worst = report.worst().expect("victims exist");
        // The worst victim is one of the two nearest; the adjacent line's
        // capacitive coupling partially cancels its inductive noise, so
        // net 2 can (physically) edge out net 1.
        assert!(
            worst.net == 1 || worst.net == 2,
            "a near victim sees the most noise, got net {}",
            worst.net
        );
        assert!(worst.peak > 1e-3);
        // Noise decays along the bus.
        assert!(report.victims[0].peak > report.victims.last().unwrap().peak);
        // All victims settle back to quiet.
        for v in &report.victims {
            assert!(
                v.residual < 5e-3,
                "victim {} residual {}",
                v.net,
                v.residual
            );
        }
    }

    #[test]
    fn margin_filter_sorts_worst_first() {
        let exp = experiment(6, vec![0]);
        let spec = TransientSpec::new(0.4e-9, 1e-12);
        let report = noise_scan(&exp, ModelKind::WVpecGeometric { b: 4 }, &spec).unwrap();
        let all = report.above(0.0);
        assert_eq!(all.len(), 5);
        for w in all.windows(2) {
            assert!(w[0].peak >= w[1].peak);
        }
        let none = report.above(10.0);
        assert!(none.is_empty());
    }

    #[test]
    fn two_aggressors_hurt_more_than_one() {
        let spec = TransientSpec::new(0.4e-9, 1e-12);
        let one = noise_scan(&experiment(8, vec![0]), ModelKind::VpecFull, &spec).unwrap();
        let two = noise_scan(&experiment(8, vec![0, 2]), ModelKind::VpecFull, &spec).unwrap();
        let victim1_one = one.victims.iter().find(|v| v.net == 1).unwrap().peak;
        let victim1_two = two.victims.iter().find(|v| v.net == 1).unwrap().peak;
        assert!(
            victim1_two > victim1_one,
            "simultaneous switching must add noise: {victim1_one} -> {victim1_two}"
        );
    }

    #[test]
    fn closer_aggressor_is_worst() {
        // Victim 7; candidates at distance 2 (net 5) and distance 7
        // (net 0) — both beyond the adjacent-line capacitive-cancellation
        // zone, so plain coupling-strength ordering applies.
        let exp = experiment(8, vec![0]);
        let spec = TransientSpec::new(0.4e-9, 1e-12);
        let (agg, peak) =
            worst_aggressor_alignment(&exp, ModelKind::VpecFull, &spec, 7, &[0, 5]).unwrap();
        assert_eq!(agg, 5, "the closer candidate dominates");
        assert!(peak > 0.0);
    }

    #[test]
    fn nan_waveform_is_a_typed_error() {
        // Pre-fix, the Equal-on-NaN comparator could hand back a non-peak
        // sample and `peak_abs` read an all-NaN waveform as 0 V (quiet).
        assert_eq!(
            victim_peak(3, &[0.0, f64::NAN, 0.2]).unwrap_err(),
            CoreError::NonFinitePeak { net: 3 }
        );
        assert!(victim_peak(0, &[0.1, f64::INFINITY]).is_err());
        assert_eq!(
            victim_peak(5, &[f64::NAN; 4]).unwrap_err(),
            CoreError::NonFinitePeak { net: 5 }
        );
        // The finite path is unchanged: peak magnitude and its index.
        assert_eq!(victim_peak(0, &[0.1, -0.7, 0.3]).unwrap(), (0.7, 1));
        assert_eq!(victim_peak(0, &[]).unwrap(), (0.0, 0));
    }

    #[test]
    fn nan_peak_in_a_hand_built_report_surfaces_loudly() {
        let v = |net: usize, peak: f64| VictimNoise {
            net,
            peak,
            peak_time: 0.0,
            residual: 0.0,
        };
        let report = NoiseReport {
            aggressors: vec![0],
            victims: vec![v(1, 0.5), v(2, f64::NAN), v(3, 0.9)],
            seconds: 0.0,
        };
        // Under the total order NaN ranks *highest*: a poisoned entry
        // becomes the worst victim instead of losing every comparison.
        assert_eq!(report.worst().unwrap().net, 2);
        // `peak > threshold` is false for NaN, so the margin filter drops
        // it and the rest sort deterministically worst-first.
        let order: Vec<usize> = report.above(0.0).iter().map(|n| n.net).collect();
        assert_eq!(order, vec![3, 1]);
    }

    #[test]
    fn validation() {
        let exp = experiment(4, vec![0]);
        let spec = TransientSpec::new(0.2e-9, 1e-12);
        assert!(worst_aggressor_alignment(&exp, ModelKind::VpecFull, &spec, 1, &[]).is_err());
        assert!(worst_aggressor_alignment(&exp, ModelKind::VpecFull, &spec, 1, &[1, 2]).is_err());
    }
}
