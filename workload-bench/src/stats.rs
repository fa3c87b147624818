//! Order statistics for timing samples.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let median = median(samples)?;
        let (q1, q3) = quartiles(samples).unwrap_or((median, median));
        Some(Summary {
            median,
            q1,
            q3,
            n: samples.len(),
        })
    }

    /// Distance between the quartiles as a share of the median (0 for a
    /// zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// First and third quartiles, interpolated exactly as Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive" method),
/// so a spread computed here matches one computed from the same values in
/// Python. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`), reported only when at
/// least `min_beyond` samples lie above it: a tail percentile resting on a
/// handful of samples is noise, not a measurement.
pub fn percentile(samples: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < min_beyond {
        return None;
    }
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: with two
        // samples Python extrapolates past the ends.
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[9.0, 10.0, 10.0, 11.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 10.0);
        assert!((s.spread() - (s.q3 - s.q1) / 10.0).abs() < 1e-15);
        let one = Summary::of(&[2.0]).unwrap();
        assert_eq!((one.q1, one.q3, one.spread()), (2.0, 2.0, 0.0));
    }

    #[test]
    fn nearest_rank_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank ceil(0.99 * 1000) = 990 leaves exactly 10 samples above.
        assert_eq!(percentile(&v, 99.0, 10), Some(990.0));
        assert_eq!(percentile(&v, 50.0, 10), Some(500.0));
        // 999 samples leave only 9 above p99's rank 990.
        assert_eq!(percentile(&v[..999], 99.0, 10), None);
        assert_eq!(percentile(&v[..999], 99.0, 9), Some(990.0));
        assert_eq!(percentile(&[], 50.0, 0), None);
    }
}
