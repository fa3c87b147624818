//! Fixed-bucket log-scale histograms with exact-at-the-edges percentile
//! snapshots: the one histogram type behind [`crate::record_value`].
//!
//! A [`Histogram`] spreads non-negative observations over
//! [`BUCKET_COUNT`] buckets whose upper bounds grow by a factor of √2
//! starting at 10⁻³, covering 10⁻³ to ~3·10⁶ — for latencies in
//! milliseconds, ~1 µs to ~50 min — with ≤ ~41% relative quantization
//! error per bucket. Alongside the buckets the histogram tracks the
//! exact count, sum, minimum and maximum, so:
//!
//! * an empty histogram snapshots to `None` rather than fake zeros;
//! * a single-sample histogram reports that sample *exactly* for every
//!   percentile (the bucket bound is clamped into `[min, max]`);
//! * values beyond the top bucket clamp to the exact maximum, never to
//!   the (smaller) top bucket bound.

/// Number of buckets per histogram.
pub const BUCKET_COUNT: usize = 64;

/// Upper bound of the first bucket (1 µs when values are milliseconds).
const BASE: f64 = 1e-3;

/// Inclusive upper bound of bucket `index`: `10⁻³ · 2^(index/2)`.
#[must_use]
pub fn bucket_bound(index: usize) -> f64 {
    BASE * 2f64.powf(index as f64 * 0.5)
}

/// Bucket holding a (finite, non-negative) observation `v`: the smallest
/// bucket whose upper bound is ≥ `v`, saturating in the last bucket.
fn bucket_index(v: f64) -> usize {
    if v <= BASE {
        return 0;
    }
    let raw = (2.0 * (v / BASE).log2()).ceil();
    let mut idx = if raw.is_finite() && raw < (BUCKET_COUNT - 1) as f64 {
        raw as usize
    } else {
        BUCKET_COUNT - 1
    };
    // The log computation can land one bucket off at exact bounds;
    // nudge so the invariant `bound(idx-1) < v ≤ bound(idx)` holds
    // exactly (the last bucket keeps everything beyond its bound).
    while idx > 0 && bucket_bound(idx - 1) >= v {
        idx -= 1;
    }
    while idx < BUCKET_COUNT - 1 && bucket_bound(idx) < v {
        idx += 1;
    }
    idx
}

/// A log-scale histogram over non-negative values.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; BUCKET_COUNT],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; BUCKET_COUNT],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation. Non-finite or negative values are
    /// ignored — no recorded series (latencies, sizes, task counts) can
    /// take them.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() || value < 0.0 {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.counts[bucket_index(value)] += 1;
    }

    /// Nearest-rank quantile `q ∈ (0, 1]`: the upper bound of the bucket
    /// holding the rank-⌈q·count⌉ observation, clamped into the exact
    /// `[min, max]` range. `NaN` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Immutable snapshot with exact count/sum/min/max and quantized
    /// p50/p90/p99. `None` when nothing was recorded.
    #[must_use]
    pub fn snapshot(&self) -> Option<HistogramSnapshot> {
        if self.count == 0 {
            return None;
        }
        Some(HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            counts: self.counts,
        })
    }
}

/// Point-in-time view of one [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Exact sum of observations.
    pub sum: f64,
    /// Exact minimum.
    pub min: f64,
    /// Exact maximum.
    pub max: f64,
    /// Median (nearest-rank over buckets, clamped to `[min, max]`).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Raw per-bucket counts (bucket `i` holds values ≤
    /// [`bucket_bound`]`(i)`).
    pub counts: [u64; BUCKET_COUNT],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_snapshots_to_none() {
        let h = Histogram::new();
        assert_eq!(h.snapshot(), None);
        assert!(h.quantile(0.5).is_nan());
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        let mut h = Histogram::new();
        h.record(3.7); // sits strictly inside a bucket
        let s = h.snapshot().unwrap();
        assert_eq!(s.count, 1);
        // Every percentile of a one-sample distribution is that sample —
        // exactly, despite the ~41% bucket quantization.
        assert_eq!(s.p50, 3.7);
        assert_eq!(s.p90, 3.7);
        assert_eq!(s.p99, 3.7);
        assert_eq!(s.min, 3.7);
        assert_eq!(s.max, 3.7);
        assert_eq!(s.sum, 3.7);
    }

    #[test]
    fn beyond_top_bucket_clamps_to_exact_max() {
        let mut h = Histogram::new();
        let huge = 1e12; // ~31.7 years in ms, way past the ~50 min top bound
        assert!(huge > bucket_bound(BUCKET_COUNT - 1));
        h.record(huge);
        let s = h.snapshot().unwrap();
        assert_eq!(s.max, huge);
        assert_eq!(
            s.p99, huge,
            "over-the-top value must clamp to max, not the top bound"
        );
        assert_eq!(s.counts[BUCKET_COUNT - 1], 1);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 0.01); // 0.01 .. 10 ms
        }
        let s = h.snapshot().unwrap();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99);
        assert!(s.p99 <= s.max && s.min <= s.p50);
        // √2 buckets: each quantile within ~41% above the true value.
        assert!(s.p50 >= 5.0 && s.p50 <= 5.0 * 1.42, "{}", s.p50);
        assert!(s.p99 >= 9.9 && s.p99 <= 9.9 * 1.42, "{}", s.p99);
    }

    #[test]
    fn non_finite_and_negative_observations_are_ignored() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-1.0);
        assert_eq!(h.snapshot(), None);
    }

    #[test]
    fn bucket_bounds_cover_the_edges() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(1e-3), 0);
        // A value exactly on a bound lands in that bucket (inclusive
        // upper bound), never the next one up.
        for i in 0..BUCKET_COUNT {
            let b = bucket_bound(i);
            assert_eq!(bucket_index(b), i, "bound {i} maps into the wrong bucket");
        }
    }
}
