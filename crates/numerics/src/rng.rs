//! A tiny deterministic PRNG (xorshift64*) for randomized tests and
//! fault-injection experiments.
//!
//! The workspace builds offline with no third-party crates, so the
//! property-style tests that previously used `proptest`/`rand` draw
//! their inputs from this generator instead. It is **not**
//! cryptographically secure and is not meant for statistics — it exists
//! to produce reproducible, well-spread test inputs from a fixed seed.

/// Deterministic xorshift64* pseudo-random generator.
///
/// ```
/// use vpec_numerics::rng::XorShift64;
/// let mut a = XorShift64::new(42);
/// let mut b = XorShift64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed. A zero seed (the one fixed point
    /// of the xorshift map) is replaced by an arbitrary odd constant.
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[lo, hi)`. `hi` must exceed `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(hi > lo, "empty range");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Fair coin flip with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut g = XorShift64::new(0);
        assert_ne!(g.next_u64(), 0);
    }

    #[test]
    fn f64_range_respected() {
        let mut g = XorShift64::new(3);
        for _ in 0..1000 {
            let v = g.range_f64(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn usize_range_covers_all_values() {
        let mut g = XorShift64::new(11);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[g.range_usize(0, 5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn roughly_uniform() {
        let mut g = XorShift64::new(99);
        let mean: f64 = (0..10_000).map(|_| g.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        XorShift64::new(1).range_usize(3, 3);
    }
}
