//! Parallel-bus generators (the paper's main evaluation workload).
//!
//! The default dimensions are those of §II-C: 1000 µm × 1 µm × 1 µm copper
//! lines with 2 µm spacing. The builder supports the aligned bus used in
//! Figs. 2, 4, 5, 8 and Tables II/IV, and the *non-aligned* variant used in
//! the numerical-truncation study (Fig. 3 / Table III), where each line is
//! shifted longitudinally by a deterministic pseudo-random offset.

use crate::{um, Axis, Filament, Layout, NetKind};

/// Builder for an N-bit parallel bus along the x axis, spaced along y.
///
/// # Example
///
/// ```
/// use vpec_geometry::{BusSpec, um};
///
/// let layout = BusSpec::new(32).segments(8).build();
/// assert_eq!(layout.filaments().len(), 32 * 8);
/// ```
#[derive(Debug, Clone)]
pub struct BusSpec {
    bits: usize,
    line_length: f64,
    width: f64,
    thickness: f64,
    spacing: f64,
    segments: usize,
    misalignment: f64,
    seed: u64,
    shield_every: Option<usize>,
}

impl BusSpec {
    /// A bus with `bits` lines and the paper's default geometry
    /// (1000 µm long, 1 µm × 1 µm cross section, 2 µm spacing, one segment
    /// per line, aligned).
    pub fn new(bits: usize) -> Self {
        BusSpec {
            bits,
            line_length: um(1000.0),
            width: um(1.0),
            thickness: um(1.0),
            spacing: um(2.0),
            segments: 1,
            misalignment: 0.0,
            seed: 0x5eed,
            shield_every: None,
        }
    }

    /// Line length in meters.
    #[must_use]
    pub fn line_length(mut self, l: f64) -> Self {
        self.line_length = l;
        self
    }

    /// Wire width in meters.
    #[must_use]
    pub fn width(mut self, w: f64) -> Self {
        self.width = w;
        self
    }

    /// Wire thickness in meters.
    #[must_use]
    pub fn thickness(mut self, t: f64) -> Self {
        self.thickness = t;
        self
    }

    /// Edge-to-edge spacing between adjacent lines in meters.
    #[must_use]
    pub fn spacing(mut self, s: f64) -> Self {
        self.spacing = s;
        self
    }

    /// Number of series segments (filaments) per line.
    #[must_use]
    pub fn segments(mut self, n: usize) -> Self {
        self.segments = n.max(1);
        self
    }

    /// Maximum longitudinal misalignment as a fraction of the line length.
    /// Zero (default) gives the aligned bus; a positive value gives the
    /// non-aligned bus of Fig. 3 with deterministic pseudo-random offsets.
    #[must_use]
    pub fn misalignment(mut self, frac: f64) -> Self {
        self.misalignment = frac.max(0.0);
        self
    }

    /// Seed for the misalignment offsets (deterministic across runs).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Inserts a grounded shield (power/ground return) wire after every
    /// `k` signal lines, plus one before the first signal. Shield wires
    /// use the signal geometry and are tagged [`NetKind::Ground`] — the
    /// substrate for the return-limited inductance baseline and for
    /// studying P/G-grid density.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn shield_every(mut self, k: usize) -> Self {
        assert!(k > 0, "shield spacing must be at least 1");
        self.shield_every = Some(k);
        self
    }

    /// Number of bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Pitch (center-to-center distance) between adjacent lines.
    pub fn pitch(&self) -> f64 {
        self.width + self.spacing
    }

    /// Generates the layout: one net per bit (plus interleaved shield nets
    /// when [`BusSpec::shield_every`] is set), `segments` filaments per
    /// net, in increasing-x order per net, rows ordered by increasing y.
    ///
    /// Signal nets are named `bit{i}`; shield nets `gnd{j}`, aligned
    /// (shields carry no misalignment) and tagged [`NetKind::Ground`].
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0`.
    pub fn build(&self) -> Layout {
        assert!(self.bits > 0, "bus must have at least one bit");
        // Row plan: (is_shield, label index).
        let mut rows: Vec<Option<usize>> = Vec::new(); // Some(bit) or None=shield
        if self.shield_every.is_some() {
            rows.push(None);
        }
        for bit in 0..self.bits {
            rows.push(Some(bit));
            if let Some(k) = self.shield_every {
                if (bit + 1) % k == 0 {
                    rows.push(None);
                }
            }
        }
        if self.shield_every.is_some() && rows.last() != Some(&None) {
            rows.push(None);
        }

        let mut layout = Layout::new();
        let seg_len = self.line_length / self.segments as f64;
        let mut state = self.seed.wrapping_add(0x9e3779b97f4a7c15);
        let mut shield_count = 0usize;
        for (row, entry) in rows.iter().enumerate() {
            let offset = match entry {
                Some(_) => {
                    // SplitMix64 step for a deterministic per-line offset.
                    state = state.wrapping_add(0x9e3779b97f4a7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                    z ^= z >> 31;
                    let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
                    self.misalignment * self.line_length * (unit - 0.5)
                }
                None => 0.0,
            };
            let y = row as f64 * self.pitch();
            let chain: Vec<Filament> = (0..self.segments)
                .map(|s| {
                    Filament::new(
                        [offset + s as f64 * seg_len, y, 0.0],
                        Axis::X,
                        seg_len,
                        self.width,
                        self.thickness,
                    )
                })
                .collect();
            match entry {
                Some(bit) => {
                    layout.push_net(format!("bit{bit}"), chain);
                }
                None => {
                    layout.push_net_with_kind(format!("gnd{shield_count}"), chain, NetKind::Ground);
                    shield_count += 1;
                }
            }
        }
        layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_geometry() {
        let spec = BusSpec::new(5);
        let l = spec.build();
        assert_eq!(l.nets().len(), 5);
        let f = &l.filaments()[0];
        assert!((f.length - um(1000.0)).abs() < 1e-15);
        assert!((f.width - um(1.0)).abs() < 1e-15);
        assert!((f.thickness - um(1.0)).abs() < 1e-15);
        // Pitch = width + spacing = 3 µm.
        let f1 = &l.filaments()[1];
        assert!((f1.origin[1] - um(3.0)).abs() < 1e-15);
    }

    #[test]
    fn segmentation_chains_along_x() {
        let l = BusSpec::new(2).segments(4).build();
        assert_eq!(l.filaments().len(), 8);
        let net0 = l.nets()[0].filaments();
        for w in net0.windows(2) {
            let a = &l.filaments()[w[0]];
            let b = &l.filaments()[w[1]];
            let (_, a_end) = a.span();
            let (b_start, _) = b.span();
            assert!((a_end - b_start).abs() < 1e-12, "segments must abut");
        }
        // Total per-line length preserved.
        let total: f64 = net0.iter().map(|&i| l.filaments()[i].length).sum();
        assert!((total - um(1000.0)).abs() < 1e-9);
    }

    #[test]
    fn aligned_bus_has_zero_offsets() {
        let l = BusSpec::new(4).build();
        for net in l.nets() {
            let f = &l.filaments()[net.filaments()[0]];
            assert_eq!(f.origin[0], 0.0);
        }
    }

    #[test]
    fn misaligned_bus_is_deterministic_and_offset() {
        let a = BusSpec::new(8).misalignment(0.1).build();
        let b = BusSpec::new(8).misalignment(0.1).build();
        assert_eq!(a, b, "same seed must give the same layout");
        let distinct: std::collections::BTreeSet<i64> = a
            .nets()
            .iter()
            .map(|n| (a.filaments()[n.filaments()[0]].origin[0] * 1e12) as i64)
            .collect();
        assert!(distinct.len() > 1, "lines should have distinct offsets");
        // Offsets bounded by ±5% of the length for misalignment(0.1).
        for n in a.nets() {
            let off = a.filaments()[n.filaments()[0]].origin[0];
            assert!(off.abs() <= 0.05 * um(1000.0) + 1e-12);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = BusSpec::new(4).misalignment(0.2).seed(1).build();
        let b = BusSpec::new(4).misalignment(0.2).seed(2).build();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_rejected() {
        BusSpec::new(0).build();
    }

    #[test]
    fn segments_clamped_to_one() {
        let l = BusSpec::new(1).segments(0).build();
        assert_eq!(l.filaments().len(), 1);
    }

    #[test]
    fn shields_interleave_and_are_grounded() {
        // 4 signals, shield every 2: G S S G S S G → 7 nets.
        let l = BusSpec::new(4).shield_every(2).build();
        assert_eq!(l.nets().len(), 7);
        let kinds: Vec<bool> = l.nets().iter().map(|n| n.is_ground()).collect();
        assert_eq!(kinds, vec![true, false, false, true, false, false, true]);
        assert_eq!(l.signal_nets(), vec![1, 2, 4, 5]);
        assert!(l.nets()[0].name().starts_with("gnd"));
        assert!(l.nets()[1].name().starts_with("bit"));
        // Rows stay on the uniform pitch grid.
        let pitch = BusSpec::new(4).pitch();
        for (row, net) in l.nets().iter().enumerate() {
            let y = l.filaments()[net.filaments()[0]].origin[1];
            assert!((y - row as f64 * pitch).abs() < 1e-15);
        }
    }

    #[test]
    fn trailing_shield_added_for_partial_group() {
        // 3 signals, shield every 2: G S S G S G → 6 nets.
        let l = BusSpec::new(3).shield_every(2).build();
        assert_eq!(l.nets().len(), 6);
        assert!(l.nets().last().unwrap().is_ground());
    }

    #[test]
    fn unshielded_bus_is_all_signal() {
        let l = BusSpec::new(5).build();
        assert_eq!(l.signal_nets().len(), 5);
        assert!(l.nets().iter().all(|n| !n.is_ground()));
    }

    #[test]
    #[should_panic(expected = "shield spacing")]
    fn zero_shield_spacing_rejected() {
        let _ = BusSpec::new(4).shield_every(0);
    }
}
