//! Rectangular spiral-inductor generator (the Figs. 6–7 workload).
//!
//! The paper's example is a three-turn spiral on a heavily doped (lossy)
//! substrate, volume-discretized and longitudinally segmented into 92
//! segments. Consecutive sides of the spiral run in alternating directions,
//! so parallel sides on opposite edges carry antiparallel currents — the
//! generator records this in [`Filament::direction`] and the extractor turns
//! it into negative mutual-inductance entries.

use crate::{um, Axis, Filament, Layout};

/// Lossy-substrate description for eddy-current loss lumping.
///
/// The paper models the heavily doped substrate as a lossy ground plane
/// with ρ = 1.0 × 10⁻⁵ Ωm and lumps its eddy-current loss into the
/// segmented conductor on top (after Massoud & White).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubstrateSpec {
    /// Substrate resistivity in Ωm.
    pub resistivity: f64,
    /// Distance from the conductor layer down to the substrate, in meters.
    pub depth: f64,
}

impl SubstrateSpec {
    /// The paper's heavily doped substrate: ρ = 1.0 × 10⁻⁵ Ωm, 5 µm below
    /// the metal.
    pub fn heavily_doped() -> Self {
        SubstrateSpec {
            resistivity: 1.0e-5,
            depth: um(5.0),
        }
    }
}

/// Builder for an inward rectangular spiral in the xy-plane.
///
/// # Example
///
/// ```
/// use vpec_geometry::SpiralSpec;
///
/// let spiral = SpiralSpec::paper_three_turn();
/// let layout = spiral.build();
/// assert_eq!(layout.filaments().len(), 92);
/// ```
#[derive(Debug, Clone)]
pub struct SpiralSpec {
    turns: usize,
    outer_side: f64,
    width: f64,
    spacing: f64,
    thickness: f64,
    target_segments: usize,
    substrate: Option<SubstrateSpec>,
}

impl SpiralSpec {
    /// A spiral with the given number of turns and reasonable on-chip
    /// defaults (240 µm outer side, 6 µm trace, 2 µm spacing, 1 µm thick).
    pub fn new(turns: usize) -> Self {
        SpiralSpec {
            turns,
            outer_side: um(240.0),
            width: um(6.0),
            spacing: um(2.0),
            thickness: um(1.0),
            target_segments: 4 * turns.max(1) * 8,
            substrate: None,
        }
    }

    /// The paper's evaluation structure: three turns, 92 segments, heavily
    /// doped substrate.
    pub fn paper_three_turn() -> Self {
        SpiralSpec::new(3)
            .target_segments(92)
            .substrate(SubstrateSpec::heavily_doped())
    }

    /// Outer side length in meters.
    #[must_use]
    pub fn outer_side(mut self, l: f64) -> Self {
        self.outer_side = l;
        self
    }

    /// Trace width in meters.
    #[must_use]
    pub fn width(mut self, w: f64) -> Self {
        self.width = w;
        self
    }

    /// Turn-to-turn spacing in meters.
    #[must_use]
    pub fn spacing(mut self, s: f64) -> Self {
        self.spacing = s;
        self
    }

    /// Metal thickness in meters.
    #[must_use]
    pub fn thickness(mut self, t: f64) -> Self {
        self.thickness = t;
        self
    }

    /// Total number of segments to discretize into (per λ/10 rule in the
    /// paper; exact apportionment over the sides).
    #[must_use]
    pub fn target_segments(mut self, n: usize) -> Self {
        self.target_segments = n;
        self
    }

    /// Places the spiral over a lossy substrate.
    #[must_use]
    pub fn substrate(mut self, s: SubstrateSpec) -> Self {
        self.substrate = Some(s);
        self
    }

    /// The substrate, if any.
    pub fn substrate_spec(&self) -> Option<SubstrateSpec> {
        self.substrate
    }

    /// Turn-to-turn pitch.
    pub fn pitch(&self) -> f64 {
        self.width + self.spacing
    }

    /// Side lengths of the inward spiral path: `L, L, L−p, L−p, L−2p, …`
    /// (4·turns sides).
    fn side_lengths(&self) -> Vec<f64> {
        let p = self.pitch();
        let n_sides = 4 * self.turns;
        (0..n_sides)
            .map(|k| self.outer_side - (k / 2) as f64 * p)
            .collect()
    }

    /// Generates the layout as a single net tracing the spiral inward.
    ///
    /// # Panics
    ///
    /// Panics if `turns == 0`, any dimension is non-finite or
    /// non-positive, or the geometry self-intersects (innermost side
    /// would be non-positive).
    pub fn build(&self) -> Layout {
        assert!(self.turns > 0, "spiral must have at least one turn");
        // The builder accepts raw f64 dimensions; a NaN here would make
        // every apportionment quota NaN and the segment split arbitrary,
        // so reject it before any arithmetic.
        assert!(
            self.outer_side.is_finite()
                && self.outer_side > 0.0
                && self.width.is_finite()
                && self.width > 0.0
                && self.spacing.is_finite()
                && self.spacing >= 0.0
                && self.thickness.is_finite()
                && self.thickness > 0.0,
            "spiral dimensions must be finite and positive: {self:?}"
        );
        let sides = self.side_lengths();
        // Sides shrink inward, so the shortest one is the innermost.
        let innermost = sides.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            innermost > 0.0,
            "spiral self-intersects: outer side too short for {} turns at pitch {}",
            self.turns,
            self.pitch()
        );

        // Largest-remainder apportionment of `target_segments` over sides,
        // at least one segment per side.
        let total: f64 = sides.iter().sum();
        let target = self.target_segments.max(sides.len());
        let mut counts: Vec<usize> = Vec::with_capacity(sides.len());
        let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(sides.len());
        for (i, &s) in sides.iter().enumerate() {
            let quota = target as f64 * s / total;
            let base = (quota.floor() as usize).max(1);
            counts.push(base);
            fracs.push((quota - quota.floor(), i));
        }
        let mut assigned: usize = counts.iter().sum();
        // Total order, largest remainder first; ties broken by side index
        // so the apportionment is deterministic across platforms.
        fracs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut k = 0;
        while assigned < target && k < fracs.len() {
            counts[fracs[k].1] += 1;
            assigned += 1;
            k += 1;
            if k == fracs.len() {
                k = 0; // keep cycling if still short
            }
        }

        // Walk the path: +x, +y, −x, −y, repeating.
        const DIRS: [(Axis, f64); 4] = [
            (Axis::X, 1.0),
            (Axis::Y, 1.0),
            (Axis::X, -1.0),
            (Axis::Y, -1.0),
        ];
        let mut cursor = [0.0f64, 0.0, 0.0];
        let mut chain: Vec<Filament> = Vec::with_capacity(assigned);
        for (side_idx, (&len, &count)) in sides.iter().zip(counts.iter()).enumerate() {
            let (axis, sign) = DIRS[side_idx % 4];
            let piece = len / count as f64;
            for _ in 0..count {
                let mut origin = cursor;
                if sign < 0.0 {
                    origin[axis.index()] -= piece;
                }
                chain.push(
                    Filament::new(origin, axis, piece, self.width, self.thickness)
                        .with_direction(sign),
                );
                cursor[axis.index()] += sign * piece;
            }
        }
        let mut layout = Layout::new();
        layout.push_net("spiral", chain);
        layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spiral_has_92_segments() {
        let l = SpiralSpec::paper_three_turn().build();
        assert_eq!(l.filaments().len(), 92);
        assert_eq!(l.nets().len(), 1);
    }

    #[test]
    fn path_is_continuous() {
        let l = SpiralSpec::new(2).target_segments(24).build();
        let fils = l.filaments();
        for w in l.nets()[0].filaments().windows(2) {
            let a = &fils[w[0]];
            let b = &fils[w[1]];
            // End point of a must equal start point of b.
            let mut a_end = a.origin;
            if a.direction > 0.0 {
                a_end[a.axis.index()] += a.length;
            }
            let mut b_start = b.origin;
            if b.direction < 0.0 {
                b_start[b.axis.index()] += b.length;
            }
            for k in 0..3 {
                assert!(
                    (a_end[k] - b_start[k]).abs() < 1e-12,
                    "discontinuity between segments {} and {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn opposite_sides_are_antiparallel() {
        let l = SpiralSpec::new(1).target_segments(4).build();
        let f = l.filaments();
        assert_eq!(f.len(), 4);
        assert_eq!(f[0].axis, Axis::X);
        assert_eq!(f[0].direction, 1.0);
        assert_eq!(f[2].axis, Axis::X);
        assert_eq!(f[2].direction, -1.0);
        assert_eq!(f[1].axis, Axis::Y);
        assert_eq!(f[3].axis, Axis::Y);
        assert_eq!(f[1].direction * f[3].direction, -1.0);
    }

    #[test]
    fn sides_shrink_by_pitch() {
        let spec = SpiralSpec::new(3);
        let sides = spec.side_lengths();
        assert_eq!(sides.len(), 12);
        assert_eq!(sides[0], sides[1]);
        assert!((sides[0] - sides[2] - spec.pitch()).abs() < 1e-15);
        assert!((sides[2] - sides[4] - spec.pitch()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "self-intersects")]
    fn self_intersection_detected() {
        SpiralSpec::new(20).outer_side(um(50.0)).build();
    }

    #[test]
    #[should_panic(expected = "at least one turn")]
    fn zero_turns_rejected() {
        SpiralSpec::new(0).build();
    }

    #[test]
    fn substrate_defaults() {
        let s = SubstrateSpec::heavily_doped();
        assert_eq!(s.resistivity, 1e-5);
        assert!(SpiralSpec::paper_three_turn().substrate_spec().is_some());
        assert!(SpiralSpec::new(2).substrate_spec().is_none());
    }

    #[test]
    fn segment_lengths_are_uniform_within_each_side() {
        let l = SpiralSpec::new(1).target_segments(8).build();
        // One-turn spiral: sides have equal length pairs; each filament
        // within a side must have identical length.
        let mut lens: Vec<f64> = l.filaments().iter().map(|f| f.length).collect();
        lens.sort_by(f64::total_cmp);
        assert!(lens[0] > 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nan_outer_side_rejected() {
        // A NaN outer side used to produce NaN quotas, so the remainder
        // sort (formerly `partial_cmp.unwrap_or(Equal)`) degenerated to
        // input order and the segment split became arbitrary. It is now
        // rejected before any apportionment arithmetic runs.
        SpiralSpec::new(2).outer_side(f64::NAN).build();
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn non_positive_width_rejected() {
        SpiralSpec::new(2).width(0.0).build();
    }

    #[test]
    fn apportionment_is_deterministic_under_ties() {
        // Equal-length sides give pairwise-equal remainders; the tie
        // break on side index must distribute the extra segments to the
        // earliest sides every time.
        let a = SpiralSpec::new(2).target_segments(26).build();
        let b = SpiralSpec::new(2).target_segments(26).build();
        let la: Vec<f64> = a.filaments().iter().map(|f| f.length).collect();
        let lb: Vec<f64> = b.filaments().iter().map(|f| f.length).collect();
        assert_eq!(la, lb);
        assert_eq!(a.filaments().len(), 26);
    }
}
