//! Window-local access to the partial inductances: a spatial index over
//! parallel filaments and a certified bound on the mutual inductance
//! beyond a radial distance.
//!
//! The windowed VPEC builders need, per aggressor, only the few partners
//! with the largest `|Lₘⱼ|`. [`FilamentIndex`] hands them out nearest
//! first, and [`FilamentIndex::mutual_bound`] says when the rest can no
//! longer matter, so a window is chosen from a handful of
//! [`mutual_inductance`](crate::inductance::mutual_inductance) calls
//! instead of a full row of the dense `L`.
//!
//! # The bound
//!
//! For a parallel class (filaments along one axis), let `ℓ` be the
//! longest member length and `s` the smallest RMS cross-section spread of
//! any pair, `2·min (w² + t²)/12`. Then for every pair of members at
//! radial centerline distance `d' ≥ d`,
//!
//! ```text
//! |M| ≤ B(d) = M_aligned(ℓ, √(d² + s)),
//! ```
//!
//! the mutual of two centred, fully overlapping filaments of length `ℓ`.
//! The Neumann integral `∫∫ dx dy / √((x−y)² + D²)` has a positive,
//! symmetric-decreasing kernel, so lengthening either segment (more
//! positive integrand) and centring both (Riesz rearrangement) can only
//! raise it, and it falls as `D` grows. A pair's coupling distance is
//! `√(d'² + spread)`, raised further by the GMD floor, and both only
//! raise `D`. Current-direction signs flip the sign, not the magnitude.
//!
//! The closed form of `mutual_inductance` cancels four antiderivative
//! terms, so its rounding error relative to `|M|` grows like
//! `ε·(d/ℓ)²`. [`BOUND_MARGIN`] inflates `B` to cover it and the rounding
//! of `B` itself while `d ≤ 10⁴·ℓ`, far beyond any on-chip layout.
//!
//! # The sweep
//!
//! Members of a class are sorted along the transverse coordinate with the
//! larger spread. A query walks outward from its own slot in both
//! directions. The coordinate gap `|Δu|` never exceeds the computed
//! [`Filament::radial_distance_to`]: that distance is
//! `fl(√(fl(Δu²) + fl(Δv²)))`, and `fl(√(fl(Δu²))) = |Δu|` exactly in
//! binary round-to-nearest arithmetic. So `|Δu|` of the next unvisited
//! slot is an exact lower bound on every distance not yet seen.

use crate::inductance::aligned_mutual;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vpec_geometry::{Axis, Filament};

/// Relative inflation of [`FilamentIndex::mutual_bound`] over the exact
/// bound. It covers the rounding of the closed-form mutual (relative
/// error about `4ε·(d/ℓ)²`, so below 1e-7 for `d ≤ 10⁴·ℓ`) and of the
/// bound's own evaluation.
pub const BOUND_MARGIN: f64 = 1e-6;

/// Filaments grouped by axis, each group sorted along one transverse
/// coordinate.
#[derive(Debug, Clone)]
pub struct FilamentIndex {
    classes: Vec<ParallelClass>,
    /// Class of each filament, an index into `classes`.
    class_of: Vec<usize>,
    /// Position of each filament in its class's `members`.
    slot: Vec<usize>,
}

/// The filaments along one axis.
#[derive(Debug, Clone)]
struct ParallelClass {
    /// Coordinate (0, 1 or 2) the members are sorted along.
    sweep: usize,
    /// Members in ascending (sweep coordinate, filament index) order.
    members: Vec<usize>,
    /// Longest member length (meters).
    max_length: f64,
    /// Smallest pair spread `2·min (w² + t²)/12` (m²).
    min_spread: f64,
}

impl FilamentIndex {
    /// Indexes `filaments`. `O(n log n)`.
    pub fn new(filaments: &[Filament]) -> FilamentIndex {
        let mut classes: Vec<ParallelClass> = Vec::new();
        let mut axes: Vec<Axis> = Vec::new();
        let mut class_of = Vec::with_capacity(filaments.len());
        for f in filaments {
            let c = match axes.iter().position(|&a| a == f.axis) {
                Some(c) => c,
                None => {
                    axes.push(f.axis);
                    classes.push(ParallelClass {
                        sweep: 0,
                        members: Vec::new(),
                        max_length: 0.0,
                        min_spread: f64::INFINITY,
                    });
                    classes.len() - 1
                }
            };
            class_of.push(c);
            let class = &mut classes[c];
            class.members.push(class_of.len() - 1);
            class.max_length = class.max_length.max(f.length);
            let spread = (f.width * f.width + f.thickness * f.thickness) / 12.0;
            class.min_spread = class.min_spread.min(2.0 * spread);
        }
        let mut slot = vec![0; filaments.len()];
        for (class, axis) in classes.iter_mut().zip(&axes) {
            let [p, q] = transverse(*axis);
            let range = |k: usize| {
                let (lo, hi) = class
                    .members
                    .iter()
                    .map(|&i| filaments[i].origin[k])
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
                        (lo.min(x), hi.max(x))
                    });
                hi - lo
            };
            class.sweep = if range(q) > range(p) { q } else { p };
            let s = class.sweep;
            class.members.sort_by(|&a, &b| {
                filaments[a].origin[s]
                    .total_cmp(&filaments[b].origin[s])
                    .then(a.cmp(&b))
            });
            for (k, &i) in class.members.iter().enumerate() {
                slot[i] = k;
            }
        }
        FilamentIndex {
            classes,
            class_of,
            slot,
        }
    }

    /// Filaments parallel to filament `i`, other than `i`, nearest first
    /// by [`Filament::radial_distance_to`]. `filaments` must be the slice
    /// the index was built from.
    pub fn nearest<'a>(&'a self, filaments: &'a [Filament], i: usize) -> Nearest<'a> {
        let at = self.slot[i];
        Nearest {
            filaments,
            class: &self.classes[self.class_of[i]],
            center: i,
            left: at,
            right: at + 1,
            heap: BinaryHeap::new(),
            bound: None,
        }
    }

    /// Calls `visit(j)` for every filament `j ≠ i` parallel to filament
    /// `i` whose radial distance from it is at most `radius`, in no
    /// particular order. `filaments` must be the slice the index was
    /// built from.
    pub fn within(
        &self,
        filaments: &[Filament],
        i: usize,
        radius: f64,
        mut visit: impl FnMut(usize),
    ) {
        let class = &self.classes[self.class_of[i]];
        let at = self.slot[i];
        let a = &filaments[i];
        let gap = |j: usize| (a.origin[class.sweep] - filaments[j].origin[class.sweep]).abs();
        let mut check = |j: usize| {
            if a.radial_distance_to(&filaments[j]) <= radius {
                visit(j);
            }
        };
        for &j in class.members[..at].iter().rev() {
            if gap(j) > radius {
                break;
            }
            check(j);
        }
        for &j in &class.members[at + 1..] {
            if gap(j) > radius {
                break;
            }
            check(j);
        }
    }

    /// Certified upper bound on `|mutual_inductance(a, b)|` for filament
    /// `i`'s class and every pair at radial distance `d` or more (module
    /// docs), inflated by [`BOUND_MARGIN`].
    pub fn mutual_bound(&self, i: usize, d: f64) -> f64 {
        self.classes[self.class_of[i]].mutual_bound(d)
    }
}

impl ParallelClass {
    fn mutual_bound(&self, d: f64) -> f64 {
        let coupling_distance = (d * d + self.min_spread).sqrt();
        aligned_mutual(self.max_length, coupling_distance) * (1.0 + BOUND_MARGIN)
    }
}

/// The two coordinates perpendicular to `axis`.
fn transverse(axis: Axis) -> [usize; 2] {
    match axis {
        Axis::X => [1, 2],
        Axis::Y => [0, 2],
        Axis::Z => [0, 1],
    }
}

/// Nearest-first walk over the filaments parallel to one filament; see
/// [`FilamentIndex::nearest`].
#[derive(Debug)]
pub struct Nearest<'a> {
    filaments: &'a [Filament],
    class: &'a ParallelClass,
    center: usize,
    /// Members at slots `< left` are not yet visited.
    left: usize,
    /// Members at slots `≥ right` are not yet visited.
    right: usize,
    /// Visited, not yet yielded: `(distance bits, filament)`. Distances
    /// are nonnegative, so their bit patterns order like the values.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// The last `(distance, bound)` [`Nearest::remaining_bound`] computed.
    bound: Option<(f64, f64)>,
}

impl Nearest<'_> {
    fn gap(&self, slot: usize) -> f64 {
        let s = self.class.sweep;
        let j = self.class.members[slot];
        (self.filaments[self.center].origin[s] - self.filaments[j].origin[s]).abs()
    }

    /// Smallest coordinate gap of an unvisited member, with the side it
    /// is on (`true` for left).
    fn frontier(&self) -> Option<(f64, bool)> {
        let left = (self.left > 0).then(|| self.gap(self.left - 1));
        let right = (self.right < self.class.members.len()).then(|| self.gap(self.right));
        match (left, right) {
            (Some(l), Some(r)) if l <= r => Some((l, true)),
            (_, Some(r)) => Some((r, false)),
            (Some(l), None) => Some((l, true)),
            (None, None) => None,
        }
    }

    /// A lower bound on the radial distance of every filament not yet
    /// yielded; `None` once all are.
    pub fn lower_bound(&self) -> Option<f64> {
        let top = self
            .heap
            .peek()
            .map(|Reverse((bits, _))| f64::from_bits(*bits));
        match (top, self.frontier()) {
            (Some(t), Some((f, _))) => Some(t.min(f)),
            (Some(t), None) => Some(t),
            (None, Some((f, _))) => Some(f),
            (None, None) => None,
        }
    }

    /// Certified bound on `|M|` between the walk's filament and every
    /// filament not yet yielded: [`FilamentIndex::mutual_bound`] at
    /// [`Nearest::lower_bound`]. `None` once all are yielded. Holds for
    /// extracted inductances, not for a caller-supplied matrix.
    pub fn remaining_bound(&mut self) -> Option<f64> {
        let d = self.lower_bound()?;
        match self.bound {
            Some((at, b)) if at == d => Some(b),
            _ => {
                let b = self.class.mutual_bound(d);
                self.bound = Some((d, b));
                Some(b)
            }
        }
    }
}

impl Iterator for Nearest<'_> {
    /// `(filament, radial distance)`.
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        loop {
            let frontier = self.frontier();
            if let Some(&Reverse((bits, j))) = self.heap.peek() {
                let d = f64::from_bits(bits);
                if frontier.is_none_or(|(f, _)| d <= f) {
                    self.heap.pop();
                    return Some((j, d));
                }
            }
            let (_, go_left) = frontier?;
            let slot = if go_left {
                self.left -= 1;
                self.left
            } else {
                self.right += 1;
                self.right - 1
            };
            let j = self.class.members[slot];
            let d = self.filaments[self.center].radial_distance_to(&self.filaments[j]);
            self.heap.push(Reverse((d.to_bits(), j)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_geometry::{um, BusSpec, SpiralSpec};

    fn brute_force_order(fils: &[Filament], i: usize) -> Vec<(usize, f64)> {
        let mut v: Vec<(usize, f64)> = (0..fils.len())
            .filter(|&j| j != i && fils[j].is_parallel_to(&fils[i]))
            .map(|j| (j, fils[i].radial_distance_to(&fils[j])))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v
    }

    #[test]
    fn nearest_yields_every_parallel_filament_in_distance_order() {
        for layout in [
            BusSpec::new(9).segments(3).misalignment(0.4).build(),
            SpiralSpec::paper_three_turn().build(),
        ] {
            let fils = layout.filaments();
            let index = FilamentIndex::new(fils);
            for i in 0..fils.len() {
                let mut walk = index.nearest(fils, i);
                let mut got = Vec::new();
                loop {
                    let lb = walk.lower_bound();
                    let Some((j, d)) = walk.next() else {
                        assert!(lb.is_none(), "exhausted walk has no lower bound");
                        break;
                    };
                    assert!(lb.is_some_and(|lb| lb <= d), "bound {lb:?} above {d}");
                    got.push((j, d));
                }
                let want = brute_force_order(fils, i);
                assert_eq!(got.len(), want.len());
                for w in got.windows(2) {
                    assert!(w[0].1 <= w[1].1, "not nearest first: {w:?}");
                }
                let mut got_ids: Vec<usize> = got.iter().map(|p| p.0).collect();
                got_ids.sort_unstable();
                let mut want_ids: Vec<usize> = want.iter().map(|p| p.0).collect();
                want_ids.sort_unstable();
                assert_eq!(got_ids, want_ids);
            }
        }
    }

    #[test]
    fn within_matches_a_radius_filter() {
        let layout = BusSpec::new(12).segments(4).misalignment(0.3).build();
        let fils = layout.filaments();
        let index = FilamentIndex::new(fils);
        for radius in [0.0, um(3.0), um(7.5), um(100.0)] {
            for i in 0..fils.len() {
                let mut got = Vec::new();
                index.within(fils, i, radius, |j| got.push(j));
                got.sort_unstable();
                let want: Vec<usize> = brute_force_order(fils, i)
                    .into_iter()
                    .filter(|&(_, d)| d <= radius)
                    .map(|(j, _)| j)
                    .collect::<Vec<_>>();
                let mut want = want;
                want.sort_unstable();
                assert_eq!(got, want, "filament {i}, radius {radius}");
            }
        }
    }
}
