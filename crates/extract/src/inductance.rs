//! Closed-form partial inductance of rectilinear filaments.
//!
//! This is the formula-based FastHenry substitute the paper itself points
//! to ("the formula-based \[23\] or lookup table-based \[25\] approaches can
//! also be applied"). Two kernels:
//!
//! * **Self partial inductance** of a rectangular bar (Ruehli/Grover):
//!   `L = (μ₀ l / 2π) [ ln(2l/(w+t)) + 1/2 + 0.2235(w+t)/l ]`.
//! * **Mutual partial inductance** of two parallel filaments with arbitrary
//!   longitudinal offset, from the Neumann double integral
//!   `M = (μ₀/4π) [G(a₂−b₁) + G(a₁−b₂) − G(a₂−b₂) − G(a₁−b₁)]` with
//!   `G(u) = u·asinh(u/d) − √(u²+d²)`, `d` the radial centerline distance
//!   (or the cross-section GMD when the centerlines coincide).
//!
//! Perpendicular filaments do not couple (orthogonal current directions),
//! and mutual terms carry the product of the filaments' current-direction
//! signs, which makes opposite sides of a spiral couple negatively.

use vpec_geometry::discretize::MU0;
use vpec_geometry::Filament;
use vpec_numerics::{pool, DenseMatrix, Pool};

/// Minimum matrix rows per worker before assembly goes parallel.
/// Commit d2944d8 measured parallel extraction at 0.29–0.88 of serial
/// speed through 224 filaments, so small layouts stay serial.
const ASSEMBLY_MIN_ROWS_PER_THREAD: usize = 64;

/// `μ₀ / 4π` (H/m) — exactly 1e-7 for the classical μ₀.
const MU0_OVER_4PI: f64 = MU0 / (4.0 * std::f64::consts::PI);

/// Self partial inductance of a rectangular filament (henries).
///
/// Uses the Ruehli approximation, valid for `l ≫ w, t` — the regime of all
/// on-chip wire segments in the paper.
///
/// # Panics
///
/// Panics if the filament has non-physical dimensions.
pub fn self_inductance(f: &Filament) -> f64 {
    assert!(f.is_valid(), "filament has non-physical dimensions: {f:?}");
    let l = f.length;
    let wt = f.width + f.thickness;
    2.0 * MU0_OVER_4PI * l * ((2.0 * l / wt).ln() + 0.5 + 0.2235 * wt / l)
}

/// Antiderivative of the Neumann kernel: `G(u) = u·asinh(u/d) − √(u²+d²)`.
#[inline]
fn neumann_g(u: f64, d: f64) -> f64 {
    u * (u / d).asinh() - (u * u + d * d).sqrt()
}

/// Mutual partial inductance between two parallel filaments (henries),
/// including the sign from their current directions.
///
/// Returns 0 for non-parallel (perpendicular) filaments.
///
/// # Panics
///
/// Panics if either filament has non-physical dimensions.
pub fn mutual_inductance(a: &Filament, b: &Filament) -> f64 {
    assert!(a.is_valid(), "filament has non-physical dimensions: {a:?}");
    assert!(b.is_valid(), "filament has non-physical dimensions: {b:?}");
    if !a.is_parallel_to(b) {
        return 0.0;
    }
    // Finite cross-sections spread the coupling distance: the mean-square
    // point-to-point distance between two rectangles at centerline
    // distance d is d² + Σ(dim²)/12 (uniform current density). Using the
    // RMS distance in place of the raw centerline distance keeps the
    // single-filament model honest for wide/tall conductors — without it,
    // closely spaced tall cross-sections (which FastHenry would split into
    // volume filaments) get their mutual coupling overestimated.
    let spread = (a.width * a.width
        + b.width * b.width
        + a.thickness * a.thickness
        + b.thickness * b.thickness)
        / 12.0;
    let d_center = a.radial_distance_to(b);
    let mut d = (d_center * d_center + spread).sqrt();
    let floor = 0.5 * (a.self_gmd() + b.self_gmd());
    if d < floor {
        // Collinear or overlapping centerlines: fall back to the
        // cross-section geometric mean distance.
        d = floor;
    }
    let (a1, a2) = a.span();
    let (b1, b2) = b.span();
    let m = MU0_OVER_4PI
        * (neumann_g(a2 - b1, d) + neumann_g(a1 - b2, d)
            - neumann_g(a2 - b2, d)
            - neumann_g(a1 - b1, d));
    m * a.direction * b.direction
}

/// Mutual partial inductance the two filaments *would* have at radial
/// centerline distance `d_override` (same spans, same cross sections,
/// same direction signs). Used by shell-based sparsification baselines
/// (shift truncation), which subtract the coupling of a return shell at a
/// fixed radius.
///
/// # Panics
///
/// Panics on non-physical filaments or a non-positive distance.
pub fn mutual_at_distance(a: &Filament, b: &Filament, d_override: f64) -> f64 {
    assert!(a.is_valid() && b.is_valid(), "non-physical filament");
    assert!(d_override > 0.0, "shell distance must be positive");
    if !a.is_parallel_to(b) {
        return 0.0;
    }
    let spread = (a.width * a.width
        + b.width * b.width
        + a.thickness * a.thickness
        + b.thickness * b.thickness)
        / 12.0;
    let d = (d_override * d_override + spread).sqrt();
    let (a1, a2) = a.span();
    let (b1, b2) = b.span();
    let m = MU0_OVER_4PI
        * (neumann_g(a2 - b1, d) + neumann_g(a1 - b2, d)
            - neumann_g(a2 - b2, d)
            - neumann_g(a1 - b1, d));
    m * a.direction * b.direction
}

/// Builds the full (dense) partial-inductance matrix over `filaments`.
///
/// The result is symmetric; like the PEEC `L` it is **not** diagonally
/// dominant for closely coupled buses — that is precisely the property that
/// makes direct truncation unsafe and motivates the VPEC model.
pub fn partial_inductance_matrix(filaments: &[Filament]) -> DenseMatrix<f64> {
    let n = filaments.len();
    let mut l = DenseMatrix::<f64>::zeros(n, n);
    // Row-partitioned assembly: each worker fills whole rows of the upper
    // triangle (diagonal included). Rows are distributed round-robin, which
    // balances the triangular per-row cost. Each (i, j) integral is
    // evaluated with the same argument order as the serial loop, so the
    // matrix is bit-identical at any thread count.
    let nt = pool::threads_for(n, ASSEMBLY_MIN_ROWS_PER_THREAD);
    let _sp = vpec_trace::span!(
        "extract.inductance",
        "filaments" => n,
        "mode" => if nt > 1 { "parallel" } else { "serial" },
        "workers" => nt,
    );
    vpec_trace::counter_add("extract.inductance.pairs", (n * (n + 1) / 2) as u64);
    Pool::with_threads(nt).par_chunks_mut(l.as_mut_slice(), n.max(1), |off, row| {
        let i = off / n.max(1);
        row[i] = self_inductance(&filaments[i]);
        for (j, slot) in row.iter_mut().enumerate().skip(i + 1) {
            *slot = mutual_inductance(&filaments[i], &filaments[j]);
        }
    });
    // Mirror the strictly-upper triangle into the lower. Mirroring, not
    // recomputation, keeps exact symmetry: `mutual_inductance(a, b)` is
    // only symmetric to rounding.
    mirror_upper(l.as_mut_slice(), n);
    l
}

/// Side of the square tiles [`mirror_upper`] copies: two 64×64 tiles of
/// `f64` (64 KB) stay in L2 while one is read down its columns and the
/// other written along its rows.
const MIRROR_TILE: usize = 64;

/// Copies the strictly-upper triangle of the row-major `n×n` matrix in
/// `data` into the lower, tile by tile. A plain `(j, i) ← (i, j)` loop
/// writes down columns and misses the cache on every store once a column
/// outgrows it (22 ms at 2048 filaments).
fn mirror_upper(data: &mut [f64], n: usize) {
    for ib in (0..n).step_by(MIRROR_TILE) {
        for jb in (ib..n).step_by(MIRROR_TILE) {
            for j in jb..(jb + MIRROR_TILE).min(n) {
                for i in ib..(ib + MIRROR_TILE).min(j) {
                    data[j * n + i] = data[i * n + j];
                }
            }
        }
    }
}

/// Mutual inductance of two centred, fully overlapping parallel filaments
/// of length `length` at coupling distance `d` (henries): the largest
/// `|M|` any pair of filaments at most `length` long can reach at that
/// distance (see [`crate::locality`]).
pub(crate) fn aligned_mutual(length: f64, d: f64) -> f64 {
    MU0_OVER_4PI
        * (neumann_g(length, d) + neumann_g(-length, d) - neumann_g(0.0, d) - neumann_g(0.0, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_geometry::{um, Axis, BusSpec};
    use vpec_numerics::Cholesky;

    fn wire(x: f64, y: f64, len: f64) -> Filament {
        Filament::new([x, y, 0.0], Axis::X, len, um(1.0), um(1.0))
    }

    #[test]
    fn self_inductance_of_1mm_line_is_about_1_4nh() {
        // Classic sanity number: 1000 µm × 1 µm × 1 µm copper line has
        // partial self inductance ≈ 1.4–1.5 nH.
        let l = self_inductance(&wire(0.0, 0.0, um(1000.0)));
        assert!(l > 1.2e-9 && l < 1.7e-9, "got {l}");
    }

    #[test]
    fn self_inductance_grows_superlinearly_with_length() {
        let l1 = self_inductance(&wire(0.0, 0.0, um(500.0)));
        let l2 = self_inductance(&wire(0.0, 0.0, um(1000.0)));
        assert!(l2 > 2.0 * l1, "partial L grows faster than linearly");
    }

    #[test]
    fn mutual_of_equal_aligned_filaments_matches_closed_form() {
        // For equal aligned parallel filaments the combination reduces to
        // M = (μ0 l / 2π)[asinh(l/d) − √(1+(d/l)²) + d/l], with d the
        // RMS-corrected coupling distance.
        let l = um(1000.0);
        let d_center = um(3.0);
        let a = wire(0.0, 0.0, l);
        let b = wire(0.0, d_center, l);
        let m = mutual_inductance(&a, &b);
        // Cross-section spread for two 1 µm × 1 µm wires: 4·(1 µm)²/12.
        let d = (d_center * d_center + 4.0 * um(1.0).powi(2) / 12.0).sqrt();
        let expected = 2.0e-7 * l * ((l / d).asinh() - (1.0 + (d / l).powi(2)).sqrt() + d / l);
        assert!(
            (m - expected).abs() < 1e-18 + 1e-12 * expected.abs(),
            "{m} vs {expected}"
        );
        // The correction is small (<2%) at the paper's 3 µm pitch.
        let uncorrected = 2.0e-7
            * l
            * ((l / d_center).asinh() - (1.0 + (d_center / l).powi(2)).sqrt() + d_center / l);
        assert!((m - uncorrected).abs() / uncorrected < 0.02);
    }

    #[test]
    fn mutual_decays_with_distance_but_slowly() {
        let a = wire(0.0, 0.0, um(1000.0));
        let m3 = mutual_inductance(&a, &wire(0.0, um(3.0), um(1000.0)));
        let m30 = mutual_inductance(&a, &wire(0.0, um(30.0), um(1000.0)));
        let m300 = mutual_inductance(&a, &wire(0.0, um(300.0), um(1000.0)));
        assert!(m3 > m30 && m30 > m300);
        // Logarithmic decay: far coupling is still a sizable fraction.
        assert!(m300 > 0.2 * m3, "inductive coupling is long-range");
    }

    #[test]
    fn mutual_smaller_than_self() {
        let a = wire(0.0, 0.0, um(1000.0));
        let b = wire(0.0, um(3.0), um(1000.0));
        assert!(mutual_inductance(&a, &b) < self_inductance(&a));
    }

    #[test]
    fn perpendicular_filaments_do_not_couple() {
        let a = wire(0.0, 0.0, um(100.0));
        let b = Filament::new([0.0, um(5.0), 0.0], Axis::Y, um(100.0), um(1.0), um(1.0));
        assert_eq!(mutual_inductance(&a, &b), 0.0);
    }

    #[test]
    fn antiparallel_currents_couple_negatively() {
        let a = wire(0.0, 0.0, um(100.0));
        let b = wire(0.0, um(5.0), um(100.0)).with_direction(-1.0);
        assert!(mutual_inductance(&a, &b) < 0.0);
    }

    #[test]
    fn collinear_segments_couple_positively() {
        // Two abutting segments of the same line (forward coupling).
        let a = wire(0.0, 0.0, um(100.0));
        let b = wire(um(100.0), 0.0, um(100.0));
        let m = mutual_inductance(&a, &b);
        assert!(m > 0.0);
        assert!(m < self_inductance(&a));
    }

    #[test]
    fn mutual_is_symmetric() {
        let a = wire(0.0, 0.0, um(700.0));
        let b = wire(um(55.0), um(4.0), um(350.0));
        let mab = mutual_inductance(&a, &b);
        let mba = mutual_inductance(&b, &a);
        assert!((mab - mba).abs() < 1e-20);
        assert!(mab > 0.0);
    }

    #[test]
    fn bus_matrix_is_spd_but_not_diagonally_dominant() {
        let layout = BusSpec::new(16).build();
        let l = partial_inductance_matrix(layout.filaments());
        assert!(l.is_symmetric(1e-12));
        assert!(
            Cholesky::new(&l).is_ok(),
            "partial inductance matrix must be positive definite"
        );
        assert!(
            !l.is_strictly_diagonally_dominant(),
            "the paper's premise: L is NOT diagonally dominant"
        );
    }

    #[test]
    fn offset_coupling_weaker_than_aligned() {
        let a = wire(0.0, 0.0, um(1000.0));
        let aligned = mutual_inductance(&a, &wire(0.0, um(3.0), um(1000.0)));
        let shifted = mutual_inductance(&a, &wire(um(500.0), um(3.0), um(1000.0)));
        assert!(shifted < aligned);
        assert!(shifted > 0.0);
    }

    #[test]
    #[should_panic(expected = "non-physical")]
    fn invalid_filament_panics() {
        let mut bad = wire(0.0, 0.0, um(10.0));
        bad.width = 0.0;
        self_inductance(&bad);
    }
}
