//! Volume filament decomposition (paper §III: "When the frequency is
//! beyond 10 GHz, the volume filament \[5\] or conduction mode based
//! decomposition can be applied to consider the skin and proximity
//! effects").
//!
//! A conductor segment is split into an `nw × nt` grid of sub-filaments
//! over its cross section; each sub-filament carries a uniform current
//! density, and the frequency-dependent current *distribution* across the
//! bundle emerges from solving the coupled impedance system
//! ([`crate::impedance`]). This is exactly FastHenry's discretization.

use crate::ExtractError;
use vpec_geometry::discretize::skin_depth;
use vpec_geometry::Filament;

/// Names the first non-physical dimension of a filament, if any — the
/// upstream finiteness gate for the decomposition kernels, so a NaN
/// width never reaches the inductance integrals.
fn validate_filament(f: &Filament) -> Result<(), ExtractError> {
    let reason = if !f.length.is_finite() {
        "length is not finite"
    } else if f.length <= 0.0 {
        "length is not positive"
    } else if !f.width.is_finite() {
        "width is not finite"
    } else if f.width <= 0.0 {
        "width is not positive"
    } else if !f.thickness.is_finite() {
        "thickness is not finite"
    } else if f.thickness <= 0.0 {
        "thickness is not positive"
    } else if !f.origin.iter().all(|c| c.is_finite()) {
        "origin is not finite"
    } else if !f.direction.is_finite() {
        "direction is not finite"
    } else {
        return Ok(());
    };
    Err(ExtractError::NonPhysicalFilament { reason })
}

/// Splits a filament into an `nw × nt` bundle of parallel sub-filaments
/// tiling its cross section (same axis, length and current direction).
///
/// The perpendicular in-plane axis receives the `nw` width subdivisions
/// and the z axis the `nt` thickness subdivisions; sub-filament centers
/// tile the original cross-section symmetrically about the original
/// centerline.
///
/// # Errors
///
/// [`ExtractError::NonPhysicalFilament`] if any dimension of `f` is
/// NaN, infinite or non-positive; [`ExtractError::ZeroSubdivision`] if
/// `nw` or `nt` is zero.
pub fn try_decompose(f: &Filament, nw: usize, nt: usize) -> Result<Vec<Filament>, ExtractError> {
    validate_filament(f)?;
    if nw == 0 || nt == 0 {
        return Err(ExtractError::ZeroSubdivision);
    }
    let axis = f.axis.index();
    // The in-plane perpendicular axis: x→y, y→x, z→x (width direction).
    let width_axis = match axis {
        0 => 1,
        1 => 0,
        _ => 0,
    };
    let sub_w = f.width / nw as f64;
    let sub_t = f.thickness / nt as f64;
    let mut out = Vec::with_capacity(nw * nt);
    for iw in 0..nw {
        for it in 0..nt {
            let dw = (iw as f64 + 0.5) * sub_w - f.width / 2.0;
            let dt = (it as f64 + 0.5) * sub_t - f.thickness / 2.0;
            let mut origin = f.origin;
            origin[width_axis] += dw;
            origin[2] += dt;
            out.push(
                Filament::new(origin, f.axis, f.length, sub_w, sub_t).with_direction(f.direction),
            );
        }
    }
    Ok(out)
}

/// Subdivision counts suggested by the skin-depth rule at `frequency`:
/// enough sub-filaments that each is no larger than one skin depth in
/// either cross-section dimension (capped at `max_per_side` to bound the
/// system size).
pub fn auto_subdivisions(
    f: &Filament,
    resistivity: f64,
    frequency: f64,
    max_per_side: usize,
) -> (usize, usize) {
    let delta = skin_depth(resistivity, frequency);
    let nw = ((f.width / delta).ceil() as usize).clamp(1, max_per_side);
    let nt = ((f.thickness / delta).ceil() as usize).clamp(1, max_per_side);
    (nw, nt)
}

/// Decomposes with the skin-depth rule directly.
///
/// # Errors
///
/// As [`try_decompose`].
pub fn auto_decompose(
    f: &Filament,
    resistivity: f64,
    frequency: f64,
    max_per_side: usize,
) -> Result<Vec<Filament>, ExtractError> {
    let (nw, nt) = auto_subdivisions(f, resistivity, frequency, max_per_side);
    try_decompose(f, nw, nt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_geometry::{um, Axis, GHZ};

    const RHO_CU: f64 = 1.7e-8;

    fn thick_wire() -> Filament {
        Filament::new([0.0; 3], Axis::X, um(500.0), um(4.0), um(2.0))
    }

    #[test]
    fn count_and_area_preserved() {
        let f = thick_wire();
        let subs = try_decompose(&f, 4, 2).unwrap();
        assert_eq!(subs.len(), 8);
        let total_area: f64 = subs.iter().map(|s| s.cross_section()).sum();
        assert!((total_area - f.cross_section()).abs() < 1e-24);
        for s in &subs {
            assert_eq!(s.length, f.length);
            assert_eq!(s.axis, f.axis);
            assert_eq!(s.direction, f.direction);
        }
    }

    #[test]
    fn centers_tile_the_cross_section() {
        let f = thick_wire();
        let subs = try_decompose(&f, 2, 2).unwrap();
        // y-offsets at ±1 µm, z-offsets at ±0.5 µm around the centerline.
        let mut ys: Vec<f64> = subs.iter().map(|s| s.origin[1] * 1e6).collect();
        ys.sort_by(f64::total_cmp);
        assert!((ys[0] + 1.0).abs() < 1e-9 && (ys[3] - 1.0).abs() < 1e-9);
        let mut zs: Vec<f64> = subs.iter().map(|s| s.origin[2] * 1e6).collect();
        zs.sort_by(f64::total_cmp);
        assert!((zs[0] + 0.5).abs() < 1e-9 && (zs[3] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn trivial_decomposition_is_identity() {
        let f = thick_wire();
        let subs = try_decompose(&f, 1, 1).unwrap();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0], f);
    }

    #[test]
    fn y_axis_filament_subdivides_along_x() {
        let f = Filament::new([0.0; 3], Axis::Y, um(100.0), um(2.0), um(1.0));
        let subs = try_decompose(&f, 2, 1).unwrap();
        assert!(subs.iter().any(|s| s.origin[0] < 0.0));
        assert!(subs.iter().any(|s| s.origin[0] > 0.0));
        // y (the filament axis) stays put.
        assert!(subs.iter().all(|s| s.origin[1] == 0.0));
    }

    #[test]
    fn auto_rule_tracks_skin_depth() {
        let f = thick_wire(); // 4 µm × 2 µm
                              // δ(10 GHz) ≈ 0.66 µm ⇒ 4/0.66 ≈ 7 width slices, 2/0.66 ≈ 4.
        let (nw, nt) = auto_subdivisions(&f, RHO_CU, 10.0 * GHZ, 16);
        assert!((6..=8).contains(&nw), "nw = {nw}");
        assert!((3..=5).contains(&nt), "nt = {nt}");
        // At 1 MHz the skin depth is ~65 µm: no subdivision needed.
        let (nw_lo, nt_lo) = auto_subdivisions(&f, RHO_CU, 1.0e6, 16);
        assert_eq!((nw_lo, nt_lo), (1, 1));
        // The cap is honoured.
        let (nw_cap, _) = auto_subdivisions(&f, RHO_CU, 1.0e12, 4);
        assert_eq!(nw_cap, 4);
    }

    #[test]
    fn auto_decompose_wires_through() {
        let f = thick_wire();
        let subs = auto_decompose(&f, RHO_CU, 10.0 * GHZ, 8).unwrap();
        assert!(subs.len() > 8, "10 GHz must split a 4×2 µm wire");
    }

    #[test]
    fn non_finite_filament_is_a_typed_error() {
        // A NaN width used to sail into the decomposition (NaN compares
        // false against every physicality bound) and poison the
        // downstream inductance integrals; now it is rejected up front.
        let mut f = thick_wire();
        f.width = f64::NAN;
        assert_eq!(
            try_decompose(&f, 2, 2).unwrap_err(),
            ExtractError::NonPhysicalFilament {
                reason: "width is not finite"
            }
        );
        f.width = f64::INFINITY;
        assert!(try_decompose(&f, 2, 2).is_err());
        let mut g = thick_wire();
        g.origin[2] = f64::NAN;
        assert_eq!(
            try_decompose(&g, 1, 1).unwrap_err(),
            ExtractError::NonPhysicalFilament {
                reason: "origin is not finite"
            }
        );
        let mut h = thick_wire();
        h.length = -um(1.0);
        assert_eq!(
            try_decompose(&h, 1, 1).unwrap_err(),
            ExtractError::NonPhysicalFilament {
                reason: "length is not positive"
            }
        );
        assert_eq!(
            try_decompose(&thick_wire(), 2, 0).unwrap_err(),
            ExtractError::ZeroSubdivision
        );
        // The happy path is unchanged.
        assert_eq!(try_decompose(&thick_wire(), 4, 2).unwrap().len(), 8);
    }
}
