//! Series resistance: DC `ρl/A`, optional skin-depth correction, and the
//! lossy-substrate eddy-current loss lumping used for the spiral inductor.

use vpec_geometry::discretize::skin_depth;
use vpec_geometry::{Filament, SubstrateSpec};

/// DC series resistance `ρ·l / (w·t)` in ohms.
///
/// # Panics
///
/// Panics if the filament has non-physical dimensions or `resistivity ≤ 0`.
pub fn dc_resistance(f: &Filament, resistivity: f64) -> f64 {
    assert!(f.is_valid(), "filament has non-physical dimensions: {f:?}");
    assert!(resistivity > 0.0, "resistivity must be positive");
    resistivity * f.length / f.cross_section()
}

/// Series resistance with the skin-depth correction at `frequency`: the
/// conducting cross section shrinks to the perimeter shell of depth δ once
/// δ is smaller than the half-dimensions.
///
/// # Panics
///
/// Panics on non-physical inputs (see [`dc_resistance`]).
pub fn ac_resistance(f: &Filament, resistivity: f64, frequency: f64) -> f64 {
    let r_dc = dc_resistance(f, resistivity);
    let delta = skin_depth(resistivity, frequency);
    let core_w = (f.width - 2.0 * delta).max(0.0);
    let core_t = (f.thickness - 2.0 * delta).max(0.0);
    let eff_area = f.cross_section() - core_w * core_t;
    if eff_area <= 0.0 {
        // Degenerate guard; cannot happen since core < full cross section.
        return r_dc;
    }
    r_dc * f.cross_section() / eff_area
}

/// Eddy-current loss of a lossy substrate, lumped as an additional series
/// resistance on the segment above it (after Massoud & White, as the paper
/// does for its spiral-inductor experiment).
///
/// Model: the segment's return current images in the substrate at depth
/// `2·depth`; the loss resistance scales with the substrate sheet
/// conductance under the coupled area,
/// `ΔR ≈ (ρ_sub-normalized factor) · l·w / (2·depth)²` — a first-order
/// proximity model that grows with coupling area and shrinks with distance,
/// which is the behaviour the experiment needs (extra broadband loss on
/// every spiral segment).
pub fn substrate_loss_resistance(f: &Filament, sub: &SubstrateSpec, frequency: f64) -> f64 {
    assert!(f.is_valid(), "filament has non-physical dimensions: {f:?}");
    assert!(
        sub.resistivity > 0.0 && sub.depth > 0.0,
        "bad substrate spec"
    );
    // Skin depth in the lossy substrate at the operating frequency.
    let delta_sub = skin_depth(sub.resistivity, frequency);
    // Effective image-plane sheet resistance over the coupled footprint.
    let sheet = sub.resistivity / delta_sub; // Ω/sq of the conducting skin
    let squares = f.length / (f.width + 2.0 * sub.depth);
    // Coupling efficiency decays with elevation relative to width.
    let coupling = f.width / (f.width + 2.0 * sub.depth);
    sheet * squares * coupling * coupling
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_geometry::{um, Axis, GHZ};

    const RHO_CU: f64 = 1.7e-8;

    fn wire(len: f64, w: f64, t: f64) -> Filament {
        Filament::new([0.0; 3], Axis::X, len, w, t)
    }

    #[test]
    fn dc_resistance_of_paper_line() {
        // 1000 µm × 1 µm × 1 µm copper: R = 1.7e-8 · 1e-3 / 1e-12 = 17 Ω.
        let r = dc_resistance(&wire(um(1000.0), um(1.0), um(1.0)), RHO_CU);
        assert!((r - 17.0).abs() < 1e-9, "got {r}");
    }

    #[test]
    fn resistance_scales_linearly_with_length() {
        let r1 = dc_resistance(&wire(um(500.0), um(1.0), um(1.0)), RHO_CU);
        let r2 = dc_resistance(&wire(um(1000.0), um(1.0), um(1.0)), RHO_CU);
        assert!((r2 - 2.0 * r1).abs() < 1e-12);
    }

    #[test]
    fn skin_correction_negligible_for_thin_wire_at_10ghz() {
        // δ ≈ 0.66 µm at 10 GHz: a 1 µm × 1 µm wire still conducts over its
        // full cross section (2δ > dimensions), so AC ≈ DC.
        let f = wire(um(1000.0), um(1.0), um(1.0));
        let rac = ac_resistance(&f, RHO_CU, 10.0 * GHZ);
        let rdc = dc_resistance(&f, RHO_CU);
        assert!((rac - rdc).abs() / rdc < 1e-12);
    }

    #[test]
    fn skin_correction_significant_for_wide_wire() {
        let f = wire(um(1000.0), um(10.0), um(5.0));
        let rac = ac_resistance(&f, RHO_CU, 10.0 * GHZ);
        let rdc = dc_resistance(&f, RHO_CU);
        assert!(
            rac > 1.3 * rdc,
            "rac {rac} should exceed rdc {rdc} noticeably"
        );
    }

    #[test]
    fn substrate_loss_positive_and_decays_with_depth() {
        let f = wire(um(100.0), um(6.0), um(1.0));
        let near = SubstrateSpec {
            resistivity: 1e-5,
            depth: um(2.0),
        };
        let far = SubstrateSpec {
            resistivity: 1e-5,
            depth: um(20.0),
        };
        let r_near = substrate_loss_resistance(&f, &near, 10.0 * GHZ);
        let r_far = substrate_loss_resistance(&f, &far, 10.0 * GHZ);
        assert!(r_near > 0.0);
        assert!(r_near > r_far, "loss must decay with substrate distance");
    }

    #[test]
    fn substrate_loss_scales_with_length() {
        let sub = SubstrateSpec::heavily_doped();
        let r1 = substrate_loss_resistance(&wire(um(50.0), um(6.0), um(1.0)), &sub, 10.0 * GHZ);
        let r2 = substrate_loss_resistance(&wire(um(100.0), um(6.0), um(1.0)), &sub, 10.0 * GHZ);
        assert!((r2 - 2.0 * r1).abs() < 1e-9 * r2.abs().max(1.0));
    }

    #[test]
    #[should_panic(expected = "resistivity must be positive")]
    fn bad_resistivity_rejected() {
        dc_resistance(&wire(um(10.0), um(1.0), um(1.0)), 0.0);
    }
}
