//! Frequency-aware discretization rules (paper §II-C):
//!
//! * conductors are volume-discretized according to the **skin depth** at
//!   the maximum operating frequency;
//! * wires are longitudinally segmented at **one-tenth of the wavelength**
//!   at the maximum operating frequency.
//!
//! At the paper's 10 GHz maximum with low-k dielectric (εᵣ = 2) the λ/10
//! rule gives ≈ 2.1 mm, so the 1000 µm bus lines of the main experiments
//! need only one segment each — matching the paper's "one segment per
//! line" settings — while multi-segment runs (Table II) subdivide further
//! for accuracy.

/// Vacuum permeability μ₀ (H/m).
pub const MU0: f64 = 4.0e-7 * std::f64::consts::PI;

/// Vacuum permittivity ε₀ (F/m).
pub const EPS0: f64 = 8.8541878128e-12;

/// Speed of light in vacuum (m/s).
pub const C0: f64 = 299_792_458.0;

/// Skin depth `δ = sqrt(ρ / (π f μ₀))` in meters.
///
/// # Panics
///
/// Panics if `frequency` or `resistivity` is not strictly positive.
pub fn skin_depth(resistivity: f64, frequency: f64) -> f64 {
    assert!(frequency > 0.0, "frequency must be positive");
    assert!(resistivity > 0.0, "resistivity must be positive");
    (resistivity / (std::f64::consts::PI * frequency * MU0)).sqrt()
}

/// Wavelength in a dielectric with relative permittivity `eps_r` at
/// `frequency`: `λ = c₀ / (f √εᵣ)`.
///
/// # Panics
///
/// Panics if `frequency` or `eps_r` is not strictly positive.
pub fn wavelength(frequency: f64, eps_r: f64) -> f64 {
    assert!(frequency > 0.0, "frequency must be positive");
    assert!(eps_r > 0.0, "eps_r must be positive");
    C0 / (frequency * eps_r.sqrt())
}

/// Maximum segment length under the λ/10 rule.
pub fn max_segment_length(frequency: f64, eps_r: f64) -> f64 {
    wavelength(frequency, eps_r) / 10.0
}

/// Number of longitudinal segments the λ/10 rule requires for a wire of
/// `length` at `frequency` in a dielectric `eps_r` (at least 1).
pub fn segments_for(length: f64, frequency: f64, eps_r: f64) -> usize {
    let max_len = max_segment_length(frequency, eps_r);
    (length / max_len).ceil().max(1.0) as usize
}

/// Number of conductor volume filaments suggested by the skin-depth rule:
/// 1 while the cross section is within 2δ × 2δ (current still roughly
/// uniform), growing as the skin depth shrinks below the half-dimensions.
pub fn volume_filaments_for(width: f64, thickness: f64, resistivity: f64, frequency: f64) -> usize {
    let delta = skin_depth(resistivity, frequency);
    let nw = (width / (2.0 * delta)).ceil().max(1.0) as usize;
    let nt = (thickness / (2.0 * delta)).ceil().max(1.0) as usize;
    nw * nt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{um, GHZ};

    /// Copper resistivity used throughout the paper (Ωm).
    const RHO_CU: f64 = 1.7e-8;

    #[test]
    fn copper_skin_depth_at_10ghz_is_about_0_66_um() {
        let d = skin_depth(RHO_CU, 10.0 * GHZ);
        assert!((d - 0.656e-6).abs() < 0.02e-6, "got {d}");
    }

    #[test]
    fn wavelength_in_low_k_at_10ghz() {
        let l = wavelength(10.0 * GHZ, 2.0);
        // c/(1e10·√2) ≈ 21.2 mm.
        assert!((l - 21.2e-3).abs() < 0.2e-3, "got {l}");
    }

    #[test]
    fn paper_bus_needs_one_segment() {
        // 1000 µm at 10 GHz, εr=2: λ/10 ≈ 2.1 mm > 1 mm ⇒ 1 segment.
        assert_eq!(segments_for(um(1000.0), 10.0 * GHZ, 2.0), 1);
    }

    #[test]
    fn long_wire_needs_more_segments() {
        assert!(segments_for(10.0e-3, 10.0 * GHZ, 2.0) >= 4);
    }

    #[test]
    fn one_by_one_micron_wire_is_single_filament_at_10ghz() {
        // δ ≈ 0.66 µm ⇒ 2δ ≈ 1.3 µm ≥ both cross-section dimensions.
        assert_eq!(
            volume_filaments_for(um(1.0), um(1.0), RHO_CU, 10.0 * GHZ),
            1
        );
    }

    #[test]
    fn wide_wire_splits_at_high_frequency() {
        assert!(volume_filaments_for(um(10.0), um(2.0), RHO_CU, 100.0 * GHZ) > 4);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_rejected() {
        skin_depth(RHO_CU, 0.0);
    }

    #[test]
    #[should_panic(expected = "eps_r must be positive")]
    fn bad_eps_rejected() {
        wavelength(1e9, 0.0);
    }
}
