//! Frequency-dependent impedance extraction — FastHenry's core algorithm.
//!
//! Each conductor is a *bundle* of parallel volume sub-filaments sharing
//! its two terminals. At angular frequency ω the filament-level system is
//!
//! ```text
//! Z_f(ω) = diag(R_fil) + jω·L_partial
//! ```
//!
//! with every filament of conductor `k` held at the terminal voltage
//! `V_k`. Solving `Z_f·I_f = P·V_t` (P the filament→conductor incidence)
//! and summing bundle currents gives the terminal admittance
//! `Y_t = Pᵀ·Z_f⁻¹·P`, whose inverse is the conductor-level impedance
//! matrix `Z_t(ω) = R(ω) + jω·L(ω)`. Skin effect (current crowding to the
//! surface at high frequency → R rises, internal L falls) and proximity
//! effect emerge from the solve — no empirical correction involved.

use crate::inductance::partial_inductance_matrix;
use crate::resistance::dc_resistance;
use vpec_geometry::Filament;
use vpec_numerics::{Complex64, DenseMatrix, LuFactor, NumericsError};

/// A system of conductors, each discretized into a bundle of parallel
/// sub-filaments (see [`crate::volume::try_decompose`]).
#[derive(Debug, Clone)]
pub struct ConductorSystem {
    /// All sub-filaments, flattened.
    filaments: Vec<Filament>,
    /// `conductor_of[i]` = index of the conductor filament `i` belongs to.
    conductor_of: Vec<usize>,
    n_conductors: usize,
    /// Cached partial-inductance matrix over sub-filaments.
    l_partial: DenseMatrix<f64>,
    /// Cached DC resistance per sub-filament.
    r_fil: Vec<f64>,
}

impl ConductorSystem {
    /// Builds the system from per-conductor filament bundles.
    ///
    /// # Panics
    ///
    /// Panics if `bundles` is empty or any bundle is empty.
    pub fn new(bundles: &[Vec<Filament>], resistivity: f64) -> Self {
        assert!(!bundles.is_empty(), "need at least one conductor");
        let mut filaments = Vec::new();
        let mut conductor_of = Vec::new();
        for (k, b) in bundles.iter().enumerate() {
            assert!(!b.is_empty(), "conductor {k} has no filaments");
            for f in b {
                filaments.push(*f);
                conductor_of.push(k);
            }
        }
        let l_partial = partial_inductance_matrix(&filaments);
        let r_fil = filaments
            .iter()
            .map(|f| dc_resistance(f, resistivity))
            .collect();
        ConductorSystem {
            filaments,
            conductor_of,
            n_conductors: bundles.len(),
            l_partial,
            r_fil,
        }
    }

    /// Number of conductors (terminal pairs).
    pub fn conductors(&self) -> usize {
        self.n_conductors
    }

    /// Number of sub-filaments.
    pub fn filaments(&self) -> usize {
        self.filaments.len()
    }

    /// Terminal impedance matrix `Z_t(ω)` at `frequency` (hertz).
    ///
    /// # Errors
    ///
    /// Propagates a singular filament system (cannot occur for physical
    /// geometry with positive resistances).
    pub fn terminal_impedance(
        &self,
        frequency: f64,
    ) -> Result<DenseMatrix<Complex64>, NumericsError> {
        assert!(frequency >= 0.0, "frequency must be nonnegative");
        let n = self.filaments.len();
        let omega = 2.0 * std::f64::consts::PI * frequency;
        let mut z = DenseMatrix::<Complex64>::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let re = if i == j { self.r_fil[i] } else { 0.0 };
                z[(i, j)] = Complex64::new(re, omega * self.l_partial[(i, j)]);
            }
        }
        let lu = LuFactor::new(&z)?;
        // Y_t[k][m] = Σ_{i ∈ k} I_i when conductor m is driven at 1 V.
        let mut y = DenseMatrix::<Complex64>::zeros(self.n_conductors, self.n_conductors);
        let mut rhs = vec![Complex64::ZERO; n];
        for m in 0..self.n_conductors {
            for (i, &c) in self.conductor_of.iter().enumerate() {
                rhs[i] = if c == m {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
            }
            let i_f = lu.solve(&rhs)?;
            for (i, &c) in self.conductor_of.iter().enumerate() {
                y[(c, m)] += i_f[i];
            }
        }
        LuFactor::new(&y)?.inverse()
    }

    /// Effective series resistance and inductance of conductor `k` at
    /// `frequency`: `(R, L)` from `Z_t[k][k] = R + jωL`.
    ///
    /// At `frequency == 0` the inductance is evaluated via a small
    /// finite frequency (1 kHz) where the current is still uniform.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn effective_rl(&self, k: usize, frequency: f64) -> Result<(f64, f64), NumericsError> {
        assert!(k < self.n_conductors, "conductor index out of range");
        let f_eval = if frequency > 0.0 { frequency } else { 1.0e3 };
        let z = self.terminal_impedance(f_eval)?;
        let omega = 2.0 * std::f64::consts::PI * f_eval;
        Ok((z[(k, k)].re, z[(k, k)].im / omega))
    }

    /// Effective mutual inductance between conductors `j` and `k` at
    /// `frequency`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn effective_mutual(
        &self,
        j: usize,
        k: usize,
        frequency: f64,
    ) -> Result<f64, NumericsError> {
        assert!(j < self.n_conductors && k < self.n_conductors);
        let f_eval = if frequency > 0.0 { frequency } else { 1.0e3 };
        let z = self.terminal_impedance(f_eval)?;
        let omega = 2.0 * std::f64::consts::PI * f_eval;
        Ok(z[(j, k)].im / omega)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inductance::{mutual_inductance, self_inductance};
    use crate::volume::try_decompose;
    use vpec_geometry::{um, Axis, GHZ};

    const RHO_CU: f64 = 1.7e-8;

    fn wire(y: f64, w: f64, t: f64) -> Filament {
        Filament::new([0.0, y, 0.0], Axis::X, um(1000.0), w, t)
    }

    #[test]
    fn dc_limit_matches_closed_forms() {
        // A single conductor as one filament: Z at low frequency must
        // reproduce the closed-form R and L.
        let f = wire(0.0, um(1.0), um(1.0));
        let sys = ConductorSystem::new(&[vec![f]], RHO_CU);
        let (r, l) = sys.effective_rl(0, 1.0e3).unwrap();
        assert!((r - dc_resistance(&f, RHO_CU)).abs() < 1e-9 * r);
        assert!((l - self_inductance(&f)).abs() < 1e-6 * l);
    }

    #[test]
    fn bundle_at_low_frequency_matches_dc_resistance() {
        // Decomposed conductor at low frequency: currents distribute
        // uniformly, so R equals the parallel DC combination = ρl/A.
        let f = wire(0.0, um(4.0), um(2.0));
        let subs = try_decompose(&f, 4, 2).unwrap();
        let sys = ConductorSystem::new(&[subs], RHO_CU);
        let (r, _) = sys.effective_rl(0, 1.0e3).unwrap();
        let r_dc = dc_resistance(&f, RHO_CU);
        assert!(
            (r - r_dc).abs() < 1e-3 * r_dc,
            "bundle R {r} vs closed-form {r_dc}"
        );
    }

    #[test]
    fn skin_effect_raises_r_and_lowers_l() {
        // The classic signature: R(f) rises and L(f) falls as current
        // crowds to the surface.
        let f = wire(0.0, um(8.0), um(4.0));
        let subs = try_decompose(&f, 8, 4).unwrap();
        let sys = ConductorSystem::new(&[subs], RHO_CU);
        let (r_lo, l_lo) = sys.effective_rl(0, 1.0e6).unwrap();
        let (r_hi, l_hi) = sys.effective_rl(0, 20.0 * GHZ).unwrap();
        assert!(
            r_hi > 1.3 * r_lo,
            "skin effect must raise resistance: {r_lo} -> {r_hi}"
        );
        assert!(
            l_hi < l_lo,
            "current crowding must reduce inductance: {l_lo} -> {l_hi}"
        );
    }

    #[test]
    fn proximity_effect_couples_conductors() {
        // Two close conductors: the off-diagonal terminal inductance at
        // low frequency matches the filament-level mutual.
        let a = wire(0.0, um(1.0), um(1.0));
        let b = wire(um(3.0), um(1.0), um(1.0));
        let sys = ConductorSystem::new(&[vec![a], vec![b]], RHO_CU);
        let m_eff = sys.effective_mutual(0, 1, 1.0e3).unwrap();
        let m_ref = mutual_inductance(&a, &b);
        assert!(
            (m_eff - m_ref).abs() < 1e-4 * m_ref,
            "terminal mutual {m_eff} vs partial {m_ref}"
        );
    }

    #[test]
    fn impedance_matrix_is_symmetric() {
        let a = wire(0.0, um(2.0), um(1.0));
        let b = wire(um(4.0), um(2.0), um(1.0));
        let sys = ConductorSystem::new(
            &[
                try_decompose(&a, 2, 1).unwrap(),
                try_decompose(&b, 2, 1).unwrap(),
            ],
            RHO_CU,
        );
        let z = sys.terminal_impedance(5.0 * GHZ).unwrap();
        assert!((z[(0, 1)] - z[(1, 0)]).abs() < 1e-9 * z[(0, 1)].abs());
        // Reciprocity + passivity: positive real diagonal.
        assert!(z[(0, 0)].re > 0.0 && z[(1, 1)].re > 0.0);
    }

    #[test]
    fn counts_exposed() {
        let f = wire(0.0, um(2.0), um(2.0));
        let sys = ConductorSystem::new(&[try_decompose(&f, 2, 2).unwrap()], RHO_CU);
        assert_eq!(sys.conductors(), 1);
        assert_eq!(sys.filaments(), 4);
    }

    #[test]
    #[should_panic(expected = "no filaments")]
    fn empty_bundle_rejected() {
        ConductorSystem::new(&[vec![]], RHO_CU);
    }
}
