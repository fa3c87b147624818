//! The extraction pipeline: [`Layout`] → [`Parasitics`].

use crate::capacitance::{coupling_capacitance, ground_capacitance};
use crate::inductance::{mutual_inductance, partial_inductance_matrix, self_inductance};
use crate::locality::{FilamentIndex, Nearest};
use crate::resistance::{ac_resistance, dc_resistance, substrate_loss_resistance};
use crate::ExtractionConfig;
use std::sync::OnceLock;
use vpec_geometry::{Filament, Layout};
use vpec_numerics::{pool, DenseMatrix, Pool};

/// Minimum filaments per worker before the per-filament tables and the
/// coupling scan go parallel. Commit d2944d8 measured parallel
/// extraction at 0.29–0.88 of serial speed through 224 filaments, so
/// small layouts stay serial.
const EXTRACT_MIN_ITEMS_PER_THREAD: usize = 64;

/// Extracted RLCM parasitics of a layout, indexed by filament in
/// [`Layout::filaments`] order.
///
/// The partial inductances are not stored up front. [`Parasitics::mutual`]
/// evaluates any one entry from the filaments, and
/// [`Parasitics::inductance`] builds the dense `L` on first call and keeps
/// it. The dense models (PEEC, full VPEC, tVPEC) call the latter; the
/// windowed VPEC builders read only the entries their windows need.
#[derive(Debug, Clone)]
pub struct Parasitics {
    filaments: Vec<Filament>,
    index: FilamentIndex,
    inductance: OnceLock<DenseMatrix<f64>>,
    /// `L` came from the caller ([`Parasitics::with_inductance`]) rather
    /// than from the filaments.
    explicit: bool,
    /// Per-filament series resistance (ohms).
    pub resistance: Vec<f64>,
    /// Per-filament capacitance to ground (farads).
    pub cap_ground: Vec<f64>,
    /// Adjacent-pair coupling capacitances `(i, j, farads)` with `i < j`.
    pub cap_coupling: Vec<(usize, usize, f64)>,
    /// Per-filament length (meters) — the `l` of `Î = l·I`, `V̂ = V/l`;
    /// the VPEC scaling is `Ĝ = Dₗ·L⁻¹·Dₗ` with `Dₗ = diag(lengths)`.
    pub lengths: Vec<f64>,
}

impl Parasitics {
    /// Parasitics over `filaments` with a caller-supplied inductance
    /// matrix, e.g. a loop-inductance reduction. Lengths come from the
    /// filaments.
    ///
    /// # Panics
    ///
    /// Panics if `inductance` is not `n×n` for the `n` filaments.
    pub fn from_parts(
        filaments: Vec<Filament>,
        inductance: DenseMatrix<f64>,
        resistance: Vec<f64>,
        cap_ground: Vec<f64>,
        cap_coupling: Vec<(usize, usize, f64)>,
    ) -> Parasitics {
        let n = filaments.len();
        assert!(
            inductance.rows() == n && inductance.cols() == n,
            "inductance matrix must be {n}x{n}"
        );
        Parasitics {
            index: FilamentIndex::new(&filaments),
            lengths: filaments.iter().map(|f| f.length).collect(),
            filaments,
            inductance: OnceLock::from(inductance),
            explicit: true,
            resistance,
            cap_ground,
            cap_coupling,
        }
    }

    /// A copy of these parasitics whose inductance matrix is `inductance`
    /// instead of the one the filaments give (sparsified baselines,
    /// corrupted inputs in tests). [`Parasitics::mutual`] then reads the
    /// new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `inductance` is not `n×n`.
    #[must_use]
    pub fn with_inductance(&self, inductance: DenseMatrix<f64>) -> Parasitics {
        let n = self.len();
        assert!(
            inductance.rows() == n && inductance.cols() == n,
            "inductance matrix must be {n}x{n}"
        );
        Parasitics {
            filaments: self.filaments.clone(),
            index: self.index.clone(),
            inductance: OnceLock::from(inductance),
            explicit: true,
            resistance: self.resistance.clone(),
            cap_ground: self.cap_ground.clone(),
            cap_coupling: self.cap_coupling.clone(),
            lengths: self.lengths.clone(),
        }
    }

    /// Number of filaments.
    pub fn len(&self) -> usize {
        self.lengths.len()
    }

    /// `true` if the layout had no filaments.
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    /// The filaments, in index order.
    pub fn filaments(&self) -> &[Filament] {
        &self.filaments
    }

    /// Dense partial-inductance matrix `L` (henries), symmetric, with
    /// direction signs applied to mutual terms.
    ///
    /// Built from the filaments on the first call (`O(n²)` time and
    /// memory, parallel like [`partial_inductance_matrix`]) and kept, so
    /// every model built on these parasitics shares one build.
    pub fn inductance(&self) -> &DenseMatrix<f64> {
        self.inductance
            .get_or_init(|| partial_inductance_matrix(&self.filaments))
    }

    /// The inductance matrix if the caller supplied it
    /// ([`Parasitics::from_parts`], [`Parasitics::with_inductance`]):
    /// geometry then no longer vouches for its entries.
    pub fn explicit_inductance(&self) -> Option<&DenseMatrix<f64>> {
        self.inductance.get().filter(|_| self.explicit)
    }

    /// Entry `(i, j)` of `L`, bit for bit what [`Parasitics::inductance`]
    /// holds there: read from the dense matrix once it exists, otherwise
    /// evaluated with the argument order of its upper triangle
    /// (`mutual_inductance(&f[min], &f[max])`, `self_inductance` on the
    /// diagonal).
    pub fn mutual(&self, i: usize, j: usize) -> f64 {
        if let Some(l) = self.inductance.get() {
            return l[(i, j)];
        }
        let f = &self.filaments;
        if i == j {
            self_inductance(&f[i])
        } else {
            mutual_inductance(&f[i.min(j)], &f[i.max(j)])
        }
    }

    /// Filaments parallel to filament `i` (the only ones that couple to
    /// it), nearest first by radial distance.
    pub fn nearest(&self, i: usize) -> Nearest<'_> {
        self.index.nearest(&self.filaments, i)
    }

    /// Total capacitance (ground + coupling) attached to filament `i`.
    pub fn total_cap_at(&self, i: usize) -> f64 {
        let mut c = self.cap_ground[i];
        for &(a, b, v) in &self.cap_coupling {
            if a == i || b == i {
                c += v;
            }
        }
        c
    }
}

/// Extracts RLCM parasitics for every filament of `layout` under `config`.
///
/// Follows the paper's recipe: full (dense) inductive coupling between all
/// parallel filament pairs (evaluated on demand, see [`Parasitics`]),
/// capacitive coupling between adjacent pairs only (within
/// `config.cap_coupling_range`), per-filament series resistance with
/// optional skin correction, and lossy-substrate eddy loss lumped into the
/// series resistance when a substrate is configured.
pub fn extract(layout: &Layout, config: &ExtractionConfig) -> Parasitics {
    // Injected fault: a deliberate panic at the earliest pipeline stage,
    // isolated by the engine's catch_unwind request boundary in tests.
    assert!(
        !config.faults.panic_extraction,
        "injected extraction panic (FaultInjection::panic_extraction)"
    );
    let fils = layout.filaments();
    let n = fils.len();

    let nt = pool::threads_for(n, EXTRACT_MIN_ITEMS_PER_THREAD);
    let _sp = vpec_trace::span!(
        "extract",
        "filaments" => n,
        "mode" => if nt > 1 { "parallel" } else { "serial" },
        "workers" => nt,
    );

    // Per-filament tables: independent per entry, mapped in order.
    let tables_span = vpec_trace::span("extract.tables");
    let pool = Pool::with_threads(nt);
    let per_fil = pool.par_map(fils, |_, f| {
        let mut r = if config.skin_effect {
            ac_resistance(f, config.resistivity, config.frequency)
        } else {
            dc_resistance(f, config.resistivity)
        };
        if let Some(sub) = &config.substrate {
            r += substrate_loss_resistance(f, sub, config.frequency);
        }
        let cg = ground_capacitance(f, config.ground_height, config.eps_r);
        (r, cg, f.length)
    });
    let mut resistance = Vec::with_capacity(n);
    let mut cap_ground = Vec::with_capacity(n);
    let mut lengths = Vec::with_capacity(n);
    for (r, cg, len) in per_fil {
        resistance.push(r);
        cap_ground.push(cg);
        lengths.push(len);
    }
    let index = FilamentIndex::new(fils);
    drop(tables_span);

    // Coupling scan: row `i` holds the pairs (i, j > i) within range,
    // found through the index and put in `j` order; flattening rows in
    // index order reproduces the all-pairs scan's list exactly.
    let coupling_span = vpec_trace::span("extract.coupling");
    let cap_coupling: Vec<(usize, usize, f64)> = pool
        .par_map_index(n, |i| {
            let a = &fils[i];
            let mut row = Vec::new();
            index.within(fils, i, config.cap_coupling_range, |j| {
                if j > i {
                    let c = coupling_capacitance(a, &fils[j], config.ground_height, config.eps_r);
                    if c > 0.0 {
                        row.push((i, j, c));
                    }
                }
            });
            row.sort_unstable_by_key(|&(_, j, _)| j);
            row
        })
        .into_iter()
        .flatten()
        .collect();
    drop(coupling_span);

    Parasitics {
        filaments: fils.to_vec(),
        index,
        inductance: OnceLock::new(),
        explicit: false,
        resistance,
        cap_ground,
        cap_coupling,
        lengths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpec_geometry::{um, BusSpec, SpiralSpec};

    #[test]
    fn five_bit_bus_extraction_shapes() {
        let layout = BusSpec::new(5).build();
        let p = extract(&layout, &ExtractionConfig::paper_default());
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.inductance().rows(), 5);
        assert_eq!(p.resistance.len(), 5);
        // 17 Ω per line.
        assert!((p.resistance[0] - 17.0).abs() < 1e-9);
        // Capacitive coupling only between the 4 adjacent pairs.
        assert_eq!(p.cap_coupling.len(), 4);
        for &(i, j, c) in &p.cap_coupling {
            assert_eq!(j, i + 1);
            assert!(c > 0.0);
        }
        // Inductive coupling is dense: all 10 pairs nonzero.
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    assert!(p.inductance()[(i, j)] > 0.0);
                }
            }
        }
    }

    #[test]
    fn coupling_range_limits_cap_pairs() {
        let layout = BusSpec::new(5).build();
        let mut cfg = ExtractionConfig::paper_default();
        cfg.cap_coupling_range = um(7.0); // includes next-adjacent at 6 µm
        let p = extract(&layout, &cfg);
        assert_eq!(p.cap_coupling.len(), 4 + 3);
    }

    #[test]
    fn substrate_increases_resistance() {
        let spiral = SpiralSpec::paper_three_turn();
        let layout = spiral.build();
        let base = extract(&layout, &ExtractionConfig::paper_default());
        let lossy = extract(
            &layout,
            &ExtractionConfig::paper_default()
                .with_substrate(spiral.substrate_spec().expect("paper spiral has substrate")),
        );
        for (a, b) in base.resistance.iter().zip(lossy.resistance.iter()) {
            assert!(b > a, "substrate loss must add series resistance");
        }
    }

    #[test]
    fn spiral_has_negative_mutual_terms() {
        let layout = SpiralSpec::paper_three_turn().build();
        let p = extract(&layout, &ExtractionConfig::paper_default());
        let l = p.inductance();
        let mut negatives = 0;
        for i in 0..l.rows() {
            for j in 0..i {
                if l[(i, j)] < 0.0 {
                    negatives += 1;
                }
            }
        }
        assert!(
            negatives > 0,
            "antiparallel spiral sides must couple negatively"
        );
        // Diagonal still positive.
        for i in 0..l.rows() {
            assert!(l[(i, i)] > 0.0);
        }
    }

    #[test]
    fn total_cap_includes_coupling() {
        let layout = BusSpec::new(3).build();
        let p = extract(&layout, &ExtractionConfig::paper_default());
        // Middle bit has two neighbours.
        assert!(p.total_cap_at(1) > p.total_cap_at(0));
        assert!(p.total_cap_at(1) > p.cap_ground[1]);
    }

    #[test]
    fn multisegment_bus_couples_capacitively_sidewise_only() {
        let layout = BusSpec::new(2).segments(4).build();
        let p = extract(&layout, &ExtractionConfig::paper_default());
        // Segments on the same line are collinear: no cap coupling there;
        // only side-by-side overlapping pairs couple (4 per line pair).
        assert_eq!(p.cap_coupling.len(), 4);
        for &(i, j, _) in &p.cap_coupling {
            // One from each line: indices 0..4 are line 0, 4..8 line 1.
            assert!(i < 4 && j >= 4);
        }
    }
}
