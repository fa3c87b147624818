//! Measuring autotuner for the kernel crossover sizes.
//!
//! The dense kernels dispatch between serial, blocked, and parallel
//! variants on size thresholds. Historically those thresholds were
//! hard-coded constants measured once on a CI host (`ELIM_PAR_MIN_DIM`,
//! three separate `*_MIN_COLS_PER_THREAD` copies, the matmul block
//! sizes); this module replaces them with a [`TuneProfile`] resolved once
//! per process from the `VPEC_TUNE` environment variable:
//!
//! 1. unset / `off` / `default` — the built-in defaults (the old
//!    constants), zero startup cost;
//! 2. `auto` — micro-measure the crossovers at first use (quick mode,
//!    well under a second);
//! 3. a file path — load a profile previously written by `vpec tune`;
//! 4. inline `key=value,key=value` pairs — override individual defaults.
//!
//! An invalid profile never aborts the process: the error is reported on
//! stderr and the defaults apply. `vpec tune [--quick]` runs
//! [`TuneProfile::measure`] explicitly and prints (or writes with `-o`)
//! the profile in the format [`TuneProfile::to_text`] emits, so a
//! deployment can pay the measurement cost once:
//!
//! ```text
//! vpec tune -o vpec.tune     # measure this host
//! VPEC_TUNE=vpec.tune vpec … # every later run loads the profile
//! ```
//!
//! The measurement is honest about parallelism: on a host where
//! [`crate::pool::max_threads`] resolves to 1, the parallel crossovers
//! keep their defaults (they are unreachable) and only the serial
//! blocked/unblocked crossovers are measured.

use crate::cancel::CancelToken;
use crate::pool::{self, Pool};
use crate::rng::XorShift64;
use std::sync::OnceLock;
use std::time::Instant;

/// A threshold meaning "never take this path on this host".
const NEVER: usize = 1 << 20;

/// The crossover sizes the dense kernels dispatch on.
///
/// All values are strictly positive. Sizes are matrix dimensions or
/// column/point counts; see each field. The defaults reproduce the
/// pre-tuner hard-coded constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneProfile {
    /// Minimum independent columns (multi-RHS solves, inverse columns,
    /// matmul output rows, AC-adjacent fan-outs) per worker before those
    /// maps go parallel. Replaces the former `SOLVE_MIN_COLS_PER_THREAD`
    /// / `INVERSE_MIN_COLS_PER_THREAD` / `MATMUL_MIN_ROWS_PER_THREAD`
    /// triplicate (all 64).
    pub par_min_cols: usize,
    /// Minimum matrix dimension before the eliminations parallelize
    /// trailing updates (striped engine or blocked trailing rows).
    pub elim_par_min_dim: usize,
    /// Minimum dimension at which LU takes the blocked panel path.
    pub lu_block_min_dim: usize,
    /// Minimum dimension at which Cholesky takes the blocked panel path.
    pub chol_block_min_dim: usize,
    /// Panel width `nb` of the blocked factorizations.
    pub panel_width: usize,
    /// Minimum AC sweep points per worker before the per-frequency solves
    /// go parallel.
    pub ac_min_points_per_thread: usize,
}

impl Default for TuneProfile {
    fn default() -> Self {
        TuneProfile {
            par_min_cols: 64,
            elim_par_min_dim: pool::ELIM_PAR_MIN_DIM,
            lu_block_min_dim: 64,
            chol_block_min_dim: 64,
            panel_width: 32,
            ac_min_points_per_thread: 8,
        }
    }
}

impl TuneProfile {
    /// Parses a profile from `key = value` lines (a `vpec tune` file) or
    /// comma-separated `key=value` pairs (inline `VPEC_TUNE`). Unlisted
    /// keys keep their defaults; `#` starts a comment.
    ///
    /// # Errors
    ///
    /// A human-readable message for an unknown key, a non-numeric or zero
    /// value, or a malformed pair.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = TuneProfile::default();
        for raw in text.split(['\n', ',']) {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {line:?}"))?;
            let k = k.trim();
            let v: usize = v
                .trim()
                .parse()
                .map_err(|e| format!("bad value for {k}: {e}"))?;
            if v == 0 {
                return Err(format!("{k} must be positive"));
            }
            match k {
                "par_min_cols" => p.par_min_cols = v,
                "elim_par_min_dim" => p.elim_par_min_dim = v,
                "lu_block_min_dim" => p.lu_block_min_dim = v,
                "chol_block_min_dim" => p.chol_block_min_dim = v,
                "panel_width" => p.panel_width = v,
                "ac_min_points_per_thread" => p.ac_min_points_per_thread = v,
                other => return Err(format!("unknown tune key {other:?}")),
            }
        }
        Ok(p)
    }

    /// Serializes the profile in the file format [`TuneProfile::parse`]
    /// reads — one `key = value` per line with a comment header.
    pub fn to_text(&self) -> String {
        format!(
            "# vpec tune profile — load with VPEC_TUNE=<this file>\n\
             par_min_cols = {}\n\
             elim_par_min_dim = {}\n\
             lu_block_min_dim = {}\n\
             chol_block_min_dim = {}\n\
             panel_width = {}\n\
             ac_min_points_per_thread = {}\n",
            self.par_min_cols,
            self.elim_par_min_dim,
            self.lu_block_min_dim,
            self.chol_block_min_dim,
            self.panel_width,
            self.ac_min_points_per_thread,
        )
    }

    /// Micro-measures the crossovers on this host and returns the
    /// resulting profile. `quick` trades resolution for startup latency
    /// (fewer sizes, fewer repetitions) and is what `VPEC_TUNE=auto`
    /// uses; `vpec tune` without `--quick` runs the full grid.
    ///
    /// Measured quantities:
    ///
    /// * `panel_width` — fastest blocked-LU panel width at a
    ///   representative dimension;
    /// * `lu_block_min_dim` / `chol_block_min_dim` — smallest measured
    ///   dimension where the blocked factorization beats the serial loop
    ///   ("never wins" pins the threshold far above any real matrix);
    /// * with more than one worker available: `par_min_cols` from the
    ///   per-column-solve crossover and `elim_par_min_dim` from the
    ///   striped-vs-serial LU crossover. On a single-core host both keep
    ///   their defaults — they are unreachable there, and measuring them
    ///   would only record scheduler noise.
    ///
    /// `ac_min_points_per_thread` always keeps its default: the cost of
    /// one AC point is workload-dependent (matrix size, solver path), so
    /// a synthetic measurement would be dishonest. Override it in the
    /// profile file if a workload measures differently.
    pub fn measure(quick: bool) -> Self {
        let mut p = TuneProfile::default();
        let reps = if quick { 2 } else { 4 };
        let none = CancelToken::none();

        // Panel width: fastest blocked LU at a representative dimension.
        let n_panel: usize = if quick { 96 } else { 160 };
        let m = tune_matrix(n_panel, 0x7E57_0001);
        let mut best = f64::MAX;
        for nb in [16usize, 32, 64] {
            let t = time_min(reps, || {
                let mut d = m.clone();
                pool::lu_eliminate_blocked(&mut d, n_panel, 1, &none, nb)
                    .expect("tune matrix is nonsingular");
                std::hint::black_box(&d);
            });
            if t < best {
                best = t;
                p.panel_width = nb;
            }
        }

        // Blocked-vs-serial crossovers at the tuned panel width.
        let sizes: &[usize] = if quick {
            &[48, 96]
        } else {
            &[32, 48, 64, 96, 128]
        };
        p.lu_block_min_dim = NEVER;
        for &n in sizes {
            let m = tune_matrix(n, 0x7E57_0002);
            let ts = time_min(reps, || {
                let mut d = m.clone();
                pool::lu_eliminate_serial(&mut d, n, &none).expect("nonsingular");
                std::hint::black_box(&d);
            });
            let tb = time_min(reps, || {
                let mut d = m.clone();
                pool::lu_eliminate_blocked(&mut d, n, 1, &none, p.panel_width)
                    .expect("nonsingular");
                std::hint::black_box(&d);
            });
            if tb <= ts {
                p.lu_block_min_dim = n;
                break;
            }
        }
        p.chol_block_min_dim = NEVER;
        for &n in sizes {
            let a = tune_spd(n, 0x7E57_0003);
            let ts = time_min(reps, || {
                let mut g = vec![0.0f64; n * n];
                pool::cholesky_eliminate_serial(&a, &mut g, n, &none).expect("spd");
                std::hint::black_box(&g);
            });
            let tb = time_min(reps, || {
                let mut g = vec![0.0f64; n * n];
                pool::cholesky_eliminate_blocked(&a, &mut g, n, 1, &none, p.panel_width)
                    .expect("spd");
                std::hint::black_box(&g);
            });
            if tb <= ts {
                p.chol_block_min_dim = n;
                break;
            }
        }

        // Parallel crossovers — only measurable with real workers.
        let nt = pool::max_threads();
        if nt > 1 {
            // Per-column crossover: O(n²) triangular-sweep-shaped columns
            // mapped serially vs over the pool.
            let n: usize = if quick { 96 } else { 128 };
            let m = tune_matrix(n, 0x7E57_0004);
            let mut found = None;
            for cols in [8usize, 16, 32, 64, 128] {
                let ts = time_min(reps, || {
                    for j in 0..cols {
                        std::hint::black_box(col_sweep(&m, n, j));
                    }
                });
                let tp = time_min(reps, || {
                    let v = Pool::with_threads(nt).par_map_index(cols, |j| col_sweep(&m, n, j));
                    std::hint::black_box(v);
                });
                if tp < ts {
                    found = Some((cols / nt).max(1));
                    break;
                }
            }
            p.par_min_cols = found.unwrap_or(NEVER);

            // Striped-elimination crossover: smallest dimension where the
            // barrier-synchronized trailing update beats the serial loop.
            let dims: &[usize] = if quick { &[96, 192] } else { &[96, 160, 256, 384] };
            let mut found = None;
            for &n in dims {
                let m = tune_matrix(n, 0x7E57_0005);
                let ts = time_min(reps, || {
                    let mut d = m.clone();
                    pool::lu_eliminate_serial(&mut d, n, &none).expect("nonsingular");
                    std::hint::black_box(&d);
                });
                let tp = time_min(reps, || {
                    let mut d = m.clone();
                    pool::lu_eliminate_striped(&mut d, n, nt, &none).expect("nonsingular");
                    std::hint::black_box(&d);
                });
                if tp < ts {
                    found = Some(n);
                    break;
                }
            }
            p.elim_par_min_dim = found.unwrap_or(NEVER);
        }
        p
    }
}

static PROFILE: OnceLock<TuneProfile> = OnceLock::new();

/// The process-wide tune profile, resolved once from `VPEC_TUNE` (see the
/// module docs for the resolution order). All kernel dispatch thresholds
/// read this, so the choice of code path is stable for the lifetime of
/// the process.
pub fn current() -> &'static TuneProfile {
    PROFILE.get_or_init(resolve)
}

fn resolve() -> TuneProfile {
    let v = match std::env::var("VPEC_TUNE") {
        Ok(v) => v,
        Err(_) => return TuneProfile::default(),
    };
    let v = v.trim();
    match v {
        "" | "off" | "default" => TuneProfile::default(),
        "auto" => TuneProfile::measure(true),
        inline if inline.contains('=') => match TuneProfile::parse(inline) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("VPEC_TUNE: ignoring invalid inline profile ({e}); using defaults");
                TuneProfile::default()
            }
        },
        path => match std::fs::read_to_string(path) {
            Ok(text) => match TuneProfile::parse(&text) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("VPEC_TUNE: ignoring invalid profile {path} ({e}); using defaults");
                    TuneProfile::default()
                }
            },
            Err(e) => {
                eprintln!("VPEC_TUNE: cannot read {path} ({e}); using defaults");
                TuneProfile::default()
            }
        },
    }
}

/// Best-of-`reps` wall time of `f`.
fn time_min(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Deterministic mildly-diagonally-weighted dense matrix.
fn tune_matrix(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = XorShift64::new(seed);
    let mut m = vec![0.0f64; n * n];
    for v in m.iter_mut() {
        *v = rng.range_f64(-1.0, 1.0);
    }
    for i in 0..n {
        m[i * n + i] += 4.0;
    }
    m
}

/// Deterministic s.p.d. matrix (`A·Aᵀ + n·I`).
fn tune_spd(n: usize, seed: u64) -> Vec<f64> {
    let a = tune_matrix(n, seed);
    let mut m = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += a[i * n + k] * a[j * n + k];
            }
            m[i * n + j] = s;
        }
        m[i * n + i] += n as f64;
    }
    m
}

/// One O(n²) forward-sweep-shaped unit of per-column work: the same shape
/// as a triangular solve column, with no dispatch of its own (the
/// measurement must not recurse into the profile being resolved).
fn col_sweep(m: &[f64], n: usize, j: usize) -> f64 {
    let mut x = vec![0.0f64; n];
    for (i, v) in x.iter_mut().enumerate() {
        *v = 1.0 + ((i + j) % 7) as f64;
    }
    for i in 1..n {
        let row = &m[i * n..i * n + i];
        let mut acc = x[i];
        for (a, b) in row.iter().zip(&x[..i]) {
            acc -= a * b;
        }
        x[i] = acc;
    }
    x[n - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_historic_constants() {
        let p = TuneProfile::default();
        assert_eq!(p.par_min_cols, 64);
        assert_eq!(p.elim_par_min_dim, pool::ELIM_PAR_MIN_DIM);
        assert_eq!(p.lu_block_min_dim, 64);
        assert_eq!(p.chol_block_min_dim, 64);
        assert_eq!(p.panel_width, 32);
        assert_eq!(p.ac_min_points_per_thread, 8);
    }

    #[test]
    fn parse_roundtrips_to_text() {
        let p = TuneProfile {
            par_min_cols: 17,
            elim_par_min_dim: 300,
            lu_block_min_dim: 48,
            chol_block_min_dim: 80,
            panel_width: 16,
            ac_min_points_per_thread: 3,
        };
        assert_eq!(TuneProfile::parse(&p.to_text()).unwrap(), p);
    }

    #[test]
    fn parse_accepts_inline_pairs_and_partial_overrides() {
        let p = TuneProfile::parse("panel_width=16, par_min_cols = 32").unwrap();
        assert_eq!(p.panel_width, 16);
        assert_eq!(p.par_min_cols, 32);
        assert_eq!(p.elim_par_min_dim, TuneProfile::default().elim_par_min_dim);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(TuneProfile::parse("panel_width").is_err());
        assert!(TuneProfile::parse("panel_width=zero").is_err());
        assert!(TuneProfile::parse("panel_width=0").is_err());
        assert!(TuneProfile::parse("no_such_key=1").is_err());
    }

    #[test]
    fn quick_measurement_produces_sane_thresholds() {
        let p = TuneProfile::measure(true);
        assert!(p.panel_width == 16 || p.panel_width == 32 || p.panel_width == 64);
        assert!(p.lu_block_min_dim >= 32);
        assert!(p.chol_block_min_dim >= 32);
        assert!(p.par_min_cols >= 1);
        assert!(p.elim_par_min_dim >= 64);
        assert!(p.ac_min_points_per_thread >= 1);
    }

    #[test]
    fn current_is_stable_across_calls() {
        let a = current() as *const TuneProfile;
        let b = current() as *const TuneProfile;
        assert_eq!(a, b);
    }
}
