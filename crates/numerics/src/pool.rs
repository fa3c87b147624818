//! Scoped worker-pool primitives for the parallel numerics layer.
//!
//! The workspace is hermetic (no rayon), so this module provides the
//! minimal set of data-parallel building blocks the hot paths need, built
//! on [`std::thread::scope`]:
//!
//! * [`Pool::par_chunks_mut`] — disjoint mutable chunks of a slice
//!   (row-partitioned matrix assembly, the column blocks of the SPD
//!   inverse's factor `G⁻¹`);
//! * [`Pool::par_map`] / [`Pool::par_map_index`] — independent map over
//!   items or indices (per-frequency AC solves, per-filament parasitics,
//!   per-window wVPEC solves, the SPD inverse's row panels);
//! * [`cholesky_eliminate_cancel`] — the dense SPD elimination used by
//!   [`crate::Cholesky`], dispatching between a serial loop and a
//!   cache-blocked panel factorization with a row-parallel trailing
//!   update on the size thresholds below.
//!
//! Dense LU is not here: no MNA system and no inversion of `L` uses it,
//! and [`crate::LuFactor`] runs its own serial elimination.
//!
//! # Thread count
//!
//! The worker count comes from, in priority order: a process-wide override
//! ([`set_threads`], used by the CLI `--threads` flag), the `VPEC_THREADS`
//! environment variable, and [`std::thread::available_parallelism`].
//! A count of 1 is a strict serial fallback: every primitive runs inline
//! on the caller's thread with no spawning.
//!
//! # Determinism
//!
//! Every parallel path is **bit-compatible** with its serial counterpart:
//! work is partitioned into units whose per-element arithmetic runs in
//! exactly the serial order, and units write disjoint memory. Results are
//! therefore identical for any thread count (verified by the
//! `par_equivalence` test suite).

use crate::cancel::CancelToken;
use crate::kernel;
use crate::NumericsError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Minimum matrix dimension before the blocked Cholesky splits its
/// trailing update across workers.
///
/// Below this the coordination traffic of the parallel update dominates
/// the O(n³) arithmetic: commit d2944d8 measured striped-LU "speedups"
/// of 0.07 at n = 96 and 0.30 at n = 224 against the serial loop, so the
/// crossover sits above both.
pub const ELIM_PAR_MIN_DIM: usize = 256;

/// Minimum independent columns per worker before the SPD inverse
/// ([`crate::Cholesky::inverse_entries`]) goes parallel. On a 2-vCPU
/// Xeon, forced to 2 workers at every size (DESIGN §12.2), the inverse
/// breaks even from about 160 columns (2.7–3.8× serial time at 64,
/// 1.0–1.2× at 128); the value 64 was chosen when the LU multi-column
/// solve and the matmul also went parallel, and re-tuning it is a change
/// of its own. Feed it to [`threads_for`].
pub const PAR_MIN_COLS: usize = 64;

/// Minimum dimension at which Cholesky takes the blocked panel path
/// (commit c7453dd) instead of the serial loop. Six measuring runs on one
/// 2-vCPU host put the crossover anywhere from 32 to 96, with no stable
/// winner over this value.
pub const BLOCK_MIN_DIM: usize = 64;

/// Panel width `nb` of the blocked Cholesky (commit c7453dd). The same
/// six runs picked 64, 16, 16, 32, 32 and 32: no width beat this one
/// consistently.
pub const PANEL_WIDTH: usize = 32;

/// The elimination mode [`cholesky_eliminate_cancel`] picks for an
/// `n × n` matrix — `"blocked"` or `"serial"`. Exposed so callers can
/// record the chosen mode in trace spans.
pub fn elim_mode(n: usize) -> &'static str {
    if n >= BLOCK_MIN_DIM {
        "blocked"
    } else {
        "serial"
    }
}

/// Upper bound on the worker count — far above any sane machine, it only
/// guards against `VPEC_THREADS=1000000` exhausting process resources.
/// Public so the CLI can reject `--threads` values above it at parse time
/// with a clear message instead of clamping silently here.
pub const MAX_WORKERS: usize = 256;

/// Sets a process-wide worker-count override (the CLI `--threads` flag).
///
/// `0` clears the override, restoring the `VPEC_THREADS` /
/// `available_parallelism` resolution.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n.min(MAX_WORKERS), Ordering::Relaxed);
}

fn hardware_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Resolves the effective worker count: [`set_threads`] override first,
/// then the `VPEC_THREADS` environment variable, then
/// [`std::thread::available_parallelism`]. Always at least 1.
pub fn max_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("VPEC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n.min(MAX_WORKERS);
            }
        }
    }
    hardware_threads()
}

/// Worker count for a task of `rows` independent row-sized units, keeping
/// at least `min_rows_per_thread` units per worker so tiny problems stay
/// serial (spawn overhead would dominate).
pub fn threads_for(rows: usize, min_rows_per_thread: usize) -> usize {
    let nt = max_threads();
    if nt <= 1 || min_rows_per_thread == 0 {
        return 1;
    }
    (rows / min_rows_per_thread).clamp(1, nt)
}

/// A lightweight handle carrying a worker count. Construction is free —
/// the "pool" spins up scoped workers per operation and joins them before
/// returning, so there is no persistent state to manage and borrowed data
/// can flow into the closures freely.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool using the globally resolved worker count ([`max_threads`]).
    pub fn global() -> Self {
        Pool {
            threads: max_threads(),
        }
    }

    /// A pool with an explicit worker count (clamped to at least 1).
    /// `Pool::with_threads(1)` is the deterministic serial fallback.
    pub fn with_threads(n: usize) -> Self {
        Pool {
            threads: n.clamp(1, MAX_WORKERS),
        }
    }

    /// A strictly serial pool (equivalent to `with_threads(1)`).
    pub fn serial() -> Self {
        Pool { threads: 1 }
    }

    /// The worker count this pool runs with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to disjoint consecutive chunks of `data`, `chunk_len`
    /// elements each (the last chunk may be shorter). `f` receives the
    /// element offset of the chunk start. Chunks are distributed
    /// round-robin over the workers so triangular per-chunk costs stay
    /// balanced. Serial fallback iterates chunks in order.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be positive");
        if self.threads <= 1 || data.len() <= chunk_len {
            for (k, c) in data.chunks_mut(chunk_len).enumerate() {
                f(k * chunk_len, c);
            }
            return;
        }
        let nt = self.threads.min(data.len().div_ceil(chunk_len));
        let mut lists: Vec<Vec<(usize, &mut [T])>> = (0..nt).map(|_| Vec::new()).collect();
        for (k, c) in data.chunks_mut(chunk_len).enumerate() {
            lists[k % nt].push((k * chunk_len, c));
        }
        let f = &f;
        let parent = vpec_trace::current_span();
        std::thread::scope(|s| {
            for list in lists {
                s.spawn(move || {
                    let _link = vpec_trace::parent_scope(parent);
                    for (off, c) in list {
                        f(off, c);
                    }
                });
            }
        });
    }

    /// Maps `f` over `items`, returning results in item order. `f`
    /// receives `(index, &item)`.
    ///
    /// Workers claim items one at a time from a shared cursor, so a
    /// worker that drew cheap items takes more of them (an AC sweep's
    /// points differ in cost by up to 2×). Each result is computed by the
    /// same call in any schedule, so the output does not depend on the
    /// worker count.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let n = items.len();
        let nt = self.threads.min(n);
        // The next unclaimed index. It publishes no data (results come back
        // through the joins), so its accesses are relaxed.
        let cursor = AtomicUsize::new(0);
        let (f, cursor) = (&f, &cursor);
        let parent = vpec_trace::current_span();
        // Per worker: the (index, result) pairs it claimed.
        let claimed: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..nt)
                .map(|_| {
                    s.spawn(move || {
                        let _link = vpec_trace::parent_scope(parent);
                        let mut done = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(t) = items.get(i) else { break };
                            done.push((i, f(i, t)));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        for done in claimed {
            for (i, r) in done {
                out[i] = Some(r);
            }
        }
        filled(out)
    }

    /// Maps `f` over the index range `0..n`, returning results in index
    /// order, without materializing the indices.
    pub fn par_map_index<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads <= 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let chunk = n.div_ceil(self.threads * 4).max(1);
        let nt = self.threads.min(n.div_ceil(chunk));
        // Per worker: (index offset, output chunk).
        type IndexChunk<'a, R> = (usize, &'a mut [Option<R>]);
        let mut lists: Vec<Vec<IndexChunk<'_, R>>> = (0..nt).map(|_| Vec::new()).collect();
        for (k, oc) in out.chunks_mut(chunk).enumerate() {
            lists[k % nt].push((k * chunk, oc));
        }
        let f = &f;
        let parent = vpec_trace::current_span();
        std::thread::scope(|s| {
            for list in lists {
                s.spawn(move || {
                    let _link = vpec_trace::parent_scope(parent);
                    for (base, oc) in list {
                        for (i, o) in oc.iter_mut().enumerate() {
                            *o = Some(f(base + i));
                        }
                    }
                });
            }
        });
        filled(out)
    }
}

/// The results of a joined `par_map`/`par_map_index` scope, in order.
#[expect(
    clippy::expect_used,
    reason = "every index went to exactly one worker (a chunk of `par_map_index`, a cursor \
              claim of `par_map`) and the scope joined them all (re-raising any worker panic), \
              so every slot is filled"
)]
fn filled<R>(out: Vec<Option<R>>) -> Vec<R> {
    out.into_iter()
        .map(|o| o.expect("all chunks were processed"))
        .collect()
}

/// Workers for the trailing update of a blocked elimination: all of
/// `threads` from [`ELIM_PAR_MIN_DIM`] up, one below it.
fn elim_workers(n: usize, threads: usize) -> usize {
    if n >= ELIM_PAR_MIN_DIM {
        threads.clamp(1, MAX_WORKERS)
    } else {
        1
    }
}

/// In-place Cholesky of a symmetric positive-definite matrix: reads the
/// lower triangle of the row-major `n × n` slice `a` and fills the dense
/// lower-triangular factor into `g` (which must be zeroed). Below
/// [`BLOCK_MIN_DIM`] this runs the serial left-looking loop; from there
/// on, the blocked panel factorization, whose trailing update goes
/// parallel from [`ELIM_PAR_MIN_DIM`] up. The blocked path is
/// audited-close to the serial loop and identical for any thread count. The
/// token is polled once per elimination column (serial and blocked paths
/// alike) and a set token aborts with [`NumericsError::Cancelled`],
/// leaving `g` partially filled.
///
/// # Errors
///
/// [`NumericsError::NotPositiveDefinite`] if a diagonal pivot is not
/// strictly positive and finite; [`NumericsError::Cancelled`] on
/// cancellation.
///
/// # Panics
///
/// Panics if the slice lengths are not `n * n`.
pub fn cholesky_eliminate_cancel(
    a: &[f64],
    g: &mut [f64],
    n: usize,
    threads: usize,
    cancel: &CancelToken,
) -> Result<(), NumericsError> {
    assert_eq!(a.len(), n * n, "cholesky_eliminate_cancel: shape mismatch");
    assert_eq!(g.len(), n * n, "cholesky_eliminate_cancel: shape mismatch");
    if n < BLOCK_MIN_DIM {
        return cholesky_eliminate_serial(a, g, n, cancel);
    }
    // The blocked panel factorization reassociates the left-looking
    // prefix dots (per-block partials, four accumulators), so it is
    // *audited-close* to the serial loop rather than bit-identical — but
    // the dispatch depends only on `n`, and the row-partitioned trailing
    // update is deterministic for any worker count, so repeated runs and
    // thread sweeps agree exactly.
    cholesky_eliminate_blocked(a, g, n, elim_workers(n, threads), cancel, PANEL_WIDTH)
}

/// Dot of the first `j` entries of two factor rows — the subtracted term
/// of the serial left-looking Cholesky.
#[inline]
fn chol_partial_dot(gi: &[f64], gj: &[f64], j: usize) -> f64 {
    let mut s = 0.0;
    for (x, y) in gi[..j].iter().zip(gj[..j].iter()) {
        s += x * y;
    }
    s
}

fn cholesky_eliminate_serial(
    a: &[f64],
    g: &mut [f64],
    n: usize,
    cancel: &CancelToken,
) -> Result<(), NumericsError> {
    for j in 0..n {
        if cancel.is_cancelled() {
            return Err(NumericsError::Cancelled {
                op: "cholesky factor",
            });
        }
        let gj = &g[j * n..j * n + n];
        let d = a[j * n + j] - chol_partial_dot(gj, gj, j);
        if d <= 0.0 || !d.is_finite() {
            return Err(NumericsError::NotPositiveDefinite { row: j });
        }
        let dj = d.sqrt();
        g[j * n + j] = dj;
        let (top, below) = g.split_at_mut((j + 1) * n);
        let gj = &top[j * n..];
        for (di, gi) in below.chunks_mut(n).enumerate() {
            let i = j + 1 + di;
            let s = a[i * n + j] - chol_partial_dot(gi, gj, j);
            gi[j] = s / dj;
        }
    }
    Ok(())
}

/// Blocked left-looking Cholesky: copies the lower triangle of `a` into
/// `g`, factors `nb`-column panels with block-local prefix dots, then
/// subtracts each finalized panel from the trailing submatrix as
/// four-accumulator row dots ([`kernel::dot4`]) with rows distributed
/// over `threads` workers.
///
/// **Audited-close, not bit-identical**, to [`cholesky_eliminate_serial`]:
/// splitting the prefix dot into per-block partial sums (and `dot4`'s
/// four accumulators) reassociates the floating-point summation. The
/// reassociation is fixed by `n`, `nb`, and the input alone — rows are
/// partitioned whole, so the result is the same for any worker count.
///
/// Numerical class: audited-close.
#[expect(
    clippy::disallowed_methods,
    reason = "Numerical class: audited-close (block-split prefix dots and four-accumulator row dots)"
)]
fn cholesky_eliminate_blocked(
    a: &[f64],
    g: &mut [f64],
    n: usize,
    threads: usize,
    cancel: &CancelToken,
    nb: usize,
) -> Result<(), NumericsError> {
    assert_eq!(a.len(), n * n, "cholesky_eliminate_blocked: shape mismatch");
    assert_eq!(g.len(), n * n, "cholesky_eliminate_blocked: shape mismatch");
    let nb = nb.max(1);
    let pool = Pool::with_threads(threads.max(1));
    // Work in place: seed g's lower triangle with a's, then subtract block
    // contributions as panels finalize. The upper triangle stays zeroed.
    for i in 0..n {
        g[i * n..i * n + i + 1].copy_from_slice(&a[i * n..i * n + i + 1]);
    }
    let mut p = 0;
    while p < n {
        let pend = (p + nb).min(n);
        // Panel: left-looking within the block — contributions of columns
        // < p were already subtracted by earlier trailing updates, so the
        // prefix dots only span the block-local columns p..j.
        for j in p..pend {
            if cancel.is_cancelled() {
                return Err(NumericsError::Cancelled {
                    op: "cholesky factor",
                });
            }
            let gj = &g[j * n + p..j * n + j];
            let d = g[j * n + j] - kernel::dot4(gj, gj);
            if d <= 0.0 || !d.is_finite() {
                return Err(NumericsError::NotPositiveDefinite { row: j });
            }
            let dj = d.sqrt();
            g[j * n + j] = dj;
            let (top, below) = g.split_at_mut((j + 1) * n);
            let gj = &top[j * n + p..j * n + j];
            for gi in below.chunks_mut(n) {
                let s = gi[j] - kernel::dot4(&gi[p..j], gj);
                gi[j] = s / dj;
            }
        }
        if pend == n {
            break;
        }
        // Trailing update: C[i][j] -= ⟨B_i, B_j⟩ over the panel columns,
        // where B is the finalized factor block (rows pend..n, columns
        // p..pend). Workers write disjoint rows but read each other's B
        // rows, so B is copied out contiguously and shared read-only.
        let width = pend - p;
        let rows = n - pend;
        let mut bpanel = vec![0.0f64; rows * width];
        for r in 0..rows {
            let src = (pend + r) * n + p;
            bpanel[r * width..(r + 1) * width].copy_from_slice(&g[src..src + width]);
        }
        let bp: &[f64] = &bpanel;
        let trail = &mut g[pend * n..];
        pool.par_chunks_mut(trail, n, |off, row| {
            let r = off / n;
            let bi = &bp[r * width..(r + 1) * width];
            for c in 0..=r {
                let bj = &bp[c * width..(c + 1) * width];
                row[pend + c] -= kernel::dot4(bi, bj);
            }
        });
        p = pend;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64;

    #[test]
    fn thread_resolution_is_positive() {
        assert!(max_threads() >= 1);
        assert!(Pool::global().threads() >= 1);
        assert_eq!(Pool::serial().threads(), 1);
        assert_eq!(Pool::with_threads(0).threads(), 1);
        assert_eq!(Pool::with_threads(7).threads(), 7);
    }

    #[test]
    fn threads_for_keeps_small_problems_serial() {
        assert_eq!(threads_for(1, 32), 1);
        assert_eq!(threads_for(10, 32), 1);
        assert!(threads_for(10_000, 32) >= 1);
        assert_eq!(threads_for(100, 0), 1);
    }

    #[test]
    fn par_chunks_mut_matches_serial_fill() {
        let n = 137; // deliberately not a multiple of any chunk size
        let fill = |off: usize, c: &mut [u64]| {
            for (i, v) in c.iter_mut().enumerate() {
                *v = ((off + i) as u64).wrapping_mul(0x9E37_79B9);
            }
        };
        let mut reference = vec![0u64; n];
        Pool::serial().par_chunks_mut(&mut reference, 8, fill);
        for nt in [2, 3, 8] {
            let mut data = vec![0u64; n];
            Pool::with_threads(nt).par_chunks_mut(&mut data, 8, fill);
            assert_eq!(data, reference, "thread count {nt}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..101).collect();
        let serial = Pool::serial().par_map(&items, |i, &x| i * 1000 + x * x);
        for nt in [2, 5, 8] {
            let par = Pool::with_threads(nt).par_map(&items, |i, &x| i * 1000 + x * x);
            assert_eq!(par, serial, "thread count {nt}");
        }
    }

    #[test]
    fn par_map_index_matches_map() {
        let serial: Vec<usize> = (0..97).map(|i| i * i).collect();
        for nt in [1, 2, 8] {
            let par = Pool::with_threads(nt).par_map_index(97, |i| i * i);
            assert_eq!(par, serial, "thread count {nt}");
        }
    }

    fn random_matrix(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = XorShift64::new(seed);
        let mut m = vec![0.0f64; n * n];
        for v in m.iter_mut() {
            *v = rng.range_f64(-1.0, 1.0);
        }
        // Mildly diagonally weighted to stay comfortably non-singular.
        for i in 0..n {
            m[i * n + i] += 4.0;
        }
        m
    }

    fn random_spd(n: usize, seed: u64) -> Vec<f64> {
        // A·Aᵀ + n·I is s.p.d. for any A.
        let a = random_matrix(n, seed);
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

    #[test]
    fn blocked_cholesky_is_close_to_serial_and_thread_invariant() {
        for n in [6, 33, 64, 97] {
            let a = random_spd(n, 17);
            let mut reference = vec![0.0f64; n * n];
            cholesky_eliminate_serial(&a, &mut reference, n, &CancelToken::none()).unwrap();
            let mut base = vec![0.0f64; n * n];
            cholesky_eliminate_blocked(&a, &mut base, n, 1, &CancelToken::none(), 8).unwrap();
            // Audited-close to serial: the blocked panels reassociate the
            // prefix dots, so compare against a scaled tolerance.
            let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for (x, y) in base.iter().zip(&reference) {
                assert!(
                    (x - y).abs() <= 1e-12 * scale.max(1.0),
                    "blocked Cholesky drifted at n={n}: {x} vs {y}"
                );
            }
            // Exactly thread-count- and rerun-invariant.
            for nt in [2, 8] {
                let mut g = vec![0.0f64; n * n];
                cholesky_eliminate_blocked(&a, &mut g, n, nt, &CancelToken::none(), 8).unwrap();
                assert_eq!(g, base, "blocked Cholesky differs at n={n} nt={nt}");
            }
        }
    }

    #[test]
    fn blocked_cholesky_rejects_indefinite() {
        let n = 9;
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        a[4 * n + 4] = -1.0;
        let mut g = vec![0.0f64; n * n];
        match cholesky_eliminate_blocked(&a, &mut g, n, 3, &CancelToken::none(), 4) {
            Err(NumericsError::NotPositiveDefinite { row }) => assert_eq!(row, 4),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_token_aborts_blocked_eliminations() {
        let token = CancelToken::new();
        token.cancel();
        let n = 16;
        let a = random_spd(n, 29);
        let mut g = vec![0.0f64; n * n];
        assert!(matches!(
            cholesky_eliminate_blocked(&a, &mut g, n, 2, &token, 4),
            Err(NumericsError::Cancelled { .. })
        ));
    }

    #[test]
    fn cancelled_token_aborts_eliminations() {
        let token = CancelToken::new();
        token.cancel();
        let n = 12;
        let a = random_spd(n, 7);
        let mut g = vec![0.0f64; n * n];
        assert!(matches!(
            cholesky_eliminate_cancel(&a, &mut g, n, 1, &token),
            Err(NumericsError::Cancelled { .. })
        ));
    }
}
