//! Scoped worker-pool primitives for the parallel numerics layer.
//!
//! The workspace is hermetic (no rayon), so this module provides the
//! minimal set of data-parallel building blocks the hot paths need, built
//! on [`std::thread::scope`]:
//!
//! * [`Pool::par_chunks_mut`] — disjoint mutable chunks of a slice
//!   (row-partitioned matrix assembly, row-parallel matmul);
//! * [`Pool::par_map`] / [`Pool::par_map_index`] — independent map over
//!   items or indices (per-column inverses, per-frequency AC solves,
//!   per-filament parasitics);
//! * [`lu_eliminate_cancel`] / [`cholesky_eliminate_cancel`] — dense
//!   eliminations used by [`crate::LuFactor`] and [`crate::Cholesky`],
//!   dispatching between a serial loop and cache-blocked panel
//!   factorizations with four-wide unrolled trailing updates on the size
//!   thresholds below.
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
use crate::{NumericsError, Scalar};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Minimum matrix dimension before the blocked eliminations split their
/// trailing updates across workers.
///
/// Below this the coordination traffic of the parallel update dominates
/// the O(n³) arithmetic: commit d2944d8 measured striped-LU "speedups"
/// of 0.07 at n = 96 and 0.30 at n = 224 against the serial loop, so the
/// crossover sits above both.
pub const ELIM_PAR_MIN_DIM: usize = 256;

/// Minimum independent columns (or rows) per worker before the multi-RHS
/// solve, inverse, and matmul paths go parallel. Time on 2 workers over
/// time serial, forced to 2 workers at every size, on a 2-vCPU Xeon
/// (DESIGN §12.2): the blocked SPD inverse loses up to 160 columns (1.5–2.3×
/// at 64, ~1.1× at 96–128), but `LuFactor::solve_matrix` wins from 64
/// (0.89–0.95) and the matmul from 96 (0.7–0.8), so the constant stays at
/// 64. Feed it to [`threads_for`].
pub const PAR_MIN_COLS: usize = 64;

/// Minimum dimension at which LU and Cholesky take the blocked panel
/// path (commit c7453dd) instead of the serial loop. Six measuring runs
/// on one 2-vCPU host put the crossover anywhere from 32 to 96, with no
/// stable winner over this value.
pub const BLOCK_MIN_DIM: usize = 64;

/// Panel width `nb` of the blocked factorizations (commit c7453dd). The
/// same six runs picked 64, 16, 16, 32, 32 and 32: no width beat this one
/// consistently.
pub const PANEL_WIDTH: usize = 32;

/// The elimination mode [`lu_eliminate_cancel`] and
/// [`cholesky_eliminate_cancel`] pick for an `n × n` matrix — `"blocked"`
/// or `"serial"`. Exposed so callers can record the chosen mode in trace
/// spans.
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
            vpec_trace::counter_add("pool.dispatch.serial", 1);
            for (k, c) in data.chunks_mut(chunk_len).enumerate() {
                f(k * chunk_len, c);
            }
            return;
        }
        vpec_trace::counter_add("pool.dispatch.parallel", 1);
        let nt = self.threads.min(data.len().div_ceil(chunk_len));
        let mut lists: Vec<Vec<(usize, &mut [T])>> = (0..nt).map(|_| Vec::new()).collect();
        for (k, c) in data.chunks_mut(chunk_len).enumerate() {
            lists[k % nt].push((k * chunk_len, c));
        }
        let f = &f;
        let parent = vpec_trace::current_span();
        std::thread::scope(|s| {
            for list in lists {
                vpec_trace::record_value("pool.tasks_per_worker", list.len() as f64);
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
            vpec_trace::counter_add("pool.dispatch.serial", 1);
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        vpec_trace::counter_add("pool.dispatch.parallel", 1);
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
            vpec_trace::record_value("pool.tasks_per_worker", done.len() as f64);
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
            vpec_trace::counter_add("pool.dispatch.serial", 1);
            return (0..n).map(f).collect();
        }
        vpec_trace::counter_add("pool.dispatch.parallel", 1);
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
                vpec_trace::record_value("pool.tasks_per_worker", list.len() as f64);
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

/// In-place LU elimination with partial pivoting over a row-major
/// `n × n` slice. Returns the row permutation (`perm[k]` = the original
/// row now in position `k`) and the permutation sign.
///
/// Below [`BLOCK_MIN_DIM`] this runs the plain serial right-looking
/// elimination; from there on, the blocked panel factorization, whose
/// trailing update goes parallel from [`ELIM_PAR_MIN_DIM`] up. Both are
/// bit-identical to the serial loop for any thread count. The token is
/// polled once per elimination column (serial and blocked paths alike)
/// and a set token aborts with [`NumericsError::Cancelled`], leaving
/// `data` in an unspecified partially-eliminated state.
///
/// # Errors
///
/// [`NumericsError::Singular`] if a pivot column is exactly zero at or
/// below the diagonal; [`NumericsError::Cancelled`] on cancellation.
///
/// # Panics
///
/// Panics if `data.len() != n * n`.
pub fn lu_eliminate_cancel<T: Scalar>(
    data: &mut [T],
    n: usize,
    threads: usize,
    cancel: &CancelToken,
) -> Result<(Vec<usize>, f64), NumericsError> {
    assert_eq!(data.len(), n * n, "lu_eliminate_cancel: shape mismatch");
    if n < BLOCK_MIN_DIM {
        vpec_trace::counter_add("pool.elim.serial", 1);
        return lu_eliminate_serial(data, n, cancel);
    }
    // Blocked panel factorization wins once the trailing update is large
    // enough to amortize the panel bookkeeping; its per-element operation
    // sequence matches the serial loop exactly (see the proof sketch at
    // [`lu_eliminate_blocked`]), so the dispatch threshold cannot change
    // results. Workers only parallelize the row-disjoint trailing update,
    // which is bit-identical at any count.
    vpec_trace::counter_add("pool.elim.blocked", 1);
    lu_eliminate_blocked(data, n, elim_workers(n, threads), cancel, PANEL_WIDTH)
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

/// One trailing-row update of the right-looking LU: computes and stores
/// the multiplier, then `row[k+1..] -= factor · urow[k+1..]`. Shared by
/// the serial and blocked paths so their arithmetic is identical.
#[inline]
fn lu_update_row<T: Scalar>(row: &mut [T], urow: &[T], k: usize, pivot: T) {
    let factor = row[k] / pivot;
    row[k] = factor;
    if factor.is_zero() {
        return;
    }
    for (rj, &uj) in row[k + 1..].iter_mut().zip(urow[k + 1..].iter()) {
        *rj -= factor * uj;
    }
}

fn lu_eliminate_serial<T: Scalar>(
    data: &mut [T],
    n: usize,
    cancel: &CancelToken,
) -> Result<(Vec<usize>, f64), NumericsError> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut perm_sign = 1.0f64;
    for k in 0..n {
        if cancel.is_cancelled() {
            return Err(NumericsError::Cancelled { op: "lu factor" });
        }
        // Partial pivoting: largest modulus in column k at or below row k.
        let mut pivot_row = k;
        let mut pivot_mag = data[k * n + k].modulus();
        for i in (k + 1)..n {
            let mag = data[i * n + k].modulus();
            if mag > pivot_mag {
                pivot_mag = mag;
                pivot_row = i;
            }
        }
        if pivot_mag == 0.0 {
            return Err(NumericsError::Singular { step: k });
        }
        if pivot_row != k {
            perm.swap(k, pivot_row);
            perm_sign = -perm_sign;
            let (a, b) = data.split_at_mut(pivot_row * n);
            a[k * n..k * n + n].swap_with_slice(&mut b[..n]);
        }
        let (top, trailing) = data.split_at_mut((k + 1) * n);
        let urow = &top[k * n..];
        let pivot = urow[k];
        for row in trailing.chunks_mut(n) {
            lu_update_row(row, urow, k, pivot);
        }
    }
    Ok((perm, perm_sign))
}

/// Right-looking blocked LU with partial pivoting: panel factorization of
/// `nb` columns (updates restricted to the panel), then the deferred
/// updates to the remaining columns — U12 rows by ascending elimination
/// step, and the trailing submatrix four steps per sweep ([`kernel::sub4`])
/// with rows distributed over `threads` workers.
///
/// **Bit-identical to [`lu_eliminate_serial`]** (up to the sign of exact
/// zeros): every element receives the same sequence of individually
/// rounded `c -= factor·u` operations in the same ascending-step order —
/// deferring updates to columns outside the panel only reorders
/// operations on *disjoint* elements, and pivot columns live inside the
/// panel so pivot choices coincide. The parallel trailing update
/// partitions whole rows, so results do not depend on the worker count.
///
/// Numerical class: bit-identical.
fn lu_eliminate_blocked<T: Scalar>(
    data: &mut [T],
    n: usize,
    threads: usize,
    cancel: &CancelToken,
    nb: usize,
) -> Result<(Vec<usize>, f64), NumericsError> {
    assert_eq!(data.len(), n * n, "lu_eliminate_blocked: shape mismatch");
    let nb = nb.max(1);
    let pool = Pool::with_threads(threads.max(1));
    let mut perm: Vec<usize> = (0..n).collect();
    let mut perm_sign = 1.0f64;
    let mut p = 0;
    while p < n {
        let pend = (p + nb).min(n);
        // Panel factorization: pivot search and full-row swaps exactly as
        // in the serial loop, rank-1 updates restricted to the panel
        // columns (the rest of each row is updated after the panel).
        for k in p..pend {
            if cancel.is_cancelled() {
                return Err(NumericsError::Cancelled { op: "lu factor" });
            }
            let mut pivot_row = k;
            let mut pivot_mag = data[k * n + k].modulus();
            for i in (k + 1)..n {
                let mag = data[i * n + k].modulus();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if pivot_mag == 0.0 {
                return Err(NumericsError::Singular { step: k });
            }
            if pivot_row != k {
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
                let (a, b) = data.split_at_mut(pivot_row * n);
                a[k * n..k * n + n].swap_with_slice(&mut b[..n]);
            }
            let (top, trailing) = data.split_at_mut((k + 1) * n);
            let urow = &top[k * n..k * n + pend];
            let pivot = urow[k];
            for row in trailing.chunks_mut(n) {
                lu_update_row(&mut row[..pend], urow, k, pivot);
            }
        }
        if pend == n {
            break;
        }
        // U12: the deferred updates to columns pend..n of the panel rows,
        // applied in ascending elimination-step order (row p needs none).
        for m in (p + 1)..pend {
            let (top, rest) = data.split_at_mut(m * n);
            let row_m = &mut rest[..n];
            for s in p..m {
                let f = row_m[s];
                if f.is_zero() {
                    continue;
                }
                let us = &top[s * n + pend..s * n + n];
                for (c, &u) in row_m[pend..].iter_mut().zip(us) {
                    *c -= f * u;
                }
            }
        }
        // Trailing update: rows pend..n, columns pend..n receive the
        // panel's elimination steps four at a time — one load/store of
        // each output element covers four steps, still in ascending-step
        // order with one rounded operation per term. Rows are independent,
        // so the worker partition cannot affect results.
        let (top, trail) = data.split_at_mut(pend * n);
        let top: &[T] = top;
        let width = pend - p;
        pool.par_chunks_mut(trail, n, |_, row| {
            let (lpart, crow) = row.split_at_mut(pend);
            let lfac = &lpart[p..pend];
            let urow = |s: usize| &top[(p + s) * n + pend..(p + s + 1) * n];
            let mut s = 0;
            while s + 4 <= width {
                let f = [lfac[s], lfac[s + 1], lfac[s + 2], lfac[s + 3]];
                kernel::sub4(crow, f, urow(s), urow(s + 1), urow(s + 2), urow(s + 3));
                s += 4;
            }
            while s < width {
                let f = lfac[s];
                for (c, &u) in crow.iter_mut().zip(urow(s)) {
                    *c -= f * u;
                }
                s += 1;
            }
        });
        p = pend;
    }
    Ok((perm, perm_sign))
}

/// In-place Cholesky of a symmetric positive-definite matrix: reads the
/// lower triangle of the row-major `n × n` slice `a` and fills the dense
/// lower-triangular factor into `g` (which must be zeroed). Dispatches
/// like [`lu_eliminate_cancel`]; the blocked path is audited-close to the
/// serial left-looking loop and identical for any thread count. The
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
        vpec_trace::counter_add("pool.elim.serial", 1);
        return cholesky_eliminate_serial(a, g, n, cancel);
    }
    // The blocked panel factorization reassociates the left-looking
    // prefix dots (per-block partials, four accumulators), so it is
    // *audited-close* to the serial loop rather than bit-identical — but
    // the dispatch depends only on `n`, and the row-partitioned trailing
    // update is deterministic for any worker count, so repeated runs and
    // thread sweeps agree exactly.
    vpec_trace::counter_add("pool.elim.blocked", 1);
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
    fn blocked_lu_is_bit_identical_to_serial() {
        // Sizes straddle panel boundaries (multiples, off-by-one, below
        // one panel) and worker counts cover serial/parallel trailing
        // updates; every combination must reproduce the serial bits.
        for n in [5, 31, 32, 33, 64, 97] {
            let reference = {
                let mut m = random_matrix(n, 23);
                let pp = lu_eliminate_serial(&mut m, n, &CancelToken::none()).unwrap();
                (m, pp)
            };
            for nb in [4, 8, 32] {
                for nt in [1, 2, 8] {
                    let mut m = random_matrix(n, 23);
                    let pp = lu_eliminate_blocked(&mut m, n, nt, &CancelToken::none(), nb).unwrap();
                    assert_eq!(
                        m, reference.0,
                        "LU payload differs at n={n} nb={nb} nt={nt}"
                    );
                    assert_eq!(
                        pp, reference.1,
                        "permutation differs at n={n} nb={nb} nt={nt}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_lu_detects_singularity() {
        let n = 12;
        let mut m = vec![0.0f64; n * n];
        match lu_eliminate_blocked(&mut m, n, 2, &CancelToken::none(), 4) {
            Err(NumericsError::Singular { step }) => assert_eq!(step, 0),
            other => panic!("expected Singular, got {other:?}"),
        }
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
        let mut m = random_matrix(n, 29);
        assert!(matches!(
            lu_eliminate_blocked(&mut m, n, 2, &token, 4),
            Err(NumericsError::Cancelled { .. })
        ));
        let a = random_spd(n, 29);
        let mut g = vec![0.0f64; n * n];
        assert!(matches!(
            cholesky_eliminate_blocked(&a, &mut g, n, 2, &token, 4),
            Err(NumericsError::Cancelled { .. })
        ));
    }

    #[test]
    fn public_eliminators_dispatch_serial_below_threshold() {
        // n < BLOCK_MIN_DIM must take the serial path even with
        // threads > 1.
        let n = 12;
        let mut m = random_matrix(n, 3);
        let mut m2 = m.clone();
        let a = lu_eliminate_cancel(&mut m, n, 8, &CancelToken::none()).unwrap();
        let b = lu_eliminate_serial(&mut m2, n, &CancelToken::none()).unwrap();
        assert_eq!(m, m2);
        assert_eq!(a, b);
    }

    #[test]
    fn cancelled_token_aborts_eliminations() {
        let token = CancelToken::new();
        token.cancel();
        let n = 12;
        let mut m = random_matrix(n, 7);
        assert!(matches!(
            lu_eliminate_cancel(&mut m, n, 1, &token),
            Err(NumericsError::Cancelled { .. })
        ));
        let a = random_spd(n, 7);
        let mut g = vec![0.0f64; n * n];
        assert!(matches!(
            cholesky_eliminate_cancel(&a, &mut g, n, 1, &token),
            Err(NumericsError::Cancelled { .. })
        ));
    }
}
