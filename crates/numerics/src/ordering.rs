//! Fill-reducing orderings for sparse factorization.
//!
//! MNA matrices assembled netlist-order interleave node and branch
//! unknowns badly; factoring them directly causes catastrophic fill in the
//! Gilbert–Peierls LU. Two orderings are provided:
//!
//! * **Reverse Cuthill–McKee** ([`rcm_ordering`]) on the symmetrized
//!   pattern clusters each filament's electrical/magnetic unknowns into a
//!   narrow band. It is cheap and pattern-only, and it is what the complex
//!   AC factors use.
//! * **Maximum transversal + approximate minimum degree**
//!   ([`max_transversal`], [`amd_ordering`]), KLU's recipe: a row matching
//!   puts a structural nonzero on every diagonal position (voltage-source
//!   branch rows have none of their own), then AMD orders the symmetrized
//!   pattern of the matched matrix. The dense inductive coupling blocks of
//!   PEEC and full VPEC fill a banded ordering almost completely; minimum
//!   degree eliminates them last, where they cost little more than their
//!   own entries.
//!
//! Every permutation here uses the convention `perm[new] = old`.

use crate::{CsrMatrix, NumericsError, Scalar};

const NONE: usize = usize::MAX;

/// Pattern of `A + Aᵀ` without the diagonal, as adjacency lists in one
/// flat array: vertex `v`'s neighbours are `idx[ptr[v]..ptr[v + 1]]`,
/// each listed once, in no particular order.
///
/// `label[old_row]` renames rows first (the row-matched matrix of
/// [`crate::SparseLu::new_fill_reducing`]); `None` keeps them. Built in
/// O(nnz): scatter both directions of every entry, then drop repeats with
/// a marker array.
pub(crate) struct Adjacency {
    ptr: Vec<usize>,
    idx: Vec<usize>,
}

impl Adjacency {
    pub(crate) fn of<T: Scalar>(a: &CsrMatrix<T>, label: Option<&[usize]>) -> Self {
        let n = a.rows();
        let row_label = |i: usize| label.map_or(i, |l| l[i]);
        let mut ptr = vec![0usize; n + 1];
        for i in 0..n {
            let ri = row_label(i);
            for &c in a.row(i).0 {
                if c != ri {
                    ptr[ri + 1] += 1;
                    ptr[c + 1] += 1;
                }
            }
        }
        for v in 0..n {
            ptr[v + 1] += ptr[v];
        }
        let mut next = ptr.clone();
        let mut idx = vec![0usize; ptr[n]];
        for i in 0..n {
            let ri = row_label(i);
            for &c in a.row(i).0 {
                if c != ri {
                    idx[next[ri]] = c;
                    next[ri] += 1;
                    idx[next[c]] = ri;
                    next[c] += 1;
                }
            }
        }
        // Compact in place: the write cursor never passes the read cursor.
        let mut mark = vec![NONE; n];
        let mut w = 0;
        for v in 0..n {
            let (lo, hi) = (ptr[v], ptr[v + 1]);
            ptr[v] = w;
            for p in lo..hi {
                let u = idx[p];
                if mark[u] != v {
                    mark[u] = v;
                    idx[w] = u;
                    w += 1;
                }
            }
        }
        ptr[n] = w;
        idx.truncate(w);
        Adjacency { ptr, idx }
    }

    fn dim(&self) -> usize {
        self.ptr.len() - 1
    }

    fn nbrs(&self, v: usize) -> &[usize] {
        &self.idx[self.ptr[v]..self.ptr[v + 1]]
    }
}

/// Computes a reverse Cuthill–McKee ordering of the symmetrized sparsity
/// pattern of `a`. Returns `perm` such that `perm[new] = old`; every
/// connected component is started from a pseudo-peripheral (minimum-degree)
/// vertex.
pub fn rcm_ordering<T: Scalar>(a: &CsrMatrix<T>) -> Vec<usize> {
    let mut adj = Adjacency::of(a, None);
    let n = adj.dim();
    // Ascending neighbour lists: with the stable degree sorts below they
    // fix every tie-break, so the ordering depends on the pattern alone.
    for v in 0..n {
        let (lo, hi) = (adj.ptr[v], adj.ptr[v + 1]);
        adj.idx[lo..hi].sort_unstable();
    }
    let degree: Vec<usize> = (0..n).map(|v| adj.ptr[v + 1] - adj.ptr[v]).collect();

    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    // Vertices sorted by degree: candidate BFS roots.
    let mut roots: Vec<usize> = (0..n).collect();
    roots.sort_by_key(|&v| degree[v]);

    let mut fresh: Vec<usize> = Vec::new();
    for &root in &roots {
        if visited[root] {
            continue;
        }
        // BFS, visiting neighbours in increasing-degree order; `order`
        // doubles as the queue.
        visited[root] = true;
        let mut head = order.len();
        order.push(root);
        while head < order.len() {
            let v = order[head];
            head += 1;
            fresh.clear();
            fresh.extend(adj.nbrs(v).iter().copied().filter(|&u| !visited[u]));
            fresh.sort_by_key(|&u| degree[u]);
            for &u in &fresh {
                visited[u] = true;
                order.push(u);
            }
        }
    }
    order.reverse();
    order
}

/// Inverse of `perm` (`inv[old] = new`) when `perm` is a permutation of
/// `0..n`; `None` otherwise.
fn inverse(perm: &[usize], n: usize) -> Option<Vec<usize>> {
    if perm.len() != n {
        return None;
    }
    let mut inv = vec![NONE; n];
    for (new, &old) in perm.iter().enumerate() {
        if old >= n || inv[old] != NONE {
            return None;
        }
        inv[old] = new;
    }
    Some(inv)
}

fn not_a_permutation(op: &'static str, n: usize, len: usize) -> NumericsError {
    NumericsError::DimensionMismatch {
        op,
        expected: (n, 1),
        found: (len, 1),
    }
}

/// `Bᵀ` for `B[i][j] = A[rows[i]][cols[j]]`, i.e. `B` in compressed
/// columns, built in one O(nnz) pass: walking `B`'s rows in order appends
/// to each column in ascending row order, so nothing needs sorting.
///
/// # Errors
///
/// [`NumericsError::NotSquare`] for a non-square `a`;
/// [`NumericsError::DimensionMismatch`] if `rows` or `cols` is not a
/// permutation of `0..dim`.
pub(crate) fn permuted_transpose<T: Scalar>(
    a: &CsrMatrix<T>,
    rows: &[usize],
    cols: &[usize],
) -> Result<CsrMatrix<T>, NumericsError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(NumericsError::NotSquare {
            found: (n, a.cols()),
        });
    }
    if inverse(rows, n).is_none() {
        return Err(not_a_permutation("sparse row permutation", n, rows.len()));
    }
    let col_new = inverse(cols, n)
        .ok_or_else(|| not_a_permutation("sparse column permutation", n, cols.len()))?;
    let mut ptr = vec![0usize; n + 1];
    for i in 0..n {
        for &c in a.row(i).0 {
            ptr[col_new[c] + 1] += 1;
        }
    }
    for j in 0..n {
        ptr[j + 1] += ptr[j];
    }
    let mut next = ptr.clone();
    let mut idx = vec![0usize; a.nnz()];
    let mut val = vec![T::zero(); a.nnz()];
    for (new_row, &old_row) in rows.iter().enumerate() {
        let (cs, vs) = a.row(old_row);
        for (&c, &v) in cs.iter().zip(vs) {
            let j = col_new[c];
            idx[next[j]] = new_row;
            val[next[j]] = v;
            next[j] += 1;
        }
    }
    Ok(CsrMatrix::from_parts(n, n, ptr, idx, val))
}

/// Applies a row and a column permutation: returns `B` with
/// `B[i][j] = A[rows[i]][cols[j]]`, in O(nnz).
///
/// # Errors
///
/// [`NumericsError::NotSquare`] for a non-square `a`;
/// [`NumericsError::DimensionMismatch`] if `rows` or `cols` is not a
/// permutation of `0..dim`.
pub(crate) fn permute<T: Scalar>(
    a: &CsrMatrix<T>,
    rows: &[usize],
    cols: &[usize],
) -> Result<CsrMatrix<T>, NumericsError> {
    Ok(permuted_transpose(a, rows, cols)?.transpose())
}

/// Applies a symmetric permutation: returns `B` with
/// `B[i][j] = A[perm[i]][perm[j]]`, in O(nnz).
///
/// # Errors
///
/// [`NumericsError::NotSquare`] for a non-square `a`;
/// [`NumericsError::DimensionMismatch`] if `perm` is not a permutation of
/// `0..dim`.
pub fn permute_symmetric<T: Scalar>(
    a: &CsrMatrix<T>,
    perm: &[usize],
) -> Result<CsrMatrix<T>, NumericsError> {
    permute(a, perm, perm)
}

/// Finds a row matching with a zero-free diagonal (Duff's MC21, as in
/// CSparse's `cs_maxtrans`): returns `row_of` with `A[row_of[j]][j]`
/// structurally nonzero for every column `j`, so `B[j][·] =
/// A[row_of[j]][·]` has a zero-free diagonal.
///
/// Columns that hold their own diagonal keep it. The rest are matched
/// sparsest first by depth-first augmenting paths, each column keeping a
/// persistent cheap-assignment pointer so no entry is scanned for a free
/// row twice.
///
/// # Errors
///
/// [`NumericsError::NotSquare`] for a non-square `a`;
/// [`NumericsError::Singular`] (at the first column left unmatched) when
/// the pattern is structurally singular.
pub fn max_transversal<T: Scalar>(a: &CsrMatrix<T>) -> Result<Vec<usize>, NumericsError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(NumericsError::NotSquare {
            found: (n, a.cols()),
        });
    }
    // Column access: rows of the transpose are columns of A.
    let at = a.transpose();
    let mut col_of = vec![NONE; n]; // row -> matched column
    let mut row_of = vec![NONE; n]; // column -> matched row
    for j in 0..n {
        if at.row(j).0.binary_search(&j).is_ok() {
            col_of[j] = j;
            row_of[j] = j;
        }
    }
    let mut pending: Vec<usize> = (0..n).filter(|&j| row_of[j] == NONE).collect();
    pending.sort_by_key(|&j| at.row(j).0.len());

    let mut cheap = vec![0usize; n];
    let mut visited = vec![NONE; n];
    // DFS stack: column, the row it will take, and its scan cursor.
    let mut js = vec![0usize; n];
    let mut is = vec![0usize; n];
    let mut ps = vec![0usize; n];
    for &k in &pending {
        let mut top = 1;
        js[0] = k;
        let mut found = false;
        while top > 0 {
            let h = top - 1;
            let j = js[h];
            let col = at.row(j).0;
            if visited[j] != k {
                visited[j] = k;
                // Cheap assignment: a free row in column j ends the path.
                while cheap[j] < col.len() {
                    let i = col[cheap[j]];
                    cheap[j] += 1;
                    if col_of[i] == NONE {
                        is[h] = i;
                        found = true;
                        break;
                    }
                }
                if found {
                    break;
                }
                ps[h] = 0;
            }
            // Depth-first: follow a matched row to its column.
            let mut pushed = false;
            while ps[h] < col.len() {
                let i = col[ps[h]];
                ps[h] += 1;
                let jm = col_of[i];
                if jm == NONE || visited[jm] == k {
                    continue;
                }
                is[h] = i;
                js[top] = jm;
                top += 1;
                pushed = true;
                break;
            }
            if !pushed {
                top -= 1;
            }
        }
        if !found {
            return Err(NumericsError::Singular { step: k });
        }
        for p in 0..top {
            col_of[is[p]] = js[p];
            row_of[js[p]] = is[p];
        }
    }
    Ok(row_of)
}

/// Approximate minimum degree ordering (Amestoy, Davis & Duff, SIAM J.
/// Matrix Anal. Appl. 1996) of the symmetrized pattern of `a`, as CSparse's
/// `cs_amd` computes it. Returns `perm[new] = old`.
///
/// Elimination runs on a quotient graph: an eliminated pivot becomes an
/// *element* standing for the clique it would create, so the graph never
/// grows. Elements adjacent to a new pivot are absorbed into its element;
/// variables with identical adjacency merge into supervariables (found by
/// hashing) and are eliminated together; a variable left with no external
/// neighbours is mass-eliminated with the pivot; and degrees are the
/// approximate external degrees `|Le \ Lk|` summed over elements, which
/// bound the true degree from above at a fraction of its cost. Rows
/// denser than `max(16, 10·√n)` are ordered last. The result is the
/// post-order of the assembly tree.
pub fn amd_ordering<T: Scalar>(a: &CsrMatrix<T>) -> Vec<usize> {
    amd(&Adjacency::of(a, None))
}

/// CSparse's `CS_FLIP`: marks an index as a reference to a parent while
/// keeping -1 fixed.
const fn flip(i: isize) -> isize {
    -i - 2
}

/// Resets the element marker array when `mark` would overflow.
fn wclear(mark: isize, lemax: isize, w: &mut [isize]) -> isize {
    if mark < 2 || mark >= isize::MAX / 2 - lemax {
        for x in w.iter_mut() {
            if *x != 0 {
                *x = 1;
            }
        }
        2
    } else {
        mark
    }
}

/// Depth-first post-order of the tree rooted at `j` (children in `head`
/// / `next` lists), appended to `post` from position `k`.
fn tree_dfs(
    j: usize,
    mut k: usize,
    head: &mut [isize],
    next: &[isize],
    post: &mut [usize],
    stack: &mut Vec<usize>,
) -> usize {
    stack.clear();
    stack.push(j);
    while let Some(&p) = stack.last() {
        let i = head[p];
        if i == -1 {
            stack.pop();
            post[k] = p;
            k += 1;
        } else {
            head[p] = next[i as usize];
            stack.push(i as usize);
        }
    }
    k
}

/// The quotient-graph AMD of [`amd_ordering`] on a prepared adjacency.
/// A line-by-line port of `cs_amd`, with `isize` indices so the
/// `CS_FLIP` encoding carries over; comments name its phases.
pub(crate) fn amd(adj: &Adjacency) -> Vec<usize> {
    let n = adj.dim();
    if n == 0 {
        return Vec::new();
    }
    let ni = n as isize;
    let cnz0 = adj.idx.len();
    // Elbow room for new elements before garbage collection.
    let nzmax = (cnz0 + cnz0 / 5 + 2 * n) as isize;
    let mut ci: Vec<isize> = Vec::with_capacity(nzmax as usize);
    ci.extend(adj.idx.iter().map(|&u| u as isize));
    ci.resize(nzmax as usize, 0);
    let mut cp: Vec<isize> = adj.ptr.iter().map(|&p| p as isize).collect();
    let mut cnz = cnz0 as isize;
    let dense = ((10.0 * (n as f64).sqrt()) as isize).max(16).min(ni - 2);

    let mut len = vec![0isize; n + 1];
    let mut nv = vec![1isize; n + 1];
    let mut next = vec![-1isize; n + 1];
    let mut head = vec![-1isize; n + 1];
    let mut elen = vec![0isize; n + 1];
    let mut degree = vec![0isize; n + 1];
    let mut w = vec![1isize; n + 1];
    let mut hhead = vec![-1isize; n + 1];
    let mut last = vec![-1isize; n + 1];
    for k in 0..n {
        len[k] = cp[k + 1] - cp[k];
        degree[k] = len[k];
    }
    let mut mark = wclear(0, 0, &mut w[..n]);
    elen[n] = -2;
    cp[n] = -1;
    w[n] = 0;
    let mut nel: isize = 0;
    let mut mindeg: isize = 0;
    let mut lemax: isize = 0;

    // --- Initialize degree lists ---
    for i in 0..n {
        let d = degree[i];
        if d == 0 {
            elen[i] = -2;
            nel += 1;
            cp[i] = -1;
            w[i] = 0;
        } else if d > dense {
            nv[i] = 0;
            elen[i] = -1;
            nel += 1;
            cp[i] = flip(ni);
            nv[n] += 1;
        } else {
            let du = d as usize;
            if head[du] != -1 {
                last[head[du] as usize] = i as isize;
            }
            next[i] = head[du];
            head[du] = i as isize;
        }
    }

    while nel < ni {
        // --- Select node of minimum approximate degree ---
        let mut k: isize = -1;
        while mindeg < ni {
            k = head[mindeg as usize];
            if k != -1 {
                break;
            }
            mindeg += 1;
        }
        if k < 0 {
            break;
        }
        let ku = k as usize;
        if next[ku] != -1 {
            last[next[ku] as usize] = -1;
        }
        head[mindeg as usize] = next[ku];
        let elenk = elen[ku];
        let mut nvk = nv[ku];
        nel += nvk;

        // --- Garbage collection ---
        if elenk > 0 && cnz + mindeg >= nzmax {
            for (j, c) in cp.iter_mut().enumerate().take(n) {
                let p = *c;
                if p >= 0 {
                    *c = ci[p as usize];
                    ci[p as usize] = flip(j as isize);
                }
            }
            let (mut q, mut p) = (0isize, 0isize);
            while p < cnz {
                let j = flip(ci[p as usize]);
                p += 1;
                if j >= 0 {
                    let ju = j as usize;
                    ci[q as usize] = cp[ju];
                    cp[ju] = q;
                    q += 1;
                    for _ in 0..len[ju] - 1 {
                        ci[q as usize] = ci[p as usize];
                        q += 1;
                        p += 1;
                    }
                }
            }
            cnz = q;
        }

        // --- Construct new element ---
        let mut dk: isize = 0;
        nv[ku] = -nvk;
        let mut p = cp[ku];
        let pk1 = if elenk == 0 { p } else { cnz };
        let mut pk2 = pk1;
        for k1 in 1..=elenk + 1 {
            let (e, mut pj, ln) = if k1 > elenk {
                (k, p, len[ku] - elenk)
            } else {
                let e = ci[p as usize];
                p += 1;
                (e, cp[e as usize], len[e as usize])
            };
            for _ in 0..ln {
                let i = ci[pj as usize] as usize;
                pj += 1;
                let nvi = nv[i];
                if nvi <= 0 {
                    continue;
                }
                dk += nvi;
                nv[i] = -nvi;
                ci[pk2 as usize] = i as isize;
                pk2 += 1;
                if next[i] != -1 {
                    last[next[i] as usize] = last[i];
                }
                if last[i] != -1 {
                    next[last[i] as usize] = next[i];
                } else {
                    head[degree[i] as usize] = next[i];
                }
            }
            if e != k {
                cp[e as usize] = flip(k);
                w[e as usize] = 0;
            }
        }
        if elenk != 0 {
            cnz = pk2;
        }
        degree[ku] = dk;
        cp[ku] = pk1;
        len[ku] = pk2 - pk1;
        elen[ku] = -2;

        // --- Find set differences |Le \ Lk| ---
        mark = wclear(mark, lemax, &mut w[..n]);
        for pk in pk1..pk2 {
            let i = ci[pk as usize] as usize;
            let eln = elen[i];
            if eln <= 0 {
                continue;
            }
            let nvi = -nv[i];
            let wnvi = mark - nvi;
            for p in cp[i]..cp[i] + eln {
                let e = ci[p as usize] as usize;
                if w[e] >= mark {
                    w[e] -= nvi;
                } else if w[e] != 0 {
                    w[e] = degree[e] + wnvi;
                }
            }
        }

        // --- Degree update and element absorption ---
        for pk in pk1..pk2 {
            let i = ci[pk as usize] as usize;
            let p1 = cp[i];
            let p2 = p1 + elen[i] - 1;
            let mut pn = p1;
            let mut h: usize = 0;
            let mut d: isize = 0;
            for p in p1..=p2 {
                let e = ci[p as usize];
                let eu = e as usize;
                if w[eu] != 0 {
                    let dext = w[eu] - mark;
                    if dext > 0 {
                        d += dext;
                        ci[pn as usize] = e;
                        pn += 1;
                        h = h.wrapping_add(eu);
                    } else {
                        // Aggressive absorption: Le ⊆ Lk.
                        cp[eu] = flip(k);
                        w[eu] = 0;
                    }
                }
            }
            elen[i] = pn - p1 + 1;
            let p3 = pn;
            let p4 = p1 + len[i];
            for p in p2 + 1..p4 {
                let j = ci[p as usize];
                let nvj = nv[j as usize];
                if nvj <= 0 {
                    continue;
                }
                d += nvj;
                ci[pn as usize] = j;
                pn += 1;
                h = h.wrapping_add(j as usize);
            }
            if d == 0 {
                // Mass elimination: i has no neighbours outside Lk.
                cp[i] = flip(k);
                let nvi = -nv[i];
                dk -= nvi;
                nvk += nvi;
                nel += nvi;
                nv[i] = 0;
                elen[i] = -1;
            } else {
                degree[i] = degree[i].min(d);
                ci[pn as usize] = ci[p3 as usize];
                ci[p3 as usize] = ci[p1 as usize];
                ci[p1 as usize] = k;
                len[i] = pn - p1 + 1;
                let hb = h % n;
                next[i] = hhead[hb];
                hhead[hb] = i as isize;
                last[i] = hb as isize;
            }
        }
        degree[ku] = dk;
        lemax = lemax.max(dk);
        mark = wclear(mark + lemax, lemax, &mut w[..n]);

        // --- Supervariable detection ---
        for pk in pk1..pk2 {
            let i0 = ci[pk as usize] as usize;
            if nv[i0] >= 0 {
                continue;
            }
            let hb = last[i0] as usize;
            let mut i = hhead[hb];
            hhead[hb] = -1;
            while i != -1 && next[i as usize] != -1 {
                let iu = i as usize;
                let ln = len[iu];
                let eln = elen[iu];
                for p in cp[iu] + 1..cp[iu] + ln {
                    w[ci[p as usize] as usize] = mark;
                }
                let mut jlast = iu;
                let mut j = next[iu];
                while j != -1 {
                    let ju = j as usize;
                    let same = len[ju] == ln
                        && elen[ju] == eln
                        && (cp[ju] + 1..cp[ju] + ln).all(|p| w[ci[p as usize] as usize] == mark);
                    if same {
                        cp[ju] = flip(i);
                        nv[iu] += nv[ju];
                        nv[ju] = 0;
                        elen[ju] = -1;
                        j = next[ju];
                        next[jlast] = j;
                    } else {
                        jlast = ju;
                        j = next[ju];
                    }
                }
                i = next[iu];
                mark += 1;
            }
        }

        // --- Finalize new element ---
        let mut p = pk1;
        for pk in pk1..pk2 {
            let i = ci[pk as usize] as usize;
            let nvi = -nv[i];
            if nvi <= 0 {
                continue;
            }
            nv[i] = nvi;
            let d = (degree[i] + dk - nvi).min(ni - nel - nvi);
            let du = d as usize;
            if head[du] != -1 {
                last[head[du] as usize] = i as isize;
            }
            next[i] = head[du];
            last[i] = -1;
            head[du] = i as isize;
            mindeg = mindeg.min(d);
            degree[i] = d;
            ci[p as usize] = i as isize;
            p += 1;
        }
        nv[ku] = nvk;
        len[ku] = p - pk1;
        if len[ku] == 0 {
            cp[ku] = -1;
            w[ku] = 0;
        }
        if elenk != 0 {
            cnz = p;
        }
    }

    // --- Post-order the assembly tree ---
    for c in cp.iter_mut().take(n) {
        *c = flip(*c).max(-1);
    }
    head.fill(-1);
    for j in (0..=n).rev() {
        if nv[j] > 0 || cp[j] < 0 {
            continue;
        }
        let parent = cp[j] as usize;
        next[j] = head[parent];
        head[parent] = j as isize;
    }
    for e in (0..=n).rev() {
        if nv[e] <= 0 || cp[e] < 0 {
            continue;
        }
        let parent = cp[e] as usize;
        next[e] = head[parent];
        head[parent] = e as isize;
    }
    let mut post = vec![0usize; n + 1];
    let mut stack = Vec::with_capacity(n + 1);
    let mut k = 0;
    for (i, &c) in cp.iter().enumerate() {
        if c == -1 {
            k = tree_dfs(i, k, &mut head, &next, &mut post, &mut stack);
        }
    }
    // Node n stands for the dense rows; it is a root visited last.
    post.truncate(k);
    post.retain(|&v| v < n);
    post
}

/// Bandwidth of a sparse matrix: `max |i − j|` over stored entries. Used
/// to validate that RCM actually tightened the profile.
pub fn bandwidth<T: Scalar>(a: &CsrMatrix<T>) -> usize {
    let mut bw = 0usize;
    for i in 0..a.rows() {
        let (cols, _) = a.row(i);
        for &j in cols {
            bw = bw.max(i.abs_diff(j));
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64 as Rng;
    use crate::CooMatrix;

    /// A ring graph numbered badly: 0 connects to n-1 (max bandwidth).
    fn ring(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            let j = (i + 1) % n;
            coo.push(i, j, -1.0).unwrap();
            coo.push(j, i, -1.0).unwrap();
        }
        coo.to_csr()
    }

    /// The 5-point Laplacian on a `side × side` grid, numbered row-major.
    fn grid(side: usize) -> CsrMatrix<f64> {
        let n = side * side;
        let mut coo = CooMatrix::new(n, n);
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                coo.push(v, v, 4.0).unwrap();
                if c + 1 < side {
                    coo.push(v, v + 1, -1.0).unwrap();
                    coo.push(v + 1, v, -1.0).unwrap();
                }
                if r + 1 < side {
                    coo.push(v, v + side, -1.0).unwrap();
                    coo.push(v + side, v, -1.0).unwrap();
                }
            }
        }
        coo.to_csr()
    }

    fn assert_permutation(p: &[usize], n: usize) {
        let mut sorted = p.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// A random pattern with a full diagonal and about `per_row`
    /// off-diagonal entries per row (not symmetric).
    fn random_pattern(rng: &mut Rng, n: usize, per_row: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0).unwrap();
            for _ in 0..per_row {
                coo.push(i, rng.range_usize(0, n), 1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn rcm_is_a_permutation() {
        assert_permutation(&rcm_ordering(&ring(16)), 16);
    }

    #[test]
    fn rcm_tightens_ring_bandwidth() {
        let a = ring(32);
        assert_eq!(bandwidth(&a), 31);
        let p = rcm_ordering(&a);
        let b = permute_symmetric(&a, &p).unwrap();
        assert!(
            bandwidth(&b) <= 3,
            "RCM should make a ring near-tridiagonal, got bandwidth {}",
            bandwidth(&b)
        );
    }

    #[test]
    fn permutation_preserves_values() {
        let a = ring(8);
        let p = rcm_ordering(&a);
        let b = permute_symmetric(&a, &p).unwrap();
        assert_eq!(a.nnz(), b.nnz());
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(b.get(i, j), a.get(p[i], p[j]));
            }
        }
    }

    #[test]
    fn unsymmetric_permutation_moves_rows_and_columns() {
        let mut rng = Rng::new(7);
        let a = random_pattern(&mut rng, 12, 3);
        let rows: Vec<usize> = (0..12).map(|i| (i * 5 + 2) % 12).collect();
        let cols: Vec<usize> = (0..12).rev().collect();
        let b = permute(&a, &rows, &cols).unwrap();
        assert_eq!(a.nnz(), b.nnz());
        for (i, &r) in rows.iter().enumerate() {
            assert!(b.row(i).0.windows(2).all(|w| w[0] < w[1]), "row {i} sorted");
            for (j, &c) in cols.iter().enumerate() {
                assert_eq!(b.get(i, j), a.get(r, c));
            }
        }
    }

    #[test]
    fn bad_permutations_are_typed_errors() {
        let a = ring(6);
        let short: Vec<usize> = (0..5).collect();
        let repeated = vec![0, 1, 2, 3, 4, 4];
        let out_of_range = vec![0, 1, 2, 3, 4, 6];
        for p in [&short, &repeated, &out_of_range] {
            assert!(matches!(
                permute_symmetric(&a, p),
                Err(NumericsError::DimensionMismatch { .. })
            ));
        }
        let rect = CooMatrix::<f64>::new(2, 3).to_csr();
        assert!(matches!(
            permute_symmetric(&rect, &[0, 1]),
            Err(NumericsError::NotSquare { .. })
        ));
    }

    #[test]
    fn handles_disconnected_components() {
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(4, 5, 1.0).unwrap();
        coo.push(5, 4, 1.0).unwrap();
        let a = coo.to_csr();
        assert_permutation(&rcm_ordering(&a), 6);
        assert_permutation(&amd_ordering(&a), 6);
    }

    #[test]
    fn empty_matrix() {
        let a = CooMatrix::<f64>::new(0, 0).to_csr();
        assert!(rcm_ordering(&a).is_empty());
        assert!(amd_ordering(&a).is_empty());
        assert_eq!(max_transversal(&a).unwrap(), Vec::<usize>::new());
        assert_eq!(bandwidth(&a), 0);
    }

    #[test]
    fn asymmetric_pattern_is_symmetrized() {
        // Entry only at (0, 3): RCM must still see 0—3 as an edge.
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.push(0, 3, 1.0).unwrap();
        let p = rcm_ordering(&coo.to_csr());
        let pos = |v: usize| p.iter().position(|&x| x == v).unwrap();
        // 0 and 3 end up adjacent in the ordering.
        assert!(pos(0).abs_diff(pos(3)) <= 2);
    }

    #[test]
    fn amd_handles_diagonal_only_and_dense_rows() {
        // No off-diagonal entries at all.
        let mut coo = CooMatrix::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 1.0).unwrap();
        }
        assert_permutation(&amd_ordering(&coo.to_csr()), 5);
        // An arrow matrix: row and column 0 are dense (degree n − 1 far
        // above max(16, 10·√n)), so AMD must order vertex 0 last.
        let n = 400;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            if i > 0 {
                coo.push(0, i, 1.0).unwrap();
                coo.push(i, 0, 1.0).unwrap();
            }
            if i + 1 < n && i > 0 {
                coo.push(i, i + 1, 1.0).unwrap();
                coo.push(i + 1, i, 1.0).unwrap();
            }
        }
        let p = amd_ordering(&coo.to_csr());
        assert_permutation(&p, n);
        assert_eq!(p[n - 1], 0, "the dense row goes last");
    }

    #[test]
    fn amd_is_a_permutation_on_random_patterns() {
        let mut rng = Rng::new(11);
        for trial in 0..40 {
            let n = 1 + rng.range_usize(0, 120);
            let a = random_pattern(&mut rng, n, 1 + trial % 6);
            assert_permutation(&amd_ordering(&a), n);
        }
    }

    #[test]
    fn amd_fill_on_a_grid_is_at_most_rcm() {
        // Off-diagonal nonzeros of the actual L + U factor under each
        // ordering (the grid is diagonally dominant, so partial pivoting
        // keeps the diagonal).
        let a = grid(30);
        let fill = |p: Vec<usize>| crate::SparseLu::new_ordered(&a, &p).unwrap().factor_nnz() - 900;
        let amd = fill(amd_ordering(&a));
        let rcm = fill(rcm_ordering(&a));
        assert!(amd <= rcm, "AMD {amd} vs RCM {rcm}");
        // Nested-dissection-like orderings reach O(n log n); a band of
        // width 30 costs about 2·n·30.
        assert!(amd < 2 * 900 * 30 / 2, "AMD fill {amd}");
    }

    /// A small MNA-shaped matrix: a resistor chain whose first node is
    /// driven by a voltage source, plus a second source between two inner
    /// nodes. The branch rows (5 and 6) have no diagonal entry.
    fn mna_with_sources() -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(7, 7);
        for i in 0..5 {
            coo.push(i, i, 2.0).unwrap();
            if i + 1 < 5 {
                coo.push(i, i + 1, -1.0).unwrap();
                coo.push(i + 1, i, -1.0).unwrap();
            }
        }
        // V1 from node 0 to ground (branch 5).
        coo.push(0, 5, 1.0).unwrap();
        coo.push(5, 0, 1.0).unwrap();
        // V2 from node 2 to node 3 (branch 6).
        coo.push(2, 6, 1.0).unwrap();
        coo.push(3, 6, -1.0).unwrap();
        coo.push(6, 2, 1.0).unwrap();
        coo.push(6, 3, -1.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn transversal_gives_zero_free_diagonal() {
        let a = mna_with_sources();
        let row_of = max_transversal(&a).unwrap();
        assert_permutation(&row_of, 7);
        for (j, &r) in row_of.iter().enumerate() {
            assert!(a.get(r, j) != 0.0, "column {j} matched to empty ({r}, {j})");
        }
        // Columns that had their own diagonal entry may lose it only to
        // make room for a branch column; the matched matrix is zero-free.
        let identity: Vec<usize> = (0..7).collect();
        let b = permute(&a, &row_of, &identity).unwrap();
        assert!((0..7).all(|j| b.get(j, j) != 0.0));
    }

    #[test]
    fn transversal_rejects_structural_singularity() {
        // Two columns whose only entries are in the same single row.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 2, 1.0).unwrap();
        coo.push(2, 2, 1.0).unwrap();
        assert!(matches!(
            max_transversal(&coo.to_csr()),
            Err(NumericsError::Singular { .. })
        ));
        let rect = CooMatrix::<f64>::new(2, 3).to_csr();
        assert!(matches!(
            max_transversal(&rect),
            Err(NumericsError::NotSquare { .. })
        ));
    }

    #[test]
    fn transversal_finds_augmenting_paths() {
        // A permuted identity with no diagonal at all: every column needs
        // the search, and a random pattern on top must still match.
        let mut rng = Rng::new(5);
        for _ in 0..20 {
            let n = 2 + rng.range_usize(0, 60);
            let shift = 1 + rng.range_usize(0, n - 1);
            let mut coo = CooMatrix::new(n, n);
            for j in 0..n {
                coo.push((j + shift) % n, j, 1.0).unwrap();
                if rng.range_usize(0, 2) == 0 {
                    coo.push(rng.range_usize(0, n), j, 1.0).unwrap();
                }
            }
            let a = coo.to_csr();
            let row_of = max_transversal(&a).unwrap();
            assert_permutation(&row_of, n);
            assert!(row_of.iter().enumerate().all(|(j, &r)| a.get(r, j) != 0.0));
        }
    }
}
