//! Row-sparse gradients and the dense/sparse gradient enum.
//!
//! A mini-batch of `B` interactions touches at most `B` rows of an `M × K`
//! embedding table, yet a dense gradient pays `O(M·K)` to represent, merge
//! and consume those `B` rows. [`RowSparse`] stores only the touched rows —
//! sorted unique row indices plus a dense `nnz × K` block — so the whole
//! backward + optimizer path runs in `O(B·K)` per table.
//!
//! Every kernel here is **accumulation-order faithful** to its dense
//! counterpart: [`RowSparse::from_scatter`] adds duplicate indices in the
//! original batch order exactly like [`Tensor::scatter_add_rows`], and
//! [`RowSparse::merge`] reproduces `dense_a.add_assign(&dense_b)` per
//! element (including the `x + 0.0` IEEE normalisation for rows present on
//! only one side). Densifying any chain of sparse accumulations therefore
//! yields the same bits as running the chain densely, which this module's
//! scatter and merge tests assert against the dense kernels.
//!
//! [`Grad::accumulate_run`] folds a whole backward sweep's deltas for one
//! parameter at once, with per element the additions one
//! [`Grad::accumulate`] per delta performs, so it keeps those bits too.
//!
//! Merge, run-fold and scale kernels fan out to the shared `dt-parallel`
//! pool for large blocks (the same element-per-thread determinism contract
//! as `elementwise.rs`); the scatter construction and dense fold-in are
//! single-pass and stay sequential.

use crate::checked::Check;
use crate::Tensor;

/// Minimum block elements before the merge kernel fans out to the pool.
const PAR_MIN_ELEMS: usize = 1 << 15;

/// A row-sparse view of an `rows × cols` gradient: `indices` are sorted and
/// unique, `block` holds one dense row per index.
#[derive(Clone, Debug, PartialEq)]
pub struct RowSparse {
    rows: usize,
    cols: usize,
    indices: Vec<usize>,
    block: Tensor,
}

impl RowSparse {
    /// An all-zero gradient for an `rows × cols` table (no rows touched).
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            // alloc-ok: an empty `Vec` allocates nothing
            indices: Vec::new(),
            // alloc-ok: a 0-row tensor allocates nothing
            block: Tensor::zeros(0, cols),
        }
    }

    /// Builds the gradient of a row-gather: `src.row(k)` is scatter-added at
    /// `indices[k]`. Duplicate indices accumulate in batch (`k`) order, so
    /// the result densifies to exactly [`Tensor::scatter_add_rows`] on a
    /// zero table.
    ///
    /// # Panics
    /// Panics when `src.rows() != indices.len()`, on a column mismatch, or
    /// on an out-of-bounds index.
    #[must_use]
    pub fn from_scatter(rows: usize, cols: usize, indices: &[usize], src: &Tensor) -> Self {
        assert_eq!(
            src.rows(),
            indices.len(),
            "from_scatter: {} rows vs {} indices",
            src.rows(),
            indices.len()
        );
        assert_eq!(
            src.cols(),
            cols,
            "from_scatter: col mismatch {} vs {cols}",
            src.cols()
        );
        for &i in indices {
            assert!(
                i < rows,
                "from_scatter: index {i} out of bounds for {rows} rows"
            );
        }
        // Sorting packed `(row << 32) | k` keys orders by row and keeps
        // duplicates in ascending k, the dense scatter's per-row
        // accumulation order, as a stable sort by row would.
        assert!(
            rows as u64 <= 1 << 32 && indices.len() as u64 <= 1 << 32,
            "from_scatter: {rows} rows or {} indices overflow the 32-bit halves of a sort key",
            indices.len()
        );
        let mut order: Vec<u64> = indices
            .iter()
            .enumerate()
            .map(|(k, &i)| ((i as u64) << 32) | k as u64)
            .collect();
        order.sort_unstable();
        let row_of = |key: u64| (key >> 32) as usize;
        // alloc-ok: row-index bookkeeping (usize), outside the f64 step pool's domain
        let mut uniq: Vec<usize> = Vec::with_capacity(order.len());
        for &key in &order {
            if uniq.last() != Some(&row_of(key)) {
                uniq.push(row_of(key));
            }
        }
        let mut block = Tensor::pooled_zeros(uniq.len(), cols);
        let mut at = 0usize;
        for &key in &order {
            if uniq[at] != row_of(key) {
                at += 1;
            }
            let k = (key & u64::from(u32::MAX)) as usize;
            for (d, s) in block.row_mut(at).iter_mut().zip(src.row(k)) {
                *d += s;
            }
        }
        Check::Finite.run("from_scatter", block.data());
        Self {
            rows,
            cols,
            indices: uniq,
            block,
        }
    }

    /// Rebuilds a value from raw parts, validating every invariant (the
    /// deserialisation path).
    ///
    /// # Errors
    /// Returns a message when the indices are unsorted/duplicated/out of
    /// bounds or the block shape disagrees with `indices.len() × cols`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indices: Vec<usize>,
        block: Tensor,
    ) -> Result<Self, String> {
        if block.rows() != indices.len() || block.cols() != cols {
            return Err(format!(
                "RowSparse: block {} for {} indices × {cols} cols",
                block.shape(),
                indices.len()
            ));
        }
        if !indices.windows(2).all(|w| w[0] < w[1]) {
            return Err("RowSparse: indices must be sorted and unique".into());
        }
        if indices.last().is_some_and(|&i| i >= rows) {
            return Err(format!("RowSparse: index out of bounds for {rows} rows"));
        }
        Ok(Self {
            rows,
            cols,
            indices,
            block,
        })
    }

    /// Logical number of rows of the (mostly zero) gradient.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of touched rows.
    #[must_use]
    pub fn nnz_rows(&self) -> usize {
        self.indices.len()
    }

    /// Returns `true` when no rows are touched.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.indices.is_empty()
    }

    /// The sorted unique touched-row indices.
    #[must_use]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The dense `nnz × cols` block, row `k` belonging to `indices[k]`.
    #[must_use]
    pub fn block(&self) -> &Tensor {
        &self.block
    }

    /// Iterates `(row_index, row_values)` over the touched rows in
    /// ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f64])> {
        self.indices
            .iter()
            .enumerate()
            .map(|(k, &i)| (i, self.block.row(k)))
    }

    /// Merges `other` into `self` (row union; shared rows add element-wise).
    ///
    /// Per element this computes exactly what the dense accumulation
    /// `dense(self).add_assign(&dense(other))` computes: shared rows are
    /// `a + b`, rows only in `self` are `a + 0.0`, rows only in `other` are
    /// `0.0 + b`. Large results fan out to the `dt-parallel` pool with one
    /// writer per element, so the merge is bit-identical for any thread
    /// count.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn merge(&mut self, other: &RowSparse) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "merge: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        if other.is_zero() {
            // Dense equivalence still demands the `a + 0.0` normalisation,
            // which only matters for the sign of zero; adding an all-zero
            // block is skipped as the one documented deviation.
            return;
        }
        if self.is_zero() {
            self.indices = other.indices.clone();
            // `map` draws from the pool; the replaced block is empty.
            self.block = other.block.map(|x| 0.0 + x);
            return;
        }
        // Two-pointer union: for every output row, where it comes from.
        // alloc-ok: row-index union bookkeeping (usize), not poolable f64 scratch
        let mut idx = Vec::with_capacity(self.indices.len() + other.indices.len());
        // alloc-ok: merge plan (one entry per union row), freed with the merge
        let mut plan: Vec<(Option<usize>, Option<usize>)> = Vec::with_capacity(idx.capacity());
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.indices.len() || b < other.indices.len() {
            let ai = self.indices.get(a).copied();
            let bi = other.indices.get(b).copied();
            match (ai, bi) {
                (Some(x), Some(y)) if x == y => {
                    idx.push(x);
                    plan.push((Some(a), Some(b)));
                    a += 1;
                    b += 1;
                }
                (Some(x), Some(y)) if x < y => {
                    idx.push(x);
                    plan.push((Some(a), None));
                    a += 1;
                }
                (Some(_) | None, Some(y)) => {
                    idx.push(y);
                    plan.push((None, Some(b)));
                    b += 1;
                }
                (Some(x), None) => {
                    idx.push(x);
                    plan.push((Some(a), None));
                    a += 1;
                }
                (None, None) => break,
            }
        }
        let cols = self.cols;
        // Every element of every union row is written by `fill_row`, so
        // pooled scratch (stale contents) is safe here.
        let mut block = Tensor::pooled_scratch(idx.len(), cols);
        let (ab, bb) = (&self.block, &other.block);
        let fill_row = |r: usize, out: &mut [f64]| match plan[r] {
            (Some(ak), Some(bk)) => {
                for ((o, &x), &y) in out.iter_mut().zip(ab.row(ak)).zip(bb.row(bk)) {
                    *o = x + y;
                }
            }
            (Some(ak), None) => {
                for (o, &x) in out.iter_mut().zip(ab.row(ak)) {
                    *o = x + 0.0;
                }
            }
            (None, Some(bk)) => {
                for (o, &y) in out.iter_mut().zip(bb.row(bk)) {
                    *o = 0.0 + y;
                }
            }
            (None, None) => {}
        };
        let len = block.len();
        if len >= PAR_MIN_ELEMS && dt_parallel::effective_threads() > 1 && cols > 0 {
            let rows_per = idx.len().div_ceil(dt_parallel::effective_threads()).max(1);
            dt_parallel::for_each_chunk(block.data_mut(), rows_per * cols, |ci, chunk| {
                for (j, out) in chunk.chunks_mut(cols).enumerate() {
                    fill_row(ci * rows_per + j, out);
                }
            });
        } else {
            for r in 0..idx.len() {
                fill_row(r, &mut block.data_mut()[r * cols..(r + 1) * cols]);
            }
        }
        Check::Finite.run("rowsparse_merge", block.data());
        self.indices = idx;
        std::mem::replace(&mut self.block, block).recycle();
    }

    /// Adds the touched rows into the dense table `dst` (`dst[i] += row`).
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn add_to_dense(&self, dst: &mut Tensor) {
        self.axpy_to_dense(1.0, dst);
    }

    /// `dst[i] += alpha · row` for every touched row — the sparse optimizer
    /// update kernel. One pass over `nnz × cols` elements.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn axpy_to_dense(&self, alpha: f64, dst: &mut Tensor) {
        assert_eq!(
            (dst.rows(), dst.cols()),
            (self.rows, self.cols),
            "axpy_to_dense: dense {} vs sparse {}x{}",
            dst.shape(),
            self.rows,
            self.cols
        );
        for (k, &i) in self.indices.iter().enumerate() {
            for (d, &s) in dst.row_mut(i).iter_mut().zip(self.block.row(k)) {
                *d += alpha * s;
            }
        }
    }

    /// Densifies into a fresh `rows × cols` tensor — the bit-for-bit image
    /// of scatter-adding the block into zeros.
    #[must_use]
    pub fn to_dense(&self) -> Tensor {
        let mut out = Tensor::pooled_zeros(self.rows, self.cols);
        self.add_to_dense(&mut out);
        out
    }

    /// Consumes the gradient and parks its block buffer on the thread-local
    /// buffer pool (see [`crate::pool`]).
    pub fn recycle(self) {
        self.block.recycle();
    }

    /// Squared Frobenius norm (zero rows contribute nothing).
    #[must_use]
    pub fn frob_sq(&self) -> f64 {
        self.block.frob_sq()
    }

    /// Returns `true` when every stored element is finite.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.block.all_finite()
    }
}

/// A gradient that is either dense or row-sparse.
///
/// `Params` in `dt-autograd` accumulates one `Grad` per parameter: gather
/// backward emits [`Grad::RowSparse`], full-table ops (the Gram losses,
/// bias broadcasts over mounted tables, …) emit [`Grad::Dense`], and
/// [`Grad::accumulate`] merges any mix while preserving dense accumulation
/// order. An accumulator only densifies when a dense delta actually
/// arrives.
#[derive(Clone, Debug, PartialEq)]
pub enum Grad {
    /// A dense gradient tensor.
    Dense(Tensor),
    /// A row-sparse gradient (embedding-style).
    RowSparse(RowSparse),
}

impl Grad {
    /// The all-zero gradient for an `rows × cols` parameter (row-sparse
    /// with no touched rows — `O(1)` in the table size).
    #[must_use]
    pub fn empty(rows: usize, cols: usize) -> Self {
        Grad::RowSparse(RowSparse::zeros(rows, cols))
    }

    /// Logical number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        match self {
            Grad::Dense(t) => t.rows(),
            Grad::RowSparse(s) => s.rows(),
        }
    }

    /// Logical number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        match self {
            Grad::Dense(t) => t.cols(),
            Grad::RowSparse(s) => s.cols(),
        }
    }

    /// Returns `true` for the dense representation.
    #[must_use]
    pub fn is_dense(&self) -> bool {
        matches!(self, Grad::Dense(_))
    }

    /// The row-sparse representation, when sparse.
    #[must_use]
    pub fn as_row_sparse(&self) -> Option<&RowSparse> {
        match self {
            Grad::Dense(_) => None,
            Grad::RowSparse(s) => Some(s),
        }
    }

    /// Densified copy.
    #[must_use]
    pub fn to_dense(&self) -> Tensor {
        match self {
            Grad::Dense(t) => t.clone(),
            Grad::RowSparse(s) => s.to_dense(),
        }
    }

    /// Densifies by value (free for the dense variant).
    #[must_use]
    pub fn into_dense(self) -> Tensor {
        match self {
            Grad::Dense(t) => t,
            Grad::RowSparse(s) => s.to_dense(),
        }
    }

    /// The scalar value of a `1 × 1` gradient.
    ///
    /// # Panics
    /// Panics when the gradient is not scalar-shaped.
    #[must_use]
    pub fn item(&self) -> f64 {
        assert_eq!(
            (self.rows(), self.cols()),
            (1, 1),
            "item: gradient has shape {}x{}, expected 1x1",
            self.rows(),
            self.cols()
        );
        match self {
            Grad::Dense(t) => t.item(),
            Grad::RowSparse(s) => s.iter().next().map_or(0.0, |(_, row)| row[0]),
        }
    }

    /// Accumulates `delta` into `self`, staying sparse whenever possible:
    ///
    /// * sparse + sparse → sparse row-union merge ([`RowSparse::merge`]),
    /// * dense + sparse → the sparse rows fold into the dense accumulator,
    /// * sparse + dense → densify once, then add (the mixed DT-loss shape),
    /// * dense + dense → element-wise `add_assign`.
    ///
    /// The per-element operation sequence matches dense accumulation
    /// exactly, so densifying afterwards reproduces the dense bits.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn accumulate(&mut self, delta: Grad) {
        assert_eq!(
            (self.rows(), self.cols()),
            (delta.rows(), delta.cols()),
            "accumulate: shape mismatch {}x{} vs {}x{}",
            self.rows(),
            self.cols(),
            delta.rows(),
            delta.cols()
        );
        // Consumed deltas hand their buffers back to the pool: `delta` is
        // owned (never aliased), so once its values are folded in, the
        // backing storage is free to be reused by the next node.
        match (&mut *self, delta) {
            (Grad::Dense(a), Grad::Dense(b)) => {
                a.add_assign(&b);
                b.recycle();
            }
            (Grad::Dense(a), Grad::RowSparse(s)) => {
                s.add_to_dense(a);
                s.recycle();
            }
            (Grad::RowSparse(a), Grad::RowSparse(b)) => {
                a.merge(&b);
                b.recycle();
            }
            (Grad::RowSparse(a), Grad::Dense(b)) => {
                if a.is_zero() {
                    // First (and so far only) contribution: adopt the dense
                    // delta without paying an extra full-table pass.
                    *self = Grad::Dense(b);
                } else {
                    let mut d = a.to_dense();
                    d.add_assign(&b);
                    b.recycle();
                    if let Grad::RowSparse(old) = std::mem::replace(self, Grad::Dense(d)) {
                        old.recycle();
                    }
                }
            }
        }
    }

    /// Accumulates `run` — one parameter's deltas from a backward sweep,
    /// its leaf gradients in tape order — into `self`. Per element this
    /// performs exactly the additions that one [`Grad::accumulate`] per
    /// delta performs, in the same order:
    ///
    /// * `0.0 + 1.0·s` where a row-sparse accumulator is densified,
    /// * `a + b`, `a + 0.0` and `0.0 + b` where two row-sparse gradients
    ///   merge,
    /// * `d + 1.0·s` where a sparse delta lands on a dense accumulator, and
    ///   `d + e` between dense ones;
    /// * a first dense delta onto an empty store is adopted as is, and an
    ///   empty sparse delta is skipped.
    ///
    /// A run without a dense delta folds one `accumulate` at a time. A run
    /// with one is written in one row-partitioned pass over the first dense
    /// buffer — the store's when it is dense, else the first dense delta's
    /// — reading the row-sparse store and deltas through row cursors, so no
    /// merged block, zero-filled table or intermediate sum is built. Every
    /// element has one writer, so the result is the same at any pool
    /// width.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn accumulate_run(&mut self, mut run: Vec<Grad>) {
        let (rows, cols) = (self.rows(), self.cols());
        for d in &run {
            assert_eq!(
                (rows, cols),
                (d.rows(), d.cols()),
                "accumulate_run: shape mismatch {rows}x{cols} vs {}x{}",
                d.rows(),
                d.cols()
            );
        }
        let Some(first) = run.iter().position(Grad::is_dense) else {
            for d in run {
                self.accumulate(d);
            }
            return;
        };
        // The output buffer and what the pass folds around it: a dense
        // store is itself the first dense buffer, with the whole run after
        // it; a row-sparse store is held, the first dense delta becomes the
        // output, and the sparse deltas before it fold in ahead of it.
        let (mut out, held, split) = match std::mem::replace(self, Grad::empty(rows, cols)) {
            Grad::Dense(t) => (t, None, None),
            Grad::RowSparse(s) => {
                let t = std::mem::replace(&mut run[first], Grad::empty(rows, cols));
                (t.into_dense(), Some(s), Some(first))
            }
        };
        let (before, after) = match split {
            Some(first) => (&run[..first], &run[first + 1..]),
            None => (&run[..0], &run[..]),
        };
        fold_rows(&mut out, held.as_ref(), before, after);
        *self = Grad::Dense(out);
        if let Some(s) = held {
            s.recycle();
        }
        for d in run {
            d.recycle();
        }
    }

    /// Resets to the all-zero sparse gradient — `O(1)` in the table size.
    /// The previous storage (dense tensor or sparse block) is handed back
    /// to the thread-local buffer pool instead of the global allocator.
    pub fn clear(&mut self) {
        std::mem::replace(self, Grad::empty(self.rows(), self.cols())).recycle();
    }

    /// Consumes the gradient and parks its buffer on the thread-local
    /// buffer pool (see [`crate::pool`]).
    pub fn recycle(self) {
        match self {
            Grad::Dense(t) => t.recycle(),
            Grad::RowSparse(s) => s.recycle(),
        }
    }

    /// Squared Frobenius norm.
    #[must_use]
    pub fn frob_sq(&self) -> f64 {
        match self {
            Grad::Dense(t) => t.frob_sq(),
            Grad::RowSparse(s) => s.frob_sq(),
        }
    }

    /// Returns `true` when every stored element is finite.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        match self {
            Grad::Dense(t) => t.all_finite(),
            Grad::RowSparse(s) => s.all_finite(),
        }
    }
}

/// A row-sparse gradient read in ascending row order.
struct Cursor<'a> {
    sparse: &'a RowSparse,
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the first stored row at or after `row`.
    fn new(sparse: &'a RowSparse, row: usize) -> Self {
        let at = sparse.indices.partition_point(|&i| i < row);
        Self { sparse, at }
    }

    /// Stored row `r`, if there is one; `r` must not decrease from call to
    /// call.
    fn take(&mut self, r: usize) -> Option<&'a [f64]> {
        if self.sparse.indices.get(self.at) != Some(&r) {
            return None;
        }
        self.at += 1;
        Some(self.sparse.block.row(self.at - 1))
    }
}

/// A delta after the first dense buffer of a run fold.
enum After<'a> {
    Dense(&'a Tensor),
    Rows(Cursor<'a>),
}

/// The row pass of [`Grad::accumulate_run`]. `out` holds the first dense
/// buffer; `held` is the row-sparse store it arrives on, `before` the
/// sparse deltas that reach that store ahead of it, `after` the deltas
/// that follow it. Per row, `before` merges into `held` in a scratch row
/// (`RowSparse::merge`'s additions), the result is densified and added to
/// `out` (`to_dense`, then `add_assign`), and `after` is added in order.
/// The accumulated value stays the left operand of every addition, as in
/// the one-at-a-time fold.
#[allow(clippy::assign_op_pattern)]
fn fold_rows(out: &mut Tensor, held: Option<&RowSparse>, before: &[Grad], after: &[Grad]) {
    let (rows, cols) = (out.rows(), out.cols());
    if cols == 0 {
        return;
    }
    // An empty sparse delta is skipped, as `merge` skips it; onto a store
    // that is still empty, the first dense buffer is adopted as is.
    // alloc-ok: one slot per sparse delta of the run, per fold
    let before: Vec<&RowSparse> = before
        .iter()
        .filter_map(Grad::as_row_sparse)
        .filter(|s| !s.is_zero())
        .collect();
    let adopt = before.is_empty() && held.iter().all(|s| s.is_zero());
    let fill = |first_row: usize, chunk: &mut [f64]| {
        let mut held = held.map(|s| Cursor::new(s, first_row));
        // alloc-ok: one cursor per delta per task, not per row
        let mut merging: Vec<Cursor> = before.iter().map(|s| Cursor::new(s, first_row)).collect();
        // alloc-ok: one cursor per delta per task, not per row
        let mut after: Vec<After> = after
            .iter()
            .map(|d| match d {
                Grad::Dense(t) => After::Dense(t),
                Grad::RowSparse(s) => After::Rows(Cursor::new(s, first_row)),
            })
            .collect();
        // alloc-ok: the per-task scratch row of the merge
        let mut merged = vec![0.0; cols];
        for (k, o) in chunk.chunks_exact_mut(cols).enumerate() {
            let r = first_row + k;
            // The row in the row-sparse store when the first dense buffer
            // arrives, when the store holds it then.
            let mut stored = false;
            if let Some(a) = held.as_mut().and_then(|c| c.take(r)) {
                merged.copy_from_slice(a);
                stored = true;
            }
            for c in &mut merging {
                match (c.take(r), stored) {
                    (Some(b), true) => merged.iter_mut().zip(b).for_each(|(m, &b)| *m += b),
                    (None, true) => merged.iter_mut().for_each(|m| *m += 0.0),
                    (Some(b), false) => {
                        merged.iter_mut().zip(b).for_each(|(m, &b)| *m = 0.0 + b);
                        stored = true;
                    }
                    (None, false) => {}
                }
            }
            if stored {
                for (o, &m) in o.iter_mut().zip(&merged) {
                    *o = (0.0 + 1.0 * m) + *o;
                }
            } else if !adopt {
                o.iter_mut().for_each(|o| *o = 0.0 + *o);
            }
            for d in &mut after {
                match d {
                    After::Dense(t) => o.iter_mut().zip(t.row(r)).for_each(|(o, &e)| *o += e),
                    After::Rows(c) => {
                        if let Some(s) = c.take(r) {
                            o.iter_mut().zip(s).for_each(|(o, &s)| *o += 1.0 * s);
                        }
                    }
                }
            }
        }
    };
    let threads = dt_parallel::effective_threads();
    if out.len() >= PAR_MIN_ELEMS && threads > 1 {
        let rows_per = rows.div_ceil(threads);
        dt_parallel::for_each_chunk(out.data_mut(), rows_per * cols, |ci, chunk| {
            fill(ci * rows_per, chunk);
        });
    } else {
        fill(0, out.data_mut());
    }
    Check::Finite.run("accumulate_run", out.data());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_scatter(rows: usize, cols: usize, indices: &[usize], src: &Tensor) -> Tensor {
        let mut d = Tensor::zeros(rows, cols);
        d.scatter_add_rows(indices, src);
        d
    }

    #[test]
    fn from_scatter_matches_dense_scatter_bits() {
        let src = Tensor::from_rows(&[
            &[0.1, -0.2],
            &[1e-17, 2.0],
            &[0.3, 0.4],
            &[-0.1, 1e-17],
            &[5.0, -6.0],
        ]);
        let idx = [3usize, 1, 3, 3, 0];
        let rs = RowSparse::from_scatter(6, 2, &idx, &src);
        assert_eq!(rs.nnz_rows(), 3);
        assert_eq!(rs.indices(), &[0, 1, 3]);
        assert_eq!(rs.to_dense(), dense_scatter(6, 2, &idx, &src));
    }

    #[test]
    fn duplicate_heavy_scatter_matches_dense_scatter_bits() {
        // 2048 rows land on 37 table rows, each hit ~55 times in scattered
        // batch order, with magnitudes that make the sum order-sensitive.
        let idx: Vec<usize> = (0..2048).map(|k| (k * 53 + k / 7) % 37).collect();
        let src = Tensor::from_fn(idx.len(), 3, |k, j| {
            ((k * 31 + j) as f64).sin() * 10f64.powi((k % 9) as i32 - 4)
        });
        let rs = RowSparse::from_scatter(40, 3, &idx, &src);
        assert_eq!(rs.nnz_rows(), 37);
        let (got, want) = (rs.to_dense(), dense_scatter(40, 3, &idx, &src));
        for (g, w) in got.data().iter().zip(want.data()) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn merge_matches_dense_accumulation_bits() {
        let s1 = Tensor::from_rows(&[&[1.0, 2.0], &[0.25, -0.5]]);
        let s2 = Tensor::from_rows(&[&[1e-16, 7.0], &[3.0, 4.0], &[0.5, 0.5]]);
        let mut a = RowSparse::from_scatter(8, 2, &[5, 2], &s1);
        let b = RowSparse::from_scatter(8, 2, &[2, 6, 2], &s2);
        let mut dense = a.to_dense();
        dense.add_assign(&b.to_dense());
        a.merge(&b);
        assert_eq!(a.indices(), &[2, 5, 6]);
        assert_eq!(a.to_dense(), dense);
    }

    #[test]
    fn merge_into_empty_lhs_copies_rhs() {
        let src = Tensor::from_rows(&[&[1.5, -2.0], &[0.0, 4.0]]);
        let b = RowSparse::from_scatter(6, 2, &[1, 4], &src);
        let mut a = RowSparse::zeros(6, 2);
        a.merge(&b);
        assert_eq!(a.indices(), &[1, 4]);
        assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn merge_of_empty_rhs_is_a_noop() {
        let src = Tensor::from_rows(&[&[1.5, -2.0]]);
        let mut a = RowSparse::from_scatter(6, 2, &[3], &src);
        let before = a.clone();
        a.merge(&RowSparse::zeros(6, 2));
        assert_eq!(a, before);
    }

    #[test]
    fn merge_of_two_empties_stays_empty() {
        let mut a = RowSparse::zeros(5, 3);
        a.merge(&RowSparse::zeros(5, 3));
        assert!(a.is_zero());
        assert_eq!((a.rows(), a.cols()), (5, 3));
    }

    #[test]
    fn merge_fully_overlapping_row_sets_adds_elementwise() {
        let s1 = Tensor::from_rows(&[&[1.0, 1e-16], &[-2.0, 3.0]]);
        let s2 = Tensor::from_rows(&[&[0.5, 1e-16], &[2.0, -3.0]]);
        let mut a = RowSparse::from_scatter(9, 2, &[2, 7], &s1);
        let b = RowSparse::from_scatter(9, 2, &[2, 7], &s2);
        let mut dense = a.to_dense();
        dense.add_assign(&b.to_dense());
        a.merge(&b);
        // Same row set: the union must not grow, and bits must match the
        // dense accumulation (including the 1e-16 + 1e-16 rounding).
        assert_eq!(a.indices(), &[2, 7]);
        assert_eq!(a.to_dense(), dense);
    }

    #[test]
    fn merge_on_single_row_tables() {
        // 1-row logical table: both operands can only touch row 0.
        let mut a = RowSparse::from_scatter(1, 3, &[0], &Tensor::from_rows(&[&[1.0, 2.0, 3.0]]));
        let b = RowSparse::from_scatter(1, 3, &[0], &Tensor::from_rows(&[&[0.5, -2.0, 4.0]]));
        a.merge(&b);
        assert_eq!(a.indices(), &[0]);
        assert_eq!(a.block().row(0), &[1.5, 0.0, 7.0]);
        // Single touched row merging into a disjoint single touched row.
        let mut c = RowSparse::from_scatter(10, 1, &[9], &Tensor::scalar(2.0));
        c.merge(&RowSparse::from_scatter(10, 1, &[0], &Tensor::scalar(-1.0)));
        assert_eq!(c.indices(), &[0, 9]);
        assert_eq!(c.block().data(), &[-1.0, 2.0]);
    }

    #[test]
    fn merge_large_blocks_is_thread_count_invariant() {
        let cols = 16;
        let idx_a: Vec<usize> = (0..2048).map(|i| 2 * i).collect();
        let idx_b: Vec<usize> = (0..2048).map(|i| 3 * i).collect();
        let src_a = Tensor::from_fn(idx_a.len(), cols, |i, j| ((i * 31 + j) as f64).sin());
        let src_b = Tensor::from_fn(idx_b.len(), cols, |i, j| ((i * 17 + j) as f64).cos());
        let make = || {
            let mut a = RowSparse::from_scatter(8192, cols, &idx_a, &src_a);
            a.merge(&RowSparse::from_scatter(8192, cols, &idx_b, &src_b));
            a
        };
        let par = make();
        let seq = dt_parallel::run_sequential(make);
        assert_eq!(par, seq);
    }

    #[test]
    fn axpy_to_dense_updates_only_touched_rows() {
        let src = Tensor::from_rows(&[&[1.0, 1.0]]);
        let rs = RowSparse::from_scatter(3, 2, &[1], &src);
        let mut w = Tensor::ones(3, 2);
        rs.axpy_to_dense(-0.5, &mut w);
        assert_eq!(w.row(0), &[1.0, 1.0]);
        assert_eq!(w.row(1), &[0.5, 0.5]);
        assert_eq!(w.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn grad_mixed_accumulation() {
        // sparse, then dense, then sparse — the DT loss shape.
        let mut g = Grad::empty(4, 2);
        let s1 = RowSparse::from_scatter(4, 2, &[1, 3], &Tensor::ones(2, 2));
        g.accumulate(Grad::RowSparse(s1.clone()));
        assert!(!g.is_dense());
        let full = Tensor::full(4, 2, 0.25);
        g.accumulate(Grad::Dense(full.clone()));
        assert!(g.is_dense());
        g.accumulate(Grad::RowSparse(s1.clone()));

        let mut dense = Tensor::zeros(4, 2);
        dense.add_assign(&s1.to_dense());
        dense.add_assign(&full);
        dense.add_assign(&s1.to_dense());
        assert_eq!(g.to_dense(), dense);
    }

    #[test]
    fn grad_empty_adopts_dense_delta() {
        let mut g = Grad::empty(2, 2);
        g.accumulate(Grad::Dense(Tensor::ones(2, 2)));
        assert_eq!(g.to_dense(), Tensor::ones(2, 2));
    }

    #[test]
    fn grad_clear_is_sparse_and_norms_work() {
        let mut g = Grad::Dense(Tensor::from_rows(&[&[3.0, 4.0]]));
        assert_eq!(g.frob_sq(), 25.0);
        assert!(g.all_finite());
        g.clear();
        assert!(!g.is_dense());
        assert_eq!(g.frob_sq(), 0.0);
        assert_eq!((g.rows(), g.cols()), (1, 2));
    }

    #[test]
    fn grad_item_on_sparse_scalar() {
        let mut g = Grad::empty(1, 1);
        assert_eq!(g.item(), 0.0);
        let s = RowSparse::from_scatter(1, 1, &[0], &Tensor::scalar(4.0));
        g.accumulate(Grad::RowSparse(s));
        assert_eq!(g.item(), 4.0);
    }

    #[test]
    #[should_panic(expected = "from_scatter: index 7 out of bounds")]
    fn out_of_bounds_scatter_panics() {
        let _ = RowSparse::from_scatter(4, 1, &[7], &Tensor::ones(1, 1));
    }

    #[test]
    #[should_panic(expected = "accumulate: shape mismatch")]
    fn grad_shape_mismatch_panics() {
        let mut g = Grad::empty(2, 2);
        g.accumulate(Grad::Dense(Tensor::ones(3, 2)));
    }

    #[test]
    fn iter_yields_sorted_rows() {
        let src = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let rs = RowSparse::from_scatter(9, 1, &[8, 0, 4], &src);
        let seen: Vec<(usize, f64)> = rs.iter().map(|(i, r)| (i, r[0])).collect();
        assert_eq!(seen, vec![(0, 2.0), (4, 3.0), (8, 1.0)]);
    }

    #[test]
    fn from_parts_validates() {
        assert!(RowSparse::from_parts(4, 2, vec![0, 2], Tensor::zeros(2, 2)).is_ok());
        assert!(RowSparse::from_parts(4, 2, vec![2, 0], Tensor::zeros(2, 2)).is_err());
        assert!(RowSparse::from_parts(4, 2, vec![0, 0], Tensor::zeros(2, 2)).is_err());
        assert!(RowSparse::from_parts(4, 2, vec![0, 9], Tensor::zeros(2, 2)).is_err());
        assert!(RowSparse::from_parts(4, 2, vec![0], Tensor::zeros(2, 2)).is_err());
    }
}
