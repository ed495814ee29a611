//! The dense rank-2 tensor type and its element-wise / structural kernels.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::Shape;

/// A dense, row-major, rank-2 `f64` tensor.
///
/// See the crate-level docs for the design rationale. The invariant
/// `data.len() == rows * cols` holds at all times.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f64>,
}

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

impl Tensor {
    /// A tensor of zeros with the given shape.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            shape: Shape::new(rows, cols),
            // alloc-ok: the plain constructor; R10 flags each hot-path `Tensor::zeros` call site
            data: vec![0.0; rows * cols],
        }
    }

    /// A tensor of ones with the given shape.
    #[must_use]
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::full(rows, cols, 1.0)
    }

    /// A tensor filled with `value`.
    #[must_use]
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            shape: Shape::new(rows, cols),
            data: vec![value; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    #[must_use]
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// A `1 × 1` tensor holding `value`.
    #[must_use]
    pub fn scalar(value: f64) -> Self {
        Self {
            shape: Shape::new(1, 1),
            // alloc-ok: 1×1 scalar — below any pooling granularity
            data: vec![value],
        }
    }

    /// Builds a tensor from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self {
            shape: Shape::new(rows, cols),
            data,
        }
    }

    /// Builds a tensor from row slices; all rows must have equal length.
    ///
    /// # Panics
    /// Panics on ragged input or when `rows` is empty.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "from_rows: row {i} has ragged length");
            data.extend_from_slice(r);
        }
        Self::from_vec(rows.len(), cols, data)
    }

    /// A `1 × n` row vector.
    #[must_use]
    pub fn row_vec(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// An `n × 1` column vector.
    #[must_use]
    pub fn col_vec(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// A zero tensor whose backing buffer is drawn from the thread-local
    /// [`crate::pool`] (falls back to a fresh allocation on a miss or when
    /// the pool is disabled). Bit-identical to [`Tensor::zeros`].
    #[must_use]
    pub fn pooled_zeros(rows: usize, cols: usize) -> Self {
        Self {
            shape: Shape::new(rows, cols),
            data: crate::pool::take_zeroed(rows * cols),
        }
    }

    /// A pooled tensor with **unspecified contents** — stale data from a
    /// previous user on a pool hit. Strictly for kernels that overwrite
    /// every element before the tensor escapes; never read before write.
    #[must_use]
    pub fn pooled_scratch(rows: usize, cols: usize) -> Self {
        Self {
            shape: Shape::new(rows, cols),
            data: crate::pool::take(rows * cols),
        }
    }

    /// A pooled tensor filled with `value`; bit-identical to
    /// [`Tensor::full`].
    #[must_use]
    pub fn pooled_full(rows: usize, cols: usize, value: f64) -> Self {
        let mut out = Self::pooled_scratch(rows, cols);
        out.data.fill(value);
        out
    }

    /// A pooled copy of `self` (same shape and contents).
    #[must_use]
    pub fn pooled_clone(&self) -> Self {
        let mut out = Self::pooled_scratch(self.rows(), self.cols());
        out.data.copy_from_slice(&self.data);
        out
    }

    /// Consumes the tensor and parks its buffer on the thread-local
    /// [`crate::pool`] free list for reuse.
    pub fn recycle(self) {
        crate::pool::recycle(self.data);
    }

    /// Builds a tensor by evaluating `f(row, col)` for every element.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self::from_vec(rows, cols, data)
    }
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

impl Tensor {
    /// The shape of the tensor.
    #[must_use]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.shape.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.shape.cols
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major backing slice.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major backing slice.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    /// Panics when out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self[(row, col)]
    }

    /// Sets the element at `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        self[(row, col)] = value;
    }

    /// The single value of a `1 × 1` tensor.
    ///
    /// # Panics
    /// Panics when the tensor is not scalar-shaped.
    #[must_use]
    pub fn item(&self) -> f64 {
        assert!(
            self.shape.is_scalar(),
            "item: tensor has shape {}, expected 1x1",
            self.shape
        );
        self.data[0]
    }

    /// Slice view of row `i`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        let c = self.cols();
        assert!(
            i < self.rows(),
            "row index {i} out of bounds for {}",
            self.shape
        );
        &self.data[i * c..(i + 1) * c]
    }

    /// Mutable slice view of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let c = self.cols();
        assert!(
            i < self.rows(),
            "row index {i} out of bounds for {}",
            self.shape
        );
        &mut self.data[i * c..(i + 1) * c]
    }

    /// Returns `true` when every element is finite.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Approximate equality with per-element tolerance.
    #[must_use]
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| crate::approx_eq(*a, *b, tol))
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f64;

    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(
            row < self.rows() && col < self.cols(),
            "index ({row},{col}) out of bounds for {}",
            self.shape
        );
        &self.data[row * self.cols() + col]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(
            row < self.rows() && col < self.cols(),
            "index ({row},{col}) out of bounds for {}",
            self.shape
        );
        let c = self.cols();
        &mut self.data[row * c + col]
    }
}

// ---------------------------------------------------------------------------
// Broadcasts
//
// (The flat element-wise kernels — add/sub/mul/div, axpy, scale, map — live
// in `elementwise.rs`, where the large-tensor paths run on the shared
// `dt-parallel` pool.)
// ---------------------------------------------------------------------------

macro_rules! assert_same_shape {
    ($op:literal, $a:expr, $b:expr) => {
        assert_eq!(
            $a.shape, $b.shape,
            concat!($op, ": shape mismatch {} vs {}"),
            $a.shape, $b.shape
        );
    };
}

impl Tensor {
    /// Adds the `1 × cols` row vector `bias` to every row.
    #[must_use]
    pub fn add_row_broadcast(&self, bias: &Self) -> Self {
        assert_eq!(
            bias.shape,
            Shape::new(1, self.cols()),
            "add_row_broadcast: bias shape {} incompatible with {}",
            bias.shape,
            self.shape
        );
        let mut out = self.pooled_clone();
        for i in 0..out.rows() {
            for (o, b) in out.row_mut(i).iter_mut().zip(&bias.data) {
                *o += b;
            }
        }
        out
    }

    /// Adds the `rows × 1` column vector `bias` to every column.
    #[must_use]
    pub fn add_col_broadcast(&self, bias: &Self) -> Self {
        assert_eq!(
            bias.shape,
            Shape::new(self.rows(), 1),
            "add_col_broadcast: bias shape {} incompatible with {}",
            bias.shape,
            self.shape
        );
        let mut out = self.pooled_clone();
        for i in 0..out.rows() {
            let b = bias.data[i];
            for o in out.row_mut(i) {
                *o += b;
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

impl Tensor {
    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f64 {
        // Kahan summation keeps estimator-bias measurements precise when
        // reducing millions of near-cancelling IPS terms.
        let mut s = 0.0;
        let mut c = 0.0;
        for &v in &self.data {
            let y = v - c;
            let t = s + y;
            c = (t - s) - y;
            s = t;
        }
        s
    }

    /// Mean of all elements.
    ///
    /// # Panics
    /// Panics on an empty tensor.
    #[must_use]
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty(), "mean of empty tensor");
        self.sum() / self.len() as f64
    }

    /// Squared Frobenius norm `Σ v²`.
    #[must_use]
    pub fn frob_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Largest element (`-inf` for empty tensors is not allowed).
    #[must_use]
    pub fn max(&self) -> f64 {
        assert!(!self.is_empty(), "max of empty tensor");
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest element.
    #[must_use]
    pub fn min(&self) -> f64 {
        assert!(!self.is_empty(), "min of empty tensor");
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Per-row sums as an `rows × 1` column vector.
    #[must_use]
    pub fn row_sums(&self) -> Self {
        let mut out = Tensor::pooled_scratch(self.rows(), 1);
        for i in 0..self.rows() {
            out.data[i] = self.row(i).iter().sum();
        }
        out
    }

    /// Per-column sums as a `1 × cols` row vector.
    #[must_use]
    pub fn col_sums(&self) -> Self {
        // Accumulates row by row, so the buffer must start zeroed.
        let mut out = Tensor::pooled_zeros(1, self.cols());
        for i in 0..self.rows() {
            for (o, v) in out.data.iter_mut().zip(self.row(i)) {
                *o += v;
            }
        }
        out
    }

    /// Dot product of two same-shaped tensors viewed as flat vectors.
    #[must_use]
    pub fn dot(&self, other: &Self) -> f64 {
        assert_same_shape!("dot", self, other);
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }
}

// ---------------------------------------------------------------------------
// Structural ops
// ---------------------------------------------------------------------------

impl Tensor {
    /// Transposed copy.
    #[must_use]
    pub fn transpose(&self) -> Self {
        let mut out = Tensor::pooled_scratch(self.cols(), self.rows());
        for i in 0..self.rows() {
            for j in 0..self.cols() {
                out.data[j * self.rows() + i] = self.data[i * self.cols() + j];
            }
        }
        out
    }

    /// Horizontal concatenation `[self | other]` (same row count).
    #[must_use]
    pub fn concat_cols(&self, other: &Self) -> Self {
        assert_eq!(
            self.rows(),
            other.rows(),
            "concat_cols: row mismatch {} vs {}",
            self.shape,
            other.shape
        );
        let mut out = Tensor::pooled_scratch(self.rows(), self.cols() + other.cols());
        for i in 0..self.rows() {
            let dst = out.row_mut(i);
            dst[..self.cols()].copy_from_slice(self.row(i));
            dst[self.cols()..].copy_from_slice(other.row(i));
        }
        out
    }

    /// Vertical concatenation (same column count).
    #[must_use]
    pub fn concat_rows(&self, other: &Self) -> Self {
        assert_eq!(
            self.cols(),
            other.cols(),
            "concat_rows: col mismatch {} vs {}",
            self.shape,
            other.shape
        );
        let mut data = Vec::with_capacity(self.len() + other.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Self::from_vec(self.rows() + other.rows(), self.cols(), data)
    }

    /// Copy of columns `lo..hi`.
    #[must_use]
    pub fn slice_cols(&self, lo: usize, hi: usize) -> Self {
        assert!(
            lo <= hi && hi <= self.cols(),
            "slice_cols: range {lo}..{hi} out of bounds for {}",
            self.shape
        );
        let mut out = Tensor::pooled_scratch(self.rows(), hi - lo);
        for i in 0..self.rows() {
            out.row_mut(i).copy_from_slice(&self.row(i)[lo..hi]);
        }
        out
    }

    /// Copy of rows `lo..hi`.
    #[must_use]
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Self {
        assert!(
            lo <= hi && hi <= self.rows(),
            "slice_rows: range {lo}..{hi} out of bounds for {}",
            self.shape
        );
        Self::from_vec(
            hi - lo,
            self.cols(),
            self.data[lo * self.cols()..hi * self.cols()].to_vec(),
        )
    }

    /// Gathers the listed rows into a `indices.len() × cols` tensor
    /// (the embedding-lookup kernel). Indices may repeat.
    #[must_use]
    pub fn gather_rows(&self, indices: &[usize]) -> Self {
        let mut out = Tensor::pooled_scratch(indices.len(), self.cols());
        for (k, &i) in indices.iter().enumerate() {
            assert!(
                i < self.rows(),
                "gather_rows: index {i} out of bounds for {}",
                self.shape
            );
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Scatter-adds the rows of `src` into `self` at the listed indices
    /// (the backward of [`Tensor::gather_rows`]). Repeated indices
    /// accumulate.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Self) {
        assert_eq!(
            src.rows(),
            indices.len(),
            "scatter_add_rows: {} rows vs {} indices",
            src.rows(),
            indices.len()
        );
        assert_eq!(
            src.cols(),
            self.cols(),
            "scatter_add_rows: col mismatch {} vs {}",
            src.shape,
            self.shape
        );
        for (k, &i) in indices.iter().enumerate() {
            assert!(
                i < self.rows(),
                "scatter_add_rows: index {i} out of bounds for {}",
                self.shape
            );
            for (d, s) in self.row_mut(i).iter_mut().zip(src.row(k)) {
                *d += s;
            }
        }
    }

    /// Row-wise dot product of two `n × k` tensors, producing `n × 1`
    /// (the fused matrix-factorisation prediction kernel `Σ_k a[i,k]·b[i,k]`).
    #[must_use]
    pub fn row_dot(&self, other: &Self) -> Self {
        assert_same_shape!("row_dot", self, other);
        let mut out = Tensor::pooled_scratch(self.rows(), 1);
        for i in 0..self.rows() {
            out.data[i] = self
                .row(i)
                .iter()
                .zip(other.row(i))
                .map(|(a, b)| a * b)
                .sum();
        }
        out
    }

    /// Reshape into `rows × cols` (element count must match).
    #[must_use]
    pub fn reshape(&self, rows: usize, cols: usize) -> Self {
        assert_eq!(
            self.len(),
            rows * cols,
            "reshape: cannot view {} as {rows}x{cols}",
            self.shape
        );
        Self::from_vec(rows, cols, self.data.clone())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {} [", self.shape)?;
        const MAX_ROWS: usize = 8;
        const MAX_COLS: usize = 8;
        for i in 0..self.rows().min(MAX_ROWS) {
            write!(f, "  [")?;
            for j in 0..self.cols().min(MAX_COLS) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(i, j)])?;
            }
            if self.cols() > MAX_COLS {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows() > MAX_ROWS {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros(2, 3).sum(), 0.0);
        assert_eq!(Tensor::ones(2, 3).sum(), 6.0);
        assert_eq!(Tensor::full(2, 2, 0.5).sum(), 2.0);
        assert_eq!(Tensor::eye(3).sum(), 3.0);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
        let t = Tensor::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn indexing_and_rows() {
        let mut t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t[(1, 0)], 3.0);
        t[(0, 1)] = 9.0;
        assert_eq!(t.row(0), &[1.0, 9.0]);
        t.row_mut(1)[1] = -1.0;
        assert_eq!(t.get(1, 1), -1.0);
    }

    #[test]
    fn broadcasts() {
        let a = Tensor::zeros(2, 3);
        let row = Tensor::row_vec(&[1.0, 2.0, 3.0]);
        let col = Tensor::col_vec(&[10.0, 20.0]);
        assert_eq!(
            a.add_row_broadcast(&row).data(),
            &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
        );
        assert_eq!(
            a.add_col_broadcast(&col).data(),
            &[10.0, 10.0, 10.0, 20.0, 20.0, 20.0]
        );
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum(), 6.0);
        assert_eq!(a.mean(), 1.5);
        assert_eq!(a.frob_sq(), 1.0 + 4.0 + 9.0 + 16.0);
        assert_eq!(a.max(), 4.0);
        assert_eq!(a.min(), -2.0);
        assert_eq!(a.row_sums().data(), &[-1.0, 7.0]);
        assert_eq!(a.col_sums().data(), &[4.0, 2.0]);
        assert_eq!(a.dot(&a), a.frob_sq());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.shape(), Shape::new(3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn concat_and_slice() {
        let a = Tensor::from_rows(&[&[1.0], &[2.0]]);
        let b = Tensor::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]);
        let c = a.concat_cols(&b);
        assert_eq!(c.data(), &[1.0, 3.0, 4.0, 2.0, 5.0, 6.0]);
        assert_eq!(c.slice_cols(0, 1), a);
        assert_eq!(c.slice_cols(1, 3), b);
        let d = a.concat_rows(&Tensor::from_rows(&[&[9.0]]));
        assert_eq!(d.data(), &[1.0, 2.0, 9.0]);
        assert_eq!(d.slice_rows(2, 3).data(), &[9.0]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let table = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = table.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);

        let mut acc = Tensor::zeros(3, 2);
        acc.scatter_add_rows(&[2, 0, 2], &g);
        // Row 2 received itself twice.
        assert_eq!(acc.row(2), &[10.0, 12.0]);
        assert_eq!(acc.row(0), &[1.0, 2.0]);
        assert_eq!(acc.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn row_dot_matches_manual() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(a.row_dot(&b).data(), &[17.0, 53.0]);
    }

    #[test]
    fn reshape() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let b = a.reshape(2, 2);
        assert_eq!(b[(1, 0)], 3.0);
    }

    #[test]
    fn kahan_sum_is_accurate() {
        // 1 + 1e-16 repeated: naive summation loses the small terms.
        let mut data = vec![1.0];
        data.extend(std::iter::repeat_n(1e-16, 10_000));
        let t = Tensor::from_vec(1, data.len(), data);
        let expected = 1.0 + 1e-12;
        assert!((t.sum() - expected).abs() < 1e-15);
    }

    #[test]
    fn debug_format_truncates() {
        let t = Tensor::zeros(20, 20);
        let s = format!("{t:?}");
        assert!(s.contains("…"));
        assert!(s.contains("20x20"));
    }
}
