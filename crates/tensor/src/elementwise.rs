//! Element-wise and axpy-style kernels.
//!
//! These are the flat-loop workhorses of the backward sweep (gradient
//! accumulation is `add_assign`/`axpy`, optimiser updates are `scale` +
//! `axpy`). Each concrete operation has a slice-based sequential loop and,
//! above [`PAR_MIN_ELEMS`] elements, a chunk-parallel path on the shared
//! `dt-parallel` pool. Every element is computed by exactly one thread from
//! the same pure expression, so results are bit-identical for any
//! `DT_NUM_THREADS`.
//!
//! The generic combinators ([`Tensor::map`], [`Tensor::zip_map`], …) stay
//! sequential: their closures are not required to be `Sync`, and keeping
//! that flexibility for callers matters more than parallelising the rare
//! large `map`.

use crate::checked::Check;
use crate::Tensor;

/// Minimum elements before an element-wise kernel fans out to the pool;
/// these kernels are memory-bound, so the bar is higher than for GEMM.
const PAR_MIN_ELEMS: usize = 1 << 15;

/// Near-equal chunk length for `len` elements over the current partition
/// width. Element-wise results are independent per element, so (unlike the
/// GEMM reduction chunks) this geometry is free to vary with the thread
/// count.
fn chunk_len(len: usize) -> usize {
    len.div_ceil(dt_parallel::effective_threads()).max(1)
}

fn parallel_worthwhile(len: usize) -> bool {
    len >= PAR_MIN_ELEMS && dt_parallel::effective_threads() > 1
}

/// `out[i] = f(a[i], b[i])`, parallel when large.
fn binary(
    a: &Tensor,
    b: &Tensor,
    op: &str,
    check: Check,
    f: impl Fn(f64, f64) -> f64 + Sync,
) -> Tensor {
    assert_eq!(
        a.shape(),
        b.shape(),
        "{op}: shape mismatch {} vs {}",
        a.shape(),
        b.shape()
    );
    let len = a.len();
    // Every element is written below, so the stale pooled contents never
    // escape. The buffer is taken on the calling thread; workers only see
    // disjoint `&mut` chunks (the pool-aware handoff).
    let mut out = Tensor::pooled_scratch(a.rows(), a.cols());
    if parallel_worthwhile(len) {
        let (ad, bd) = (a.data(), b.data());
        let cl = chunk_len(len);
        dt_parallel::for_each_chunk(out.data_mut(), cl, |ci, chunk| {
            let o = ci * cl;
            let (xs, ys) = (&ad[o..o + chunk.len()], &bd[o..o + chunk.len()]);
            for ((v, &x), &y) in chunk.iter_mut().zip(xs).zip(ys) {
                *v = f(x, y);
            }
        });
    } else {
        for ((v, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
            *v = f(x, y);
        }
    }
    check.run(op, out.data());
    out
}

/// `dst[i] = f(dst[i], src[i])` in place, parallel when large.
fn binary_inplace(
    dst: &mut Tensor,
    src: &Tensor,
    op: &str,
    check: Check,
    f: impl Fn(f64, f64) -> f64 + Sync,
) {
    assert_eq!(
        dst.shape(),
        src.shape(),
        "{op}: shape mismatch {} vs {}",
        dst.shape(),
        src.shape()
    );
    let len = dst.len();
    let sd = src.data();
    if parallel_worthwhile(len) {
        let cl = chunk_len(len);
        dt_parallel::for_each_chunk(dst.data_mut(), cl, |ci, chunk| {
            let src_chunk = &sd[ci * cl..ci * cl + chunk.len()];
            for (d, &s) in chunk.iter_mut().zip(src_chunk) {
                *d = f(*d, s);
            }
        });
    } else {
        for (d, &s) in dst.data_mut().iter_mut().zip(sd) {
            *d = f(*d, s);
        }
    }
    check.run(op, dst.data());
}

/// `out[i] = f(a[i])`, parallel when large.
fn unary(a: &Tensor, op: &str, check: Check, f: impl Fn(f64) -> f64 + Sync) -> Tensor {
    let len = a.len();
    // Fully overwritten before escaping; see `binary` for the pool contract.
    let mut out = Tensor::pooled_scratch(a.rows(), a.cols());
    if parallel_worthwhile(len) {
        let ad = a.data();
        let cl = chunk_len(len);
        dt_parallel::for_each_chunk(out.data_mut(), cl, |ci, chunk| {
            let src_chunk = &ad[ci * cl..ci * cl + chunk.len()];
            for (v, &x) in chunk.iter_mut().zip(src_chunk) {
                *v = f(x);
            }
        });
    } else {
        for (v, &x) in out.data_mut().iter_mut().zip(a.data()) {
            *v = f(x);
        }
    }
    check.run(op, out.data());
    out
}

/// `dst[i] = f(dst[i])` in place, parallel when large.
fn unary_inplace(dst: &mut Tensor, op: &str, check: Check, f: impl Fn(f64) -> f64 + Sync) {
    let len = dst.len();
    if parallel_worthwhile(len) {
        let cl = chunk_len(len);
        dt_parallel::for_each_chunk(dst.data_mut(), cl, |_, chunk| {
            for d in chunk {
                *d = f(*d);
            }
        });
    } else {
        for d in dst.data_mut() {
            *d = f(*d);
        }
    }
    check.run(op, dst.data());
}

/// `dst[r][lo..lo + width] += alpha * src[r]` over the rows of `dst`
/// (row stride `ld`) and the matching `width`-wide rows of `src`.
fn axpy_rows(dst: &mut [f64], ld: usize, lo: usize, alpha: f64, src: &[f64], width: usize) {
    for (drow, srow) in dst.chunks_exact_mut(ld).zip(src.chunks_exact(width)) {
        for (d, &s) in drow[lo..lo + width].iter_mut().zip(srow) {
            *d += alpha * s;
        }
    }
}

impl Tensor {
    /// Applies `f` to every element, producing a new tensor.
    ///
    /// Sequential by design — `f` need not be `Sync`. The concrete
    /// operations below parallelise instead.
    #[must_use]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Self {
        let mut out = Self::pooled_scratch(self.rows(), self.cols());
        for (o, &v) in out.data_mut().iter_mut().zip(self.data()) {
            *o = f(v);
        }
        out
    }

    /// Combines two same-shaped tensors element-wise (sequential; see
    /// [`Tensor::map`]).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[must_use]
    pub fn zip_map(&self, other: &Self, f: impl Fn(f64, f64) -> f64) -> Self {
        assert_eq!(
            self.shape(),
            other.shape(),
            "zip_map: shape mismatch {} vs {}",
            self.shape(),
            other.shape()
        );
        let mut out = Self::pooled_scratch(self.rows(), self.cols());
        for ((o, &a), &b) in out.data_mut().iter_mut().zip(self.data()).zip(other.data()) {
            *o = f(a, b);
        }
        out
    }

    /// Element-wise sum.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        binary(self, other, "add", Check::Finite, |a, b| a + b)
    }

    /// Element-wise difference.
    #[must_use]
    pub fn sub(&self, other: &Self) -> Self {
        binary(self, other, "sub", Check::Finite, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    #[must_use]
    pub fn mul(&self, other: &Self) -> Self {
        binary(self, other, "mul", Check::Finite, |a, b| a * b)
    }

    /// Element-wise quotient. `±inf` from division by zero is allowed
    /// through the debug guard; NaN (`0/0`) is not.
    #[must_use]
    pub fn div(&self, other: &Self) -> Self {
        binary(self, other, "div", Check::NoNan, |a, b| a / b)
    }

    /// Adds `other` into `self` in place.
    pub fn add_assign(&mut self, other: &Self) {
        binary_inplace(self, other, "add_assign", Check::Finite, |a, b| a + b);
    }

    /// `self += alpha * other` (the BLAS `axpy` kernel).
    pub fn axpy(&mut self, alpha: f64, other: &Self) {
        binary_inplace(self, other, "axpy", Check::Finite, move |a, b| {
            a + alpha * b
        });
    }

    /// `self[:, lo..lo + src.cols()] += alpha * src` in place: `axpy` into
    /// a column window. A tape's column view adds its backward deltas
    /// straight into its base's accumulator with it, so no full-width
    /// zero-padded copy of the delta is ever built. Per element this is
    /// the same `a + alpha * b` as [`Tensor::axpy`]; rows are partitioned
    /// across the pool when large, bit-identical at any width.
    ///
    /// # Panics
    /// Panics when the row counts disagree or the window is out of bounds.
    pub fn axpy_cols(&mut self, lo: usize, alpha: f64, src: &Self) {
        assert_eq!(
            self.rows(),
            src.rows(),
            "axpy_cols: row mismatch {} vs {}",
            self.shape(),
            src.shape()
        );
        let (ld, width) = (self.cols(), src.cols());
        assert!(
            lo + width <= ld,
            "axpy_cols: window {lo}..{} out of bounds for {}",
            lo + width,
            self.shape()
        );
        if width == 0 || self.rows() == 0 {
            return;
        }
        let sd = src.data();
        if parallel_worthwhile(src.len()) {
            let rows_per = self.rows().div_ceil(dt_parallel::effective_threads());
            dt_parallel::for_each_chunk(self.data_mut(), rows_per * ld, |ci, chunk| {
                let r0 = ci * rows_per;
                axpy_rows(chunk, ld, lo, alpha, &sd[r0 * width..], width);
            });
        } else {
            axpy_rows(self.data_mut(), ld, lo, alpha, sd, width);
        }
        Check::Finite.run("axpy_cols", self.data());
    }

    /// Multiplies every element by `alpha`.
    #[must_use]
    pub fn scale(&self, alpha: f64) -> Self {
        unary(self, "scale", Check::Finite, move |v| v * alpha)
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale_inplace(&mut self, alpha: f64) {
        unary_inplace(self, "scale_inplace", Check::Finite, move |v| v * alpha);
    }

    /// Adds `alpha` to every element.
    #[must_use]
    pub fn add_scalar(&self, alpha: f64) -> Self {
        unary(self, "add_scalar", Check::Finite, move |v| v + alpha)
    }

    /// Negates every element.
    #[must_use]
    pub fn neg(&self) -> Self {
        unary(self, "neg", Check::Finite, |v| -v)
    }

    /// Clamps every element to `[lo, hi]`.
    ///
    /// # Panics
    /// Panics when `lo > hi`.
    #[must_use]
    pub fn clamp(&self, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "clamp: lo {lo} > hi {hi}");
        // Infinite bounds pass ±inf through, so only NaN is rejected.
        unary(self, "clamp", Check::NoNan, move |v| v.clamp(lo, hi))
    }

    /// Resets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data_mut().fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::full(2, 2, 2.0);
        assert_eq!(a.add(&b).data(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sub(&b).data(), &[-1.0, 0.0, 1.0, 2.0]);
        assert_eq!(a.mul(&b).data(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(a.div(&b).data(), &[0.5, 1.0, 1.5, 2.0]);
        assert_eq!(a.scale(2.0), a.mul(&b));
        assert_eq!(a.neg().data(), &[-1.0, -2.0, -3.0, -4.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.clamp(2.0, 3.0).data(), &[2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn axpy_and_inplace() {
        let mut a = Tensor::ones(1, 3);
        let b = Tensor::from_rows(&[&[1.0, 2.0, 3.0]]);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[3.0, 5.0, 7.0]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[4.0, 7.0, 10.0]);
        a.scale_inplace(0.5);
        assert_eq!(a.data(), &[2.0, 3.5, 5.0]);
        a.fill_zero();
        assert_eq!(a.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn map_and_zip_map_stay_available() {
        let a = Tensor::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.map(f64::abs).data(), &[1.0, 2.0]);
        let b = Tensor::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.zip_map(&b, f64::max).data(), &[3.0, 4.0]);
    }

    #[test]
    fn large_tensors_cross_the_parallel_threshold_identically() {
        // Big enough to take the chunked path; values chosen so sequential
        // and parallel must agree bit-for-bit.
        let n = super::PAR_MIN_ELEMS + 77;
        let a = Tensor::from_fn(1, n, |_, j| (j as f64).sin());
        let b = Tensor::from_fn(1, n, |_, j| 1.0 + (j % 97) as f64);
        let par = a.add(&b);
        let seq = dt_parallel::run_sequential(|| a.add(&b));
        assert_eq!(par, seq);

        let mut pa = a.clone();
        pa.axpy(0.5, &b);
        let mut sa = a.clone();
        dt_parallel::run_sequential(|| sa.axpy(0.5, &b));
        assert_eq!(pa, sa);
    }

    #[test]
    #[should_panic(expected = "add_assign")]
    fn inplace_shape_mismatch_panics() {
        let mut a = Tensor::zeros(2, 2);
        a.add_assign(&Tensor::zeros(2, 3));
    }
}
