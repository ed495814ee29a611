//! The fused sigmoid→BCE kernel: loss + cached backward residual in one
//! pass.
//!
//! Every propensity head trains on a mean BCE with logits (DT's over the
//! whole space, the two-stage methods' over their propensity fit).
//! Composed from primitive ops, the chain materialises the element-wise
//! BCE and the backward residual plus the reduction. [`sigmoid_bce`]
//! computes the scalar mean loss and the backward residual `σ(x) − t` in a
//! single pass over the logits, touching **one** (pooled) buffer.
//!
//! ## Bit-identity contract
//!
//! The fused kernel is *bit-identical* to its composed-op reference
//! [`sigmoid_bce_reference`], which spells out the exact primitive chain
//! used by `dt-autograd` before fusion:
//!
//! * the per-element BCE term is the same stable expression
//!   `max(x,0) − x·t + ln1p(e^{−|x|})`;
//! * the mean reduction is the same sequential Kahan sum over the same
//!   value sequence as [`crate::Tensor::sum`], divided by the length;
//! * the backward product `r · c` associates the same way the composed
//!   sweep does.
//!
//! The equivalence is pinned by exhaustive sweeps in this module and by
//! proptests in `dt-autograd` that run the loss both ways on the tape.
//!
//! ## The dense Adam pass
//!
//! [`adam_dense`] is the optimizer's full-table update (every DT-IPS and
//! DT-DR step: the penalties make the `P` and `Q` gradients dense). It
//! lives here, beside the pool it runs on, because `dt-optim` builds
//! against `dt-tensor` and `dt-autograd` only. Each element's update is
//! one pure expression of its own weight, moments and gradient, so the
//! per-thread split is bit-identical to the sequential loop at any width.

use crate::checked::Check;
use crate::Tensor;

/// Overflow-free logistic sigmoid (shared with `dt-autograd`).
#[must_use]
pub fn stable_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// The numerically stable element-wise BCE-with-logits term
/// `max(x,0) − x·t + ln(1 + e^{−|x|})`.
#[must_use]
pub fn bce_term(x: f64, t: f64) -> f64 {
    x.max(0.0) - x * t + (-x.abs()).exp().ln_1p()
}

/// Kahan accumulator matching [`crate::Tensor::sum`] term for term.
struct Kahan {
    s: f64,
    c: f64,
}

impl Kahan {
    fn new() -> Self {
        Self { s: 0.0, c: 0.0 }
    }

    #[inline]
    fn add(&mut self, v: f64) {
        let y = v - self.c;
        let t = self.s + y;
        self.c = (t - self.s) - y;
        self.s = t;
    }
}

fn assert_same_shape(op: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(
        a.shape(),
        b.shape(),
        "{op}: shape mismatch {} vs {}",
        a.shape(),
        b.shape()
    );
}

/// Fused `mean(bce_with_logits(logits, targets))`.
///
/// Returns the scalar mean loss together with the backward residual
/// `σ(x) − t` (one pooled buffer, the only allocation). Bit-identical to
/// [`sigmoid_bce_reference`].
///
/// # Panics
/// Panics on a shape mismatch or empty input (mean of nothing).
#[must_use]
pub fn sigmoid_bce(logits: &Tensor, targets: &Tensor) -> (f64, Tensor) {
    assert_same_shape("sigmoid_bce", logits, targets);
    assert!(!logits.is_empty(), "sigmoid_bce: mean of empty tensor");
    let mut residual = Tensor::pooled_scratch(logits.rows(), logits.cols());
    let mut acc = Kahan::new();
    for ((r, &x), &t) in residual
        .data_mut()
        .iter_mut()
        .zip(logits.data())
        .zip(targets.data())
    {
        acc.add(bce_term(x, t));
        *r = stable_sigmoid(x) - t;
    }
    let loss = acc.s / logits.len() as f64;
    Check::Finite.run("sigmoid_bce", residual.data());
    (loss, residual)
}

/// Backward of [`sigmoid_bce`] w.r.t. the logits: `dx_i = r_i · scale`
/// with `scale = ∂L/∂loss / n`. Output draws from the pool.
#[must_use]
pub fn sigmoid_bce_backward(residual: &Tensor, scale: f64) -> Tensor {
    let mut dx = Tensor::pooled_scratch(residual.rows(), residual.cols());
    for (d, &r) in dx.data_mut().iter_mut().zip(residual.data()) {
        *d = r * scale;
    }
    Check::Finite.run("sigmoid_bce_backward", dx.data());
    dx
}

/// The per-step constants of one dense Adam update ([`adam_dense`]).
#[derive(Clone, Copy, Debug)]
pub struct AdamDense {
    /// First-moment decay `β₁`.
    pub beta1: f64,
    /// Second-moment decay `β₂`.
    pub beta2: f64,
    /// `lr · √(1 − β₂ᵗ) / (1 − β₁ᵗ)`: both bias corrections folded into
    /// one step scale.
    pub scale: f64,
    /// `eps · √(1 − β₂ᵗ)`, the shifted epsilon that goes with `scale`.
    pub eps: f64,
    /// Coupled L2 coefficient folded into the gradient; `0` for none.
    pub l2: f64,
}

/// Minimum elements before [`adam_dense`] fans out to the pool.
const ADAM_PAR_MIN: usize = 1 << 14;

/// One dense Adam update over equal-length flat slices of the weights,
/// both moments and the gradient, in place:
///
/// `g' = g + l2·w` (only when `l2 > 0`), `m = β₁·m + (1 − β₁)·g'`,
/// `v = β₂·v + (1 − β₂)·g'·g'`, `w = w − scale·m / (√v + eps)`.
///
/// Above a size threshold the slices are split into one contiguous chunk
/// per thread of the shared pool; every element keeps its expression, so
/// the result is bit-identical to the sequential loop at any width.
///
/// # Panics
/// Panics when the slice lengths disagree.
pub fn adam_dense(w: &mut [f64], m: &mut [f64], v: &mut [f64], g: &[f64], c: AdamDense) {
    let len = w.len();
    assert!(
        m.len() == len && v.len() == len && g.len() == len,
        "adam_dense: length mismatch w {len}, m {}, v {}, g {}",
        m.len(),
        v.len(),
        g.len()
    );
    let threads = dt_parallel::effective_threads();
    if threads > 1 && len >= ADAM_PAR_MIN {
        let cl = len.div_ceil(threads);
        // alloc-ok: one closure slot per task (≤ thread count), per parallel region, not per element
        let mut tasks = Vec::with_capacity(threads);
        for (((wc, mc), vc), gc) in w
            .chunks_mut(cl)
            .zip(m.chunks_mut(cl))
            .zip(v.chunks_mut(cl))
            .zip(g.chunks(cl))
        {
            tasks.push(move || adam_run(wc, mc, vc, gc, c));
        }
        dt_parallel::par_tasks(tasks);
    } else {
        adam_run(w, m, v, g, c);
    }
}

/// The sequential body of [`adam_dense`] over one chunk.
fn adam_run(w: &mut [f64], m: &mut [f64], v: &mut [f64], g: &[f64], c: AdamDense) {
    let AdamDense {
        beta1: b1,
        beta2: b2,
        scale,
        eps,
        l2,
    } = c;
    for (((wj, mj), vj), &gj) in w.iter_mut().zip(m.iter_mut()).zip(v.iter_mut()).zip(g) {
        let mut gi = gj;
        if l2 > 0.0 {
            gi += l2 * *wj;
        }
        *mj = b1 * *mj + (1.0 - b1) * gi;
        *vj = b2 * *vj + (1.0 - b2) * gi * gi;
        *wj -= scale * *mj / (vj.sqrt() + eps);
    }
}

// ---------------------------------------------------------------------------
// Composed-op reference oracles
// ---------------------------------------------------------------------------

/// Composed-op reference for [`sigmoid_bce`]: the exact primitive chain
/// (`zip_map` BCE, then [`crate::Tensor::mean`]) the fused kernel replaces.
#[must_use]
pub fn sigmoid_bce_reference(logits: &Tensor, targets: &Tensor) -> (f64, Tensor) {
    let bce = logits.zip_map(targets, bce_term);
    let residual = logits.zip_map(targets, |x, t| stable_sigmoid(x) - t);
    (bce.mean(), residual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn batch(seed: u64, rows: usize, cols: usize) -> (Tensor, Tensor) {
        let mut rng = SplitMix64(seed);
        let logits = Tensor::from_fn(rows, cols, |_, _| (rng.next_f64() - 0.5) * 12.0);
        let targets = Tensor::from_fn(rows, cols, |_, _| f64::from(rng.next_f64() > 0.5));
        (logits, targets)
    }

    #[test]
    fn sigmoid_bce_matches_reference_bits() {
        for seed in 0..32u64 {
            let (x, t) = batch(seed, 17 + seed as usize, 3);
            let (fl, fr) = sigmoid_bce(&x, &t);
            let (rl, rr) = sigmoid_bce_reference(&x, &t);
            assert_eq!(fl.to_bits(), rl.to_bits(), "loss bits, seed {seed}");
            assert_eq!(fr, rr, "residual bits, seed {seed}");
        }
    }

    #[test]
    fn backward_matches_composed_products_bits() {
        let (x, t) = batch(7, 64, 1);
        let (_, r) = sigmoid_bce(&x, &t);
        let scale = 1.0 / x.len() as f64;
        // Composed sweep: mean backward emits a full tensor of `scale`,
        // then the BCE node multiplies residual · upstream.
        let upstream = Tensor::full(x.rows(), x.cols(), scale);
        let composed = r.mul(&upstream);
        assert_eq!(sigmoid_bce_backward(&r, scale), composed);
    }

    #[test]
    fn extreme_logits_stay_finite() {
        let x = Tensor::row_vec(&[500.0, -500.0, 0.0, 36.7, -36.7]);
        let t = Tensor::row_vec(&[0.0, 1.0, 0.5, 1.0, 0.0]);
        let (loss, r) = sigmoid_bce(&x, &t);
        assert!(loss.is_finite());
        assert!(r.all_finite());
        // σ(500) = 1, target 0 ⇒ loss term ≈ 500 dominates the mean.
        assert!(loss > 150.0);
    }

    #[test]
    fn single_element_is_the_plain_term() {
        let x = Tensor::scalar(0.75);
        let t = Tensor::scalar(1.0);
        let (loss, r) = sigmoid_bce(&x, &t);
        assert_eq!(loss.to_bits(), bce_term(0.75, 1.0).to_bits());
        assert_eq!(r.item().to_bits(), (stable_sigmoid(0.75) - 1.0).to_bits());
    }

    #[test]
    #[should_panic(expected = "sigmoid_bce: shape mismatch")]
    fn shape_mismatch_panics() {
        let _ = sigmoid_bce(&Tensor::zeros(2, 2), &Tensor::zeros(2, 3));
    }

    /// The dense Adam update as one sequential loop (the optimizer's body
    /// before the pass moved onto the pool).
    fn adam_sequential(w: &mut [f64], m: &mut [f64], v: &mut [f64], g: &[f64], c: AdamDense) {
        for j in 0..w.len() {
            let mut gi = g[j];
            if c.l2 > 0.0 {
                gi += c.l2 * w[j];
            }
            m[j] = c.beta1 * m[j] + (1.0 - c.beta1) * gi;
            v[j] = c.beta2 * v[j] + (1.0 - c.beta2) * gi * gi;
            w[j] -= c.scale * m[j] / (v[j].sqrt() + c.eps);
        }
    }

    #[test]
    fn pooled_adam_pass_equals_the_sequential_loop_at_every_width() {
        let mut rng = SplitMix64(0xADA3);
        // Below and above the parallel threshold, with a ragged last chunk.
        for len in [1usize, 37, ADAM_PAR_MIN + 3, 3 * ADAM_PAR_MIN + 1] {
            let mut fill = |scale: f64| {
                (0..len)
                    .map(|_| (rng.next_f64() - 0.5) * scale)
                    .collect::<Vec<_>>()
            };
            let (w0, m0, g) = (fill(2.0), fill(0.1), fill(1.0));
            let v0: Vec<f64> = fill(0.01).iter().map(|x| x * x).collect();
            for l2 in [0.0, 1e-5] {
                let c = AdamDense {
                    beta1: 0.9,
                    beta2: 0.999,
                    scale: 0.03 * (1.0 - 0.999f64.powi(3)).sqrt() / (1.0 - 0.9f64.powi(3)),
                    eps: 1e-8 * (1.0 - 0.999f64.powi(3)).sqrt(),
                    l2,
                };
                let (mut w, mut m, mut v) = (w0.clone(), m0.clone(), v0.clone());
                adam_sequential(&mut w, &mut m, &mut v, &g, c);
                for limit in [1, 2, 8] {
                    let (mut wp, mut mp, mut vp) = (w0.clone(), m0.clone(), v0.clone());
                    dt_parallel::with_thread_limit(limit, || {
                        adam_dense(&mut wp, &mut mp, &mut vp, &g, c)
                    });
                    for (what, got, want) in [("w", &wp, &w), ("m", &mp, &m), ("v", &vp, &v)] {
                        assert!(
                            got.iter()
                                .zip(want.iter())
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{what} differs at len {len}, l2 {l2}, width {limit}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "adam_dense: length mismatch")]
    fn adam_length_mismatch_panics() {
        let c = AdamDense {
            beta1: 0.9,
            beta2: 0.999,
            scale: 0.1,
            eps: 1e-8,
            l2: 0.0,
        };
        adam_dense(&mut [0.0; 3], &mut [0.0; 3], &mut [0.0; 2], &[0.0; 3], c);
    }
}
