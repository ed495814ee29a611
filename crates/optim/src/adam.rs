//! Adam, sparse-aware.
//!
//! Row-sparse gradients are consumed without densifying: only the touched
//! rows of the parameter, its first moment and its second moment are read
//! or written, with a `β^Δt` catch-up applied to
//! the moments of a row that sat idle for `Δt` steps (the exponent is the
//! number of missed steps, computed from a per-row `last` stamp). Dense
//! gradients — full-table losses — still update every row through a fused
//! single-pass kernel that reads the gradient in place rather than cloning
//! it, with the `1/(1-β^t)` bias corrections folded into one precomputed
//! per-step scale.
//!
//! Documented lazy approximations (see DESIGN.md §10): the coupled L2
//! term only acts on rows the current gradient touches, and idle rows
//! receive no updates from their decayed momentum tail.
//!
//! The dense pass is [`dt_tensor::fused::adam_dense`], split across the
//! shared pool and bit-identical to the sequential loop at any width.

use std::collections::HashMap;

use dt_autograd::{ParamId, Params};
use dt_tensor::fused::AdamDense;
use dt_tensor::{Grad, Tensor};

use crate::Optimizer;

/// `beta^delta` with an integer exponent, for lazy moment catch-up.
/// Deterministic (no `powf` on the hot path) and saturating: a `delta`
/// beyond `i32::MAX` steps underflows to the same limit value.
fn catchup_pow(beta: f64, delta: u64) -> f64 {
    beta.powi(i32::try_from(delta).unwrap_or(i32::MAX))
}

/// Per-parameter Adam state: dense moments plus the step stamp of each
/// row's most recent update (for lazy catch-up).
struct State {
    m: Tensor,
    v: Tensor,
    last: Vec<u64>,
}

/// Adam (Kingma & Ba, 2015) — the optimizer the paper uses for all methods,
/// with L2 regularisation folded into the gradient.
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    weight_decay: f64,
    t: u64,
    state: HashMap<ParamId, State>,
}

impl Adam {
    /// Adam with standard betas `(0.9, 0.999)` and `eps = 1e-8`.
    #[must_use]
    pub fn new(lr: f64) -> Self {
        Self::with_config(lr, 0.9, 0.999, 1e-8, 0.0)
    }

    /// Fully configured Adam; `weight_decay` is the coupled L2 coefficient.
    ///
    /// # Panics
    /// Panics on out-of-range hyper-parameters.
    #[must_use]
    pub fn with_config(lr: f64, beta1: f64, beta2: f64, eps: f64, weight_decay: f64) -> Self {
        assert!(lr > 0.0, "Adam: lr must be positive, got {lr}");
        assert!((0.0..1.0).contains(&beta1), "Adam: beta1 out of range");
        assert!((0.0..1.0).contains(&beta2), "Adam: beta2 out of range");
        assert!(eps > 0.0, "Adam: eps must be positive");
        assert!(weight_decay >= 0.0, "Adam: negative weight_decay");
        Self {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
            state: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut Params) {
        self.t += 1;
        let t = self.t;
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let wd = self.weight_decay;
        // Bias corrections depend only on the global step, so the dense
        // update `lr·(m/bc1)/(√(v/bc2)+eps)` folds into one scale and one
        // shifted eps, computed once per step instead of per element.
        let bc1 = 1.0 - catchup_pow(b1, t);
        let bc2 = 1.0 - catchup_pow(b2, t);
        let scale = lr * bc2.sqrt() / bc1;
        let eps2 = eps * bc2.sqrt();

        for id in params.ids() {
            let (rows, cols) = {
                let val = params.value(id);
                (val.rows(), val.cols())
            };
            // The moment state is allocated once, on a parameter's first
            // step, and reused by every later step.
            let st = self.state.entry(id).or_insert_with(|| State {
                m: Tensor::zeros(rows, cols), // alloc-ok: first step only
                v: Tensor::zeros(rows, cols), // alloc-ok: first step only
                last: vec![t - 1; rows],      // alloc-ok: first step only
            });

            let (g, w) = params.grad_and_value_mut(id);
            let State { m, v, last } = st;
            match g {
                Grad::RowSparse(s) => {
                    for (k, &r) in s.indices().iter().enumerate() {
                        let idle = t - 1 - last[r];
                        if idle > 0 {
                            let d1 = catchup_pow(b1, idle);
                            let d2 = catchup_pow(b2, idle);
                            for x in m.row_mut(r).iter_mut() {
                                *x *= d1;
                            }
                            for x in v.row_mut(r).iter_mut() {
                                *x *= d2;
                            }
                        }
                        last[r] = t;

                        let grow = s.block().row(k);
                        let wrow = w.row_mut(r);
                        let mrow = m.row_mut(r);
                        let vrow = v.row_mut(r);
                        for j in 0..cols {
                            let mut gi = grow[j];
                            if wd > 0.0 {
                                gi += wd * wrow[j];
                            }
                            mrow[j] = b1 * mrow[j] + (1.0 - b1) * gi;
                            vrow[j] = b2 * vrow[j] + (1.0 - b2) * gi * gi;
                            wrow[j] -= scale * mrow[j] / (vrow[j].sqrt() + eps2);
                        }
                    }
                }
                Grad::Dense(gd) => {
                    // Rows may carry different stamps after a run of sparse
                    // steps: catch each one up before the fused pass.
                    for (r, stamp) in last.iter_mut().enumerate() {
                        let idle = t - 1 - *stamp;
                        if idle > 0 {
                            let d1 = catchup_pow(b1, idle);
                            let d2 = catchup_pow(b2, idle);
                            for x in m.row_mut(r).iter_mut() {
                                *x *= d1;
                            }
                            for x in v.row_mut(r).iter_mut() {
                                *x *= d2;
                            }
                        }
                        *stamp = t;
                    }
                    dt_tensor::fused::adam_dense(
                        w.data_mut(),
                        m.data_mut(),
                        v.data_mut(),
                        gd.data(),
                        AdamDense {
                            beta1: b1,
                            beta2: b2,
                            scale,
                            eps: eps2,
                            l2: wd,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_autograd::Graph;
    use dt_tensor::RowSparse;

    #[test]
    fn converges_on_rosenbrock_like_quadratic() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::row_vec(&[3.0, -2.0]));
        let target = Tensor::row_vec(&[1.0, 1.0]);
        let mut opt = Adam::new(0.05);
        for _ in 0..2000 {
            let mut g = Graph::new();
            let wv = g.param(&params, w);
            let tv = g.constant(target.clone());
            let loss = g.mse(wv, tv);
            opt.minimize(g, loss, &mut params);
        }
        assert!(params.value(w).sub(&target).frob_sq() < 1e-8);
    }

    #[test]
    fn first_step_size_is_lr() {
        // With bias correction, the very first Adam update has magnitude ≈ lr.
        let mut params = Params::new();
        let w = params.add("w", Tensor::scalar(10.0));
        params.accumulate_grad(w, &Tensor::scalar(123.0));
        let mut opt = Adam::new(0.1);
        opt.step(&mut params);
        assert!((params.value(w).item() - (10.0 - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn l2_decays_with_dense_zero_gradient() {
        // A dense (all-zero) gradient takes the full-table path, where the
        // coupled L2 term alone shrinks every weight.
        let mut params = Params::new();
        let w = params.add("w", Tensor::scalar(1.0));
        params.accumulate_grad(w, &Tensor::zeros(1, 1));
        let mut opt = Adam::with_config(0.01, 0.9, 0.999, 1e-8, 0.1);
        opt.step(&mut params);
        assert!(params.value(w).item() < 1.0);
    }

    #[test]
    fn lazy_untouched_param_does_not_move() {
        // Documented lazy semantics: with an empty row-sparse gradient no
        // row is touched, so neither the weights nor the L2 term move — L2
        // acts per touched row, not per step.
        let mut params = Params::new();
        let w = params.add("w", Tensor::scalar(1.0));
        let mut opt = Adam::with_config(0.01, 0.9, 0.999, 1e-8, 0.1);
        opt.step(&mut params);
        assert_eq!(params.value(w).item(), 1.0);
    }

    #[test]
    fn handles_params_added_after_first_step() {
        let mut params = Params::new();
        let a = params.add("a", Tensor::scalar(1.0));
        let mut opt = Adam::new(0.1);
        params.accumulate_grad(a, &Tensor::scalar(1.0));
        opt.step(&mut params);
        params.zero_grad();
        let b = params.add("b", Tensor::scalar(1.0));
        params.accumulate_grad(b, &Tensor::scalar(1.0));
        opt.step(&mut params); // must not panic; state is keyed by ParamId
        assert!(params.value(b).item() < 1.0);
    }

    #[test]
    fn lazy_catchup_matches_documented_semantics() {
        // Touch row 0, leave it idle for two steps (while row 1 trains),
        // then touch it again: its moments must be decayed by β^2 before
        // the fourth update. The expected trajectory is simulated with
        // scalar arithmetic implementing exactly the documented formulas.
        let (lr, b1, b2, eps) = (0.1, 0.9, 0.999, 1e-8);
        let mut params = Params::new();
        let w = params.add("w", Tensor::from_rows(&[&[1.0], &[1.0]]));
        let mut opt = Adam::with_config(lr, b1, b2, eps, 0.0);

        let touches: [(usize, f64); 4] = [(0, 0.5), (1, -0.3), (1, 0.2), (0, 0.7)];
        for &(row, gval) in &touches {
            let sparse = RowSparse::from_scatter(2, 1, &[row], &Tensor::scalar(gval));
            params.accumulate_grad_rows(w, sparse);
            opt.step(&mut params);
            params.zero_grad();
        }

        // Scalar simulation for row 0 (touched at t = 1 and t = 4).
        let (mut wv, mut m, mut v) = (1.0f64, 0.0f64, 0.0f64);
        let mut upd = |t: i32, idle: i32, g: f64| {
            m *= b1.powi(idle);
            v *= b2.powi(idle);
            m = b1 * m + (1.0 - b1) * g;
            v = b2 * v + (1.0 - b2) * g * g;
            let bc1 = 1.0 - b1.powi(t);
            let bc2 = 1.0 - b2.powi(t);
            wv -= lr * bc2.sqrt() / bc1 * m / (v.sqrt() + eps * bc2.sqrt());
        };
        upd(1, 0, 0.5);
        upd(4, 2, 0.7);
        assert!((params.value(w).get(0, 0) - wv).abs() < 1e-15);
    }

    #[test]
    fn mixed_sparse_then_dense_grad_trains() {
        // A parameter can see sparse gradients on one step and dense on the
        // next (the DT loss shape); both paths share per-row stamps.
        let mut params = Params::new();
        let w = params.add("w", Tensor::from_fn(4, 2, |i, j| (i + j) as f64));
        let mut opt = Adam::new(0.1);

        let sparse = RowSparse::from_scatter(4, 2, &[1], &Tensor::row_vec(&[1.0, 1.0]));
        params.accumulate_grad_rows(w, sparse);
        opt.step(&mut params);
        params.zero_grad();

        params.accumulate_grad(w, &Tensor::ones(4, 2));
        opt.step(&mut params); // must not panic on stale stamps
        params.zero_grad();
        assert!(params.all_finite());
        assert!(params.value(w).get(0, 0) < 0.0 + 1e-9);
    }
}
