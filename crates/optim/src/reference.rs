//! The legacy dense Adam step — the oracle the sparse-aware optimizer is
//! tested against.
//!
//! [`adam_step`] reproduces, operation for operation, the pre-row-sparse
//! implementation (clone the gradient, fold L2 decay in with `axpy`, decay
//! the moments with `scale_inplace`, divide by the bias corrections inside
//! `zip_map`, …). Keeping the old multi-pass formula verbatim means the
//! lazy optimizer's equivalence tests in `crates/optim/tests` compare
//! against the same formula the workspace ran before gradients became
//! sparse.

use dt_tensor::Tensor;

/// Hyper-parameters of a dense Adam step.
pub struct AdamCfg {
    /// Base learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Denominator fuzz.
    pub eps: f64,
    /// Coupled L2 coefficient, folded into the gradient.
    pub weight_decay: f64,
}

/// One dense Adam update on a single parameter, using the global step
/// counter `t` (1-based, already incremented) for bias correction.
///
/// # Panics
/// Panics on shape mismatches between the operands.
#[allow(clippy::cast_precision_loss)]
pub fn adam_step(
    w: &mut Tensor,
    grad: &Tensor,
    m: &mut Tensor,
    v: &mut Tensor,
    t: u64,
    cfg: &AdamCfg,
) {
    let tf = t as f64;
    let bc1 = 1.0 - cfg.beta1.powf(tf);
    let bc2 = 1.0 - cfg.beta2.powf(tf);

    let mut g = grad.clone();
    if cfg.weight_decay > 0.0 {
        g.axpy(cfg.weight_decay, w);
    }

    m.scale_inplace(cfg.beta1);
    m.axpy(1.0 - cfg.beta1, &g);

    v.scale_inplace(cfg.beta2);
    let g_sq = g.map(|x| x * x);
    v.axpy(1.0 - cfg.beta2, &g_sq);

    let lr = cfg.lr;
    let eps = cfg.eps;
    let update = m.zip_map(v, |mv, vv| {
        let m_hat = mv / bc1;
        let v_hat = vv / bc2;
        lr * m_hat / (v_hat.sqrt() + eps)
    });

    w.axpy(-1.0, &update);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_first_step_is_lr_sized() {
        let mut w = Tensor::scalar(10.0);
        let mut m = Tensor::zeros(1, 1);
        let mut v = Tensor::zeros(1, 1);
        let cfg = AdamCfg {
            lr: 0.1,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        };
        adam_step(&mut w, &Tensor::scalar(123.0), &mut m, &mut v, 1, &cfg);
        assert!((w.item() - 9.9).abs() < 1e-6);
    }
}
