//! # dt-models
//!
//! The model zoo behind the `disrec` training methods:
//!
//! * [`MfHead`] — the one MF scorer: a column range of shared embedding
//!   tables plus a user / item / global bias triple, scored on a tape,
//!   through the batched kernels, or from an exported serving index.
//! * [`MfModel`] — matrix factorisation with biases (one head), the base
//!   model of every method in the paper (§VI: "we use MF as our base
//!   model").
//! * [`DisentangledMf`] — the paper's contribution: embeddings split into
//!   a primary block (rating head) and an auxiliary block that only the
//!   propensity head sees (two heads over the same tables), with the
//!   disentangling / regularisation penalties of §IV-B.
//! * [`Mlp`] / [`TowerModel`] — shared-embedding multi-tower architectures
//!   used by Multi-IPS/DR, ESMM and ESCM² (§VI: "we use a shallow MLP to
//!   implement these methods after the embedding layer").
//! * [`propensity`] — the propensity heads: constant (MCAR), logistic MF
//!   on `o` (MAR), and Naive-Bayes (MNAR with a uniform slice).

#![forbid(unsafe_code)]

mod disentangled;
mod mf;
mod mlp;
pub mod propensity;
mod towers;

pub use disentangled::{DisentangledConfig, DisentangledMf};
pub use mf::{MfHead, MfModel};
pub use mlp::Mlp;
pub use towers::{TowerConfig, TowerModel};

use dt_autograd::{Graph, Var};
use dt_tensor::Tensor;

/// Broadcasts a `1×1` variable to an `n×1` column (used to add a global
/// bias to a batch of logits): implemented as `1_n · s`.
pub fn broadcast_scalar(g: &mut Graph, s: Var, n: usize) -> Var {
    let ones = g.constant(Tensor::ones(n, 1));
    g.matmul(ones, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_autograd::Params;

    #[test]
    fn broadcast_scalar_values_and_gradient() {
        let mut params = Params::new();
        let s = params.add("s", Tensor::scalar(3.0));
        let mut g = Graph::new();
        let sv = g.param(&params, s);
        let col = broadcast_scalar(&mut g, sv, 4);
        assert_eq!(g.value(col).data(), &[3.0; 4]);
        let loss = g.sum(col);
        g.backward(loss, &mut params);
        assert_eq!(params.grad(s).item(), 4.0);
    }
}
