//! # dt-optim
//!
//! Adam, the optimizer every trainer in the `disrec` workspace uses, over
//! a [`dt_autograd::Params`] store. A training step builds a tape, then
//! hands it to [`Optimizer::minimize`], which reads the loss, runs the
//! backward sweep, drops the tape, steps and zeroes the gradients.
//!
//! ## Sparse-aware updates
//!
//! Gradients arrive as [`dt_tensor::Grad`] — row-sparse for embedding-table
//! parameters touched through gathers, dense for full-table losses. Adam
//! consumes both without densifying: a step over a row-sparse gradient
//! costs `O(touched_rows × cols)`, catching idle rows' moments up with a
//! `β^Δt` decay factor the next time they are touched (see DESIGN.md §10
//! for the exact semantics and the documented approximations). The legacy
//! dense formula is kept verbatim in [`reference`], the oracle of the lazy
//! path's equivalence tests.
//!
//! Optimizer state (the two moments) is keyed by
//! [`dt_autograd::ParamId`], not by iteration position, so interleaving
//! parameter registration with steps cannot mis-associate state.
//!
//! ## Example
//!
//! ```
//! use dt_autograd::{Graph, Params};
//! use dt_optim::{Adam, Optimizer};
//! use dt_tensor::Tensor;
//!
//! let mut params = Params::new();
//! let w = params.add("w", Tensor::scalar(5.0));
//! let mut opt = Adam::new(0.5);
//!
//! for _ in 0..200 {
//!     let mut g = Graph::new();
//!     let wv = g.param(&params, w);
//!     let loss0 = g.sqr(wv); // minimise w²
//!     let loss = g.sum(loss0);
//!     opt.minimize(g, loss, &mut params);
//! }
//! assert!(params.value(w).item().abs() < 1e-3);
//! ```

#![forbid(unsafe_code)]

mod adam;
pub mod reference;

pub use adam::Adam;

use dt_autograd::{Graph, Params, Var};

/// A first-order optimizer over a [`Params`] store.
pub trait Optimizer {
    /// Applies one update using the gradients currently accumulated in
    /// `params`. Does not zero the gradients.
    fn step(&mut self, params: &mut Params);

    /// One training step on the tape `g`: reads `loss`, backpropagates it
    /// into `params`, drops the tape, steps and zeroes the gradients.
    /// Returns the loss value.
    ///
    /// Taking the tape by value drops it before the step, so the tape's
    /// `Rc`s of the parameter tables are gone and the step updates them in
    /// place instead of copying each one.
    fn minimize(&mut self, g: Graph, loss: Var, params: &mut Params) -> f64 {
        let value = g.item(loss);
        g.backward(loss, params);
        drop(g);
        self.step(params);
        params.zero_grad();
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_tensor::Tensor;

    #[test]
    fn minimize_updates_a_mounted_parameter_in_place() {
        // The tape holds an `Rc` of every mounted table; a step taken while
        // it is alive would copy the table instead of writing into it.
        let mut params = Params::new();
        let w = params.add("w", Tensor::from_fn(4, 3, |i, j| (i + 2 * j) as f64 * 0.1));
        let mut opt = Adam::new(0.1);
        let before = params.value(w).clone();
        let storage = params.value(w).data().as_ptr();
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let sq = g.sqr(wv);
        let loss = g.sum(sq);
        let value = opt.minimize(g, loss, &mut params);
        assert_eq!(value, before.frob_sq());
        assert_ne!(params.value(w), &before, "the step moved the weights");
        assert_eq!(
            params.value(w).data().as_ptr(),
            storage,
            "the step copied the table"
        );
        assert_eq!(params.grad(w).frob_sq(), 0.0, "gradients are zeroed");
    }
}
