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
//! consumes both without densifying: in the default [`GradMode::Lazy`] a
//! step over a row-sparse gradient costs `O(touched_rows × cols)`,
//! catching idle rows' moments up with a `β^Δt` decay factor the next
//! time they are touched (see DESIGN.md §10 for the exact semantics and
//! the documented approximations). The [`GradMode::DenseEquivalent`] mode
//! instead densifies and delegates to the legacy formula kept verbatim in
//! [`reference`], and is tested to be bit-identical to the pre-sparse
//! optimizer — the oracle for the lazy path's equivalence tests.
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

/// How the optimizer consumes row-sparse gradients.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum GradMode {
    /// Touched-rows-only updates: a row-sparse gradient updates just its
    /// touched rows, whose moments are first caught up with a `β^Δt`
    /// decay for the `Δt` steps the row sat idle. `O(touched × cols)` per
    /// step. Dense gradients still update every row.
    #[default]
    Lazy,
    /// Densify every gradient and delegate to the legacy dense formula in
    /// [`reference`] — bit-identical to the pre-sparse optimizer. Used by
    /// the equivalence tests and the dense arm of the training-step
    /// benchmark; `O(rows × cols)` per step.
    DenseEquivalent,
}

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
