//! # dt-autograd
//!
//! A tape-based reverse-mode automatic-differentiation engine over
//! [`dt_tensor::Tensor`], playing the role PyTorch's autograd plays in the
//! original implementation of *"Uncovering the Propensity Identification
//! Problem in Debiased Recommendations"* (ICDE 2024).
//!
//! ## Design
//!
//! * **Enum ops, no closures.** Every differentiable operation is a variant
//!   of the crate's `Op` enum with an explicit, auditable backward rule. The tape is a
//!   `Vec` of nodes in topological order (construction order), so backward
//!   is a single reverse sweep.
//! * **Graph-per-step.** Training loops build a fresh [`Graph`] per
//!   mini-batch. Parameters live outside the graph in a [`Params`] store of
//!   reference-counted tensors, so mounting a large embedding table as a
//!   leaf costs one `Rc` clone, not a copy.
//! * **Gradient pruning.** `requires_grad` propagates forward; branches
//!   behind [`Graph::detach`] (e.g. propensities used as IPS weights) cost
//!   nothing at backward time.
//! * **Row-sparse embedding gradients.** The backward rule of
//!   [`Graph::gather`] emits a [`dt_tensor::RowSparse`] delta and [`Params`]
//!   accumulates [`dt_tensor::Grad`] values, so a `B`-row mini-batch never
//!   materialises an `M×K` gradient unless a full-table (dense) loss term
//!   is present — see DESIGN.md §10.
//! * **Verified by finite differences.** The [`gradcheck`] module compares
//!   every op's analytic gradient against central differences; the test
//!   suite runs it over randomized shapes.
//!
//! ## Example
//!
//! ```
//! use dt_autograd::{Graph, Params};
//! use dt_tensor::Tensor;
//!
//! let mut params = Params::new();
//! let w = params.add("w", Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
//!
//! let mut g = Graph::new();
//! let wv = g.param(&params, w);
//! let loss = g.frob_sq(wv); // ‖W‖²_F
//! g.backward(loss, &mut params);
//!
//! // d‖W‖²_F/dW = 2W
//! assert_eq!(params.grad(w).to_dense().data(), &[2.0, 4.0, 6.0, 8.0]);
//! ```

#![forbid(unsafe_code)]

mod compose;
pub mod gradcheck;
mod graph;
mod op;
mod params;
#[cfg(feature = "serde")]
mod snapshot;

pub use dt_tensor::{Grad, RowSparse};
pub use graph::{Graph, Var};
pub use params::{ParamId, Params};
#[cfg(feature = "serde")]
pub use snapshot::ParamsSnapshot;
