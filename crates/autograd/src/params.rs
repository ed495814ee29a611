//! Parameter storage shared between model code, graphs and optimizers.

use std::rc::Rc;

use dt_tensor::{Grad, RowSparse, Tensor};

/// Handle to a parameter inside a [`Params`] store.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ParamId(pub(crate) usize);

pub(crate) struct Entry {
    pub(crate) name: String,
    pub(crate) value: Rc<Tensor>,
    pub(crate) grad: Grad,
}

/// A store of named, trainable tensors plus their accumulated gradients.
///
/// Values are reference counted: mounting a parameter into a [`crate::Graph`]
/// is an `Rc` clone. The optimizer mutates values through
/// [`Params::value_mut`], which copies-on-write only if a graph from a
/// previous step is still alive (normally it is not).
///
/// Gradients are stored as [`Grad`] — row-sparse until a dense delta
/// arrives — so a mini-batch that gathers `B` rows of an `M × K` table
/// accumulates, clips and zeroes in `O(B·K)` instead of `O(M·K)`.
#[derive(Default)]
pub struct Params {
    entries: Vec<Entry>,
}

impl Params {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let grad = Grad::empty(value.rows(), value.cols());
        self.entries.push(Entry {
            name: name.into(),
            value: Rc::new(value),
            grad,
        });
        ParamId(self.entries.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no parameters are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    #[must_use]
    pub fn n_scalars(&self) -> usize {
        self.entries.iter().map(|e| e.value.len()).sum()
    }

    /// The parameter's name.
    #[must_use]
    pub fn name(&self, id: ParamId) -> &str {
        &self.entries[id.0].name
    }

    /// Immutable view of the parameter value.
    #[must_use]
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.entries[id.0].value
    }

    /// The reference-counted value (used by [`crate::Graph::param`]).
    #[must_use]
    pub(crate) fn value_rc(&self, id: ParamId) -> Rc<Tensor> {
        Rc::clone(&self.entries[id.0].value)
    }

    /// Mutable access to the parameter value (copy-on-write).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        Rc::make_mut(&mut self.entries[id.0].value)
    }

    /// Raw entry access for sibling modules (checkpoint restore).
    #[cfg(feature = "serde")]
    pub(crate) fn entry_mut(&mut self, id: ParamId) -> &mut Entry {
        &mut self.entries[id.0]
    }

    /// Immutable view of the accumulated gradient.
    #[must_use]
    pub fn grad(&self, id: ParamId) -> &Grad {
        &self.entries[id.0].grad
    }

    /// The gradient together with mutable access to the value — the
    /// optimizer-step view. Borrowing both sides at once lets the step
    /// read the gradient in place instead of cloning it.
    pub fn grad_and_value_mut(&mut self, id: ParamId) -> (&Grad, &mut Tensor) {
        let e = &mut self.entries[id.0];
        (&e.grad, Rc::make_mut(&mut e.value))
    }

    /// Adds a dense `delta` into the gradient accumulator for `id`.
    pub fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        self.entries[id.0]
            .grad
            .accumulate(Grad::Dense(delta.clone()));
    }

    /// Adds a row-sparse `delta` into the gradient accumulator for `id`
    /// without densifying.
    pub fn accumulate_grad_rows(&mut self, id: ParamId, delta: RowSparse) {
        self.entries[id.0].grad.accumulate(Grad::RowSparse(delta));
    }

    /// Folds one backward sweep's deltas for `id` — its leaf gradients in
    /// tape order, one per mount of the parameter — into the accumulator
    /// in one pass ([`Grad::accumulate_run`]), bit-identical to adding
    /// them one at a time.
    pub fn accumulate_grad_owned(&mut self, id: ParamId, run: Vec<Grad>) {
        self.entries[id.0].grad.accumulate_run(run);
    }

    /// Resets every gradient accumulator to the empty row-sparse state
    /// (call between optimizer steps). `O(1)` per parameter — no
    /// full-table wipe.
    pub fn zero_grad(&mut self) {
        for e in &mut self.entries {
            e.grad.clear();
        }
    }

    /// Iterates over all parameter handles. The iterator holds only the
    /// count, not a borrow of the store, so a loop over it may mutate the
    /// parameters (the optimizer steps do).
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.entries.len()).map(ParamId)
    }

    /// Returns `true` when every parameter and gradient is finite.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.entries
            .iter()
            .all(|e| e.value.all_finite() && e.grad.all_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut p = Params::new();
        let a = p.add("a", Tensor::ones(2, 3));
        let b = p.add("b", Tensor::zeros(1, 1));
        assert_eq!(p.len(), 2);
        assert_eq!(p.n_scalars(), 7);
        assert_eq!(p.name(a), "a");
        assert_eq!(p.name(b), "b");
        assert_eq!(p.value(a).sum(), 6.0);
        assert_eq!(p.grad(a).frob_sq(), 0.0);
        assert!(!p.grad(a).is_dense(), "fresh grads start row-sparse");
    }

    #[test]
    fn grad_accumulation_and_zero() {
        let mut p = Params::new();
        let a = p.add("a", Tensor::zeros(2, 2));
        p.accumulate_grad(a, &Tensor::ones(2, 2));
        p.accumulate_grad(a, &Tensor::ones(2, 2));
        assert_eq!(p.grad(a).to_dense().sum(), 8.0);
        assert_eq!(p.grad(a).frob_sq(), 16.0);
        p.zero_grad();
        assert_eq!(p.grad(a).to_dense().sum(), 0.0);
        assert!(!p.grad(a).is_dense(), "zero_grad resets to sparse");
    }

    #[test]
    fn sparse_accumulation_stays_sparse() {
        let mut p = Params::new();
        let a = p.add("a", Tensor::zeros(4, 2));
        let delta = RowSparse::from_scatter(4, 2, &[1, 3], &Tensor::ones(2, 2));
        p.accumulate_grad_rows(a, delta.clone());
        p.accumulate_grad_rows(a, delta);
        assert!(!p.grad(a).is_dense());
        assert_eq!(p.grad(a).to_dense().row(1), &[2.0, 2.0]);
        assert_eq!(p.grad(a).to_dense().row(0), &[0.0, 0.0]);
        assert_eq!(p.grad(a).frob_sq(), 16.0);
    }

    #[test]
    fn grad_and_value_mut_borrows_both_sides() {
        let mut p = Params::new();
        let a = p.add("a", Tensor::ones(1, 2));
        p.accumulate_grad(a, &Tensor::row_vec(&[1.0, 2.0]));
        let (g, w) = p.grad_and_value_mut(a);
        let g = g.to_dense();
        w.axpy(-1.0, &g);
        assert_eq!(p.value(a).data(), &[0.0, -1.0]);
    }

    #[test]
    fn value_mut_copy_on_write() {
        let mut p = Params::new();
        let a = p.add("a", Tensor::zeros(1, 2));
        let shared = p.value_rc(a); // simulate a live graph holding the value
        p.value_mut(a).set(0, 0, 5.0);
        assert_eq!(p.value(a).get(0, 0), 5.0);
        assert_eq!(shared.get(0, 0), 0.0, "old graph must see the old value");
    }

    #[test]
    fn finiteness_check() {
        let mut p = Params::new();
        let a = p.add("a", Tensor::ones(1, 1));
        assert!(p.all_finite());
        p.value_mut(a).set(0, 0, f64::NAN);
        assert!(!p.all_finite());
    }
}
