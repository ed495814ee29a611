//! The tape: forward builders and the reverse sweep.
//!
//! ## Column views
//!
//! [`Graph::slice_cols`] records a *view* of its input's columns, not a
//! copy: the node holds no buffer. The GEMM builders and their backward
//! rules read a view in place through the windowed `dt-tensor` kernels
//! (`matmul_cols`, `matmul_tn_cols`, `matmul_nt_cols`), so the DT
//! penalties' eight slices of the `P` and `Q` tables cost nothing on the
//! forward pass. Any other consumer gets a plain tensor: [`Graph::value`]
//! materialises the view once, on first use, and caches it. A view of a
//! view is recorded as a view of the underlying base.
//!
//! A view never holds a gradient of its own. Every backward delta
//! addressed to it is added straight into the matching columns of its
//! base's accumulator (starting from zero), so no zero-padded
//! full-width copy of the delta is built. The Gram backward (`AᵀB`) goes
//! one step further: its two GEMMs add each finished block of their
//! product into the accumulator through the kernel's epilogue
//! (`Tensor::add_matmul_cols`), so no delta tensor exists at all. The
//! rule: **a view's deltas are added into its base in sweep order.** When
//! each base column receives its deltas in the order a copying slice
//! would hand them over (every DT loss graph), the gradients equal the
//! copying slice's bit for bit (`tests/view_oracle.rs`), because
//! `0.0 + x` and `x + 0.0` round alike. The one exception is a lone
//! `−0.0` delta, which a copy keeps and the view's `0.0 + (−0.0)` turns
//! into `+0.0`.

use std::cell::OnceCell;
use std::ops::Range;
use std::rc::Rc;

use dt_tensor::{Grad, RowSparse, Tensor};

use crate::op::Op;
use crate::params::{ParamId, Params};

/// Handle to a node on the tape.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Var(usize);

impl Var {
    /// Padding for the unused slots of [`crate::op::Inputs`]; never a
    /// valid tape index.
    pub(crate) const PAD: Var = Var(usize::MAX);
}

struct Node {
    op: Op,
    value: Value,
    requires_grad: bool,
}

/// What a tape node stores as its value.
enum Value {
    /// A tensor computed when the node was recorded (leaves share their
    /// parameter's `Rc` with the store).
    Tensor(Rc<Tensor>),
    /// A column view ([`Op::SliceCols`]): empty until a consumer needs a
    /// plain tensor, then the materialised copy.
    View(OnceCell<Tensor>),
}

/// A single-use computation tape.
///
/// Build the forward computation with the methods below (values are computed
/// eagerly), then call [`Graph::backward`] once on a scalar loss. Training
/// loops construct a fresh graph per mini-batch.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// An empty tape.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes currently on the tape.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the tape is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The value of a variable. A column view ([`Graph::slice_cols`]) is
    /// materialised on its first call and cached for the tape's life.
    #[must_use]
    pub fn value(&self, v: Var) -> &Tensor {
        match &self.nodes[v.0].value {
            Value::Tensor(t) => t,
            Value::View(cell) => cell.get_or_init(|| {
                let (base, cols) = self.window(v);
                base.slice_cols(cols.start, cols.end)
            }),
        }
    }

    /// The tensor that holds `v`'s values and `v`'s columns in it: a
    /// view's base and its window, any other node's own value in full.
    /// The GEMM builders and rules read operands through this, so a view
    /// is never materialised for them.
    fn window(&self, v: Var) -> (&Tensor, Range<usize>) {
        match self.nodes[v.0].op {
            Op::SliceCols(base, lo, hi) => (self.value(base), lo..hi),
            _ => {
                let t = self.value(v);
                (t, 0..t.cols())
            }
        }
    }

    /// The scalar value of a `1×1` variable.
    ///
    /// # Panics
    /// Panics if the variable is not scalar-shaped.
    #[must_use]
    pub fn item(&self, v: Var) -> f64 {
        self.value(v).item()
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        self.push_value(op, Value::Tensor(Rc::new(value)))
    }

    fn push_value(&mut self, op: Op, value: Value) -> Var {
        let requires_grad = match &op {
            Op::Leaf(param) => param.is_some(),
            Op::Constant => false,
            Op::Detach(_) => false,
            other => other.inputs().iter().any(|v| self.nodes[v.0].requires_grad),
        };
        self.nodes.push(Node {
            op,
            value,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    // -- leaves ---------------------------------------------------------------

    /// Mounts a parameter from `params` as a differentiable leaf.
    pub fn param(&mut self, params: &Params, id: ParamId) -> Var {
        let value = params.value_rc(id);
        self.nodes.push(Node {
            op: Op::Leaf(Some(id)),
            value: Value::Tensor(value),
            requires_grad: true,
        });
        Var(self.nodes.len() - 1)
    }

    /// Mounts a non-trainable constant tensor.
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(Op::Constant, value)
    }

    /// Mounts a `1×1` constant.
    pub fn scalar(&mut self, value: f64) -> Var {
        self.constant(Tensor::scalar(value))
    }

    /// Mounts a differentiable leaf that is not tied to a parameter store
    /// (useful for gradient checking). Its gradient is retrievable through
    /// [`Graph::backward_collect`].
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.nodes.push(Node {
            op: Op::Leaf(None),
            value: Value::Tensor(Rc::new(value)),
            requires_grad: true,
        });
        Var(self.nodes.len() - 1)
    }

    // -- element-wise binary ----------------------------------------------------

    /// `a + b`.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(Op::Add(a, b), v)
    }

    /// `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(Op::Sub(a, b), v)
    }

    /// `a ⊙ b`.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        self.push(Op::Mul(a, b), v)
    }

    /// `a / b` element-wise.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).div(self.value(b));
        self.push(Op::Div(a, b), v)
    }

    // -- element-wise unary -------------------------------------------------------

    /// `-a`.
    pub fn neg(&mut self, a: Var) -> Var {
        let v = self.value(a).neg();
        self.push(Op::Neg(a), v)
    }

    /// `c · a`.
    pub fn mul_scalar(&mut self, a: Var, c: f64) -> Var {
        let v = self.value(a).scale(c);
        self.push(Op::MulScalar(a, c), v)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.value(a).map(stable_sigmoid);
        self.push(Op::Sigmoid(a), v)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f64::tanh);
        self.push(Op::Tanh(a), v)
    }

    /// `ln(a)`.
    pub fn ln(&mut self, a: Var) -> Var {
        let v = self.value(a).map(f64::ln);
        self.push(Op::Ln(a), v)
    }

    /// `a²`.
    pub fn sqr(&mut self, a: Var) -> Var {
        let v = self.value(a).map(|x| x * x);
        self.push(Op::Sqr(a), v)
    }

    /// `clamp(a, lo, hi)`.
    pub fn clamp(&mut self, a: Var, lo: f64, hi: f64) -> Var {
        let v = self.value(a).clamp(lo, hi);
        self.push(Op::Clamp(a, lo, hi), v)
    }

    // -- matrix --------------------------------------------------------------------
    //
    // Forward and backward both ride on the blocked `dt-tensor` kernels,
    // which are multi-threaded above a size threshold yet byte-identical
    // for any `DT_NUM_THREADS` — so gradients (and thus whole training
    // runs) stay bit-reproducible regardless of the host's core count.
    // Operands are read through their column windows, so a view is
    // multiplied in place.

    /// `A · B`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let ((ta, ca), (tb, cb)) = (self.window(a), self.window(b));
        let v = ta.matmul_cols(ca, tb, cb);
        self.push(Op::MatMul(a, b), v)
    }

    /// `Aᵀ · B`.
    pub fn matmul_tn(&mut self, a: Var, b: Var) -> Var {
        let ((ta, ca), (tb, cb)) = (self.window(a), self.window(b));
        let v = ta.matmul_tn_cols(ca, tb, cb);
        self.push(Op::MatMulTN(a, b), v)
    }

    /// `Aᵀ`.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.value(a).transpose();
        self.push(Op::Transpose(a), v)
    }

    /// Row-wise dot product producing `n×1`.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).row_dot(self.value(b));
        self.push(Op::RowDot(a, b), v)
    }

    // -- reductions -------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).sum());
        self.push(Op::Sum(a), v)
    }

    /// Mean of all elements.
    pub fn mean(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).mean());
        self.push(Op::Mean(a), v)
    }

    /// Squared Frobenius norm.
    pub fn frob_sq(&mut self, a: Var) -> Var {
        let v = Tensor::scalar(self.value(a).frob_sq());
        self.push(Op::FrobSq(a), v)
    }

    /// Per-column sums (`1×c`).
    pub fn col_sums(&mut self, a: Var) -> Var {
        let v = self.value(a).col_sums();
        self.push(Op::ColSums(a), v)
    }

    // -- structural ----------------------------------------------------------------------

    /// Row gather (embedding lookup).
    pub fn gather(&mut self, table: Var, indices: Rc<Vec<usize>>) -> Var {
        let v = self.value(table).gather_rows(&indices);
        self.push(Op::Gather(table, indices), v)
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).concat_cols(self.value(b));
        self.push(Op::ConcatCols(a, b), v)
    }

    /// Column slice `a[:, lo..hi]`, recorded as a view: no copy is made
    /// (see the module docs). A slice of a view is a view of its base.
    ///
    /// # Panics
    /// Panics when `lo..hi` is out of bounds for `a`'s columns.
    pub fn slice_cols(&mut self, a: Var, lo: usize, hi: usize) -> Var {
        let (base, offset) = match self.nodes[a.0].op {
            Op::SliceCols(base, lo0, _) => (base, lo0),
            _ => (a, 0),
        };
        let width = self.window(a).1.len();
        assert!(
            lo <= hi && hi <= width,
            "slice_cols: range {lo}..{hi} out of bounds for {width} columns"
        );
        self.push_value(
            Op::SliceCols(base, offset + lo, offset + hi),
            Value::View(OnceCell::new()),
        )
    }

    /// `a + bias` with `bias: 1×c` broadcast over rows.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let v = self.value(a).add_row_broadcast(self.value(bias));
        self.push(Op::AddRowBroadcast(a, bias), v)
    }

    // -- gradient control / losses ----------------------------------------------------------

    /// Identity forward, zero backward.
    pub fn detach(&mut self, a: Var) -> Var {
        let v = self.value(a).pooled_clone();
        self.push(Op::Detach(a), v)
    }

    /// Numerically stable element-wise BCE with logits.
    pub fn bce_with_logits(&mut self, logits: Var, targets: Var) -> Var {
        let v = self
            .value(logits)
            .zip_map(self.value(targets), dt_tensor::fused::bce_term);
        self.push(Op::BceWithLogits(logits, targets), v)
    }

    /// Fused `mean(bce_with_logits(logits, targets))`: one pass computes
    /// the scalar loss and caches the backward residual `σ(x) − t` in a
    /// single pooled buffer, replacing the composed chain's element-wise
    /// BCE node + mean node (and their allocations).
    ///
    /// Bit-identical to [`Graph::bce_mean_composed`], the composed-op
    /// oracle the tests pin it against.
    pub fn sigmoid_bce_mean(&mut self, logits: Var, targets: Var) -> Var {
        let (loss, residual) =
            dt_tensor::fused::sigmoid_bce(self.value(logits), self.value(targets));
        self.push(
            Op::SigmoidBceMean(logits, targets, Rc::new(residual)),
            Tensor::scalar(loss),
        )
    }

    /// Fused `mean(weights ⊙ bce_with_logits(logits, targets))` — the
    /// IPS-weighted rating loss with the propensity weights folded into the
    /// same single pass. Weights are typically constants or detached.
    ///
    /// Bit-identical to `bce_with_logits` + `weighted_mean`.
    pub fn ips_weighted_bce_mean(&mut self, weights: Var, logits: Var, targets: Var) -> Var {
        let (loss, residual) = dt_tensor::fused::ips_weighted_bce(
            self.value(weights),
            self.value(logits),
            self.value(targets),
        );
        self.push(
            Op::IpsWeightedBceMean(weights, logits, targets, Rc::new(residual)),
            Tensor::scalar(loss),
        )
    }

    // -- backward ------------------------------------------------------------------------------

    /// Reverse sweep from the scalar `loss`; gradients of parameter leaves
    /// are accumulated into `params` — row-sparse deltas (from [`Graph::gather`]
    /// backward) stay sparse all the way into the store. A parameter
    /// mounted more than once (once per loss term) gets its leaves'
    /// gradients as one run in tape order, folded in one pass
    /// ([`Params::accumulate_grad_owned`]).
    ///
    /// # Panics
    /// Panics when `loss` is not `1×1`.
    pub fn backward(&self, loss: Var, params: &mut Params) {
        let grads = self.run_backward(loss);
        // alloc-ok: one run per parameter per sweep, a handful of slots each
        let mut runs: Vec<Vec<Grad>> = params.ids().map(|_| Vec::new()).collect();
        for (i, g) in grads.into_iter().enumerate() {
            match (&self.nodes[i].op, g) {
                (Op::Leaf(Some(id)), Some(g)) => runs[id.0].push(g),
                // Interior gradients are dead once the leaves are charged;
                // hand their buffers back to the step pool.
                (_, Some(g)) => g.recycle(),
                (_, None) => {}
            }
        }
        for (id, run) in params.ids().zip(runs) {
            if !run.is_empty() {
                params.accumulate_grad_owned(id, run);
            }
        }
    }

    /// Reverse sweep that returns the (densified) gradients of the
    /// requested variables (used by gradient checking and the optimizer
    /// tests).
    ///
    /// # Panics
    /// Panics when `loss` is not `1×1`, or when a wanted variable is a
    /// column view: a view's gradient lives in its base's columns (ask
    /// for the base instead).
    #[must_use]
    pub fn backward_collect(&self, loss: Var, wanted: &[Var]) -> Vec<Tensor> {
        for v in wanted {
            assert!(
                !matches!(self.nodes[v.0].op, Op::SliceCols(..)),
                "backward_collect: {v:?} is a column view; its gradient is accumulated \
                 into its base's columns, so collect the base instead"
            );
        }
        let grads = self.run_backward(loss);
        wanted
            .iter()
            .map(|v| {
                grads[v.0].clone().map_or_else(
                    || {
                        let t = self.value(*v);
                        // alloc-ok: gradcheck helper, never on the training step path
                        Tensor::zeros(t.rows(), t.cols())
                    },
                    Grad::into_dense,
                )
            })
            .collect()
    }

    fn run_backward(&self, loss: Var) -> Vec<Option<Grad>> {
        assert!(
            self.value(loss).shape().is_scalar(),
            "backward: loss must be 1x1, got {}",
            self.value(loss).shape()
        );
        // alloc-ok: per-backward gradient table (one Option<Grad> slot per tape node) — not f64 scratch, so it cannot ride the step pool
        let mut grads: Vec<Option<Grad>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Grad::Dense(Tensor::scalar(1.0)));

        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            let node = &self.nodes[i];
            // Leaves terminate the sweep, so their gradient may stay
            // sparse; interior nodes densify once before backprop (in this
            // workspace only leaf tables are gathered from, so this path
            // never fires on a sparse gradient in practice).
            let g = if node.requires_grad && !matches!(node.op, Op::Leaf(_)) {
                let gd = g.into_dense();
                self.backprop_node(i, &gd, &mut grads);
                Grad::Dense(gd)
            } else {
                g
            };
            grads[i] = Some(g);
        }
        grads
    }

    fn acc_grad(&self, grads: &mut [Option<Grad>], v: Var, delta: Grad) {
        if !self.wants_grad(v) {
            return;
        }
        if let Some((base, lo)) = self.view_base(v) {
            let d = match delta {
                Grad::Dense(d) => d,
                Grad::RowSparse(s) => {
                    let d = s.to_dense();
                    s.recycle();
                    d
                }
            };
            self.acc_window(grads, base, lo, 1.0, &d);
            d.recycle();
            return;
        }
        match &mut grads[v.0] {
            Some(g) => g.accumulate(delta),
            slot @ None => *slot = Some(delta),
        }
    }

    fn acc(&self, grads: &mut [Option<Grad>], v: Var, delta: Tensor) {
        self.acc_grad(grads, v, Grad::Dense(delta));
    }

    /// A column view's base and the view's first column there; `None`
    /// for any other node.
    fn view_base(&self, v: Var) -> Option<(Var, usize)> {
        match self.nodes[v.0].op {
            Op::SliceCols(base, lo, _) => Some((base, lo)),
            _ => None,
        }
    }

    /// Adds `alpha · delta` into columns `lo..` of `base`'s accumulator:
    /// where every delta addressed to a view of `base` lands, so no
    /// zero-padded copy of the delta is built.
    fn acc_window(
        &self,
        grads: &mut [Option<Grad>],
        base: Var,
        lo: usize,
        alpha: f64,
        delta: &Tensor,
    ) {
        self.acc_dense(grads, base, |acc| acc.axpy_cols(lo, alpha, delta));
    }

    /// Adds `α · (t[:, cols] · m)` into `v`'s gradient once per `α` of
    /// `alphas` (into its base's columns for a view) through the GEMM's
    /// accumulate epilogue: each finished block of the product goes
    /// straight into the accumulator, so no delta tensor is built and no
    /// `axpy` pass runs. Bit-identical to building the product and adding
    /// it once per `α`: the same sums in the same order, and a product
    /// summed from `+0.0` is never `−0.0`, so adding it to a fresh zero
    /// accumulator yields it exactly.
    fn acc_matmul(
        &self,
        grads: &mut [Option<Grad>],
        v: Var,
        alphas: &[f64],
        (t, cols): (&Tensor, Range<usize>),
        m: &Tensor,
    ) {
        if !self.wants_grad(v) {
            return;
        }
        let (base, lo) = self.view_base(v).unwrap_or((v, 0));
        self.acc_dense(grads, base, |acc| {
            acc.add_matmul_cols(lo, alphas, t, cols, m, 0..m.cols());
        });
    }

    /// Runs `add` on `base`'s gradient accumulator, densified first. The
    /// first dense delta starts it at zero (folding in a row-sparse
    /// gradient already there), so columns a view does not cover stay as
    /// they were.
    fn acc_dense(&self, grads: &mut [Option<Grad>], base: Var, add: impl FnOnce(&mut Tensor)) {
        let slot = &mut grads[base.0];
        if !matches!(slot, Some(Grad::Dense(_))) {
            let t = self.value(base);
            // pool: zeroed, since a view covers only some of the columns.
            let mut acc = Tensor::pooled_zeros(t.rows(), t.cols());
            if let Some(Grad::RowSparse(s)) = slot.take() {
                s.add_to_dense(&mut acc);
                s.recycle();
            }
            *slot = Some(Grad::Dense(acc));
        }
        if let Some(Grad::Dense(acc)) = slot {
            add(acc);
        }
    }

    /// Whether a backward rule needs to produce a delta for `v` at all.
    /// Mirrors the store condition in [`Graph::acc_grad`], letting rules
    /// skip computing gradients that would be thrown away (constant
    /// targets/weights in the fused losses).
    fn wants_grad(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad || matches!(self.nodes[v.0].op, Op::Leaf(None))
    }

    /// In-place fan-in for a borrowed dense delta: when the slot already
    /// holds a dense accumulator the delta is `add_assign`ed directly — no
    /// intermediate copy — and only a first-arrival materialises a (pooled)
    /// clone. This is the non-pool-dependent fix for the old
    /// allocate-then-add fan-in: with the pool disabled the in-place path
    /// is unchanged, the clone merely comes from the global allocator.
    fn acc_ref(&self, grads: &mut [Option<Grad>], v: Var, delta: &Tensor) {
        if !self.wants_grad(v) {
            return;
        }
        if let Some((base, lo)) = self.view_base(v) {
            self.acc_window(grads, base, lo, 1.0, delta);
            return;
        }
        match &mut grads[v.0] {
            Some(Grad::Dense(acc)) => acc.add_assign(delta),
            Some(g) => g.accumulate(Grad::Dense(delta.pooled_clone())),
            slot @ None => *slot = Some(Grad::Dense(delta.pooled_clone())),
        }
    }

    /// In-place fan-in of `-delta`: `axpy(-1, ·)` into an existing dense
    /// accumulator (bit-identical to adding the negation — IEEE negation
    /// is exact), materialising the negated tensor only on first arrival.
    fn acc_neg_ref(&self, grads: &mut [Option<Grad>], v: Var, delta: &Tensor) {
        if !self.wants_grad(v) {
            return;
        }
        if let Some((base, lo)) = self.view_base(v) {
            self.acc_window(grads, base, lo, -1.0, delta);
            return;
        }
        match &mut grads[v.0] {
            Some(Grad::Dense(acc)) => acc.axpy(-1.0, delta),
            Some(g) => g.accumulate(Grad::Dense(delta.neg())),
            slot @ None => *slot = Some(Grad::Dense(delta.neg())),
        }
    }

    fn acc_rows(&self, grads: &mut [Option<Grad>], v: Var, delta: RowSparse) {
        self.acc_grad(grads, v, Grad::RowSparse(delta));
    }

    #[allow(clippy::too_many_lines)]
    fn backprop_node(&self, i: usize, g: &Tensor, grads: &mut [Option<Grad>]) {
        use Op::*;
        let val = |v: Var| -> &Tensor { self.value(v) };
        let out = self.value(Var(i));
        match self.nodes[i].op.clone() {
            // A view's deltas were routed into its base as they arrived.
            Leaf(_) | Constant | Detach(_) | SliceCols(..) => {}

            Add(a, b) => {
                self.acc_ref(grads, a, g);
                self.acc_ref(grads, b, g);
            }
            Sub(a, b) => {
                self.acc_ref(grads, a, g);
                self.acc_neg_ref(grads, b, g);
            }
            Mul(a, b) => {
                self.acc(grads, a, g.mul(val(b)));
                self.acc(grads, b, g.mul(val(a)));
            }
            Div(a, b) => {
                self.acc(grads, a, g.div(val(b)));
                // d(a/b)/db = -a/b² = -out/b
                let db = g.mul(out).div(val(b)).neg();
                self.acc(grads, b, db);
            }

            Neg(a) => self.acc_neg_ref(grads, a, g),
            MulScalar(a, c) => self.acc(grads, a, g.scale(c)),
            Sigmoid(a) => {
                let da = out.map(|y| y * (1.0 - y)).mul(g);
                self.acc(grads, a, da);
            }
            Tanh(a) => {
                let da = out.map(|y| 1.0 - y * y).mul(g);
                self.acc(grads, a, da);
            }
            Ln(a) => self.acc(grads, a, g.div(val(a))),
            Sqr(a) => {
                let da = val(a).zip_map(g, |x, gv| 2.0 * x * gv);
                self.acc(grads, a, da);
            }
            Clamp(a, lo, hi) => {
                let da = val(a).zip_map(g, |x, gv| if (lo..=hi).contains(&x) { gv } else { 0.0 });
                self.acc(grads, a, da);
            }

            MatMul(a, b) => {
                let ((ta, ca), (tb, cb)) = (self.window(a), self.window(b));
                let gc = 0..g.cols();
                self.acc(grads, a, g.matmul_nt_cols(gc.clone(), tb, cb));
                self.acc(grads, b, ta.matmul_tn_cols(ca, g, gc));
            }
            MatMulTN(a, b) => {
                // C = AᵀB → dA = B·gᵀ, dB = A·g, both on the row-streaming
                // NN kernel, whose epilogue adds them straight into the
                // operands' accumulators: `g` is the small `k1×k2`
                // Gram-shaped upstream, and B·(gᵀ) sums the same products
                // in the same order as `matmul_nt(B, g)`.
                if a == b && is_symmetric(g) {
                    // Self-Gram: with gᵀ == g bit for bit, B·gᵀ and A·g
                    // form the same products in the same order, so one
                    // GEMM serves both deltas. Adding it twice (α = 1, 1)
                    // keeps the accumulation sequence of the two-GEMM rule
                    // exactly.
                    self.acc_matmul(grads, a, &[1.0, 1.0], self.window(a), g);
                } else {
                    if self.wants_grad(a) {
                        let gt = g.transpose();
                        self.acc_matmul(grads, a, &[1.0], self.window(b), &gt);
                        gt.recycle();
                    }
                    self.acc_matmul(grads, b, &[1.0], self.window(a), g);
                }
            }
            Transpose(a) => self.acc(grads, a, g.transpose()),
            RowDot(a, b) => {
                // out[i] = Σ_k a[i,k] b[i,k]; g: n×1
                let mut da = val(b).pooled_clone();
                for r in 0..da.rows() {
                    let gv = g.get(r, 0);
                    for v in da.row_mut(r) {
                        *v *= gv;
                    }
                }
                self.acc(grads, a, da);
                let mut db = val(a).pooled_clone();
                for r in 0..db.rows() {
                    let gv = g.get(r, 0);
                    for v in db.row_mut(r) {
                        *v *= gv;
                    }
                }
                self.acc(grads, b, db);
            }

            Sum(a) => {
                let t = val(a);
                self.acc(grads, a, Tensor::pooled_full(t.rows(), t.cols(), g.item()));
            }
            Mean(a) => {
                let t = val(a);
                let c = g.item() / t.len() as f64;
                self.acc(grads, a, Tensor::pooled_full(t.rows(), t.cols(), c));
            }
            FrobSq(a) => {
                self.acc(grads, a, val(a).scale(2.0 * g.item()));
            }
            ColSums(a) => {
                let t = val(a);
                // pool: every row is copied over below.
                let mut da = Tensor::pooled_scratch(t.rows(), t.cols());
                for r in 0..t.rows() {
                    da.row_mut(r).copy_from_slice(g.row(0));
                }
                self.acc(grads, a, da);
            }

            Gather(table, indices) => {
                // Row-sparse delta: O(B·K) instead of materialising an
                // M×K scatter. Densifies to exactly `scatter_add_rows`.
                let t = val(table);
                let ds = RowSparse::from_scatter(t.rows(), t.cols(), &indices, g);
                self.acc_rows(grads, table, ds);
            }
            ConcatCols(a, b) => {
                let ca = val(a).cols();
                self.acc(grads, a, g.slice_cols(0, ca));
                self.acc(grads, b, g.slice_cols(ca, g.cols()));
            }
            AddRowBroadcast(a, bias) => {
                self.acc_ref(grads, a, g);
                self.acc(grads, bias, g.col_sums());
            }

            BceWithLogits(x, t) => {
                let dx = val(x)
                    .zip_map(val(t), |xv, tv| stable_sigmoid(xv) - tv)
                    .mul(g);
                self.acc(grads, x, dx);
                let dt = val(x).neg().mul(g);
                self.acc(grads, t, dt);
            }

            SigmoidBceMean(x, t, r) => {
                // Composed sweep: mean backward emits `c = g/n` everywhere,
                // then the BCE node multiplies the cached residual by it.
                let c = g.item() / r.len() as f64;
                self.acc(grads, x, dt_tensor::fused::sigmoid_bce_backward(&r, c));
                if self.wants_grad(t) {
                    let dt = val(x).map(|xv| -xv * c);
                    self.acc(grads, t, dt);
                }
            }
            IpsWeightedBceMean(w, x, t, r) => {
                let c = g.item() / r.len() as f64;
                let dx = dt_tensor::fused::ips_weighted_bce_backward(&r, val(w), c);
                self.acc(grads, x, dx);
                if self.wants_grad(t) {
                    let dt = val(x).zip_map(val(w), |xv, wv| -xv * (c * wv));
                    self.acc(grads, t, dt);
                }
                if self.wants_grad(w) {
                    // dL/dw_i = c · bce_i; recomputed on demand — the
                    // weights are detached/constant in every trainer, so
                    // this only runs in gradient-check style tests.
                    let dw =
                        val(x).zip_map(val(t), |xv, tv| c * dt_tensor::fused::bce_term(xv, tv));
                    self.acc(grads, w, dw);
                }
            }
        }
    }
}

impl Drop for Graph {
    /// Dropping the tape returns its buffers to the thread-local pool:
    /// every node value the graph uniquely owns (forward intermediates,
    /// constants, fused-loss residuals) is recycled. Parameter leaves are
    /// shared with their [`Params`] store (`Rc` strong count > 1) and are
    /// left untouched — so the PR 3 rule "drop the tape before
    /// `opt.step`" now also hands the step's working set back for reuse.
    fn drop(&mut self) {
        for node in self.nodes.drain(..) {
            match node.op {
                Op::SigmoidBceMean(_, _, r) | Op::IpsWeightedBceMean(_, _, _, r) => {
                    if let Ok(t) = Rc::try_unwrap(r) {
                        t.recycle();
                    }
                }
                _ => {}
            }
            match node.value {
                Value::Tensor(t) => {
                    if let Ok(t) = Rc::try_unwrap(t) {
                        t.recycle();
                    }
                }
                Value::View(cell) => {
                    if let Some(t) = cell.into_inner() {
                        t.recycle();
                    }
                }
            }
        }
    }
}

/// Whether the square `g` equals its transpose bit for bit.
fn is_symmetric(g: &Tensor) -> bool {
    let n = g.rows();
    n == g.cols() && (0..n).all(|i| (0..i).all(|j| g.get(i, j).to_bits() == g.get(j, i).to_bits()))
}

/// Overflow-free logistic sigmoid (canonical definition lives with the
/// fused kernels in `dt-tensor` so forward, backward and fused paths share
/// one rounding behaviour).
pub(crate) use dt_tensor::fused::stable_sigmoid;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_values() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_rows(&[&[1.0, 2.0]]));
        let b = g.constant(Tensor::from_rows(&[&[3.0, 4.0]]));
        let s = g.add(a, b);
        assert_eq!(g.value(s).data(), &[4.0, 6.0]);
        let m = g.mul(a, b);
        assert_eq!(g.value(m).data(), &[3.0, 8.0]);
        let total = g.sum(m);
        assert_eq!(g.item(total), 11.0);
    }

    #[test]
    fn simple_gradient_flows_to_params() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::from_rows(&[&[3.0]]));
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let y = g.sqr(wv); // y = w², dy/dw = 2w = 6
        let loss = g.sum(y);
        g.backward(loss, &mut params);
        assert_eq!(params.grad(w).item(), 6.0);
    }

    #[test]
    fn detach_blocks_gradient() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::scalar(2.0));
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let d = g.detach(wv);
        let prod = g.mul(wv, d); // loss = w · stop(w); dloss/dw = stop(w) = 2
        let loss = g.sum(prod);
        g.backward(loss, &mut params);
        assert_eq!(params.grad(w).item(), 2.0);
    }

    #[test]
    fn grad_accumulates_over_fanout() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::scalar(5.0));
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let sum = g.add(wv, wv); // 2w → grad 2
        let loss = g.sum(sum);
        g.backward(loss, &mut params);
        assert_eq!(params.grad(w).item(), 2.0);
    }

    #[test]
    fn constant_gets_no_gradient() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::scalar(1.0));
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let c = g.scalar(10.0);
        let prod = g.mul(wv, c);
        let loss = g.sum(prod);
        g.backward(loss, &mut params);
        assert_eq!(params.grad(w).item(), 10.0);
    }

    #[test]
    #[should_panic(expected = "loss must be 1x1")]
    fn non_scalar_loss_panics() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::ones(2, 2));
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        g.backward(wv, &mut params);
    }

    #[test]
    fn stable_sigmoid_extremes() {
        assert_eq!(stable_sigmoid(1000.0), 1.0);
        assert_eq!(stable_sigmoid(-1000.0), 0.0);
        assert!((stable_sigmoid(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn bce_with_logits_matches_naive_formula() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::row_vec(&[0.3, -1.2, 4.0]));
        let t = g.constant(Tensor::row_vec(&[1.0, 0.0, 1.0]));
        let l = g.bce_with_logits(x, t);
        for (i, (&xv, &tv)) in [0.3, -1.2, 4.0].iter().zip(&[1.0, 0.0, 1.0]).enumerate() {
            let p = stable_sigmoid(xv);
            let naive = -(tv * p.ln() + (1.0 - tv) * (1.0 - p).ln());
            assert!((g.value(l).data()[i] - naive).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "is a column view")]
    fn backward_collect_refuses_a_view() {
        let mut g = Graph::new();
        let a = g.leaf(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
        let v = g.slice_cols(a, 1, 3);
        let s = g.frob_sq(v);
        let _ = g.backward_collect(s, &[v]);
    }

    #[test]
    fn gram_of_views_reads_in_place_and_routes_deltas_to_the_base() {
        let t = Tensor::from_fn(9, 5, |i, j| (i * 5 + j) as f64 * 0.1 - 2.0);
        let mut g = Graph::new();
        let a = g.leaf(t.clone());
        let (lo, hi) = (g.slice_cols(a, 0, 2), g.slice_cols(a, 2, 5));
        let cross = g.matmul_tn(lo, hi);
        let gram = g.matmul_tn(hi, hi);
        let unmaterialised = |g: &Graph, v: Var| matches!(&g.nodes[v.0].value, Value::View(cell) if cell.get().is_none());
        assert!(unmaterialised(&g, lo) && unmaterialised(&g, hi));
        assert_eq!(
            g.value(cross),
            &t.slice_cols(0, 2).matmul_tn(&t.slice_cols(2, 5))
        );
        let (c, s) = (g.sum(cross), g.sum(gram));
        let loss = g.add(c, s);
        let da = g.backward_collect(loss, &[a]).remove(0);
        assert!(unmaterialised(&g, lo) && unmaterialised(&g, hi));
        // d/dA of Σ(AₗᵀAₕ) + Σ(AₕᵀAₕ), column block by column block.
        let ones = |r, c| Tensor::full(r, c, 1.0);
        let d_lo = t.slice_cols(2, 5).matmul_nt(&ones(2, 3));
        let d_hi = t
            .slice_cols(0, 2)
            .matmul(&ones(2, 3))
            .add(&t.slice_cols(2, 5).matmul(&ones(3, 3)).scale(2.0));
        assert!(da.slice_cols(0, 2).approx_eq(&d_lo, 1e-12));
        assert!(da.slice_cols(2, 5).approx_eq(&d_hi, 1e-12));
    }

    #[test]
    fn gather_gradient_scatter_adds() {
        let mut params = Params::new();
        let table = params.add("t", Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]));
        let mut g = Graph::new();
        let tv = g.param(&params, table);
        let rows = g.gather(tv, Rc::new(vec![1, 1, 0]));
        let s = g.sum(rows);
        g.backward(s, &mut params);
        // Row 1 gathered twice, row 0 once — and the delta stayed sparse.
        assert!(!params.grad(table).is_dense());
        let dense = params.grad(table).to_dense();
        assert_eq!(dense.row(1), &[2.0, 2.0]);
        assert_eq!(dense.row(0), &[1.0, 1.0]);
    }
}
