//! The differentiable-operation vocabulary.

use std::rc::Rc;

use dt_tensor::Tensor;

use crate::graph::Var;
use crate::params::ParamId;

/// One differentiable operation recorded on the tape.
///
/// Backward rules live in [`crate::Graph::backward`]; every rule is verified
/// against central finite differences in the test suite.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// A leaf tensor; `Some(id)` when it mirrors a parameter in a
    /// [`crate::Params`] store (gradients flow back into the store).
    Leaf(Option<ParamId>),
    /// A constant: no gradient ever flows into it.
    Constant,

    // -- element-wise binary ------------------------------------------------
    /// `a + b` (same shape).
    Add(Var, Var),
    /// `a - b` (same shape).
    Sub(Var, Var),
    /// Hadamard product `a ⊙ b`.
    Mul(Var, Var),
    /// Element-wise quotient `a / b`.
    Div(Var, Var),

    // -- element-wise unary -------------------------------------------------
    /// `-a`.
    Neg(Var),
    /// `c · a` for a compile-time constant `c`.
    MulScalar(Var, f64),
    /// Logistic sigmoid `σ(a)`.
    Sigmoid(Var),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// Natural logarithm (domain `a > 0`).
    Ln(Var),
    /// `a²`.
    Sqr(Var),
    /// `clamp(a, lo, hi)`; gradient passes inside `[lo, hi]`.
    Clamp(Var, f64, f64),

    // -- matrix ---------------------------------------------------------------
    /// `A · B`.
    MatMul(Var, Var),
    /// `Aᵀ · B` (Gram-style product without materialised transpose).
    MatMulTN(Var, Var),
    /// `Aᵀ`.
    Transpose(Var),
    /// Row-wise dot product of two `n×k` tensors, producing `n×1`.
    RowDot(Var, Var),

    // -- reductions -------------------------------------------------------------
    /// Sum of all elements (scalar output).
    Sum(Var),
    /// Mean of all elements (scalar output).
    Mean(Var),
    /// Squared Frobenius norm `Σ a²` (scalar output).
    FrobSq(Var),
    /// Per-column sums (`1×c` output).
    ColSums(Var),

    // -- structural ----------------------------------------------------------------
    /// Row gather (embedding lookup); backward is scatter-add.
    Gather(Var, Rc<Vec<usize>>),
    /// Horizontal concatenation `[a | b]`.
    ConcatCols(Var, Var),
    /// Column view `a[:, lo..hi]` of a base that is not itself a view.
    /// It holds no buffer, and its backward deltas are added straight
    /// into its base's columns (see [`crate::Graph::slice_cols`]).
    SliceCols(Var, usize, usize),
    /// `a + bias` where `bias` is `1×c`, broadcast over rows.
    AddRowBroadcast(Var, Var),

    // -- gradient control / losses -----------------------------------------------
    /// Identity forward, zero backward (stop-gradient).
    Detach(Var),
    /// Numerically stable element-wise binary cross-entropy with logits:
    /// `max(x,0) − x·t + ln(1 + e^{−|x|})`.
    BceWithLogits(Var, Var),
    /// Fused `mean(bce_with_logits(x, t))` — scalar output computed in one
    /// pass; the cached tensor is the backward residual `σ(x) − t` (one
    /// pooled buffer, recycled when the tape drops).
    SigmoidBceMean(Var, Var, Rc<Tensor>),
    /// Fused IPS-weighted mean BCE `mean(w ⊙ bce_with_logits(x, t))` with
    /// the weights folded into the same pass; fields are `(w, x, t,
    /// residual)` with the same cached residual `σ(x) − t`.
    IpsWeightedBceMean(Var, Var, Var, Rc<Tensor>),
}

/// The input variables of one [`Op`], stored inline. `inputs()` runs for
/// every node pushed onto the tape, so it must not heap-allocate (R10);
/// no op has more than three inputs. Dereferences to `&[Var]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Inputs {
    vars: [Var; 3],
    len: usize,
}

impl Inputs {
    const EMPTY: Inputs = Inputs {
        vars: [Var::PAD; 3],
        len: 0,
    };

    fn of(vs: &[Var]) -> Inputs {
        let mut out = Inputs::EMPTY;
        for (slot, v) in out.vars.iter_mut().zip(vs) {
            *slot = *v;
        }
        out.len = vs.len().min(out.vars.len());
        out
    }
}

impl std::ops::Deref for Inputs {
    type Target = [Var];

    fn deref(&self) -> &[Var] {
        &self.vars[..self.len]
    }
}

impl Op {
    /// The input variables of this op, in a fixed order.
    #[must_use]
    pub(crate) fn inputs(&self) -> Inputs {
        use Op::*;
        match self {
            Leaf(_) | Constant => Inputs::EMPTY,
            Add(a, b)
            | Sub(a, b)
            | Mul(a, b)
            | Div(a, b)
            | MatMul(a, b)
            | MatMulTN(a, b)
            | RowDot(a, b)
            | ConcatCols(a, b)
            | AddRowBroadcast(a, b)
            | BceWithLogits(a, b)
            | SigmoidBceMean(a, b, _) => Inputs::of(&[*a, *b]),
            IpsWeightedBceMean(w, x, t, _) => Inputs::of(&[*w, *x, *t]),
            Neg(a)
            | MulScalar(a, _)
            | Sigmoid(a)
            | Tanh(a)
            | Ln(a)
            | Sqr(a)
            | Clamp(a, _, _)
            | Transpose(a)
            | Sum(a)
            | Mean(a)
            | FrobSq(a)
            | ColSums(a)
            | Gather(a, _)
            | SliceCols(a, _, _)
            | Detach(a) => Inputs::of(&[*a]),
        }
    }
}
