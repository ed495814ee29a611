//! Property-based tests for the tape: randomized op chains must pass the
//! finite-difference check, and algebraic identities of differentiation
//! must hold. Each property runs on seeded cases (64 for the gradcheck
//! block, 256 for the fused-loss block), every case drawing from its own
//! `SplitMix64` stream, so a failure replays from its case number.

use dt_autograd::gradcheck::gradcheck;
use dt_autograd::{Graph, Params};
use dt_tensor::{SplitMix64, Tensor};

/// Runs `check` on `cases` cases, each on its own stream.
fn for_each_case(cases: u64, seed: u64, mut check: impl FnMut(u64, &mut SplitMix64)) {
    for case in 0..cases {
        check(case, &mut SplitMix64(seed ^ (case << 32)));
    }
}

/// A `rows × cols` tensor of uniform entries in `[lo, hi)`.
fn filled(rng: &mut SplitMix64, rows: usize, cols: usize, lo: f64, hi: f64) -> Tensor {
    Tensor::from_fn(rows, cols, |_, _| rng.next_uniform(lo, hi))
}

/// A small tensor (dims in 1..4) with bounded entries (away from
/// op-domain edges).
fn small_tensor(rng: &mut SplitMix64) -> Tensor {
    let (r, c) = (1 + rng.next_below(3), 1 + rng.next_below(3));
    filled(rng, r, c, -2.0, 2.0)
}

/// A random chain of smooth unary ops applied elementwise.
#[derive(Debug, Clone)]
enum UnaryOp {
    Sigmoid,
    Tanh,
    Sqr,
    Neg,
    MulScalar(f64),
}

/// One of the five ops, each equally likely; scalars in [-2, 2).
fn unary_op(rng: &mut SplitMix64) -> UnaryOp {
    match rng.next_below(5) {
        0 => UnaryOp::Sigmoid,
        1 => UnaryOp::Tanh,
        2 => UnaryOp::Sqr,
        3 => UnaryOp::Neg,
        _ => UnaryOp::MulScalar(rng.next_uniform(-2.0, 2.0)),
    }
}

fn apply(g: &mut Graph, v: dt_autograd::Var, op: &UnaryOp) -> dt_autograd::Var {
    match op {
        UnaryOp::Sigmoid => g.sigmoid(v),
        UnaryOp::Tanh => g.tanh(v),
        UnaryOp::Sqr => g.sqr(v),
        UnaryOp::Neg => g.neg(v),
        UnaryOp::MulScalar(c) => g.mul_scalar(v, *c),
    }
}

/// Cases per property of the gradcheck block.
const GRAD_CASES: u64 = 64;

#[test]
fn random_unary_chains_pass_gradcheck() {
    for_each_case(GRAD_CASES, 0xAD01, |case, rng| {
        let x = small_tensor(rng);
        let ops: Vec<UnaryOp> = (0..1 + rng.next_below(4)).map(|_| unary_op(rng)).collect();
        // Scaled squares grow fast along a chain; bound the input via
        // tanh first.
        let reports = gradcheck(&[x], 1e-5, |g, vars| {
            let mut v = g.tanh(vars[0]);
            for op in &ops {
                v = apply(g, v, op);
            }
            g.mean(v)
        });
        assert!(
            reports[0].max_rel_err < 1e-4,
            "case {case}: rel err {} for {ops:?}",
            reports[0].max_rel_err
        );
    });
}

#[test]
fn backward_is_linear_in_the_loss() {
    for_each_case(GRAD_CASES, 0xAD02, |case, rng| {
        let x = small_tensor(rng);
        // d(αL)/dx == α·dL/dx.
        let grad_of = |alpha: f64| -> Tensor {
            let mut g = Graph::new();
            let v = g.leaf(x.clone());
            let s = g.sqr(v);
            let l0 = g.sum(s);
            let l = g.mul_scalar(l0, alpha);
            g.backward_collect(l, &[v]).remove(0)
        };
        let g1 = grad_of(1.0);
        let g3 = grad_of(3.0);
        assert!(g1.scale(3.0).approx_eq(&g3, 1e-10), "case {case}");
    });
}

#[test]
fn gradient_of_sum_decomposes() {
    for_each_case(GRAD_CASES, 0xAD03, |case, rng| {
        let x = small_tensor(rng);
        // dL/dx for L = L1 + L2 equals the sum of individual gradients.
        let grad_of = |which: u8| -> Tensor {
            let mut g = Graph::new();
            let v = g.leaf(x.clone());
            let sq = g.sqr(v);
            let l1 = g.sum(sq);
            let sig = g.sigmoid(v);
            let l2 = g.mean(sig);
            let loss = match which {
                1 => l1,
                2 => l2,
                _ => g.add(l1, l2),
            };
            g.backward_collect(loss, &[v]).remove(0)
        };
        let combined = grad_of(0);
        let sum = grad_of(1).add(&grad_of(2));
        assert!(combined.approx_eq(&sum, 1e-10), "case {case}");
    });
}

#[test]
fn detach_yields_exactly_zero_grad() {
    for_each_case(GRAD_CASES, 0xAD04, |case, rng| {
        let x = small_tensor(rng);
        let mut g = Graph::new();
        let v = g.leaf(x.clone());
        let d = g.detach(v);
        let s = g.sqr(d);
        let l = g.sum(s);
        let grad = g.backward_collect(l, &[v]).remove(0);
        assert_eq!(grad.frob_sq(), 0.0, "case {case}");
    });
}

#[test]
fn params_grad_equals_leaf_grad() {
    for_each_case(GRAD_CASES, 0xAD05, |case, rng| {
        let x = small_tensor(rng);
        // The Params-accumulation path and the collect path agree.
        let mut params = Params::new();
        let id = params.add("x", x.clone());
        let mut g = Graph::new();
        let v = g.param(&params, id);
        let s = g.sigmoid(v);
        let l = g.mean(s);
        let direct = g.backward_collect(l, &[v]).remove(0);
        g.backward(l, &mut params);
        assert!(
            params.grad(id).to_dense().approx_eq(&direct, 1e-12),
            "case {case}"
        );
    });
}

#[test]
fn value_is_unchanged_by_backward() {
    for_each_case(GRAD_CASES, 0xAD06, |case, rng| {
        let x = small_tensor(rng);
        let mut g = Graph::new();
        let v = g.leaf(x.clone());
        let s = g.sqr(v);
        let l = g.sum(s);
        let before = g.value(v).clone();
        let _ = g.backward_collect(l, &[v]);
        assert_eq!(g.value(v), &before, "case {case}");
    });
}

/// Cases per property of the fused-loss block.
const CASES: u64 = 256;

/// A `(weights, logits, targets)` triple sharing one shape for the
/// fused-loss equivalence properties; targets in `[0, 1)`.
fn bce_triple(rng: &mut SplitMix64) -> (Tensor, Tensor, Tensor) {
    let (r, c) = (1 + rng.next_below(3), 1 + rng.next_below(3));
    (
        filled(rng, r, c, 0.05, 20.0),
        filled(rng, r, c, -12.0, 12.0),
        filled(rng, r, c, 0.0, 1.0),
    )
}

#[test]
fn fused_bce_graph_matches_composed_bits() {
    for_each_case(CASES, 0xAD07, |case, rng| {
        let (_w, x, t) = bce_triple(rng);
        let run = |composed: bool| {
            let mut g = Graph::new();
            let xv = g.leaf(x.clone());
            let tv = g.constant(t.clone());
            let loss = if composed {
                g.bce_mean_composed(xv, tv)
            } else {
                g.sigmoid_bce_mean(xv, tv)
            };
            let value = g.item(loss);
            let grad = g.backward_collect(loss, &[xv]).remove(0);
            (value, grad)
        };
        let (vf, gf) = run(false);
        let (vc, gc) = run(true);
        assert_eq!(vf.to_bits(), vc.to_bits(), "case {case}");
        assert_eq!(gf, gc, "case {case}");
    });
}

#[test]
fn fused_ips_bce_graph_matches_composed_bits() {
    for_each_case(CASES, 0xAD08, |case, rng| {
        let (w, x, t) = bce_triple(rng);
        let run = |composed: bool| {
            let mut g = Graph::new();
            let wv = g.leaf(w.clone());
            let xv = g.leaf(x.clone());
            let tv = g.constant(t.clone());
            let loss = if composed {
                let elem = g.bce_with_logits(xv, tv);
                g.weighted_mean(wv, elem)
            } else {
                g.ips_weighted_bce_mean(wv, xv, tv)
            };
            let value = g.item(loss);
            let mut grads = g.backward_collect(loss, &[xv, wv]);
            (value, grads.remove(0), grads.remove(0))
        };
        let (vf, gxf, gwf) = run(false);
        let (vc, gxc, gwc) = run(true);
        assert_eq!(vf.to_bits(), vc.to_bits(), "case {case}");
        assert_eq!(gxf, gxc, "case {case}");
        assert_eq!(gwf, gwc, "case {case}");
    });
}

#[test]
fn pooled_and_fresh_backward_are_bit_identical() {
    for_each_case(CASES, 0xAD09, |case, rng| {
        let (w, x, t) = bce_triple(rng);
        let run = || {
            let mut params = Params::new();
            let id = params.add("x", x.clone());
            let mut g = Graph::new();
            let xv = g.param(&params, id);
            let wv = g.constant(w.clone());
            let tv = g.constant(t.clone());
            let loss = g.ips_weighted_bce_mean(wv, xv, tv);
            g.backward(loss, &mut params);
            drop(g);
            params.grad(id).to_dense()
        };
        let pooled = run();
        let fresh = dt_tensor::pool::with_disabled(run);
        assert_eq!(pooled, fresh, "case {case}");
    });
}
