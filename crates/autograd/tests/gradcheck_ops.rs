//! Finite-difference verification of every op's backward rule.

use std::rc::Rc;

use dt_autograd::gradcheck::assert_gradcheck;
use dt_tensor::{SplitMix64, Tensor};

const TOL: f64 = 1e-5;

fn rng() -> SplitMix64 {
    SplitMix64(0xD15C0)
}

fn randn(r: usize, c: usize, rng: &mut SplitMix64) -> Tensor {
    dt_tensor::normal(r, c, 0.0, 1.0, rng)
}

#[test]
fn add_sub_mul() {
    let mut r = rng();
    let a = randn(3, 4, &mut r);
    let b = randn(3, 4, &mut r);
    assert_gradcheck(&[a.clone(), b.clone()], TOL, |g, v| {
        let s = g.add(v[0], v[1]);
        g.sum(s)
    });
    assert_gradcheck(&[a.clone(), b.clone()], TOL, |g, v| {
        let s = g.sub(v[0], v[1]);
        g.sum(s)
    });
    assert_gradcheck(&[a, b], TOL, |g, v| {
        let s = g.mul(v[0], v[1]);
        g.sum(s)
    });
}

#[test]
fn div() {
    let mut r = rng();
    let a = randn(2, 3, &mut r);
    // Keep the denominator away from zero.
    let b = randn(2, 3, &mut r).map(|x| x.abs() + 0.5);
    assert_gradcheck(&[a, b], TOL, |g, v| {
        let s = g.div(v[0], v[1]);
        g.sum(s)
    });
}

#[test]
fn unary_elementwise() {
    let mut r = rng();
    let a = randn(3, 3, &mut r);
    assert_gradcheck(std::slice::from_ref(&a), TOL, |g, v| {
        let s = g.neg(v[0]);
        g.sum(s)
    });
    assert_gradcheck(std::slice::from_ref(&a), TOL, |g, v| {
        let s = g.mul_scalar(v[0], -2.0);
        g.sum(s)
    });
    assert_gradcheck(std::slice::from_ref(&a), TOL, |g, v| {
        let s = g.sqr(v[0]);
        g.sum(s)
    });
    assert_gradcheck(std::slice::from_ref(&a), TOL, |g, v| {
        let s = g.sigmoid(v[0]);
        g.sum(s)
    });
    assert_gradcheck(&[a], TOL, |g, v| {
        let s = g.tanh(v[0]);
        g.sum(s)
    });
}

#[test]
fn positive_domain_ops() {
    let mut r = rng();
    let a = randn(2, 4, &mut r).map(|x| x.abs() + 0.3);
    assert_gradcheck(&[a], TOL, |g, v| {
        let s = g.ln(v[0]);
        g.sum(s)
    });
}

#[test]
fn clamp_away_from_edges() {
    let mut r = rng();
    let a = randn(3, 3, &mut r).map(|x| {
        // keep each entry at least 0.05 from the clamp edges ±1
        if (x.abs() - 1.0).abs() < 0.05 {
            x * 1.2
        } else {
            x
        }
    });
    assert_gradcheck(&[a], TOL, |g, v| {
        let s = g.clamp(v[0], -1.0, 1.0);
        g.sum(s)
    });
}

#[test]
fn matmul_family() {
    let mut r = rng();
    let a = randn(3, 4, &mut r);
    let b = randn(4, 2, &mut r);
    assert_gradcheck(&[a.clone(), b.clone()], TOL, |g, v| {
        let p = g.matmul(v[0], v[1]);
        let sq = g.sqr(p);
        g.sum(sq)
    });
    // TN: shapes n×k1, n×k2
    let c = randn(4, 3, &mut r);
    let d = randn(4, 2, &mut r);
    assert_gradcheck(&[c, d], TOL, |g, v| {
        let p = g.matmul_tn(v[0], v[1]);
        let sq = g.sqr(p);
        g.sum(sq)
    });
}

#[test]
fn transpose_and_row_dot() {
    let mut r = rng();
    let a = randn(3, 4, &mut r);
    assert_gradcheck(std::slice::from_ref(&a), TOL, |g, v| {
        let t = g.transpose(v[0]);
        let sq = g.sqr(t);
        g.sum(sq)
    });
    let b = randn(3, 4, &mut r);
    assert_gradcheck(&[a, b], TOL, |g, v| {
        let d = g.row_dot(v[0], v[1]);
        let sq = g.sqr(d);
        g.sum(sq)
    });
}

#[test]
fn reductions() {
    let mut r = rng();
    let a = randn(3, 5, &mut r);
    assert_gradcheck(std::slice::from_ref(&a), TOL, |g, v| g.sum(v[0]));
    assert_gradcheck(std::slice::from_ref(&a), TOL, |g, v| g.mean(v[0]));
    assert_gradcheck(std::slice::from_ref(&a), TOL, |g, v| g.frob_sq(v[0]));
    assert_gradcheck(&[a], TOL, |g, v| {
        let cs = g.col_sums(v[0]);
        let sq = g.sqr(cs);
        g.sum(sq)
    });
}

#[test]
fn gather_with_repeats() {
    let mut r = rng();
    let table = randn(5, 3, &mut r);
    let idx = Rc::new(vec![0, 2, 2, 4, 0]);
    assert_gradcheck(&[table], TOL, move |g, v| {
        let rows = g.gather(v[0], Rc::clone(&idx));
        let sq = g.sqr(rows);
        g.sum(sq)
    });
}

#[test]
fn concat_and_slice() {
    let mut r = rng();
    let a = randn(3, 2, &mut r);
    let b = randn(3, 4, &mut r);
    assert_gradcheck(&[a.clone(), b.clone()], TOL, |g, v| {
        let c = g.concat_cols(v[0], v[1]);
        let sq = g.sqr(c);
        g.sum(sq)
    });
    assert_gradcheck(&[b], TOL, |g, v| {
        let s = g.slice_cols(v[0], 1, 3);
        let sq = g.sqr(s);
        g.sum(sq)
    });
}

#[test]
fn broadcasts() {
    let mut r = rng();
    let a = randn(3, 4, &mut r);
    let row_bias = randn(1, 4, &mut r);
    assert_gradcheck(&[a, row_bias], TOL, |g, v| {
        let s = g.add_row_broadcast(v[0], v[1]);
        let sq = g.sqr(s);
        g.sum(sq)
    });
}

#[test]
fn bce_with_logits_both_inputs() {
    let mut r = rng();
    let logits = randn(4, 2, &mut r);
    // soft targets in (0,1) so the target gradient is exercised too
    let targets = randn(4, 2, &mut r).map(|x| 1.0 / (1.0 + (-x).exp()));
    assert_gradcheck(&[logits, targets], TOL, |g, v| {
        let l = g.bce_with_logits(v[0], v[1]);
        g.mean(l)
    });
}

#[test]
fn composite_mf_loss_pipeline() {
    // End-to-end check of a realistic DT-style fragment: gather embeddings,
    // slice primary columns, row-dot prediction, weighted squared error,
    // plus a disentangling penalty.
    let mut r = rng();
    let p = randn(6, 4, &mut r);
    let q = randn(5, 4, &mut r);
    let users = Rc::new(vec![0usize, 3, 5, 1]);
    let items = Rc::new(vec![4usize, 0, 2, 2]);
    let ratings = Tensor::col_vec(&[1.0, 0.0, 1.0, 1.0]);
    let weights = Tensor::col_vec(&[2.0, 1.3, 0.7, 1.0]);

    assert_gradcheck(&[p, q], 1e-4, move |g, v| {
        let pu = g.gather(v[0], Rc::clone(&users));
        let qi = g.gather(v[1], Rc::clone(&items));
        let pu_prim = g.slice_cols(pu, 0, 2);
        let qi_prim = g.slice_cols(qi, 0, 2);
        let logits = g.row_dot(pu_prim, qi_prim);
        let pred = g.sigmoid(logits);
        let rv = g.constant(ratings.clone());
        let wv = g.constant(weights.clone());
        let err = g.squared_error(pred, rv);
        let loss = g.weighted_mean(wv, err);

        let p_prim = g.slice_cols(v[0], 0, 2);
        let p_aux = g.slice_cols(v[0], 2, 4);
        let dis = g.disentangle_penalty(p_prim, p_aux);
        let dis_w = g.mul_scalar(dis, 0.01);
        g.add(loss, dis_w)
    });
}
