//! Property-based equivalence test: the sparse-aware Adam against the
//! legacy dense formula in `dt_optim::reference`. Lazy Adam with every row
//! touched each step (sparse gradients covering all rows) must match the
//! oracle numerically — the folded bias correction is algebraically equal
//! but rounds differently.
//!
//! The property runs on 48 seeded cases, every case drawing from its own
//! `SplitMix64` stream, so a failure replays from its case number.

use dt_autograd::Params;
use dt_optim::{reference, Adam, Optimizer};
use dt_tensor::{RowSparse, SplitMix64, Tensor};

/// Cases per property.
const CASES: u64 = 48;

/// Runs `check` once per case on that case's own stream.
fn for_each_case(seed: u64, mut check: impl FnMut(u64, &mut SplitMix64)) {
    for case in 0..CASES {
        check(case, &mut SplitMix64(seed ^ (case << 32)));
    }
}

/// A sequence of 1 to 5 sparse gradient batches for a `rows × cols`
/// table: per step, a list of 1 to `rows` (possibly duplicate) row
/// indices and one gradient row per index, entries in [-2, 2).
fn batches(rng: &mut SplitMix64, rows: usize, cols: usize) -> Vec<(Vec<usize>, Tensor)> {
    (0..1 + rng.next_below(5))
        .map(|_| {
            let n = 1 + rng.next_below(rows);
            let idx: Vec<usize> = (0..n).map(|_| rng.next_below(rows)).collect();
            let src = Tensor::from_fn(n, cols, |_, _| rng.next_uniform(-2.0, 2.0));
            (idx, src)
        })
        .collect()
}

fn init_table(rows: usize, cols: usize) -> Tensor {
    Tensor::from_fn(rows, cols, |i, j| ((i * cols + j) as f64 * 0.7).sin())
}

#[test]
fn lazy_adam_matches_oracle_when_all_rows_touched() {
    for_each_case(0x0B74, |case, rng| {
        let seq = batches(rng, 3, 2);
        // Sparse gradients that cover every row each step leave nothing to
        // be lazy about: the trajectories agree to rounding (the folded
        // bias correction evaluates the same algebra in a different order).
        let rows = 3;
        let mut params = Params::new();
        let w = params.add("w", init_table(rows, 2));
        let mut opt = Adam::new(0.05);

        let mut oracle_w = params.value(w).clone();
        let mut m = Tensor::zeros(rows, 2);
        let mut v = Tensor::zeros(rows, 2);
        let cfg = reference::AdamCfg {
            lr: 0.05,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        };

        for (t, (idx, src)) in seq.iter().enumerate() {
            // Extend every batch to touch all rows once more.
            let mut all_idx = idx.clone();
            all_idx.extend(0..rows);
            let pad = Tensor::from_fn(rows, 2, |i, j| ((t + i + j) as f64).cos());
            let full = src.concat_rows(&pad);
            let sparse = RowSparse::from_scatter(rows, 2, &all_idx, &full);
            params.accumulate_grad_rows(w, sparse.clone());
            opt.step(&mut params);
            params.zero_grad();
            reference::adam_step(
                &mut oracle_w,
                &sparse.to_dense(),
                &mut m,
                &mut v,
                t as u64 + 1,
                &cfg,
            );
        }
        for (a, b) in params.value(w).data().iter().zip(oracle_w.data()) {
            assert!((a - b).abs() < 1e-12, "case {case}: lazy {a} vs oracle {b}");
        }
    });
}
