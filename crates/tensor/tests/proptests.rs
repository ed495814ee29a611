//! Property-based tests for the tensor kernels: each property runs on 256
//! seeded cases, every case drawing its shapes and entries from its own
//! [`SplitMix64`] stream, so a failure replays from its case number.

use dt_tensor::{reference, SplitMix64, Tensor};

/// Cases per property.
const CASES: u64 = 256;

/// Runs `check` once per case on that case's own stream.
fn for_each_case(seed: u64, mut check: impl FnMut(u64, &mut SplitMix64)) {
    for case in 0..CASES {
        check(case, &mut SplitMix64(seed ^ (case << 32)));
    }
}

/// A dimension in `1..=max`.
fn dim(rng: &mut SplitMix64, max: usize) -> usize {
    1 + rng.next_below(max)
}

/// A `rows × cols` tensor of uniform entries in `[lo, hi)`.
fn filled(rng: &mut SplitMix64, rows: usize, cols: usize, lo: f64, hi: f64) -> Tensor {
    Tensor::from_fn(rows, cols, |_, _| rng.next_uniform(lo, hi))
}

/// A tensor with dims in 1..=6 and entries in [-10, 10).
fn any_tensor(rng: &mut SplitMix64) -> Tensor {
    let (r, c) = (dim(rng, 6), dim(rng, 6));
    filled(rng, r, c, -10.0, 10.0)
}

/// A pair of tensors with identical shapes.
fn same_shape_pair(rng: &mut SplitMix64) -> (Tensor, Tensor) {
    let (r, c) = (dim(rng, 6), dim(rng, 6));
    (
        filled(rng, r, c, -10.0, 10.0),
        filled(rng, r, c, -10.0, 10.0),
    )
}

/// A matmul-compatible pair (m×k, k×n) with dims in `1..=max_m`,
/// `1..=max_k` and `1..=max_n`, entries in [-5, 5).
fn matmul_pair_upto(
    rng: &mut SplitMix64,
    max_m: usize,
    max_k: usize,
    max_n: usize,
) -> (Tensor, Tensor) {
    let (m, k, n) = (dim(rng, max_m), dim(rng, max_k), dim(rng, max_n));
    (filled(rng, m, k, -5.0, 5.0), filled(rng, k, n, -5.0, 5.0))
}

/// A matmul-compatible pair with every dim in 1..=5.
fn matmul_pair(rng: &mut SplitMix64) -> (Tensor, Tensor) {
    matmul_pair_upto(rng, 5, 5, 5)
}

/// A matmul-compatible pair with dims large enough to exercise the
/// micro-tile remainders and (occasionally) the parallel row partition.
fn wide_matmul_pair(rng: &mut SplitMix64) -> (Tensor, Tensor) {
    matmul_pair_upto(rng, 40, 20, 40)
}

#[test]
fn add_commutes() {
    for_each_case(0x7E01, |case, rng| {
        let (a, b) = same_shape_pair(rng);
        assert!(a.add(&b).approx_eq(&b.add(&a), 1e-12), "case {case}");
    });
}

#[test]
fn sub_then_add_roundtrips() {
    for_each_case(0x7E02, |case, rng| {
        let (a, b) = same_shape_pair(rng);
        assert!(a.sub(&b).add(&b).approx_eq(&a, 1e-10), "case {case}");
    });
}

#[test]
fn transpose_is_involution() {
    for_each_case(0x7E03, |case, rng| {
        let a = any_tensor(rng);
        assert_eq!(a.transpose().transpose(), a, "case {case}");
    });
}

#[test]
fn transpose_preserves_frobenius() {
    for_each_case(0x7E04, |case, rng| {
        let a = any_tensor(rng);
        assert!(
            (a.frob_sq() - a.transpose().frob_sq()).abs() < 1e-9,
            "case {case}"
        );
    });
}

#[test]
fn matmul_transpose_identity() {
    for_each_case(0x7E05, |case, rng| {
        let (a, b) = matmul_pair(rng);
        // (AB)ᵀ == Bᵀ Aᵀ
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        assert!(lhs.approx_eq(&rhs, 1e-9), "case {case}");
    });
}

#[test]
fn matmul_tn_matches_transpose() {
    for_each_case(0x7E06, |case, rng| {
        let a = any_tensor(rng);
        let at = a.transpose();
        let lhs = at.matmul_tn(&at); // (Aᵀ)ᵀ(Aᵀ) = A Aᵀ
        let rhs = a.matmul(&a.transpose());
        assert!(lhs.approx_eq(&rhs, 1e-9), "case {case}");
    });
}

#[test]
fn matmul_nt_matches_transpose() {
    for_each_case(0x7E07, |case, rng| {
        let (a, b) = matmul_pair(rng);
        let bt = b.transpose();
        assert!(
            a.matmul_nt(&bt).approx_eq(&a.matmul(&b), 1e-9),
            "case {case}"
        );
    });
}

#[test]
fn row_dot_diag_of_product() {
    for_each_case(0x7E08, |case, rng| {
        let (a, b) = same_shape_pair(rng);
        let rd = a.row_dot(&b);
        let full = a.matmul_nt(&b);
        for i in 0..a.rows() {
            assert!((rd.get(i, 0) - full.get(i, i)).abs() < 1e-9, "case {case}");
        }
    });
}

#[test]
fn frobenius_gram_identity() {
    for_each_case(0x7E09, |case, rng| {
        let (a, b) = matmul_pair(rng);
        // ‖A Bᵀ‖²_F == trace((AᵀA)(BᵀB)) with B reshaped to share a's cols.
        let bt = b.transpose(); // n × k where k = a.cols()
        let direct = a.matmul_nt(&bt).frob_sq();
        let via_gram = a.gram().trace_product(&bt.gram());
        let scale = direct.abs().max(1.0);
        assert!((direct - via_gram).abs() < 1e-8 * scale, "case {case}");
    });
}

#[test]
fn gather_then_scatter_is_row_count() {
    for_each_case(0x7E0A, |case, rng| {
        let a = any_tensor(rng);
        // Gathering every row once and scattering back doubles the matrix.
        let idx: Vec<usize> = (0..a.rows()).collect();
        let g = a.gather_rows(&idx);
        let mut acc = a.clone();
        acc.scatter_add_rows(&idx, &g);
        assert!(acc.approx_eq(&a.scale(2.0), 1e-12), "case {case}");
    });
}

#[test]
fn concat_slice_roundtrip() {
    for_each_case(0x7E0B, |case, rng| {
        let (a, b) = same_shape_pair(rng);
        let c = a.concat_cols(&b);
        assert_eq!(c.slice_cols(0, a.cols()), a, "case {case}");
        assert_eq!(
            c.slice_cols(a.cols(), a.cols() + b.cols()),
            b,
            "case {case}"
        );
        let r = a.concat_rows(&a);
        assert_eq!(r.slice_rows(a.rows(), 2 * a.rows()), a, "case {case}");
    });
}

#[test]
fn row_col_sums_agree_with_total() {
    for_each_case(0x7E0C, |case, rng| {
        let a = any_tensor(rng);
        let total = a.sum();
        assert!((a.row_sums().sum() - total).abs() < 1e-9, "case {case}");
        assert!((a.col_sums().sum() - total).abs() < 1e-9, "case {case}");
    });
}

#[test]
fn clamp_bounds_hold() {
    for_each_case(0x7E0D, |case, rng| {
        let c = any_tensor(rng).clamp(-1.0, 1.0);
        assert!(c.min() >= -1.0 && c.max() <= 1.0, "case {case}");
    });
}

// --- Blocked/parallel kernels vs naive reference: EXACT equality ---
// The blocked kernels accumulate each output element in the same
// ascending-k order as the naive triple loop, so the match is
// bit-for-bit, not approximate; `assert_eq!` is intentional.

#[test]
fn blocked_matmul_equals_naive_reference() {
    for_each_case(0x7E0E, |case, rng| {
        let (a, b) = wide_matmul_pair(rng);
        assert_eq!(a.matmul(&b), reference::matmul(&a, &b), "case {case}");
    });
}

#[test]
fn blocked_matmul_nt_equals_naive_reference() {
    for_each_case(0x7E0F, |case, rng| {
        let (a, b) = wide_matmul_pair(rng);
        let bt = b.transpose(); // n × k
        assert_eq!(
            a.matmul_nt(&bt),
            reference::matmul_nt(&a, &bt),
            "case {case}"
        );
    });
}

#[test]
fn blocked_matmul_tn_equals_chunked_reference() {
    for_each_case(0x7E10, |case, rng| {
        let (a, b) = wide_matmul_pair(rng);
        // matmul_tn's operands share their row count, so pair `a` (m×k)
        // with `a·b` (m×n) to vary both inner dimensions.
        let chunk = reference::tn_reduction_chunk();
        let other = a.matmul(&b);
        assert_eq!(
            a.matmul_tn(&other),
            reference::matmul_tn_chunked(&a, &other, chunk),
            "case {case}"
        );
    });
}

#[test]
fn kernels_are_thread_count_independent() {
    for_each_case(0x7E11, |case, rng| {
        let (a, b) = wide_matmul_pair(rng);
        let one = dt_parallel::with_thread_limit(1, || a.matmul(&b));
        let eight = dt_parallel::with_thread_limit(8, || a.matmul(&b));
        assert_eq!(one, eight, "case {case}");
        let bt = b.transpose();
        let one = dt_parallel::with_thread_limit(1, || a.matmul_nt(&bt));
        let eight = dt_parallel::with_thread_limit(8, || a.matmul_nt(&bt));
        assert_eq!(one, eight, "case {case}");
    });
}

/// A `(logits, targets)` pair sharing one shape — logits wide enough to
/// stress the stable BCE form, targets in `[0, 1)`.
fn bce_pair(rng: &mut SplitMix64) -> (Tensor, Tensor) {
    let (r, c) = (dim(rng, 6), dim(rng, 6));
    (filled(rng, r, c, -30.0, 30.0), filled(rng, r, c, 0.0, 1.0))
}

#[test]
fn fused_sigmoid_bce_is_bit_identical_to_reference() {
    for_each_case(0x7E12, |case, rng| {
        let (x, t) = bce_pair(rng);
        let (loss_f, res_f) = dt_tensor::fused::sigmoid_bce(&x, &t);
        let (loss_r, res_r) = dt_tensor::fused::sigmoid_bce_reference(&x, &t);
        assert_eq!(loss_f.to_bits(), loss_r.to_bits(), "case {case}");
        assert_eq!(res_f, res_r, "case {case}");
    });
}

#[test]
fn fused_backwards_match_composed_products() {
    for_each_case(0x7E14, |case, rng| {
        let (x, t) = bce_pair(rng);
        let scale = 1.0 / x.len() as f64;
        let (_, res) = dt_tensor::fused::sigmoid_bce(&x, &t);
        let dx = dt_tensor::fused::sigmoid_bce_backward(&res, scale);
        assert_eq!(dx, res.map(|r| r * scale), "case {case}");
    });
}

#[test]
fn pooled_and_fresh_kernels_are_bit_identical() {
    for_each_case(0x7E15, |case, rng| {
        let (a, b) = wide_matmul_pair(rng);
        // The pool changes where bytes live, never what is computed: the
        // same kernel run with the pool bypassed must match bit-for-bit.
        let run = || {
            let targets = a.map(|v| v.abs().fract());
            (a.matmul(&b), dt_tensor::fused::sigmoid_bce(&a, &targets))
        };
        let pooled = run();
        let fresh = dt_tensor::pool::with_disabled(run);
        assert_eq!(pooled.0, fresh.0, "case {case}");
        assert_eq!(pooled.1 .0.to_bits(), fresh.1 .0.to_bits(), "case {case}");
        assert_eq!(pooled.1 .1, fresh.1 .1, "case {case}");
    });
}
