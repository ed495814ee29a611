//! ANN retrieval report: IVF probe-and-rerank vs the exact engine for
//! `BENCH_ann.json` (schema `dt-bench/ann/v2`).
//!
//! The acceptance artefact for the IVF layer is a recall/latency frontier:
//! the same sixteen-user top-K query answered by the exact
//! [`dt_serve::TopKEngine`] arm (blocked gather-GEMM over all `M` items),
//! by the fused f64 scan that serves exact traffic (`quantize(F64)`
//! through `recommend_quantized_into`, the fastest exact path, which
//! `speedup_vs_f64_scan` divides by), and by [`dt_serve::IvfIndex`]
//! probe-and-rerank, sweeping
//! `nlist ∈ {64, 256, 1024}` × `nprobe ∈ {1, 4, 16, 64}` ×
//! `M ∈ {10⁴, 10⁵, 10⁶}` × `K ∈ {10, 50}` at `DT_NUM_THREADS` 1/2/8
//! (widths forced in-process through `dt_parallel::with_thread_limit`, so
//! one run covers the sweep; every row records the host's true hardware
//! width so oversubscribed rows are self-describing).
//!
//! The item panel is **clustered**, not uniform: items are drawn around
//! 512 latent centers with small within-cluster spread, the geometry
//! trained MF item embeddings actually have. That matters — on a
//! structureless uniform panel, IVF recall cannot beat the probed
//! coverage fraction (cells of i.i.d. vectors have near-zero centroids),
//! so a uniform benchmark would measure nothing but noise. Recall@K is
//! counted against the exact arm's batch (item overlap per user,
//! micro-averaged), which by the serve-crate contract equals the
//! `reference::top_k_by_sort` oracle. `ivf_allocs_per_batch` is the
//! post-warm-up [`dt_tensor::pool::stats`] fresh-alloc delta per query
//! batch; the IVF arm's steady state is zero.
//!
//! One [`IvfIndex`] is built per `(M, nlist)` and reused across widths,
//! probes and K — legitimate because builds are bit-identical at any
//! width. The timer, alloc probe and generator are the shared
//! [`crate::report`] harness.

use std::path::Path;

use dt_serve::{
    IvfIndex, IvfParams, IvfScratch, PanelDtype, QuantScratch, ScoringIndex, TopKBatch, TopKEngine,
};
use dt_tensor::Tensor;

use crate::report::{fresh_allocs_per, time_ms, XorShift};

/// A serving index whose item panel carries cluster structure: `n_items`
/// items drawn around `n_centers` latent centers (uniform in `[-1, 1]^d`)
/// with uniform within-cluster `spread`, plus small item biases. Users
/// stay uniform — queries should not trivially align with one center.
#[must_use]
pub fn build_clustered_index(
    n_users: usize,
    n_items: usize,
    dim: usize,
    n_centers: usize,
    spread: f64,
    seed: u64,
) -> ScoringIndex {
    let n_centers = n_centers.clamp(1, n_items);
    let mut rng = XorShift::new(seed);
    let centers = rng.filled(n_centers, dim);
    let q = Tensor::from_fn(n_items, dim, |i, j| {
        centers.get(i % n_centers, j) + spread * rng.unit()
    });
    let p = rng.filled(n_users, dim);
    let ub: Vec<f64> = (0..n_users).map(|_| 0.1 * rng.unit()).collect();
    let ib: Vec<f64> = (0..n_items).map(|_| 0.1 * rng.unit()).collect();
    ScoringIndex::new(p, q, ub, ib, 0.1)
}

/// Micro-averaged recall@K of `got` against the exact `truth` batch:
/// overlap of returned item ids, summed over users.
#[must_use]
pub fn recall_vs(truth: &TopKBatch, got: &TopKBatch) -> f64 {
    assert_eq!(truth.n_users(), got.n_users(), "recall_vs: stripe mismatch");
    let mut hit = 0usize;
    let mut total = 0usize;
    for j in 0..truth.n_users() {
        let want: Vec<u32> = truth.user(j).iter().map(|r| r.item).collect();
        total += want.len();
        hit += got
            .user(j)
            .iter()
            .filter(|r| want.contains(&r.item))
            .count();
    }
    if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    }
}

/// One frontier point: `(M, K, nlist, nprobe, threads)` with the exact,
/// f64-scan and IVF arm latencies, recall@K, and the steady-state alloc
/// probe.
pub struct AnnMeasurement {
    pub m: usize,
    pub k: usize,
    pub users: usize,
    pub dim: usize,
    pub threads: usize,
    pub nlist: usize,
    pub nprobe: usize,
    pub exact_ms: f64,
    /// The fused f64 scan at the same `(M, K, threads)`: the fastest
    /// exact path.
    pub exact_scan_ms: f64,
    pub ivf_ms: f64,
    pub recall_at_k: f64,
    pub ivf_allocs_per_batch: f64,
}

impl AnnMeasurement {
    fn speedup(&self) -> f64 {
        self.exact_ms / self.ivf_ms.max(1e-9)
    }

    fn speedup_vs_f64_scan(&self) -> f64 {
        self.exact_scan_ms / self.ivf_ms.max(1e-9)
    }
}

/// The frontier sweep (module docs) over the given catalog sizes, IVF
/// cell counts and pool widths. The artefact runs `ms = [10⁴, 10⁵,
/// 10⁶]`, `nlists = [64, 256, 1024]` at every
/// [`crate::report::SWEEP_WIDTHS`] width; slow at `M = 10⁶`.
#[must_use]
pub fn run_measurements(ms: &[usize], nlists: &[usize], widths: &[usize]) -> Vec<AnnMeasurement> {
    let (n_users, dim, n_query) = (2048usize, 32usize, 16usize);
    let nprobes = [1usize, 4, 16, 64];
    let ks = [10usize, 50];
    let engine = TopKEngine::new();
    let mut out = Vec::new();

    for &m in ms {
        let index = build_clustered_index(n_users, m, dim, 512, 0.25, 0x0A17 ^ m as u64);
        let scan = index.quantize(PanelDtype::F64);
        let users: Vec<usize> = (0..n_query).map(|j| (j * 131) % n_users).collect();
        let reps = if m >= 1_000_000 { 2 } else { 3 };

        // Exact arms per (K, width): truth batches once (width-free), then
        // the timed block-GEMM and f64-scan passes under each forced width.
        let mut exact = Vec::new();
        for &k in &ks {
            let mut batch = TopKBatch::new();
            engine.recommend_into(&index, &users, k, None, &mut batch);
            let mut scratch = QuantScratch::default();
            let mut per_width = Vec::new();
            for &w in widths {
                let times = dt_parallel::with_thread_limit(w, || {
                    engine.recommend_into(&index, &users, k, None, &mut batch); // warm-up
                    let gemm_ms = time_ms(reps, || {
                        engine.recommend_into(&index, &users, k, None, &mut batch);
                    });
                    let mut scan_pass = || {
                        engine.recommend_quantized_into(
                            &scan,
                            &users,
                            k,
                            None,
                            &mut scratch,
                            &mut batch,
                        );
                    };
                    scan_pass(); // warm-up
                    (gemm_ms, time_ms(reps, scan_pass))
                });
                per_width.push(times);
            }
            let truth = engine.recommend(&index, &users, k, None);
            exact.push((k, truth, per_width));
        }

        for &nlist in nlists {
            // One build per (M, nlist), reused everywhere below (builds
            // are bit-identical at any width).
            let ivf = IvfIndex::build(
                &index,
                &IvfParams {
                    nlist,
                    iters: 6,
                    seed: 0x1AF5 ^ nlist as u64,
                    train_cap: 1 << 17,
                },
            );
            for &nprobe in &nprobes {
                for (k, truth, exact_per_width) in &exact {
                    let k = *k;
                    let mut batch = TopKBatch::new();
                    let mut scratch = IvfScratch::default();
                    // Recall + alloc probe once per point: both are
                    // width-independent by the determinism contract.
                    let (recall, allocs) = dt_parallel::with_thread_limit(1, || {
                        let mut pass = || {
                            engine.recommend_ivf_into(
                                &index,
                                &ivf,
                                nprobe,
                                &users,
                                k,
                                None,
                                &mut scratch,
                                &mut batch,
                            );
                        };
                        pass(); // warm-up
                        let allocs = fresh_allocs_per(5, |_| pass());
                        (recall_vs(truth, &batch), allocs)
                    });
                    for (&w, &(exact_ms, exact_scan_ms)) in widths.iter().zip(exact_per_width) {
                        let ivf_ms = dt_parallel::with_thread_limit(w, || {
                            let mut pass = || {
                                engine.recommend_ivf_into(
                                    &index,
                                    &ivf,
                                    nprobe,
                                    &users,
                                    k,
                                    None,
                                    &mut scratch,
                                    &mut batch,
                                );
                            };
                            pass(); // warm-up at this width
                            time_ms(reps, pass)
                        });
                        out.push(AnnMeasurement {
                            m,
                            k,
                            users: n_query,
                            dim,
                            threads: w,
                            nlist,
                            nprobe,
                            exact_ms,
                            exact_scan_ms,
                            ivf_ms,
                            recall_at_k: recall,
                            ivf_allocs_per_batch: allocs,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Renders the report as JSON (schema `dt-bench/ann/v2`: v1 plus
/// `exact_scan_ms` and `speedup_vs_f64_scan`).
#[must_use]
pub fn render_report(results: &[AnnMeasurement]) -> String {
    let host = crate::report::host_threads();
    let header = crate::report::bench_header(
        "dt-bench/ann/v2",
        "recall/latency frontier for IVF probe-and-rerank vs \
         the exact dt-serve engine: one batched top-K query (16 users x all \
         M items, dim-32 panels, item panel clustered around 512 latent \
         centers with 0.25 spread — the geometry trained MF embeddings \
         have; on a uniform panel IVF recall cannot beat the probed \
         coverage fraction, so a uniform benchmark would be vacuous). Both \
         arms share the scoring kernels, so candidate scores are bit-equal \
         and recall_at_k counts pure candidate-set misses. Thread widths \
         are forced in-process via dt_parallel::with_thread_limit; \
         host_threads per row records the hardware actually available. One \
         IvfIndex per (m, nlist) (iters 6, train_cap 131072), reused \
         across widths/nprobe/k — builds are bit-identical at any width. \
         exact_ms is the block-GEMM reference (speedup_vs_exact divides by \
         it); exact_scan_ms is the fused f64 scan (quantize(F64) through \
         recommend_quantized_into) that serves exact traffic, the fastest \
         exact path, and speedup_vs_f64_scan divides by it. \
         ivf_allocs_per_batch is the post-warm-up dt_tensor::pool::stats \
         fresh-alloc delta per query batch; steady state is zero.",
        None,
    );
    crate::report::with_results(header, results, |r| {
        format!(
            "\"m\": {}, \"k\": {}, \"users\": {}, \"dim\": {}, \
             \"threads\": {}, \"host_threads\": {host}, \"nlist\": {}, \
             \"nprobe\": {}, \"exact_ms\": {:.3}, \"exact_scan_ms\": {:.3}, \
             \"ivf_ms\": {:.3}, \"speedup_vs_exact\": {:.2}, \
             \"speedup_vs_f64_scan\": {:.2}, \"recall_at_k\": {:.4}, \
             \"ivf_allocs_per_batch\": {:.1}",
            r.m,
            r.k,
            r.users,
            r.dim,
            r.threads,
            r.nlist,
            r.nprobe,
            r.exact_ms,
            r.exact_scan_ms,
            r.ivf_ms,
            r.speedup(),
            r.speedup_vs_f64_scan(),
            r.recall_at_k,
            r.ivf_allocs_per_batch,
        )
    })
}

/// Runs the sweep and writes the report to `path`: the artefact's
/// frontier, or with `smoke` the unit tests' 4000-item catalog with
/// `nlist = 32` at the ambient pool width.
///
/// # Errors
/// Propagates the underlying file-write error.
pub fn write(path: &Path, smoke: bool) -> std::io::Result<()> {
    let results = if smoke {
        run_measurements(&[4_000], &[32], &[dt_parallel::num_threads()])
    } else {
        run_measurements(
            &[10_000, 100_000, 1_000_000],
            &[64, 256, 1024],
            &crate::report::SWEEP_WIDTHS,
        )
    };
    crate::report::write_report(path, &render_report(&results), &results, |r| {
        format!(
            "ann M={:7} K={:2} t={} nlist={:4} nprobe={:2}  exact {:8.3} ms  \
             scan {:8.3} ms  ivf {:8.3} ms  vs scan {:6.2}x  recall {:.4}  \
             allocs/batch {:4.1}",
            r.m,
            r.k,
            r.threads,
            r.nlist,
            r.nprobe,
            r.exact_ms,
            r.exact_scan_ms,
            r.ivf_ms,
            r.speedup_vs_f64_scan(),
            r.recall_at_k,
            r.ivf_allocs_per_batch,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_index_shapes_and_determinism() {
        let _pool = crate::stats_lock();
        let a = build_clustered_index(10, 200, 8, 16, 0.25, 7);
        let b = build_clustered_index(10, 200, 8, 16, 0.25, 7);
        assert_eq!(a.n_users(), 10);
        assert_eq!(a.n_items(), 200);
        assert_eq!(a.dim(), 8);
        assert_eq!(a.item_panel(), b.item_panel());
        assert_eq!(a.user_panel(), b.user_panel());
    }

    #[test]
    fn clustered_panel_probes_well_at_small_nprobe() {
        let _pool = crate::stats_lock();
        // The whole point of the clustered generator: with nlist matching
        // the latent centers, a few probes must already recover most of
        // the exact top-10 — on a uniform panel this would hover near the
        // coverage fraction instead.
        let index = build_clustered_index(64, 4000, 16, 32, 0.25, 11);
        let ivf = IvfIndex::build(
            &index,
            &IvfParams {
                nlist: 32,
                iters: 6,
                seed: 3,
                train_cap: 0,
            },
        );
        let users: Vec<usize> = (0..16).collect();
        let engine = TopKEngine::new();
        let truth = engine.recommend(&index, &users, 10, None);
        let mut got = TopKBatch::new();
        let mut scratch = IvfScratch::default();
        engine.recommend_ivf_into(&index, &ivf, 4, &users, 10, None, &mut scratch, &mut got);
        let r = recall_vs(&truth, &got);
        assert!(r > 0.8, "recall {r} too low for a clustered panel");
    }

    #[test]
    fn recall_is_one_against_itself_and_counts_misses() {
        let _pool = crate::stats_lock();
        let index = build_clustered_index(8, 300, 6, 8, 0.3, 5);
        let engine = TopKEngine::new();
        let truth = engine.recommend(&index, &[0, 1, 2], 5, None);
        assert!((recall_vs(&truth, &truth) - 1.0).abs() < 1e-12);
        let other = engine.recommend(&index, &[3, 4, 5], 5, None);
        assert!(recall_vs(&truth, &other) < 1.0);
    }

    #[test]
    fn report_shape_is_valid() {
        let m = AnnMeasurement {
            m: 1_000_000,
            k: 10,
            users: 16,
            dim: 32,
            threads: 8,
            nlist: 1024,
            nprobe: 16,
            exact_ms: 530.0,
            exact_scan_ms: 132.5,
            ivf_ms: 26.5,
            recall_at_k: 0.97,
            ivf_allocs_per_batch: 0.0,
        };
        let json = render_report(&[m]);
        assert!(json.contains("\"schema\": \"dt-bench/ann/v2\""));
        assert!(json.contains("\"speedup_vs_exact\": 20.00"));
        assert!(json.contains("\"exact_scan_ms\": 132.500"));
        assert!(json.contains("\"speedup_vs_f64_scan\": 5.00"));
        assert!(json.contains("\"recall_at_k\": 0.9700"));
        assert!(json.contains("\"ivf_allocs_per_batch\": 0.0"));
        assert!(json.contains("\"threads\": 8"));
        assert!(json.contains("\"git_rev\": \""));
        assert!(json.trim_end().ends_with('}'));
    }
}
