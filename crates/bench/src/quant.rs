//! Mixed-precision scoring report: the accuracy-vs-bandwidth frontier for
//! `BENCH_quant.json` (schema `dt-bench/quant/v2`).
//!
//! The acceptance artefact for the quantized serving panels is a frontier
//! over panel dtypes: the same sixteen-user full-catalog top-K query
//! answered by the exact f64 [`dt_serve::TopKEngine`] arm (the oracle and
//! latency baseline) and by [`dt_serve::QuantizedIndex`] exports of the
//! same index at every [`dt_serve::PanelDtype`] — `f64` (a verbatim copy,
//! so its rows double as a bit-identity check on the quantized engine)
//! and `f32`. The sweep covers `M ∈ {10⁴, 10⁵, 10⁶}` × `K ∈ {10, 50}`
//! at the pool widths in [`crate::report::SWEEP_WIDTHS`] (forced
//! in-process through `dt_parallel::with_thread_limit`; every row
//! records the host's true hardware width so oversubscribed rows are
//! self-describing).
//!
//! The item panel is **clustered** (reusing
//! [`crate::ann::build_clustered_index`]) — the geometry trained MF item
//! embeddings actually have, and the regime where a lossy top-K can
//! plausibly miss: near-duplicate items whose score gap is smaller than
//! the quantization step. Per row the report carries `bytes_per_item`
//! (quantized item-panel payload + the f64 item bias), `overlap`
//! (top-K set overlap against the f64 oracle batch, micro-averaged — the
//! same counting as the ANN report's recall), `ndcg_at_k` (oracle members
//! as binary relevance, so misses at the top ranks cost more than misses
//! at the tail), and `allocs_per_batch` (post-warm-up
//! [`dt_tensor::pool::stats`] fresh-alloc delta per query batch; the
//! quantized engine's steady state is zero). Quality and alloc numbers
//! are measured once per `(M, K, dtype)` at width 1 — both are
//! width-independent by the engine's determinism contract. The timer and
//! alloc probe are the shared [`crate::report`] harness.

use std::path::Path;

use dt_serve::{PanelDtype, QuantScratch, TopKBatch, TopKEngine};

use crate::ann::{build_clustered_index, recall_vs};
use crate::report::{fresh_allocs_per, time_ms};

/// Micro-averaged NDCG@K of `got` against the oracle `truth` batch, with
/// binary relevance: an item is relevant iff it appears in that user's
/// oracle top-K. Unlike the flat set overlap this weighs *where* the
/// misses land — a wrong item at the top rank costs more than one at the
/// bottom, so quantization error that displaces the best item shows up
/// harder than error that perturbs the tail.
#[must_use]
pub fn ndcg_vs(truth: &TopKBatch, got: &TopKBatch) -> f64 {
    assert_eq!(truth.n_users(), got.n_users(), "ndcg_vs: stripe mismatch");
    let discount = |pos: usize| 1.0 / (pos as f64 + 2.0).log2();
    let mut dcg_sum = 0.0;
    let mut idcg_sum = 0.0;
    for j in 0..truth.n_users() {
        let want: Vec<u32> = truth.user(j).iter().map(|r| r.item).collect();
        for (pos, r) in got.user(j).iter().enumerate() {
            if want.contains(&r.item) {
                dcg_sum += discount(pos);
            }
        }
        idcg_sum += (0..want.len()).map(discount).sum::<f64>();
    }
    if idcg_sum == 0.0 {
        1.0
    } else {
        dcg_sum / idcg_sum
    }
}

/// One frontier point: `(M, K, dtype, threads)` with the exact-f64 and
/// quantized arm latencies, the quality-vs-oracle pair, and the
/// steady-state alloc probe.
pub struct QuantMeasurement {
    pub m: usize,
    pub k: usize,
    pub users: usize,
    pub dim: usize,
    pub threads: usize,
    pub dtype: PanelDtype,
    pub bytes_per_item: f64,
    pub exact_f64_ms: f64,
    pub quant_ms: f64,
    /// The f64 dtype's `quant_ms` at the same `(M, K, threads)`: the
    /// fastest exact path, which every dtype is also compared against.
    pub f64_scan_ms: f64,
    pub overlap: f64,
    pub ndcg_at_k: f64,
    pub allocs_per_batch: f64,
}

impl QuantMeasurement {
    fn speedup(&self) -> f64 {
        self.exact_f64_ms / self.quant_ms.max(1e-9)
    }

    fn speedup_vs_f64_scan(&self) -> f64 {
        self.f64_scan_ms / self.quant_ms.max(1e-9)
    }

    fn items_per_sec(&self) -> f64 {
        if self.quant_ms <= 0.0 {
            return 0.0;
        }
        (self.users * self.m) as f64 / (self.quant_ms / 1e3)
    }
}

/// Every panel dtype the frontier sweeps, lossless first.
pub const DTYPES: [PanelDtype; 2] = [PanelDtype::F64, PanelDtype::F32];

/// The frontier sweep over the given catalog sizes and pool widths
/// (module docs). The full artefact uses
/// `ms = [10⁴, 10⁵, 10⁶]` × `widths = SWEEP_WIDTHS`; the smoke entry
/// point trims both so it runs in seconds.
#[must_use]
pub fn run_measurements(ms: &[usize], widths: &[usize]) -> Vec<QuantMeasurement> {
    let (n_users, dim, n_query) = (2048usize, 32usize, 16usize);
    let ks = [10usize, 50];
    let engine = TopKEngine::new();
    let mut out = Vec::new();

    for &m in ms {
        let index = build_clustered_index(n_users, m, dim, 512, 0.25, 0x0A17 ^ m as u64);
        let users: Vec<usize> = (0..n_query).map(|j| (j * 131) % n_users).collect();
        let reps = if m >= 1_000_000 { 2 } else { 3 };

        // Exact f64 arm per (K, width): the oracle batch once
        // (width-free), then the timed baseline under each forced width.
        let mut exact: Vec<(usize, TopKBatch, Vec<f64>)> = Vec::new();
        for &k in &ks {
            let mut batch = TopKBatch::new();
            let mut per_width = Vec::new();
            for &w in widths {
                let ms_at_w = dt_parallel::with_thread_limit(w, || {
                    engine.recommend_into(&index, &users, k, None, &mut batch); // warm-up
                    time_ms(reps, || {
                        engine.recommend_into(&index, &users, k, None, &mut batch);
                    })
                });
                per_width.push(ms_at_w);
            }
            let truth = engine.recommend(&index, &users, k, None);
            exact.push((k, truth, per_width));
        }

        // The f64 dtype's scan time per (K, width); DTYPES runs f64 first.
        let mut f64_scan_ms = vec![0.0; ks.len() * widths.len()];
        for &dtype in &DTYPES {
            // One export per (M, dtype), reused across K and widths —
            // quantization happens at index-export time, not per query.
            let qidx = index.quantize(dtype);
            let bytes_per_item = qidx.bytes_per_item();
            let mut scratch = QuantScratch::default();
            let mut batch = TopKBatch::new();
            for (ki, (k, truth, exact_per_width)) in exact.iter().enumerate() {
                let k = *k;
                // Quality + alloc probe once per point: both are
                // width-independent by the determinism contract.
                let (overlap, ndcg_at_k, allocs) = dt_parallel::with_thread_limit(1, || {
                    let mut pass = || {
                        engine.recommend_quantized_into(
                            &qidx,
                            &users,
                            k,
                            None,
                            &mut scratch,
                            &mut batch,
                        );
                    };
                    pass(); // warm-up
                    let allocs = fresh_allocs_per(5, |_| pass());
                    (recall_vs(truth, &batch), ndcg_vs(truth, &batch), allocs)
                });
                if dtype == PanelDtype::F64 {
                    // The f64 export is a verbatim copy: its quantized-arm
                    // batch must equal the exact engine's bit-for-bit.
                    assert_eq!(
                        *truth, batch,
                        "f64 quantized arm drifted from the exact engine at M={m} K={k}"
                    );
                }
                for (wi, &w) in widths.iter().enumerate() {
                    let quant_ms = dt_parallel::with_thread_limit(w, || {
                        let mut pass = || {
                            engine.recommend_quantized_into(
                                &qidx,
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
                    let f64_ms = &mut f64_scan_ms[ki * widths.len() + wi];
                    if dtype == PanelDtype::F64 {
                        *f64_ms = quant_ms;
                    }
                    out.push(QuantMeasurement {
                        m,
                        k,
                        users: n_query,
                        dim,
                        threads: w,
                        dtype,
                        bytes_per_item,
                        exact_f64_ms: exact_per_width[wi],
                        quant_ms,
                        f64_scan_ms: *f64_ms,
                        overlap,
                        ndcg_at_k,
                        allocs_per_batch: allocs,
                    });
                }
            }
        }
    }
    out
}

/// Renders the report as JSON (schema `dt-bench/quant/v2`).
#[must_use]
pub fn render_report(results: &[QuantMeasurement]) -> String {
    let host = crate::report::host_threads();
    let header = crate::report::bench_header(
        "dt-bench/quant/v2",
        "accuracy-vs-bandwidth frontier for mixed-precision scoring \
         panels: one batched full-catalog top-K query (16 users x all M \
         items, dim-32 panels, item panel clustered around 512 latent \
         centers with 0.25 spread — the regime where a lossy top-K can \
         plausibly miss) answered by the exact f64 dt-serve block-GEMM \
         engine (exact_f64_ms, the oracle; speedup_vs_f64 divides by it) \
         and by QuantizedIndex exports at dtype f64 / f32 \
         (quant_ms, fused range-sharded, user-grouped scan). \
         speedup_vs_f64_scan divides the f64 dtype's quant_ms at the same \
         (m, k, threads) by the row's: each dtype against the fastest \
         exact path. bytes_per_item = quantized item-panel payload + f64 item \
         bias. overlap is micro-averaged top-K set overlap vs the oracle \
         batch; ndcg_at_k scores the same lists with oracle membership as \
         binary relevance, so top-rank misses cost more. The f64 dtype is a \
         verbatim copy and is asserted bit-identical to the exact engine. \
         Thread widths are forced in-process via \
         dt_parallel::with_thread_limit; host_threads per row records the \
         hardware actually available. Quality and alloc numbers are \
         width-independent by the determinism contract and measured at \
         width 1. allocs_per_batch is the post-warm-up \
         dt_tensor::pool::stats fresh-alloc delta per query batch; the \
         quantized engine's steady state is zero.",
        None,
    );
    crate::report::with_results(header, results, |r| {
        format!(
            "\"m\": {}, \"k\": {}, \"users\": {}, \"dim\": {}, \
             \"threads\": {}, \"host_threads\": {host}, \"dtype\": \"{}\", \
             \"bytes_per_item\": {:.1}, \"exact_f64_ms\": {:.3}, \
             \"quant_ms\": {:.3}, \"speedup_vs_f64\": {:.2}, \
             \"speedup_vs_f64_scan\": {:.2}, \"items_per_sec\": {:.0}, \"overlap\": {:.4}, \
             \"ndcg_at_k\": {:.4}, \"allocs_per_batch\": {:.1}",
            r.m,
            r.k,
            r.users,
            r.dim,
            r.threads,
            r.dtype.label(),
            r.bytes_per_item,
            r.exact_f64_ms,
            r.quant_ms,
            r.speedup(),
            r.speedup_vs_f64_scan(),
            r.items_per_sec(),
            r.overlap,
            r.ndcg_at_k,
            r.allocs_per_batch,
        )
    })
}

/// Runs the sweep and writes the report to `path`: the artefact's
/// frontier at every [`crate::report::SWEEP_WIDTHS`] width, or with
/// `smoke` `M = 10⁴` at the ambient pool width — every dtype arm and the
/// f64 bit-identity assert in seconds.
///
/// # Errors
/// Propagates the underlying file-write error.
pub fn write(path: &Path, smoke: bool) -> std::io::Result<()> {
    let results = if smoke {
        run_measurements(&[10_000], &[dt_parallel::num_threads()])
    } else {
        run_measurements(&[10_000, 100_000, 1_000_000], &crate::report::SWEEP_WIDTHS)
    };
    crate::report::write_report(path, &render_report(&results), &results, |r| {
        format!(
            "quant M={:7} K={:2} t={} dtype={:9}  exact {:8.3} ms  quant {:8.3} ms  \
             speedup {:5.2}x  vs f64 scan {:5.2}x  overlap {:.4}  ndcg {:.4}  \
             allocs/batch {:4.1}",
            r.m,
            r.k,
            r.threads,
            r.dtype.label(),
            r.exact_f64_ms,
            r.quant_ms,
            r.speedup(),
            r.speedup_vs_f64_scan(),
            r.overlap,
            r.ndcg_at_k,
            r.allocs_per_batch,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ndcg_is_one_against_itself_and_discounts_misses() {
        let _pool = crate::stats_lock();
        let index = build_clustered_index(8, 300, 6, 8, 0.3, 5);
        let engine = TopKEngine::new();
        let truth = engine.recommend(&index, &[0, 1, 2], 5, None);
        assert!((ndcg_vs(&truth, &truth) - 1.0).abs() < 1e-12);
        let other = engine.recommend(&index, &[3, 4, 5], 5, None);
        assert!(ndcg_vs(&truth, &other) < 1.0);
    }

    #[test]
    fn ndcg_weighs_miss_position_where_overlap_is_flat() {
        use dt_serve::Ranked;
        let mut truth = TopKBatch::new();
        truth.reset(1, 3);
        let mut got = TopKBatch::new();
        got.reset(1, 3);
        for (pos, item) in [0u32, 1, 2].iter().enumerate() {
            truth.user_mut(0)[pos] = Ranked {
                item: *item,
                score: -(pos as f64),
            };
            // Same member set, reversed order.
            got.user_mut(0)[pos] = Ranked {
                item: 2 - *item,
                score: -(pos as f64),
            };
        }
        truth.set_count(0, 3);
        got.set_count(0, 3);
        assert!((recall_vs(&truth, &got) - 1.0).abs() < 1e-12);
        // Binary relevance: every returned item is an oracle member, so
        // NDCG is 1.0 too — only true misses are penalised.
        assert!((ndcg_vs(&truth, &got) - 1.0).abs() < 1e-12);
        // Drop the top item for a genuine miss at the top rank: NDCG
        // falls below overlap because the miss sat at the best position.
        got.user_mut(0)[0] = Ranked {
            item: 99,
            score: 0.0,
        };
        let overlap = recall_vs(&truth, &got);
        let ndcg = ndcg_vs(&truth, &got);
        assert!((overlap - 2.0 / 3.0).abs() < 1e-12);
        assert!(ndcg < overlap, "ndcg {ndcg} not below overlap {overlap}");
    }

    #[test]
    fn smoke_sweep_covers_every_dtype_and_f64_is_exact() {
        let _pool = crate::stats_lock();
        let rows = run_measurements(&[2_000], &[2]);
        assert_eq!(rows.len(), DTYPES.len() * 2); // x K in {10, 50}
        for r in &rows {
            assert!(r.quant_ms >= 0.0 && r.exact_f64_ms >= 0.0);
            assert!(
                r.overlap > 0.5,
                "{}: overlap {}",
                r.dtype.label(),
                r.overlap
            );
            assert!(r.ndcg_at_k > 0.5);
            if r.dtype == PanelDtype::F64 {
                assert!((r.overlap - 1.0).abs() < 1e-12);
                assert!((r.ndcg_at_k - 1.0).abs() < 1e-12);
            }
        }
        let f32_row = rows.iter().find(|r| r.dtype == PanelDtype::F32).unwrap();
        assert!((f32_row.bytes_per_item - 136.0).abs() < 1e-9); // 32·4 + bias
    }

    #[test]
    fn report_shape_is_valid() {
        let m = QuantMeasurement {
            m: 1_000_000,
            k: 10,
            users: 16,
            dim: 32,
            threads: 8,
            dtype: PanelDtype::F32,
            bytes_per_item: 136.0,
            exact_f64_ms: 700.0,
            quant_ms: 175.0,
            f64_scan_ms: 350.0,
            overlap: 0.98,
            ndcg_at_k: 0.975,
            allocs_per_batch: 0.0,
        };
        let json = render_report(&[m]);
        assert!(json.contains("\"schema\": \"dt-bench/quant/v2\""));
        assert!(json.contains("\"dtype\": \"f32\""));
        assert!(json.contains("\"bytes_per_item\": 136.0"));
        assert!(json.contains("\"speedup_vs_f64\": 4.00"));
        assert!(json.contains("\"speedup_vs_f64_scan\": 2.00"));
        assert!(json.contains("\"items_per_sec\": 91428571"));
        assert!(json.contains("\"overlap\": 0.9800"));
        assert!(json.contains("\"ndcg_at_k\": 0.9750"));
        assert!(json.contains("\"allocs_per_batch\": 0.0"));
        assert!(json.contains("\"git_rev\": \""));
        assert!(json.trim_end().ends_with('}'));
    }
}
