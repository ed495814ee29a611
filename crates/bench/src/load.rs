//! Load-replay report: the serving stack under sustained concurrent
//! traffic, for `BENCH_load.json` (schema `dt-bench/load/v2`).
//!
//! Where `BENCH_ann`/`quant` time one query batch in isolation,
//! this report drives the [`dt_load`] harness end to end: Zipf-popular
//! users offered as a Poisson process by generator threads, a bounded
//! admission queue under the shed policy, max-batch/max-delay batching
//! workers, and one [`EngineArm`] per row — IVF, and the exact f64
//! fused scan. Each row is one closed experiment
//! reporting steady-state queries/sec, queue-wait / service / total
//! latency quantiles (p50/p99 from the log-scale
//! [`dt_metrics::LatencyHistogram`], ≤ 12.5 % relative error), the shed
//! rate, the mean dispatched batch size, and a per-arm steady-state
//! alloc probe (post-warm-up [`dt_tensor::pool::stats`] fresh-alloc
//! delta per dispatched batch — zero for every arm).
//!
//! The sweep covers intra-query width ([`crate::report::SWEEP_WIDTHS`],
//! forced per dispatch through `dt_parallel::with_thread_limit` inside
//! the workers) × engine arm × offered load (an underload and an
//! overload point) × batching policy (single-query vs coalescing) ×
//! result cache (off / per-worker CLOCK / shared sharded — `dt-cache`,
//! schema v2). Cached rows report the whole-run hit rate and stale
//! evictions; cache hits are bitwise identical to fresh dispatch, so
//! the qps lift is pure saved scoring bandwidth, not changed answers.
//! Latency numbers are host-dependent by nature — every row carries
//! `host_threads` so oversubscribed runs are self-describing — but the
//! *offered* traffic is deterministic (seeded per-thread streams) and
//! the retrieval outputs themselves stay bit-identical across widths by
//! the serving determinism contract.

use std::path::Path;
use std::time::Duration;

use dt_cache::{ClockCache, SharedCache};
use dt_load::{
    dispatch_cached, run_load, AdmissionPolicy, ArmScratch, BatchPolicy, CacheMode, CacheScratch,
    EngineArm, LoadConfig,
};
use dt_serve::{IvfIndex, IvfParams, PanelDtype, TopKBatch, TopKEngine};

use crate::report::fresh_allocs_per;

/// One sweep point: `(arm, width, offered load, policy, cache)` plus
/// the merged steady-state telemetry of its run.
pub struct LoadMeasurement {
    pub arm: &'static str,
    pub m: usize,
    pub k: usize,
    pub threads: usize,
    pub policy: String,
    pub admission: &'static str,
    pub cache: &'static str,
    pub cache_capacity: usize,
    pub offered_qps: f64,
    pub completed: u64,
    pub measured: u64,
    pub qps: f64,
    pub shed_rate: f64,
    pub mean_batch: f64,
    pub hit_rate: f64,
    pub stale_evictions: u64,
    pub p50_wait_ms: f64,
    pub p99_wait_ms: f64,
    pub p50_service_ms: f64,
    pub p99_service_ms: f64,
    pub p50_total_ms: f64,
    pub p99_total_ms: f64,
    pub allocs_per_batch: f64,
}

/// Generator-pool users, top-K, panel width shared by every row.
const N_USERS: usize = 2048;
const DIM: usize = 32;
const K: usize = 10;

/// Steady-state alloc probe for one `(arm, cache mode)`: warm-up
/// dispatch through the same code path the workers run (uncached
/// dispatch, or probe → miss sub-batch → scatter + insert), then the
/// pool's fresh-alloc delta per batch over six batches (width 1 —
/// the probe is width-independent by the determinism contract). The
/// probed batches alternate warm and cold users so cached modes
/// exercise the hit, miss, and mixed paths.
fn alloc_probe(engine: &TopKEngine, arm: &EngineArm<'_>, cache: CacheMode) -> f64 {
    let warm: Vec<usize> = (0..64).map(|j| (j * 131) % N_USERS).collect();
    let cold: Vec<usize> = (0..64).map(|j| (j * 67 + 1) % N_USERS).collect();
    let mut local = match cache {
        CacheMode::PerWorker { capacity } => Some(ClockCache::new(capacity, K)),
        CacheMode::Off | CacheMode::Shared { .. } => None,
    };
    let shared = match cache {
        CacheMode::Shared { capacity, shards } => Some(SharedCache::new(capacity, K, shards)),
        CacheMode::Off | CacheMode::PerWorker { .. } => None,
    };
    dt_parallel::with_thread_limit(1, || {
        let mut scratch = ArmScratch::default();
        let mut cs = CacheScratch::default();
        let mut out = TopKBatch::new();
        let mut one = |users: &[usize], scratch: &mut ArmScratch, cs: &mut CacheScratch| match (
            &mut local, &shared,
        ) {
            (Some(cache), _) => {
                dispatch_cached(cache, arm, engine, users, K, None, scratch, cs, &mut out);
            }
            (None, Some(store)) => {
                let mut view = store;
                dispatch_cached(
                    &mut view, arm, engine, users, K, None, scratch, cs, &mut out,
                );
            }
            (None, None) => arm.dispatch(engine, users, K, None, scratch, &mut out),
        };
        // Warm-up must cover the full alternating warm/cold cycle: the
        // miss sub-batch shrinks as the store fills, and the pool keys
        // its free lists by buffer size, so every steady-state
        // sub-batch size has to be seen once before measuring.
        for i in 0..4 {
            one(
                if i % 2 == 0 { &warm } else { &cold },
                &mut scratch,
                &mut cs,
            );
        }
        fresh_allocs_per(6, |i| {
            one(
                if i % 2 == 0 { &warm } else { &cold },
                &mut scratch,
                &mut cs,
            );
        })
    })
}

/// The sweep (module docs): every arm × width × offered load × policy,
/// one [`run_load`] experiment per row. The full artefact uses
/// `m = 10⁵`, `widths = SWEEP_WIDTHS`, two offered loads and two
/// policies; the smoke entry point trims everything so CI finishes in
/// seconds.
#[must_use]
pub fn run_measurements(
    m: usize,
    widths: &[usize],
    offered: &[f64],
    policies: &[BatchPolicy],
    caches: &[CacheMode],
    warmup: Duration,
    duration: Duration,
) -> Vec<LoadMeasurement> {
    let index = crate::report::build_index(N_USERS, m, DIM, 0x10AD ^ m as u64);
    let nlist = (m / 400).clamp(16, 256);
    let ivf = IvfIndex::build(
        &index,
        &IvfParams {
            nlist,
            iters: 5,
            seed: 0x10AD ^ nlist as u64,
            train_cap: 1 << 16,
        },
    );
    let scan = index.quantize(PanelDtype::F64);
    let engine = TopKEngine::new();
    let arms = [
        EngineArm::Ivf {
            index: &index,
            ivf: &ivf,
            nprobe: 8,
        },
        EngineArm::Quant { index: &scan },
    ];

    let mut out = Vec::new();
    for arm in &arms {
        for &cache in caches {
            let allocs_per_batch = alloc_probe(&engine, arm, cache);
            for &w in widths {
                for &offered_qps in offered {
                    for policy in policies {
                        let cfg = LoadConfig {
                            n_generators: 2,
                            n_workers: 2,
                            queue_capacity: 256,
                            admission: AdmissionPolicy::Shed,
                            policy: *policy,
                            zipf_exponent: 1.1,
                            offered_qps,
                            warmup,
                            duration,
                            k: K,
                            intra_width: w,
                            seed: 0x5EED ^ m as u64,
                            cache,
                        };
                        let report = run_load(&cfg, &engine, arm, None);
                        out.push(LoadMeasurement {
                            arm: arm.label(),
                            m,
                            k: K,
                            threads: w,
                            policy: policy.label(),
                            admission: cfg.admission.label(),
                            cache: cache.label(),
                            cache_capacity: cache.capacity(),
                            offered_qps,
                            completed: report.completed,
                            measured: report.measured,
                            qps: report.qps(),
                            shed_rate: report.shed_rate(),
                            mean_batch: report.mean_batch(),
                            hit_rate: report.hit_rate(),
                            stale_evictions: report.cache.stale_evictions,
                            p50_wait_ms: report.queue_wait.quantile_ms(0.5),
                            p99_wait_ms: report.queue_wait.quantile_ms(0.99),
                            p50_service_ms: report.service.quantile_ms(0.5),
                            p99_service_ms: report.service.quantile_ms(0.99),
                            p50_total_ms: report.total.quantile_ms(0.5),
                            p99_total_ms: report.total.quantile_ms(0.99),
                            allocs_per_batch,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Renders the report as JSON (schema `dt-bench/load/v2`).
#[must_use]
pub fn render_report(results: &[LoadMeasurement]) -> String {
    let host = crate::report::host_threads();
    let header = crate::report::bench_header(
        "dt-bench/load/v2",
        "serving under replayed heavy traffic: the dt-load harness drives \
         each engine arm (ivf: IVF nprobe-8; quant-f64: the exact fused \
         scan) with Zipf(1.1) users offered as a \
         Poisson process by 2 generator threads into a 256-deep bounded \
         admission queue under the shed policy, dispatched by 2 worker \
         threads per the row's max-batch/max-delay policy (label bXdYus). \
         threads is the intra-query width forced per dispatch via \
         dt_parallel::with_thread_limit; host_threads records the \
         hardware actually available, so latencies on an oversubscribed \
         host are self-describing. qps counts queries enqueued inside \
         the measurement window (after warm-up) and served; shed_rate is \
         shed / offered over the whole run; mean_batch is queries per \
         dispatched batch inside the window. Wait / service / total \
         quantiles come from the log-scale dt_metrics latency histogram \
         (8 sub-buckets per octave: reported bounds are within 12.5% of \
         the true sample quantile). allocs_per_batch is the post-warm-up \
         dt_tensor::pool::stats fresh-alloc delta per dispatched batch — \
         the steady-state serving loop allocates nothing on every arm, \
         cached or not. cache is the dt-cache result cache in front of \
         dispatch (off, per-worker CLOCK store, or shared sharded store; \
         cache_capacity is stripes per worker resp. total); cached rows \
         report the whole-run hit_rate (cold warm-up misses included) \
         and stale_evictions (epoch-lagging entries lazily evicted on \
         probe — zero here, no epoch bump happens mid-run). Cache hits \
         replay stored stripes verbatim, bitwise identical to fresh \
         dispatch, and their service latency is the probe phase alone. \
         The offered traffic is deterministic (seeded per-thread \
         SplitMix64 streams); the latencies are whatever the host \
         delivers.",
        None,
    );
    crate::report::with_results(header, results, |r| {
        format!(
            "\"arm\": \"{}\", \"m\": {}, \"k\": {}, \"threads\": {}, \
             \"host_threads\": {host}, \"policy\": \"{}\", \
             \"admission\": \"{}\", \"cache\": \"{}\", \
             \"cache_capacity\": {}, \"offered_qps\": {:.0}, \
             \"completed\": {}, \"measured\": {}, \"qps\": {:.1}, \
             \"shed_rate\": {:.4}, \"mean_batch\": {:.2}, \
             \"hit_rate\": {:.4}, \"stale_evictions\": {}, \
             \"p50_wait_ms\": {:.3}, \"p99_wait_ms\": {:.3}, \
             \"p50_service_ms\": {:.3}, \"p99_service_ms\": {:.3}, \
             \"p50_total_ms\": {:.3}, \"p99_total_ms\": {:.3}, \
             \"allocs_per_batch\": {:.1}",
            r.arm,
            r.m,
            r.k,
            r.threads,
            r.policy,
            r.admission,
            r.cache,
            r.cache_capacity,
            r.offered_qps,
            r.completed,
            r.measured,
            r.qps,
            r.shed_rate,
            r.mean_batch,
            r.hit_rate,
            r.stale_evictions,
            r.p50_wait_ms,
            r.p99_wait_ms,
            r.p50_service_ms,
            r.p99_service_ms,
            r.p50_total_ms,
            r.p99_total_ms,
            r.allocs_per_batch,
        )
    })
}

/// Runs the sweep and writes the report to `path`. The artefact runs
/// `M = 10⁵`, widths `SWEEP_WIDTHS`, an underload and an overload point,
/// both policies and all three cache modes; every row is a timed
/// experiment, so it takes several minutes by construction. `smoke`
/// trims it to a tiny catalog at the ambient width with short windows:
/// every arm, both policies and both load points end to end
/// (generators, queue, batcher, workers, histograms) in a few seconds.
///
/// # Errors
/// Propagates the underlying file-write error.
pub fn write(path: &Path, smoke: bool) -> std::io::Result<()> {
    let results = if smoke {
        run_measurements(
            4_000,
            &[dt_parallel::num_threads()],
            &[300.0, 3_000.0],
            &[
                BatchPolicy::single(),
                BatchPolicy {
                    max_batch: 16,
                    max_delay: Duration::from_millis(1),
                },
            ],
            &[
                CacheMode::Off,
                CacheMode::Shared {
                    capacity: 256,
                    shards: 4,
                },
            ],
            Duration::from_millis(40),
            Duration::from_millis(160),
        )
    } else {
        run_measurements(
            100_000,
            &crate::report::SWEEP_WIDTHS,
            &[400.0, 4_000.0],
            // Latency-optimal single-query dispatch vs coalescing
            // max-batch-64 / max-delay-2 ms.
            &[
                BatchPolicy::single(),
                BatchPolicy {
                    max_batch: 64,
                    max_delay: Duration::from_millis(2),
                },
            ],
            // The uncached baseline, a 1024-stripe per-worker CLOCK store,
            // and a 1024-stripe shared store over 8 mutex shards. 1024
            // stripes cover half the 2048-user pool, far more than the
            // Zipf(1.1) head needs, so steady-state hit rates are
            // popularity-limited, not capacity-limited.
            &[
                CacheMode::Off,
                CacheMode::PerWorker { capacity: 1024 },
                CacheMode::Shared {
                    capacity: 1024,
                    shards: 8,
                },
            ],
            // The warm-up must be long enough for the caches to fill at
            // the *served* rate (an overloaded uncached arm completes only
            // a few hundred queries/s), or cached rows measure the ramp,
            // not the steady state.
            Duration::from_millis(750),
            Duration::from_millis(2_000),
        )
    };
    crate::report::write_report(path, &render_report(&results), &results, |r| {
        format!(
            "load {:9} t={} {:9} cache {:10} offered {:6.0}/s  qps {:7.1}  \
             shed {:.3}  batch {:5.2}  hit {:.3}  p50/p99 total \
             {:7.3}/{:8.3} ms  allocs/batch {:.1}",
            r.arm,
            r.threads,
            r.policy,
            r.cache,
            r.offered_qps,
            r.qps,
            r.shed_rate,
            r.mean_batch,
            r.hit_rate,
            r.p50_total_ms,
            r.p99_total_ms,
            r.allocs_per_batch,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_reports_sane_rows_and_zero_allocs() {
        let _pool = crate::stats_lock();
        let rows = run_measurements(
            2_000,
            &[1],
            &[1_000.0],
            &[BatchPolicy {
                max_batch: 8,
                max_delay: Duration::from_millis(1),
            }],
            &[
                CacheMode::Off,
                CacheMode::Shared {
                    capacity: 256,
                    shards: 2,
                },
            ],
            Duration::from_millis(30),
            Duration::from_millis(120),
        );
        assert_eq!(rows.len(), 4); // arm x cache
        for r in &rows {
            assert!(r.completed > 0, "{}/{}: no traffic served", r.arm, r.cache);
            assert!(r.qps >= 0.0);
            assert!(r.shed_rate >= 0.0 && r.shed_rate <= 1.0);
            assert!(
                r.allocs_per_batch == 0.0,
                "{}/{}: steady-state dispatch allocated ({} per batch)",
                r.arm,
                r.cache,
                r.allocs_per_batch
            );
            assert!(r.p99_total_ms >= r.p50_total_ms);
            match r.cache {
                "off" => {
                    assert_eq!(r.cache_capacity, 0);
                    assert_eq!(r.hit_rate, 0.0, "{}: uncached row probed", r.arm);
                }
                _ => {
                    assert_eq!(r.cache_capacity, 256);
                    assert!(
                        r.hit_rate > 0.0,
                        "{}: cached row never hit under Zipf head traffic",
                        r.arm
                    );
                    assert_eq!(r.stale_evictions, 0, "no epoch bump happens mid-run");
                }
            }
        }
        let labels: Vec<&str> = rows.iter().map(|r| r.arm).collect();
        assert_eq!(labels, vec!["ivf", "ivf", "quant-f64", "quant-f64"]);
    }

    #[test]
    fn report_shape_is_valid() {
        let m = LoadMeasurement {
            arm: "quant-f64",
            m: 100_000,
            k: 10,
            threads: 8,
            policy: "b64d2000us".to_owned(),
            admission: "shed",
            cache: "shared",
            cache_capacity: 1024,
            offered_qps: 4_000.0,
            completed: 12_345,
            measured: 10_000,
            qps: 2_500.5,
            shed_rate: 0.375,
            mean_batch: 12.25,
            hit_rate: 0.8125,
            stale_evictions: 0,
            p50_wait_ms: 0.5,
            p99_wait_ms: 4.25,
            p50_service_ms: 1.5,
            p99_service_ms: 3.0,
            p50_total_ms: 2.0,
            p99_total_ms: 7.5,
            allocs_per_batch: 0.0,
        };
        let json = render_report(&[m]);
        assert!(json.contains("\"schema\": \"dt-bench/load/v2\""));
        assert!(json.contains("\"arm\": \"quant-f64\""));
        assert!(json.contains("\"policy\": \"b64d2000us\""));
        assert!(json.contains("\"admission\": \"shed\""));
        assert!(json.contains("\"cache\": \"shared\""));
        assert!(json.contains("\"cache_capacity\": 1024"));
        assert!(json.contains("\"offered_qps\": 4000"));
        assert!(json.contains("\"qps\": 2500.5"));
        assert!(json.contains("\"shed_rate\": 0.3750"));
        assert!(json.contains("\"mean_batch\": 12.25"));
        assert!(json.contains("\"hit_rate\": 0.8125"));
        assert!(json.contains("\"stale_evictions\": 0"));
        assert!(json.contains("\"allocs_per_batch\": 0.0"));
        assert!(json.contains("\"git_rev\": \""));
        assert!(json.trim_end().ends_with('}'));
    }
}
