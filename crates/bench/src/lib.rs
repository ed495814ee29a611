//! # dt-bench
//!
//! The offline benchmark reports behind the committed `BENCH_*.json`
//! artefacts, one module per report, all run through one bin:
//!
//! ```text
//! cargo run -p dt-bench --release -- <kernels|train_step|ann|quant|load> [--smoke] [path]
//! ```
//!
//! * [`kernels`] — naive vs blocked vs parallel GEMM at the paper's
//!   tall-skinny shapes (`BENCH_kernels.json`).
//! * [`train_step`] — one DT-IPS training step on the trainers' losses,
//!   without and with the full-table DT penalties
//!   (`BENCH_train_step.json`).
//! * [`ann`] — the IVF recall/latency frontier against the block-GEMM
//!   reference and the fused f64 scan (`BENCH_ann.json`).
//! * [`quant`] — mixed-precision scoring panels, the
//!   accuracy-vs-bandwidth frontier (`BENCH_quant.json`).
//! * [`load`] — the serving stack under replayed heavy traffic through
//!   the `dt-load` harness (`BENCH_load.json`).
//!
//! Without a path a report goes to `BENCH_<report>.json` at the repo
//! root; `--smoke` runs a tiny sweep and writes under the system temp
//! dir instead. Every module times, probes, generates and writes through
//! the one harness in [`report`]. The paper's own timing experiments
//! (Table VI, Figure 5) are `repro table6` / `repro figure5` in
//! `dt-experiments`.

#![forbid(unsafe_code)]

pub mod ann;
pub mod kernels;
pub mod load;
pub mod quant;
pub mod report;
pub mod train_step;

/// Serializes every test of this crate that touches the `dt-tensor`
/// buffer pool. `pool::stats` counters are process-global, so a test that
/// probes them must not overlap one that allocates from the pool.
#[cfg(test)]
static STATS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Takes [`STATS_LOCK`] for the rest of the calling test; a sibling
/// test's failure (which poisons the lock) does not fail this one.
#[cfg(test)]
fn stats_lock() -> std::sync::MutexGuard<'static, ()> {
    STATS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
