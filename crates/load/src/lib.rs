//! # dt-load
//!
//! In-process load-replay harness for the serving stack — the layer
//! that turns "fast per batch" (`BENCH_ann`/`quant`) into
//! "fast under load" (`BENCH_load.json`): steady-state queries/sec,
//! p50/p99 latency, shed rate and batch-size behaviour of the
//! `dt-serve` engines under sustained concurrent traffic (DESIGN.md
//! section 16; ROADMAP north star — heavy traffic from millions of
//! users against the paper's DT-propensity models).
//!
//! The pipeline, all std threading:
//!
//! 1. [`Zipf`] traffic — generator threads draw users from a Zipf
//!    popularity law and offer them as a Poisson process, deterministic
//!    per-thread streams ([`zipf`]).
//! 2. [`BoundedQueue`] — bounded MPMC admission with exact accounting;
//!    overload becomes backpressure ([`AdmissionPolicy::Block`]) or a
//!    shed rate ([`AdmissionPolicy::Shed`]) ([`queue`]).
//! 3. [`Batcher`] — max-batch/max-delay coalescing into
//!    `TopKBatch`-shaped batches ([`batcher`]).
//! 4. [`EngineArm`] workers — per-worker reusable scratch dispatching
//!    through the IVF engine or the fused scan at a serving dtype (the
//!    exact arm at `f64`), zero steady-state allocations ([`arm`]).
//! 5. Optional result cache ([`cached`]) — a `dt-cache` store keyed on
//!    the engine's epoch and probed before dispatch ([`CacheMode`]);
//!    only misses travel through the engine, and cached stripes are
//!    bitwise identical to fresh dispatch.
//!
//! [`run_load`] composes these into one experiment and merges
//! per-worker [`dt_metrics::LatencyHistogram`]s into a [`LoadReport`].

#![forbid(unsafe_code)]

pub mod arm;
pub mod batcher;
pub mod cached;
pub mod harness;
pub mod queue;
pub mod zipf;

pub use arm::{ArmScratch, EngineArm};
pub use batcher::{BatchPolicy, Batcher, Query};
pub use cached::{dispatch_cached, CacheMode, CacheScratch, WorkerCache};
pub use harness::{run_load, AdmissionPolicy, LoadConfig, LoadReport};
pub use queue::{BoundedQueue, QueueStats};
pub use zipf::{exp_gap_nanos, Zipf};
