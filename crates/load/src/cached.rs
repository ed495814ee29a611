//! Cached dispatch: the probe-before-dispatch / insert-after-dispatch
//! wrapper around [`EngineArm::dispatch`] (DESIGN.md section 17).
//!
//! The worker loop probes the result cache once per query; hits are
//! copied straight into the output batch and only the *misses* travel
//! through the engine as a sub-batch, whose stripes are then scattered
//! back and inserted for the next arrival. Because stripes are stored
//! and replayed verbatim — never recomputed, rescaled, or re-sorted —
//! a cached batch is **bitwise identical** to an uncached dispatch of
//! the same users (`cache_oracle.rs` pins this per arm and width).

use std::time::Instant;

use dt_cache::{CacheKey, ClockCache, Fingerprint, ResultCache, SharedCache};
use dt_serve::{SeenLists, TopKBatch, TopKEngine};

use crate::arm::{ArmScratch, EngineArm};

/// Which result cache (if any) the worker loop wraps around dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// No cache: every query dispatches (the PR 9 baseline).
    Off,
    /// One private [`ClockCache`] per worker thread — zero locks, but a
    /// hot user must warm every worker separately.
    PerWorker {
        /// Stripe capacity of each worker's store.
        capacity: usize,
    },
    /// One [`SharedCache`] across all workers — `shards` mutex-guarded
    /// CLOCK shards, so a hot user warms once for everyone.
    Shared {
        /// Total stripe capacity across shards.
        capacity: usize,
        /// Independent shard locks.
        shards: usize,
    },
}

impl CacheMode {
    /// Stable kind label for bench artefacts: `off`, `per-worker`,
    /// `shared`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            CacheMode::Off => "off",
            CacheMode::PerWorker { .. } => "per-worker",
            CacheMode::Shared { .. } => "shared",
        }
    }

    /// Configured stripe capacity (0 when off; per worker for
    /// `PerWorker`, total for `Shared`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        match *self {
            CacheMode::Off => 0,
            CacheMode::PerWorker { capacity } | CacheMode::Shared { capacity, .. } => capacity,
        }
    }
}

impl EngineArm<'_> {
    /// The retrieval-configuration fingerprint for cache keys: folds the
    /// arm label (kind and serving dtype), K, and the IVF geometry, so
    /// two arms sharing one store can never alias each other's results —
    /// not even bit-identical ones such as the f64 scan and full-probe
    /// IVF: a reconfigured deployment must not inherit stripes it did
    /// not produce.
    #[must_use]
    pub fn fingerprint(&self, k: usize) -> u64 {
        let base = Fingerprint::new(self.label()).with("k", k as u64);
        match *self {
            EngineArm::Ivf { ivf, nprobe, .. } => base
                .with("nlist", ivf.nlist() as u64)
                .with("nprobe", nprobe as u64),
            EngineArm::Quant { .. } => base,
        }
        .finish()
    }
}

/// Reusable per-worker scratch for [`dispatch_cached`]: the miss
/// sub-batch buffers reach steady-state capacity on the first full-miss
/// batch, after which cached dispatch allocates nothing
/// (`load_allocs.rs` pins this).
#[derive(Debug, Clone, Default)]
pub struct CacheScratch {
    /// Users whose probe missed, in batch order.
    miss_users: Vec<usize>,
    /// Their positions in the original batch (ascending).
    miss_pos: Vec<usize>,
    /// Dispatch target for the miss sub-batch.
    sub_out: TopKBatch,
}

impl CacheScratch {
    /// Positions (ascending, in the last dispatched batch) whose probe
    /// missed and therefore paid a real dispatch.
    #[must_use]
    pub fn miss_positions(&self) -> &[usize] {
        &self.miss_pos
    }
}

/// Dispatches `users` through `arm` with a result cache in front:
/// probes every query, dispatches only the misses as a sub-batch,
/// scatters their stripes back into `out`, and inserts them for the
/// next arrival. Returns the probe-phase end time — cache hits are
/// complete at that instant, misses at return.
///
/// `out` ends bitwise identical to `arm.dispatch` of the same batch.
/// Every arm's stripes are keyed on `engine.epoch()`, so one
/// [`TopKEngine::bump_epoch`] after a model refresh invalidates them
/// all, whichever index the arm borrows.
///
/// # Panics
/// Panics when the cache was built with a stripe width smaller than
/// `k`, plus everything [`EngineArm::dispatch`] panics on.
#[allow(clippy::too_many_arguments)]
pub fn dispatch_cached<C: ResultCache>(
    cache: &mut C,
    arm: &EngineArm<'_>,
    engine: &TopKEngine,
    users: &[usize],
    k: usize,
    seen: Option<&SeenLists>,
    scratch: &mut ArmScratch,
    cs: &mut CacheScratch,
    out: &mut TopKBatch,
) -> Instant {
    let fingerprint = arm.fingerprint(k);
    let epoch = engine.epoch();
    out.reset(users.len(), k);
    cs.miss_users.clear();
    cs.miss_pos.clear();
    for (i, &user) in users.iter().enumerate() {
        let key = CacheKey {
            user: user as u64,
            epoch,
            arm_fingerprint: fingerprint,
        };
        if let Some(n) = cache.probe(&key, out.user_mut(i)) {
            out.set_count(i, n);
        } else {
            cs.miss_users.push(user);
            cs.miss_pos.push(i);
        }
    }
    let t_probe = Instant::now();
    if !cs.miss_users.is_empty() {
        arm.dispatch(engine, &cs.miss_users, k, seen, scratch, &mut cs.sub_out);
        for (j, &pos) in cs.miss_pos.iter().enumerate() {
            let stripe = cs.sub_out.user(j);
            let n = stripe.len();
            out.user_mut(pos)[..n].copy_from_slice(stripe);
            out.set_count(pos, n);
            let key = CacheKey {
                user: cs.miss_users[j] as u64,
                epoch,
                arm_fingerprint: fingerprint,
            };
            cache.insert(&key, stripe);
        }
    }
    t_probe
}

/// The per-worker view of the configured [`CacheMode`]: `Local` owns a
/// private store, `Shared` borrows the experiment-wide one.
#[derive(Debug)]
pub enum WorkerCache<'a> {
    /// Uncached dispatch.
    Off,
    /// This worker's private CLOCK store.
    Local(ClockCache),
    /// The store shared by every worker.
    Shared(&'a SharedCache),
}

impl WorkerCache<'_> {
    /// Builds one worker's cache view for `mode`; `shared` must be
    /// `Some` exactly when the mode is [`CacheMode::Shared`].
    #[must_use]
    pub fn for_mode<'a>(
        mode: CacheMode,
        k: usize,
        shared: Option<&'a SharedCache>,
    ) -> WorkerCache<'a> {
        match mode {
            CacheMode::Off => WorkerCache::Off,
            CacheMode::PerWorker { capacity } => WorkerCache::Local(ClockCache::new(capacity, k)),
            CacheMode::Shared { .. } => WorkerCache::Shared(
                // lint: allow(r3): documented constructor contract — run_load builds the store iff the mode is Shared
                shared.expect("WorkerCache: CacheMode::Shared needs the shared store"),
            ),
        }
    }

    /// Dispatches one batch through this view. Returns the probe-phase
    /// end time when a cache ran, `None` for uncached dispatch.
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch(
        &mut self,
        arm: &EngineArm<'_>,
        engine: &TopKEngine,
        users: &[usize],
        k: usize,
        seen: Option<&SeenLists>,
        scratch: &mut ArmScratch,
        cs: &mut CacheScratch,
        out: &mut TopKBatch,
    ) -> Option<Instant> {
        match self {
            WorkerCache::Off => {
                arm.dispatch(engine, users, k, seen, scratch, out);
                None
            }
            WorkerCache::Local(cache) => Some(dispatch_cached(
                cache, arm, engine, users, k, seen, scratch, cs, out,
            )),
            WorkerCache::Shared(store) => {
                let mut view: &SharedCache = store;
                Some(dispatch_cached(
                    &mut view, arm, engine, users, k, seen, scratch, cs, out,
                ))
            }
        }
    }

    /// Lifetime counters of this worker's *private* store — zero for
    /// `Off` and `Shared` (the shared store is read once, globally, by
    /// the harness to avoid counting it once per worker).
    #[must_use]
    pub fn local_counters(&self) -> dt_metrics::CacheCounters {
        match self {
            WorkerCache::Local(cache) => cache.counters(),
            WorkerCache::Off | WorkerCache::Shared(_) => dt_metrics::CacheCounters::default(),
        }
    }
}
