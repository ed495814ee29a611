//! Step-scoped tensor buffer pool: a free-list arena keyed by size class.
//!
//! Every training step rebuilds the autograd tape, which — before this
//! module — allocated a fresh `Vec<f64>` for every forward node and every
//! backward delta. For the paper's table shapes the hot buffers are large
//! (a 512×64 batch of `f64` is 256 KiB), which on glibc means an
//! `mmap`/`munmap` pair *per allocation*: the page-fault churn dominates
//! the step once gradients are row-sparse (PR 3). The pool turns that
//! into a pointer swap.
//!
//! ## Design
//!
//! * **Free lists are thread-local** (`RefCell<HashMap<class, Vec<Vec<f64>>>>`),
//!   so `take`/`recycle` are lock-free and the pool needs no `Sync` story.
//! * **Keyed by size class.** A request for `len` elements is served from
//!   the list of `len` rounded up to one of eight steps per power of two:
//!   for `2^e ≤ len < 2^(e+1)` the class is the next multiple of
//!   `2^(e−3)`, so a buffer carries at most `len / 8` elements of slack,
//!   and lengths up to 16 are their own class. Most tape shapes repeat
//!   exactly from step to step, but a row-sparse gradient holds one row
//!   per *distinct* index its gather drew, a count that changes every
//!   step; keyed by exact length, every new count parked one more buffer
//!   for good. [`take`] and [`take_zeroed`] still return exactly `len`
//!   elements, and every buffer the pool mints has its class's capacity.
//! * **Filed by capacity.** [`recycle`] files a buffer under the largest
//!   class its *capacity* can serve, so a `Vec` built outside the pool
//!   (any length, any capacity) is filed safely and a hit never has to
//!   grow its allocation.
//! * **Thread-confined with a pool-aware handoff**: `dt-parallel` workers
//!   never allocate tensor buffers — every parallel kernel allocates its
//!   output on the calling thread and hands workers disjoint `&mut` chunks
//!   (see `elementwise.rs` / `gemm.rs`). A buffer recycled on the thread
//!   that took it always lands back on the free list it came from.
//! * **Step-scoped lifetime**: buffers are recycled when the tape drops
//!   (`dt-autograd`'s `Graph::drop` returns every uniquely-owned node
//!   buffer), so the pool's working set is exactly one step's tape.
//! * **Bounded**: at most [`MAX_PER_CLASS`] free buffers per size class;
//!   extra recycles fall through to the global allocator. [`parked`]
//!   reports what the calling thread holds. After perfbench's
//!   `dtips_train` (1600 DT-IPS steps, seeds 11 and 12) exact-length
//!   lists held 686–702 buffers in 372–384 lengths, 46–47 MiB of a
//!   95 MiB peak; the size classes hold 141 buffers in 22 classes,
//!   7.6 MiB.
//!
//! Pooled buffers hand back their *stale previous contents*. That is safe
//! (only `f64`s) but means callers must either overwrite every element
//! ([`crate::Tensor::pooled_scratch`]) or ask for an explicit wipe
//! ([`crate::Tensor::pooled_zeros`]).
//!
//! The pool is on by default and can be disabled for A/B tests,
//! in-process and per-thread, with [`with_disabled`]. Results are bit-identical either way — the pool
//! changes *where bytes live*, never *what is computed* — which is pinned
//! by the pooled-vs-fresh proptests in `dt-autograd`.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum free buffers retained per size class; extras are released to
/// the global allocator. Training tapes need well under this many live
/// buffers of any single shape.
pub const MAX_PER_CLASS: usize = 32;

/// Size classes per power of two, as a power of two: `2³ = 8`, so a
/// class is at most 12.5% above the length it serves.
const CLASS_BITS: u32 = 3;

// -- statistics (global atomics so they aggregate across threads) -----------

static FRESH_ALLOCS: AtomicU64 = AtomicU64::new(0);
static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static RECYCLES: AtomicU64 = AtomicU64::new(0);
static DISCARDS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the pool's allocation counters (monotonic since process
/// start or the last [`reset_stats`]). Std-only; used by `dt-bench` to
/// report `allocs_per_step`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Stats {
    /// Buffers obtained from the global allocator (pool misses + pool-off
    /// allocations routed through the pooled constructors).
    pub fresh_allocs: u64,
    /// Buffers served from a free list.
    pub pool_hits: u64,
    /// Buffers handed back to a free list.
    pub recycles: u64,
    /// Recycles dropped because the size class was full or the pool is off.
    pub discards: u64,
}

/// Reads the global counters.
#[must_use]
pub fn stats() -> Stats {
    Stats {
        fresh_allocs: FRESH_ALLOCS.load(Ordering::Relaxed),
        pool_hits: POOL_HITS.load(Ordering::Relaxed),
        recycles: RECYCLES.load(Ordering::Relaxed),
        discards: DISCARDS.load(Ordering::Relaxed),
    }
}

/// Resets the global counters to zero (bench harness bookkeeping).
pub fn reset_stats() {
    FRESH_ALLOCS.store(0, Ordering::Relaxed);
    POOL_HITS.store(0, Ordering::Relaxed);
    RECYCLES.store(0, Ordering::Relaxed);
    DISCARDS.store(0, Ordering::Relaxed);
}

// -- enable / disable --------------------------------------------------------

thread_local! {
    static DISABLE_DEPTH: Cell<u32> = const { Cell::new(0) };
    static FREE: RefCell<HashMap<usize, Vec<Vec<f64>>>> = RefCell::new(HashMap::new());
}

/// Returns `true` when `take`/`recycle` on this thread use the free lists.
#[must_use]
pub fn enabled() -> bool {
    DISABLE_DEPTH.with(|d| d.get()) == 0
}

/// Runs `f` with the pool disabled on the current thread (nestable).
///
/// The A/B switch for the pooled-vs-fresh equivalence tests: inside the
/// closure every pooled constructor falls through to the global allocator
/// and every recycle is a plain drop.
pub fn with_disabled<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            DISABLE_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    DISABLE_DEPTH.with(|d| d.set(d.get() + 1));
    let _g = Guard;
    f()
}

// -- size classes ------------------------------------------------------------

/// The spacing of the classes in `len`'s power of two: `2^(e−3)` for
/// `2^e ≤ len < 2^(e+1)`, and 1 below 16.
fn class_step(len: usize) -> usize {
    let e = usize::BITS - 1 - len.max(1).leading_zeros();
    1 << e.saturating_sub(CLASS_BITS)
}

/// The class that serves a request for `len` elements: `len` rounded up
/// to its power of two's step. Exact up to 16, at most `len / 8` above
/// `len`, monotone, and a fixed point on class boundaries.
fn class_of(len: usize) -> usize {
    let step = class_step(len);
    (len + step - 1) & !(step - 1)
}

/// The largest class a buffer of `capacity` elements can serve (0 for an
/// empty allocation).
fn class_within(capacity: usize) -> usize {
    capacity & !(class_step(capacity) - 1)
}

// -- take / recycle ----------------------------------------------------------

/// A parked buffer of `len`'s class, if the pool is on and has one. Its
/// contents are stale and its length is whatever its last user left; its
/// capacity is at least the class, so resizing it to `len` never
/// reallocates.
fn pop(len: usize) -> Option<Vec<f64>> {
    if !enabled() {
        return None;
    }
    let hit = FREE.with(|f| {
        f.borrow_mut()
            .get_mut(&class_of(len))
            .and_then(std::vec::Vec::pop)
    });
    if hit.is_some() {
        POOL_HITS.fetch_add(1, Ordering::Relaxed);
    }
    hit
}

/// A fresh zeroed buffer of `len` elements with its class's capacity.
fn mint(len: usize) -> Vec<f64> {
    FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
    // alloc-ok: the pool's own refill — the one place fresh backing buffers are minted
    let mut buf = vec![0.0; class_of(len)];
    buf.truncate(len);
    buf
}

/// Takes a buffer of exactly `len` elements with **unspecified contents**
/// (stale data from a previous user on a hit, zeros on a miss).
#[must_use]
pub fn take(len: usize) -> Vec<f64> {
    match pop(len) {
        Some(mut buf) => {
            buf.resize(len, 0.0);
            buf
        }
        None => mint(len),
    }
}

/// Takes a buffer of exactly `len` elements, zero-filled. A miss is
/// already zeroed by the allocator; only hits pay for the wipe.
#[must_use]
pub fn take_zeroed(len: usize) -> Vec<f64> {
    match pop(len) {
        Some(mut buf) => {
            buf.clear();
            buf.resize(len, 0.0);
            buf
        }
        None => mint(len),
    }
}

/// Hands `buf` back to the current thread's free list, under the largest
/// class its capacity can serve. Buffers without an allocation are
/// dropped (nothing to reuse).
pub fn recycle(buf: Vec<f64>) {
    let class = class_within(buf.capacity());
    if class == 0 || !enabled() {
        DISCARDS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    FREE.with(|f| {
        let mut map = f.borrow_mut();
        let list = map.entry(class).or_default();
        if list.len() < MAX_PER_CLASS {
            list.push(buf);
            RECYCLES.fetch_add(1, Ordering::Relaxed);
        } else {
            DISCARDS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Releases every free buffer on the current thread back to the global
/// allocator.
pub fn clear() {
    FREE.with(|f| f.borrow_mut().clear());
}

/// What the current thread's free lists hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Parked {
    /// Size classes with at least one buffer parked.
    pub classes: usize,
    /// Buffers parked, over all classes.
    pub buffers: usize,
    /// Bytes those buffers hold: their capacities, not their lengths.
    pub bytes: usize,
}

/// The classes, buffers and bytes parked on the current thread.
#[must_use]
pub fn parked() -> Parked {
    FREE.with(|f| {
        let mut out = Parked::default();
        for list in f.borrow().values().filter(|l| !l.is_empty()) {
            out.classes += 1;
            out.buffers += list.len();
            out.bytes += list
                .iter()
                .map(|b| b.capacity() * std::mem::size_of::<f64>())
                .sum::<usize>();
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The free lists are thread-local but the stats are global, so tests
    // that assert on counter deltas must not race each other. Serialize
    // them on one mutex.
    use std::sync::Mutex;
    static STATS_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn take_recycle_roundtrip_reuses_buffer() {
        let _guard = STATS_LOCK.lock().unwrap();
        clear();
        let before = stats();
        let mut a = take(64);
        a[0] = 42.0;
        recycle(a);
        let b = take(64);
        assert_eq!(b.len(), 64);
        assert_eq!(b[0], 42.0, "hit hands back stale contents");
        let after = stats();
        assert_eq!(after.pool_hits - before.pool_hits, 1);
        assert_eq!(after.fresh_allocs - before.fresh_allocs, 1);
        assert_eq!(after.recycles - before.recycles, 1);
        recycle(b);
        clear();
    }

    #[test]
    fn take_zeroed_wipes_stale_contents() {
        let _guard = STATS_LOCK.lock().unwrap();
        clear();
        let mut a = take(8);
        a.fill(7.0);
        recycle(a);
        let b = take_zeroed(8);
        assert!(b.iter().all(|&v| v == 0.0));
        recycle(b);
        clear();
    }

    #[test]
    fn size_classes_do_not_cross() {
        let _guard = STATS_LOCK.lock().unwrap();
        clear();
        recycle(vec![1.0; 4]);
        let b = take(8);
        assert_eq!(b.len(), 8);
        assert!(b.iter().all(|&v| v == 0.0), "miss must be fresh zeros");
        clear();
    }

    #[test]
    fn class_cap_discards_extras() {
        let _guard = STATS_LOCK.lock().unwrap();
        clear();
        let before = stats();
        for _ in 0..MAX_PER_CLASS + 3 {
            recycle(vec![0.0; 16]);
        }
        let after = stats();
        assert_eq!(after.recycles - before.recycles, MAX_PER_CLASS as u64);
        assert_eq!(after.discards - before.discards, 3);
        assert_eq!(parked().buffers, MAX_PER_CLASS);
        clear();
    }

    #[test]
    fn with_disabled_bypasses_free_lists() {
        let _guard = STATS_LOCK.lock().unwrap();
        clear();
        let mut a = take(32);
        a.fill(9.0);
        recycle(a);
        with_disabled(|| {
            assert!(!enabled());
            let b = take(32);
            assert!(b.iter().all(|&v| v == 0.0), "disabled take is fresh");
            recycle(b); // discarded, not parked
                        // Nesting keeps it disabled until the outermost scope ends.
            with_disabled(|| assert!(!enabled()));
            assert!(!enabled());
        });
        assert!(enabled());
        let c = take(32);
        assert_eq!(c[0], 9.0, "pre-scope buffer still parked");
        recycle(c);
        clear();
    }

    #[test]
    fn classes_bound_the_slack_and_are_fixed_points() {
        let large = (20..40).flat_map(|e| [(1usize << e) - 1, 1 << e, (1 << e) + 12_345]);
        let mut prev = 0;
        for len in (0..70_000).chain(large) {
            let class = class_of(len);
            assert!(class >= len, "class {class} below {len}");
            if len <= 16 {
                assert_eq!(class, len, "lengths up to 16 are exact");
            } else {
                assert!(
                    class - len <= len / 8,
                    "class {class} of {len}: slack above len/8"
                );
            }
            assert!(class >= prev, "class_of is not monotone at {len}");
            prev = class;
            assert_eq!(
                class_of(class),
                class,
                "class {class} of {len} is not a fixed point"
            );
            assert_eq!(
                class_within(class),
                class,
                "a class's capacity files under itself"
            );
            let within = class_within(len);
            assert!(
                within <= len && class_of(within) == within,
                "capacity {len} files under {within}"
            );
        }
    }

    #[test]
    fn a_hit_returns_exactly_len_from_a_longer_or_shorter_buffer() {
        let _guard = STATS_LOCK.lock().unwrap();
        clear();
        // 4097..=4608 share one class.
        let mut a = take(4200);
        assert_eq!((a.len(), a.capacity()), (4200, 4608));
        a.fill(7.0);
        recycle(a);
        let before = stats();
        let longer = take(4500);
        assert_eq!(longer.len(), 4500, "parked buffer was shorter");
        assert!(
            longer[..4200].iter().all(|&v| v == 7.0),
            "stale prefix kept"
        );
        assert!(
            longer[4200..].iter().all(|&v| v == 0.0),
            "grown tail is zeros"
        );
        recycle(longer);
        let shorter = take(4100);
        assert_eq!(shorter.len(), 4100, "parked buffer was longer");
        recycle(shorter);
        let mut stale = take(4608);
        stale.fill(3.0);
        recycle(stale);
        let zeroed = take_zeroed(4400);
        assert_eq!(zeroed.len(), 4400);
        assert!(zeroed.iter().all(|&v| v == 0.0), "take_zeroed wipes a hit");
        recycle(zeroed);
        let after = stats();
        assert_eq!(after.pool_hits - before.pool_hits, 4);
        assert_eq!(after.fresh_allocs - before.fresh_allocs, 0);
        clear();
    }

    #[test]
    fn a_foreign_vec_serves_every_take_of_its_class() {
        let _guard = STATS_LOCK.lock().unwrap();
        clear();
        let mut foreign = Vec::with_capacity(5000);
        foreign.extend([1.0; 10]);
        let class = class_within(foreign.capacity());
        assert_eq!(
            class,
            4608,
            "capacity {} files under 4608",
            foreign.capacity()
        );
        recycle(foreign);
        let before = stats();
        for len in [4097, 4300, 4608] {
            let buf = take(len);
            assert_eq!(buf.len(), len);
            assert!(buf.capacity() >= 5000, "the foreign allocation itself");
            recycle(buf);
            let zeroed = take_zeroed(len);
            assert!(zeroed.len() == len && zeroed.iter().all(|&v| v == 0.0));
            recycle(zeroed);
        }
        assert_eq!(stats().pool_hits - before.pool_hits, 6);
        assert_eq!(stats().fresh_allocs - before.fresh_allocs, 0);
        let next = take(4609);
        assert_eq!(
            stats().fresh_allocs - before.fresh_allocs,
            1,
            "4609 is the next class"
        );
        recycle(next);
        clear();
    }

    #[test]
    fn varying_lengths_within_an_octave_park_at_most_eight_classes() {
        let _guard = STATS_LOCK.lock().unwrap();
        clear();
        // 200 distinct lengths in (4096, 8192], drawn two at a time.
        let lengths: Vec<usize> = (0..200).map(|i| 4097 + 20 * i).collect();
        let mut rng = crate::SplitMix64(26);
        for _ in 0..1000 {
            let a = take(lengths[rng.next_below(lengths.len())]);
            let b = take_zeroed(lengths[rng.next_below(lengths.len())]);
            recycle(a);
            recycle(b);
        }
        let p = parked();
        assert!(p.classes <= 8, "{p:?}");
        assert!(p.buffers <= 2 * p.classes, "{p:?}");
        assert!(p.bytes <= p.buffers * 8192 * 8, "{p:?}");
        clear();
    }

    #[test]
    fn zero_length_recycle_is_a_noop() {
        let _guard = STATS_LOCK.lock().unwrap();
        clear();
        recycle(Vec::new());
        assert_eq!(parked(), Parked::default());
        clear();
    }
}
