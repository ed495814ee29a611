//! The batched top-K engine: block scoring + parallel partial selection,
//! with an optional IVF sublinear retrieval arm.

use dt_tensor::topk::{select_top_k, Ranked};

use crate::index::{ScoringIndex, SeenLists};
use crate::ivf::IvfIndex;

/// Default score-matrix budget per block, in elements (`f64`s). At one
/// million items this caps a block at four users (32 MiB of scores);
/// small catalogs batch hundreds of users per GEMM.
pub const DEFAULT_BLOCK_ELEMS: usize = 1 << 22;

/// Maximum users per block regardless of catalog size (keeps the gather
/// panel and per-block latency bounded).
pub(crate) const MAX_BLOCK_USERS: usize = 512;

/// Reusable per-query scratch for the IVF arm. All five buffers grow to
/// their steady-state size on the first query and are only rewritten
/// afterwards, so repeated queries through one scratch allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct IvfScratch {
    /// Per-cell centroid scores of the current user.
    cell_scores: Vec<f64>,
    /// Selected probe cells (best first).
    cells: Vec<Ranked>,
    /// Gathered candidate item ids, ascending, seen items removed.
    cand: Vec<usize>,
    /// Rerank scores of `cand` (parallel array).
    scores: Vec<f64>,
    /// Selected candidate *positions* before the id remap.
    sel: Vec<Ranked>,
}

impl IvfScratch {
    /// Gathers the members of the user's best `nprobe` cells into `cand`
    /// (ascending item ids, `exclude` removed), widening the probe while
    /// fewer than `k` candidates survive — the shortfall loop.
    /// `cell_scores` must hold this user's cell scores.
    fn gather_candidates(&mut self, ivf: &IvfIndex, nprobe: usize, k: usize, exclude: &[u32]) {
        let nlist = ivf.nlist();
        let mut probe = nprobe.clamp(1, nlist);
        loop {
            self.cells.clear();
            self.cells.resize(probe, Ranked::TOMBSTONE);
            let n_cells = select_top_k(&self.cell_scores, &[], &mut self.cells);
            self.cand.clear();
            for cell in &self.cells[..n_cells] {
                self.cand
                    .extend(ivf.cell(cell.item as usize).iter().map(|&i| i as usize));
            }
            // Cells partition the catalog, so the concatenation is
            // duplicate-free; sorting restores ascending item ids
            // (the select_top_k tie-break order).
            self.cand.sort_unstable();
            if !exclude.is_empty() {
                let cand = &mut self.cand;
                let mut e = 0usize;
                let mut w = 0usize;
                for r in 0..cand.len() {
                    let id = cand[r] as u32;
                    while e < exclude.len() && exclude[e] < id {
                        e += 1;
                    }
                    if e < exclude.len() && exclude[e] == id {
                        continue;
                    }
                    cand[w] = cand[r];
                    w += 1;
                }
                cand.truncate(w);
            }
            if self.cand.len() >= k || probe == nlist {
                return;
            }
            probe = (probe * 2).min(nlist);
        }
    }
}

/// Batched full-catalog top-K retrieval over a [`ScoringIndex`].
///
/// Users are processed in blocks sized so the `B × M` score matrix fits
/// the configured element budget; each block runs one gather + blocked
/// GEMM on the `dt-parallel` pool, then per-user bounded-heap selection
/// sharded across the same pool (one chunk per user — chunk geometry
/// depends only on K, never on the thread count). All scratch is pooled
/// and recycled, so steady-state queries allocate nothing.
#[derive(Debug, Clone, Copy)]
pub struct TopKEngine {
    block_elems: usize,
    /// Index-generation counter for result caching (`dt-cache`): every
    /// cached stripe, whichever path computed it, is keyed by this
    /// value, so bumping it lazily invalidates every previously cached
    /// result without any flush pass.
    epoch: u64,
}

impl Default for TopKEngine {
    fn default() -> Self {
        Self {
            block_elems: DEFAULT_BLOCK_ELEMS,
            epoch: 0,
        }
    }
}

impl TopKEngine {
    /// An engine with the default block budget.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with a custom score-matrix budget (elements per block).
    /// Block geometry never affects results — only memory and latency.
    ///
    /// # Panics
    /// Panics when `block_elems` is zero.
    #[must_use]
    pub fn with_block_elems(block_elems: usize) -> Self {
        assert!(block_elems > 0, "TopKEngine: block_elems must be positive");
        Self {
            block_elems,
            epoch: 0,
        }
    }

    /// The current index epoch (see [`TopKEngine::bump_epoch`]).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the index epoch. Call after the served index changes
    /// (a model refresh, including a re-exported [`crate::QuantizedIndex`]):
    /// every result cached at an older epoch becomes stale and is lazily
    /// evicted by `dt-cache` on its next probe — no global flush runs
    /// anywhere.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The configured score-matrix element budget per block.
    pub(crate) fn block_elems(&self) -> usize {
        self.block_elems
    }

    /// Users per block for a catalog of `n_items`.
    #[must_use]
    pub fn block_users(&self, n_items: usize) -> usize {
        (self.block_elems / n_items.max(1)).clamp(1, MAX_BLOCK_USERS)
    }

    /// Recommends the top `k` unseen items for each user in `users`,
    /// writing into `out` (reused across calls: steady state performs
    /// zero allocations). `users` may repeat and is answered in order.
    ///
    /// This is the reference path: the fused scan at `PanelDtype::F64`
    /// and full-probe IVF are pinned bit-equal to it.
    ///
    /// # Panics
    /// Panics when a user id is out of bounds for the index, or `seen`
    /// covers a different user universe than the index.
    pub fn recommend_into(
        &self,
        index: &ScoringIndex,
        users: &[usize],
        k: usize,
        seen: Option<&SeenLists>,
        out: &mut TopKBatch,
    ) {
        if let Some(s) = seen {
            assert_eq!(
                s.n_users(),
                index.n_users(),
                "recommend: seen-lists cover {} users, index has {}",
                s.n_users(),
                index.n_users()
            );
        }
        out.reset(users.len(), k);
        if users.is_empty() || k == 0 {
            return;
        }
        let block = self.block_users(index.n_items());
        let mut lo = 0;
        while lo < users.len() {
            let hi = (lo + block).min(users.len());
            let block_users = &users[lo..hi];
            let scores = index.score_block(block_users);
            let entries = &mut out.entries[lo * k..hi * k];
            dt_parallel::for_each_chunk(entries, k, |j, slot| {
                let exclude = seen.map_or(&[][..], |s| s.seen(block_users[j]));
                select_top_k(scores.row(j), exclude, slot);
            });
            scores.recycle();
            lo = hi;
        }
        out.recount();
    }

    /// [`TopKEngine::recommend_into`] returning a fresh batch.
    #[must_use]
    pub fn recommend(
        &self,
        index: &ScoringIndex,
        users: &[usize],
        k: usize,
        seen: Option<&SeenLists>,
    ) -> TopKBatch {
        let mut out = TopKBatch::new();
        self.recommend_into(index, users, k, seen, &mut out);
        out
    }

    /// IVF retrieval: probe `nprobe` cells per user, rerank their members
    /// exactly, select the top `k`. Bit-identical at any thread count.
    ///
    /// Per user block one GEMM scores the block against the centroid
    /// panel (`pᵤ·c_dir + c_bias`; user bias and μ are constant per user
    /// so cell ranking ignores them). Per user, the best `nprobe` cells
    /// are chosen by the bounded-heap kernel, their member lists
    /// concatenated, sorted ascending and purged of seen items, and the
    /// survivors scored through the exact pair kernel — so candidate
    /// scores (and therefore the output whenever the probed cells cover
    /// the true top-K) are bit-equal to the exact engine's.
    ///
    /// **Shortfall fallback:** while fewer than `k` unseen candidates
    /// survive and not every cell is probed yet, the probe width doubles;
    /// at `nprobe = nlist` the candidate set is the full unseen catalog,
    /// i.e. the query degrades to exact rather than returning a short
    /// stripe.
    ///
    /// All scratch lives in `scratch` plus the tensor pool: steady-state
    /// queries allocate nothing.
    ///
    /// # Panics
    /// Panics when the IVF index does not match `index` (catalog size or
    /// panel width), a user id is out of bounds, or `seen` covers a
    /// different user universe than the index.
    #[allow(clippy::too_many_arguments)]
    pub fn recommend_ivf_into(
        &self,
        index: &ScoringIndex,
        ivf: &IvfIndex,
        nprobe: usize,
        users: &[usize],
        k: usize,
        seen: Option<&SeenLists>,
        scratch: &mut IvfScratch,
        out: &mut TopKBatch,
    ) {
        assert_eq!(
            ivf.n_items(),
            index.n_items(),
            "recommend_ivf: IVF built over {} items, index has {}",
            ivf.n_items(),
            index.n_items()
        );
        assert_eq!(
            ivf.dim(),
            index.dim(),
            "recommend_ivf: IVF built at dim {}, index has {}",
            ivf.dim(),
            index.dim()
        );
        if let Some(s) = seen {
            assert_eq!(
                s.n_users(),
                index.n_users(),
                "recommend_ivf: seen-lists cover {} users, index has {}",
                s.n_users(),
                index.n_users()
            );
        }
        out.reset(users.len(), k);
        if users.is_empty() || k == 0 {
            return;
        }
        let nlist = ivf.nlist();
        let dim = index.dim();
        // Centroid panels are small (≤ 1024 rows), so a block covers the
        // whole query in almost all cases.
        let block = (self.block_elems / nlist.max(1)).clamp(1, MAX_BLOCK_USERS);
        let mut lo = 0;
        while lo < users.len() {
            let hi = (lo + block).min(users.len());
            let block_users = &users[lo..hi];
            // Cell affinities: one GEMM, no bias (added per user below so
            // the tensor stays reusable as a pure dot-product block).
            let affinity = dt_tensor::scoring::score_user_block(
                index.user_panel(),
                ivf.centroids(),
                block_users,
                None,
            );
            for (j, &user) in block_users.iter().enumerate() {
                scratch.cell_scores.clear();
                scratch.cell_scores.extend(
                    affinity
                        .row(j)
                        .iter()
                        .zip(ivf.centroid_bias())
                        .map(|(a, b)| a + b),
                );
                let exclude = seen.map_or(&[][..], |s| s.seen(user));
                scratch.gather_candidates(ivf, nprobe, k, exclude);
                dt_tensor::scoring::score_user_items_into(
                    index.user_panel(),
                    index.item_panel(),
                    0..dim,
                    user,
                    &scratch.cand,
                    Some(index.biases()),
                    &mut scratch.scores,
                );
                scratch.sel.clear();
                scratch.sel.resize(k, Ranked::TOMBSTONE);
                let n = select_top_k(&scratch.scores, &[], &mut scratch.sel);
                let stripe = out.user_mut(lo + j);
                for (slot, r) in stripe.iter_mut().zip(&scratch.sel[..n]) {
                    *slot = Ranked {
                        item: scratch.cand[r.item as usize] as u32,
                        score: r.score,
                    };
                }
                out.set_count(lo + j, n);
            }
            affinity.recycle();
            lo = hi;
        }
    }
}

/// Top-K results for a batch of users, stored flat (one K-slot stripe per
/// user, best first). Reuse one batch across queries to stay
/// allocation-free.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TopKBatch {
    k: usize,
    counts: Vec<usize>,
    entries: Vec<Ranked>,
}

impl TopKBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears and resizes for `n_users` stripes of `k` slots, all
    /// tombstoned. Shrinking/regrowing reuses the existing buffers.
    pub fn reset(&mut self, n_users: usize, k: usize) {
        self.k = k;
        self.counts.clear();
        self.counts.resize(n_users, 0);
        self.entries.clear();
        self.entries.resize(n_users * k, Ranked::TOMBSTONE);
    }

    /// The cutoff K this batch was filled at.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of user stripes.
    #[must_use]
    pub fn n_users(&self) -> usize {
        self.counts.len()
    }

    /// The filled recommendations of the `j`-th queried user, best first.
    /// May hold fewer than K entries when exclusions or a small catalog
    /// leave fewer candidates.
    ///
    /// # Panics
    /// Panics when `j` is out of bounds.
    #[must_use]
    pub fn user(&self, j: usize) -> &[Ranked] {
        assert!(
            j < self.counts.len(),
            "TopKBatch: user {j} out of bounds for {} stripes",
            self.counts.len()
        );
        &self.entries[j * self.k..j * self.k + self.counts[j]]
    }

    /// Mutable view of user `j`'s full K-slot stripe, for callers that
    /// fill a batch through [`select_top_k`] themselves (the `predict`
    /// fallback path in `dt-core`). Record the filled count with
    /// [`TopKBatch::set_count`].
    ///
    /// # Panics
    /// Panics when `j` is out of bounds.
    pub fn user_mut(&mut self, j: usize) -> &mut [Ranked] {
        assert!(
            j < self.counts.len(),
            "TopKBatch: user {j} out of bounds for {} stripes",
            self.counts.len()
        );
        &mut self.entries[j * self.k..(j + 1) * self.k]
    }

    /// Records how many slots of user `j`'s stripe are filled.
    ///
    /// # Panics
    /// Panics when `j` is out of bounds or `n > k`.
    pub fn set_count(&mut self, j: usize, n: usize) {
        assert!(n <= self.k, "TopKBatch: count {n} exceeds k {}", self.k);
        self.counts[j] = n;
    }

    /// Mutable view of the stripes for queried users `lo..hi`, for
    /// crate-internal engines that fill many stripes from one parallel
    /// pass (chunked by `k`). Follow with [`TopKBatch::recount`].
    pub(crate) fn stripes_mut(&mut self, lo: usize, hi: usize) -> &mut [Ranked] {
        &mut self.entries[lo * self.k..hi * self.k]
    }

    /// Recomputes all counts from the tombstone boundaries (used after a
    /// parallel fill, where per-user counts cannot be written from the
    /// selection tasks).
    pub(crate) fn recount(&mut self) {
        for (j, count) in self.counts.iter_mut().enumerate() {
            *count = self.entries[j * self.k..(j + 1) * self.k]
                .iter()
                .take_while(|r| !r.is_tombstone())
                .count();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_tensor::Tensor;

    fn tiny_index() -> ScoringIndex {
        // 2 users x 4 items, dim 2, hand-checkable scores.
        let p = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let q = Tensor::from_rows(&[&[3.0, 0.5], &[2.0, 1.5], &[1.0, 2.5], &[0.0, 3.5]]);
        ScoringIndex::new(p, q, vec![0.0, 0.0], vec![0.0; 4], 0.0)
    }

    #[test]
    fn tiny_catalog_ranks_by_hand() {
        let idx = tiny_index();
        let batch = TopKEngine::new().recommend(&idx, &[0, 1], 2, None);
        // user 0 scores = first column of q: items 0,1 best.
        let u0: Vec<u32> = batch.user(0).iter().map(|r| r.item).collect();
        assert_eq!(u0, vec![0, 1]);
        // user 1 scores = second column: items 3,2 best.
        let u1: Vec<u32> = batch.user(1).iter().map(|r| r.item).collect();
        assert_eq!(u1, vec![3, 2]);
    }

    #[test]
    fn seen_items_are_excluded() {
        let idx = tiny_index();
        let seen = SeenLists::from_pairs(2, vec![(0, 0), (1, 3), (1, 2)]);
        let batch = TopKEngine::new().recommend(&idx, &[0, 1], 2, Some(&seen));
        let u0: Vec<u32> = batch.user(0).iter().map(|r| r.item).collect();
        assert_eq!(u0, vec![1, 2]);
        let u1: Vec<u32> = batch.user(1).iter().map(|r| r.item).collect();
        assert_eq!(u1, vec![1, 0]);
    }

    #[test]
    fn k_beyond_catalog_truncates_counts() {
        let idx = tiny_index();
        let batch = TopKEngine::new().recommend(&idx, &[0], 9, None);
        assert_eq!(batch.user(0).len(), 4);
        assert_eq!(batch.k(), 9);
    }

    #[test]
    fn empty_queries_and_zero_k_are_fine() {
        let idx = tiny_index();
        let empty = TopKEngine::new().recommend(&idx, &[], 3, None);
        assert_eq!(empty.n_users(), 0);
        let zero_k = TopKEngine::new().recommend(&idx, &[0, 1], 0, None);
        assert_eq!(zero_k.n_users(), 2);
        assert!(zero_k.user(1).is_empty());
    }

    #[test]
    fn block_geometry_does_not_change_results() {
        let idx = tiny_index();
        let users = [0usize, 1, 0, 1, 1, 0];
        let whole = TopKEngine::new().recommend(&idx, &users, 3, None);
        // Force one user per block: 4 items -> block budget of 1 element.
        let split = TopKEngine::with_block_elems(1).recommend(&idx, &users, 3, None);
        assert_eq!(whole, split);
    }

    #[test]
    fn epoch_starts_at_zero_and_counts_bumps() {
        let mut e = TopKEngine::new();
        assert_eq!(e.epoch(), 0);
        e.bump_epoch();
        e.bump_epoch();
        assert_eq!(e.epoch(), 2);
        assert_eq!(TopKEngine::with_block_elems(64).epoch(), 0);
    }

    #[test]
    fn block_users_scales_with_catalog() {
        let e = TopKEngine::new();
        assert_eq!(e.block_users(1 << 22), 1);
        assert_eq!(e.block_users(1 << 13), MAX_BLOCK_USERS);
        assert_eq!(e.block_users(0), MAX_BLOCK_USERS);
    }

    fn ivf_for(idx: &ScoringIndex, nlist: usize) -> crate::IvfIndex {
        crate::IvfIndex::build(
            idx,
            &crate::IvfParams {
                nlist,
                iters: 4,
                seed: 7,
                train_cap: 0,
            },
        )
    }

    #[test]
    fn full_probe_equals_exact_bit_for_bit() {
        // nprobe = nlist covers the whole catalog, so the IVF arm must
        // reproduce the exact engine's output exactly (same kernels, same
        // association order, same tie-breaks).
        let idx = tiny_index();
        let ivf = ivf_for(&idx, 2);
        let engine = TopKEngine::new();
        let exact = engine.recommend(&idx, &[0, 1, 0], 3, None);
        let mut got = TopKBatch::new();
        let mut scratch = IvfScratch::default();
        engine.recommend_ivf_into(&idx, &ivf, 2, &[0, 1, 0], 3, None, &mut scratch, &mut got);
        assert_eq!(exact, got);
    }

    #[test]
    fn all_seen_forces_fallback_then_empty() {
        // Every item seen: the shortfall loop must widen to nlist and
        // still return an empty stripe rather than hang or under-assert.
        let idx = tiny_index();
        let ivf = ivf_for(&idx, 2);
        let seen = SeenLists::from_pairs(2, (0..4).map(|i| (0u32, i as u32)));
        let mut got = TopKBatch::new();
        let mut scratch = IvfScratch::default();
        TopKEngine::new().recommend_ivf_into(
            &idx,
            &ivf,
            1,
            &[0],
            2,
            Some(&seen),
            &mut scratch,
            &mut got,
        );
        assert!(got.user(0).is_empty());
    }

    #[test]
    fn k_beyond_catalog_widens_to_full_probe() {
        let idx = tiny_index();
        let ivf = ivf_for(&idx, 2);
        let mut got = TopKBatch::new();
        let mut scratch = IvfScratch::default();
        TopKEngine::new().recommend_ivf_into(&idx, &ivf, 1, &[1], 9, None, &mut scratch, &mut got);
        // Shortfall widening reaches nlist, so all 4 items come back.
        assert_eq!(got.user(0).len(), 4);
        let exact = TopKEngine::new().recommend(&idx, &[1], 9, None);
        assert_eq!(exact, got);
    }
}
