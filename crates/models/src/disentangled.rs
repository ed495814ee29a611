//! The disentangled factorisation of the paper's §IV-B.
//!
//! User embeddings `P = [P′, P″] ∈ R^{M×K}` and item embeddings
//! `Q = [Q′, Q″] ∈ R^{N×K}` are split at column `A`:
//!
//! * the **primary** blocks `P′, Q′` (columns `0..A`) form
//!   `x(u,i) = [p′ᵤ, q′ᵢ]` and drive the *rating* head;
//! * the **full** embeddings `[pᵤ, qᵢ]` drive the *propensity* head, so the
//!   auxiliary blocks `P″, Q″` play the role of the auxiliary variable
//!   `z(u,i)` of Assumption 1 — they influence `o` but are pushed to be
//!   independent of the rating-relevant signal;
//! * the **disentangling loss** `‖P′ᵀP″‖²_F + ‖Q′ᵀQ″‖²_F` enforces the
//!   orthogonality between the two blocks (the outer-product constraint of
//!   the paper, usable when `A ≠ K/2`);
//! * the **regularisation loss** `‖P′Q′ᵀ‖²_F + ‖P″Q″ᵀ‖²_F` spreads feature
//!   contributions and prevents overfitting; it is evaluated through the
//!   Gram identity `trace((P′ᵀP′)(Q′ᵀQ′))` in `O((M+N)K²)`.

use std::rc::Rc;

use dt_autograd::{Graph, ParamId, Params, Var};
use dt_stats::expit;
use dt_tensor::scoring::{self, Biases};
use dt_tensor::SplitMix64;

use crate::broadcast_scalar;

/// Configuration of a [`DisentangledMf`].
#[derive(Debug, Clone, Copy)]
pub struct DisentangledConfig {
    /// Total embedding dimension `K`.
    pub total_dim: usize,
    /// Primary (rating) dimension `A` with `0 < A < K`.
    pub primary_dim: usize,
    /// Embedding init scale.
    pub init_scale: f64,
}

impl DisentangledConfig {
    /// A balanced split `A = K/2`.
    #[must_use]
    pub fn balanced(total_dim: usize) -> Self {
        Self {
            total_dim,
            primary_dim: total_dim / 2,
            init_scale: 0.1,
        }
    }
}

/// The disentangled MF model: shared embedding matrices with separate
/// rating- and propensity-head biases.
pub struct DisentangledMf {
    /// The parameter store.
    pub params: Params,
    p: ParamId,
    q: ParamId,
    // rating head biases
    user_bias_r: ParamId,
    item_bias_r: ParamId,
    mu_r: ParamId,
    // propensity head biases
    user_bias_o: ParamId,
    item_bias_o: ParamId,
    mu_o: ParamId,
    n_users: usize,
    n_items: usize,
    total_dim: usize,
    primary_dim: usize,
}

impl DisentangledMf {
    /// A fresh model.
    ///
    /// # Panics
    /// Panics unless `0 < primary_dim < total_dim`.
    #[must_use]
    pub fn new(
        n_users: usize,
        n_items: usize,
        cfg: &DisentangledConfig,
        rng: &mut SplitMix64,
    ) -> Self {
        assert!(
            cfg.primary_dim > 0 && cfg.primary_dim < cfg.total_dim,
            "DisentangledMf: need 0 < A ({}) < K ({})",
            cfg.primary_dim,
            cfg.total_dim
        );
        let mut params = Params::new();
        let p = params.add(
            "P",
            dt_tensor::normal(n_users, cfg.total_dim, 0.0, cfg.init_scale, rng),
        );
        let q = params.add(
            "Q",
            dt_tensor::normal(n_items, cfg.total_dim, 0.0, cfg.init_scale, rng),
        );
        let zeros_u = || dt_tensor::Tensor::zeros(n_users, 1);
        let zeros_i = || dt_tensor::Tensor::zeros(n_items, 1);
        let user_bias_r = params.add("user_bias_r", zeros_u());
        let item_bias_r = params.add("item_bias_r", zeros_i());
        let mu_r = params.add("mu_r", dt_tensor::Tensor::zeros(1, 1));
        let user_bias_o = params.add("user_bias_o", zeros_u());
        let item_bias_o = params.add("item_bias_o", zeros_i());
        let mu_o = params.add("mu_o", dt_tensor::Tensor::zeros(1, 1));
        Self {
            params,
            p,
            q,
            user_bias_r,
            item_bias_r,
            mu_r,
            user_bias_o,
            item_bias_o,
            mu_o,
            n_users,
            n_items,
            total_dim: cfg.total_dim,
            primary_dim: cfg.primary_dim,
        }
    }

    /// Number of users.
    #[must_use]
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items.
    #[must_use]
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Primary dimension `A`.
    #[must_use]
    pub fn primary_dim(&self) -> usize {
        self.primary_dim
    }

    /// Total scalar parameter count.
    #[must_use]
    pub fn n_parameters(&self) -> usize {
        self.params.n_scalars()
    }

    fn head_logits(
        &self,
        g: &mut Graph,
        users: &Rc<Vec<usize>>,
        items: &Rc<Vec<usize>>,
        cols: std::ops::Range<usize>,
        biases: (ParamId, ParamId, ParamId),
    ) -> Var {
        assert_eq!(users.len(), items.len(), "head_logits: batch mismatch");
        let p = g.param(&self.params, self.p);
        let q = g.param(&self.params, self.q);
        let pu_full = g.gather(p, Rc::clone(users));
        let qi_full = g.gather(q, Rc::clone(items));
        let (pu, qi) = if cols == (0..self.total_dim) {
            (pu_full, qi_full)
        } else {
            (
                g.slice_cols(pu_full, cols.start, cols.end),
                g.slice_cols(qi_full, cols.start, cols.end),
            )
        };
        let dot = g.row_dot(pu, qi);
        let (ub, ib, mu) = biases;
        let ub_t = g.param(&self.params, ub);
        let bu = g.gather(ub_t, Rc::clone(users));
        let ib_t = g.param(&self.params, ib);
        let bi = g.gather(ib_t, Rc::clone(items));
        let mu_v = g.param(&self.params, mu);
        let mu_col = broadcast_scalar(g, mu_v, users.len());
        let s1 = g.add(dot, bu);
        let s2 = g.add(s1, bi);
        g.add(s2, mu_col)
    }

    /// Rating-head logits: uses only the primary blocks `P′, Q′`. Copies
    /// each index list once; see [`DisentangledMf::rating_logits_indexed`].
    pub fn rating_logits(&self, g: &mut Graph, users: &[usize], items: &[usize]) -> Var {
        self.rating_logits_indexed(g, &Rc::new(users.to_vec()), &Rc::new(items.to_vec()))
    }

    /// Rating-head logits over `Rc`-shared index lists: one list per side
    /// serves the embedding gather and the bias gather — and, when the
    /// trainer also mounts the propensity head on the same batch, that head
    /// too — without further copies.
    pub fn rating_logits_indexed(
        &self,
        g: &mut Graph,
        users: &Rc<Vec<usize>>,
        items: &Rc<Vec<usize>>,
    ) -> Var {
        self.head_logits(
            g,
            users,
            items,
            0..self.primary_dim,
            (self.user_bias_r, self.item_bias_r, self.mu_r),
        )
    }

    /// Propensity-head logits: uses the full embeddings `[pᵤ, qᵢ]`. Copies
    /// each index list once; see
    /// [`DisentangledMf::propensity_logits_indexed`].
    pub fn propensity_logits(&self, g: &mut Graph, users: &[usize], items: &[usize]) -> Var {
        self.propensity_logits_indexed(g, &Rc::new(users.to_vec()), &Rc::new(items.to_vec()))
    }

    /// Propensity-head logits over `Rc`-shared index lists.
    pub fn propensity_logits_indexed(
        &self,
        g: &mut Graph,
        users: &Rc<Vec<usize>>,
        items: &Rc<Vec<usize>>,
    ) -> Var {
        self.head_logits(
            g,
            users,
            items,
            0..self.total_dim,
            (self.user_bias_o, self.item_bias_o, self.mu_o),
        )
    }

    /// The disentangling loss `‖P′ᵀP″‖²_F/M + ‖Q′ᵀQ″‖²_F/N`.
    ///
    /// Each term is normalised by its row count so the loss (and therefore
    /// the β hyper-parameter) is invariant to catalogue size — the raw
    /// Frobenius norm grows linearly in M/N, which would silently rescale
    /// β between COAT-sized and KuaiRec-sized datasets.
    pub fn disentangle_loss(&self, g: &mut Graph) -> Var {
        let p = g.param(&self.params, self.p);
        let q = g.param(&self.params, self.q);
        let a = self.primary_dim;
        let k = self.total_dim;
        let p_prim = g.slice_cols(p, 0, a);
        let p_aux = g.slice_cols(p, a, k);
        let q_prim = g.slice_cols(q, 0, a);
        let q_aux = g.slice_cols(q, a, k);
        let dp0 = g.disentangle_penalty(p_prim, p_aux);
        let dp = g.mul_scalar(dp0, 1.0 / self.n_users as f64);
        let dq0 = g.disentangle_penalty(q_prim, q_aux);
        let dq = g.mul_scalar(dq0, 1.0 / self.n_items as f64);
        g.add(dp, dq)
    }

    /// The regularisation loss `(‖P′Q′ᵀ‖²_F + ‖P″Q″ᵀ‖²_F) / (M·N)`, via
    /// the Gram identity (never materialises an `M×N` matrix). Normalised
    /// per cell for the same size-invariance reason as
    /// [`DisentangledMf::disentangle_loss`].
    pub fn regularization_loss(&self, g: &mut Graph) -> Var {
        let p = g.param(&self.params, self.p);
        let q = g.param(&self.params, self.q);
        let a = self.primary_dim;
        let k = self.total_dim;
        let p_prim = g.slice_cols(p, 0, a);
        let p_aux = g.slice_cols(p, a, k);
        let q_prim = g.slice_cols(q, 0, a);
        let q_aux = g.slice_cols(q, a, k);
        let r1 = g.cross_gram_penalty(p_prim, q_prim);
        let r2 = g.cross_gram_penalty(p_aux, q_aux);
        let sum = g.add(r1, r2);
        g.mul_scalar(sum, 1.0 / (self.n_users * self.n_items) as f64)
    }

    /// Fast inference: rating probability for one pair.
    #[must_use]
    pub fn predict_rating(&self, user: usize, item: usize) -> f64 {
        expit(self.score_head(
            user,
            item,
            0..self.primary_dim,
            (self.user_bias_r, self.item_bias_r, self.mu_r),
        ))
    }

    /// Fast inference: propensity for one pair.
    #[must_use]
    pub fn predict_propensity(&self, user: usize, item: usize) -> f64 {
        expit(self.score_head(
            user,
            item,
            0..self.total_dim,
            (self.user_bias_o, self.item_bias_o, self.mu_o),
        ))
    }

    /// Batched rating predictions for a tuple list, through the fused
    /// gather+dot kernel over the primary columns — bit-identical to
    /// mapping [`DisentangledMf::predict_rating`] over the pairs.
    #[must_use]
    pub fn predict_rating_pairs(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        let mut out = scoring::score_pair_tuples(
            self.params.value(self.p),
            self.params.value(self.q),
            0..self.primary_dim,
            pairs,
            Some(self.head_biases(self.user_bias_r, self.item_bias_r, self.mu_r)),
        );
        for v in &mut out {
            *v = expit(*v);
        }
        out
    }

    /// Batched rating predictions over parallel `users`/`items` index
    /// lists — the list-shaped form of
    /// [`DisentangledMf::predict_rating_pairs`].
    ///
    /// # Panics
    /// Panics on mismatched list lengths or an out-of-bounds index.
    #[must_use]
    pub fn predict_rating_batch(&self, users: &[usize], items: &[usize]) -> Vec<f64> {
        let mut out = scoring::score_pairs(
            self.params.value(self.p),
            self.params.value(self.q),
            0..self.primary_dim,
            users,
            items,
            Some(self.head_biases(self.user_bias_r, self.item_bias_r, self.mu_r)),
        );
        for v in &mut out {
            *v = expit(*v);
        }
        out
    }

    /// Batched propensities over parallel `users`/`items` index lists
    /// (full embeddings) — the batched form of
    /// [`DisentangledMf::predict_propensity`].
    ///
    /// # Panics
    /// Panics on mismatched list lengths or an out-of-bounds index.
    #[must_use]
    pub fn predict_propensity_batch(&self, users: &[usize], items: &[usize]) -> Vec<f64> {
        let mut out = scoring::score_pairs(
            self.params.value(self.p),
            self.params.value(self.q),
            0..self.total_dim,
            users,
            items,
            Some(self.head_biases(self.user_bias_o, self.item_bias_o, self.mu_o)),
        );
        for v in &mut out {
            *v = expit(*v);
        }
        out
    }

    fn head_biases(&self, ub: ParamId, ib: ParamId, mu: ParamId) -> Biases<'_> {
        Biases {
            user: self.params.value(ub).data(),
            item: self.params.value(ib).data(),
            global: self.params.value(mu).item(),
        }
    }

    /// Extracts a rating-head serving index: contiguous copies of the
    /// **primary** column blocks `P′, Q′` plus the rating biases. Index
    /// scores are the rating head's raw logits — monotone in
    /// [`DisentangledMf::predict_rating`], so rankings agree.
    #[must_use]
    pub fn rating_scoring_index(&self) -> dt_serve::ScoringIndex {
        dt_serve::ScoringIndex::new(
            self.params.value(self.p).slice_cols(0, self.primary_dim),
            self.params.value(self.q).slice_cols(0, self.primary_dim),
            self.params.value(self.user_bias_r).data().to_vec(),
            self.params.value(self.item_bias_r).data().to_vec(),
            self.params.value(self.mu_r).item(),
        )
    }

    fn score_head(
        &self,
        user: usize,
        item: usize,
        cols: std::ops::Range<usize>,
        biases: (ParamId, ParamId, ParamId),
    ) -> f64 {
        let p = self.params.value(self.p).row(user);
        let q = self.params.value(self.q).row(item);
        let dot: f64 = p[cols.clone()]
            .iter()
            .zip(&q[cols])
            .map(|(a, b)| a * b)
            .sum();
        let (ub, ib, mu) = biases;
        dot + self.params.value(ub).get(user, 0)
            + self.params.value(ib).get(item, 0)
            + self.params.value(mu).item()
    }

    /// Measured disentangling-loss scale (no tape) — the quantity plotted
    /// in the paper's Figure 4(c,d). Uses the same per-row normalisation
    /// as [`DisentangledMf::disentangle_loss`].
    #[must_use]
    pub fn disentangle_scale(&self) -> f64 {
        let p = self.params.value(self.p);
        let q = self.params.value(self.q);
        let a = self.primary_dim;
        let k = self.total_dim;
        let cross = |m: &dt_tensor::Tensor| {
            let prim = m.slice_cols(0, a);
            let aux = m.slice_cols(a, k);
            prim.matmul_tn(&aux).frob_sq() / m.rows() as f64
        };
        cross(p) + cross(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_optim::{Adam, Optimizer};
    use dt_tensor::SplitMix64;

    fn model() -> DisentangledMf {
        let mut rng = SplitMix64(4);
        DisentangledMf::new(
            6,
            8,
            &DisentangledConfig {
                total_dim: 6,
                primary_dim: 2,
                init_scale: 0.2,
            },
            &mut rng,
        )
    }

    #[test]
    fn heads_use_disjoint_information() {
        let m = model();
        // Rating head ignores the auxiliary columns: zeroing them must not
        // change the rating score but must change the propensity score.
        let before_r = m.predict_rating(0, 0);
        let before_o = m.predict_propensity(0, 0);
        let mut m2 = m;
        for c in 2..6 {
            m2.params.value_mut(m2.p).set(0, c, 0.0);
            m2.params.value_mut(m2.q).set(0, c, 0.0);
        }
        assert!((m2.predict_rating(0, 0) - before_r).abs() < 1e-12);
        assert!((m2.predict_propensity(0, 0) - before_o).abs() > 1e-6);
    }

    #[test]
    fn graph_and_fast_paths_agree() {
        let m = model();
        let mut g = Graph::new();
        let lr = m.rating_logits(&mut g, &[3], &[7]);
        let lo = m.propensity_logits(&mut g, &[3], &[7]);
        assert!((expit(g.value(lr).item()) - m.predict_rating(3, 7)).abs() < 1e-12);
        assert!((expit(g.value(lo).item()) - m.predict_propensity(3, 7)).abs() < 1e-12);
    }

    #[test]
    fn disentangle_scale_matches_graph_loss() {
        let m = model();
        let mut g = Graph::new();
        let d = m.disentangle_loss(&mut g);
        assert!((g.item(d) - m.disentangle_scale()).abs() < 1e-9);
        assert!(m.disentangle_scale() > 0.0, "random init is not orthogonal");
    }

    #[test]
    fn optimizing_disentangle_loss_orthogonalizes_blocks() {
        let mut m = model();
        let initial = m.disentangle_scale();
        let mut opt = Adam::new(0.05);
        for _ in 0..300 {
            let mut g = Graph::new();
            let loss = m.disentangle_loss(&mut g);
            opt.minimize(g, loss, &mut m.params);
        }
        assert!(
            m.disentangle_scale() < initial * 1e-3,
            "scale {} vs initial {initial}",
            m.disentangle_scale()
        );
    }

    #[test]
    fn regularization_loss_matches_direct_frobenius() {
        let m = model();
        let mut g = Graph::new();
        let r = m.regularization_loss(&mut g);
        let p = m.params.value(m.p);
        let q = m.params.value(m.q);
        let direct = (p.slice_cols(0, 2).matmul_nt(&q.slice_cols(0, 2)).frob_sq()
            + p.slice_cols(2, 6).matmul_nt(&q.slice_cols(2, 6)).frob_sq())
            / (6.0 * 8.0);
        assert!((g.item(r) - direct).abs() < 1e-9);
    }

    #[test]
    fn batched_heads_match_scalar_paths_bitwise() {
        let m = model();
        let pairs: Vec<(usize, usize)> = (0..30).map(|j| (j % 6, (j * 3) % 8)).collect();
        let ratings = m.predict_rating_pairs(&pairs);
        let users: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let items: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        let props = m.predict_propensity_batch(&users, &items);
        for (j, &(u, i)) in pairs.iter().enumerate() {
            assert_eq!(
                ratings[j].to_bits(),
                m.predict_rating(u, i).to_bits(),
                "pair {j}"
            );
            assert_eq!(
                props[j].to_bits(),
                m.predict_propensity(u, i).to_bits(),
                "pair {j}"
            );
        }
    }

    #[test]
    fn rating_index_uses_only_primary_columns() {
        let m = model();
        let idx = m.rating_scoring_index();
        assert_eq!(idx.dim(), m.primary_dim());
        let block = idx.score_block(&[3]);
        for i in 0..8 {
            let direct = m.score_head(
                3,
                i,
                0..m.primary_dim,
                (m.user_bias_r, m.item_bias_r, m.mu_r),
            );
            assert_eq!(block.row(0)[i].to_bits(), direct.to_bits(), "item {i}");
        }
        block.recycle();
    }

    #[test]
    #[should_panic(expected = "need 0 < A")]
    fn degenerate_split_panics() {
        let mut rng = SplitMix64(4);
        let _ = DisentangledMf::new(
            2,
            2,
            &DisentangledConfig {
                total_dim: 4,
                primary_dim: 4,
                init_scale: 0.1,
            },
            &mut rng,
        );
    }
}
