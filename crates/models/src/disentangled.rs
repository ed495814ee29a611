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

use dt_autograd::{Graph, ParamId, Params, Var};
use dt_tensor::SplitMix64;

use crate::mf::{HeadIds, MfHead};

/// Configuration of a [`DisentangledMf`].
#[derive(Debug, Clone, Copy)]
pub struct DisentangledConfig {
    /// Total embedding dimension `K`.
    pub total_dim: usize,
    /// Primary (rating) dimension `A` with `0 < A < K`.
    pub primary_dim: usize,
}

/// The disentangled MF model: two [`MfHead`]s over shared embedding
/// tables, each with its own biases.
pub struct DisentangledMf {
    /// The parameter store.
    pub params: Params,
    rating: HeadIds,
    propensity: HeadIds,
}

impl DisentangledMf {
    /// A fresh model with `N(0, 0.1²)` embeddings and zero biases.
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
            dt_tensor::normal(n_users, cfg.total_dim, 0.0, 0.1, rng),
        );
        let q = params.add(
            "Q",
            dt_tensor::normal(n_items, cfg.total_dim, 0.0, 0.1, rng),
        );
        let rating = HeadIds::register(&mut params, (p, q), cfg.primary_dim, "_r");
        let propensity = HeadIds::register(&mut params, (p, q), cfg.total_dim, "_o");
        Self {
            params,
            rating,
            propensity,
        }
    }

    /// The rating head: the primary blocks `[p′ᵤ, q′ᵢ]` (columns `0..A`).
    #[must_use]
    pub fn rating(&self) -> MfHead<'_> {
        self.rating.on(&self.params)
    }

    /// The propensity head: the full embeddings `[pᵤ, qᵢ]` (columns
    /// `0..K`).
    #[must_use]
    pub fn propensity(&self) -> MfHead<'_> {
        self.propensity.on(&self.params)
    }

    /// Total scalar parameter count.
    #[must_use]
    pub fn n_parameters(&self) -> usize {
        self.params.n_scalars()
    }

    /// The tables `P`, `Q` with the split `A` and the width `K`.
    fn split(&self) -> (ParamId, ParamId, usize, usize) {
        let (r, o) = (self.rating, self.propensity);
        (r.p, r.q, r.dim, o.dim)
    }

    /// The blocks `P′, P″, Q′, Q″` as tape views.
    fn blocks(&self, g: &mut Graph) -> [Var; 4] {
        let (p, q, a, k) = self.split();
        let p = g.param(&self.params, p);
        let q = g.param(&self.params, q);
        [
            g.slice_cols(p, 0, a),
            g.slice_cols(p, a, k),
            g.slice_cols(q, 0, a),
            g.slice_cols(q, a, k),
        ]
    }

    /// The disentangling loss `‖P′ᵀP″‖²_F/M + ‖Q′ᵀQ″‖²_F/N`.
    ///
    /// Each term is normalised by its row count so the loss (and therefore
    /// the β hyper-parameter) is invariant to catalogue size — the raw
    /// Frobenius norm grows linearly in M/N, which would silently rescale
    /// β between COAT-sized and KuaiRec-sized datasets.
    pub fn disentangle_loss(&self, g: &mut Graph) -> Var {
        let [p_prim, p_aux, q_prim, q_aux] = self.blocks(g);
        let (n_users, n_items) = self.sizes();
        let dp0 = g.disentangle_penalty(p_prim, p_aux);
        let dp = g.mul_scalar(dp0, 1.0 / n_users as f64);
        let dq0 = g.disentangle_penalty(q_prim, q_aux);
        let dq = g.mul_scalar(dq0, 1.0 / n_items as f64);
        g.add(dp, dq)
    }

    /// The regularisation loss `(‖P′Q′ᵀ‖²_F + ‖P″Q″ᵀ‖²_F) / (M·N)`, via
    /// the Gram identity (never materialises an `M×N` matrix). Normalised
    /// per cell for the same size-invariance reason as
    /// [`DisentangledMf::disentangle_loss`].
    pub fn regularization_loss(&self, g: &mut Graph) -> Var {
        let [p_prim, p_aux, q_prim, q_aux] = self.blocks(g);
        let (n_users, n_items) = self.sizes();
        let r1 = g.cross_gram_penalty(p_prim, q_prim);
        let r2 = g.cross_gram_penalty(p_aux, q_aux);
        let sum = g.add(r1, r2);
        g.mul_scalar(sum, 1.0 / (n_users * n_items) as f64)
    }

    /// Measured disentangling-loss scale (no tape) — the quantity plotted
    /// in the paper's Figure 4(c,d). Uses the same per-row normalisation
    /// as [`DisentangledMf::disentangle_loss`].
    #[must_use]
    pub fn disentangle_scale(&self) -> f64 {
        let (p, q, a, k) = self.split();
        let cross = |m: &dt_tensor::Tensor| {
            let prim = m.slice_cols(0, a);
            let aux = m.slice_cols(a, k);
            prim.matmul_tn(&aux).frob_sq() / m.rows() as f64
        };
        cross(self.params.value(p)) + cross(self.params.value(q))
    }

    /// The user and item counts `M`, `N`.
    fn sizes(&self) -> (usize, usize) {
        let (p, q, _, _) = self.split();
        (self.params.value(p).rows(), self.params.value(q).rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mf::oracle::{
        assert_index_matches_naive_loop, assert_predictions_match_naive_loop,
        assert_tape_matches_naive_loop, perturb_biases,
    };
    use dt_optim::{Adam, Optimizer};

    fn model() -> DisentangledMf {
        let mut rng = SplitMix64(4);
        let mut m = DisentangledMf::new(
            6,
            8,
            &DisentangledConfig {
                total_dim: 6,
                primary_dim: 2,
            },
            &mut rng,
        );
        perturb_biases(&mut m.params, m.rating, &mut rng);
        perturb_biases(&mut m.params, m.propensity, &mut rng);
        m
    }

    #[test]
    fn graph_and_fast_paths_agree() {
        let m = model();
        assert_tape_matches_naive_loop(m.rating());
        assert_tape_matches_naive_loop(m.propensity());
    }

    #[test]
    fn batched_heads_match_scalar_paths_bitwise() {
        let m = model();
        assert_predictions_match_naive_loop(m.rating());
        assert_predictions_match_naive_loop(m.propensity());
    }

    #[test]
    fn rating_index_uses_only_primary_columns() {
        let m = model();
        assert_eq!(m.rating().scoring_index().dim(), 2);
        assert_index_matches_naive_loop(m.rating());
    }

    #[test]
    fn propensity_index_uses_every_column() {
        let m = model();
        assert_eq!(m.propensity().scoring_index().dim(), 6);
        assert_index_matches_naive_loop(m.propensity());
    }

    #[test]
    fn heads_use_disjoint_information() {
        let m = model();
        // Rating head ignores the auxiliary columns: zeroing them must not
        // change the rating score but must change the propensity score.
        let before_r = m.rating().predict_pairs(&[(0, 0)])[0];
        let before_o = m.propensity().predict_pairs(&[(0, 0)])[0];
        let mut m2 = m;
        let (p, q, a, k) = m2.split();
        for c in a..k {
            m2.params.value_mut(p).set(0, c, 0.0);
            m2.params.value_mut(q).set(0, c, 0.0);
        }
        assert_eq!(m2.rating().predict_pairs(&[(0, 0)])[0], before_r);
        assert!((m2.propensity().predict_pairs(&[(0, 0)])[0] - before_o).abs() > 1e-6);
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
        let (p, q, _, _) = m.split();
        let p = m.params.value(p);
        let q = m.params.value(q);
        let direct = (p.slice_cols(0, 2).matmul_nt(&q.slice_cols(0, 2)).frob_sq()
            + p.slice_cols(2, 6).matmul_nt(&q.slice_cols(2, 6)).frob_sq())
            / (6.0 * 8.0);
        assert!((g.item(r) - direct).abs() < 1e-9);
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
            },
            &mut rng,
        );
    }
}
