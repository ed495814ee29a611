//! Shared-embedding multi-tower architecture (ESMM / Multi-IPS / ESCM²).
//!
//! One embedding lookup table per side feeds up to three MLP towers over the
//! concatenated pair embedding `[eᵤ | eᵢ]`:
//!
//! * the **CTR tower** — models `P(o = 1 | x)` (the propensity / click
//!   head trained on the entire space);
//! * the **CVR tower** — models the rating / conversion `P(r = 1 | x)`;
//! * an optional **imputation tower** — models the error `ê(x)` used by
//!   the DR variants.
//!
//! Sharing the embedding lookup is exactly what gives these baselines their
//! `1×` embedding cost in the paper's Table II.

use std::rc::Rc;

use dt_autograd::{Graph, ParamId, Params, Var};
use dt_stats::expit;
use dt_tensor::SplitMix64;

use crate::mlp::Mlp;

/// Configuration of a [`TowerModel`].
#[derive(Debug, Clone, Copy)]
pub struct TowerConfig {
    /// Per-side embedding dimension.
    pub emb_dim: usize,
    /// Hidden width of each tower.
    pub hidden: usize,
    /// Whether to build the imputation tower.
    pub with_imputation: bool,
}

/// The shared-embedding multi-tower model.
pub struct TowerModel {
    /// The parameter store (embeddings + all towers).
    pub params: Params,
    user_emb: ParamId,
    item_emb: ParamId,
    ctr: Mlp,
    cvr: Mlp,
    imputation: Option<Mlp>,
}

impl TowerModel {
    /// A fresh model with `N(0, 0.1²)` embeddings and Xavier towers.
    #[must_use]
    pub fn new(n_users: usize, n_items: usize, cfg: &TowerConfig, rng: &mut SplitMix64) -> Self {
        let mut params = Params::new();
        let user_emb = params.add(
            "user_emb",
            dt_tensor::normal(n_users, cfg.emb_dim, 0.0, 0.1, rng),
        );
        let item_emb = params.add(
            "item_emb",
            dt_tensor::normal(n_items, cfg.emb_dim, 0.0, 0.1, rng),
        );
        let sizes = [2 * cfg.emb_dim, cfg.hidden, 1];
        let ctr = Mlp::new(&mut params, "ctr", &sizes, rng);
        let cvr = Mlp::new(&mut params, "cvr", &sizes, rng);
        let imputation = cfg
            .with_imputation
            .then(|| Mlp::new(&mut params, "imp", &sizes, rng));
        Self {
            params,
            user_emb,
            item_emb,
            ctr,
            cvr,
            imputation,
        }
    }

    /// Total scalar parameter count.
    #[must_use]
    pub fn n_parameters(&self) -> usize {
        self.params.n_scalars()
    }

    /// The concatenated pair embedding `[eᵤ | eᵢ]` over `Rc`-shared index
    /// lists.
    fn pair_embedding(&self, g: &mut Graph, users: &Rc<Vec<usize>>, items: &Rc<Vec<usize>>) -> Var {
        assert_eq!(users.len(), items.len(), "pair_embedding: batch mismatch");
        let ue = g.param(&self.params, self.user_emb);
        let eu = g.gather(ue, Rc::clone(users));
        let ie = g.param(&self.params, self.item_emb);
        let ei = g.gather(ie, Rc::clone(items));
        g.concat_cols(eu, ei)
    }

    /// CTR (propensity) logits.
    pub fn ctr_logits(&self, g: &mut Graph, users: &Rc<Vec<usize>>, items: &Rc<Vec<usize>>) -> Var {
        let x = self.pair_embedding(g, users, items);
        self.ctr.forward(g, &self.params, x)
    }

    /// CVR (rating) logits.
    pub fn cvr_logits(&self, g: &mut Graph, users: &Rc<Vec<usize>>, items: &Rc<Vec<usize>>) -> Var {
        let x = self.pair_embedding(g, users, items);
        self.cvr.forward(g, &self.params, x)
    }

    /// Imputation-tower output (unbounded error estimate).
    ///
    /// # Panics
    /// Panics when the model was built without an imputation tower.
    pub fn imputation_out(
        &self,
        g: &mut Graph,
        users: &Rc<Vec<usize>>,
        items: &Rc<Vec<usize>>,
    ) -> Var {
        let imp = self
            .imputation
            .as_ref()
            // lint: allow(r3): documented `# Panics` contract on `imputation_out`
            .expect("imputation tower not configured");
        let x = self.pair_embedding(g, users, items);
        imp.forward(g, &self.params, x)
    }

    /// Fast inference: CVR probability for a batch of pairs.
    #[must_use]
    pub fn predict_cvr(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        self.predict_tower(&self.cvr, pairs)
    }

    /// Fast inference: CTR probability for a batch of pairs.
    #[must_use]
    pub fn predict_ctr(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        self.predict_tower(&self.ctr, pairs)
    }

    fn predict_tower(&self, tower: &Mlp, pairs: &[(usize, usize)]) -> Vec<f64> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let users = Rc::new(pairs.iter().map(|p| p.0).collect());
        let items = Rc::new(pairs.iter().map(|p| p.1).collect());
        let mut g = Graph::new();
        let x = self.pair_embedding(&mut g, &users, &items);
        let logits = tower.forward(&mut g, &self.params, x);
        g.value(logits).data().iter().map(|&z| expit(z)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(with_imp: bool) -> TowerModel {
        let mut rng = SplitMix64(5);
        TowerModel::new(
            4,
            5,
            &TowerConfig {
                emb_dim: 3,
                hidden: 6,
                with_imputation: with_imp,
            },
            &mut rng,
        )
    }

    #[test]
    fn parameter_counts_match_table_ii_structure() {
        let base = model(false).n_parameters();
        let with_imp = model(true).n_parameters();
        // The imputation tower adds exactly one more MLP of the same size.
        let tower_size = (2 * 3) * 6 + 6 + 6 + 1;
        assert_eq!(with_imp - base, tower_size);
    }

    #[test]
    fn towers_give_different_outputs() {
        let m = model(false);
        let ctr = m.predict_ctr(&[(0, 0)]);
        let cvr = m.predict_cvr(&[(0, 0)]);
        assert_ne!(ctr[0], cvr[0], "independently initialised towers");
    }

    #[test]
    fn graph_and_fast_paths_agree() {
        let m = model(true);
        let mut g = Graph::new();
        let l = m.cvr_logits(&mut g, &Rc::new(vec![2]), &Rc::new(vec![3]));
        let fast = m.predict_cvr(&[(2, 3)]);
        assert!((expit(g.value(l).item()) - fast[0]).abs() < 1e-12);
    }

    #[test]
    fn empty_batch_inference() {
        let m = model(false);
        assert!(m.predict_cvr(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "imputation tower not configured")]
    fn missing_imputation_tower_panics() {
        let m = model(false);
        let mut g = Graph::new();
        let _ = m.imputation_out(&mut g, &Rc::new(vec![0]), &Rc::new(vec![0]));
    }
}
