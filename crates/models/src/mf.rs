//! Matrix factorisation with biases — the paper's base model.

use dt_autograd::{Graph, ParamId, Params, Var};
use dt_stats::expit;
use dt_tensor::scoring::{self, Biases};
use dt_tensor::SplitMix64;

use crate::broadcast_scalar;
use crate::embedding::EmbeddingTable;

/// Biased matrix factorisation: `logit(u, i) = pᵤ·qᵢ + bᵤ + bᵢ + µ`.
///
/// The model owns its parameter store; trainers mount what they need per
/// mini-batch and run the optimizer over [`MfModel::params`].
pub struct MfModel {
    /// The parameter store (embeddings + biases).
    pub params: Params,
    user_emb: EmbeddingTable,
    item_emb: EmbeddingTable,
    user_bias: ParamId,
    item_bias: ParamId,
    mu: ParamId,
}

impl MfModel {
    /// A fresh model with `N(0, 0.1²)` embeddings and zero biases.
    #[must_use]
    pub fn new(n_users: usize, n_items: usize, dim: usize, rng: &mut SplitMix64) -> Self {
        let mut params = Params::new();
        let user_emb = EmbeddingTable::new(&mut params, "user_emb", n_users, dim, 0.1, rng);
        let item_emb = EmbeddingTable::new(&mut params, "item_emb", n_items, dim, 0.1, rng);
        let user_bias = params.add("user_bias", dt_tensor::Tensor::zeros(n_users, 1));
        let item_bias = params.add("item_bias", dt_tensor::Tensor::zeros(n_items, 1));
        let mu = params.add("mu", dt_tensor::Tensor::zeros(1, 1));
        Self {
            params,
            user_emb,
            item_emb,
            user_bias,
            item_bias,
            mu,
        }
    }

    /// Number of users.
    #[must_use]
    pub fn n_users(&self) -> usize {
        self.user_emb.len()
    }

    /// Number of items.
    #[must_use]
    pub fn n_items(&self) -> usize {
        self.item_emb.len()
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.user_emb.dim()
    }

    /// Total scalar parameter count.
    #[must_use]
    pub fn n_parameters(&self) -> usize {
        self.params.n_scalars()
    }

    /// Differentiable logits for a batch of pairs (`n×1`). Copies each
    /// index list once; loops that reuse the lists should call
    /// [`MfModel::logits_indexed`].
    pub fn logits(&self, g: &mut Graph, users: &[usize], items: &[usize]) -> Var {
        self.logits_indexed(
            g,
            &std::rc::Rc::new(users.to_vec()),
            &std::rc::Rc::new(items.to_vec()),
        )
    }

    /// Logits over `Rc`-shared index lists: one list per side serves both
    /// the embedding lookup and the bias gather without further copies.
    pub fn logits_indexed(
        &self,
        g: &mut Graph,
        users: &std::rc::Rc<Vec<usize>>,
        items: &std::rc::Rc<Vec<usize>>,
    ) -> Var {
        assert_eq!(users.len(), items.len(), "logits: batch mismatch");
        let pu = self.user_emb.lookup_indexed(g, &self.params, users);
        let qi = self.item_emb.lookup_indexed(g, &self.params, items);
        let dot = g.row_dot(pu, qi);
        let bu_table = g.param(&self.params, self.user_bias);
        let bu = g.gather(bu_table, std::rc::Rc::clone(users));
        let bi_table = g.param(&self.params, self.item_bias);
        let bi = g.gather(bi_table, std::rc::Rc::clone(items));
        let mu = g.param(&self.params, self.mu);
        let mu_col = broadcast_scalar(g, mu, users.len());
        let s1 = g.add(dot, bu);
        let s2 = g.add(s1, bi);
        g.add(s2, mu_col)
    }

    /// Differentiable sigmoid predictions (`n×1`).
    pub fn predict_var(&self, g: &mut Graph, users: &[usize], items: &[usize]) -> Var {
        let l = self.logits(g, users, items);
        g.sigmoid(l)
    }

    /// Fast inference path (no tape): sigmoid probabilities for pairs,
    /// through the fused batched gather+dot kernel (bit-identical to the
    /// per-pair [`MfModel::score`] at any thread count).
    #[must_use]
    pub fn predict(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        let mut out = self.score_pairs(pairs);
        for v in &mut out {
            *v = expit(*v);
        }
        out
    }

    /// Raw logits for a tuple batch (no tape, no sigmoid).
    #[must_use]
    pub fn score_pairs(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        scoring::score_pair_tuples(
            self.params.value(self.user_emb.id()),
            self.params.value(self.item_emb.id()),
            0..self.dim(),
            pairs,
            Some(self.biases()),
        )
    }

    /// Sigmoid predictions over parallel `users`/`items` index lists —
    /// the batched form of mapping [`MfModel::score`] through `expit`.
    ///
    /// # Panics
    /// Panics on mismatched list lengths or an out-of-bounds index.
    #[must_use]
    pub fn predict_batch(&self, users: &[usize], items: &[usize]) -> Vec<f64> {
        let mut out = scoring::score_pairs(
            self.params.value(self.user_emb.id()),
            self.params.value(self.item_emb.id()),
            0..self.dim(),
            users,
            items,
            Some(self.biases()),
        );
        for v in &mut out {
            *v = expit(*v);
        }
        out
    }

    /// Fast inference path: raw logit for one pair.
    #[must_use]
    pub fn score(&self, user: usize, item: usize) -> f64 {
        let pu = self.user_emb.row(&self.params, user);
        let qi = self.item_emb.row(&self.params, item);
        let dot: f64 = pu.iter().zip(qi).map(|(a, b)| a * b).sum();
        dot + self.params.value(self.user_bias).get(user, 0)
            + self.params.value(self.item_bias).get(item, 0)
            + self.params.value(self.mu).item()
    }

    /// The affine bias view over the live parameter store, as consumed by
    /// the `dt_tensor::scoring` kernels.
    #[must_use]
    pub fn biases(&self) -> Biases<'_> {
        Biases {
            user: self.params.value(self.user_bias).data(),
            item: self.params.value(self.item_bias).data(),
            global: self.params.value(self.mu).item(),
        }
    }

    /// Extracts a serving index: contiguous copies of the embedding
    /// panels and bias vectors, decoupled from the parameter store. Index
    /// scores are the model's raw logits — monotone in
    /// [`MfModel::predict`], so rankings agree.
    #[must_use]
    pub fn scoring_index(&self) -> dt_serve::ScoringIndex {
        dt_serve::ScoringIndex::new(
            self.params.value(self.user_emb.id()).clone(),
            self.params.value(self.item_emb.id()).clone(),
            self.params.value(self.user_bias).data().to_vec(),
            self.params.value(self.item_bias).data().to_vec(),
            self.params.value(self.mu).item(),
        )
    }

    /// L2 penalty on the embedding tables (not the biases), as a
    /// differentiable term.
    pub fn l2_penalty(&self, g: &mut Graph) -> Var {
        let p = self.user_emb.full(g, &self.params);
        let q = self.item_emb.full(g, &self.params);
        let fp = g.frob_sq(p);
        let fq = g.frob_sq(q);
        g.add(fp, fq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_optim::{Adam, Optimizer};
    use dt_tensor::{SplitMix64, Tensor};

    #[test]
    fn score_matches_graph_logits() {
        let mut rng = SplitMix64(2);
        let m = MfModel::new(4, 6, 3, &mut rng);
        let mut g = Graph::new();
        let l = m.logits(&mut g, &[1, 3], &[0, 5]);
        assert!((g.value(l).get(0, 0) - m.score(1, 0)).abs() < 1e-12);
        assert!((g.value(l).get(1, 0) - m.score(3, 5)).abs() < 1e-12);
    }

    #[test]
    fn parameter_count() {
        let mut rng = SplitMix64(2);
        let m = MfModel::new(10, 20, 4, &mut rng);
        // 10·4 + 20·4 + 10 + 20 + 1 = 151
        assert_eq!(m.n_parameters(), 151);
    }

    #[test]
    fn can_overfit_a_tiny_pattern() {
        // 2 users × 2 items, XOR-free pattern learnable by MF with biases.
        let mut rng = SplitMix64(7);
        let mut m = MfModel::new(2, 2, 4, &mut rng);
        let users = [0usize, 0, 1, 1];
        let items = [0usize, 1, 0, 1];
        let labels = Tensor::col_vec(&[1.0, 0.0, 0.0, 1.0]);
        let mut opt = Adam::new(0.1);
        for _ in 0..400 {
            let mut g = Graph::new();
            let logits = m.logits(&mut g, &users, &items);
            let y = g.constant(labels.clone());
            let loss = g.bce_mean(logits, y);
            opt.minimize(g, loss, &mut m.params);
        }
        let preds = m.predict(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert!(preds[0] > 0.9 && preds[3] > 0.9, "{preds:?}");
        assert!(preds[1] < 0.1 && preds[2] < 0.1, "{preds:?}");
    }

    #[test]
    fn predictions_are_probabilities() {
        let mut rng = SplitMix64(2);
        let m = MfModel::new(3, 3, 2, &mut rng);
        for p in m.predict(&[(0, 0), (2, 2)]) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn batched_predict_matches_scalar_score_bitwise() {
        let mut rng = SplitMix64(11);
        let m = MfModel::new(9, 13, 5, &mut rng);
        let pairs: Vec<(usize, usize)> = (0..40).map(|j| (j % 9, (j * 7) % 13)).collect();
        let batched = m.predict(&pairs);
        let users: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let items: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        let by_lists = m.predict_batch(&users, &items);
        for (j, &(u, i)) in pairs.iter().enumerate() {
            let scalar = expit(m.score(u, i));
            assert_eq!(batched[j].to_bits(), scalar.to_bits(), "pair {j}");
            assert_eq!(by_lists[j].to_bits(), scalar.to_bits(), "pair {j}");
        }
    }

    #[test]
    fn scoring_index_reproduces_model_logits() {
        let mut rng = SplitMix64(5);
        let m = MfModel::new(6, 10, 4, &mut rng);
        let idx = m.scoring_index();
        assert_eq!(idx.n_users(), 6);
        assert_eq!(idx.n_items(), 10);
        assert_eq!(idx.dim(), 4);
        let block = idx.score_block(&[5, 0, 3]);
        for (row, &u) in [5usize, 0, 3].iter().enumerate() {
            for i in 0..10 {
                assert_eq!(
                    block.row(row)[i].to_bits(),
                    m.score(u, i).to_bits(),
                    "user {u} item {i}"
                );
            }
        }
        block.recycle();
    }
}
