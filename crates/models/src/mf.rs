//! Matrix factorisation with biases — the paper's base model — and the
//! MF head every factorisation in the zoo scores through.

use std::ops::Range;
use std::rc::Rc;

use dt_autograd::{Graph, ParamId, Params, Var};
use dt_serve::ScoringIndex;
use dt_stats::expit;
use dt_tensor::scoring::{self, Biases};
use dt_tensor::{SplitMix64, Tensor};

use crate::broadcast_scalar;

/// The parameter ids of one MF head: the leading `dim` columns of the
/// user and item tables `p`, `q`, which several heads may share, and the
/// head's own user / item / global bias triple.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeadIds {
    pub(crate) p: ParamId,
    pub(crate) q: ParamId,
    pub(crate) dim: usize,
    user_bias: ParamId,
    item_bias: ParamId,
    mu: ParamId,
}

impl HeadIds {
    /// A head over the leading `dim` columns of the registered tables
    /// `p`, `q`; registers its zero biases as `user_bias{tag}`,
    /// `item_bias{tag}` and `mu{tag}`, in that order.
    pub(crate) fn register(
        params: &mut Params,
        (p, q): (ParamId, ParamId),
        dim: usize,
        tag: &str,
    ) -> Self {
        let n_users = params.value(p).rows();
        let n_items = params.value(q).rows();
        Self {
            p,
            q,
            dim,
            user_bias: params.add(format!("user_bias{tag}"), Tensor::zeros(n_users, 1)),
            item_bias: params.add(format!("item_bias{tag}"), Tensor::zeros(n_items, 1)),
            mu: params.add(format!("mu{tag}"), Tensor::zeros(1, 1)),
        }
    }

    /// The head read from `params`, the store it was registered in.
    pub(crate) fn on(self, params: &Params) -> MfHead<'_> {
        MfHead { params, ids: self }
    }
}

/// An MF head read from its parameter store:
/// `logit(u, i) = pᵤ[..dim]·qᵢ[..dim] + bᵤ + bᵢ + µ`.
///
/// The zoo's one MF scorer: [`MfModel`] is one head over all of its
/// columns, and [`crate::DisentangledMf`] carries two over shared tables.
/// A head records its logits on a tape over shared index lists
/// ([`MfHead::logits`]), predicts through the batched
/// `dt_tensor::scoring` kernels over index lists ([`MfHead::predict`]) or
/// pairs ([`MfHead::predict_pairs`]), and exports a serving index
/// ([`MfHead::scoring_index`]). The three no-tape paths compute the same
/// bits; the tape agrees with them to rounding.
#[derive(Clone, Copy)]
pub struct MfHead<'a> {
    params: &'a Params,
    ids: HeadIds,
}

impl<'a> MfHead<'a> {
    /// Differentiable logits (`n×1`) over `Rc`-shared index lists: the
    /// tape holds the lists themselves, so one list per side serves the
    /// embedding and bias gathers of every head mounted on a batch.
    ///
    /// # Panics
    /// Panics on mismatched list lengths.
    pub fn logits(&self, g: &mut Graph, users: &Rc<Vec<usize>>, items: &Rc<Vec<usize>>) -> Var {
        assert_eq!(users.len(), items.len(), "MfHead::logits: batch mismatch");
        let ids = self.ids;
        let p = g.param(self.params, ids.p);
        let pu = g.gather(p, Rc::clone(users));
        let q = g.param(self.params, ids.q);
        let qi = g.gather(q, Rc::clone(items));
        let (pu, qi) = if ids.dim < self.params.value(ids.p).cols() {
            (g.slice_cols(pu, 0, ids.dim), g.slice_cols(qi, 0, ids.dim))
        } else {
            (pu, qi)
        };
        let dot = g.row_dot(pu, qi);
        let bu_table = g.param(self.params, ids.user_bias);
        let bu = g.gather(bu_table, Rc::clone(users));
        let bi_table = g.param(self.params, ids.item_bias);
        let bi = g.gather(bi_table, Rc::clone(items));
        let mu = g.param(self.params, ids.mu);
        let mu_col = broadcast_scalar(g, mu, users.len());
        let s1 = g.add(dot, bu);
        let s2 = g.add(s1, bi);
        g.add(s2, mu_col)
    }

    /// Sigmoid predictions over parallel `users`/`items` index lists.
    ///
    /// # Panics
    /// Panics on mismatched list lengths or an out-of-bounds index.
    #[must_use]
    pub fn predict(&self, users: &[usize], items: &[usize]) -> Vec<f64> {
        let (p, q, cols) = self.tables();
        let logits = scoring::score_pairs(p, q, cols, users, items, Some(self.biases()));
        probabilities(logits)
    }

    /// Sigmoid predictions for `(user, item)` pairs, the shape of a
    /// `Recommender::predict` batch.
    ///
    /// # Panics
    /// Panics on an out-of-bounds index.
    #[must_use]
    pub fn predict_pairs(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        let (p, q, cols) = self.tables();
        let logits = scoring::score_pair_tuples(p, q, cols, pairs, Some(self.biases()));
        probabilities(logits)
    }

    /// A serving index: copies of the head's columns of `P` and `Q` and of
    /// its biases, decoupled from the store. Its scores are the head's raw
    /// logits, monotone in [`MfHead::predict`], so rankings agree.
    #[must_use]
    pub fn scoring_index(&self) -> ScoringIndex {
        let (p, q, cols) = self.tables();
        let b = self.biases();
        ScoringIndex::new(
            p.slice_cols(cols.start, cols.end),
            q.slice_cols(cols.start, cols.end),
            b.user.to_vec(),
            b.item.to_vec(),
            b.global,
        )
    }

    /// The tables `P`, `Q` and the head's column range of them.
    fn tables(&self) -> (&'a Tensor, &'a Tensor, Range<usize>) {
        let (p, q) = (self.params.value(self.ids.p), self.params.value(self.ids.q));
        (p, q, 0..self.ids.dim)
    }

    fn biases(&self) -> Biases<'a> {
        Biases {
            user: self.params.value(self.ids.user_bias).data(),
            item: self.params.value(self.ids.item_bias).data(),
            global: self.params.value(self.ids.mu).item(),
        }
    }
}

fn probabilities(mut logits: Vec<f64>) -> Vec<f64> {
    for v in &mut logits {
        *v = expit(*v);
    }
    logits
}

/// Biased matrix factorisation: one [`MfHead`] over all columns of its
/// tables, `logit(u, i) = pᵤ·qᵢ + bᵤ + bᵢ + µ`.
///
/// The model owns its parameter store; trainers mount its head per
/// mini-batch and run the optimizer over [`MfModel::params`].
pub struct MfModel {
    /// The parameter store (embeddings + biases).
    pub params: Params,
    head: HeadIds,
}

impl MfModel {
    /// A fresh model with `N(0, 0.1²)` embeddings and zero biases.
    #[must_use]
    pub fn new(n_users: usize, n_items: usize, dim: usize, rng: &mut SplitMix64) -> Self {
        let mut params = Params::new();
        let p = params.add("user_emb", dt_tensor::normal(n_users, dim, 0.0, 0.1, rng));
        let q = params.add("item_emb", dt_tensor::normal(n_items, dim, 0.0, 0.1, rng));
        let head = HeadIds::register(&mut params, (p, q), dim, "");
        Self { params, head }
    }

    /// The model's head.
    #[must_use]
    pub fn head(&self) -> MfHead<'_> {
        self.head.on(&self.params)
    }

    /// Total scalar parameter count.
    #[must_use]
    pub fn n_parameters(&self) -> usize {
        self.params.n_scalars()
    }
}

/// The head oracles shared by the model tests: each checks one path of a
/// head against a naive per-pair loop over the raw parameters.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// The head's logit for `(u, i)` by a naive loop over the raw parameters.
    fn naive_logit(head: MfHead<'_>, u: usize, i: usize) -> f64 {
        let (params, ids) = (head.params, head.ids);
        let (p, q) = (params.value(ids.p), params.value(ids.q));
        let mut dot = 0.0;
        for c in 0..ids.dim {
            dot += p.get(u, c) * q.get(i, c);
        }
        ((dot + params.value(ids.user_bias).get(u, 0)) + params.value(ids.item_bias).get(i, 0))
            + params.value(ids.mu).item()
    }

    /// Pairs that visit every user and item of the head's tables, three
    /// times over, in no sorted order.
    fn oracle_pairs(head: MfHead<'_>) -> Vec<(usize, usize)> {
        let (p, q, _) = head.tables();
        let (n_users, n_items) = (p.rows(), q.rows());
        (0..3 * n_users * n_items)
            .map(|j| (j % n_users, (7 * j + j / n_users) % n_items))
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The head's tape logits agree with the naive loop to 1e-12.
    pub(crate) fn assert_tape_matches_naive_loop(head: MfHead<'_>) {
        let pairs = oracle_pairs(head);
        let users: Vec<usize> = pairs.iter().map(|pair| pair.0).collect();
        let items: Vec<usize> = pairs.iter().map(|pair| pair.1).collect();
        let mut g = Graph::new();
        let logits = head.logits(&mut g, &Rc::new(users), &Rc::new(items));
        let tape = g.value(logits).data();
        assert_eq!(tape.len(), pairs.len());
        for (j, (&t, &(u, i))) in tape.iter().zip(&pairs).enumerate() {
            assert!((t - naive_logit(head, u, i)).abs() < 1e-12, "pair {j}");
        }
    }

    /// The head's list and pair predictions are the sigmoid of the naive
    /// loop, bit for bit.
    pub(crate) fn assert_predictions_match_naive_loop(head: MfHead<'_>) {
        let pairs = oracle_pairs(head);
        let users: Vec<usize> = pairs.iter().map(|pair| pair.0).collect();
        let items: Vec<usize> = pairs.iter().map(|pair| pair.1).collect();
        let want: Vec<f64> = pairs
            .iter()
            .map(|&(u, i)| expit(naive_logit(head, u, i)))
            .collect();
        assert_eq!(bits(&head.predict(&users, &items)), bits(&want), "lists");
        assert_eq!(bits(&head.predict_pairs(&pairs)), bits(&want), "pairs");
    }

    /// The head's serving index holds its columns only, and scores every
    /// user's row as the naive loop does, bit for bit.
    pub(crate) fn assert_index_matches_naive_loop(head: MfHead<'_>) {
        let (p, q, _) = head.tables();
        let (n_users, n_items) = (p.rows(), q.rows());
        let index = head.scoring_index();
        assert_eq!(
            (index.n_users(), index.n_items(), index.dim()),
            (n_users, n_items, head.ids.dim)
        );
        let all_users: Vec<usize> = (0..n_users).rev().collect();
        let block = index.score_block(&all_users);
        for (row, &u) in all_users.iter().enumerate() {
            let naive_row: Vec<f64> = (0..n_items).map(|i| naive_logit(head, u, i)).collect();
            assert_eq!(bits(block.row(row)), bits(&naive_row), "user {u}");
        }
        block.recycle();
    }

    /// Gives a head nonzero biases, so the oracles see every term.
    pub(crate) fn perturb_biases(params: &mut Params, head: HeadIds, rng: &mut SplitMix64) {
        for id in [head.user_bias, head.item_bias, head.mu] {
            for v in params.value_mut(id).data_mut() {
                *v = rng.next_uniform(-0.5, 0.5);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::*;
    use super::*;
    use dt_optim::{Adam, Optimizer};

    /// A model with nonzero biases, so the oracles see every term.
    fn model() -> MfModel {
        let mut rng = SplitMix64(11);
        let mut m = MfModel::new(9, 13, 5, &mut rng);
        perturb_biases(&mut m.params, m.head, &mut rng);
        m
    }

    #[test]
    fn score_matches_graph_logits() {
        assert_tape_matches_naive_loop(model().head());
    }

    #[test]
    fn batched_predict_matches_scalar_score_bitwise() {
        assert_predictions_match_naive_loop(model().head());
    }

    #[test]
    fn scoring_index_reproduces_model_logits() {
        assert_index_matches_naive_loop(model().head());
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
        let users = Rc::new(vec![0usize, 0, 1, 1]);
        let items = Rc::new(vec![0usize, 1, 0, 1]);
        let labels = Tensor::col_vec(&[1.0, 0.0, 0.0, 1.0]);
        let mut opt = Adam::new(0.1);
        for _ in 0..400 {
            let mut g = Graph::new();
            let logits = m.head().logits(&mut g, &users, &items);
            let y = g.constant(labels.clone());
            let loss = g.bce_mean(logits, y);
            opt.minimize(g, loss, &mut m.params);
        }
        let preds = m.head().predict_pairs(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        assert!(preds[0] > 0.9 && preds[3] > 0.9, "{preds:?}");
        assert!(preds[1] < 0.1 && preds[2] < 0.1, "{preds:?}");
    }

    #[test]
    fn predictions_are_probabilities() {
        let mut rng = SplitMix64(2);
        let m = MfModel::new(3, 3, 2, &mut rng);
        for p in m.head().predict_pairs(&[(0, 0), (2, 2)]) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn embeddings_start_at_the_init_scale() {
        let mut rng = SplitMix64(1);
        let m = MfModel::new(400, 300, 16, &mut rng);
        for t in [m.head.p, m.head.q] {
            let v = m.params.value(t);
            let std = (v.frob_sq() / v.len() as f64).sqrt();
            assert!((std - 0.1).abs() < 0.01, "std {std}");
        }
    }
}
