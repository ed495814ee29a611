//! The `Recommender` trait and evaluation driver.

use std::time::Instant;

use dt_data::Dataset;
use dt_metrics::{auc, evaluate_ranking, mae, mse};
use dt_serve::{PanelDtype, ScoringIndex, SeenLists, TopKBatch, TopKEngine};
use dt_tensor::topk::select_top_k;
use dt_tensor::SplitMix64;

/// What every training method exposes to the experiment harness.
pub trait Recommender {
    /// Trains on the dataset's (biased) training log through
    /// [`Recommender::train`] and reports the run. `train_seconds` spans
    /// the whole of `train`, stage-one propensity fits included.
    fn fit(&mut self, ds: &Dataset, rng: &mut SplitMix64) -> FitReport {
        let start = Instant::now(); // lint: allow(r4): training wall time for the report; never feeds the numerics
        let (loss_trace, aux_trace) = self.train(ds, rng);
        FitReport {
            epochs_run: loss_trace.len(),
            final_loss: loss_trace.last().copied().unwrap_or(f64::NAN),
            loss_trace,
            aux_trace,
            train_seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// The training run behind [`Recommender::fit`]. Returns the mean
    /// training loss of each epoch and the method's auxiliary trace
    /// ([`FitReport::aux_trace`]).
    fn train(&mut self, ds: &Dataset, rng: &mut SplitMix64) -> (Vec<f64>, Vec<f64>);

    /// Predicted conversion/rating probability for each pair.
    fn predict(&self, pairs: &[(usize, usize)]) -> Vec<f64>;

    /// Total scalar parameter count (Table II / Table VI).
    fn n_parameters(&self) -> usize;

    /// Display name.
    fn name(&self) -> &'static str;

    /// Learned propensity for a pair, when the method has a propensity
    /// model (used by the calibration diagnostics).
    fn propensity(&self, _user: usize, _item: usize) -> Option<f64> {
        None
    }

    /// A dense serving index over the method's ranking scores, when its
    /// scorer is MF-family (panels + biases). Powers the fast path of
    /// [`Recommender::recommend_top_k`]; `None` (the default) falls back
    /// to scoring the catalog through [`Recommender::predict`].
    fn scoring_index(&self) -> Option<ScoringIndex> {
        None
    }

    /// Batched full-catalog retrieval: the top `k` unseen items for each
    /// queried user over a catalog of `n_items`, best first.
    ///
    /// Methods exposing a [`Recommender::scoring_index`] export it at
    /// `PanelDtype::F64` and run the fused range-sharded scan
    /// ([`TopKEngine::recommend_quantized`], DESIGN.md section 15), which
    /// is bit-identical to the block-GEMM reference
    /// [`TopKEngine::recommend`]; the rest score the catalog per user
    /// through [`Recommender::predict`]. Both paths break ties the same
    /// way (score descending, item id ascending), so rankings agree
    /// whenever the index logits are a monotone transform of the
    /// predictions.
    ///
    /// # Panics
    /// Panics when an index is present but built for a different catalog
    /// size, or a user/seen-list id is out of bounds.
    #[must_use]
    fn recommend_top_k(
        &self,
        users: &[usize],
        n_items: usize,
        k: usize,
        seen: Option<&SeenLists>,
    ) -> TopKBatch {
        if let Some(index) = self.scoring_index() {
            assert_eq!(
                index.n_items(),
                n_items,
                "recommend_top_k: index built for {} items, asked for {n_items}",
                index.n_items()
            );
            let scan = index.quantize(PanelDtype::F64);
            return TopKEngine::new().recommend_quantized(&scan, users, k, seen);
        }
        let mut out = TopKBatch::new();
        out.reset(users.len(), k);
        if users.is_empty() || k == 0 {
            return out;
        }
        let mut pairs = Vec::with_capacity(n_items);
        for (j, &u) in users.iter().enumerate() {
            pairs.clear();
            pairs.extend((0..n_items).map(|i| (u, i)));
            let scores = self.predict(&pairs);
            let exclude = seen.map_or(&[][..], |s| s.seen(u));
            let filled = select_top_k(&scores, exclude, out.user_mut(j));
            out.set_count(j, filled);
        }
        out
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// Epochs actually run.
    pub epochs_run: usize,
    /// Final epoch's mean training loss.
    pub final_loss: f64,
    /// Mean training loss per epoch.
    pub loss_trace: Vec<f64>,
    /// Method-specific auxiliary trace (the DT methods record the
    /// disentangling-loss scale per epoch — the paper's Figure 4(c,d)).
    pub aux_trace: Vec<f64>,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
}

/// Metrics of one model on one dataset (the columns of Tables III/IV).
#[derive(Debug, Clone, Copy)]
pub struct EvalReport {
    /// AUC over the unbiased test log.
    pub auc: f64,
    /// NDCG@K over the test log.
    pub ndcg: f64,
    /// Recall@K over the test log.
    pub recall: f64,
    /// MSE against the ground-truth preference over the full space (only
    /// meaningful for generated datasets; `NaN` otherwise).
    pub mse_vs_truth: f64,
    /// MAE against the ground-truth preference (ditto).
    pub mae_vs_truth: f64,
}

/// Evaluates a fitted model: ranking/AUC on the unbiased test log, plus
/// pointwise error against the oracle preference when available.
///
/// For datasets with a ground truth but a large space, the pointwise
/// metrics are computed over a deterministic stride of at most ~200k cells.
#[must_use]
pub fn evaluate(model: &dyn Recommender, ds: &Dataset, k: usize) -> EvalReport {
    // Ranking + AUC over the test log.
    let (auc_v, ndcg_v, recall_v) = if ds.test.is_empty() {
        (f64::NAN, f64::NAN, f64::NAN)
    } else {
        let pairs: Vec<(usize, usize)> = ds
            .test
            .interactions()
            .iter()
            .map(|it| (it.user as usize, it.item as usize))
            .collect();
        let scores = model.predict(&pairs);
        let labels: Vec<f64> = ds.test.interactions().iter().map(|it| it.rating).collect();
        let rank = evaluate_ranking(&ds.test, &scores, k);
        (auc(&scores, &labels), rank.ndcg, rank.recall)
    };

    // Pointwise error against the oracle preference.
    let (mse_v, mae_v) = match &ds.truth {
        None => (f64::NAN, f64::NAN),
        Some(truth) => {
            let total = ds.n_users * ds.n_items;
            let stride = (total / 200_000).max(1);
            let mut pairs = Vec::with_capacity(total / stride + 1);
            let mut cell = 0usize;
            while cell < total {
                pairs.push((cell / ds.n_items, cell % ds.n_items));
                cell += stride;
            }
            let pred = model.predict(&pairs);
            let target: Vec<f64> = pairs
                .iter()
                .map(|&(u, i)| truth.preference.get(u, i))
                .collect();
            (mse(&pred, &target), mae(&pred, &target))
        }
    };

    EvalReport {
        auc: auc_v,
        ndcg: ndcg_v,
        recall: recall_v,
        mse_vs_truth: mse_v,
        mae_vs_truth: mae_v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_data::{mechanism_dataset, Mechanism, MechanismConfig};

    /// An oracle "model" that predicts the true preference — evaluation
    /// should give it near-zero pointwise error and strong AUC.
    struct Oracle(dt_tensor::Tensor);

    impl Recommender for Oracle {
        fn train(&mut self, _ds: &Dataset, _rng: &mut SplitMix64) -> (Vec<f64>, Vec<f64>) {
            (Vec::new(), Vec::new())
        }
        fn predict(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
            pairs.iter().map(|&(u, i)| self.0.get(u, i)).collect()
        }
        fn n_parameters(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "oracle"
        }
    }

    #[test]
    fn oracle_evaluates_perfectly() {
        let ds = mechanism_dataset(
            Mechanism::Mnar,
            &MechanismConfig {
                n_users: 50,
                n_items: 60,
                seed: 9,
                ..MechanismConfig::default()
            },
        );
        let oracle = Oracle(ds.truth.as_ref().unwrap().preference.clone());
        let rep = evaluate(&oracle, &ds, 5);
        assert!(rep.mse_vs_truth < 1e-12);
        assert!(rep.mae_vs_truth < 1e-12);
        assert!(rep.auc > 0.6, "auc {}", rep.auc);
        assert!(rep.ndcg > 0.5);
    }

    /// An MF model served two ways: with its index (fast path) and with
    /// the index withheld (predict fallback).
    struct Served {
        model: dt_models::MfModel,
        expose_index: bool,
    }

    impl Recommender for Served {
        fn train(&mut self, _ds: &Dataset, _rng: &mut SplitMix64) -> (Vec<f64>, Vec<f64>) {
            (Vec::new(), Vec::new())
        }
        fn predict(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
            self.model.predict(pairs)
        }
        fn n_parameters(&self) -> usize {
            self.model.n_parameters()
        }
        fn name(&self) -> &'static str {
            "served"
        }
        fn scoring_index(&self) -> Option<ScoringIndex> {
            self.expose_index.then(|| self.model.scoring_index())
        }
    }

    #[test]
    fn fast_path_and_predict_fallback_rank_identically() {
        // Small random weights keep the logits well inside the sigmoid's
        // non-saturating range, so distinct logits stay distinct after
        // expit and both paths face the same tie structure.
        let mut rng = SplitMix64(42);
        let model = dt_models::MfModel::new(12, 37, 4, &mut rng);
        let fast = Served {
            model,
            expose_index: true,
        };
        let users: Vec<usize> = (0..20).map(|j| (j * 5) % 12).collect();
        let seen = SeenLists::from_pairs(12, (0..12u32).flat_map(|u| [(u, u), (u, u + 9)]));
        let a = fast.recommend_top_k(&users, 37, 8, Some(&seen));
        let slow = Served {
            model: fast.model,
            expose_index: false,
        };
        let b = slow.recommend_top_k(&users, 37, 8, Some(&seen));
        assert_eq!(a.n_users(), b.n_users());
        for j in 0..users.len() {
            let fast_items: Vec<u32> = a.user(j).iter().map(|r| r.item).collect();
            let slow_items: Vec<u32> = b.user(j).iter().map(|r| r.item).collect();
            assert_eq!(fast_items, slow_items, "user-slot {j}");
        }
    }

    #[test]
    fn recommend_top_k_is_the_block_gemm_reference_bit_for_bit() {
        let mut rng = SplitMix64(23);
        let served = Served {
            model: dt_models::MfModel::new(9, 41, 4, &mut rng),
            expose_index: true,
        };
        let users: Vec<usize> = (0..12).map(|j| (j * 7) % 9).collect();
        let seen = SeenLists::from_pairs(9, (0..9u32).map(|u| (u, (u * 5) % 41)));
        let index = served.model.scoring_index();
        for seen in [None, Some(&seen)] {
            let served_batch = served.recommend_top_k(&users, 41, 5, seen);
            let reference = TopKEngine::new().recommend(&index, &users, 5, seen);
            // `TopKBatch` equality compares every slot's item and score.
            assert_eq!(served_batch, reference);
        }
    }

    #[test]
    #[should_panic(expected = "index built for")]
    fn mismatched_catalog_size_panics() {
        let mut rng = SplitMix64(1);
        let served = Served {
            model: dt_models::MfModel::new(3, 5, 2, &mut rng),
            expose_index: true,
        };
        let _ = served.recommend_top_k(&[0], 6, 2, None);
    }

    #[test]
    fn anti_oracle_has_low_auc() {
        let ds = mechanism_dataset(
            Mechanism::Mnar,
            &MechanismConfig {
                n_users: 50,
                n_items: 60,
                seed: 9,
                ..MechanismConfig::default()
            },
        );
        let anti = Oracle(ds.truth.as_ref().unwrap().preference.map(|p| 1.0 - p));
        let rep = evaluate(&anti, &ds, 5);
        assert!(rep.auc < 0.4, "auc {}", rep.auc);
        assert!(rep.mse_vs_truth > 0.01);
    }
}
