//! The naive baseline: matrix factorisation on the observed ratings only
//! (eq. (2) — unbiased under MCAR, biased otherwise).

use dt_autograd::Graph;
use dt_data::Dataset;
use dt_models::MfModel;
use dt_optim::Optimizer;
use dt_tensor::{SplitMix64, Tensor};

use crate::config::TrainConfig;
use crate::methods::common::run_epochs;
use crate::recommender::Recommender;

/// Plain MF trained with BCE on the observed log.
pub struct MfRecommender {
    model: MfModel,
    cfg: TrainConfig,
}

impl MfRecommender {
    /// A fresh model for the dataset's dimensions.
    #[must_use]
    pub fn new(ds: &Dataset, cfg: &TrainConfig, seed: u64) -> Self {
        cfg.validate();
        let mut rng = SplitMix64(seed);
        Self {
            model: MfModel::new(ds.n_users, ds.n_items, cfg.emb_dim, &mut rng),
            cfg: *cfg,
        }
    }
}

impl Recommender for MfRecommender {
    fn train(&mut self, ds: &Dataset, rng: &mut SplitMix64) -> (Vec<f64>, Vec<f64>) {
        let cfg = self.cfg;
        let mut opt = cfg.adam();
        run_epochs(self, ds, &cfg, rng, None, |rec, b, _| {
            let mut g = Graph::new();
            let logits = rec.model.head().logits(&mut g, &b.users, &b.items);
            let y = g.constant(Tensor::col_vec(&b.ratings));
            let loss = g.bce_mean(logits, y);
            opt.minimize(g, loss, &mut rec.model.params)
        })
    }

    fn predict(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        self.model.head().predict_pairs(pairs)
    }

    fn scoring_index(&self) -> Option<dt_serve::ScoringIndex> {
        Some(self.model.head().scoring_index())
    }

    fn n_parameters(&self) -> usize {
        self.model.n_parameters()
    }

    fn name(&self) -> &'static str {
        "MF"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_data::{mechanism_dataset, Mechanism, MechanismConfig};

    #[test]
    fn training_reduces_loss() {
        let ds = mechanism_dataset(
            Mechanism::Mcar,
            &MechanismConfig {
                n_users: 40,
                n_items: 50,
                target_density: 0.2,
                seed: 6,
                ..MechanismConfig::default()
            },
        );
        let cfg = TrainConfig {
            epochs: 8,
            ..TrainConfig::default()
        };
        let mut m = MfRecommender::new(&ds, &cfg, 0);
        let mut rng = SplitMix64(1);
        let rep = m.fit(&ds, &mut rng);
        assert_eq!(rep.loss_trace.len(), 8);
        assert!(rep.loss_trace[0] > rep.final_loss, "{:?}", rep.loss_trace);
        assert!(rep.final_loss < 0.69, "below chance-level BCE");
        assert!(rep.train_seconds > 0.0);
    }
}
