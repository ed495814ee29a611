//! DIB (Liu et al., RecSys 2021): debiased information bottleneck.
//!
//! Embeddings are split into an *unbiased* and a *biased* component. Both
//! drive the training-time prediction (their logits add), but only the
//! unbiased component is used at test time — the biased block soaks up
//! exposure-driven signal. An orthogonality penalty keeps the components
//! independent, and a secondary loss makes the unbiased part predictive on
//! its own. Structurally this is the closest published relative of the
//! paper's DT method (which the paper also notes), differing in *where*
//! the auxiliary block is consumed: DIB discards it at test time, DT feeds
//! it to a propensity head.

use dt_autograd::Graph;
use dt_data::Dataset;
use dt_models::{DisentangledConfig, DisentangledMf};
use dt_optim::Optimizer;
use dt_tensor::{SplitMix64, Tensor};

use crate::config::TrainConfig;
use crate::methods::common::run_epochs;
use crate::recommender::Recommender;

/// The DIB trainer. Reuses [`DisentangledMf`]: the "primary" block is the
/// unbiased component (rating head), the full embedding is the biased
/// training-time predictor (propensity head doubling as the full-logit
/// head).
pub struct DibRecommender {
    model: DisentangledMf,
    cfg: TrainConfig,
}

impl DibRecommender {
    /// A fresh model.
    #[must_use]
    pub fn new(ds: &Dataset, cfg: &TrainConfig, seed: u64) -> Self {
        cfg.validate();
        let mut rng = SplitMix64(seed);
        Self {
            model: DisentangledMf::new(
                ds.n_users,
                ds.n_items,
                &DisentangledConfig {
                    total_dim: cfg.emb_dim,
                    primary_dim: cfg.primary_dim(),
                    init_scale: 0.1,
                },
                &mut rng,
            ),
            cfg: *cfg,
        }
    }
}

impl Recommender for DibRecommender {
    fn train(&mut self, ds: &Dataset, rng: &mut SplitMix64) -> (Vec<f64>, Vec<f64>) {
        let cfg = self.cfg;
        let h = cfg.hyper;
        let mut opt = cfg.adam();
        let scale: fn(&Self) -> f64 = |rec| rec.model.disentangle_scale();

        run_epochs(self, ds, &cfg, rng, Some(scale), |rec, b, _| {
            let mut g = Graph::new();

            // Training-time prediction uses the full embedding.
            let full_logits = rec.model.propensity_logits(&mut g, &b.users, &b.items);
            let y = g.constant(Tensor::col_vec(&b.ratings));
            let full_loss = g.bce_mean(full_logits, y);

            // The unbiased block must be predictive on its own.
            let unbiased_logits = rec.model.rating_logits(&mut g, &b.users, &b.items);
            let y2 = g.constant(Tensor::col_vec(&b.ratings));
            let unbiased_loss = g.bce_mean(unbiased_logits, y2);

            // Independence between the blocks.
            let ortho = rec.model.disentangle_loss(&mut g);

            let uw = g.mul_scalar(unbiased_loss, h.alpha);
            let ow = g.mul_scalar(ortho, h.beta);
            let l1 = g.add(full_loss, uw);
            let loss = g.add(l1, ow);
            opt.minimize(g, loss, &mut rec.model.params)
        })
    }

    fn predict(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        // Test time: unbiased component only.
        self.model.predict_rating_pairs(pairs)
    }

    fn n_parameters(&self) -> usize {
        self.model.n_parameters()
    }

    fn scoring_index(&self) -> Option<dt_serve::ScoringIndex> {
        Some(self.model.rating_scoring_index())
    }

    fn name(&self) -> &'static str {
        "DIB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_data::{mechanism_dataset, Mechanism, MechanismConfig};

    #[test]
    fn trains_and_test_path_uses_unbiased_block() {
        let ds = mechanism_dataset(
            Mechanism::Mnar,
            &MechanismConfig {
                n_users: 40,
                n_items: 50,
                target_density: 0.15,
                seed: 16,
                ..MechanismConfig::default()
            },
        );
        let cfg = TrainConfig {
            epochs: 5,
            hyper: crate::Hyper {
                alpha: 1.0,
                beta: 1e-3,
                ..crate::Hyper::default()
            },
            ..TrainConfig::default()
        };
        let mut m = DibRecommender::new(&ds, &cfg, 0);
        let mut rng = SplitMix64(1);
        let rep = m.fit(&ds, &mut rng);
        assert!(rep.final_loss.is_finite());
        assert!(rep.loss_trace[0] > rep.final_loss);
        // Prediction equals the rating head (unbiased block), not the full
        // head.
        let p = m.predict(&[(3, 7)])[0];
        assert!((p - m.model.predict_rating(3, 7)).abs() < 1e-12);
        assert!((p - m.model.predict_propensity(3, 7)).abs() > 1e-9);
    }
}
