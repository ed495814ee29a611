//! CVIB (Wang et al., NeurIPS 2020): information-theoretic counterfactual
//! learning without propensities.
//!
//! The loss combines the factual BCE on observed pairs with (i) a
//! *contrastive balancing* term that aligns the average prediction on the
//! unobserved (counterfactual) domain with the observed one, and (ii) a
//! *confidence penalty* that rewards predictive entropy. We implement the
//! published objective's structure:
//!
//! ```text
//! L = BCE_O(r̂) + α·[ −p̄_O·ln p̄_miss − (1 − p̄_O)·ln(1 − p̄_miss) ] − γ·H(r̂)
//! ```
//!
//! where `p̄_O` / `p̄_miss` are mean predictions over the observed batch
//! and a sampled unobserved batch, and `H` is the mean binary entropy over
//! both.

use dt_autograd::Graph;
use dt_data::Dataset;
use dt_models::MfModel;
use dt_optim::Optimizer;
use dt_tensor::{SplitMix64, Tensor};

use crate::config::TrainConfig;
use crate::methods::common::{run_epochs, uniform_batch};
use crate::recommender::Recommender;

/// The CVIB trainer.
pub struct CvibRecommender {
    model: MfModel,
    cfg: TrainConfig,
}

impl CvibRecommender {
    /// A fresh model.
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

impl Recommender for CvibRecommender {
    fn train(&mut self, ds: &Dataset, rng: &mut SplitMix64) -> (Vec<f64>, Vec<f64>) {
        let observed_set = ds.train.pair_set();
        let cfg = self.cfg;
        let h = cfg.hyper;
        let mut opt = cfg.adam();

        run_epochs(self, ds, &cfg, rng, None, |rec, b, rng| {
            let ub = uniform_batch(ds, b.len(), &observed_set, rng);
            let mut g = Graph::new();

            // Factual loss.
            let logits = rec.model.logits(&mut g, &b.users, &b.items);
            let y = g.constant(Tensor::col_vec(&b.ratings));
            let factual = g.bce_mean(logits, y);

            // Contrastive balancing between domains.
            let pred_obs0 = g.sigmoid(logits);
            let pred_obs = g.mean(pred_obs0);
            let miss_logits = rec.model.logits(&mut g, &ub.users, &ub.items);
            let pred_miss0 = g.sigmoid(miss_logits);
            let pred_miss1 = g.mean(pred_miss0);
            let pred_miss = g.clamp(pred_miss1, 1e-6, 1.0 - 1e-6);
            let ln_miss = g.ln(pred_miss);
            let t1 = g.mul(pred_obs, ln_miss);
            let one = g.scalar(1.0);
            let om_obs = g.sub(one, pred_obs);
            let om_miss = {
                let one2 = g.scalar(1.0);
                g.sub(one2, pred_miss)
            };
            let ln_om = g.ln(om_miss);
            let t2 = g.mul(om_obs, ln_om);
            let s = g.add(t1, t2);
            let contrastive = g.neg(s);

            // Confidence penalty: reward entropy on both domains.
            let probs_all = {
                let p1 = g.sigmoid(logits);
                let p2 = g.sigmoid(miss_logits);
                // both are n×1; stack as one row vector
                let r1 = g.transpose(p1);
                let r2 = g.transpose(p2);
                g.concat_cols(r1, r2)
            };
            let entropy = g.entropy_penalty(probs_all);

            let cw = g.mul_scalar(contrastive, h.alpha);
            let ew = g.mul_scalar(entropy, -h.gamma);
            let l1 = g.add(factual, cw);
            let loss = g.add(l1, ew);
            opt.minimize(g, loss, &mut rec.model.params)
        })
    }

    fn predict(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        self.model.predict(pairs)
    }

    fn scoring_index(&self) -> Option<dt_serve::ScoringIndex> {
        Some(self.model.scoring_index())
    }

    fn n_parameters(&self) -> usize {
        self.model.n_parameters()
    }

    fn name(&self) -> &'static str {
        "CVIB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_data::{mechanism_dataset, Mechanism, MechanismConfig};

    #[test]
    fn trains_and_balances_domains() {
        let ds = mechanism_dataset(
            Mechanism::Mnar,
            &MechanismConfig {
                n_users: 40,
                n_items: 50,
                target_density: 0.15,
                seed: 15,
                ..MechanismConfig::default()
            },
        );
        let cfg = TrainConfig {
            epochs: 6,
            hyper: crate::Hyper {
                alpha: 0.5,
                gamma: 0.01,
                ..crate::Hyper::default()
            },
            ..TrainConfig::default()
        };
        let mut m = CvibRecommender::new(&ds, &cfg, 0);
        let mut rng = SplitMix64(1);
        let rep = m.fit(&ds, &mut rng);
        assert!(rep.final_loss.is_finite());
        // With the balancing term, the observed/unobserved mean-prediction
        // gap should stay moderate despite MNAR training data.
        let obs_mean: f64 = ds
            .train
            .interactions()
            .iter()
            .take(300)
            .map(|it| m.predict(&[(it.user as usize, it.item as usize)])[0])
            .sum::<f64>()
            / 300.0;
        let mut unif_mean = 0.0;
        for k in 0..300 {
            unif_mean += m.predict(&[(k % ds.n_users, (13 * k) % ds.n_items)])[0];
        }
        unif_mean /= 300.0;
        assert!(
            (obs_mean - unif_mean).abs() < 0.45,
            "domain gap {obs_mean} vs {unif_mean}"
        );
    }
}
