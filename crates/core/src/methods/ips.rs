//! Vanilla IPS (Schnabel et al. 2016): two-stage inverse propensity
//! scoring with a logistic-MF MAR propensity (eq. (3)).

use dt_autograd::Graph;
use dt_data::Dataset;
use dt_models::propensity::LogisticMfPropensity;
use dt_models::MfModel;
use dt_optim::Optimizer;
use dt_tensor::{SplitMix64, Tensor};

use crate::config::TrainConfig;
use crate::methods::common::{fit_mar_propensity, inverse_propensities, run_epochs};
use crate::recommender::Recommender;

/// Two-stage IPS: fit `p̂(x)`, then minimise the reweighted squared error
/// `mean_O[(r − r̂)² / p̂]`.
pub struct IpsRecommender {
    model: MfModel,
    prop: Option<LogisticMfPropensity>,
    cfg: TrainConfig,
}

impl IpsRecommender {
    /// A fresh (vanilla) IPS model.
    #[must_use]
    pub fn new(ds: &Dataset, cfg: &TrainConfig, seed: u64) -> Self {
        cfg.validate();
        let mut rng = SplitMix64(seed);
        Self {
            model: MfModel::new(ds.n_users, ds.n_items, cfg.emb_dim, &mut rng),
            prop: None,
            cfg: *cfg,
        }
    }
}

impl Recommender for IpsRecommender {
    fn train(&mut self, ds: &Dataset, rng: &mut SplitMix64) -> (Vec<f64>, Vec<f64>) {
        let cfg = self.cfg;
        // Stage 1: MAR propensity.
        let prop = fit_mar_propensity(ds, &cfg, rng);
        // Stage 2: reweighted prediction model.
        let mut opt = cfg.adam();
        let traces = run_epochs(self, ds, &cfg, rng, None, |rec, b, _| {
            let inv_p = inverse_propensities(&prop, &b.users, &b.items, cfg.prop_clip);
            let mut g = Graph::new();
            let logits = rec.model.head().logits(&mut g, &b.users, &b.items);
            let pred = g.sigmoid(logits);
            let y = g.constant(Tensor::col_vec(&b.ratings));
            let err = g.squared_error(pred, y);
            let w = g.constant(Tensor::col_vec(&inv_p));
            let loss = g.weighted_mean(w, err);
            opt.minimize(g, loss, &mut rec.model.params)
        });
        self.prop = Some(prop);
        traces
    }

    fn predict(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        self.model.head().predict_pairs(pairs)
    }

    fn scoring_index(&self) -> Option<dt_serve::ScoringIndex> {
        Some(self.model.head().scoring_index())
    }

    fn n_parameters(&self) -> usize {
        // Prediction MF + separate propensity MF: the paper's Table II
        // "2×" embedding row.
        self.model.n_parameters()
            + self.prop.as_ref().map_or_else(
                || self.model.n_parameters() / 2,
                LogisticMfPropensity::n_parameters,
            )
    }

    fn name(&self) -> &'static str {
        "IPS"
    }

    fn propensity(&self, pairs: &[(usize, usize)]) -> Option<Vec<f64>> {
        self.prop.as_ref().map(|p| p.predict_pairs(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_data::{mechanism_dataset, Mechanism, MechanismConfig};

    fn dataset() -> Dataset {
        mechanism_dataset(
            Mechanism::Mar,
            &MechanismConfig {
                n_users: 40,
                n_items: 50,
                target_density: 0.15,
                seed: 6,
                ..MechanismConfig::default()
            },
        )
    }

    #[test]
    fn fit_produces_finite_losses_and_propensities() {
        let ds = dataset();
        let cfg = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        let mut m = IpsRecommender::new(&ds, &cfg, 0);
        let mut rng = SplitMix64(1);
        let rep = m.fit(&ds, &mut rng);
        assert!(rep.final_loss.is_finite());
        let p = m.propensity(&[(0, 0)]).unwrap()[0];
        assert!(p > 0.0 && p <= 1.0);
    }
}
