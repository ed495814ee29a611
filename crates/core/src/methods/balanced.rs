//! IPS-V2 / DR-V2 (Li et al., ICML 2023): balancing-enhanced propensities.
//!
//! The propensity model is trained with an additional *balancing*
//! regulariser: a correct inverse propensity transports the observed
//! feature distribution onto the full population, so the squared gap
//! between the inverse-propensity-weighted observed embedding mean and the
//! full-space embedding mean is pushed to zero. DR-V2 adds a learned
//! imputation model on top.

use dt_autograd::Graph;
use dt_data::Dataset;
use dt_models::MfModel;
use dt_optim::Optimizer;
use dt_tensor::{SplitMix64, Tensor};

use crate::config::TrainConfig;
use crate::methods::common::{run_epochs, uniform_batch};
use crate::recommender::Recommender;

/// IPS-V2 or DR-V2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancedVariant {
    /// Balancing-enhanced IPS.
    IpsV2,
    /// Balancing-enhanced DR.
    DrV2,
}

/// The balanced-propensity trainer.
pub struct BalancedRecommender {
    model: MfModel,
    prop_model: MfModel,
    imputation: Option<MfModel>,
    cfg: TrainConfig,
    variant: BalancedVariant,
}

impl BalancedRecommender {
    /// A fresh model.
    #[must_use]
    pub fn new(ds: &Dataset, cfg: &TrainConfig, variant: BalancedVariant, seed: u64) -> Self {
        cfg.validate();
        let mut rng = SplitMix64(seed);
        let model = MfModel::new(ds.n_users, ds.n_items, cfg.emb_dim, &mut rng);
        let prop_model = MfModel::new(ds.n_users, ds.n_items, (cfg.emb_dim / 2).max(2), &mut rng);
        let imputation = (variant == BalancedVariant::DrV2)
            .then(|| MfModel::new(ds.n_users, ds.n_items, cfg.emb_dim, &mut rng));
        Self {
            model,
            prop_model,
            imputation,
            cfg: *cfg,
            variant,
        }
    }

    fn clipped_prop(&self, user: usize, item: usize) -> f64 {
        dt_stats::expit(self.prop_model.score(user, item)).max(self.cfg.prop_clip)
    }
}

impl Recommender for BalancedRecommender {
    fn train(&mut self, ds: &Dataset, rng: &mut SplitMix64) -> (Vec<f64>, Vec<f64>) {
        let observed_set = ds.train.pair_set();
        let density = ds.train.density();
        let cfg = self.cfg;
        let lambda = cfg.hyper.lambda;

        let mut opt_prop = cfg.adam();
        let mut opt_pred = cfg.adam();
        let mut opt_imp = cfg.adam();
        run_epochs(self, ds, &cfg, rng, None, |rec, b, rng| {
            let ub = uniform_batch(ds, b.len(), &observed_set, rng);

            // --- propensity step: BCE over D̂ + balancing term --------
            {
                let mut g = Graph::new();
                let logits = rec.prop_model.logits(&mut g, &ub.users, &ub.items);
                let o = g.constant(Tensor::col_vec(&ub.observed));
                let bce = g.bce_mean(logits, o);

                // Balancing: prediction-model embeddings as the feature
                // map φ(x) (detached constants here).
                let phi_obs = {
                    let pairs: Vec<(usize, usize)> = b
                        .users
                        .iter()
                        .zip(&b.items)
                        .map(|(&u, &i)| (u, i))
                        .collect();
                    feature_map(&rec.model, &pairs)
                };
                let phi_unif = {
                    let pairs: Vec<(usize, usize)> = ub
                        .users
                        .iter()
                        .zip(&ub.items)
                        .map(|(&u, &i)| (u, i))
                        .collect();
                    feature_map(&rec.model, &pairs)
                };
                let obs_logits = rec.prop_model.logits(&mut g, &b.users, &b.items);
                let p = g.sigmoid(obs_logits);
                let pc = g.clamp(p, cfg.prop_clip, 1.0);
                let ones = g.constant(Tensor::ones(b.len(), 1));
                let inv_p = g.div(ones, pc); // n×1, live in the propensity
                let phi_o = g.constant(phi_obs);
                // broadcast inv_p across feature columns
                let cols = g.value(phi_o).cols();
                let ones_row = g.constant(Tensor::ones(1, cols));
                let inv_p_wide = g.matmul(inv_p, ones_row);
                let weighted = g.mul(inv_p_wide, phi_o);
                let obs_mean0 = g.col_sums(weighted);
                let obs_mean1 = g.mul_scalar(obs_mean0, density / b.len() as f64);
                let phi_u = g.constant(phi_unif);
                let unif_mean0 = g.col_sums(phi_u);
                let unif_mean = g.mul_scalar(unif_mean0, 1.0 / ub.users.len() as f64);
                let gap = g.sub(obs_mean1, unif_mean);
                let balance = g.frob_sq(gap);
                let bw = g.mul_scalar(balance, lambda);
                let prop_loss = g.add(bce, bw);
                opt_prop.minimize(g, prop_loss, &mut rec.prop_model.params);
            }

            // --- prediction step (IPS or DR with the balanced p̂) -----
            let inv_p: Vec<f64> = b
                .users
                .iter()
                .zip(&b.items)
                .map(|(&u, &i)| 1.0 / rec.clipped_prop(u, i))
                .collect();
            // Pseudo-labels from the imputation model (DR-V2 only).
            let r_tilde: Option<Vec<f64>> = rec
                .imputation
                .as_ref()
                .map(|imp| imp.predict_batch(&b.users, &b.items));
            let r_tilde_unif: Option<Vec<f64>> = rec
                .imputation
                .as_ref()
                .map(|imp| imp.predict_batch(&ub.users, &ub.items));
            let e_vals: Vec<f64>;
            let pred_vals: Vec<f64>;
            let batch_loss = {
                let mut g = Graph::new();
                let logits = rec.model.logits(&mut g, &b.users, &b.items);
                let pred = g.sigmoid(logits);
                let y = g.constant(Tensor::col_vec(&b.ratings));
                let err = g.squared_error(pred, y);
                let w = g.constant(Tensor::col_vec(&inv_p));
                let loss = match &r_tilde {
                    None => g.weighted_mean(w, err),
                    Some(rt) => {
                        // ê = (r̂ − r̃)², live in the prediction model.
                        let rtv = g.constant(Tensor::col_vec(rt));
                        let e_hat = g.squared_error(pred, rtv);
                        let diff = g.sub(err, e_hat);
                        let corr0 = g.weighted_mean(w, diff);
                        let corr = g.mul_scalar(corr0, density);
                        let logits_u = rec.model.logits(&mut g, &ub.users, &ub.items);
                        let pred_u = g.sigmoid(logits_u);
                        let rt_u = g.constant(Tensor::col_vec(
                            r_tilde_unif.as_ref().expect("DR-V2 has pseudo-labels"),
                        ));
                        let e_hat_u = g.squared_error(pred_u, rt_u);
                        let base = g.mean(e_hat_u);
                        g.add(base, corr)
                    }
                };
                e_vals = g.value(err).data().to_vec();
                pred_vals = g.value(pred).data().to_vec();
                opt_pred.minimize(g, loss, &mut rec.model.params)
            };

            // --- imputation step (DR-V2): train r̃ so the implied
            //     error (r̂ − r̃)² matches the realized error ----------
            if let Some(imp) = &mut rec.imputation {
                let mut g = Graph::new();
                let logits = imp.logits(&mut g, &b.users, &b.items);
                let rt = g.sigmoid(logits);
                let rhat = g.constant(Tensor::col_vec(&pred_vals));
                let e_imp = g.squared_error(rhat, rt);
                let ev = g.constant(Tensor::col_vec(&e_vals));
                let diff_sq = g.squared_error(e_imp, ev);
                let w = g.constant(Tensor::col_vec(&inv_p));
                let imp_loss = g.weighted_mean(w, diff_sq);
                opt_imp.minimize(g, imp_loss, &mut imp.params);
            }
            batch_loss
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
            + self.prop_model.n_parameters()
            + self.imputation.as_ref().map_or(0, MfModel::n_parameters)
    }

    fn name(&self) -> &'static str {
        match self.variant {
            BalancedVariant::IpsV2 => "IPS-V2",
            BalancedVariant::DrV2 => "DR-V2",
        }
    }

    fn propensity(&self, user: usize, item: usize) -> Option<f64> {
        Some(self.clipped_prop(user, item))
    }
}

/// The feature map φ(u, i): the prediction model's concatenated pair
/// embedding, as plain values.
fn feature_map(model: &MfModel, pairs: &[(usize, usize)]) -> Tensor {
    let preds = model.predict(pairs);
    // Use the model's predictions plus a constant as a low-dimensional
    // balancing feature: cheap, informative about x, and avoids reaching
    // into embedding internals.
    let mut t = Tensor::zeros(pairs.len(), 2);
    for (k, &p) in preds.iter().enumerate() {
        t.set(k, 0, 1.0);
        t.set(k, 1, p);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_data::{mechanism_dataset, Mechanism, MechanismConfig};

    #[test]
    fn both_variants_train_to_finite_loss() {
        let ds = mechanism_dataset(
            Mechanism::Mnar,
            &MechanismConfig {
                n_users: 40,
                n_items: 50,
                target_density: 0.15,
                seed: 18,
                ..MechanismConfig::default()
            },
        );
        let cfg = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        for variant in [BalancedVariant::IpsV2, BalancedVariant::DrV2] {
            let mut m = BalancedRecommender::new(&ds, &cfg, variant, 0);
            let mut rng = SplitMix64(1);
            let rep = m.fit(&ds, &mut rng);
            assert!(rep.final_loss.is_finite(), "{:?}", rep.loss_trace);
            assert!(m.propensity(0, 0).unwrap() >= cfg.prop_clip);
        }
    }

    #[test]
    fn balancing_keeps_weighted_mass_near_population() {
        // After training, density · mean_O[1/p̂] should be near 1 — the
        // balancing property.
        let ds = mechanism_dataset(
            Mechanism::Mnar,
            &MechanismConfig {
                n_users: 60,
                n_items: 70,
                target_density: 0.15,
                seed: 19,
                ..MechanismConfig::default()
            },
        );
        let cfg = TrainConfig {
            epochs: 8,
            hyper: crate::Hyper {
                lambda: 1.0,
                ..crate::Hyper::default()
            },
            ..TrainConfig::default()
        };
        let mut m = BalancedRecommender::new(&ds, &cfg, BalancedVariant::IpsV2, 0);
        let mut rng = SplitMix64(1);
        m.fit(&ds, &mut rng);
        let mean_inv: f64 = ds
            .train
            .interactions()
            .iter()
            .map(|it| 1.0 / m.clipped_prop(it.user as usize, it.item as usize))
            .sum::<f64>()
            / ds.train.len() as f64;
        let mass = ds.train.density() * mean_inv;
        assert!((mass - 1.0).abs() < 0.35, "weighted mass {mass}");
    }
}
