//! The doubly-robust family (eq. (4)) and its refinements.
//!
//! One parameterised trainer covers eight published variants; they differ
//! only in the imputation model, its training weight `w(p̂)`, whether a
//! targeted correction is applied, and whether the weights are
//! self-normalised:
//!
//! | Variant | Imputation | Imputation weight | Extra |
//! |---|---|---|---|
//! | `Vanilla` (DR)      | constant (EMA of observed error) | — | |
//! | `Tdr` (TDR)         | constant + targeted `ε/p̂`       | — | zeroes the empirical DR bias |
//! | `JointLearning` (DR-JL) | learned MF | `1/p̂`          | alternating updates |
//! | `Mrdr` (MRDR-JL)    | learned MF | `(1−p̂)/p̂²`         | variance-minimising |
//! | `Bias` (DR-BIAS)    | learned MF | `(1−p̂)²/p̂²`        | bias-targeting |
//! | `Mse` (DR-MSE)      | learned MF | λ-mixture of the two | bias–variance trade-off |
//! | `TdrJl` (TDR-JL)    | learned MF + targeted `ε/p̂` | `1/p̂` | |
//! | `Stable` (Stable-DR)| learned MF | self-normalised `1/p̂` | SNIPS-style denominators |

use dt_autograd::Graph;
use dt_data::Dataset;
use dt_models::propensity::LogisticMfPropensity;
use dt_models::MfModel;
use dt_optim::Optimizer;
use dt_tensor::{SplitMix64, Tensor};

use crate::config::TrainConfig;
use crate::methods::common::{fit_mar_propensity, inverse_propensities, run_epochs, uniform_batch};
use crate::recommender::Recommender;

/// Which member of the DR family to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrVariant {
    /// Vanilla DR with a constant imputation.
    Vanilla,
    /// Targeted DR (constant imputation + closed-form correction).
    Tdr,
    /// DR joint learning (Wang et al. 2019).
    JointLearning,
    /// More-robust DR (Guo et al. 2021).
    Mrdr,
    /// Bias-targeting imputation weight (Dai et al. 2022).
    Bias,
    /// λ-mixture of the MRDR and BIAS objectives (Dai et al. 2022).
    Mse,
    /// Targeted DR with joint learning (Li et al. 2023).
    TdrJl,
    /// Stabilised DR with self-normalised weights (Li et al. 2023).
    Stable,
}

impl DrVariant {
    fn learns_imputation(self) -> bool {
        !matches!(self, DrVariant::Vanilla | DrVariant::Tdr)
    }

    fn targeted(self) -> bool {
        matches!(self, DrVariant::Tdr | DrVariant::TdrJl)
    }

    fn display_name(self) -> &'static str {
        match self {
            DrVariant::Vanilla => "DR",
            DrVariant::Tdr => "TDR",
            DrVariant::JointLearning => "DR-JL",
            DrVariant::Mrdr => "MRDR-JL",
            DrVariant::Bias => "DR-BIAS",
            DrVariant::Mse => "DR-MSE",
            DrVariant::TdrJl => "TDR-JL",
            DrVariant::Stable => "Stable-DR",
        }
    }
}

/// The parameterised DR trainer.
pub struct DrRecommender {
    model: MfModel,
    imputation: Option<MfModel>,
    const_imp: f64,
    prop: Option<LogisticMfPropensity>,
    cfg: TrainConfig,
    variant: DrVariant,
}

impl DrRecommender {
    /// A fresh model of the requested variant.
    #[must_use]
    pub fn new(ds: &Dataset, cfg: &TrainConfig, variant: DrVariant, seed: u64) -> Self {
        cfg.validate();
        let mut rng = SplitMix64(seed);
        let model = MfModel::new(ds.n_users, ds.n_items, cfg.emb_dim, &mut rng);
        let imputation = variant
            .learns_imputation()
            .then(|| MfModel::new(ds.n_users, ds.n_items, cfg.emb_dim, &mut rng));
        Self {
            model,
            imputation,
            const_imp: 0.5,
            prop: None,
            cfg: *cfg,
            variant,
        }
    }

    /// The imputation model's pseudo-labels `r̃` for a set of pairs (plain
    /// values). The imputed error is `ê = (r̂ − r̃)²`, which keeps ê a live
    /// function of the prediction model — the channel through which the
    /// imputation supervises the unobserved space in DR-JL.
    fn pseudo_labels(&self, users: &[usize], items: &[usize]) -> Vec<f64> {
        match &self.imputation {
            Some(m) => m.head().predict(users, items),
            None => vec![self.const_imp; users.len()],
        }
    }

    /// Imputation training weight per observed example.
    fn imputation_weight(&self, inv_p: &[f64]) -> Vec<f64> {
        let lambda = self.cfg.hyper.lambda;
        inv_p
            .iter()
            .map(|&ip| {
                let p = 1.0 / ip;
                match self.variant {
                    DrVariant::JointLearning | DrVariant::TdrJl | DrVariant::Stable => ip,
                    DrVariant::Mrdr => (1.0 - p) * ip * ip,
                    DrVariant::Bias => (1.0 - p) * (1.0 - p) * ip * ip,
                    DrVariant::Mse => {
                        lambda * (1.0 - p) * ip * ip
                            + (1.0 - lambda) * (1.0 - p) * (1.0 - p) * ip * ip
                    }
                    DrVariant::Vanilla | DrVariant::Tdr => ip,
                }
            })
            .collect()
    }
}

impl Recommender for DrRecommender {
    fn train(&mut self, ds: &Dataset, rng: &mut SplitMix64) -> (Vec<f64>, Vec<f64>) {
        let cfg = self.cfg;
        let prop = fit_mar_propensity(ds, &cfg, rng);
        let observed_set = ds.train.pair_set();
        let density = ds.train.density();

        let mut opt_pred = cfg.adam();
        let mut opt_imp = cfg.adam();
        let traces = run_epochs(self, ds, &cfg, rng, None, |rec, b, rng| {
            let ub = uniform_batch(ds, b.len(), &observed_set, rng);
            let inv_p = inverse_propensities(&prop, &b.users, &b.items, cfg.prop_clip);
            let inv_p_unif = inverse_propensities(&prop, &ub.users, &ub.items, cfg.prop_clip);

            // --- pseudo-labels (treated as given by the prediction
            //     step; ê = (r̂ − r̃)² stays live in the prediction
            //     model) ---------------------------------------------
            let r_tilde_obs = rec.pseudo_labels(&b.users, &b.items);
            let r_tilde_unif = rec.pseudo_labels(&ub.users, &ub.items);

            // Current prediction errors as values (for the targeted
            // correction and the imputation step).
            let preds = rec.model.head().predict(&b.users, &b.items);
            let e_vals: Vec<f64> = preds
                .iter()
                .zip(&b.ratings)
                .map(|(p, r)| (p - r) * (p - r))
                .collect();
            let e_hat_vals: Vec<f64> = preds
                .iter()
                .zip(&r_tilde_obs)
                .map(|(p, rt)| (p - rt) * (p - rt))
                .collect();

            // Targeted correction (TDR): ε zeroes the empirical DR bias
            // term Σ[(e − ê − ε/p̂)/p̂] ⇒ ε = Σ[(e−ê)/p̂] / Σ[1/p̂²].
            // ε enters the loss as a constant shift (its gradient
            // channel is the corrected imputation target below).
            let eps = if rec.variant.targeted() {
                let num: f64 = e_vals
                    .iter()
                    .zip(&e_hat_vals)
                    .zip(&inv_p)
                    .map(|((e, eh), ip)| (e - eh) * ip)
                    .sum();
                let den: f64 = inv_p.iter().map(|ip| ip * ip).sum::<f64>().max(1e-12);
                num / den
            } else {
                0.0
            };

            // --- prediction step --------------------------------------
            let batch_loss = {
                let mut g = Graph::new();
                let logits = rec.model.head().logits(&mut g, &b.users, &b.items);
                let pred = g.sigmoid(logits);
                let y = g.constant(Tensor::col_vec(&b.ratings));
                let err = g.squared_error(pred, y);
                // ê_obs = (r̂ − r̃)², live in the prediction model.
                let rt = g.constant(Tensor::col_vec(&r_tilde_obs));
                let e_hat_obs = g.squared_error(pred, rt);
                let eps_shift: Vec<f64> = inv_p.iter().map(|ip| eps * ip).collect();
                let eps_v = g.constant(Tensor::col_vec(&eps_shift));
                let diff0 = g.sub(err, e_hat_obs);
                let diff = g.sub(diff0, eps_v);
                let w = g.constant(Tensor::col_vec(&inv_p));
                let correction = if rec.variant == DrVariant::Stable {
                    g.self_normalized_mean(w, diff)
                } else {
                    let wm = g.weighted_mean(w, diff);
                    g.mul_scalar(wm, density)
                };
                // Base term over the uniform full-space sample:
                // mean[(r̂ − r̃)²] — this is where the pseudo-labels
                // supervise the unobserved pairs.
                let logits_u = rec.model.head().logits(&mut g, &ub.users, &ub.items);
                let pred_u = g.sigmoid(logits_u);
                let rt_u = g.constant(Tensor::col_vec(&r_tilde_unif));
                let e_hat_unif = g.squared_error(pred_u, rt_u);
                let base0 = g.mean(e_hat_unif);
                let eps_base: f64 =
                    eps * inv_p_unif.iter().sum::<f64>() / inv_p_unif.len().max(1) as f64;
                let eps_b = g.scalar(eps_base);
                let base = g.add(base0, eps_b);
                let loss = g.add(base, correction);
                opt_pred.minimize(g, loss, &mut rec.model.params)
            };

            // --- imputation step --------------------------------------
            let weights = rec.imputation_weight(&inv_p);
            if let Some(imp) = &mut rec.imputation {
                // Train r̃ so the implied error (r̂ − r̃)² matches the
                // realized error (ε-corrected for the targeted
                // variants), with the variant's weighting.
                let targets: Vec<f64> = e_vals
                    .iter()
                    .zip(&inv_p)
                    .map(|(e, ip)| (e - eps * ip).max(0.0))
                    .collect();
                let mut g = Graph::new();
                let logits = imp.head().logits(&mut g, &b.users, &b.items);
                let rt = g.sigmoid(logits);
                let rhat = g.constant(Tensor::col_vec(&preds));
                let e_imp = g.squared_error(rhat, rt);
                let tv = g.constant(Tensor::col_vec(&targets));
                let diff_sq = g.squared_error(e_imp, tv);
                let w = g.constant(Tensor::col_vec(&weights));
                let imp_loss = if rec.variant == DrVariant::Stable {
                    g.self_normalized_mean(w, diff_sq)
                } else {
                    g.weighted_mean(w, diff_sq)
                };
                opt_imp.minimize(g, imp_loss, &mut imp.params);
            } else {
                // Constant pseudo-label: exponential moving average of
                // the observed ratings.
                let batch_mean = b.ratings.iter().sum::<f64>() / b.ratings.len().max(1) as f64;
                rec.const_imp = 0.9 * rec.const_imp + 0.1 * batch_mean;
            }
            batch_loss
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
        // Prediction + propensity (+ imputation): Table II's 3× embedding
        // row for the learned-imputation variants.
        let prop_params = self.prop.as_ref().map_or_else(
            || self.model.n_parameters() / 2,
            LogisticMfPropensity::n_parameters,
        );
        self.model.n_parameters()
            + prop_params
            + self.imputation.as_ref().map_or(0, MfModel::n_parameters)
    }

    fn name(&self) -> &'static str {
        self.variant.display_name()
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
            Mechanism::Mnar,
            &MechanismConfig {
                n_users: 40,
                n_items: 50,
                target_density: 0.15,
                seed: 8,
                ..MechanismConfig::default()
            },
        )
    }

    #[test]
    fn every_variant_trains_to_finite_loss() {
        let ds = dataset();
        let cfg = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        for variant in [
            DrVariant::Vanilla,
            DrVariant::Tdr,
            DrVariant::JointLearning,
            DrVariant::Mrdr,
            DrVariant::Bias,
            DrVariant::Mse,
            DrVariant::TdrJl,
            DrVariant::Stable,
        ] {
            let mut m = DrRecommender::new(&ds, &cfg, variant, 0);
            let mut rng = SplitMix64(1);
            let rep = m.fit(&ds, &mut rng);
            assert!(
                rep.final_loss.is_finite(),
                "{}: loss {:?}",
                variant.display_name(),
                rep.loss_trace
            );
            let preds = m.predict(&[(0, 0), (10, 20)]);
            assert!(preds.iter().all(|p| (0.0..=1.0).contains(p)));
        }
    }

    #[test]
    fn learned_imputation_variants_have_more_parameters() {
        let ds = dataset();
        let cfg = TrainConfig::default();
        let vanilla = DrRecommender::new(&ds, &cfg, DrVariant::Vanilla, 0);
        let jl = DrRecommender::new(&ds, &cfg, DrVariant::JointLearning, 0);
        assert!(jl.n_parameters() > vanilla.n_parameters());
    }

    #[test]
    fn imputation_weights_match_formulas() {
        let ds = dataset();
        let cfg = TrainConfig::default();
        let inv_p = [2.0, 10.0]; // p = 0.5, 0.1
        let w_jl =
            DrRecommender::new(&ds, &cfg, DrVariant::JointLearning, 0).imputation_weight(&inv_p);
        assert_eq!(w_jl, vec![2.0, 10.0]);
        let w_mrdr = DrRecommender::new(&ds, &cfg, DrVariant::Mrdr, 0).imputation_weight(&inv_p);
        assert!((w_mrdr[0] - 0.5 * 4.0).abs() < 1e-12);
        assert!((w_mrdr[1] - 0.9 * 100.0).abs() < 1e-12);
        let w_bias = DrRecommender::new(&ds, &cfg, DrVariant::Bias, 0).imputation_weight(&inv_p);
        assert!((w_bias[1] - 0.81 * 100.0).abs() < 1e-12);
    }

    #[test]
    fn targeted_correction_zeroes_the_empirical_bias_term() {
        // Directly check the ε formula on synthetic numbers.
        let e = [0.5, 0.2, 0.9];
        let eh = [0.3, 0.3, 0.3];
        let inv_p = [2.0, 4.0, 5.0];
        let num: f64 = e
            .iter()
            .zip(&eh)
            .zip(&inv_p)
            .map(|((e, eh), ip)| (e - eh) * ip)
            .sum();
        let den: f64 = inv_p.iter().map(|ip| ip * ip).sum();
        let eps = num / den;
        let corrected: f64 = e
            .iter()
            .zip(&eh)
            .zip(&inv_p)
            .map(|((e, eh), ip)| (e - (eh + eps * ip)) * ip)
            .sum();
        assert!(corrected.abs() < 1e-12);
    }
}
