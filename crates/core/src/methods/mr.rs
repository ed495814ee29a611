//! MR — multiple robust learning (Li et al., AAAI 2023).
//!
//! Instead of betting on one propensity model and one imputation model, MR
//! maintains *candidate sets* of both and learns a convex combination; the
//! estimator is unbiased if any candidate (or a linear combination of
//! them) is accurate. Our candidate sets:
//!
//! * propensities — {constant `P(o=1)`, logistic-MF `P(o=1|x)`,
//!   Naive-Bayes `P(o=1|r)` when a test slice exists};
//! * imputations — {zero, constant EMA of observed error}.
//!
//! The combination weights are trained (softmax-parameterised) to minimise
//! the squared *self-diagnostic* of the DR estimator — the empirical bias
//! term `mean_O[(e − ê)·(w − 1/density)]`-style residual used by the MR
//! objective — alongside the prediction model's DR loss.

use dt_autograd::Graph;
use dt_data::Dataset;
use dt_models::propensity::{clipped, ConstantPropensity, NaiveBayesAdapter, PropensityHead};
use dt_models::MfModel;
use dt_optim::Optimizer;
use dt_tensor::{SplitMix64, Tensor};

use crate::config::TrainConfig;
use crate::methods::common::{fit_mar_propensity, run_epochs};
use crate::recommender::Recommender;

/// The MR trainer.
pub struct MrRecommender {
    model: MfModel,
    cfg: TrainConfig,
    /// Softmax logits over the propensity candidates.
    mix_logits: Vec<f64>,
    heads: Vec<Box<dyn PropensityHead>>,
    const_imp: f64,
}

impl MrRecommender {
    /// A fresh model.
    #[must_use]
    pub fn new(ds: &Dataset, cfg: &TrainConfig, seed: u64) -> Self {
        cfg.validate();
        let mut rng = SplitMix64(seed);
        Self {
            model: MfModel::new(ds.n_users, ds.n_items, cfg.emb_dim, &mut rng),
            cfg: *cfg,
            mix_logits: Vec::new(),
            heads: Vec::new(),
            const_imp: 0.25,
        }
    }
}

/// The mixture weights: a softmax over the mixture logits.
fn softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
    let total: f64 = exps.iter().sum();
    exps.iter().map(|e| e / total).collect()
}

/// Combined inverse propensity `Σ_h w_h / p_h` of each of a batch's `n`
/// examples, from each candidate's clipped propensities over the batch.
fn combined_inverse(weights: &[f64], props: &[Vec<f64>], n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| weights.iter().zip(props).map(|(w, p)| w / p[k]).sum())
        .collect()
}

impl Recommender for MrRecommender {
    fn train(&mut self, ds: &Dataset, rng: &mut SplitMix64) -> (Vec<f64>, Vec<f64>) {
        let cfg = self.cfg;
        // Build the candidate set.
        self.heads = vec![Box::new(ConstantPropensity::fit(ds))];
        let logistic = fit_mar_propensity(ds, &cfg, rng);
        self.heads.push(Box::new(logistic));
        if !ds.test.is_empty() {
            self.heads
                .push(Box::new(NaiveBayesAdapter::fit(ds, cfg.prop_clip)));
        }
        self.mix_logits = vec![0.0; self.heads.len()];

        let density = ds.train.density();
        let mut opt = cfg.adam();
        let (losses, _) = run_epochs(self, ds, &cfg, rng, None, |rec, b, _| {
            // Each candidate's clipped propensities, scored once per step.
            let props: Vec<Vec<f64>> = rec
                .heads
                .iter()
                .map(|h| clipped(h.propensity(&b.users, &b.items, &b.ratings), cfg.prop_clip))
                .collect();
            let inv_p = combined_inverse(&softmax(&rec.mix_logits), &props, b.len());

            // Prediction step: DR with the combined weights and the
            // constant imputation.
            let e_vals: Vec<f64>;
            let batch_loss = {
                let mut g = Graph::new();
                let logits = rec.model.head().logits(&mut g, &b.users, &b.items);
                let pred = g.sigmoid(logits);
                let y = g.constant(Tensor::col_vec(&b.ratings));
                let err = g.squared_error(pred, y);
                let eh = g.constant(Tensor::full(b.len(), 1, rec.const_imp));
                let diff = g.sub(err, eh);
                let w = g.constant(Tensor::col_vec(&inv_p));
                let corr0 = g.weighted_mean(w, diff);
                let corr = g.mul_scalar(corr0, density);
                let base = g.scalar(rec.const_imp);
                let loss = g.add(base, corr);
                e_vals = g.value(err).data().to_vec();
                opt.minimize(g, loss, &mut rec.model.params)
            };
            rec.const_imp = 0.9 * rec.const_imp
                + 0.1 * (e_vals.iter().sum::<f64>() / e_vals.len().max(1) as f64);

            // Mixture step: nudge the weights to shrink the MR
            // self-diagnostic |mean_O[w·o] − 1| (a correct inverse
            // propensity satisfies E[o·w] = 1 over D, i.e.
            // density·mean_O[w] = 1). Numeric gradient over the few
            // mixture logits.
            let diagnostic = |logits: &[f64]| -> f64 {
                let mean_inv: f64 = combined_inverse(&softmax(logits), &props, b.len())
                    .iter()
                    .sum::<f64>()
                    / b.len().max(1) as f64;
                let resid = density * mean_inv - 1.0;
                resid * resid
            };
            let eps = 1e-4;
            let mut grads = vec![0.0; rec.mix_logits.len()];
            for k in 0..rec.mix_logits.len() {
                let mut plus = rec.mix_logits.clone();
                plus[k] += eps;
                let mut minus = rec.mix_logits.clone();
                minus[k] -= eps;
                grads[k] = (diagnostic(&plus) - diagnostic(&minus)) / (2.0 * eps);
            }
            for (l, gr) in rec.mix_logits.iter_mut().zip(&grads) {
                *l -= cfg.lr * gr;
            }
            batch_loss
        });
        (losses, softmax(&self.mix_logits))
    }

    fn predict(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        self.model.head().predict_pairs(pairs)
    }

    fn scoring_index(&self) -> Option<dt_serve::ScoringIndex> {
        Some(self.model.head().scoring_index())
    }

    fn n_parameters(&self) -> usize {
        // Prediction MF + logistic propensity candidate + mixture logits.
        self.model.n_parameters() + self.model.n_parameters() / 2 + self.mix_logits.len()
    }

    fn name(&self) -> &'static str {
        "MR"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_data::{mechanism_dataset, Mechanism, MechanismConfig};

    #[test]
    fn trains_and_learns_a_mixture() {
        let ds = mechanism_dataset(
            Mechanism::Mnar,
            &MechanismConfig {
                n_users: 40,
                n_items: 50,
                target_density: 0.15,
                seed: 17,
                ..MechanismConfig::default()
            },
        );
        let cfg = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        let mut m = MrRecommender::new(&ds, &cfg, 0);
        let mut rng = SplitMix64(1);
        let rep = m.fit(&ds, &mut rng);
        assert!(rep.final_loss.is_finite());
        // Three candidates (test slice exists): constant, logistic, NB.
        assert_eq!(rep.aux_trace.len(), 3);
        let total: f64 = rep.aux_trace.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to one");
        assert!(rep.aux_trace.iter().all(|&w| w > 0.0));
    }
}
