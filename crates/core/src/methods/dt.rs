//! **The paper's contribution**: DT-IPS and DT-DR (§IV-B).
//!
//! A [`DisentangledMf`] carries embeddings `P = [P′, P″]`, `Q = [Q′, Q″]`.
//! The rating head sees only the primary blocks; the propensity head sees
//! the full embeddings, so the auxiliary blocks play the role of the
//! auxiliary variable `z` of Assumption 1 — they may influence *whether* a
//! rating is observed but are pushed (by the disentangling loss) to carry
//! no rating signal. By Lemma 3 / Theorem 1 this renders the MNAR
//! propensity identifiable, and the propensity head is trained on the
//! entire space so the debiasing weights converge to `P(o = 1 | x, r)`
//! rather than the MAR propensity that vanilla IPS/DR are stuck with.
//!
//! The multi-task loss (paper notation):
//!
//! ```text
//! L = L_IPS(P′, Q′; θ_r)            — or the DR pair for DT-DR
//!   + α · L_O(P, Q; θ_o)            — propensity BCE over D
//!   + β · (‖P′ᵀP″‖²_F + ‖Q′ᵀQ″‖²_F) — disentangling
//!   + γ · (‖P′Q′ᵀ‖²_F + ‖P″Q″ᵀ‖²_F) — regularisation (Gram trick)
//! ```

use dt_autograd::Graph;
use dt_data::Dataset;
use dt_models::{DisentangledConfig, DisentangledMf, MfModel};
use dt_optim::Optimizer;
use dt_tensor::{SplitMix64, Tensor};

use crate::config::TrainConfig;
use crate::methods::common::{run_epochs, uniform_batch};
use crate::recommender::Recommender;

/// Which debiasing estimator drives the rating head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DtVariant {
    /// Inverse propensity scoring (DT-IPS).
    Ips,
    /// Doubly robust with a separate imputation model (DT-DR).
    Dr,
}

/// The disentanglement trainer.
pub struct DtRecommender {
    model: DisentangledMf,
    imputation: Option<MfModel>,
    cfg: TrainConfig,
    variant: DtVariant,
    /// Ablation switches (Table V): disable the disentangling / the
    /// regularisation loss.
    use_disentangle: bool,
    use_regularization: bool,
}

impl DtRecommender {
    /// A fresh DT model.
    #[must_use]
    pub fn new(ds: &Dataset, cfg: &TrainConfig, variant: DtVariant, seed: u64) -> Self {
        cfg.validate();
        let mut rng = SplitMix64(seed);
        let model = DisentangledMf::new(
            ds.n_users,
            ds.n_items,
            &DisentangledConfig {
                total_dim: cfg.emb_dim,
                primary_dim: cfg.primary_dim(),
            },
            &mut rng,
        );
        let imputation = (variant == DtVariant::Dr)
            .then(|| MfModel::new(ds.n_users, ds.n_items, cfg.emb_dim, &mut rng));
        Self {
            model,
            imputation,
            cfg: *cfg,
            variant,
            use_disentangle: true,
            use_regularization: true,
        }
    }

    /// Disables the disentangling loss (ablation, Table V).
    #[must_use]
    pub fn without_disentangle(mut self) -> Self {
        self.use_disentangle = false;
        self
    }

    /// Disables the regularisation loss (ablation, Table V).
    #[must_use]
    pub fn without_regularization(mut self) -> Self {
        self.use_regularization = false;
        self
    }
}

impl Recommender for DtRecommender {
    fn train(&mut self, ds: &Dataset, rng: &mut SplitMix64) -> (Vec<f64>, Vec<f64>) {
        let observed_set = ds.train.pair_set();
        let density = ds.train.density();
        let cfg = self.cfg;
        let h = cfg.hyper;

        let mut opt = cfg.adam();
        let mut opt_imp = cfg.adam();
        let scale: fn(&Self) -> f64 = |rec| rec.model.disentangle_scale();

        run_epochs(self, ds, &cfg, rng, Some(scale), |rec, b, rng| {
            // The propensity loss is a full-space objective: give it a
            // 4× Monte-Carlo sample so the head converges on the same
            // schedule as the rating head.
            let ub = uniform_batch(ds, 4 * b.len(), &observed_set, rng);

            // Propensities at the observed pairs, detached: the
            // debiasing weights must not push the propensity head.
            let props = rec.model.propensity().predict(&b.users, &b.items);
            let inv_p: Vec<f64> = props.iter().map(|p| 1.0 / p.max(cfg.prop_clip)).collect();

            // Pseudo-labels r̃ from the imputation model (DT-DR only),
            // treated as given for this pass; the imputed error
            // ê = (r̂ − r̃)² stays a live function of the rating head,
            // which is how the unobserved space is supervised.
            let r_tilde_obs: Option<Vec<f64>> = rec
                .imputation
                .as_ref()
                .map(|imp| imp.head().predict(&b.users, &b.items));
            let r_tilde_unif: Option<Vec<f64>> = rec
                .imputation
                .as_ref()
                .map(|imp| imp.head().predict(&ub.users, &ub.items));

            // ---- main pass over the disentangled model ---------------
            let mut g = Graph::new();

            let logits = rec.model.rating().logits(&mut g, &b.users, &b.items);
            let pred = g.sigmoid(logits);
            let y = g.constant(Tensor::col_vec(&b.ratings));
            let err = g.squared_error(pred, y);
            let w = g.constant(Tensor::col_vec(&inv_p));
            let debias_loss = match (&rec.variant, &r_tilde_obs) {
                (DtVariant::Ips, _) | (DtVariant::Dr, None) => g.weighted_mean(w, err),
                (DtVariant::Dr, Some(rt)) => {
                    let rtv = g.constant(Tensor::col_vec(rt));
                    let e_hat_obs = g.squared_error(pred, rtv);
                    let diff = g.sub(err, e_hat_obs);
                    let corr0 = g.weighted_mean(w, diff);
                    let corr = g.mul_scalar(corr0, density);
                    // Base term: imputed error over the uniform sample,
                    // live in the rating head.
                    let logits_u = rec.model.rating().logits(&mut g, &ub.users, &ub.items);
                    let pred_u = g.sigmoid(logits_u);
                    let rt_u = g.constant(Tensor::col_vec(
                        r_tilde_unif.as_ref().expect("Dr variant has pseudo-labels"),
                    ));
                    let e_hat_unif = g.squared_error(pred_u, rt_u);
                    let base = g.mean(e_hat_unif);
                    g.add(base, corr)
                }
            };

            // Propensity loss over the entire space (Monte Carlo).
            let prop_logits = rec.model.propensity().logits(&mut g, &ub.users, &ub.items);
            let o_labels = g.constant(Tensor::col_vec(&ub.observed));
            let prop_loss = g.bce_mean(prop_logits, o_labels);

            let mut loss = {
                let weighted = g.mul_scalar(prop_loss, h.alpha);
                g.add(debias_loss, weighted)
            };
            if rec.use_disentangle {
                let dis = rec.model.disentangle_loss(&mut g);
                let dis_w = g.mul_scalar(dis, h.beta);
                loss = g.add(loss, dis_w);
            }
            if rec.use_regularization {
                let reg = rec.model.regularization_loss(&mut g);
                let reg_w = g.mul_scalar(reg, h.gamma);
                loss = g.add(loss, reg_w);
            }

            let batch_loss = opt.minimize(g, loss, &mut rec.model.params);

            // ---- imputation pass (DT-DR): train r̃ so the implied
            //      error (r̂ − r̃)² matches the realized error ----------
            if let Some(imp) = &mut rec.imputation {
                let preds = rec.model.rating().predict(&b.users, &b.items);
                let e_vals: Vec<f64> = preds
                    .iter()
                    .zip(&b.ratings)
                    .map(|(p, r)| (p - r) * (p - r))
                    .collect();
                let mut gi = Graph::new();
                let imp_logits = imp.head().logits(&mut gi, &b.users, &b.items);
                let rt = gi.sigmoid(imp_logits);
                let rhat = gi.constant(Tensor::col_vec(&preds));
                let e_imp = gi.squared_error(rhat, rt);
                let ev = gi.constant(Tensor::col_vec(&e_vals));
                let diff_sq = gi.squared_error(e_imp, ev);
                let wv = gi.constant(Tensor::col_vec(&inv_p));
                let imp_loss = gi.weighted_mean(wv, diff_sq);
                opt_imp.minimize(gi, imp_loss, &mut imp.params);
            }
            batch_loss
        })
    }

    fn predict(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        self.model.rating().predict_pairs(pairs)
    }

    fn n_parameters(&self) -> usize {
        // Table II: DT-IPS's prediction embedding is *contained* in the
        // propensity embedding (1×); DT-DR adds the imputation model (2×).
        self.model.n_parameters() + self.imputation.as_ref().map_or(0, MfModel::n_parameters)
    }

    fn scoring_index(&self) -> Option<dt_serve::ScoringIndex> {
        Some(self.model.rating().scoring_index())
    }

    fn name(&self) -> &'static str {
        match self.variant {
            DtVariant::Ips => "DT-IPS",
            DtVariant::Dr => "DT-DR",
        }
    }

    fn propensity(&self, pairs: &[(usize, usize)]) -> Option<Vec<f64>> {
        Some(self.model.propensity().predict_pairs(pairs))
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
                rating_effect: 2.0,
                seed: 14,
                ..MechanismConfig::default()
            },
        )
    }

    #[test]
    fn both_variants_train_to_finite_loss() {
        let ds = dataset();
        let cfg = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        for variant in [DtVariant::Ips, DtVariant::Dr] {
            let mut m = DtRecommender::new(&ds, &cfg, variant, 0);
            let mut rng = SplitMix64(1);
            let rep = m.fit(&ds, &mut rng);
            assert!(rep.final_loss.is_finite());
            assert_eq!(rep.aux_trace.len(), 4, "disentangle trace per epoch");
            let preds = m.predict(&[(0, 0), (1, 1)]);
            assert!(preds.iter().all(|p| (0.0..=1.0).contains(p)));
            assert!(m.propensity(&[(0, 0)]).unwrap()[0] > 0.0);
        }
    }

    #[test]
    fn disentangle_loss_weight_controls_the_scale() {
        // With the other losses pulling the embeddings around, the scale
        // need not fall monotonically — but a larger β must end at a
        // (much) smaller scale than β disabled, which is the paper's
        // Figure 4(c,d) claim.
        let ds = dataset();
        let run = |beta_on: bool| {
            let cfg = TrainConfig {
                epochs: 12,
                batch_size: 128,
                hyper: crate::Hyper {
                    beta: 1e-1,
                    ..crate::Hyper::default()
                },
                ..TrainConfig::default()
            };
            let mut m = DtRecommender::new(&ds, &cfg, DtVariant::Ips, 0);
            if !beta_on {
                m = m.without_disentangle();
            }
            let mut rng = SplitMix64(1);
            let rep = m.fit(&ds, &mut rng);
            rep.aux_trace.last().copied().unwrap()
        };
        let with_beta = run(true);
        let without_beta = run(false);
        assert!(
            with_beta < 0.5 * without_beta,
            "β should shrink the disentangle scale: {with_beta} vs {without_beta}"
        );
    }

    #[test]
    fn ablation_switches_change_the_objective() {
        let ds = dataset();
        let cfg = TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        };
        let mut full = DtRecommender::new(&ds, &cfg, DtVariant::Ips, 0);
        let mut bare = DtRecommender::new(&ds, &cfg, DtVariant::Ips, 0)
            .without_disentangle()
            .without_regularization();
        let mut rng1 = SplitMix64(1);
        let mut rng2 = SplitMix64(1);
        let r_full = full.fit(&ds, &mut rng1);
        let r_bare = bare.fit(&ds, &mut rng2);
        assert_ne!(r_full.final_loss, r_bare.final_loss);
    }

    #[test]
    fn dt_dr_has_roughly_double_the_embeddings() {
        let ds = dataset();
        let cfg = TrainConfig::default();
        let ips = DtRecommender::new(&ds, &cfg, DtVariant::Ips, 0);
        let dr = DtRecommender::new(&ds, &cfg, DtVariant::Dr, 0);
        let ratio = dr.n_parameters() as f64 / ips.n_parameters() as f64;
        assert!(ratio > 1.7 && ratio < 2.2, "ratio {ratio}");
    }

    #[test]
    fn propensity_head_tracks_mnar_signal() {
        // After training, the head's propensity at observed (mostly
        // positive) pairs should exceed its propensity at random pairs —
        // the MNAR signature the MAR propensity cannot express.
        let ds = dataset();
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 128,
            ..TrainConfig::default()
        };
        let mut m = DtRecommender::new(&ds, &cfg, DtVariant::Ips, 0);
        let mut rng = SplitMix64(1);
        m.fit(&ds, &mut rng);
        let observed: Vec<(usize, usize)> = ds
            .train
            .interactions()
            .iter()
            .take(400)
            .map(|it| (it.user as usize, it.item as usize))
            .collect();
        let random: Vec<(usize, usize)> = (0..400)
            .map(|k| (k % ds.n_users, (7 * k) % ds.n_items))
            .collect();
        let obs_mean = m.propensity(&observed).unwrap().iter().sum::<f64>() / 400.0;
        let rand_mean = m.propensity(&random).unwrap().iter().sum::<f64>() / 400.0;
        assert!(
            obs_mean > rand_mean,
            "observed-pair propensity {obs_mean} vs random {rand_mean}"
        );
    }
}
