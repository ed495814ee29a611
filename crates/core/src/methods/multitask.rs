//! Shared-embedding multi-task baselines: Multi-IPS, Multi-DR (Zhang et
//! al. 2020), ESMM (Ma et al. 2018) and ESCM²-IPS/DR (Wang et al. 2022).
//!
//! All five share one [`TowerModel`]: a CTR tower models the observation
//! probability over the entire space, a CVR tower models the rating, and
//! the DR members add an imputation tower. They differ in which losses are
//! combined:
//!
//! * **ESMM** — entire-space supervision only: `BCE(o; pCTR)` +
//!   `BCE(o·r; pCTR·pCVR)`.
//! * **Multi-IPS / Multi-DR** — the CVR tower is trained with the IPS
//!   (resp. DR) counterfactual risk, using the CTR tower's (detached)
//!   propensities; the CTR tower with `BCE(o)`.
//! * **ESCM²-IPS / ESCM²-DR** — ESMM's entire-space losses *plus* the
//!   λ-weighted IPS (resp. DR) risk as a counterfactual regulariser.

use dt_autograd::{Graph, Var};
use dt_data::Dataset;
use dt_models::{TowerConfig, TowerModel};
use dt_optim::Optimizer;
use dt_tensor::{SplitMix64, Tensor};

use crate::config::TrainConfig;
use crate::methods::common::{run_epochs, uniform_batch};
use crate::recommender::Recommender;

/// Which multi-task objective to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiTaskVariant {
    /// Multi-task IPS.
    MultiIps,
    /// Multi-task DR.
    MultiDr,
    /// Entire-space multi-task model (no reweighting).
    Esmm,
    /// ESMM + IPS counterfactual regulariser.
    Escm2Ips,
    /// ESMM + DR counterfactual regulariser.
    Escm2Dr,
}

impl MultiTaskVariant {
    fn uses_dr(self) -> bool {
        matches!(self, MultiTaskVariant::MultiDr | MultiTaskVariant::Escm2Dr)
    }

    fn uses_entire_space_losses(self) -> bool {
        matches!(
            self,
            MultiTaskVariant::Esmm | MultiTaskVariant::Escm2Ips | MultiTaskVariant::Escm2Dr
        )
    }

    fn uses_counterfactual_risk(self) -> bool {
        !matches!(self, MultiTaskVariant::Esmm)
    }

    fn display_name(self) -> &'static str {
        match self {
            MultiTaskVariant::MultiIps => "Multi-IPS",
            MultiTaskVariant::MultiDr => "Multi-DR",
            MultiTaskVariant::Esmm => "ESMM",
            MultiTaskVariant::Escm2Ips => "ESCM2-IPS",
            MultiTaskVariant::Escm2Dr => "ESCM2-DR",
        }
    }
}

/// The shared-embedding multi-task trainer.
pub struct MultiTaskRecommender {
    model: TowerModel,
    cfg: TrainConfig,
    variant: MultiTaskVariant,
}

impl MultiTaskRecommender {
    /// A fresh model of the requested variant.
    #[must_use]
    pub fn new(ds: &Dataset, cfg: &TrainConfig, variant: MultiTaskVariant, seed: u64) -> Self {
        cfg.validate();
        let mut rng = SplitMix64(seed);
        let model = TowerModel::new(
            ds.n_users,
            ds.n_items,
            &TowerConfig {
                emb_dim: cfg.emb_dim,
                hidden: 2 * cfg.emb_dim,
                with_imputation: variant.uses_dr(),
            },
            &mut rng,
        );
        Self {
            model,
            cfg: *cfg,
            variant,
        }
    }

    /// Clipped, detached inverse propensities from the CTR tower.
    fn inv_propensities(&self, g: &mut Graph, ctr_logits: Var, clip: f64) -> Var {
        let p = g.sigmoid(ctr_logits);
        let p_det = g.detach(p);
        g.clipped_inverse(p_det, clip)
    }
}

impl Recommender for MultiTaskRecommender {
    fn train(&mut self, ds: &Dataset, rng: &mut SplitMix64) -> (Vec<f64>, Vec<f64>) {
        let observed_set = ds.train.pair_set();
        let density = ds.train.density();
        let cfg = self.cfg;
        let mut opt = cfg.adam();
        run_epochs(self, ds, &cfg, rng, None, |rec, b, rng| {
            let ub = uniform_batch(ds, b.len(), &observed_set, rng);
            let mut g = Graph::new();

            // --- entire-space CTR supervision (all variants) ----------
            let ctr_unif = rec.model.ctr_logits(&mut g, &ub.users, &ub.items);
            let o_labels = g.constant(Tensor::col_vec(&ub.observed));
            let ctr_loss = g.bce_mean(ctr_unif, o_labels);
            let mut loss = ctr_loss;

            if rec.variant.uses_entire_space_losses() {
                // CTCVR over the entire space: P(o)·P(r) vs o·r. The
                // uniform batch's o·r label is o·r with r unknown when
                // o = 0 — but then o·r = 0 regardless, so the label is
                // well-defined; for observed pairs we need r, which the
                // uniform batch does not carry. Use the observed batch
                // (o = 1, label r) plus the unobserved part of the
                // uniform batch (label 0), mirroring the standard ESMM
                // sampling.
                let ctr_obs = rec.model.ctr_logits(&mut g, &b.users, &b.items);
                let cvr_obs = rec.model.cvr_logits(&mut g, &b.users, &b.items);
                let p_ctr = g.sigmoid(ctr_obs);
                let p_cvr = g.sigmoid(cvr_obs);
                let p_ctcvr = g.mul(p_ctr, p_cvr);
                let pc = g.clamp(p_ctcvr, 1e-7, 1.0 - 1e-7);
                // BCE with probability inputs: −[y ln p + (1−y) ln(1−p)].
                let y = g.constant(Tensor::col_vec(&b.ratings));
                let lnp = g.ln(pc);
                let t1 = g.mul(y, lnp);
                let ones = g.constant(Tensor::ones(b.len(), 1));
                let om_y = g.sub(ones, y);
                let om_p = {
                    let ones2 = g.constant(Tensor::ones(b.len(), 1));
                    g.sub(ones2, pc)
                };
                let ln_omp = g.ln(om_p);
                let t2 = g.mul(om_y, ln_omp);
                let s = g.add(t1, t2);
                let m = g.mean(s);
                let ctcvr_obs_loss = g.neg(m);
                // Unobserved sampled pairs: label 0 → −ln(1 − pCTR·pCVR).
                let ctr_u2 = rec.model.ctr_logits(&mut g, &ub.users, &ub.items);
                let cvr_u2 = rec.model.cvr_logits(&mut g, &ub.users, &ub.items);
                let pu = g.sigmoid(ctr_u2);
                let pv = g.sigmoid(cvr_u2);
                let puv = g.mul(pu, pv);
                let puv_c = g.clamp(puv, 1e-7, 1.0 - 1e-7);
                let onesu = g.constant(Tensor::ones(ub.users.len(), 1));
                let anti = g.sub(onesu, puv_c);
                let ln_anti = g.ln(anti);
                let mask = g.constant(Tensor::col_vec(
                    &ub.observed.iter().map(|&o| 1.0 - o).collect::<Vec<f64>>(),
                ));
                let masked = g.mul(mask, ln_anti);
                let mm = g.mean(masked);
                let ctcvr_miss_loss = g.neg(mm);
                let es1 = g.mul_scalar(ctcvr_obs_loss, density);
                let es = g.add(es1, ctcvr_miss_loss);
                loss = g.add(loss, es);
            }

            if rec.variant.uses_counterfactual_risk() {
                // IPS or DR risk on the CVR tower with detached CTR
                // propensities.
                let ctr_obs = rec.model.ctr_logits(&mut g, &b.users, &b.items);
                let inv_p = rec.inv_propensities(&mut g, ctr_obs, cfg.prop_clip);
                let cvr_obs = rec.model.cvr_logits(&mut g, &b.users, &b.items);
                let pred = g.sigmoid(cvr_obs);
                let y = g.constant(Tensor::col_vec(&b.ratings));
                let err = g.squared_error(pred, y);
                let risk = if rec.variant.uses_dr() {
                    // The imputation tower produces pseudo-labels r̃;
                    // the imputed error ê = (r̂ − r̃)² is live in the
                    // CVR tower (that is the DR supervision channel for
                    // the unobserved space).
                    let imp_obs = rec.model.imputation_out(&mut g, &b.users, &b.items);
                    let rt_obs0 = g.sigmoid(imp_obs);
                    let rt_obs = g.detach(rt_obs0);
                    let e_hat_obs = g.squared_error(pred, rt_obs);
                    let diff = g.sub(err, e_hat_obs);
                    let corr0 = g.weighted_mean(inv_p, diff);
                    let corr = g.mul_scalar(corr0, density);
                    let cvr_unif = rec.model.cvr_logits(&mut g, &ub.users, &ub.items);
                    let pred_unif = g.sigmoid(cvr_unif);
                    let imp_unif = rec.model.imputation_out(&mut g, &ub.users, &ub.items);
                    let rt_unif0 = g.sigmoid(imp_unif);
                    let rt_unif = g.detach(rt_unif0);
                    let e_hat_unif = g.squared_error(pred_unif, rt_unif);
                    let base = g.mean(e_hat_unif);
                    let dr = g.add(base, corr);
                    // Imputation tower's own loss: the implied error
                    // (r̂_det − r̃)² should match the realized error.
                    let e_det = g.detach(err);
                    let pred_det = g.detach(pred);
                    let imp_obs2 = rec.model.imputation_out(&mut g, &b.users, &b.items);
                    let rt_live = g.sigmoid(imp_obs2);
                    let e_imp = g.squared_error(pred_det, rt_live);
                    let imp_err = g.squared_error(e_imp, e_det);
                    let imp_loss = g.weighted_mean(inv_p, imp_err);
                    g.add(dr, imp_loss)
                } else {
                    g.weighted_mean(inv_p, err)
                };
                let weighted = g.mul_scalar(risk, cfg.hyper.lambda);
                loss = g.add(loss, weighted);
            }

            opt.minimize(g, loss, &mut rec.model.params)
        })
    }

    fn predict(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        self.model.predict_cvr(pairs)
    }

    fn n_parameters(&self) -> usize {
        self.model.n_parameters()
    }

    fn name(&self) -> &'static str {
        self.variant.display_name()
    }

    fn propensity(&self, user: usize, item: usize) -> Option<f64> {
        Some(self.model.predict_ctr(&[(user, item)])[0])
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
                seed: 12,
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
            MultiTaskVariant::MultiIps,
            MultiTaskVariant::MultiDr,
            MultiTaskVariant::Esmm,
            MultiTaskVariant::Escm2Ips,
            MultiTaskVariant::Escm2Dr,
        ] {
            let mut m = MultiTaskRecommender::new(&ds, &cfg, variant, 0);
            let mut rng = SplitMix64(1);
            let rep = m.fit(&ds, &mut rng);
            assert!(
                rep.final_loss.is_finite(),
                "{}: {:?}",
                variant.display_name(),
                rep.loss_trace
            );
            let preds = m.predict(&[(0, 0), (3, 4)]);
            assert!(preds.iter().all(|p| (0.0..=1.0).contains(p)));
            assert!(m.propensity(0, 0).unwrap() > 0.0);
        }
    }

    #[test]
    fn shared_embeddings_keep_parameter_counts_equal() {
        // Table II: Multi-IPS, ESCM²-IPS and ESMM share the 1× embedding
        // cost; the DR members add only the imputation tower.
        let ds = dataset();
        let cfg = TrainConfig::default();
        let esmm = MultiTaskRecommender::new(&ds, &cfg, MultiTaskVariant::Esmm, 0);
        let mips = MultiTaskRecommender::new(&ds, &cfg, MultiTaskVariant::MultiIps, 0);
        let escm_ips = MultiTaskRecommender::new(&ds, &cfg, MultiTaskVariant::Escm2Ips, 0);
        let mdr = MultiTaskRecommender::new(&ds, &cfg, MultiTaskVariant::MultiDr, 0);
        assert_eq!(esmm.n_parameters(), mips.n_parameters());
        assert_eq!(esmm.n_parameters(), escm_ips.n_parameters());
        assert!(mdr.n_parameters() > esmm.n_parameters());
        let tower_cost = mdr.n_parameters() - esmm.n_parameters();
        assert!(tower_cost < esmm.n_parameters() / 2, "only one extra tower");
    }

    #[test]
    fn ctr_tower_learns_the_observation_rate() {
        let ds = dataset();
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 128,
            ..TrainConfig::default()
        };
        let mut m = MultiTaskRecommender::new(&ds, &cfg, MultiTaskVariant::Esmm, 0);
        let mut rng = SplitMix64(1);
        m.fit(&ds, &mut rng);
        // Mean predicted CTR should be near the dataset density.
        let mut pairs = Vec::new();
        for u in (0..ds.n_users).step_by(3) {
            for i in (0..ds.n_items).step_by(5) {
                pairs.push((u, i));
            }
        }
        let mean_ctr: f64 = m.model.predict_ctr(&pairs).iter().sum::<f64>() / pairs.len() as f64;
        assert!(
            (mean_ctr - ds.train.density()).abs() < 0.1,
            "mean CTR {mean_ctr} vs density {}",
            ds.train.density()
        );
    }
}
