//! Propensity heads: the three rungs of the paper's Table I.
//!
//! * [`ConstantPropensity`] — the MCAR propensity `P(o = 1)`, estimated by
//!   the empirical observation rate.
//! * [`LogisticMfPropensity`] — the MAR propensity `P(o = 1 | x)`: a
//!   logistic MF fitted to the observation indicators over the full space.
//!   This is what vanilla IPS/DR use, and what Lemma 2(a) shows is *biased*
//!   under MNAR.
//! * [`NaiveBayesAdapter`] — the MNAR propensity `P(o = 1 | x, r)` via the
//!   Naive-Bayes estimator, available only when an MCAR slice exists
//!   (Schnabel et al. 2016). The paper's DT method removes that
//!   requirement; this head serves as the classical reference.

use std::rc::Rc;

use dt_autograd::Graph;
use dt_data::{uniform_pairs, Dataset, PairSet};
use dt_optim::{Adam, Optimizer};
use dt_stats::NaiveBayesPropensity;
use dt_tensor::{SplitMix64, Tensor};

use crate::mf::MfModel;

/// A fitted propensity head.
pub trait PropensityHead {
    /// Estimated propensities for a batch of *observed* interactions
    /// (ratings known), one per `(users[k], items[k], ratings[k])`.
    fn propensity(&self, users: &[usize], items: &[usize], ratings: &[f64]) -> Vec<f64>;

    /// A short label for reports.
    fn label(&self) -> &'static str;
}

/// Clips propensities from below at `clip`.
#[must_use]
pub fn clipped(mut props: Vec<f64>, clip: f64) -> Vec<f64> {
    for p in &mut props {
        *p = p.max(clip);
    }
    props
}

/// The MCAR propensity: a single constant `P(o = 1)`.
#[derive(Debug, Clone, Copy)]
pub struct ConstantPropensity {
    rate: f64,
}

impl ConstantPropensity {
    /// Estimates the observation rate from a dataset.
    #[must_use]
    pub fn fit(ds: &Dataset) -> Self {
        Self {
            rate: ds.train.density().max(f64::MIN_POSITIVE),
        }
    }
}

impl PropensityHead for ConstantPropensity {
    fn propensity(&self, users: &[usize], _items: &[usize], _ratings: &[f64]) -> Vec<f64> {
        vec![self.rate; users.len()]
    }

    fn label(&self) -> &'static str {
        "constant (MCAR)"
    }
}

/// The MAR propensity: logistic MF fitted to observation indicators, with
/// negatives sampled uniformly from the full space.
pub struct LogisticMfPropensity {
    model: MfModel,
    clip: f64,
}

impl LogisticMfPropensity {
    /// Fits on a dataset's training log.
    #[must_use]
    pub fn fit(
        ds: &Dataset,
        dim: usize,
        epochs: usize,
        lr: f64,
        clip: f64,
        rng: &mut SplitMix64,
    ) -> Self {
        let mut model = MfModel::new(ds.n_users, ds.n_items, dim, rng);
        let observed: PairSet = ds.train.pair_set();
        let mut opt = Adam::with_config(lr, 0.9, 0.999, 1e-8, 1e-5);
        let batch = 1024usize;
        // Fitting P(o = 1 | x) is a full-space problem: train on uniform
        // draws from D labelled by the true observation indicator, which is
        // the unbiased Monte-Carlo estimate of the full-space BCE. One
        // epoch covers ≈ |D| sampled pairs (capped for very large spaces).
        let steps_per_epoch = (ds.train.n_pairs_total()).div_ceil(batch).clamp(4, 200);
        for _ in 0..epochs {
            for _ in 0..steps_per_epoch {
                let pairs = uniform_pairs(ds.n_users, ds.n_items, batch, rng);
                let users = Rc::new(pairs.iter().map(|p| p.user as usize).collect());
                let items = Rc::new(pairs.iter().map(|p| p.item as usize).collect());
                let labels: Vec<f64> = pairs
                    .iter()
                    .map(|p| f64::from(observed.contains(p.user, p.item)))
                    .collect();
                let mut g = Graph::new();
                let logits = model.head().logits(&mut g, &users, &items);
                let y = g.constant(Tensor::col_vec(&labels));
                let loss = g.bce_mean(logits, y);
                opt.minimize(g, loss, &mut model.params);
            }
        }
        Self { model, clip }
    }

    /// Clipped propensities over parallel `users`/`items` index lists.
    #[must_use]
    pub fn predict(&self, users: &[usize], items: &[usize]) -> Vec<f64> {
        clipped(self.model.head().predict(users, items), self.clip)
    }

    /// Clipped propensities for `(user, item)` pairs.
    #[must_use]
    pub fn predict_pairs(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
        clipped(self.model.head().predict_pairs(pairs), self.clip)
    }

    /// Parameter count of the underlying MF.
    #[must_use]
    pub fn n_parameters(&self) -> usize {
        self.model.n_parameters()
    }
}

impl PropensityHead for LogisticMfPropensity {
    fn propensity(&self, users: &[usize], items: &[usize], _ratings: &[f64]) -> Vec<f64> {
        self.predict(users, items)
    }

    fn label(&self) -> &'static str {
        "logistic-MF (MAR)"
    }
}

/// Naive-Bayes MNAR propensity over binary ratings, fitted from the MNAR
/// log plus an MCAR sample (the test slice of COAT-style datasets).
pub struct NaiveBayesAdapter {
    nb: NaiveBayesPropensity,
    clip: f64,
}

impl NaiveBayesAdapter {
    /// Fits from a dataset whose `test` log is an MCAR/MAR slice.
    ///
    /// # Panics
    /// Panics when either log is empty.
    #[must_use]
    pub fn fit(ds: &Dataset, clip: f64) -> Self {
        let levels = |log: &dt_data::InteractionLog| -> Vec<usize> {
            log.interactions()
                .iter()
                .map(|it| usize::from(it.rating > 0.5))
                .collect()
        };
        let nb = NaiveBayesPropensity::fit(
            &levels(&ds.train),
            &levels(&ds.test),
            2,
            ds.train.n_pairs_total(),
            1.0,
        );
        Self { nb, clip }
    }
}

impl PropensityHead for NaiveBayesAdapter {
    fn propensity(&self, _users: &[usize], _items: &[usize], ratings: &[f64]) -> Vec<f64> {
        ratings
            .iter()
            .map(|&r| self.nb.propensity(usize::from(r > 0.5)).max(self.clip))
            .collect()
    }

    fn label(&self) -> &'static str {
        "naive-bayes (MNAR)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_data::{mechanism_dataset, Mechanism, MechanismConfig};

    fn mar_dataset() -> Dataset {
        mechanism_dataset(
            Mechanism::Mar,
            &MechanismConfig {
                n_users: 150,
                n_items: 200,
                target_density: 0.15,
                feature_effect: 1.5,
                seed: 3,
                ..MechanismConfig::default()
            },
        )
    }

    #[test]
    fn constant_head_matches_density() {
        let ds = mar_dataset();
        let head = ConstantPropensity::fit(&ds);
        let p = head.propensity(&[0, 4], &[0, 9], &[1.0, 0.0]);
        assert_eq!(p, vec![ds.train.density(); 2]);
        assert_eq!(head.label(), "constant (MCAR)");
    }

    #[test]
    fn logistic_mf_correlates_with_true_mar_propensity() {
        let ds = mar_dataset();
        let truth = ds.truth.clone().unwrap();
        let mut rng = SplitMix64(10);
        let head = LogisticMfPropensity::fit(&ds, 4, 50, 0.05, 0.001, &mut rng);
        // Pearson correlation between p̂ and the oracle P(o|x) over a grid.
        let grid: Vec<(usize, usize)> = (0..ds.n_users)
            .flat_map(|u| (0..ds.n_items).step_by(7).map(move |i| (u, i)))
            .collect();
        let est = head.predict_pairs(&grid);
        let tru: Vec<f64> = grid
            .iter()
            .map(|&(u, i)| truth.propensity_x.get(u, i))
            .collect();
        let corr = pearson(&est, &tru);
        assert!(corr > 0.5, "correlation {corr}");
    }

    #[test]
    fn naive_bayes_recovers_rating_gap() {
        let ds = mechanism_dataset(
            Mechanism::Mnar,
            &MechanismConfig {
                n_users: 150,
                n_items: 200,
                target_density: 0.1,
                rating_effect: 2.0,
                feature_effect: 0.0,
                seed: 4,
                ..MechanismConfig::default()
            },
        );
        let head = NaiveBayesAdapter::fit(&ds, 1e-4);
        let p = head.propensity(&[0, 0], &[0, 0], &[1.0, 0.0]);
        let (p1, p0) = (p[0], p[1]);
        assert!(
            p1 > 2.0 * p0,
            "NB should see higher propensity for positives: {p1} vs {p0}"
        );
    }

    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
        cov / (va.sqrt() * vb.sqrt())
    }
}
