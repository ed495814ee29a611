//! Shared training-loop plumbing.

use std::rc::Rc;

use dt_data::{uniform_pairs, BatchIter, Dataset, Interaction, PairSet};
use dt_models::propensity::LogisticMfPropensity;
use dt_tensor::SplitMix64;

use crate::config::TrainConfig;

/// A mini-batch of observed interactions in parallel-array form. The
/// index lists are built once per batch and shared: every head a step
/// mounts on the batch holds them on its tape without a copy.
pub struct Batch {
    /// User indices.
    pub users: Rc<Vec<usize>>,
    /// Item indices.
    pub items: Rc<Vec<usize>>,
    /// Binary ratings.
    pub ratings: Vec<f64>,
}

impl Batch {
    /// Converts an interaction slice.
    #[must_use]
    pub fn from_interactions(batch: &[Interaction]) -> Self {
        Self {
            users: Rc::new(batch.iter().map(|it| it.user as usize).collect()),
            items: Rc::new(batch.iter().map(|it| it.item as usize).collect()),
            ratings: batch.iter().map(|it| it.rating).collect(),
        }
    }

    /// Batch size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.users.len()
    }
}

/// The epoch loop of every trainer: `cfg.epochs` shuffled passes over the
/// training log in mini-batches of `cfg.batch_size`. `step` trains `rec`
/// on one batch, drawing from the same generator, and returns the batch
/// loss; after each epoch `aux`, when given, records one value of `rec`.
/// Returns the mean batch loss of each epoch and the `aux` values, as
/// [`crate::Recommender::train`] returns them.
pub fn run_epochs<R>(
    rec: &mut R,
    ds: &Dataset,
    cfg: &TrainConfig,
    rng: &mut SplitMix64,
    aux: Option<fn(&R) -> f64>,
    mut step: impl FnMut(&mut R, &Batch, &mut SplitMix64) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut aux_trace = Vec::new();
    for _ in 0..cfg.epochs {
        let mut total = 0.0;
        let mut n = 0usize;
        for raw in BatchIter::new(&ds.train, cfg.batch_size, rng) {
            total += step(rec, &Batch::from_interactions(&raw), rng);
            n += 1;
        }
        losses.push(total / n.max(1) as f64);
        if let Some(aux) = aux {
            aux_trace.push(aux(rec));
        }
    }
    (losses, aux_trace)
}

/// A uniform sample from the full space `D` with observation labels —
/// the Monte-Carlo estimate of every "entire-space" loss term. Its index
/// lists are shared like [`Batch`]'s.
pub struct UniformBatch {
    /// User indices.
    pub users: Rc<Vec<usize>>,
    /// Item indices.
    pub items: Rc<Vec<usize>>,
    /// Observation indicators `o ∈ {0,1}`.
    pub observed: Vec<f64>,
}

/// Draws a uniform full-space batch labelled against the observed set.
#[must_use]
pub fn uniform_batch(
    ds: &Dataset,
    n: usize,
    observed: &PairSet,
    rng: &mut SplitMix64,
) -> UniformBatch {
    let pairs = uniform_pairs(ds.n_users, ds.n_items, n, rng);
    UniformBatch {
        users: Rc::new(pairs.iter().map(|p| p.user as usize).collect()),
        items: Rc::new(pairs.iter().map(|p| p.item as usize).collect()),
        observed: pairs
            .iter()
            .map(|p| f64::from(observed.contains(p.user, p.item)))
            .collect(),
    }
}

/// Stage-one propensity fit shared by the two-stage methods (IPS, DR
/// family): a logistic MF on the observation indicators, with a budget
/// derived from the training config.
#[must_use]
pub fn fit_mar_propensity(
    ds: &Dataset,
    cfg: &TrainConfig,
    rng: &mut SplitMix64,
) -> LogisticMfPropensity {
    let dim = (cfg.emb_dim / 2).max(2);
    LogisticMfPropensity::fit(ds, dim, cfg.epochs.max(10), cfg.lr, cfg.prop_clip, rng)
}

/// Clipped inverse propensities over parallel index lists, as plain
/// values (propensities are always detached in the debiasing losses).
#[must_use]
pub fn inverse_propensities(
    prop: &LogisticMfPropensity,
    users: &[usize],
    items: &[usize],
    clip: f64,
) -> Vec<f64> {
    prop.predict(users, items)
        .iter()
        .map(|p| 1.0 / p.max(clip))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_data::{mechanism_dataset, Mechanism, MechanismConfig};

    #[test]
    fn batch_conversion() {
        let b =
            Batch::from_interactions(&[Interaction::new(1, 2, 1.0), Interaction::new(3, 4, 0.0)]);
        assert_eq!(b.len(), 2);
        assert_eq!(*b.users, vec![1, 3]);
        assert_eq!(*b.items, vec![2, 4]);
        assert_eq!(b.ratings, vec![1.0, 0.0]);
    }

    #[test]
    fn uniform_batch_labels_match_set() {
        let ds = mechanism_dataset(
            Mechanism::Mcar,
            &MechanismConfig {
                n_users: 30,
                n_items: 40,
                target_density: 0.2,
                seed: 1,
                ..MechanismConfig::default()
            },
        );
        let set = ds.train.pair_set();
        let mut rng = SplitMix64(2);
        let ub = uniform_batch(&ds, 500, &set, &mut rng);
        for k in 0..ub.users.len() {
            let expected = f64::from(set.contains(ub.users[k] as u32, ub.items[k] as u32));
            assert_eq!(ub.observed[k], expected);
        }
        // Label rate near the dataset density.
        let rate = ub.observed.iter().sum::<f64>() / 500.0;
        assert!((rate - ds.train.density()).abs() < 0.1);
    }
}
