//! Mini-batch iteration and full-space sampling.

use dt_tensor::SplitMix64;

use crate::interactions::{Interaction, InteractionLog, Pair};

/// Shuffled mini-batches over an interaction log for one epoch.
pub struct BatchIter<'a> {
    log: &'a InteractionLog,
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
}

impl<'a> BatchIter<'a> {
    /// A new shuffled epoch over `log`.
    ///
    /// # Panics
    /// Panics when `batch_size == 0`.
    #[must_use]
    pub fn new(log: &'a InteractionLog, batch_size: usize, rng: &mut SplitMix64) -> Self {
        assert!(batch_size > 0, "BatchIter: zero batch size");
        let mut order: Vec<usize> = (0..log.len()).collect();
        rng.shuffle(&mut order);
        Self {
            log,
            order,
            batch_size,
            cursor: 0,
        }
    }

    /// Number of batches in the epoch.
    #[must_use]
    pub fn n_batches(&self) -> usize {
        self.order.len().div_ceil(self.batch_size)
    }
}

impl Iterator for BatchIter<'_> {
    type Item = Vec<Interaction>;

    fn next(&mut self) -> Option<Vec<Interaction>> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let batch = self.order[self.cursor..end]
            .iter()
            .map(|&i| self.log.interactions()[i])
            .collect();
        self.cursor = end;
        Some(batch)
    }
}

/// Draws `n` uniform pairs from the full space `D = U × I` (with
/// replacement) — the sampler behind every entire-space loss term.
///
/// # Panics
/// Panics on an empty space.
#[must_use]
pub fn uniform_pairs(n_users: usize, n_items: usize, n: usize, rng: &mut SplitMix64) -> Vec<Pair> {
    assert!(n_users > 0 && n_items > 0, "uniform_pairs: empty space");
    (0..n)
        .map(|_| {
            Pair::new(
                rng.next_below(n_users) as u32,
                rng.next_below(n_items) as u32,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_tensor::SplitMix64;

    fn log(n: usize) -> InteractionLog {
        let mut l = InteractionLog::new(n, 1);
        for u in 0..n {
            l.push(Interaction::new(u as u32, 0, u as f64));
        }
        l
    }

    #[test]
    fn epoch_covers_every_example_once() {
        let l = log(10);
        let mut rng = SplitMix64(1);
        let it = BatchIter::new(&l, 3, &mut rng);
        assert_eq!(it.n_batches(), 4);
        let mut seen: Vec<f64> = it.flatten().map(|i| i.rating).collect();
        seen.sort_by(f64::total_cmp);
        assert_eq!(seen, (0..10).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn batches_are_shuffled_between_epochs() {
        let l = log(100);
        let collect = |seed: u64| -> Vec<f64> {
            BatchIter::new(&l, 100, &mut SplitMix64(seed))
                .flatten()
                .map(|i| i.rating)
                .collect()
        };
        assert_ne!(collect(1), collect(2));
    }

    #[test]
    fn last_batch_may_be_short() {
        let l = log(7);
        let mut rng = SplitMix64(1);
        let sizes: Vec<usize> = BatchIter::new(&l, 3, &mut rng).map(|b| b.len()).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn uniform_pairs_stay_in_space() {
        let mut rng = SplitMix64(1);
        for p in uniform_pairs(5, 7, 1000, &mut rng) {
            assert!((p.user as usize) < 5 && (p.item as usize) < 7);
        }
    }

    #[test]
    fn uniform_pairs_cover_the_space() {
        let mut rng = SplitMix64(1);
        let pairs = uniform_pairs(3, 3, 2000, &mut rng);
        let distinct: std::collections::HashSet<_> =
            pairs.iter().map(|p| (p.user, p.item)).collect();
        assert_eq!(distinct.len(), 9, "all 9 cells should be hit");
    }
}
