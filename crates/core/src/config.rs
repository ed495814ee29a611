//! Training configuration shared by all methods.

use dt_optim::Adam;

/// Optimisation and architecture knobs common to every method.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Training epochs (one shuffled pass over the observed log each).
    pub epochs: usize,
    /// Mini-batch size over the observed log.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Embedding dimension of the base model (total dimension `K` for the
    /// disentangled model).
    pub emb_dim: usize,
    /// Propensity clip: `p̂ ← max(p̂, clip)`.
    pub prop_clip: f64,
    /// L2 weight decay folded into every Adam optimizer (the paper tunes
    /// an L2 penalty per method; this is the shared knob).
    pub l2: f64,
    /// Method-specific weights.
    pub hyper: Hyper,
}

/// Method-specific hyper-parameters (paper notation).
#[derive(Debug, Clone, Copy)]
pub struct Hyper {
    /// Propensity-loss weight `α` (DT, ESCM²).
    pub alpha: f64,
    /// Disentangling-loss weight `β` (DT) / independence weight (DIB).
    pub beta: f64,
    /// Regularisation-loss weight `γ` (DT) / confidence weight (CVIB).
    pub gamma: f64,
    /// Bias–variance trade-off `λ` (DR-MSE) / counterfactual-risk weight
    /// (ESCM²) / balancing weight (IPS-V2, DR-V2).
    pub lambda: f64,
    /// Primary embedding dimension `A` of the disentangled model
    /// (`0` means `emb_dim / 2`).
    pub primary_dim: usize,
}

impl Default for Hyper {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            beta: 1e-2,
            gamma: 1e-2,
            lambda: 0.5,
            primary_dim: 0,
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 15,
            batch_size: 512,
            lr: 0.03,
            emb_dim: 16,
            prop_clip: 0.05,
            l2: 1e-5,
            hyper: Hyper::default(),
        }
    }
}

impl TrainConfig {
    /// The effective primary dimension `A` of the disentangled model.
    ///
    /// Defaults to `3K/4`: the auxiliary block only needs to absorb the
    /// exposure signal, while the primary block carries the rating model —
    /// starving it (e.g. `A = K/2`) costs ranking quality, which is also
    /// why the paper treats `A` as a tuned hyper-parameter.
    #[must_use]
    pub fn primary_dim(&self) -> usize {
        if self.hyper.primary_dim == 0 {
            (3 * self.emb_dim / 4).clamp(1, self.emb_dim - 1)
        } else {
            self.hyper.primary_dim
        }
    }

    /// The optimizer every method trains with: Adam at `lr` with the
    /// standard betas `(0.9, 0.999)`, `eps = 1e-8` and `l2` folded into
    /// the gradient.
    #[must_use]
    pub fn adam(&self) -> Adam {
        Adam::with_config(self.lr, 0.9, 0.999, 1e-8, self.l2)
    }

    /// Validates ranges.
    ///
    /// # Panics
    /// Panics on degenerate values.
    pub fn validate(&self) {
        assert!(self.epochs > 0, "TrainConfig: zero epochs");
        assert!(self.batch_size > 0, "TrainConfig: zero batch size");
        assert!(self.lr > 0.0, "TrainConfig: non-positive lr");
        assert!(self.emb_dim >= 2, "TrainConfig: emb_dim must be ≥ 2");
        assert!(
            self.prop_clip > 0.0 && self.prop_clip < 1.0,
            "TrainConfig: prop_clip must be in (0,1)"
        );
        assert!(self.l2 >= 0.0, "TrainConfig: negative l2");
        assert!(
            self.primary_dim() < self.emb_dim,
            "TrainConfig: primary_dim must be < emb_dim"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        TrainConfig::default().validate();
    }

    #[test]
    fn primary_dim_defaults_to_three_quarters() {
        let cfg = TrainConfig {
            emb_dim: 10,
            ..TrainConfig::default()
        };
        assert_eq!(cfg.primary_dim(), 7);
        let cfg2 = TrainConfig {
            emb_dim: 10,
            hyper: Hyper {
                primary_dim: 3,
                ..Hyper::default()
            },
            ..TrainConfig::default()
        };
        assert_eq!(cfg2.primary_dim(), 3);
    }

    #[test]
    #[should_panic(expected = "primary_dim must be < emb_dim")]
    fn oversized_primary_dim_rejected() {
        TrainConfig {
            emb_dim: 4,
            hyper: Hyper {
                primary_dim: 4,
                ..Hyper::default()
            },
            ..TrainConfig::default()
        }
        .validate();
    }
}
