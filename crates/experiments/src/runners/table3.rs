//! **Table III** — semi-synthetic ML-100K experiment: MSE / MAE / NDCG@50
//! for nine methods across ρ ∈ {0.5, 0.75, 1, 1.25, 1.5}.
//!
//! Protocol (paper §V): the pipeline of Steps 1–3 produces a ground-truth
//! conversion surface η, an observation probability `p = (2^η − 1)^ρ`, and
//! realized conversions/observations. Models train on the observed
//! conversions; MSE/MAE are measured against η over the full space and
//! NDCG@50 ranks every item per user against the realized conversions.

use dt_core::{registry, Method, Recommender, TrainConfig};
use dt_data::Dataset;
use dt_metrics::ndcg_at_k;
use dt_tensor::SplitMix64;

use crate::report::{Table, TableSet};
use crate::runners::util::semisynthetic_dataset;
use crate::{RunOptions, Scale};

/// The ρ grid of Table III.
pub const RHOS: [f64; 5] = [0.5, 0.75, 1.0, 1.25, 1.5];

/// Full-space evaluation for the semi-synthetic protocol.
///
/// Returns `(mse, mae, ndcg@k)`; MSE/MAE against η, NDCG over all items
/// per user with the realized binary conversions as relevance (users are
/// strided down to at most `max_users` for tractability).
#[must_use]
pub fn semi_eval(
    model: &dyn Recommender,
    ds: &Dataset,
    k: usize,
    max_users: usize,
) -> (f64, f64, f64) {
    // lint: allow(r3): semi-synthetic datasets always carry ground truth
    let truth = ds.truth.as_ref().expect("semi-synthetic ground truth");
    let stride = (ds.n_users / max_users).max(1);
    let mut se = 0.0;
    let mut ae = 0.0;
    let mut n_cells = 0.0;
    let mut ndcg_sum = 0.0;
    let mut ndcg_n = 0usize;
    for u in (0..ds.n_users).step_by(stride) {
        let pairs: Vec<(usize, usize)> = (0..ds.n_items).map(|i| (u, i)).collect();
        let preds = model.predict(&pairs);
        let mut items: Vec<(f64, f64)> = Vec::with_capacity(ds.n_items);
        for (i, &p) in preds.iter().enumerate() {
            let eta = truth.preference.get(u, i);
            se += (p - eta) * (p - eta);
            ae += (p - eta).abs();
            n_cells += 1.0;
            items.push((p, truth.ratings.get(u, i)));
        }
        if let Some(v) = ndcg_at_k(&items, k) {
            ndcg_sum += v;
            ndcg_n += 1;
        }
    }
    (
        se / n_cells,
        ae / n_cells,
        if ndcg_n == 0 {
            f64::NAN
        } else {
            ndcg_sum / ndcg_n as f64
        },
    )
}

fn cfg_for(scale: Scale) -> TrainConfig {
    match scale {
        Scale::Quick => TrainConfig {
            epochs: 12,
            batch_size: 256,
            emb_dim: 16,
            l2: 1e-4,
            lr: 0.03,
            ..TrainConfig::default()
        },
        Scale::Paper => TrainConfig {
            epochs: 30,
            batch_size: 2048,
            emb_dim: 32,
            l2: 1e-4,
            lr: 0.03,
            ..TrainConfig::default()
        },
    }
}

/// Runs the ρ sweep.
#[must_use]
pub fn run(opts: &RunOptions) -> TableSet {
    let cfg = cfg_for(opts.scale);
    let max_users = opts.scale.pick(120, 943);
    let columns: Vec<String> = RHOS.iter().map(|r| format!("rho={r}")).collect();
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();

    let mut mse_t = Table::new("table3-mse", "Table III — MSE vs η by ρ", &col_refs);
    let mut mae_t = Table::new("table3-mae", "Table III — MAE vs η by ρ", &col_refs);
    let mut ndcg_t = Table::new("table3-ndcg", "Table III — NDCG@50 by ρ", &col_refs);

    // Generate datasets once per ρ (shared across methods).
    let datasets: Vec<Dataset> = RHOS
        .iter()
        .map(|&rho| semisynthetic_dataset(opts.scale, rho, 0.3, opts.seed))
        .collect();

    for method in Method::TABLE3 {
        let mut mse_row = Vec::new();
        let mut mae_row = Vec::new();
        let mut ndcg_row = Vec::new();
        for ds in &datasets {
            let mut model = registry::build(method, ds, &cfg, opts.seed);
            let mut rng = SplitMix64(opts.seed);
            model.fit(ds, &mut rng);
            let (mse, mae, ndcg) = semi_eval(model.as_ref(), ds, 50, max_users);
            mse_row.push(mse);
            mae_row.push(mae);
            ndcg_row.push(ndcg);
        }
        mse_t.push_row(method.label(), mse_row);
        mae_t.push_row(method.label(), mae_row);
        ndcg_t.push_row(method.label(), ndcg_row);
    }

    let mut set = TableSet::default();
    set.push(mse_t);
    set.push(mae_t);
    set.push(ndcg_t);
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semi_eval_scores_the_oracle_perfectly() {
        let ds = semisynthetic_dataset(Scale::Quick, 1.0, 0.3, 3);
        struct Oracle(dt_tensor::Tensor);
        impl Recommender for Oracle {
            fn train(&mut self, _: &Dataset, _: &mut SplitMix64) -> (Vec<f64>, Vec<f64>) {
                (Vec::new(), Vec::new())
            }
            fn predict(&self, pairs: &[(usize, usize)]) -> Vec<f64> {
                pairs.iter().map(|&(u, i)| self.0.get(u, i)).collect()
            }
            fn n_parameters(&self) -> usize {
                0
            }
            fn name(&self) -> &'static str {
                "oracle"
            }
        }
        let oracle = Oracle(ds.truth.as_ref().unwrap().preference.clone());
        let (mse, mae, ndcg) = semi_eval(&oracle, &ds, 50, 50);
        assert!(mse < 1e-12);
        assert!(mae < 1e-12);
        assert!(ndcg > 0.6, "oracle ndcg {ndcg}");
    }
}
