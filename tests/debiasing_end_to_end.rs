//! The headline scientific claims, as end-to-end tests on generated data
//! where the ground truth is known exactly:
//!
//! 1. MNAR selection bias hurts the naive model's full-space accuracy.
//! 2. The disentangled methods (DT-IPS / DT-DR) recover accuracy the
//!    naive/vanilla methods lose under MNAR.
//! 3. Under MCAR nothing is broken in the first place.
//! 4. The DT propensity head approaches the *MNAR* propensity, which the
//!    MAR-propensity baseline structurally cannot.

use dt_core::{evaluate, registry, Method, TrainConfig};
use dt_data::{mechanism_dataset, Dataset, Mechanism, MechanismConfig};
use dt_tensor::SplitMix64;

fn dataset(mech: Mechanism, seed: u64) -> Dataset {
    mechanism_dataset(
        mech,
        &MechanismConfig {
            n_users: 80,
            n_items: 100,
            target_density: 0.12,
            rating_effect: 2.5,
            feature_effect: 0.8,
            seed,
            ..MechanismConfig::default()
        },
    )
}

fn cfg() -> TrainConfig {
    TrainConfig {
        epochs: 40,
        batch_size: 128,
        emb_dim: 16,
        lr: 0.03,
        ..TrainConfig::default()
    }
}

fn fit_and_eval(method: Method, ds: &Dataset, seed: u64) -> dt_core::EvalReport {
    let mut model = registry::build(method, ds, &cfg(), seed);
    let mut rng = SplitMix64(seed);
    model.fit(ds, &mut rng);
    evaluate(model.as_ref(), ds, 5)
}

#[test]
fn mnar_bias_shows_up_in_the_naive_model() {
    let ds = dataset(Mechanism::Mnar, 41);
    let mut model = registry::build(Method::Mf, &ds, &cfg(), 0);
    let mut rng = SplitMix64(0);
    model.fit(&ds, &mut rng);
    // The naive model, trained on over-positive data, over-predicts on the
    // full space: its mean prediction exceeds the true mean preference.
    let truth = ds.truth.as_ref().unwrap();
    let mut pred_sum = 0.0;
    let mut true_sum = 0.0;
    let mut n = 0.0;
    for u in (0..ds.n_users).step_by(2) {
        for i in (0..ds.n_items).step_by(2) {
            pred_sum += model.predict(&[(u, i)])[0];
            true_sum += truth.preference.get(u, i);
            n += 1.0;
        }
    }
    assert!(
        pred_sum / n > true_sum / n + 0.03,
        "naive over-prediction: {} vs {}",
        pred_sum / n,
        true_sum / n
    );
}

#[test]
fn dt_methods_beat_the_naive_baseline_under_mnar() {
    // Averaged over seeds to keep the comparison honest. The robust effect
    // (as in the paper's Table III) is on the full-space error against the
    // true preferences; AUC moves less on small synthetic data, so we
    // assert improvement on MSE and no regression on AUC.
    let seeds = [42, 43, 44];
    let (mut mf_auc, mut dt_auc, mut ips_mse, mut mf_mse, mut dt_mse) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for &s in &seeds {
        let ds = dataset(Mechanism::Mnar, s);
        let mf = fit_and_eval(Method::Mf, &ds, s);
        let ips = fit_and_eval(Method::Ips, &ds, s);
        let dt = fit_and_eval(Method::DtIps, &ds, s);
        mf_auc += mf.auc;
        dt_auc += dt.auc;
        mf_mse += mf.mse_vs_truth;
        ips_mse += ips.mse_vs_truth;
        dt_mse += dt.mse_vs_truth;
    }
    let n = seeds.len() as f64;
    let (mf_auc, dt_auc) = (mf_auc / n, dt_auc / n);
    let (mf_mse, ips_mse, dt_mse) = (mf_mse / n, ips_mse / n, dt_mse / n);
    assert!(
        dt_mse < mf_mse - 0.02,
        "DT-IPS MSE-vs-truth {dt_mse:.4} should clearly beat MF {mf_mse:.4}"
    );
    assert!(
        dt_mse < ips_mse,
        "DT-IPS MSE-vs-truth {dt_mse:.4} should beat MAR-propensity IPS {ips_mse:.4}"
    );
    assert!(
        dt_auc > mf_auc - 0.02,
        "DT-IPS AUC {dt_auc:.4} should not regress vs MF {mf_auc:.4}"
    );
}

#[test]
fn under_mcar_naive_is_already_fine() {
    let ds = dataset(Mechanism::Mcar, 45);
    let mf = fit_and_eval(Method::Mf, &ds, 0);
    assert!(mf.auc > 0.55, "MCAR MF AUC {}", mf.auc);
    // And the debiased method does not collapse there either.
    let dt = fit_and_eval(Method::DtIps, &ds, 0);
    assert!(dt.auc > 0.55, "MCAR DT AUC {}", dt.auc);
}

#[test]
fn dt_propensity_correlates_with_the_mnar_propensity_better_than_mar_head() {
    let ds = dataset(Mechanism::Mnar, 46);
    let truth = ds.truth.as_ref().unwrap();

    let mut dt = registry::build(Method::DtIps, &ds, &cfg(), 0);
    let mut rng = SplitMix64(0);
    dt.fit(&ds, &mut rng);

    let mut ips = registry::build(Method::Ips, &ds, &cfg(), 0);
    let mut rng = SplitMix64(0);
    ips.fit(&ds, &mut rng);

    // Correlation against the true MNAR propensity over a grid.
    let grid: Vec<(usize, usize)> = (0..ds.n_users)
        .flat_map(|u| (0..ds.n_items).step_by(3).map(move |i| (u, i)))
        .collect();
    let dt_est = dt.propensity(&grid).unwrap();
    let ips_est = ips.propensity(&grid).unwrap();
    let oracle: Vec<f64> = grid
        .iter()
        .map(|&(u, i)| truth.propensity_xr.get(u, i))
        .collect();
    let dt_corr = pearson(&dt_est, &oracle);
    let ips_corr = pearson(&ips_est, &oracle);
    assert!(
        dt_corr > ips_corr,
        "DT propensity corr {dt_corr:.3} should beat MAR-head corr {ips_corr:.3}"
    );
    assert!(dt_corr > 0.2, "DT propensity corr {dt_corr:.3}");
}

#[test]
fn dt_beats_mar_ips_across_rating_effect_strengths() {
    // Lemma 2 in action: with a non-zero r → o edge the MAR propensity is
    // structurally mis-specified, and the DT head's identified MNAR
    // propensity should win on full-space error at both a weak and a
    // strong rating effect. (The paper's Table III likewise shows DT ahead
    // across ρ without a strictly monotone margin — DT even loses at
    // ρ = 0.5 there — so no monotonicity is asserted.)
    let make = |rating_effect: f64, seed: u64| {
        mechanism_dataset(
            Mechanism::Mnar,
            &MechanismConfig {
                n_users: 80,
                n_items: 100,
                target_density: 0.12,
                rating_effect,
                feature_effect: 0.8,
                seed,
                ..MechanismConfig::default()
            },
        )
    };
    let gap = |rating_effect: f64| {
        let seeds = [47u64, 48, 49];
        let mut g = 0.0;
        for &s in &seeds {
            let ds = make(rating_effect, s);
            g += fit_and_eval(Method::DtIps, &ds, 0).mse_vs_truth
                - fit_and_eval(Method::Ips, &ds, 0).mse_vs_truth;
        }
        g / seeds.len() as f64
    };
    let weak = gap(0.8);
    let strong = gap(2.5);
    // gap < 0 means DT better.
    assert!(weak < 0.0, "weak-effect gap {weak:.4} should favour DT");
    assert!(
        strong < 0.0,
        "strong-effect gap {strong:.4} should favour DT"
    );
}

fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
    cov / (va.sqrt() * vb.sqrt()).max(1e-12)
}
