//! Cross-crate integration: dataset generation → training → evaluation,
//! exercising the full substrate stack (tensor → autograd → optim →
//! models → core) through the public API only.

use dt_core::{evaluate, registry, Method, TrainConfig};
use dt_data::{coat_like, mechanism_dataset, Mechanism, MechanismConfig, RealWorldConfig};
use dt_tensor::SplitMix64;

fn small_mnar(seed: u64) -> dt_data::Dataset {
    mechanism_dataset(
        Mechanism::Mnar,
        &MechanismConfig {
            n_users: 50,
            n_items: 60,
            target_density: 0.15,
            rating_effect: 2.0,
            seed,
            ..MechanismConfig::default()
        },
    )
}

fn quick_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 5,
        batch_size: 128,
        emb_dim: 8,
        ..TrainConfig::default()
    }
}

#[test]
fn full_pipeline_runs_for_representative_methods() {
    let ds = small_mnar(31);
    for method in [
        Method::Mf,
        Method::Ips,
        Method::DrJl,
        Method::Esmm,
        Method::DtIps,
    ] {
        let mut model = registry::build(method, &ds, &quick_cfg(), 0);
        let mut rng = SplitMix64(0);
        let fit = model.fit(&ds, &mut rng);
        assert!(fit.final_loss.is_finite(), "{}", model.name());
        assert_eq!(fit.loss_trace.len(), quick_cfg().epochs);
        assert!(fit.train_seconds > 0.0);

        let eval = evaluate(model.as_ref(), &ds, 5);
        assert!(
            eval.auc.is_finite() && eval.auc > 0.35,
            "{}: AUC {}",
            model.name(),
            eval.auc
        );
        assert!((0.0..=1.0).contains(&eval.ndcg));
        assert!((0.0..=1.0).contains(&eval.recall));
        assert!(eval.mse_vs_truth.is_finite());
    }
}

#[test]
fn training_beats_an_untrained_model() {
    let ds = small_mnar(32);
    let cfg = TrainConfig {
        epochs: 25,
        ..quick_cfg()
    };
    let untrained = registry::build(Method::Mf, &ds, &cfg, 0);
    let eval_untrained = evaluate(untrained.as_ref(), &ds, 5);

    let mut trained = registry::build(Method::Mf, &ds, &cfg, 0);
    let mut rng = SplitMix64(0);
    trained.fit(&ds, &mut rng);
    let eval_trained = evaluate(trained.as_ref(), &ds, 5);

    assert!(
        eval_trained.auc > eval_untrained.auc + 0.05,
        "trained {} vs untrained {}",
        eval_trained.auc,
        eval_untrained.auc
    );
}

#[test]
fn coat_protocol_end_to_end() {
    let ds = coat_like(&RealWorldConfig {
        seed: 5,
        ..RealWorldConfig::default()
    });
    ds.validate();
    let cfg = quick_cfg();
    let mut model = registry::build(Method::DtIps, &ds, &cfg, 0);
    let mut rng = SplitMix64(0);
    model.fit(&ds, &mut rng);
    let eval = evaluate(model.as_ref(), &ds, 5);
    assert!(eval.auc > 0.5, "DT-IPS on coat-like: AUC {}", eval.auc);
    // No ground truth attached → pointwise metrics are NaN by contract.
    assert!(eval.mse_vs_truth.is_nan());
}

#[test]
fn fits_are_deterministic_under_fixed_seeds() {
    let ds = small_mnar(33);
    let run = || {
        let mut model = registry::build(Method::DtDr, &ds, &quick_cfg(), 4);
        let mut rng = SplitMix64(9);
        let fit = model.fit(&ds, &mut rng);
        (fit.final_loss, model.predict(&[(0, 0), (7, 11), (49, 59)]))
    };
    let (loss_a, preds_a) = run();
    let (loss_b, preds_b) = run();
    assert_eq!(loss_a, loss_b);
    assert_eq!(preds_a, preds_b);
}

#[test]
fn different_seeds_give_different_models() {
    let ds = small_mnar(34);
    let run = |seed: u64| {
        let mut model = registry::build(Method::Mf, &ds, &quick_cfg(), seed);
        let mut rng = SplitMix64(seed);
        model.fit(&ds, &mut rng);
        model.predict(&[(0, 0)])[0]
    };
    assert_ne!(run(1), run(2));
}

#[test]
fn propensity_reporting_methods_expose_probabilities() {
    let ds = small_mnar(35);
    for method in [Method::Ips, Method::DtIps, Method::Esmm, Method::IpsV2] {
        let mut model = registry::build(method, &ds, &quick_cfg(), 0);
        let mut rng = SplitMix64(0);
        model.fit(&ds, &mut rng);
        let p = model.propensity(&[(3, 4)]);
        let p = p.unwrap_or_else(|| panic!("{} should expose propensities", model.name()));
        assert!(p[0] > 0.0 && p[0] <= 1.0, "{}: {p:?}", model.name());
    }
    // Pure outcome models expose none.
    let mf = registry::build(Method::Mf, &ds, &quick_cfg(), 0);
    assert!(mf.propensity(&[(0, 0)]).is_none());
}
