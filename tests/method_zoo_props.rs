//! Zoo-wide contracts: every registered method upholds the `Recommender`
//! interface invariants on an MNAR dataset.

use dt_core::{registry, Method, TrainConfig};
use dt_data::{mechanism_dataset, Mechanism, MechanismConfig};
use dt_tensor::SplitMix64;

fn tiny_mnar() -> dt_data::Dataset {
    mechanism_dataset(
        Mechanism::Mnar,
        &MechanismConfig {
            n_users: 25,
            n_items: 30,
            target_density: 0.2,
            seed: 77,
            ..MechanismConfig::default()
        },
    )
}

fn tiny_cfg() -> TrainConfig {
    TrainConfig {
        epochs: 2,
        batch_size: 64,
        emb_dim: 4,
        ..TrainConfig::default()
    }
}

/// Every method trains without NaNs and predicts probabilities on every
/// cell of the space.
#[test]
fn zoo_trains_and_predicts_probabilities() {
    let ds = tiny_mnar();
    let cfg = tiny_cfg();
    let all_pairs: Vec<(usize, usize)> = (0..ds.n_users)
        .flat_map(|u| (0..ds.n_items).map(move |i| (u, i)))
        .collect();
    for method in Method::ALL {
        let mut model = registry::build(method, &ds, &cfg, 1);
        let mut rng = SplitMix64(1);
        let fit = model.fit(&ds, &mut rng);
        assert!(
            fit.final_loss.is_finite(),
            "{}: non-finite training loss",
            model.name()
        );
        let preds = model.predict(&all_pairs);
        assert_eq!(preds.len(), all_pairs.len());
        for (k, p) in preds.iter().enumerate() {
            assert!(
                (0.0..=1.0).contains(p) && p.is_finite(),
                "{}: prediction {p} at pair {:?}",
                model.name(),
                all_pairs[k]
            );
        }
    }
}

/// Loss traces have the declared length and no NaNs anywhere.
#[test]
fn zoo_loss_traces_are_well_formed() {
    let ds = tiny_mnar();
    let cfg = TrainConfig {
        epochs: 3,
        ..tiny_cfg()
    };
    for method in Method::ALL {
        let mut model = registry::build(method, &ds, &cfg, 2);
        let mut rng = SplitMix64(2);
        let fit = model.fit(&ds, &mut rng);
        assert_eq!(fit.loss_trace.len(), 3, "{}", model.name());
        assert!(
            fit.loss_trace.iter().all(|l| l.is_finite()),
            "{}: {:?}",
            model.name(),
            fit.loss_trace
        );
    }
}

/// Predictions are pure: calling predict twice gives identical results,
/// and predict does not mutate the model.
#[test]
fn zoo_prediction_is_pure() {
    let ds = tiny_mnar();
    for method in [Method::Mf, Method::DtIps, Method::Esmm, Method::Mr] {
        let mut model = registry::build(method, &ds, &tiny_cfg(), 3);
        let mut rng = SplitMix64(3);
        model.fit(&ds, &mut rng);
        let pairs = [(0, 0), (4, 7), (24, 29)];
        let a = model.predict(&pairs);
        let b = model.predict(&pairs);
        assert_eq!(a, b, "{}", model.name());
    }
}

/// Empty prediction batches are fine.
#[test]
fn zoo_accepts_empty_batches() {
    let ds = tiny_mnar();
    for method in Method::ALL {
        let model = registry::build(method, &ds, &tiny_cfg(), 4);
        assert!(model.predict(&[]).is_empty(), "{}", model.name());
    }
}

/// All parameter counts are stable across construction with the same
/// config (no RNG-dependent architecture).
#[test]
fn zoo_parameter_counts_are_deterministic() {
    let ds = tiny_mnar();
    for method in Method::ALL {
        let a = registry::build(method, &ds, &tiny_cfg(), 5).n_parameters();
        let b = registry::build(method, &ds, &tiny_cfg(), 99).n_parameters();
        assert_eq!(a, b, "{method:?}");
    }
}

/// Regression test: the DR-family variants must produce *different*
/// models — the imputation pseudo-labels must reach the prediction
/// gradient (an earlier formulation detached them, collapsing every DR
/// variant onto the same trajectory).
#[test]
fn dr_variants_are_distinguishable() {
    let ds = tiny_mnar();
    let cfg = TrainConfig {
        epochs: 4,
        ..tiny_cfg()
    };
    let fit = |method: Method| {
        let mut model = registry::build(method, &ds, &cfg, 7);
        let mut rng = SplitMix64(7);
        model.fit(&ds, &mut rng);
        model.predict(&[(0, 0), (3, 7), (11, 13), (24, 29)])
    };
    let jl = fit(Method::DrJl);
    let mrdr = fit(Method::MrdrJl);
    let bias = fit(Method::DrBias);
    let stable = fit(Method::StableDr);
    let tdr_jl = fit(Method::TdrJl);
    assert_ne!(jl, mrdr, "DR-JL vs MRDR-JL");
    assert_ne!(jl, bias, "DR-JL vs DR-BIAS");
    assert_ne!(jl, stable, "DR-JL vs Stable-DR");
    assert_ne!(jl, tdr_jl, "DR-JL vs TDR-JL");
    assert_ne!(mrdr, bias, "MRDR-JL vs DR-BIAS");
}

/// DT-DR's imputation must influence the rating head (same regression
/// class as above): its predictions must differ from DT-IPS beyond the
/// density-scaled learning-rate effect.
#[test]
fn dt_dr_uses_its_imputation() {
    let ds = tiny_mnar();
    let cfg = TrainConfig {
        epochs: 4,
        ..tiny_cfg()
    };
    let fit = |method: Method| {
        let mut model = registry::build(method, &ds, &cfg, 7);
        let mut rng = SplitMix64(7);
        model.fit(&ds, &mut rng);
        model.predict(&[(0, 0), (3, 7), (11, 13)])
    };
    assert_ne!(fit(Method::DtIps), fit(Method::DtDr));
}

/// FNV-1a over the bit patterns of a fit's traces and a few predictions.
fn fit_fingerprint(fit: &dt_core::FitReport, preds: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let words = fit.loss_trace.iter().chain(&fit.aux_trace).chain(preds);
    for bits in words.map(|x| x.to_bits()) {
        for byte in bits.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every method's seeded fit on `tiny_mnar()` reproduces its recorded
/// fingerprint bit for bit. A change that moves training numerics on
/// purpose updates these values and says so in CHANGES.md.
#[test]
fn zoo_fits_match_their_pinned_fingerprints() {
    const PINS: [(Method, u64); 22] = [
        (Method::Mf, 0xba9e_503c_0459_ace2),
        (Method::Cvib, 0x5b55_fea5_1e09_074a),
        (Method::Dib, 0x6752_8f89_29bc_f84a),
        (Method::Ips, 0xe254_03a4_01f1_2776),
        (Method::Dr, 0xc5b3_e78a_9045_d2c4),
        (Method::DrJl, 0x2054_56b8_d34b_7ae3),
        (Method::MrdrJl, 0x5969_dd5d_1e42_c040),
        (Method::DrBias, 0x6a8d_84f7_7a2c_0263),
        (Method::DrMse, 0xae87_bd9a_c230_a6d6),
        (Method::Mr, 0x1527_50ab_c44e_3296),
        (Method::Tdr, 0x2df4_ed35_3143_0127),
        (Method::TdrJl, 0x0318_2eb6_599e_a75d),
        (Method::StableDr, 0x3e0f_e41e_e171_9103),
        (Method::MultiIps, 0x835f_6aa3_0481_64ce),
        (Method::MultiDr, 0x90ce_a7ff_5ea3_9cdb),
        (Method::Esmm, 0x60c8_96d4_e361_45b2),
        (Method::Escm2Ips, 0x2908_687a_3d04_e8bb),
        (Method::Escm2Dr, 0x82be_72db_4e4c_5f9d),
        (Method::IpsV2, 0x263f_e65e_72be_577a),
        (Method::DrV2, 0xb6dc_c872_4561_b976),
        (Method::DtIps, 0x8003_c4d4_d68f_bd93),
        (Method::DtDr, 0xbf61_2400_270d_498b),
    ];
    let ds = tiny_mnar();
    let pairs = [(0, 0), (3, 7), (11, 13), (24, 29)];
    let mut moved = Vec::new();
    for (method, pin) in PINS {
        let mut model = registry::build(method, &ds, &tiny_cfg(), 11);
        let mut rng = SplitMix64(11);
        let fit = model.fit(&ds, &mut rng);
        let got = fit_fingerprint(&fit, &model.predict(&pairs));
        if got != pin {
            moved.push(format!(
                "{}: {got:#018x} (pinned {pin:#018x})",
                method.label()
            ));
        }
    }
    assert!(moved.is_empty(), "fits moved:\n{}", moved.join("\n"));
}
