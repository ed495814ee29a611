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

/// FNV-1a over the little-endian bytes of a run of 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over the bit patterns of a fit's traces and a few predictions.
fn fit_fingerprint(fit: &dt_core::FitReport, preds: &[f64]) -> u64 {
    let words = fit.loss_trace.iter().chain(&fit.aux_trace).chain(preds);
    fnv1a(words.map(|x| x.to_bits()))
}

/// The pairs every pinned fit is probed at.
const PROBE_PAIRS: [(usize, usize); 4] = [(0, 0), (3, 7), (11, 13), (24, 29)];

/// Each method's seeded fit on `tiny_mnar()`, as the pins below train it.
fn pinned_fit(method: Method) -> (Box<dyn dt_core::Recommender>, dt_core::FitReport) {
    let ds = tiny_mnar();
    let mut model = registry::build(method, &ds, &tiny_cfg(), 11);
    let mut rng = SplitMix64(11);
    let fit = model.fit(&ds, &mut rng);
    (model, fit)
}

/// Compares each method's fingerprint with its pin and lists the moved ones.
fn assert_pins(what: &str, pins: &[(Method, u64)], fingerprint: impl Fn(Method) -> u64) {
    let moved: Vec<String> = pins
        .iter()
        .filter_map(|&(method, pin)| {
            let got = fingerprint(method);
            (got != pin).then(|| format!("{}: {got:#018x} (pinned {pin:#018x})", method.label()))
        })
        .collect();
    assert!(moved.is_empty(), "{what} moved:\n{}", moved.join("\n"));
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
    assert_pins("fits", &PINS, |method| {
        let (model, fit) = pinned_fit(method);
        fit_fingerprint(&fit, &model.predict(&PROBE_PAIRS))
    });
}

/// Every method with a propensity model reproduces its learned
/// propensities at the probe pairs bit for bit after the pinned fit; the
/// methods without one report none.
#[test]
fn zoo_propensities_match_their_pinned_fingerprints() {
    const PINS: [(Method, u64); 18] = [
        (Method::Ips, 0x0098_1290_ec6b_8c97),
        (Method::Dr, 0x0098_1290_ec6b_8c97),
        (Method::DrJl, 0x0098_1290_ec6b_8c97),
        (Method::MrdrJl, 0x0098_1290_ec6b_8c97),
        (Method::DrBias, 0x0098_1290_ec6b_8c97),
        (Method::DrMse, 0x0098_1290_ec6b_8c97),
        (Method::Tdr, 0x0098_1290_ec6b_8c97),
        (Method::TdrJl, 0x0098_1290_ec6b_8c97),
        (Method::StableDr, 0x0098_1290_ec6b_8c97),
        (Method::MultiIps, 0x3f80_2102_0dbd_c4e9),
        (Method::MultiDr, 0xf10a_ebf0_e120_1c23),
        (Method::Esmm, 0xcb4a_e616_2262_9ec0),
        (Method::Escm2Ips, 0x1554_a86b_78f3_5d56),
        (Method::Escm2Dr, 0xb6dd_a8e7_d680_9e60),
        (Method::IpsV2, 0x88fd_9d68_80b3_6aeb),
        (Method::DrV2, 0x55b7_5a7d_507b_aa3d),
        (Method::DtIps, 0xc4f9_4db8_854f_7b43),
        (Method::DtDr, 0xb621_d8d2_1aff_2595),
    ];
    assert_pins("propensities", &PINS, |method| {
        let (model, _) = pinned_fit(method);
        let props = model.propensity(&PROBE_PAIRS).expect("a propensity model");
        fnv1a(props.iter().map(|p| p.to_bits()))
    });
    for method in [Method::Mf, Method::Cvib, Method::Dib, Method::Mr] {
        let (model, _) = pinned_fit(method);
        assert!(
            model.propensity(&PROBE_PAIRS).is_none(),
            "{}",
            method.label()
        );
    }
}

/// Every method's top-K lists for a few users (training pairs excluded)
/// reproduce their items and score bits after the pinned fit: the
/// MF-family methods serve through their exported index, the rest through
/// `predict`.
#[test]
fn zoo_top_k_matches_its_pinned_fingerprints() {
    const PINS: [(Method, u64); 22] = [
        (Method::Mf, 0x2630_fca7_634b_d700),
        (Method::Cvib, 0xdc2b_15d8_91c1_98fc),
        (Method::Dib, 0x25c8_6942_32ab_9eaa),
        (Method::Ips, 0x651b_6191_5fda_71f0),
        (Method::Dr, 0xabc9_2360_e11e_2f02),
        (Method::DrJl, 0xf524_0471_a2c7_ed0f),
        (Method::MrdrJl, 0x5c98_0077_7f26_296f),
        (Method::DrBias, 0xaff3_3ed9_4b02_86b9),
        (Method::DrMse, 0xbdfb_eaae_57ae_b832),
        (Method::Mr, 0x0950_932d_2309_48fe),
        (Method::Tdr, 0xabc9_2360_e11e_2f02),
        (Method::TdrJl, 0x75e3_f1fb_3e38_6f95),
        (Method::StableDr, 0xaad1_81c4_04bf_0966),
        (Method::MultiIps, 0xab23_d7fd_7406_1059),
        (Method::MultiDr, 0xe31d_20a7_72c0_d056),
        (Method::Esmm, 0xe94a_6f27_4f7b_c87d),
        (Method::Escm2Ips, 0xa6ea_16fc_89c8_1db3),
        (Method::Escm2Dr, 0x50f3_cf6f_d329_9b56),
        (Method::IpsV2, 0x3c24_e897_9dbd_b2e3),
        (Method::DrV2, 0x77c1_bdb3_f67f_f996),
        (Method::DtIps, 0x7f7a_b582_b979_8d43),
        (Method::DtDr, 0xba8b_acd7_1f7c_53c1),
    ];
    let ds = tiny_mnar();
    let seen = dt_core::SeenLists::from_pairs(
        ds.n_users,
        ds.train.interactions().iter().map(|it| (it.user, it.item)),
    );
    let users = [0, 3, 11, 24];
    assert_pins("top-K lists", &PINS, |method| {
        let (model, _) = pinned_fit(method);
        let top = model.recommend_top_k(&users, ds.n_items, 5, Some(&seen));
        let ranked = (0..users.len()).flat_map(|j| top.user(j).to_vec());
        fnv1a(ranked.flat_map(|r| [u64::from(r.item), r.score.to_bits()]))
    });
}
