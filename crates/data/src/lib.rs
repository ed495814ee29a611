//! # dt-data
//!
//! Data substrate for the `disrec` workspace: interaction logs, the three
//! missing-data mechanisms (MCAR / MAR / MNAR) as explicit generators with
//! oracle propensities, the paper's semi-synthetic ML-100K pipeline
//! (Section V, Steps 1–3), statistically-matched simulators for the COAT /
//! YAHOO / KUAIREC evaluation datasets, parsers for the real on-disk
//! formats, and batching/splitting utilities.
//!
//! ## Why simulators?
//!
//! The paper evaluates on MovieLens-100K, COAT, Yahoo! R3 and KuaiRec.
//! Those downloads are unavailable offline, so each is replaced by a
//! generator that reproduces the property the evaluation hinges on — an
//! **MNAR training log** (users select what they rate, with the rating
//! itself influencing selection) paired with an **unbiased (MCAR/MAR) test
//! set**. Unlike the real data, the simulators also expose the ground-truth
//! preference and propensity matrices, which lets the test suite check
//! estimator bias *exactly* (see `dt-estimators`).

#![forbid(unsafe_code)]

mod batch;
mod binser;
mod dataset;
mod interactions;
mod parsers;
mod realworld;
mod semisynthetic;
mod sparsify;
mod split;
mod synthetic;

pub use batch::{uniform_pairs, BatchIter};
pub use binser::{decode_log, encode_log, DecodeError};
pub use dataset::{Dataset, GroundTruth};
pub use interactions::{Interaction, InteractionLog, Pair, PairSet};
pub use parsers::{parse_coat_ascii, parse_movielens, parse_yahoo_triples, ParseError};
pub use realworld::{coat_like, kuairec_like, yahoo_like, RealWorldConfig};
pub use semisynthetic::{ml100k_like, semi_synthetic, MfCompletion, SemiSyntheticConfig};
pub use sparsify::sparsify;
pub use split::{holdout_split, leave_k_out};
pub use synthetic::{mechanism_dataset, Mechanism, MechanismConfig};
