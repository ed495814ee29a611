//! # dt-serve
//!
//! Batched full-catalog top-K retrieval — the serving layer of the
//! `disrec` workspace (DESIGN.md section 12).
//!
//! Training produces MF-family models whose score is a dot product plus
//! biases; serving asks the converse question: *given a user, which K of
//! the M catalog items score highest?* The paper's own evaluation
//! protocol (NDCG@K / Recall@K over the unbiased test log, Table IV) is
//! exactly this workload, and the ROADMAP north star — heavy traffic over
//! millions of items — makes it the inference hot path.
//!
//! The pipeline:
//!
//! 1. [`ScoringIndex`] — contiguous row-major user/item panels plus bias
//!    vectors, extracted once from a trained model (primary-part slices
//!    for the DT methods, whose rating head only sees columns `0..A`).
//! 2. Queries score a **block** of users against all M items through the
//!    blocked `dt-tensor` GEMM kernels with pooled buffers: zero
//!    steady-state allocations per query batch.
//! 3. Each user's top-K is found by bounded-heap partial selection
//!    ([`dt_tensor::topk`]) in `O(M + K log K)` instead of an
//!    `O(M log M)` full sort, with optional exclusion of already-seen
//!    items via per-user sorted [`SeenLists`].
//!
//! Every stage is bit-identical for any `DT_NUM_THREADS` and for pooled
//! vs fresh buffers: chunk geometry derives from shapes only, and ties
//! break by ascending item id (never by arrival order).
//!
//! For catalogs where even one blocked pass over all M items is too slow,
//! the [`IvfIndex`] coarse quantizer (DESIGN.md section 13) trades a
//! little recall for sublinear candidate generation: deterministic
//! k-means cells over the bias-augmented item panel, probed per user and
//! reranked **exactly** through the same scoring kernels
//! ([`TopKEngine::recommend_ivf_into`]), with a shortfall fallback that
//! degrades to exact rather than under-filling a stripe.
//!
//! The exact scan streams the whole item panel per query batch, so the
//! index can also be re-exported at a serving dtype (DESIGN.md section
//! 15): [`ScoringIndex::quantize`] produces a [`QuantizedIndex`] whose
//! panels store `f64` or `f32` ([`PanelDtype`]), served by a fused
//! range-sharded scan-and-select that scores groups of up to eight users
//! per pass over the panel ([`TopKEngine::recommend_quantized_into`]).
//! At `F64` the fused scan is bit-identical to the block-GEMM path and
//! is the exact path `dt-core` ranks through; the block GEMM stays as
//! the reference every other path is checked against, and the `f32`
//! accuracy bill is measured against it.
//!
//! Three paths, then: the block-GEMM reference, IVF, and the fused
//! scan. Cached results are keyed on the engine's one epoch
//! ([`TopKEngine::bump_epoch`]; the `dt-load` cache, DESIGN.md section
//! 17).

#![forbid(unsafe_code)]

mod engine;
mod index;
mod ivf;
pub mod kmeans;
mod qengine;
mod qindex;

pub use dt_tensor::quant::{Panel, PanelDtype};
pub use dt_tensor::topk::Ranked;
pub use engine::{IvfScratch, TopKBatch, TopKEngine, DEFAULT_BLOCK_ELEMS};
pub use index::{ScoringIndex, SeenLists};
pub use ivf::{IvfIndex, IvfParams};
pub use qengine::QuantScratch;
pub use qindex::QuantizedIndex;
