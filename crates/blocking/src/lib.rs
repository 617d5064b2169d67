//! Blocking: candidate-pair generation and the Section-VI tuning loop.
//!
//! The paper's methodology for new benchmarks hinges on a *state-of-the-art,
//! tunable* blocker (DeepBlocker): embed every record, index one source,
//! query with the other, keep the top-`K` neighbours per query, and grid-
//! search the hyperparameters (blocked attribute, cleaning on/off, `K`,
//! which source is indexed) for the smallest candidate set whose recall
//! (pair completeness, PC) still exceeds a floor. This crate provides:
//!
//! - [`EmbeddingNnBlocker`] — the DeepBlocker substitute: pooled subword
//!   embeddings + top-K cosine retrieval over a flat [`VecArena`], with an
//!   optional perturbation seed standing in for the stochasticity of
//!   DeepBlocker's self-supervised autoencoder training (the paper averages
//!   10 runs);
//! - [`ivf`] — the std-only IVF approximate index (deterministic k-means
//!   coarse quantizer + `nprobe`-controlled list probing) behind
//!   [`NnIndex`], bitwise identical to the exact scan at exhaustive probing;
//! - [`TokenBlocker`] / [`QGramBlocker`] — classical baselines used in the
//!   ablation benches;
//! - [`metrics`] — PC and PQ as defined in the blocking literature;
//! - [`tuner`] — the grid search of Section VI step 2, extended to sweep
//!   `nlists`/`nprobe` alongside `K`.

pub mod arena;
pub mod cleaning;
pub mod embed_nn;
pub mod ivf;
pub mod metrics;
pub mod token;
pub mod tuner;

pub use arena::{VecArena, ZERO_NORM_SCORE};
pub use embed_nn::{rank_queries, EmbeddingNnBlocker, IndexSide, NnIndex, Retrieval};
pub use ivf::{IvfIndex, IvfParams};
pub use metrics::{blocking_metrics, BlockingMetrics};
pub use token::{QGramBlocker, TokenBlocker};
pub use tuner::{tune, AnnChoice, AnnSweep, BlockerChoice, TunerConfig};

use rlb_data::{PairRef, Source};

/// A candidate-pair generator over two duplicate-free sources.
pub trait Blocker {
    /// Display name.
    fn name(&self) -> String;
    /// The candidate pairs (unique, unordered).
    fn candidates(&self, left: &Source, right: &Source) -> Vec<PairRef>;
}
