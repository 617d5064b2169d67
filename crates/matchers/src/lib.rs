//! The matching algorithms of Section IV.
//!
//! Three families behind one [`Matcher`] trait:
//!
//! 1. **Linear supervised** ([`esde`]) — the paper's six new ESDE algorithms
//!    (Algorithm 2): a per-feature threshold is learned on the training set,
//!    the best feature is selected on the validation set, and that single
//!    `(feature, threshold)` rule classifies the test set.
//! 2. **Non-neural, non-linear** ([`magellan`], [`zeroer`]) — a Magellan-style
//!    feature builder (similarity function × attribute) feeding DT / LR /
//!    RF / SVM classifiers, and an unsupervised ZeroER built on a Gaussian
//!    mixture.
//! 3. **Deep-learning simulations** ([`deep`]) — DeepMatcher, EMTransformer
//!    (-B/-R), DITTO, GNEM and HierMatcher, re-created at the level the
//!    paper's analysis needs: each occupies its cell of the Table-II
//!    taxonomy (static/dynamic embeddings × homogeneous/heterogeneous
//!    schema handling × local/global similarity context) and is trained with
//!    validation-based epoch selection on `rlb-nn`.
//!
//! Every matcher is deterministic under its seed. [`evaluate`] runs the full
//! Problem-1 protocol: fit on `T` + `V`, predict `C`, score with F1.

pub mod deep;
pub mod esde;
pub mod features;
pub mod magellan;
pub mod taxonomy;
pub mod zeroer;

pub use esde::{Esde, EsdeVariant};
pub use features::{TaskViewCache, TaskViews};
pub use magellan::{Magellan, MagellanModel};
pub use taxonomy::{taxonomy, TaxonomyRow};
pub use zeroer::ZeroEr;

use rlb_data::{MatchingTask, PairRef};
use rlb_ml::metrics::BinaryMetrics;
use rlb_util::Result;

/// A supervised (or unsupervised) matching algorithm.
pub trait Matcher {
    /// Display name, e.g. `"SA-ESDE"`, `"EMTransformer-R (40)"`.
    fn name(&self) -> String;

    /// Trains on the task's training and validation sets. Unsupervised
    /// matchers may ignore the labels but must still respect the split
    /// boundaries for anything label-dependent.
    fn fit(&mut self, task: &MatchingTask) -> Result<()>;

    /// Predicts match/non-match for the given pairs of the same task.
    /// Takes `&mut self` because neural forward passes reuse internal
    /// buffers.
    fn predict(&mut self, task: &MatchingTask, pairs: &[PairRef]) -> Vec<bool>;
}

/// Fits `matcher` on the task and evaluates it on the test set.
pub fn evaluate(matcher: &mut dyn Matcher, task: &MatchingTask) -> Result<BinaryMetrics> {
    matcher.fit(task)?;
    let pairs: Vec<PairRef> = task.test.iter().map(|lp| lp.pair).collect();
    let labels: Vec<bool> = task.test.iter().map(|lp| lp.is_match).collect();
    let preds = matcher.predict(task, &pairs);
    Ok(rlb_ml::metrics::confusion(&preds, &labels).metrics())
}

#[cfg(test)]
pub(crate) mod testtask {
    use rlb_data::MatchingTask;
    use rlb_synth::{BenchmarkProfile, DifficultyKnobs, Domain};

    /// Like [`small`] but with an explicit hard-negative share (the
    /// unsupervised-matcher tests need genuinely easy negatives: a Gaussian
    /// mixture cannot tell near-duplicate siblings apart without labels).
    pub fn small_with_hard(noise: f64, hard: f64, seed: u64) -> MatchingTask {
        let p = BenchmarkProfile {
            id: "unit",
            stands_for: "unit test",
            domain: Domain::Product,
            left_size: 150,
            right_size: 180,
            n_matches: 80,
            labeled_pairs: 400,
            positive_fraction: 0.18,
            knobs: DifficultyKnobs {
                match_noise: noise,
                hard_negative_fraction: hard,
                anchor_attrs: 1,
                dirty: false,
                style_noise: 0.03,
                right_terse: false,
                base_missing: 0.2 * noise,
            },
            seed,
        };
        rlb_synth::generate_task(&p)
    }

    /// A small, moderately difficult product benchmark for matcher tests.
    pub fn small(noise: f64, seed: u64) -> MatchingTask {
        let p = BenchmarkProfile {
            id: "unit",
            stands_for: "unit test",
            domain: Domain::Product,
            left_size: 150,
            right_size: 180,
            n_matches: 80,
            labeled_pairs: 400,
            positive_fraction: 0.18,
            knobs: DifficultyKnobs {
                match_noise: noise,
                hard_negative_fraction: 0.4,
                anchor_attrs: 1,
                dirty: false,
                style_noise: 0.03,
                right_terse: false,
                base_missing: 0.2 * noise,
            },
            seed,
        };
        rlb_synth::generate_task(&p)
    }
}
