//! `rlb-core` — the paper's primary contribution as a library.
//!
//! *A Critical Re-evaluation of Record Linkage Benchmarks for
//! Learning-Based Matching Algorithms* (ICDE 2024) proposes a principled
//! framework for judging whether an entity-resolution benchmark is actually
//! capable of differentiating learning-based matchers. This crate exposes
//! that framework end to end:
//!
//! - [`linearity`] — Algorithm 1, the *degree of linearity*
//!   (`F1max_CS`, `F1max_JS` and their thresholds);
//! - re-exported [`rlb_complexity`] — the 17 complexity measures over the
//!   `[CS, JS]` pair representation;
//! - [`practical`] — the a-posteriori aggregates **NLB** (non-linear boost)
//!   and **LBM** (learning-based margin) over a matcher roster;
//! - [`roster`] — the full matcher line-up of Section V-B (6 linear ESDE,
//!   Magellan × 4, ZeroER, 5 DL simulations × 2 epoch budgets);
//! - [`assessment`] — the combined four-measure verdict (a benchmark is
//!   challenging iff *no* measure marks it easy);
//! - [`builder`] — the Section-VI methodology: blocking + tuning + splitting
//!   a raw dataset pair into a new benchmark, with the Table-V bookkeeping.
//!
//! The companion crates supply everything underneath: synthetic dataset
//! stand-ins (`rlb-synth`), matchers (`rlb-matchers`), blocking
//! (`rlb-blocking`), and the ML/NN/text substrates.

pub mod assessment;
pub mod builder;
pub mod linearity;
pub mod practical;
pub mod roster;

pub use assessment::{assess, assess_from_scores, assess_with, Assessment, EasyFlags};
pub use builder::{build_benchmark, BuiltBenchmark};
pub use linearity::{
    degree_of_linearity, degree_of_linearity_from_scores, degree_of_linearity_with, LinearityReport,
};
pub use practical::{practical_measures, MatcherFamily, MatcherRun, PracticalMeasures};
pub use roster::{full_roster, full_roster_cached, run_roster, RosterConfig};

// Re-export the pieces users otherwise need from companion crates.
pub use rlb_complexity::{compute as complexity, ComplexityConfig, ComplexityReport};
pub use rlb_data::{DatasetStats, LabeledPair, MatchingTask, PairRef, Source};
pub use rlb_matchers::{evaluate, Matcher, TaskViewCache};
pub use rlb_synth::{established_profiles, generate_raw_pair, generate_task, raw_pair_profiles};
