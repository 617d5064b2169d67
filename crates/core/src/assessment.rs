//! The combined four-measure benchmark assessment.
//!
//! Section V's conclusion: *"a benchmark dataset is challenging for entity
//! matching only if it is marked easy by none of our measures"*. The four
//! easy-markers are:
//!
//! 1. degree of linearity ≥ 0.8 (either similarity) — linearly separable;
//! 2. mean complexity < 0.4 — simple patterns suffice;
//! 3. NLB < 5% — non-linear models add nothing;
//! 4. LBM < 5% — learning-based matchers are already near-perfect.

use crate::linearity::{degree_of_linearity_from_scores, LinearityReport};
use crate::practical::{practical_measures, MatcherRun, PracticalMeasures};
use rlb_complexity::{ComplexityConfig, ComplexityReport};
use rlb_data::MatchingTask;
use rlb_matchers::features::TaskViewCache;
use rlb_util::Result;

/// Thresholds used by the verdict (the paper's Section V / Figure 3
/// discussion).
pub const LINEARITY_EASY: f64 = 0.8;
/// Mean-complexity bar below which a task counts as easy.
pub const COMPLEXITY_EASY: f64 = 0.4;
/// NLB / LBM bar (5%).
pub const MARGIN_EASY: f64 = 0.05;

/// Which individual measures mark the benchmark easy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EasyFlags {
    /// Degree of linearity ≥ 0.8.
    pub by_linearity: bool,
    /// Mean complexity < 0.4.
    pub by_complexity: bool,
    /// NLB < 5%.
    pub by_nlb: bool,
    /// LBM < 5%.
    pub by_lbm: bool,
}

impl EasyFlags {
    /// The paper's verdict: challenging iff no measure marks it easy.
    pub fn challenging(&self) -> bool {
        !(self.by_linearity || self.by_complexity || self.by_nlb || self.by_lbm)
    }
}

rlb_util::impl_json!(EasyFlags {
    by_linearity,
    by_complexity,
    by_nlb,
    by_lbm
});

/// Full assessment of one benchmark.
#[derive(Debug, Clone)]
pub struct Assessment {
    /// Benchmark name.
    pub name: String,
    /// Algorithm-1 output.
    pub linearity: LinearityReport,
    /// The 17 complexity measures.
    pub complexity: ComplexityReport,
    /// NLB / LBM (absent when no matcher roster was run).
    pub practical: Option<PracticalMeasures>,
    /// Per-measure easy flags.
    pub flags: EasyFlags,
}

impl Assessment {
    /// The combined verdict.
    pub fn challenging(&self) -> bool {
        self.flags.challenging()
    }
}

rlb_util::impl_json!(Assessment {
    name,
    linearity,
    complexity,
    practical,
    flags
});

/// Computes the a-priori measures and, given matcher runs, the a-posteriori
/// ones, then applies the verdict.
///
/// Pass `runs = &[]` to assess a-priori only (the practical flags then do
/// not mark the benchmark easy — matching the paper's requirement that
/// *all four* measures are consulted before a final verdict, this yields a
/// provisional assessment with `practical = None`).
pub fn assess(task: &MatchingTask, runs: &[MatcherRun]) -> Result<Assessment> {
    assess_with(task, runs, &TaskViewCache::build(task))
}

/// [`assess`] over a pre-built view cache. The cache is built exactly once
/// per task per pipeline run: `degree_of_linearity` and the `[CS, JS]`
/// complexity feature extraction both read from it, so each record is
/// tokenized a single time.
pub fn assess_with(
    task: &MatchingTask,
    runs: &[MatcherRun],
    views: &TaskViewCache,
) -> Result<Assessment> {
    let _span = rlb_obs::span!("assess.task", "{}", task.name);
    let pairs: Vec<rlb_data::LabeledPair> = task.all_pairs().copied().collect();
    let scores = {
        let _sweep = rlb_obs::span!("linearity.sweep", "{}", task.name);
        rlb_obs::counter_add("linearity.pairs", pairs.len() as u64);
        rlb_util::par::par_map(&pairs, |lp| views.cs_js(lp.pair))
    };
    assess_from_scores(task, runs, &pairs, &scores)
}

/// The assessment over already-computed `[CS, JS]` similarity rows, one per
/// labelled pair in `pairs` order. Both the linearity sweep and the
/// complexity features read from `scores`, so the per-pair similarities are
/// computed exactly once — and a caller holding cached rows (the resident
/// service's incremental assessment cache) skips the similarity pass
/// entirely while staying byte-identical to [`assess_with`], which now
/// routes through this function.
pub fn assess_from_scores(
    task: &MatchingTask,
    runs: &[MatcherRun],
    pairs: &[rlb_data::LabeledPair],
    scores: &[[f64; 2]],
) -> Result<Assessment> {
    let linearity = degree_of_linearity_from_scores(pairs, scores);
    let labels: Vec<bool> = pairs.iter().map(|lp| lp.is_match).collect();
    let complexity = rlb_complexity::compute_cs_js(scores, &labels, &ComplexityConfig::default())?;
    let practical = (!runs.is_empty()).then(|| practical_measures(runs));
    let flags = EasyFlags {
        by_linearity: linearity.max_f1() >= LINEARITY_EASY,
        by_complexity: complexity.mean() < COMPLEXITY_EASY,
        by_nlb: practical.is_some_and(|p| p.nlb < MARGIN_EASY),
        by_lbm: practical.is_some_and(|p| p.lbm < MARGIN_EASY),
    };
    Ok(Assessment {
        name: task.name.clone(),
        linearity,
        complexity,
        practical,
        flags,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::practical::MatcherFamily;
    use rlb_synth::{BenchmarkProfile, DifficultyKnobs, Domain};

    fn task(noise: f64, hard: f64, seed: u64) -> MatchingTask {
        rlb_synth::generate_task(&BenchmarkProfile {
            id: "assess",
            stands_for: "test",
            domain: Domain::Product,
            left_size: 200,
            right_size: 250,
            n_matches: 120,
            labeled_pairs: 600,
            positive_fraction: 0.15,
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
        })
    }

    fn runs(linear: f64, nonlinear: f64) -> Vec<MatcherRun> {
        vec![
            MatcherRun {
                name: "lin".into(),
                family: MatcherFamily::Linear,
                f1: Some(linear),
            },
            MatcherRun {
                name: "dl".into(),
                family: MatcherFamily::DeepLearning,
                f1: Some(nonlinear),
            },
        ]
    }

    #[test]
    fn easy_benchmark_is_flagged_easy() {
        let t = task(0.05, 0.05, 1);
        let a = assess(&t, &runs(0.97, 0.99)).unwrap();
        assert!(a.flags.by_linearity || a.flags.by_complexity || a.flags.by_lbm);
        assert!(!a.challenging());
    }

    #[test]
    fn hard_benchmark_with_margins_is_challenging() {
        let t = task(0.7, 0.6, 2);
        let a = assess(&t, &runs(0.55, 0.75)).unwrap();
        assert!(!a.flags.by_nlb, "NLB 0.20 is not easy");
        assert!(!a.flags.by_lbm, "LBM 0.25 is not easy");
        assert!(a.challenging(), "flags: {:?}", a.flags);
    }

    #[test]
    fn high_nlb_low_lbm_is_still_easy() {
        // The paper's Ds1–Ds3 pattern: non-linear boost exists but matchers
        // are near-perfect.
        let t = task(0.7, 0.6, 3);
        let a = assess(&t, &runs(0.80, 0.99)).unwrap();
        assert!(a.flags.by_lbm);
        assert!(!a.challenging());
    }

    #[test]
    fn apriori_only_assessment_has_no_practical() {
        let t = task(0.4, 0.4, 4);
        let a = assess(&t, &[]).unwrap();
        assert!(a.practical.is_none());
        assert!(!a.flags.by_nlb && !a.flags.by_lbm);
    }

    #[test]
    fn assessment_serializes_roundtrip() {
        let t = task(0.4, 0.4, 5);
        let a = assess(&t, &[]).unwrap();
        let json = rlb_util::json::to_string(&a);
        assert!(json.contains("\"lsc\""));
        let back: Assessment = rlb_util::json::from_str(&json).unwrap();
        // The in-tree writer emits shortest round-tripping floats, so the
        // measures come back bit-exact.
        for ((n1, v1), (n2, v2)) in back.complexity.values().iter().zip(a.complexity.values()) {
            assert_eq!(*n1, n2);
            assert_eq!(v1.to_bits(), v2.to_bits(), "{n1}: {v1} vs {v2}");
        }
        assert_eq!(back.flags, a.flags);
        assert!(back.practical.is_none());
    }
}
