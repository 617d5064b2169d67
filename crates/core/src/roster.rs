//! The full matcher roster of Section V-B and the sweep runner behind
//! Tables IV and VI.

use crate::practical::{MatcherFamily, MatcherRun};
use rlb_data::MatchingTask;
use rlb_embed::contextual::Variant;
use rlb_matchers::deep::{
    is_insufficient_memory, DeepConfig, DeepMatcherSim, DittoSim, EmTransformerSim, GnemSim,
    HierMatcherSim,
};
use rlb_matchers::{
    evaluate, Esde, EsdeVariant, Magellan, MagellanModel, Matcher, TaskViewCache, ZeroEr,
};

/// Settings for the roster sweep.
#[derive(Debug, Clone, Copy)]
pub struct RosterConfig {
    /// The two epoch budgets every DL matcher is reported at (the paper
    /// uses the per-method default — 10 or 15 — and 40).
    pub dl_epochs: [usize; 2],
    /// Seed shared by the classical learners and the DL weight init.
    pub seed: u64,
}

impl Default for RosterConfig {
    fn default() -> Self {
        RosterConfig {
            dl_epochs: [15, 40],
            seed: 0x505E7,
        }
    }
}

/// Builds the complete matcher line-up:
/// 12 DL configurations (5 methods × 2 epoch budgets, GNEM/HierMatcher use
/// 10 instead of 15 as in the paper), Magellan × 4, ZeroER, 6 ESDE.
///
/// The six ESDE variants share `views`, so tokenization happens once per
/// task instead of once per variant. `views` must have been built from the
/// task the roster will run on.
pub fn full_roster_cached(
    cfg: &RosterConfig,
    views: &TaskViewCache,
) -> Vec<(MatcherFamily, Box<dyn Matcher + Send>)> {
    let [e_short, e_long] = cfg.dl_epochs;
    let dc = |epochs: usize| DeepConfig {
        epochs,
        seed: cfg.seed,
        max_train: 6000,
    };
    let mut v: Vec<(MatcherFamily, Box<dyn Matcher + Send>)> = Vec::new();
    for epochs in [e_short, e_long] {
        v.push((
            MatcherFamily::DeepLearning,
            Box::new(DeepMatcherSim::new(dc(epochs))),
        ));
    }
    for epochs in [e_short, e_long] {
        v.push((
            MatcherFamily::DeepLearning,
            Box::new(DittoSim::new(dc(epochs))),
        ));
    }
    for variant in [Variant::Bert, Variant::Roberta] {
        for epochs in [e_short, e_long] {
            v.push((
                MatcherFamily::DeepLearning,
                Box::new(EmTransformerSim::new(variant, dc(epochs))),
            ));
        }
    }
    // GNEM and HierMatcher default to 10 epochs in their papers.
    for epochs in [e_short.min(10), e_long] {
        v.push((
            MatcherFamily::DeepLearning,
            Box::new(GnemSim::new(dc(epochs))),
        ));
    }
    for epochs in [e_short.min(10), e_long] {
        v.push((
            MatcherFamily::DeepLearning,
            Box::new(HierMatcherSim::new(dc(epochs))),
        ));
    }
    for model in MagellanModel::all() {
        v.push((
            MatcherFamily::NonLinearMl,
            Box::new(Magellan::new(model, cfg.seed)),
        ));
    }
    v.push((MatcherFamily::NonLinearMl, Box::new(ZeroEr::new())));
    for variant in EsdeVariant::all() {
        v.push((
            MatcherFamily::Linear,
            Box::new(Esde::with_views(variant, views.clone())),
        ));
    }
    v
}

/// Runs the whole roster on one task. A matcher that fails with the
/// capacity sentinel yields `f1 = None` (the "-" of the paper's tables);
/// any other error propagates.
///
/// The 23 configurations are independent (each owns its matcher, the task is
/// shared read-only), so they run in parallel via
/// [`rlb_util::par::par_map_vec`]: each worker claims the next configuration
/// in roster order when it finishes one, and results come back in roster
/// order. One [`TaskViewCache`] is built up front and shared by the six
/// ESDE variants. SAQ- and SBQ-ESDE each build their own q-gram views in
/// `fit` and free them when their configuration finishes.
pub fn run_roster(task: &MatchingTask, cfg: &RosterConfig) -> rlb_util::Result<Vec<MatcherRun>> {
    let _span = rlb_obs::span!("roster.run", "{}", task.name);
    let views = TaskViewCache::build(task);
    let roster = full_roster_cached(cfg, &views);
    rlb_obs::counter_add("roster.configurations", roster.len() as u64);
    let results = rlb_util::par::par_map_vec(roster, |(family, mut matcher)| {
        let name = matcher.name();
        // Matchers run on par worker threads, so these spans are roots of
        // their own per-worker subtrees rather than children of roster.run.
        let _m = rlb_obs::span!("roster.matcher", "{name}");
        match evaluate(matcher.as_mut(), task) {
            Ok(metrics) => Ok(MatcherRun {
                name,
                family,
                f1: Some(metrics.f1),
            }),
            Err(e) if is_insufficient_memory(&e) => Ok(MatcherRun {
                name,
                family,
                f1: None,
            }),
            Err(e) => Err(e),
        }
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_data::Source;

    /// The default line-up; it does not depend on the task, so the views of
    /// an empty one serve.
    fn line_up() -> Vec<(MatcherFamily, Box<dyn Matcher + Send>)> {
        let task = MatchingTask {
            name: "empty".into(),
            left: Source::new("L", vec![]),
            right: Source::new("R", vec![]),
            train: vec![],
            val: vec![],
            test: vec![],
        };
        full_roster_cached(&RosterConfig::default(), &TaskViewCache::build(&task))
    }

    #[test]
    fn roster_has_the_paper_line_up() {
        let roster = line_up();
        assert_eq!(roster.len(), 12 + 4 + 1 + 6);
        let dl = roster
            .iter()
            .filter(|(f, _)| *f == MatcherFamily::DeepLearning)
            .count();
        let ml = roster
            .iter()
            .filter(|(f, _)| *f == MatcherFamily::NonLinearMl)
            .count();
        let lin = roster
            .iter()
            .filter(|(f, _)| *f == MatcherFamily::Linear)
            .count();
        assert_eq!((dl, ml, lin), (12, 5, 6));
    }

    #[test]
    fn names_are_unique() {
        let roster = line_up();
        let mut names: Vec<String> = roster.iter().map(|(_, m)| m.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 23, "duplicate matcher names");
    }

    #[test]
    fn gnem_and_hiermatcher_use_their_default_budgets() {
        let roster = line_up();
        let names: Vec<String> = roster.iter().map(|(_, m)| m.name()).collect();
        assert!(names.contains(&"GNEM (10)".to_string()));
        assert!(names.contains(&"HierMatcher (10)".to_string()));
        assert!(names.contains(&"EMTransformer-R (15)".to_string()));
    }
}
