//! The full matcher roster of Section V-B and the sweep runner behind
//! Tables IV and VI.
//!
//! A roster run computes each input that several configurations share once
//! and hands it to every configuration that reads it:
//!
//! - the interned token views, read by the six ESDE variants;
//! - the Magellan row of every pair that a Magellan model or ZeroER reads
//!   ([`MagellanRows`], one parallel pass);
//! - one featurisation and one training run per deep method, read at both
//!   epoch budgets ([`evaluate_budgets`]).
//!
//! Each shared input is what the configurations would compute for
//! themselves, so every F1 equals a fresh, unshared [`evaluate`] of the
//! same configuration, bit for bit.
//!
//! [`evaluate`]: rlb_matchers::evaluate

use crate::practical::{MatcherFamily, MatcherRun};
use rlb_data::{MatchingTask, PairRef};
use rlb_embed::contextual::Variant;
use rlb_matchers::deep::{
    budget_name, is_insufficient_memory, DeepConfig, DeepMatcher, DeepMatcherSim, DittoSim,
    EmTransformerSim, GnemSim, HierMatcherSim,
};
use rlb_matchers::{
    evaluate, evaluate_budgets, Esde, EsdeVariant, Magellan, MagellanModel, MagellanRows, Matcher,
    TaskViewCache, ZeroEr,
};
use std::sync::Arc;

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

/// One unit of roster work, run on one worker.
enum Job {
    /// A deep method, trained once and reported at both of its budgets.
    Deep(Box<dyn DeepMatcher + Send>, [usize; 2]),
    /// Any other configuration.
    Single(MatcherFamily, Box<dyn Matcher + Send>),
}

impl Job {
    /// The configurations this job reports, in roster order.
    fn names(&self) -> Vec<String> {
        match self {
            Job::Deep(m, budgets) => budgets
                .iter()
                .map(|&e| budget_name(m.method(), e))
                .collect(),
            Job::Single(_, m) => vec![m.name()],
        }
    }

    fn family(&self) -> MatcherFamily {
        match self {
            Job::Deep(..) => MatcherFamily::DeepLearning,
            Job::Single(family, _) => *family,
        }
    }

    /// The name the job's trace span carries: a deep job's longer
    /// configuration.
    fn label(&self) -> String {
        match self {
            Job::Deep(m, budgets) => budget_name(m.method(), budgets[0].max(budgets[1])),
            Job::Single(_, m) => m.name(),
        }
    }

    /// Test-set F1 of each configuration: `None` when the matcher fails
    /// with the capacity sentinel; any other error propagates.
    fn run(self, task: &MatchingTask) -> rlb_util::Result<Vec<MatcherRun>> {
        let (names, family) = (self.names(), self.family());
        let f1s = match self {
            Job::Deep(mut m, budgets) => evaluate_budgets(m.as_mut(), task, &budgets)
                .map(|ms| ms.into_iter().map(|m| m.f1).collect::<Vec<_>>()),
            Job::Single(_, mut m) => evaluate(m.as_mut(), task).map(|m| vec![m.f1]),
        };
        let f1s = match f1s {
            Ok(f1s) => f1s.into_iter().map(Some).collect(),
            Err(e) if is_insufficient_memory(&e) => vec![None; names.len()],
            Err(e) => return Err(e),
        };
        Ok(names
            .into_iter()
            .zip(f1s)
            .map(|(name, f1)| MatcherRun { name, family, f1 })
            .collect())
    }
}

/// The complete line-up as jobs: six deep methods at two epoch budgets
/// each (12 configurations; GNEM and HierMatcher use 10 instead of 15 as
/// in the paper), Magellan × 4, ZeroER, 6 ESDE. The ESDE variants read
/// `views`, the Magellan models and ZeroER read `rows`; both must have
/// been built from the task the jobs will run on.
fn jobs(cfg: &RosterConfig, views: &TaskViewCache, rows: &Arc<MagellanRows>) -> Vec<Job> {
    let [e_short, e_long] = cfg.dl_epochs;
    let dc = DeepConfig {
        epochs: e_long,
        seed: cfg.seed,
        max_train: 6000,
    };
    // GNEM and HierMatcher default to 10 epochs in their papers.
    let ten = [e_short.min(10), e_long];
    let mut v = vec![
        Job::Deep(Box::new(DeepMatcherSim::new(dc)), cfg.dl_epochs),
        Job::Deep(Box::new(DittoSim::new(dc)), cfg.dl_epochs),
        Job::Deep(
            Box::new(EmTransformerSim::new(Variant::Bert, dc)),
            cfg.dl_epochs,
        ),
        Job::Deep(
            Box::new(EmTransformerSim::new(Variant::Roberta, dc)),
            cfg.dl_epochs,
        ),
        Job::Deep(Box::new(GnemSim::new(dc)), ten),
        Job::Deep(Box::new(HierMatcherSim::new(dc)), ten),
    ];
    for model in MagellanModel::all() {
        let m = Magellan::new(model, cfg.seed).with_rows(rows.clone());
        v.push(Job::Single(MatcherFamily::NonLinearMl, Box::new(m)));
    }
    v.push(Job::Single(
        MatcherFamily::NonLinearMl,
        Box::new(ZeroEr::new().with_rows(rows.clone())),
    ));
    for variant in EsdeVariant::all() {
        v.push(Job::Single(
            MatcherFamily::Linear,
            Box::new(Esde::with_views(variant, views.clone())),
        ));
    }
    v
}

/// Every pair a Magellan model or ZeroER of the line-up reads: the test
/// pairs, and the sample each one fits on (drawn by the helper its `fit`
/// calls).
fn magellan_pairs(task: &MatchingTask, cfg: &RosterConfig) -> Vec<PairRef> {
    let mut pairs: Vec<PairRef> = task.test.iter().map(|lp| lp.pair).collect();
    for model in MagellanModel::all() {
        let m = Magellan::new(model, cfg.seed);
        pairs.extend(m.training_pairs(task).iter().map(|lp| lp.pair));
    }
    pairs.extend(ZeroEr::new().fit_pairs(task));
    pairs
}

/// Runs the whole roster on one task. A matcher that fails with the
/// capacity sentinel yields `f1 = None` (the "-" of the paper's tables);
/// any other error propagates.
///
/// The shared inputs are built up front, inside a `roster.shared` span.
/// The 17 jobs are independent (each owns its matchers, the task and the
/// shared inputs are read-only), so they run in parallel via
/// [`rlb_util::par::par_map_vec`]: each worker claims the next job in
/// roster order when it finishes one, and results come back in roster
/// order. SAQ- and SBQ-ESDE each build their own q-gram views in `fit` and
/// free them when their configuration finishes.
pub fn run_roster(task: &MatchingTask, cfg: &RosterConfig) -> rlb_util::Result<Vec<MatcherRun>> {
    let _span = rlb_obs::span!("roster.run", "{}", task.name);
    let (views, rows) = {
        let _s = rlb_obs::span!("roster.shared", "{}", task.name);
        let rows = MagellanRows::build(task, magellan_pairs(task, cfg));
        (TaskViewCache::build(task), Arc::new(rows))
    };
    let jobs = jobs(cfg, &views, &rows);
    let configurations: usize = jobs.iter().map(|j| j.names().len()).sum();
    rlb_obs::counter_add("roster.configurations", configurations as u64);
    let results = rlb_util::par::par_map_vec(jobs, |job| {
        // Jobs run on par worker threads, so these spans are roots of
        // their own per-worker subtrees rather than children of roster.run.
        let _m = rlb_obs::span!("roster.matcher", "{}", job.label());
        job.run(task)
    });
    let mut runs = Vec::with_capacity(configurations);
    for r in results {
        runs.extend(r?);
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_data::Source;

    /// The default line-up as (family, name) in roster order; it does not
    /// depend on the task, so the views of an empty one serve.
    fn line_up() -> Vec<(MatcherFamily, String)> {
        let task = MatchingTask {
            name: "empty".into(),
            left: Source::new("L", vec![]),
            right: Source::new("R", vec![]),
            train: vec![],
            val: vec![],
            test: vec![],
        };
        let views = TaskViewCache::build(&task);
        jobs(&RosterConfig::default(), &views, &Arc::default())
            .iter()
            .flat_map(|j| j.names().into_iter().map(|n| (j.family(), n)))
            .collect()
    }

    #[test]
    fn roster_has_the_paper_line_up() {
        let roster = line_up();
        assert_eq!(roster.len(), 12 + 4 + 1 + 6);
        let count = |family| roster.iter().filter(|(f, _)| *f == family).count();
        assert_eq!(
            (
                count(MatcherFamily::DeepLearning),
                count(MatcherFamily::NonLinearMl),
                count(MatcherFamily::Linear)
            ),
            (12, 5, 6)
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = line_up().into_iter().map(|(_, n)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 23, "duplicate matcher names");
    }

    #[test]
    fn gnem_and_hiermatcher_use_their_default_budgets() {
        let names: Vec<String> = line_up().into_iter().map(|(_, n)| n).collect();
        assert!(names.contains(&"GNEM (10)".to_string()));
        assert!(names.contains(&"HierMatcher (10)".to_string()));
        assert!(names.contains(&"EMTransformer-R (15)".to_string()));
    }

    /// The roster as 23 fresh matchers, each fitted alone by [`evaluate`]:
    /// nothing is shared, every deep configuration trains on its own.
    fn unshared_roster(task: &MatchingTask, cfg: &RosterConfig) -> Vec<(String, Option<u64>)> {
        let [e_short, e_long] = cfg.dl_epochs;
        let dc = |epochs| DeepConfig {
            epochs,
            seed: cfg.seed,
            max_train: 6000,
        };
        let mut m: Vec<Box<dyn Matcher>> = Vec::new();
        for e in [e_short, e_long] {
            m.push(Box::new(DeepMatcherSim::new(dc(e))));
        }
        for e in [e_short, e_long] {
            m.push(Box::new(DittoSim::new(dc(e))));
        }
        for variant in [Variant::Bert, Variant::Roberta] {
            for e in [e_short, e_long] {
                m.push(Box::new(EmTransformerSim::new(variant, dc(e))));
            }
        }
        for e in [e_short.min(10), e_long] {
            m.push(Box::new(GnemSim::new(dc(e))));
        }
        for e in [e_short.min(10), e_long] {
            m.push(Box::new(HierMatcherSim::new(dc(e))));
        }
        for model in MagellanModel::all() {
            m.push(Box::new(Magellan::new(model, cfg.seed)));
        }
        m.push(Box::new(ZeroEr::new()));
        for variant in EsdeVariant::all() {
            m.push(Box::new(Esde::new(variant)));
        }
        m.into_iter()
            .map(|mut m| {
                let f1 = match evaluate(m.as_mut(), task) {
                    Ok(metrics) => Some(metrics.f1.to_bits()),
                    Err(e) if is_insufficient_memory(&e) => None,
                    Err(e) => panic!("{}: {e}", m.name()),
                };
                (m.name(), f1)
            })
            .collect()
    }

    #[test]
    fn shared_roster_equals_unshared_matchers_bitwise() {
        let task = crate::generate_task(&rlb_synth::BenchmarkProfile {
            id: "roster-shared",
            stands_for: "unit test",
            domain: rlb_synth::Domain::Product,
            left_size: 100,
            right_size: 120,
            n_matches: 50,
            labeled_pairs: 250,
            positive_fraction: 0.2,
            knobs: rlb_synth::DifficultyKnobs::moderate(),
            seed: 11,
        });
        // [12, 14] puts GNEM's and HierMatcher's short budget at 10.
        for dl_epochs in [[2, 3], [3, 2], [12, 14]] {
            let cfg = RosterConfig {
                dl_epochs,
                ..Default::default()
            };
            let shared: Vec<(String, Option<u64>)> = run_roster(&task, &cfg)
                .unwrap()
                .into_iter()
                .map(|r| (r.name, r.f1.map(f64::to_bits)))
                .collect();
            assert_eq!(shared.len(), 23);
            assert_eq!(shared, unshared_roster(&task, &cfg), "{dl_epochs:?}");
        }
    }
}
