//! Shared experiment drivers: dataset generation, matcher sweeps, and the
//! new-benchmark pipeline, with caching for the expensive parts.

use crate::cache::with_cache;
use rlb_blocking::TunerConfig;
use rlb_core::{build_benchmark, run_roster, MatcherRun, RosterConfig};
use rlb_data::MatchingTask;
use rlb_synth::{established_profiles, generate_raw_pair, generate_task, raw_pair_profiles};

/// Generates all 13 established benchmark stand-ins (deterministic; one
/// worker per profile, each generator is seeded independently).
pub fn established_tasks() -> Vec<MatchingTask> {
    rlb_util::par::par_map(&established_profiles(), generate_task)
}

/// Summary of one Section-VI benchmark build — the Table V row.
#[derive(Debug, Clone)]
pub struct NewBenchmarkSummary {
    /// Benchmark id (`Dn1..Dn8`).
    pub name: String,
    /// Source names.
    pub left_name: String,
    /// Right source name.
    pub right_name: String,
    /// Source sizes.
    pub left_size: usize,
    /// Right source size.
    pub right_size: usize,
    /// Ground-truth matches `|M|`.
    pub total_matches: usize,
    /// Attribute count `|A|`.
    pub attributes: usize,
    /// Averaged pair completeness.
    pub pc: f64,
    /// Averaged pairs quality.
    pub pq: f64,
    /// Candidate count `|C|`.
    pub candidates: usize,
    /// Matching candidates `|P|`.
    pub matching_candidates: usize,
    /// Chosen blocked attribute (`"all"` = schema-agnostic).
    pub attr: String,
    /// Whether cleaning was selected.
    pub clean: bool,
    /// Chosen `K`.
    pub k: usize,
    /// Which source was indexed (`"D1"` or `"D2"`).
    pub indexed: String,
    /// Split sizes and class counts.
    pub train_instances: usize,
    /// Test instances.
    pub test_instances: usize,
    /// Training positives.
    pub train_positives: usize,
    /// Test positives.
    pub test_positives: usize,
    /// Imbalance ratio.
    pub imbalance_ratio: f64,
}

rlb_util::impl_json!(NewBenchmarkSummary {
    name,
    left_name,
    right_name,
    left_size,
    right_size,
    total_matches,
    attributes,
    pc,
    pq,
    candidates,
    matching_candidates,
    attr,
    clean,
    k,
    indexed,
    train_instances,
    test_instances,
    train_positives,
    test_positives,
    imbalance_ratio,
});

/// Builds the 8 new benchmarks (blocking + tuning + split). Deterministic
/// and cached (the grid search over a 64-neighbour retrieval per
/// configuration is the expensive step; the labelled tasks serialize fine).
pub fn new_benchmarks() -> Vec<(NewBenchmarkSummary, MatchingTask)> {
    with_cache(
        "new-benchmarks",
        &new_benchmark_inputs(),
        build_new_benchmarks,
    )
}

/// The inputs the new benchmarks are built from — the raw-pair profiles and
/// the tuner configuration — as the cache's input description for every
/// artifact derived from them.
pub fn new_benchmark_inputs() -> String {
    format!("{:?} {:?}", raw_pair_profiles(), TunerConfig::default())
}

fn build_new_benchmarks() -> Vec<(NewBenchmarkSummary, MatchingTask)> {
    let tuner = TunerConfig::default();
    rlb_util::par::par_map(&raw_pair_profiles(), |profile| {
        let raw = generate_raw_pair(profile);
        let built = build_benchmark(&raw, &tuner, profile.seed ^ 0x5EED);
        let stats = rlb_data::DatasetStats::of(&built.task);
        let summary = NewBenchmarkSummary {
            name: profile.id.to_string(),
            left_name: profile.left_name.to_string(),
            right_name: profile.right_name.to_string(),
            left_size: profile.left_size,
            right_size: profile.right_size,
            total_matches: built.total_matches,
            attributes: stats.attributes,
            pc: built.blocking.metrics.pc,
            pq: built.blocking.metrics.pq,
            candidates: built.blocking.metrics.candidates,
            matching_candidates: built.blocking.metrics.matching_candidates,
            attr: built.blocking.attr_name.clone(),
            clean: built.blocking.clean,
            k: built.blocking.k,
            indexed: match built.blocking.side {
                rlb_blocking::IndexSide::Left => "D1".to_string(),
                rlb_blocking::IndexSide::Right => "D2".to_string(),
            },
            train_instances: stats.train_instances,
            test_instances: stats.test_instances,
            train_positives: stats.train_positives,
            test_positives: stats.test_positives,
            imbalance_ratio: stats.imbalance_ratio,
        };
        (summary, built.task)
    })
}

/// The tasks only (no summaries).
pub fn new_tasks() -> Vec<MatchingTask> {
    new_benchmarks().into_iter().map(|(_, t)| t).collect()
}

/// Runs (or loads) the full matcher roster for one task; cached by
/// `{group}-{name}`, and invalidated when the task or the roster
/// configuration changes.
pub fn roster_for(group: &str, task: &MatchingTask) -> Vec<MatcherRun> {
    let key = format!("roster-{group}-{}", task.name);
    let inputs = format!(
        "{} {:?}",
        rlb_util::json::to_string(task),
        RosterConfig::default()
    );
    with_cache(&key, &inputs, || {
        rlb_obs::info!(
            "[sweep] running 23 matcher configurations on {} …",
            task.name
        );
        run_roster(task, &RosterConfig::default()).expect("roster run failed")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_established_tasks_generate_and_validate() {
        let tasks = established_tasks();
        assert_eq!(tasks.len(), 13);
        for t in &tasks {
            assert_eq!(t.validate(), Ok(()), "{}", t.name);
            assert!(t.total_pairs() > 0);
        }
    }
}
