//! Algorithm 1: estimating the **degree of linearity**.
//!
//! Merge `T ∪ V ∪ C`, score every labelled pair with a schema-agnostic
//! token similarity (Cosine and Jaccard), sweep thresholds `0.01..=0.99`
//! (step 0.01), and report the maximum F1 each similarity reaches. High
//! values mean a trivial, linearly separable benchmark.

use rlb_data::MatchingTask;
use rlb_matchers::esde::sweep_threshold;
use rlb_matchers::features::TaskViewCache;

/// Output of Algorithm 1 for both similarity measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearityReport {
    /// `F1max_CS` — best F1 achievable by thresholding the Cosine
    /// similarity.
    pub f1_cosine: f64,
    /// The threshold achieving `F1max_CS`.
    pub t_cosine: f64,
    /// `F1max_JS` — best F1 achievable by thresholding the Jaccard
    /// similarity.
    pub f1_jaccard: f64,
    /// The threshold achieving `F1max_JS`.
    pub t_jaccard: f64,
}

rlb_util::impl_json!(LinearityReport {
    f1_cosine,
    t_cosine,
    f1_jaccard,
    t_jaccard
});

impl LinearityReport {
    /// The larger of the two degrees — what the paper compares against its
    /// informal 0.8 "easy" bar.
    pub fn max_f1(&self) -> f64 {
        self.f1_cosine.max(self.f1_jaccard)
    }
}

/// Runs Algorithm 1 on a task (all three splits merged), building the
/// interned task views internally. Callers that also run the complexity
/// measures or a roster should build a [`TaskViewCache`] once and use
/// [`degree_of_linearity_with`] instead.
///
/// The per-pair CS/JS scoring — the dominant cost on large candidate sets —
/// runs on all cores via [`rlb_util::par`], which preserves pair order, so
/// the report does not depend on the thread count.
pub fn degree_of_linearity(task: &MatchingTask) -> LinearityReport {
    degree_of_linearity_with(task, &TaskViewCache::build(task))
}

/// Algorithm 1 over pre-built interned views — tokenization already paid,
/// only the integer set joins and the threshold sweep remain.
pub fn degree_of_linearity_with(task: &MatchingTask, views: &TaskViewCache) -> LinearityReport {
    let _span = rlb_obs::span!("linearity.sweep", "{}", task.name);
    let pairs: Vec<rlb_data::LabeledPair> = task.all_pairs().copied().collect();
    rlb_obs::counter_add("linearity.pairs", pairs.len() as u64);
    let scores = rlb_util::par::par_map(&pairs, |lp| views.cs_js(lp.pair));
    report_from_scores(&pairs, &scores)
}

/// Algorithm 1 over already-computed `[CS, JS]` scores, one row per pair in
/// order. This is the entry the resident service's incremental assessment
/// cache uses: the per-pair similarities are interning-stable (they depend
/// only on each record's token set), so replaying cached rows through this
/// function is byte-identical to recomputing them.
pub fn degree_of_linearity_from_scores(
    pairs: &[rlb_data::LabeledPair],
    scores: &[[f64; 2]],
) -> LinearityReport {
    assert_eq!(pairs.len(), scores.len(), "one score row per pair");
    report_from_scores(pairs, scores)
}

fn report_from_scores(pairs: &[rlb_data::LabeledPair], scores: &[[f64; 2]]) -> LinearityReport {
    let mut cs = Vec::with_capacity(pairs.len());
    let mut js = Vec::with_capacity(pairs.len());
    let mut labels = Vec::with_capacity(pairs.len());
    for (lp, [c, j]) in pairs.iter().zip(scores) {
        cs.push(*c);
        js.push(*j);
        labels.push(lp.is_match);
    }
    let (f1_cosine, t_cosine) = sweep_threshold(&cs, &labels);
    let (f1_jaccard, t_jaccard) = sweep_threshold(&js, &labels);
    LinearityReport {
        f1_cosine,
        t_cosine,
        f1_jaccard,
        t_jaccard,
    }
}

/// Schema-aware degree of linearity — the variant the paper explored in
/// preliminary experiments (Section III: *"we also explored schema-aware
/// settings, applying the same measures to specific attribute values"*) and
/// reports in its extended version. Algorithm 1 is run per attribute; the
/// result is the best attribute's report together with its index.
///
/// The paper found no significant difference from the schema-agnostic
/// setting; the `schema_linearity_gap` integration test reproduces that
/// observation on the synthetic benchmarks.
pub fn degree_of_linearity_schema_aware(task: &MatchingTask) -> (usize, LinearityReport) {
    degree_of_linearity_schema_aware_with(task, &TaskViewCache::build(task))
}

/// Schema-aware Algorithm 1 over pre-built interned views.
pub fn degree_of_linearity_schema_aware_with(
    task: &MatchingTask,
    views: &TaskViewCache,
) -> (usize, LinearityReport) {
    let arity = task.left.arity().max(task.right.arity());
    let labels: Vec<bool> = task.all_pairs().map(|lp| lp.is_match).collect();
    let mut best: Option<(usize, LinearityReport)> = None;
    for a in 0..arity {
        let mut cs = Vec::with_capacity(labels.len());
        let mut js = Vec::with_capacity(labels.len());
        for lp in task.all_pairs() {
            let [c, j] = views.attr_cs_js(lp.pair, a);
            cs.push(c);
            js.push(j);
        }
        let (f1_cosine, t_cosine) = sweep_threshold(&cs, &labels);
        let (f1_jaccard, t_jaccard) = sweep_threshold(&js, &labels);
        let report = LinearityReport {
            f1_cosine,
            t_cosine,
            f1_jaccard,
            t_jaccard,
        };
        if best
            .as_ref()
            .is_none_or(|(_, b)| report.max_f1() > b.max_f1())
        {
            best = Some((a, report));
        }
    }
    best.expect("at least one attribute")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_synth::{BenchmarkProfile, DifficultyKnobs, Domain};

    fn task(noise: f64, hard: f64, seed: u64) -> MatchingTask {
        rlb_synth::generate_task(&BenchmarkProfile {
            id: "lin",
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

    #[test]
    fn easy_task_has_high_linearity() {
        let r = degree_of_linearity(&task(0.08, 0.1, 1));
        assert!(r.max_f1() > 0.9, "cs {} js {}", r.f1_cosine, r.f1_jaccard);
    }

    #[test]
    fn hard_task_has_low_linearity() {
        let easy = degree_of_linearity(&task(0.08, 0.1, 2));
        let hard = degree_of_linearity(&task(0.7, 0.6, 2));
        assert!(hard.max_f1() < easy.max_f1() - 0.15);
    }

    #[test]
    fn thresholds_are_in_sweep_range() {
        let r = degree_of_linearity(&task(0.4, 0.4, 3));
        for t in [r.t_cosine, r.t_jaccard] {
            assert!((0.01..=0.99).contains(&t), "{t}");
        }
    }

    #[test]
    fn cosine_never_below_jaccard_thresholds_scores() {
        // For any pair CS >= JS, so the optimal CS threshold is >= the JS
        // one in practice; the F1s are usually close on structured data.
        let r = degree_of_linearity(&task(0.3, 0.3, 4));
        assert!(r.f1_cosine >= r.f1_jaccard - 0.05);
    }

    #[test]
    fn deterministic() {
        let t = task(0.5, 0.5, 5);
        assert_eq!(degree_of_linearity(&t), degree_of_linearity(&t));
    }

    /// Algorithm 1 over `String` token sets: each record's
    /// [`Record::token_set`](rlb_data::Record::token_set) scored with
    /// [`rlb_textsim::sets`], the reference the interned views must match.
    fn string_reference(t: &MatchingTask) -> LinearityReport {
        use rlb_textsim::sets::{cosine, jaccard};
        let pairs: Vec<rlb_data::LabeledPair> = t.all_pairs().copied().collect();
        let scores: Vec<[f64; 2]> = pairs
            .iter()
            .map(|lp| {
                let (l, r) = t.records(lp.pair);
                let (a, b) = (l.token_set(), r.token_set());
                [cosine(&a, &b), jaccard(&a, &b)]
            })
            .collect();
        degree_of_linearity_from_scores(&pairs, &scores)
    }

    #[test]
    fn interned_report_equals_string_reference_bitwise() {
        for seed in [8, 9] {
            let t = task(0.35, 0.4, seed);
            let interned = degree_of_linearity(&t);
            let string = string_reference(&t);
            let cached = degree_of_linearity_with(&t, &TaskViewCache::build(&t));
            for (a, b) in [(interned, string), (interned, cached)] {
                assert_eq!(a.f1_cosine.to_bits(), b.f1_cosine.to_bits());
                assert_eq!(a.t_cosine.to_bits(), b.t_cosine.to_bits());
                assert_eq!(a.f1_jaccard.to_bits(), b.f1_jaccard.to_bits());
                assert_eq!(a.t_jaccard.to_bits(), b.t_jaccard.to_bits());
            }
        }
    }

    #[test]
    fn schema_aware_returns_valid_attribute_and_bounds() {
        let t = task(0.4, 0.4, 6);
        let (attr, report) = degree_of_linearity_schema_aware(&t);
        assert!(attr < t.left.arity());
        assert!((0.0..=1.0).contains(&report.max_f1()));
    }

    #[test]
    fn schema_aware_close_to_schema_agnostic() {
        // The paper's preliminary finding: no significant difference between
        // the two settings.
        let t = task(0.3, 0.3, 7);
        let agnostic = degree_of_linearity(&t).max_f1();
        let (_, aware) = degree_of_linearity_schema_aware(&t);
        assert!(
            (agnostic - aware.max_f1()).abs() < 0.2,
            "agnostic {agnostic} vs aware {}",
            aware.max_f1()
        );
    }
}
