//! The Section-VI step-2 grid search: fine-tune the blocker for a minimum
//! recall while maximizing precision.
//!
//! Hyperparameters swept (DeepBlocker's tuning surface in the paper): the
//! blocked attribute (each individual attribute plus the schema-agnostic
//! concatenation), cleaning on/off, the indexed source and `K`. For every
//! configuration one exact ranked retrieval serves the whole `K` grid
//! (candidate sets are prefixes); the selected configuration is the one
//! minimizing the candidate count among those whose pair completeness
//! reaches the floor — i.e. maximal PQ for the required PC.

use crate::embed_nn::{EmbeddingNnBlocker, IndexSide};
use crate::metrics::{blocking_metrics, BlockingMetrics};
use rlb_data::{PairRef, Source};

/// Grid-search settings.
#[derive(Debug, Clone, Copy)]
pub struct TunerConfig {
    /// Recall floor (the paper uses 0.9).
    pub min_recall: f64,
    /// Largest `K` considered.
    pub k_max: usize,
    /// Repetitions averaged (the paper uses 10 runs of the stochastic
    /// DeepBlocker; the substitute's variance comes from perturbation
    /// seeds).
    pub reps: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Base seed for the repetition perturbations.
    pub base_seed: u64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            min_recall: 0.9,
            k_max: 64,
            reps: 3,
            dim: 32,
            base_seed: 0xB10C_5EED,
        }
    }
}

/// The tuned blocker choice plus its averaged quality — one row of Table V.
#[derive(Debug, Clone)]
pub struct BlockerChoice {
    /// Blocked attribute (`None` = schema-agnostic "all").
    pub attribute: Option<usize>,
    /// Human-readable attribute name (`"all"` for schema-agnostic).
    pub attr_name: String,
    /// Whether cleaning was applied.
    pub clean: bool,
    /// Selected neighbours per query.
    pub k: usize,
    /// Indexed source.
    pub side: IndexSide,
    /// PC/PQ/|C|/|P| averaged over the repetitions.
    pub metrics: BlockingMetrics,
    /// The candidate set of the first repetition (used downstream to build
    /// the benchmark).
    pub candidates: Vec<PairRef>,
}

/// Runs the grid search over a raw dataset pair with complete ground truth.
pub fn tune(
    left: &Source,
    right: &Source,
    matches: &[PairRef],
    cfg: &TunerConfig,
) -> BlockerChoice {
    let arity = left.arity().max(right.arity());
    let mut attributes: Vec<Option<usize>> = vec![None];
    attributes.extend((0..arity).map(Some));
    let _span = rlb_obs::span!(
        "blocking.tune",
        "{} attribute(s), k_max {}",
        attributes.len(),
        cfg.k_max
    );
    rlb_obs::counter_add("blocking.configs_searched", attributes.len() as u64 * 2 * 2);

    // Best = (choice, achieves floor) — minimize candidates among
    // floor-achievers; otherwise maximize PC.
    let mut best: Option<(BlockerChoice, bool)> = None;
    for &attribute in &attributes {
        for clean in [false, true] {
            for side in [IndexSide::Left, IndexSide::Right] {
                let blocker = EmbeddingNnBlocker {
                    attribute,
                    clean,
                    dim: cfg.dim,
                    perturb_seed: cfg.base_seed,
                };
                let retrieval = blocker.retrieve(left, right, side, cfg.k_max);
                // PC(K) from the rank of each match in its query's list.
                let n_queries = retrieval.ranked.len();
                let mut hits_at = vec![0usize; cfg.k_max + 1];
                for m in matches {
                    let (q, target) = match side {
                        IndexSide::Right => (m.left as usize, m.right),
                        IndexSide::Left => (m.right as usize, m.left),
                    };
                    if let Some(rank) = retrieval.ranked[q].iter().position(|&i| i == target) {
                        hits_at[rank + 1] += 1;
                    }
                }
                // Prefix sums: the smallest K whose top-K reaches the floor;
                // a configuration that never does is judged at `k_max`.
                let mut cum = 0usize;
                let mut chosen_k = None;
                for (k, &hits) in hits_at.iter().enumerate().skip(1) {
                    cum += hits;
                    if cum as f64 / matches.len().max(1) as f64 >= cfg.min_recall {
                        chosen_k = Some(k);
                        break;
                    }
                }
                let (k, achieves) = match chosen_k {
                    Some(k) => (k, true),
                    None => (cfg.k_max, false),
                };
                let better = match &best {
                    None => true,
                    Some((b, b_achieves)) => match (achieves, b_achieves) {
                        (true, false) => true,
                        (false, true) => false,
                        (true, true) => n_queries * k < b.metrics.candidates,
                        (false, false) => {
                            // Compare best reachable PC.
                            let cands = retrieval.candidates(k);
                            blocking_metrics(&cands, matches).pc > b.metrics.pc
                        }
                    },
                };
                if better {
                    let candidates = retrieval.candidates(k);
                    let metrics = blocking_metrics(&candidates, matches);
                    let attr_name = match attribute {
                        None => "all".to_string(),
                        Some(a) => left
                            .attributes
                            .get(a)
                            .cloned()
                            .unwrap_or_else(|| format!("attr{a}")),
                    };
                    best = Some((
                        BlockerChoice {
                            attribute,
                            attr_name,
                            clean,
                            k,
                            side,
                            metrics,
                            candidates,
                        },
                        achieves,
                    ));
                }
            }
        }
    }
    let (mut choice, _) = best.expect("grid is never empty");

    // Average PC/PQ over repetitions with different perturbation seeds.
    if cfg.reps > 1 {
        let mut pc_sum = choice.metrics.pc;
        let mut pq_sum = choice.metrics.pq;
        let mut cand_sum = choice.metrics.candidates as f64;
        let mut match_sum = choice.metrics.matching_candidates as f64;
        for rep in 1..cfg.reps {
            let blocker = EmbeddingNnBlocker {
                attribute: choice.attribute,
                clean: choice.clean,
                dim: cfg.dim,
                perturb_seed: cfg.base_seed ^ (rep as u64 * 0x9E37_79B9),
            };
            let retrieval = blocker.retrieve(left, right, choice.side, choice.k);
            let cands = retrieval.candidates(choice.k);
            let m = blocking_metrics(&cands, matches);
            pc_sum += m.pc;
            pq_sum += m.pq;
            cand_sum += m.candidates as f64;
            match_sum += m.matching_candidates as f64;
        }
        let n = cfg.reps as f64;
        choice.metrics = BlockingMetrics {
            pc: pc_sum / n,
            pq: pq_sum / n,
            candidates: (cand_sum / n).round() as usize,
            matching_candidates: (match_sum / n).round() as usize,
        };
    }
    choice
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_synth::{generate_raw_pair, RawPairProfile};

    fn small_raw(noise: f64) -> rlb_synth::RawDatasetPair {
        let p = RawPairProfile {
            id: "tune-test",
            left_name: "L",
            right_name: "R",
            domain: rlb_synth::Domain::Product,
            left_size: 150,
            right_size: 200,
            n_matches: 100,
            match_noise: noise,
            anchor_attrs: 1,
            style_noise: 0.03,
            missing_boost: 0.0,
            match_scramble: 0.0,
            seed: 77,
        };
        generate_raw_pair(&p)
    }

    #[test]
    fn tuner_reaches_recall_floor_on_clean_data() {
        let raw = small_raw(0.1);
        let cfg = TunerConfig {
            reps: 1,
            k_max: 16,
            ..Default::default()
        };
        let choice = tune(&raw.left, &raw.right, &raw.matches, &cfg);
        assert!(choice.metrics.pc >= 0.9, "pc {}", choice.metrics.pc);
        assert!(
            choice.k <= 4,
            "clean data should need small K, got {}",
            choice.k
        );
        assert!(choice.metrics.pq > 0.2, "pq {}", choice.metrics.pq);
    }

    #[test]
    fn noisier_data_needs_larger_k() {
        let cfg = TunerConfig {
            reps: 1,
            k_max: 32,
            ..Default::default()
        };
        let easy = small_raw(0.05);
        let hard = small_raw(0.7);
        let ce = tune(&easy.left, &easy.right, &easy.matches, &cfg);
        let ch = tune(&hard.left, &hard.right, &hard.matches, &cfg);
        assert!(ch.k > ce.k, "hard K {} should exceed easy K {}", ch.k, ce.k);
        assert!(ch.metrics.pq < ce.metrics.pq);
    }

    #[test]
    fn candidate_count_matches_k_times_queries() {
        let raw = small_raw(0.3);
        let cfg = TunerConfig {
            reps: 1,
            k_max: 16,
            ..Default::default()
        };
        let choice = tune(&raw.left, &raw.right, &raw.matches, &cfg);
        let queries = match choice.side {
            IndexSide::Right => raw.left.len(),
            IndexSide::Left => raw.right.len(),
        };
        assert_eq!(choice.candidates.len(), queries * choice.k);
    }

    #[test]
    fn averaged_metrics_stay_in_range() {
        let raw = small_raw(0.4);
        let cfg = TunerConfig {
            reps: 3,
            k_max: 16,
            ..Default::default()
        };
        let choice = tune(&raw.left, &raw.right, &raw.matches, &cfg);
        assert!((0.0..=1.0).contains(&choice.metrics.pc));
        assert!((0.0..=1.0).contains(&choice.metrics.pq));
    }

    #[test]
    fn deterministic() {
        let raw = small_raw(0.3);
        let cfg = TunerConfig {
            reps: 2,
            k_max: 8,
            ..Default::default()
        };
        let a = tune(&raw.left, &raw.right, &raw.matches, &cfg);
        let b = tune(&raw.left, &raw.right, &raw.matches, &cfg);
        assert_eq!(a.k, b.k);
        assert_eq!(a.clean, b.clean);
        assert_eq!(a.candidates, b.candidates);
    }
}
