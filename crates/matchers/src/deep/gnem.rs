//! GNEM simulation — the one *global* method of the taxonomy
//! (Section IV-A, method 3): candidate pairs are nodes of a graph, pairs
//! sharing a record are connected, and match likelihoods are propagated
//! through a gated graph-convolution step before the final decision.
//!
//! The simulation keeps that structure: a local scorer (dynamic encoder +
//! MLP) produces per-pair logits; a second-stage network then consumes each
//! pair's logit *together with the competing logits of pairs sharing its
//! records* — which in clean-clean ER is exactly the signal a one-to-one
//! assumption exposes.

use super::{train_classifier, CrossAlign, DeepConfig, DeepMatcher, Trained};
use crate::subsample_train;
use rlb_data::{MatchingTask, PairRef, Record};
use rlb_embed::contextual::{ContextualEncoder, Variant};
use rlb_nn::{Mlp, TrainConfig};
use rlb_util::hash::FxHashMap;
use rlb_util::{Error, Prng, Result};

/// Capacity cap: the pair graph is materialized over every candidate pair,
/// so very large tasks exhaust the simulated memory budget (GNEM shows "-"
/// on several datasets in Tables IV and VI for the same reason).
const MAX_GRAPH_PAIRS: usize = 60_000;

/// Candidate pairs featurised at once while the local scorer's logits are
/// taken at every budget: the features of a chunk serve all budgets, and
/// only one chunk's features exist at a time.
const GRAPH_CHUNK: usize = 1024;

/// GNEM: local scorer + one propagation step over the pair graph.
pub struct GnemSim {
    cfg: DeepConfig,
    encoder: ContextualEncoder,
    left: Vec<Vec<f32>>,
    right: Vec<Vec<f32>>,
    align: CrossAlign,
    /// One graph stage per fitted budget, in budget order.
    stages: Vec<GraphStage>,
}

/// The second stage at one budget: the competitor-logit statistics that
/// budget's local scorer gives every candidate pair of the task, and the
/// network trained on them.
struct GraphStage {
    competitor_stats: FxHashMap<PairRef, [f32; 3]>,
    global: Trained,
}

/// The second stage's input for one pair.
fn global_features(competitor_stats: &FxHashMap<PairRef, [f32; 3]>, p: PairRef) -> Vec<f32> {
    let [own, max_c, mean_c] = competitor_stats.get(&p).copied().unwrap_or([0.0, 0.0, 0.0]);
    // Squash logits so the second stage trains on a bounded scale.
    let s = |x: f32| 1.0 / (1.0 + (-x).exp());
    vec![s(own), s(max_c), s(mean_c), s(own) - s(max_c)]
}

impl GnemSim {
    /// Unfitted matcher.
    pub fn new(cfg: DeepConfig) -> Self {
        GnemSim {
            cfg,
            encoder: ContextualEncoder::new(Variant::Bert),
            left: Vec::new(),
            right: Vec::new(),
            align: CrossAlign::default(),
            stages: Vec::new(),
        }
    }

    fn encode_records(&self, records: &[Record]) -> Vec<Vec<f32>> {
        records
            .iter()
            .map(|r| self.encoder.encode_text(&r.full_text()))
            .collect()
    }

    fn local_features(&self, p: PairRef) -> Vec<f32> {
        let mut out = super::emtransformer::EmTransformerSim::pair_features(
            &self.left[p.left as usize],
            &self.right[p.right as usize],
        );
        out.extend_from_slice(&self.align.features(p));
        out
    }
}

/// The pair graph over every candidate pair: per pair, its own logit and
/// the max and mean logit among pairs sharing its left or right record
/// (the "gated interaction" signal).
fn competitor_stats(all: &[PairRef], logits: &[f32]) -> FxHashMap<PairRef, [f32; 3]> {
    let mut by_left: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
    let mut by_right: FxHashMap<u32, Vec<usize>> = FxHashMap::default();
    for (i, p) in all.iter().enumerate() {
        by_left.entry(p.left).or_default().push(i);
        by_right.entry(p.right).or_default().push(i);
    }
    let mut stats = FxHashMap::default();
    for (i, &p) in all.iter().enumerate() {
        let mut max_c = f32::NEG_INFINITY;
        let mut sum_c = 0.0f32;
        let mut n_c = 0usize;
        for &j in by_left[&p.left].iter().chain(by_right[&p.right].iter()) {
            if j == i {
                continue;
            }
            max_c = max_c.max(logits[j]);
            sum_c += logits[j];
            n_c += 1;
        }
        let s = if n_c == 0 {
            [logits[i], 0.0, 0.0]
        } else {
            [logits[i], max_c, sum_c / n_c as f32]
        };
        stats.insert(p, s);
    }
    stats
}

impl DeepMatcher for GnemSim {
    fn config(&self) -> &DeepConfig {
        &self.cfg
    }

    fn method(&self) -> &'static str {
        "GNEM"
    }

    /// Stage 1, the local scorer, trains once for all budgets. Stage 2
    /// reads the local logits, so it trains once per budget: a small net
    /// over four features.
    fn fit_budgets(&mut self, task: &MatchingTask, budgets: &[usize]) -> Result<()> {
        if task.total_pairs() > MAX_GRAPH_PAIRS {
            return Err(super::insufficient_memory());
        }
        if task.train.is_empty() {
            return Err(Error::EmptyInput("GNEM training set"));
        }
        self.left = self.encode_records(&task.left.records);
        self.right = self.encode_records(&task.right.records);
        let base = rlb_embed::HashedEmbedder::new(self.encoder.dim(), 0x63E10);
        self.align = CrossAlign::prepare(&|t| base.token(t), task);
        // Stage 1: local scorer.
        let dim = 2 * self.encoder.dim() + 3 + CrossAlign::WIDTH;
        let local = Mlp::new(dim, &[64], self.cfg.seed ^ 0x63E1);
        let mut local =
            train_classifier(task, &self.cfg, budgets, local, |p| self.local_features(p))?;
        // Stage 2: graph interaction over all candidate pairs.
        let all: Vec<PairRef> = task.all_pairs().map(|lp| lp.pair).collect();
        let mut logits = vec![Vec::with_capacity(all.len()); budgets.len()];
        for chunk in all.chunks(GRAPH_CHUNK) {
            let feats: Vec<Vec<f32>> = chunk.iter().map(|&p| self.local_features(p)).collect();
            for (out, chunk_logits) in logits.iter_mut().zip(local.logits(&feats)) {
                out.extend(chunk_logits);
            }
        }
        let mut rng = Prng::seed_from_u64(self.cfg.seed);
        let train = subsample_train(&task.train, self.cfg.max_train, &mut rng);
        let gy: Vec<bool> = train.iter().map(|lp| lp.is_match).collect();
        let vy: Vec<bool> = task.val.iter().map(|lp| lp.is_match).collect();
        self.stages = Vec::with_capacity(budgets.len());
        for (&epochs, logits) in budgets.iter().zip(&logits) {
            let competitor_stats = competitor_stats(&all, logits);
            let features = |pairs: &[rlb_data::LabeledPair]| -> Vec<Vec<f32>> {
                pairs
                    .iter()
                    .map(|lp| global_features(&competitor_stats, lp.pair))
                    .collect()
            };
            let global = Trained::new(
                Mlp::new(4, &[8], self.cfg.seed ^ 0x6E42),
                (&features(&train), &gy),
                (&features(&task.val), &vy),
                TrainConfig::default().learning_rate,
                self.cfg.seed ^ 0x6E43,
                &[epochs.min(20)],
            )?;
            self.stages.push(GraphStage {
                competitor_stats,
                global,
            });
        }
        Ok(())
    }

    fn predict_budgets(&mut self, _task: &MatchingTask, pairs: &[PairRef]) -> Vec<Vec<bool>> {
        assert!(!self.stages.is_empty(), "GnemSim::predict before fit");
        self.stages
            .iter_mut()
            .map(|stage| {
                let feats: Vec<Vec<f32>> = pairs
                    .iter()
                    .map(|&p| global_features(&stage.competitor_stats, p))
                    .collect();
                stage.global.predict(&feats).swap_remove(0)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testtask::small;
    use crate::{evaluate, Matcher};

    #[test]
    fn learns_easy_benchmark() {
        let task = small(0.15, 71);
        let mut m = GnemSim::new(DeepConfig::with_epochs(10));
        let f1 = evaluate(&mut m, &task).unwrap().f1;
        assert!(f1 > 0.7, "GNEM sim F1 {f1:.3}");
    }

    #[test]
    fn oversized_task_reports_insufficient_memory() {
        let mut task = small(0.3, 72);
        // Inflate the candidate count past the cap without building data.
        let filler: Vec<rlb_data::LabeledPair> = (0..MAX_GRAPH_PAIRS)
            .map(|i| rlb_data::LabeledPair::new((i % 150) as u32, (i % 180) as u32, false))
            .collect();
        task.train.extend(filler);
        let mut m = GnemSim::new(DeepConfig::with_epochs(10));
        let err = m.fit(&task).unwrap_err();
        assert!(super::super::is_insufficient_memory(&err));
    }

    #[test]
    fn global_stage_uses_competitor_signal() {
        let task = small(0.2, 73);
        let mut m = GnemSim::new(DeepConfig::with_epochs(10));
        m.fit(&task).unwrap();
        // One stage for the one budget; competitor stats exist for every
        // candidate pair of the task.
        assert_eq!(m.stages.len(), 1);
        assert_eq!(m.stages[0].competitor_stats.len(), task.total_pairs());
        let f = global_features(&m.stages[0].competitor_stats, task.test[0].pair);
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn name_carries_epochs() {
        assert_eq!(
            GnemSim::new(DeepConfig::with_epochs(10)).name(),
            "GNEM (10)"
        );
    }
}
