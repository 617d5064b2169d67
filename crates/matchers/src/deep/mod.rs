//! Deep-learning matcher simulations (Section IV-A).
//!
//! Each of the five methods is recreated at the level the paper's analysis
//! operates on: a neural classifier over pair representations whose *input
//! encoding* realizes the method's cell in the Table-II taxonomy. The
//! substitution table in DESIGN.md spells out why this preserves the
//! experiments; in short, the paper treats every DL matcher as a black box
//! scored by F1, and what differentiates the boxes across datasets is
//! which representation they consume:
//!
//! | matcher | embedding | schema | context |
//! |---|---|---|---|
//! | [`DeepMatcherSim`] | static subword | homogeneous (per attribute) | local |
//! | [`EmTransformerSim`] | dynamic (B/R) | heterogeneous (concatenated) | local |
//! | [`DittoSim`] | dynamic + knowledge/augment/summarize | heterogeneous | local |
//! | [`GnemSim`] | dynamic | homogeneous | **global** (pair graph) |
//! | [`HierMatcherSim`] | static + cross-attribute alignment | heterogeneous | local |
//!
//! All train on `rlb-nn` with mini-batch Adam, class-weighted BCE, and
//! validation-based epoch selection — the paper's protocol (it patches the
//! real EMTransformer to do exactly this). The epoch budget is exposed
//! because it is the paper's headline hyperparameter (each method is
//! reported at two budgets in Tables IV and VI). Every simulation is a
//! [`DeepMatcher`]: it featurises a task once, trains once to the largest
//! of several budgets and predicts at each of them. Its [`Matcher`] impl is
//! the one-budget case of the same code.
//!
//! Like their real counterparts on a 24 GB GPU, the simulations have
//! capacity limits; oversized tasks fail with an "insufficient memory"
//! error, which the experiment harness renders as the hyphen of Tables IV
//! and VI.

mod deepmatcher;
mod ditto;
mod emtransformer;
mod gnem;
mod hiermatcher;

pub use deepmatcher::DeepMatcherSim;
pub use ditto::DittoSim;
pub use emtransformer::EmTransformerSim;
pub use gnem::GnemSim;
pub use hiermatcher::HierMatcherSim;

use crate::{subsample_train, Matcher};
use rlb_data::{MatchingTask, PairRef, Record};
use rlb_nn::{Checkpoint, Mlp, TrainConfig};
use rlb_textsim::tfidf::TfIdfModel;
use rlb_util::{Error, Prng, Result};

/// Hyperparameters shared by all deep matcher simulations.
#[derive(Debug, Clone, Copy)]
pub struct DeepConfig {
    /// The epoch budget [`Matcher::fit`] trains to (the paper's per-method
    /// budgets: 10/15/40).
    pub epochs: usize,
    /// Seed for weight init, batching and subsampling.
    pub seed: u64,
    /// Cap on the number of training pairs actually used for gradient
    /// updates (stratified subsample beyond it) — the CPU stand-in for a
    /// GPU-sized batch budget.
    pub max_train: usize,
}

impl DeepConfig {
    /// Budget of `epochs` with defaults otherwise.
    pub fn with_epochs(epochs: usize) -> Self {
        DeepConfig {
            epochs,
            seed: 0xD33D,
            max_train: 6000,
        }
    }
}

/// A deep matcher simulation that trains once and predicts at several
/// epoch budgets. The roster reports every method at two budgets for the
/// cost of one featurisation and one training run
/// ([`crate::evaluate_budgets`]).
pub trait DeepMatcher {
    /// The configuration; [`Matcher::fit`] trains to its `epochs`.
    fn config(&self) -> &DeepConfig;

    /// The method's name without a budget, e.g. `"EMTransformer-R"`.
    fn method(&self) -> &'static str;

    /// Featurises the task once and trains to the largest of `budgets`,
    /// keeping the model each budget ends with: what a separate fit at that
    /// budget gives, bit for bit.
    fn fit_budgets(&mut self, task: &MatchingTask, budgets: &[usize]) -> Result<()>;

    /// Match predictions at each fitted budget, in `fit_budgets` order.
    fn predict_budgets(&mut self, task: &MatchingTask, pairs: &[PairRef]) -> Vec<Vec<bool>>;
}

/// Display name of a deep configuration, e.g. `"GNEM (10)"`.
pub fn budget_name(method: &str, epochs: usize) -> String {
    format!("{method} ({epochs})")
}

/// One configuration: the single budget `config().epochs`.
impl<T: DeepMatcher> Matcher for T {
    fn name(&self) -> String {
        budget_name(self.method(), self.config().epochs)
    }

    fn fit(&mut self, task: &MatchingTask) -> Result<()> {
        let budget = self.config().epochs;
        self.fit_budgets(task, &[budget])
    }

    fn predict(&mut self, task: &MatchingTask, pairs: &[PairRef]) -> Vec<bool> {
        self.predict_budgets(task, pairs).swap_remove(0)
    }
}

/// Token-level cross-alignment features — the stand-in for the cross
/// -attention a fine-tuned transformer performs *between* the two input
/// sequences. A bi-encoder record vector alone cannot tell a corrupted
/// duplicate from a same-line sibling (both differ from the record in a few
/// tokens); what cross-attention adds is visibility into *which* tokens
/// align and how strongly, weighted by salience.
///
/// Per record we keep the IDF-top `ALIGN_TOKENS` contextual token vectors;
/// per pair we compute the token-to-token cosine matrix and summarize its
/// row/column maxima into six statistics.
#[derive(Debug, Default)]
pub(crate) struct CrossAlign {
    left: Vec<Vec<(Vec<f32>, f32)>>,
    right: Vec<Vec<(Vec<f32>, f32)>>,
}

/// Tokens kept per record for alignment (IDF-top).
const ALIGN_TOKENS: usize = 16;

impl CrossAlign {
    /// Number of features [`CrossAlign::features`] produces.
    pub(crate) const WIDTH: usize = 6;

    pub(crate) fn prepare(
        embed_token: &dyn Fn(&str) -> Vec<f32>,
        task: &MatchingTask,
    ) -> CrossAlign {
        let mut idf = TfIdfModel::new();
        for r in task.left.records.iter().chain(task.right.records.iter()) {
            let toks = r.tokens();
            idf.add_document(toks.iter().map(|t| t.as_str()));
        }
        let build = |records: &[Record]| {
            records
                .iter()
                .map(|r| {
                    let mut weighted: Vec<(String, f32)> = r
                        .tokens()
                        .into_iter()
                        .map(|t| {
                            let w = idf.idf(&t) as f32;
                            (t, w)
                        })
                        .collect();
                    weighted
                        .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
                    weighted.dedup_by(|a, b| a.0 == b.0);
                    weighted.truncate(ALIGN_TOKENS);
                    weighted
                        .into_iter()
                        .map(|(t, w)| (embed_token(&t), w))
                        .collect()
                })
                .collect()
        };
        CrossAlign {
            left: build(&task.left.records),
            right: build(&task.right.records),
        }
    }

    /// Six alignment statistics for one pair: weighted mean row/column max
    /// similarity, fraction of strongly-aligned tokens per side, minimum
    /// row/column max.
    pub(crate) fn features(&self, p: rlb_data::PairRef) -> [f32; Self::WIDTH] {
        let l = &self.left[p.left as usize];
        let r = &self.right[p.right as usize];
        if l.is_empty() || r.is_empty() {
            return [0.0; Self::WIDTH];
        }
        let mut row_max = vec![0.0f32; l.len()];
        let mut col_max = vec![0.0f32; r.len()];
        for (i, (u, _)) in l.iter().enumerate() {
            for (j, (v, _)) in r.iter().enumerate() {
                let c = rlb_util::linalg::cosine_f32(u, v).max(0.0);
                if c > row_max[i] {
                    row_max[i] = c;
                }
                if c > col_max[j] {
                    col_max[j] = c;
                }
            }
        }
        let wstats = |maxes: &[f32], toks: &[(Vec<f32>, f32)]| {
            let mut num = 0.0f32;
            let mut den = 0.0f32;
            let mut strong = 0usize;
            let mut min = 1.0f32;
            for (m, (_, w)) in maxes.iter().zip(toks) {
                num += m * w;
                den += w;
                if *m > 0.85 {
                    strong += 1;
                }
                if *m < min {
                    min = *m;
                }
            }
            (num / den.max(1e-6), strong as f32 / maxes.len() as f32, min)
        };
        let (wl, sl, ml) = wstats(&row_max, l);
        let (wr, sr, mr) = wstats(&col_max, r);
        [wl, wr, sl, sr, ml, mr]
    }
}

/// Error returned when a simulated matcher exceeds its capacity limit —
/// rendered as "-" (insufficient memory) in the result tables.
pub fn insufficient_memory() -> Error {
    Error::Numeric("insufficient memory".into())
}

/// Whether an error is the capacity sentinel.
pub fn is_insufficient_memory(e: &Error) -> bool {
    matches!(e, Error::Numeric(msg) if msg == "insufficient memory")
}

/// A classifier trained once, with the parameters each epoch budget ends
/// with.
pub(crate) struct Trained {
    net: Mlp,
    budgets: Vec<Checkpoint>,
}

impl Trained {
    /// Trains `net` for the largest of `budgets` epochs and keeps each
    /// budget's checkpoint. Every deep training run starts here, and each
    /// adds one to the `deep.trainings` counter.
    pub(crate) fn new(
        mut net: Mlp,
        (train_x, train_y): (&[Vec<f32>], &[bool]),
        (val_x, val_y): (&[Vec<f32>], &[bool]),
        learning_rate: f32,
        seed: u64,
        budgets: &[usize],
    ) -> Result<Trained> {
        rlb_obs::counter_add("deep.trainings", 1);
        let tc = TrainConfig {
            epochs: budgets.iter().copied().max().unwrap_or(0),
            learning_rate,
            ..Default::default()
        };
        let (_, budgets) =
            net.train_with_checkpoints(train_x, train_y, val_x, val_y, &tc, seed, budgets)?;
        Ok(Trained { net, budgets })
    }

    /// The network with budget `k`'s parameters loaded.
    fn at(&mut self, k: usize) -> &mut Mlp {
        self.net.load(&self.budgets[k]);
        &mut self.net
    }

    /// Logits of `xs` at every budget.
    pub(crate) fn logits(&mut self, xs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        (0..self.budgets.len())
            .map(|k| {
                let net = self.at(k);
                xs.iter().map(|x| net.logit(x)).collect()
            })
            .collect()
    }

    /// Predictions of `xs` at every budget.
    pub(crate) fn predict(&mut self, xs: &[Vec<f32>]) -> Vec<Vec<bool>> {
        (0..self.budgets.len())
            .map(|k| self.at(k).predict_batch(xs))
            .collect()
    }
}

/// Shared fit path: featurize a train and a validation sample once, then
/// train an MLP with validation-based epoch selection to every budget.
pub(crate) fn train_classifier<F>(
    task: &MatchingTask,
    cfg: &DeepConfig,
    budgets: &[usize],
    net: Mlp,
    featurize: F,
) -> Result<Trained>
where
    F: Fn(PairRef) -> Vec<f32>,
{
    if task.train.is_empty() {
        return Err(Error::EmptyInput("deep matcher training set"));
    }
    let mut rng = Prng::seed_from_u64(cfg.seed);
    let train = subsample_train(&task.train, cfg.max_train, &mut rng);
    let train_x: Vec<Vec<f32>> = train.iter().map(|lp| featurize(lp.pair)).collect();
    let train_y: Vec<bool> = train.iter().map(|lp| lp.is_match).collect();
    let val = subsample_train(&task.val, cfg.max_train / 2, &mut rng);
    let val_x: Vec<Vec<f32>> = val.iter().map(|lp| featurize(lp.pair)).collect();
    let val_y: Vec<bool> = val.iter().map(|lp| lp.is_match).collect();
    Trained::new(
        net,
        (&train_x, &train_y),
        (&val_x, &val_y),
        1e-2,
        cfg.seed ^ 0x7EA1,
        budgets,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_data::LabeledPair;

    #[test]
    fn subsample_respects_tiny_caps() {
        let pairs: Vec<LabeledPair> = (0..10)
            .map(|i| LabeledPair::new(i, i, i % 2 == 0))
            .collect();
        let mut rng = Prng::seed_from_u64(1);
        assert!(subsample_train(&pairs, 0, &mut rng).is_empty());
        let one = subsample_train(&pairs, 1, &mut rng);
        assert_eq!(one.len(), 1);
        assert!(one[0].is_match);
        // Magellan draws its training sample with the same helper.
        let task = MatchingTask {
            name: "caps".into(),
            left: rlb_data::Source::new("L", vec![]),
            right: rlb_data::Source::new("R", vec![]),
            train: pairs,
            val: vec![],
            test: vec![],
        };
        let mut magellan = crate::Magellan::new(crate::MagellanModel::DecisionTree, 1);
        magellan.max_train = 0;
        assert!(magellan.training_pairs(&task).is_empty());
        assert!(magellan.fit(&task).is_err());
        magellan.max_train = 1;
        let one = magellan.training_pairs(&task);
        assert_eq!(one.len(), 1);
        assert!(one[0].is_match);
    }

    #[test]
    fn subsample_preserves_class_balance() {
        let pairs: Vec<LabeledPair> = (0..1000)
            .map(|i| LabeledPair::new(i, i, i % 10 == 0))
            .collect();
        let mut rng = Prng::seed_from_u64(1);
        let sub = subsample_train(&pairs, 200, &mut rng);
        assert_eq!(sub.len(), 200);
        let pos = sub.iter().filter(|p| p.is_match).count();
        assert!((15..=25).contains(&pos), "positives {pos}");
    }

    #[test]
    fn subsample_below_cap_is_identity() {
        let pairs: Vec<LabeledPair> = (0..50)
            .map(|i| LabeledPair::new(i, i, i % 2 == 0))
            .collect();
        let mut rng = Prng::seed_from_u64(2);
        assert_eq!(subsample_train(&pairs, 100, &mut rng), pairs);
    }

    #[test]
    fn memory_sentinel_roundtrip() {
        let e = insufficient_memory();
        assert!(is_insufficient_memory(&e));
        assert!(!is_insufficient_memory(&Error::EmptyInput("x")));
    }
}
