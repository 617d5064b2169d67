//! The six linear ESDE matchers — Algorithm 2 of the paper
//! (*Efficient Supervised Difficulty Estimation*).
//!
//! Training phase: for every feature, sweep thresholds `0.01..0.99` (step
//! 0.01) over the training set and record the best-F1 threshold. Validation
//! phase: apply each feature's learned threshold to the validation set and
//! keep the single best feature. Testing phase: classify with that one
//! `(feature, threshold)` rule. The classifier is therefore linear in the
//! strictest sense — an axis-parallel threshold — which is exactly what
//! makes its F1 a *difficulty estimate* for the benchmark.

use crate::features::{QgramAttrViews, QgramViews, TaskViewCache};
use crate::Matcher;
use rlb_data::{LabeledPair, MatchingTask, PairRef};
use rlb_embed::{cosine_sim, euclidean_sim, wasserstein_sim, SentenceEmbedder};
use rlb_textsim::intern;
use rlb_util::{Error, Result};

/// Which feature space the ESDE instance uses (Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EsdeVariant {
    /// Schema-agnostic token `[CS, DS, JS]` (`|F| = 3`).
    SA,
    /// Schema-based token `[CS, DS, JS]` per attribute (`|F| = 3·|A|`).
    SB,
    /// Schema-agnostic character q-grams, `q ∈ 2..=10` (`|F| = 27`).
    SAQ,
    /// Schema-based q-grams per attribute (`|F| = 27·|A|`).
    SBQ,
    /// Schema-agnostic sentence embeddings `[CS, ES, WS]` (`|F| = 3`).
    SAS,
    /// Schema-based sentence embeddings per attribute (`|F| = 3·|A|`).
    SBS,
}

impl EsdeVariant {
    /// Paper name of the matcher.
    pub fn name(&self) -> &'static str {
        match self {
            EsdeVariant::SA => "SA-ESDE",
            EsdeVariant::SB => "SB-ESDE",
            EsdeVariant::SAQ => "SAQ-ESDE",
            EsdeVariant::SBQ => "SBQ-ESDE",
            EsdeVariant::SAS => "SAS-ESDE",
            EsdeVariant::SBS => "SBS-ESDE",
        }
    }

    /// All six variants.
    pub fn all() -> [EsdeVariant; 6] {
        [
            EsdeVariant::SA,
            EsdeVariant::SB,
            EsdeVariant::SAQ,
            EsdeVariant::SBQ,
            EsdeVariant::SAS,
            EsdeVariant::SBS,
        ]
    }
}

/// Embedding dimensionality for the sentence variants.
const SENT_DIM: usize = 64;

/// Record-level caches for one task, per variant family. Token variants
/// borrow the shared [`TaskViewCache`]; the q-gram and sentence variants own
/// their views (no other consumer needs them).
enum Prepared {
    /// SA/SB: interned token views.
    Tokens(TaskViewCache),
    /// SAQ: schema-agnostic q-gram views.
    QGrams(QgramViews),
    /// SBQ: per-attribute q-gram views.
    QGramsPerAttr(QgramAttrViews),
    Sentence {
        left: Vec<Vec<f32>>,
        right: Vec<Vec<f32>>,
    },
    SentencePerAttr {
        /// `[record][attr]`.
        left: Vec<Vec<Vec<f32>>>,
        right: Vec<Vec<Vec<f32>>>,
        arity: usize,
    },
}

/// One fitted ESDE matcher.
pub struct Esde {
    variant: EsdeVariant,
    cache: Option<TaskViewCache>,
    prepared: Option<Prepared>,
    best_feature: usize,
    best_threshold: f64,
    fitted: bool,
}

impl Esde {
    /// Unfitted matcher of the given variant (builds its own task views on
    /// `fit`; prefer [`Esde::with_views`] when running several variants on
    /// one task).
    pub fn new(variant: EsdeVariant) -> Self {
        Esde {
            variant,
            cache: None,
            prepared: None,
            best_feature: 0,
            best_threshold: 0.5,
            fitted: false,
        }
    }

    /// Unfitted matcher sharing a pre-built view cache. The cache must have
    /// been built from the task later passed to `fit` — the roster runner
    /// builds it once per task and hands clones to all six variants. Only
    /// the token variants (SA, SB) read it; the q-gram and sentence
    /// variants build their own views on `fit`.
    pub fn with_views(variant: EsdeVariant, cache: TaskViewCache) -> Self {
        Esde {
            cache: Some(cache),
            ..Esde::new(variant)
        }
    }

    /// The `(feature index, threshold)` selected on the validation set.
    pub fn selected(&self) -> Option<(usize, f64)> {
        self.fitted
            .then_some((self.best_feature, self.best_threshold))
    }

    /// The shared view cache if one was supplied, otherwise a fresh build.
    fn cache_for(&self, task: &MatchingTask) -> TaskViewCache {
        self.cache
            .clone()
            .unwrap_or_else(|| TaskViewCache::build(task))
    }

    fn prepare(&self, task: &MatchingTask) -> Prepared {
        match self.variant {
            EsdeVariant::SA | EsdeVariant::SB => Prepared::Tokens(self.cache_for(task)),
            EsdeVariant::SAQ => Prepared::QGrams(QgramViews::build(task)),
            EsdeVariant::SBQ => Prepared::QGramsPerAttr(QgramAttrViews::build(task)),
            EsdeVariant::SAS => {
                let embedder = fit_sentence_embedder(task);
                let embed = |records: &[rlb_data::Record]| {
                    records
                        .iter()
                        .map(|r| embedder.encode(&r.full_text()))
                        .collect()
                };
                Prepared::Sentence {
                    left: embed(&task.left.records),
                    right: embed(&task.right.records),
                }
            }
            EsdeVariant::SBS => {
                let embedder = fit_sentence_embedder(task);
                let arity = task.left.arity().max(task.right.arity());
                let embed = |records: &[rlb_data::Record]| {
                    records
                        .iter()
                        .map(|r| (0..arity).map(|a| embedder.encode(r.value(a))).collect())
                        .collect()
                };
                Prepared::SentencePerAttr {
                    left: embed(&task.left.records),
                    right: embed(&task.right.records),
                    arity,
                }
            }
        }
    }

    fn feature_vector(&self, p: PairRef) -> Vec<f64> {
        let prepared = self.prepared.as_ref().expect("prepare before featurize");
        let (li, ri) = (p.left as usize, p.right as usize);
        match prepared {
            Prepared::Tokens(views) => match self.variant {
                EsdeVariant::SA => views.sa_features(p),
                _ => views.sb_features(p),
            },
            Prepared::QGrams(qv) => {
                let mut out = Vec::with_capacity(3 * qv.left[li].len());
                for (a, b) in qv.left[li].iter().zip(&qv.right[ri]) {
                    out.push(intern::cosine(a, b));
                    out.push(intern::dice(a, b));
                    out.push(intern::jaccard(a, b));
                }
                out
            }
            Prepared::QGramsPerAttr(qv) => {
                let (l, r) = (&qv.left[li], &qv.right[ri]);
                let mut out = Vec::with_capacity(3 * l.iter().map(Vec::len).sum::<usize>());
                for (la, ra) in l.iter().zip(r) {
                    for (a, b) in la.iter().zip(ra) {
                        out.push(intern::cosine(a, b));
                        out.push(intern::dice(a, b));
                        out.push(intern::jaccard(a, b));
                    }
                }
                out
            }
            Prepared::Sentence { left, right } => {
                let (a, b) = (&left[li], &right[ri]);
                vec![cosine_sim(a, b), euclidean_sim(a, b), wasserstein_sim(a, b)]
            }
            Prepared::SentencePerAttr { left, right, arity } => {
                let mut out = Vec::with_capacity(3 * arity);
                for attr in 0..*arity {
                    let (a, b) = (&left[li][attr], &right[ri][attr]);
                    out.push(cosine_sim(a, b));
                    out.push(euclidean_sim(a, b));
                    out.push(wasserstein_sim(a, b));
                }
                out
            }
        }
    }

    fn feature_matrix(&self, pairs: &[LabeledPair]) -> (Vec<Vec<f64>>, Vec<bool>) {
        let xs = pairs
            .iter()
            .map(|lp| self.feature_vector(lp.pair))
            .collect();
        let ys = pairs.iter().map(|lp| lp.is_match).collect();
        (xs, ys)
    }
}

fn fit_sentence_embedder(task: &MatchingTask) -> SentenceEmbedder {
    let corpus: Vec<String> = task
        .left
        .records
        .iter()
        .chain(task.right.records.iter())
        .map(|r| r.full_text())
        .collect();
    SentenceEmbedder::fit(corpus.iter().map(|s| s.as_str()), SENT_DIM, 0x535E)
}

/// Sweeps thresholds `0.01..=0.99` (step 0.01) and returns
/// `(best F1, best threshold)` — the shared inner loop of Algorithms 1
/// and 2. Ties prefer the lower threshold (reached first).
///
/// When no threshold achieves F1 > 0 (e.g. all-negative labels or empty
/// input), the reported threshold is 0.01 — the lowest grid value — so
/// callers always receive a threshold that lies inside the sweep range
/// instead of the off-grid sentinel 0.0.
pub fn sweep_threshold(scores: &[f64], labels: &[bool]) -> (f64, f64) {
    debug_assert_eq!(scores.len(), labels.len());
    rlb_obs::counter_add("esde.threshold_sweeps", 1);
    let total_pos = labels.iter().filter(|&&y| y).count();
    let mut best = (0.0f64, 0.01f64);
    for step in 1..100 {
        let t = step as f64 / 100.0;
        let mut tp = 0usize;
        let mut fp = 0usize;
        for (&s, &y) in scores.iter().zip(labels) {
            if t <= s {
                if y {
                    tp += 1;
                } else {
                    fp += 1;
                }
            }
        }
        let fn_ = total_pos - tp;
        let f1 = if 2 * tp + fp + fn_ == 0 {
            0.0
        } else {
            2.0 * tp as f64 / (2 * tp + fp + fn_) as f64
        };
        if f1 > best.0 {
            best = (f1, t);
        }
    }
    best
}

impl Matcher for Esde {
    fn name(&self) -> String {
        self.variant.name().to_string()
    }

    fn fit(&mut self, task: &MatchingTask) -> Result<()> {
        if task.train.is_empty() {
            return Err(Error::EmptyInput("ESDE training set"));
        }
        let _span = rlb_obs::span!("esde.fit", "{} on {}", self.variant.name(), task.name);
        self.prepared = Some(self.prepare(task));

        // Training phase: best threshold per feature on T.
        let (train_x, train_y) = self.feature_matrix(&task.train);
        let n_features = train_x[0].len();
        let mut per_feature: Vec<(f64, f64)> = Vec::with_capacity(n_features); // (f1, t)
        for f in 0..n_features {
            let col: Vec<f64> = train_x.iter().map(|x| x[f]).collect();
            per_feature.push(sweep_threshold(&col, &train_y));
        }

        // Validation phase: pick the feature whose learned threshold scores
        // best on V (falling back to the training scores when V is empty).
        let (val_x, val_y) = if task.val.is_empty() {
            (train_x, train_y)
        } else {
            self.feature_matrix(&task.val)
        };
        let mut best_f = 0usize;
        let mut best_f1 = -1.0f64;
        for f in 0..n_features {
            let t = per_feature[f].1;
            let preds: Vec<bool> = val_x.iter().map(|x| t <= x[f]).collect();
            let f1 = rlb_ml::metrics::f1_score(&preds, &val_y);
            if f1 > best_f1 {
                best_f1 = f1;
                best_f = f;
            }
        }
        self.best_feature = best_f;
        self.best_threshold = per_feature[best_f].1;
        self.fitted = true;
        Ok(())
    }

    fn predict(&mut self, _task: &MatchingTask, pairs: &[PairRef]) -> Vec<bool> {
        assert!(self.fitted, "Esde::predict before fit");
        pairs
            .iter()
            .map(|&p| {
                let f = self.feature_vector(p);
                self.best_threshold <= f[self.best_feature]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use crate::testtask::small;

    #[test]
    fn sweep_threshold_finds_perfect_split() {
        let scores = vec![0.1, 0.2, 0.8, 0.9];
        let labels = vec![false, false, true, true];
        let (f1, t) = sweep_threshold(&scores, &labels);
        assert_eq!(f1, 1.0);
        assert!(t > 0.2 && t <= 0.8, "threshold {t}");
    }

    #[test]
    fn sweep_threshold_handles_all_negative() {
        let (f1, t) = sweep_threshold(&[0.3, 0.4], &[false, false]);
        assert_eq!(f1, 0.0);
        assert_eq!(
            t, 0.01,
            "degenerate input must report an in-range threshold"
        );
    }

    #[test]
    fn sweep_threshold_degenerate_inputs_stay_in_sweep_range() {
        // No threshold reaches F1 > 0 in any of these; the reported
        // threshold must still be a grid value, never the old 0.0 sentinel.
        let cases: [(&[f64], &[bool]); 3] = [
            (&[], &[]),
            (&[0.5, 0.7, 0.9], &[false, false, false]),
            // Positives exist but score 0.0: never predicted at any t.
            (&[0.0, 0.0], &[true, true]),
        ];
        for (scores, labels) in cases {
            let (f1, t) = sweep_threshold(scores, labels);
            assert_eq!(f1, 0.0, "scores {scores:?}");
            assert!(
                (0.01..=0.99).contains(&t),
                "scores {scores:?}: threshold {t}"
            );
        }
    }

    #[test]
    fn sweep_threshold_inseparable_scores_below_one() {
        let scores = vec![0.5, 0.5, 0.5, 0.5];
        let labels = vec![true, false, true, false];
        let (f1, _) = sweep_threshold(&scores, &labels);
        assert!(f1 > 0.0 && f1 < 1.0);
    }

    #[test]
    fn all_variants_fit_and_beat_chance_on_easy_data() {
        let task = small(0.1, 11);
        for variant in EsdeVariant::all() {
            let mut m = Esde::new(variant);
            let metrics = evaluate(&mut m, &task).unwrap();
            assert!(
                metrics.f1 > 0.6,
                "{} should do well on easy data, got {:.3}",
                variant.name(),
                metrics.f1
            );
            assert!(m.selected().is_some());
        }
    }

    #[test]
    fn esde_degrades_on_hard_data() {
        let easy = small(0.08, 12);
        let hard = small(0.75, 12);
        let f1_of = |task| {
            let mut m = Esde::new(EsdeVariant::SA);
            evaluate(&mut m, task).unwrap().f1
        };
        let fe = f1_of(&easy);
        let fh = f1_of(&hard);
        assert!(fe > fh + 0.1, "easy {fe:.3} vs hard {fh:.3}");
    }

    #[test]
    fn feature_widths_match_variant_contract() {
        let task = small(0.3, 13);
        let arity = task.left.arity();
        let widths = [
            (EsdeVariant::SA, 3),
            (EsdeVariant::SB, 3 * arity),
            (EsdeVariant::SAQ, 27),
            (EsdeVariant::SBQ, 27 * arity),
            (EsdeVariant::SAS, 3),
            (EsdeVariant::SBS, 3 * arity),
        ];
        for (variant, width) in widths {
            let mut m = Esde::new(variant);
            m.prepared = Some(m.prepare(&task));
            assert_eq!(
                m.feature_vector(task.train[0].pair).len(),
                width,
                "{}",
                variant.name()
            );
        }
    }

    #[test]
    fn shared_cache_is_byte_identical_to_private_build() {
        let task = small(0.4, 16);
        let cache = TaskViewCache::build(&task);
        let pairs: Vec<PairRef> = task.test.iter().map(|lp| lp.pair).collect();
        for variant in [
            EsdeVariant::SA,
            EsdeVariant::SB,
            EsdeVariant::SAQ,
            EsdeVariant::SBQ,
        ] {
            let mut own = Esde::new(variant);
            own.fit(&task).unwrap();
            let mut shared = Esde::with_views(variant, cache.clone());
            shared.fit(&task).unwrap();
            assert_eq!(own.selected(), shared.selected(), "{}", variant.name());
            assert_eq!(
                own.predict(&task, &pairs),
                shared.predict(&task, &pairs),
                "{}",
                variant.name()
            );
        }
    }

    #[test]
    fn deterministic() {
        let task = small(0.4, 14);
        let run = || {
            let mut m = Esde::new(EsdeVariant::SB);
            m.fit(&task).unwrap();
            m.selected().unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_training_set_errors() {
        let mut task = small(0.3, 15);
        task.train.clear();
        let mut m = Esde::new(EsdeVariant::SA);
        assert!(m.fit(&task).is_err());
    }
}
