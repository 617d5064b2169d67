//! HierMatcher simulation — hierarchical matching with **cross-attribute
//! token alignment** (Section IV-A, method 5): every token of one record is
//! aligned to its best-matching token *anywhere* in the other record
//! (heterogeneous), token contributions are weighted by importance (IDF),
//! alignment scores are aggregated per attribute, and an entity-level
//! comparison vector feeds the classifier.

use super::{train_classifier, DeepConfig, DeepMatcher, Trained};
use rlb_data::{MatchingTask, PairRef, Record};
use rlb_embed::hashed::HashedEmbedder;
use rlb_nn::Mlp;
use rlb_textsim::tfidf::TfIdfModel;
use rlb_util::Result;

/// Token-embedding dimensionality.
const DIM: usize = 64;
/// Capacity cap on `Σ pairs × tokens²` work — the token-level alignment is
/// what makes the real HierMatcher run out of memory on the larger
/// benchmarks (the many "-" entries in Table IV).
const MAX_ALIGNMENT_WORK: u64 = 8_000_000;

struct TokenizedRecord {
    /// Per attribute: `(token embedding, idf weight)`.
    attrs: Vec<Vec<(Vec<f32>, f32)>>,
}

/// HierMatcher: representation → token matching → attribute matching →
/// entity matching.
pub struct HierMatcherSim {
    cfg: DeepConfig,
    embedder: HashedEmbedder,
    left: Vec<TokenizedRecord>,
    right: Vec<TokenizedRecord>,
    arity: usize,
    net: Option<Trained>,
}

impl HierMatcherSim {
    /// Unfitted matcher.
    pub fn new(cfg: DeepConfig) -> Self {
        HierMatcherSim {
            cfg,
            embedder: HashedEmbedder::new(DIM, 0x41E2),
            left: Vec::new(),
            right: Vec::new(),
            arity: 0,
            net: None,
        }
    }

    fn tokenize_records(&self, records: &[Record], idf: &TfIdfModel) -> Vec<TokenizedRecord> {
        records
            .iter()
            .map(|r| {
                let attrs = (0..self.arity)
                    .map(|a| {
                        rlb_textsim::tokens(r.value(a))
                            .into_iter()
                            .map(|t| {
                                let w = idf.idf(&t) as f32;
                                (self.embedder.token(&t), w)
                            })
                            .collect()
                    })
                    .collect();
                TokenizedRecord { attrs }
            })
            .collect()
    }

    /// Best alignment of each token of `from` against any token of `to`
    /// (cross-attribute), importance-weighted.
    fn directional_attr_score(from: &[(Vec<f32>, f32)], to: &TokenizedRecord) -> f32 {
        if from.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f32;
        let mut weight = 0.0f32;
        for (v, w) in from {
            let mut best = 0.0f32;
            for attr in &to.attrs {
                for (u, _) in attr {
                    let c = rlb_util::linalg::cosine_f32(v, u);
                    if c > best {
                        best = c;
                    }
                }
            }
            total += w * best;
            weight += w;
        }
        if weight > 0.0 {
            total / weight
        } else {
            0.0
        }
    }

    /// Entity comparison vector: per left attribute the aligned score
    /// against the whole right record, per right attribute the reverse, plus
    /// global min/mean aggregates.
    fn features(&self, p: PairRef) -> Vec<f32> {
        let l = &self.left[p.left as usize];
        let r = &self.right[p.right as usize];
        let mut out = Vec::with_capacity(4 * self.arity + 2);
        // Only attributes that are present contribute to the aggregates;
        // the presence flags let the classifier discount absent ones.
        let mut all = Vec::with_capacity(2 * self.arity);
        for a in 0..self.arity {
            let present = !l.attrs[a].is_empty();
            let s = Self::directional_attr_score(&l.attrs[a], r);
            out.push(s);
            out.push(f32::from(present as u8));
            if present {
                all.push(s);
            }
        }
        for a in 0..self.arity {
            let present = !r.attrs[a].is_empty();
            let s = Self::directional_attr_score(&r.attrs[a], l);
            out.push(s);
            out.push(f32::from(present as u8));
            if present {
                all.push(s);
            }
        }
        let mean = all.iter().sum::<f32>() / all.len().max(1) as f32;
        let min = all.iter().copied().fold(1.0f32, f32::min);
        out.push(mean);
        out.push(min);
        out
    }

    fn alignment_work(task: &MatchingTask) -> u64 {
        // Estimate: pairs × (avg tokens per record)².
        let avg_tokens = |records: &[Record]| {
            let total: usize = records.iter().map(|r| r.tokens().len()).sum();
            (total / records.len().max(1)).max(1) as u64
        };
        let t = avg_tokens(&task.left.records).max(avg_tokens(&task.right.records));
        task.total_pairs() as u64 * t * t
    }
}

impl DeepMatcher for HierMatcherSim {
    fn config(&self) -> &DeepConfig {
        &self.cfg
    }

    fn method(&self) -> &'static str {
        "HierMatcher"
    }

    fn fit_budgets(&mut self, task: &MatchingTask, budgets: &[usize]) -> Result<()> {
        if Self::alignment_work(task) > MAX_ALIGNMENT_WORK {
            return Err(super::insufficient_memory());
        }
        self.arity = task.left.arity().max(task.right.arity());
        let mut idf = TfIdfModel::new();
        for r in task.left.records.iter().chain(task.right.records.iter()) {
            let toks = r.tokens();
            idf.add_document(toks.iter().map(|t| t.as_str()));
        }
        self.left = self.tokenize_records(&task.left.records, &idf);
        self.right = self.tokenize_records(&task.right.records, &idf);
        let dim = 4 * self.arity + 2;
        let net = Mlp::new(dim, &[24], self.cfg.seed ^ 0x41E3);
        let fitted = train_classifier(task, &self.cfg, budgets, net, |p| self.features(p))?;
        self.net = Some(fitted);
        Ok(())
    }

    fn predict_budgets(&mut self, _task: &MatchingTask, pairs: &[PairRef]) -> Vec<Vec<bool>> {
        let feats: Vec<Vec<f32>> = pairs.iter().map(|&p| self.features(p)).collect();
        let net = self
            .net
            .as_mut()
            .expect("HierMatcherSim::predict before fit");
        net.predict(&feats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testtask::small;
    use crate::{evaluate, Matcher};

    #[test]
    fn learns_easy_benchmark() {
        let task = small(0.15, 81);
        let mut m = HierMatcherSim::new(DeepConfig::with_epochs(10));
        let f1 = evaluate(&mut m, &task).unwrap().f1;
        assert!(f1 > 0.7, "HierMatcher sim F1 {f1:.3}");
    }

    #[test]
    fn cross_attribute_alignment_survives_migration() {
        // A token moved into a different attribute still aligns.
        use rlb_data::Source;
        let mut left = Source::new("L", vec!["a".into(), "b".into()]);
        let mut right = Source::new("R", vec!["a".into(), "b".into()]);
        left.push(vec!["kelora brimstone".into(), "kordia".into()]);
        right.push(vec!["kelora".into(), "brimstone kordia".into()]); // migrated
        right.push(vec!["voltan meridian".into(), "acme".into()]); // unrelated
        let task = MatchingTask {
            name: "mig".into(),
            left,
            right,
            train: vec![],
            val: vec![],
            test: vec![],
        };
        let mut m = HierMatcherSim::new(DeepConfig::with_epochs(1));
        m.arity = 2;
        let idf = TfIdfModel::new();
        m.left = m.tokenize_records(&task.left.records, &idf);
        m.right = m.tokenize_records(&task.right.records, &idf);
        let same = m.features(PairRef::new(0, 0));
        let diff = m.features(PairRef::new(0, 1));
        assert_eq!(same.len(), 4 * 2 + 2);
        let mean_same = same[same.len() - 2];
        let mean_diff = diff[diff.len() - 2];
        assert!(
            mean_same > 0.95,
            "migrated duplicate should align nearly perfectly: {mean_same}"
        );
        assert!(mean_same > mean_diff + 0.2);
    }

    #[test]
    fn oversized_task_reports_insufficient_memory() {
        let mut task = small(0.3, 82);
        let filler: Vec<rlb_data::LabeledPair> = (0..2_000_000)
            .map(|i| rlb_data::LabeledPair::new((i % 150) as u32, (i % 180) as u32, false))
            .collect();
        task.train.extend(filler);
        let mut m = HierMatcherSim::new(DeepConfig::with_epochs(10));
        let err = m.fit(&task).unwrap_err();
        assert!(super::super::is_insufficient_memory(&err));
    }

    #[test]
    fn name_carries_epochs() {
        assert_eq!(
            HierMatcherSim::new(DeepConfig::with_epochs(40)).name(),
            "HierMatcher (40)"
        );
    }
}
