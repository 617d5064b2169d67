//! DITTO simulation — EMTransformer's dynamic encoding extended with the
//! three DITTO optimizations (Section IV-A, method 4):
//!
//! 1. **domain knowledge injection**: explicit features for recognized
//!    entity types — numeric tokens (years, prices) and identifier-shaped
//!    tokens (model codes) — the stand-in for the NER + regex module;
//! 2. **long-value summarization**: records longer than the token budget
//!    are reduced to their highest-TF-IDF non-stopword tokens before
//!    encoding;
//! 3. **data augmentation**: each training pair contributes extra jittered
//!    copies, the feature-space analogue of DITTO's augmentation operators.

use super::{emtransformer::EmTransformerSim as Emt, CrossAlign, DeepConfig, DeepMatcher, Trained};
use crate::subsample_train;
use rlb_data::{MatchingTask, PairRef, Record};
use rlb_embed::contextual::{ContextualEncoder, Variant};
use rlb_nn::{Mlp, TrainConfig};
use rlb_textsim::tfidf::{TfIdfModel, STOPWORDS};
use rlb_textsim::TokenSet;
use rlb_util::{Error, Prng, Result};

/// Token budget beyond which summarization kicks in.
const SUMMARY_BUDGET: usize = 32;
/// Augmented copies per training pair.
const AUGMENT_COPIES: usize = 1;
/// Feature jitter magnitude for augmentation.
const AUGMENT_NOISE: f32 = 0.02;

/// DITTO: summarize → encode (RoBERTa) → interaction features + injected
/// domain knowledge → MLP, with augmentation.
pub struct DittoSim {
    cfg: DeepConfig,
    encoder: ContextualEncoder,
    left: Vec<Vec<f32>>,
    right: Vec<Vec<f32>>,
    /// Cached knowledge tokens (numeric + code-shaped) per record.
    left_knowledge: Vec<(TokenSet, TokenSet)>,
    right_knowledge: Vec<(TokenSet, TokenSet)>,
    /// Feed the domain-knowledge features to the classifier (off by
    /// default, matching the paper's DITTO configuration; on = ablation of
    /// the knowledge module).
    pub use_knowledge: bool,
    align: CrossAlign,
    net: Option<Trained>,
}

impl DittoSim {
    /// Unfitted matcher.
    pub fn new(cfg: DeepConfig) -> Self {
        DittoSim {
            cfg,
            encoder: ContextualEncoder::new(Variant::Roberta),
            left: Vec::new(),
            right: Vec::new(),
            left_knowledge: Vec::new(),
            right_knowledge: Vec::new(),
            use_knowledge: false,
            align: CrossAlign::default(),
            net: None,
        }
    }

    /// Numeric tokens and identifier-shaped tokens (letters+digits mix) of a
    /// record — the domain-knowledge module's output.
    fn knowledge(record: &Record) -> (TokenSet, TokenSet) {
        let toks = record.tokens();
        let numeric = TokenSet::new(
            toks.iter()
                .filter(|t| t.chars().all(|c| c.is_ascii_digit()))
                .cloned(),
        );
        let codes = TokenSet::new(
            toks.iter()
                .filter(|t| {
                    t.chars().any(|c| c.is_ascii_digit()) && t.chars().any(|c| c.is_alphabetic())
                })
                .cloned(),
        );
        (numeric, codes)
    }

    fn encode_records(&self, records: &[Record], idf: &TfIdfModel) -> Vec<Vec<f32>> {
        records
            .iter()
            .map(|r| {
                let toks = r.tokens();
                if toks.len() > SUMMARY_BUDGET {
                    let summary = idf.summarize(&toks, SUMMARY_BUDGET, STOPWORDS);
                    self.encoder.encode_tokens(&summary)
                } else {
                    self.encoder.encode_tokens(&toks)
                }
            })
            .collect()
    }

    fn features(&self, p: PairRef) -> Vec<f32> {
        // NOTE: the knowledge features are computed but *not* fed to the
        // classifier by default — the paper could not run DITTO with its
        // external-knowledge module ("DITTO did not employ any external
        // knowledge", Section V-B), and its Table-IV runs underperform for
        // exactly that reason. `use_knowledge` restores them for ablations.
        let (li, ri) = (p.left as usize, p.right as usize);
        let mut out = Emt::pair_features(&self.left[li], &self.right[ri]);
        out.extend_from_slice(&self.align.features(p));
        if self.use_knowledge {
            let (ln, lc) = &self.left_knowledge[li];
            let (rn, rc) = &self.right_knowledge[ri];
            out.push(rlb_textsim::sets::jaccard(ln, rn) as f32);
            out.push(rlb_textsim::sets::jaccard(lc, rc) as f32);
            out.push(f32::from((!ln.is_empty() && !rn.is_empty()) as u8));
            out.push(f32::from((!lc.is_empty() && !rc.is_empty()) as u8));
        }
        out
    }
}

impl DeepMatcher for DittoSim {
    fn config(&self) -> &DeepConfig {
        &self.cfg
    }

    fn method(&self) -> &'static str {
        "DITTO"
    }

    fn fit_budgets(&mut self, task: &MatchingTask, budgets: &[usize]) -> Result<()> {
        if task.train.is_empty() {
            return Err(Error::EmptyInput("DITTO training set"));
        }
        let mut idf = TfIdfModel::new();
        for r in task.left.records.iter().chain(task.right.records.iter()) {
            let toks = r.tokens();
            idf.add_document(toks.iter().map(|t| t.as_str()));
        }
        self.left = self.encode_records(&task.left.records, &idf);
        self.right = self.encode_records(&task.right.records, &idf);
        self.left_knowledge = task.left.records.iter().map(Self::knowledge).collect();
        self.right_knowledge = task.right.records.iter().map(Self::knowledge).collect();
        let base = rlb_embed::HashedEmbedder::new(self.encoder.dim(), 0xD1770);
        self.align = CrossAlign::prepare(&|t| base.token(t), task);

        let dim =
            2 * self.encoder.dim() + 3 + CrossAlign::WIDTH + if self.use_knowledge { 4 } else { 0 };
        let net = Mlp::new(dim, &[64], self.cfg.seed ^ 0xD177);

        // Training with feature-space augmentation.
        let mut rng = Prng::seed_from_u64(self.cfg.seed);
        let base = subsample_train(&task.train, self.cfg.max_train, &mut rng);
        let mut train_x: Vec<Vec<f32>> = Vec::with_capacity(base.len() * (1 + AUGMENT_COPIES));
        let mut train_y: Vec<bool> = Vec::with_capacity(train_x.capacity());
        for lp in &base {
            let f = self.features(lp.pair);
            for copy in 0..=AUGMENT_COPIES {
                if copy == 0 {
                    train_x.push(f.clone());
                } else {
                    let jittered: Vec<f32> = f
                        .iter()
                        .map(|&v| v + (rng.f32() * 2.0 - 1.0) * AUGMENT_NOISE)
                        .collect();
                    train_x.push(jittered);
                }
                train_y.push(lp.is_match);
            }
        }
        let val = subsample_train(&task.val, self.cfg.max_train / 2, &mut rng);
        let val_x: Vec<Vec<f32>> = val.iter().map(|lp| self.features(lp.pair)).collect();
        let val_y: Vec<bool> = val.iter().map(|lp| lp.is_match).collect();
        self.net = Some(Trained::new(
            net,
            (&train_x, &train_y),
            (&val_x, &val_y),
            TrainConfig::default().learning_rate,
            self.cfg.seed ^ 0xA06,
            budgets,
        )?);
        Ok(())
    }

    fn predict_budgets(&mut self, _task: &MatchingTask, pairs: &[PairRef]) -> Vec<Vec<bool>> {
        let feats: Vec<Vec<f32>> = pairs.iter().map(|&p| self.features(p)).collect();
        let net = self.net.as_mut().expect("DittoSim::predict before fit");
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
        let task = small(0.15, 61);
        let mut m = DittoSim::new(DeepConfig::with_epochs(15));
        let f1 = evaluate(&mut m, &task).unwrap().f1;
        assert!(f1 > 0.7, "DITTO sim F1 {f1:.3}");
    }

    #[test]
    fn knowledge_extracts_numbers_and_codes() {
        use rlb_data::Record;
        let r = Record::new(0, vec!["acme XK-4821 model 2021".into()]);
        let (numeric, codes) = DittoSim::knowledge(&r);
        assert!(numeric.contains("2021"));
        assert!(numeric.contains("4821"));
        assert!(codes.is_empty() || !codes.contains("acme"));
    }

    #[test]
    fn feature_width_includes_knowledge() {
        let task = small(0.3, 62);
        let mut m = DittoSim::new(DeepConfig::with_epochs(1));
        m.fit(&task).unwrap();
        let f = m.features(task.test[0].pair);
        assert_eq!(f.len(), 2 * 128 + 3 + 6);
        let mut k = DittoSim::new(DeepConfig::with_epochs(1));
        k.use_knowledge = true;
        k.fit(&task).unwrap();
        assert_eq!(k.features(task.test[0].pair).len(), 2 * 128 + 3 + 6 + 4);
    }

    #[test]
    fn name_carries_epochs() {
        assert_eq!(
            DittoSim::new(DeepConfig::with_epochs(40)).name(),
            "DITTO (40)"
        );
    }
}
