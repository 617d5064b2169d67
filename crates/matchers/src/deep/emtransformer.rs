//! EMTransformer simulation — dynamic embeddings applied out-of-the-box to
//! the concatenated attribute values (heterogeneous), local decisions
//! (Section IV-A, method 2). Two checkpoint variants, B and R.

use super::{train_classifier, CrossAlign, DeepConfig, DeepMatcher, Trained};
use rlb_data::{MatchingTask, PairRef, Record};
use rlb_embed::contextual::{ContextualEncoder, Variant};
use rlb_nn::Mlp;
use rlb_util::Result;

/// EMTransformer with a BERT- or RoBERTa-style encoder.
pub struct EmTransformerSim {
    cfg: DeepConfig,
    variant: Variant,
    encoder: ContextualEncoder,
    left: Vec<Vec<f32>>,
    right: Vec<Vec<f32>>,
    align: CrossAlign,
    net: Option<Trained>,
}

impl EmTransformerSim {
    /// Unfitted matcher for the given checkpoint variant.
    pub fn new(variant: Variant, cfg: DeepConfig) -> Self {
        EmTransformerSim {
            cfg,
            variant,
            encoder: ContextualEncoder::new(variant),
            left: Vec::new(),
            right: Vec::new(),
            align: CrossAlign::default(),
            net: None,
        }
    }

    fn encode_records(&self, records: &[Record]) -> Vec<Vec<f32>> {
        // Heterogeneous: all attribute values concatenated into one
        // sequence, exactly the "[CLS] seq1 [SEP] seq2 [SEP]" preparation.
        records
            .iter()
            .map(|r| self.encoder.encode_text(&r.full_text()))
            .collect()
    }

    /// Standard sequence-pair interaction features:
    /// `[|u − v| ; u ⊙ v ; cos ; euclid-sim ; wasserstein-sim]` — the
    /// element-wise comparison vector plus the scalar similarities a
    /// fine-tuned CLS head effectively computes.
    pub(crate) fn pair_features(u: &[f32], v: &[f32]) -> Vec<f32> {
        let mut out = Vec::with_capacity(2 * u.len() + 3);
        for (a, b) in u.iter().zip(v) {
            out.push((a - b).abs());
        }
        for (a, b) in u.iter().zip(v) {
            out.push(a * b);
        }
        out.push(rlb_embed::cosine_sim(u, v) as f32);
        out.push(rlb_embed::euclidean_sim(u, v) as f32);
        out.push(rlb_embed::wasserstein_sim(u, v) as f32);
        out
    }

    fn features(&self, p: PairRef) -> Vec<f32> {
        let mut out =
            Self::pair_features(&self.left[p.left as usize], &self.right[p.right as usize]);
        out.extend_from_slice(&self.align.features(p));
        out
    }
}

impl DeepMatcher for EmTransformerSim {
    fn config(&self) -> &DeepConfig {
        &self.cfg
    }

    fn method(&self) -> &'static str {
        match self.variant {
            Variant::Bert => "EMTransformer-B",
            Variant::Roberta => "EMTransformer-R",
        }
    }

    fn fit_budgets(&mut self, task: &MatchingTask, budgets: &[usize]) -> Result<()> {
        self.left = self.encode_records(&task.left.records);
        self.right = self.encode_records(&task.right.records);
        let base = rlb_embed::HashedEmbedder::new(self.encoder.dim(), 0xC405);
        self.align = CrossAlign::prepare(&|t| base.token(t), task);
        let dim = 2 * self.encoder.dim() + 3 + CrossAlign::WIDTH;
        let net = Mlp::new(dim, &[64], self.cfg.seed ^ self.encoder.dim() as u64);
        let fitted = train_classifier(task, &self.cfg, budgets, net, |p| self.features(p))?;
        self.net = Some(fitted);
        Ok(())
    }

    fn predict_budgets(&mut self, _task: &MatchingTask, pairs: &[PairRef]) -> Vec<Vec<bool>> {
        let feats: Vec<Vec<f32>> = pairs.iter().map(|&p| self.features(p)).collect();
        let net = self
            .net
            .as_mut()
            .expect("EmTransformerSim::predict before fit");
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
        let task = small(0.15, 51);
        let mut m = EmTransformerSim::new(Variant::Roberta, DeepConfig::with_epochs(15));
        let f1 = evaluate(&mut m, &task).unwrap().f1;
        assert!(f1 > 0.75, "EMTransformer sim F1 {f1:.3}");
    }

    #[test]
    fn names_distinguish_variants_and_epochs() {
        assert_eq!(
            EmTransformerSim::new(Variant::Bert, DeepConfig::with_epochs(15)).name(),
            "EMTransformer-B (15)"
        );
        assert_eq!(
            EmTransformerSim::new(Variant::Roberta, DeepConfig::with_epochs(40)).name(),
            "EMTransformer-R (40)"
        );
    }

    #[test]
    fn pair_features_have_expected_structure() {
        let u = vec![1.0f32, 0.0];
        let v = vec![0.0f32, 1.0];
        let f = EmTransformerSim::pair_features(&u, &v);
        assert_eq!(&f[..4], &[1.0, 1.0, 0.0, 0.0]);
        assert_eq!(f.len(), 7);
    }

    #[test]
    fn robust_to_dirty_attribute_migration() {
        // Heterogeneous concatenation makes the encoder insensitive to which
        // attribute a value sits in.
        use rlb_data::Source;
        let enc = ContextualEncoder::new(Variant::Bert);
        let mut s = Source::new("S", vec!["title".into(), "brand".into()]);
        s.push(vec!["acme widget".into(), "kordia".into()]);
        s.push(vec!["acme widget kordia".into(), String::new()]);
        let a = enc.encode_text(&s.record(0).full_text());
        let b = enc.encode_text(&s.record(1).full_text());
        let sim = rlb_util::linalg::cosine_f32(&a, &b);
        assert!(
            sim > 0.999,
            "migration should not change the encoding: {sim}"
        );
    }
}
