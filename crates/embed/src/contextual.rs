//! Dynamic (context-aware) sequence encoder — the BERT/RoBERTa substitute.
//!
//! What the transformer-based matchers actually get out of BERT, for the
//! purposes of this paper's experiments, is a *single robust record vector*
//! whose pairwise cosine separates matches from non-matches better than raw
//! token overlap under noise. The substitute reproduces the two mechanisms
//! responsible:
//!
//! 1. **context mixing** — each token vector is blended with its neighbours
//!    (a one-layer, fixed-weight stand-in for self-attention), so word order
//!    and local context influence the representation;
//! 2. **salience-weighted pooling** — tokens that are *distinctive within
//!    the sequence* (far from the sequence centroid) receive higher pooling
//!    weight, approximating how fine-tuned transformers learn to upweight
//!    discriminative tokens.
//!
//! Two [`Variant`]s with different hash seeds and dimensionalities stand in
//! for the BERT vs RoBERTa checkpoints; like the real models, they yield
//! correlated but not identical similarity geometries.

use crate::hashed::HashedEmbedder;
use rlb_util::linalg::cosine_f32;

/// Which pre-trained checkpoint the encoder imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// BERT-style: dim 96, seed A.
    Bert,
    /// RoBERTa-style: dim 128, seed B (slightly richer geometry, which is
    /// why EMTransformer-R edges out EMTransformer-B in the harness, as in
    /// the paper's Table IV).
    Roberta,
}

/// Context-aware sequence encoder.
#[derive(Debug, Clone)]
pub struct ContextualEncoder {
    base: HashedEmbedder,
    /// Maximum number of tokens encoded (the transformer "attention span";
    /// the paper notes the 512-token limit — we keep the same mechanism with
    /// a smaller default).
    pub max_tokens: usize,
}

impl ContextualEncoder {
    /// Encoder for the given checkpoint variant.
    pub fn new(variant: Variant) -> Self {
        let base = match variant {
            Variant::Bert => HashedEmbedder::new(96, 0xBE27),
            Variant::Roberta => HashedEmbedder::new(128, 0x40BE_27A0),
        };
        ContextualEncoder {
            base,
            max_tokens: 256,
        }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.base.dim()
    }

    /// Encodes a token sequence into one unit vector.
    pub fn encode_tokens(&self, tokens: &[String]) -> Vec<f32> {
        let dim = self.base.dim();
        let tokens = &tokens[..tokens.len().min(self.max_tokens)];
        if tokens.is_empty() {
            return vec![0.0; dim];
        }
        // Raw token vectors.
        let raw: Vec<Vec<f32>> = tokens.iter().map(|t| self.base.token(t)).collect();
        // Sequence centroid.
        let mut centroid = vec![0.0f32; dim];
        for v in &raw {
            for (c, x) in centroid.iter_mut().zip(v) {
                *c += x;
            }
        }
        let n = raw.len() as f32;
        for c in centroid.iter_mut() {
            *c /= n;
        }
        // Context mixing: v'_i = 0.7 v_i + 0.15 v_{i-1} + 0.15 v_{i+1}.
        let mixed: Vec<Vec<f32>> = (0..raw.len())
            .map(|i| {
                let mut v = vec![0.0f32; dim];
                for (d, item) in v.iter_mut().enumerate() {
                    let mut x = 0.7 * raw[i][d];
                    if i > 0 {
                        x += 0.15 * raw[i - 1][d];
                    }
                    if i + 1 < raw.len() {
                        x += 0.15 * raw[i + 1][d];
                    }
                    *item = x;
                }
                v
            })
            .collect();
        // Salience-weighted pooling: weight grows with distance from the
        // centroid (distinctive tokens dominate), softmax-normalized.
        let saliences: Vec<f32> = raw.iter().map(|v| 1.0 - cosine_f32(v, &centroid)).collect();
        let max_s = saliences.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = saliences
            .iter()
            .map(|s| ((s - max_s) * 2.0).exp())
            .collect();
        let z: f32 = exps.iter().sum();
        let mut out = vec![0.0f32; dim];
        for (v, w) in mixed.iter().zip(&exps) {
            let w = w / z;
            for (o, x) in out.iter_mut().zip(v) {
                *o += w * x;
            }
        }
        let norm = rlb_util::linalg::norm_f32(&out);
        if norm > 0.0 {
            for x in out.iter_mut() {
                *x /= norm;
            }
        }
        out
    }

    /// Encodes raw text (schema-agnostic tokenization).
    pub fn encode_text(&self, text: &str) -> Vec<f32> {
        self.encode_tokens(&rlb_textsim::tokens(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_have_distinct_dims_and_spaces() {
        let b = ContextualEncoder::new(Variant::Bert);
        let r = ContextualEncoder::new(Variant::Roberta);
        assert_eq!(b.dim(), 96);
        assert_eq!(r.dim(), 128);
        assert_ne!(
            b.encode_text("acme widget").len(),
            r.encode_text("acme widget").len()
        );
    }

    #[test]
    fn encoding_is_unit_norm_and_deterministic() {
        let e = ContextualEncoder::new(Variant::Bert);
        let v1 = e.encode_text("graviton stratex xk 4821");
        let v2 = e.encode_text("graviton stratex xk 4821");
        assert_eq!(v1, v2);
        assert!((rlb_util::linalg::norm_f32(&v1) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn empty_text_is_zero() {
        let e = ContextualEncoder::new(Variant::Bert);
        assert!(e.encode_text("").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn context_makes_order_matter() {
        let e = ContextualEncoder::new(Variant::Bert);
        // Note: a full reversal preserves every neighbour pair, so use a
        // permutation that changes adjacency.
        let ab = e.encode_text("alpha beta gamma delta");
        let ba = e.encode_text("alpha gamma beta delta");
        let sim = cosine_f32(&ab, &ba);
        assert!(sim > 0.8, "reordering should stay similar: {sim}");
        assert!(sim < 0.999_9, "but not identical: {sim}");
    }

    #[test]
    fn near_duplicates_beat_family_siblings() {
        let e = ContextualEncoder::new(Variant::Roberta);
        let original = e.encode_text("acme kelora brimstone xk 4821 premium speakers");
        // Typos + drop + filler — a corrupted duplicate.
        let duplicate = e.encode_text("acme kelora brimstone 4821 clasic speakers");
        // Same family (brand+category), different identity.
        let sibling = e.encode_text("acme voltan merisod pk 7733 premium speakers");
        let sim_dup = cosine_f32(&original, &duplicate);
        let sim_sib = cosine_f32(&original, &sibling);
        assert!(sim_dup > sim_sib, "dup {sim_dup} vs sibling {sim_sib}");
    }

    #[test]
    fn max_tokens_truncates() {
        let mut e = ContextualEncoder::new(Variant::Bert);
        e.max_tokens = 4;
        let short = e.encode_text("a b c d");
        let long = e.encode_text("a b c d e f g h");
        assert_eq!(short, long);
    }
}
