//! Sentence embeddings — the S-GTR-T5 substitute used by SAS/SBS-ESDE.
//!
//! A fitted [`SentenceEmbedder`] pools hashed token vectors weighted by
//! corpus IDF: rare (identity-bearing) tokens dominate the record vector
//! while filler words are damped, which is the property Sentence-BERT-style
//! encoders contribute to the linear ESDE matchers of Section IV-C.

use crate::hashed::HashedEmbedder;
use rlb_textsim::tfidf::TfIdfModel;

/// IDF-weighted pooled sentence encoder.
#[derive(Debug, Clone)]
pub struct SentenceEmbedder {
    base: HashedEmbedder,
    idf: TfIdfModel,
}

impl SentenceEmbedder {
    /// Fits the IDF table on a corpus of documents (each given as raw text)
    /// and fixes the token embedder.
    pub fn fit<'a, I>(corpus: I, dim: usize, seed: u64) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut idf = TfIdfModel::new();
        for doc in corpus {
            let toks = rlb_textsim::tokens(doc);
            idf.add_document(toks.iter().map(|t| t.as_str()));
        }
        SentenceEmbedder {
            base: HashedEmbedder::new(dim, seed),
            idf,
        }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.base.dim()
    }

    /// Embeds one text into a unit vector (zero vector for empty text).
    pub fn encode(&self, text: &str) -> Vec<f32> {
        let tokens = rlb_textsim::tokens(text);
        let mut out = vec![0.0f32; self.base.dim()];
        if tokens.is_empty() {
            return out;
        }
        for t in &tokens {
            let w = self.idf.idf(t) as f32;
            let v = self.base.token(t);
            for (o, x) in out.iter_mut().zip(&v) {
                *o += w * x;
            }
        }
        let n = rlb_util::linalg::norm_f32(&out);
        if n > 0.0 {
            for x in out.iter_mut() {
                *x /= n;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_util::linalg::cosine_f32;

    fn embedder() -> SentenceEmbedder {
        let corpus = [
            "premium new acme kelora speakers",
            "premium new acme voltan speakers",
            "premium classic zenbrook mirodan headphones",
            "new classic kordia sublime headphones",
        ];
        SentenceEmbedder::fit(corpus.iter().copied(), 64, 7)
    }

    #[test]
    fn fit_counts_corpus() {
        assert_eq!(embedder().idf.n_docs(), 4);
        assert_eq!(embedder().dim(), 64);
    }

    #[test]
    fn encode_is_unit_norm() {
        let v = embedder().encode("acme kelora speakers");
        assert!((rlb_util::linalg::norm_f32(&v) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn empty_text_is_zero() {
        assert!(embedder().encode("").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn idf_weighting_emphasizes_identity_tokens() {
        let e = embedder();
        // Same filler, different identity vs same identity, different filler.
        let base = e.encode("premium new acme kelora speakers");
        let same_identity = e.encode("classic acme kelora speakers");
        let same_filler = e.encode("premium new zenbrook mirodan speakers");
        let sim_id = cosine_f32(&base, &same_identity);
        let sim_fill = cosine_f32(&base, &same_filler);
        assert!(
            sim_id > sim_fill,
            "identity tokens should dominate: {sim_id} vs {sim_fill}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = embedder().encode("acme kelora");
        let b = embedder().encode("acme kelora");
        assert_eq!(a, b);
    }
}
