//! DeepMatcher simulation — static embeddings, homogeneous (per-attribute)
//! similarity vectors, local decisions, HighwayNet classifier
//! (Section IV-A, method 1).

use super::{train_classifier, DeepConfig, DeepMatcher, Trained};
use rlb_data::{MatchingTask, PairRef, Record};
use rlb_embed::{cosine_sim, euclidean_sim, wasserstein_sim, HashedEmbedder};
use rlb_nn::Mlp;
use rlb_util::Result;

/// Static embedding dimensionality (fastText stand-in).
const DIM: usize = 64;

/// DeepMatcher: attribute embedding → attribute similarity vector →
/// Highway classifier.
pub struct DeepMatcherSim {
    cfg: DeepConfig,
    embedder: HashedEmbedder,
    /// Per-record, per-attribute pooled embeddings.
    left: Vec<Vec<Vec<f32>>>,
    right: Vec<Vec<Vec<f32>>>,
    arity: usize,
    net: Option<Trained>,
}

impl DeepMatcherSim {
    /// Unfitted matcher.
    pub fn new(cfg: DeepConfig) -> Self {
        DeepMatcherSim {
            cfg,
            embedder: HashedEmbedder::new(DIM, 0xFA57),
            left: Vec::new(),
            right: Vec::new(),
            arity: 0,
            net: None,
        }
    }

    fn embed_records(&self, records: &[Record]) -> Vec<Vec<Vec<f32>>> {
        records
            .iter()
            .map(|r| {
                (0..self.arity)
                    .map(|a| self.embedder.text(r.value(a)))
                    .collect()
            })
            .collect()
    }

    /// The homogeneous attribute-similarity vector: per aligned attribute,
    /// `[cosine, euclidean-sim, wasserstein-sim, both-present flag]`.
    fn features(&self, p: PairRef) -> Vec<f32> {
        let l = &self.left[p.left as usize];
        let r = &self.right[p.right as usize];
        let mut out = Vec::with_capacity(4 * self.arity);
        for a in 0..self.arity {
            let (u, v) = (&l[a], &r[a]);
            let lu = rlb_util::linalg::norm_f32(u);
            let lv = rlb_util::linalg::norm_f32(v);
            if lu == 0.0 || lv == 0.0 {
                out.extend_from_slice(&[0.0, 0.0, 0.0, 0.0]);
                continue;
            }
            out.push(cosine_sim(u, v) as f32);
            out.push(euclidean_sim(u, v) as f32);
            out.push(wasserstein_sim(u, v) as f32);
            out.push(1.0);
        }
        out
    }
}

impl DeepMatcher for DeepMatcherSim {
    fn config(&self) -> &DeepConfig {
        &self.cfg
    }

    fn method(&self) -> &'static str {
        "DeepMatcher"
    }

    fn fit_budgets(&mut self, task: &MatchingTask, budgets: &[usize]) -> Result<()> {
        self.arity = task.left.arity().max(task.right.arity());
        self.left = self.embed_records(&task.left.records);
        self.right = self.embed_records(&task.right.records);
        let net = Mlp::highway_net(4 * self.arity, 24, self.cfg.seed);
        let fitted = train_classifier(task, &self.cfg, budgets, net, |p| self.features(p))?;
        self.net = Some(fitted);
        Ok(())
    }

    fn predict_budgets(&mut self, _task: &MatchingTask, pairs: &[PairRef]) -> Vec<Vec<bool>> {
        let feats: Vec<Vec<f32>> = pairs.iter().map(|&p| self.features(p)).collect();
        let net = self
            .net
            .as_mut()
            .expect("DeepMatcherSim::predict before fit");
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
        let task = small(0.15, 41);
        let mut m = DeepMatcherSim::new(DeepConfig::with_epochs(15));
        let f1 = evaluate(&mut m, &task).unwrap().f1;
        assert!(f1 > 0.75, "DeepMatcher sim F1 {f1:.3}");
    }

    #[test]
    fn name_carries_epochs() {
        assert_eq!(
            DeepMatcherSim::new(DeepConfig::with_epochs(40)).name(),
            "DeepMatcher (40)"
        );
    }

    #[test]
    fn feature_width_is_4_per_attribute() {
        let task = small(0.3, 42);
        let mut m = DeepMatcherSim::new(DeepConfig::with_epochs(1));
        m.fit(&task).unwrap();
        assert_eq!(m.features(task.test[0].pair).len(), 4 * task.left.arity());
    }

    #[test]
    fn deterministic() {
        let task = small(0.3, 43);
        let run = || {
            let mut m = DeepMatcherSim::new(DeepConfig::with_epochs(3));
            m.fit(&task).unwrap();
            let pairs: Vec<_> = task.test.iter().map(|lp| lp.pair).collect();
            m.predict(&task, &pairs)
        };
        assert_eq!(run(), run());
    }
}
