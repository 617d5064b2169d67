//! ZeroER reimplementation: unsupervised matching with a two-component
//! Gaussian mixture over Magellan-style features (Section IV-B). It uses
//! *no labels at all* — the generative model is fitted on the blocked
//! candidate pairs, like the original's EM (with a size cap that
//! subsamples six-figure candidate sets before feature extraction).

use crate::{MagellanRows, Matcher};
use rlb_data::{MatchingTask, PairRef};
use rlb_ml::GaussianMixture;
use rlb_util::{Error, Prng, Result};
use std::sync::Arc;

/// Unsupervised Gaussian-mixture matcher.
pub struct ZeroEr {
    gmm: GaussianMixture,
    /// Cap on the pairs used to fit the mixture (random subsample beyond
    /// it). EM converges on a representative sample; the cap bounds the
    /// feature-extraction cost on six-figure candidate sets.
    pub max_fit: usize,
    rows: Arc<MagellanRows>,
    fitted: bool,
}

impl ZeroEr {
    /// Unfitted matcher. It computes each feature row as it reads it.
    pub fn new() -> Self {
        ZeroEr {
            gmm: GaussianMixture::new(),
            max_fit: 30_000,
            rows: Arc::default(),
            fitted: false,
        }
    }

    /// Reads feature rows from `rows` (built from the task later passed to
    /// `fit`) and computes only the rows it lacks.
    pub fn with_rows(self, rows: Arc<MagellanRows>) -> Self {
        ZeroEr { rows, ..self }
    }

    /// The pairs `fit` fits the mixture on: the task's candidate pairs,
    /// a random sample of `max_fit` of them beyond the cap.
    pub fn fit_pairs(&self, task: &MatchingTask) -> Vec<PairRef> {
        let mut pairs: Vec<_> = task.all_pairs().map(|lp| lp.pair).collect();
        if pairs.len() > self.max_fit {
            let mut rng = Prng::seed_from_u64(0x2E80);
            rng.shuffle(&mut pairs);
            pairs.truncate(self.max_fit);
        }
        pairs
    }
}

impl Default for ZeroEr {
    fn default() -> Self {
        Self::new()
    }
}

impl Matcher for ZeroEr {
    fn name(&self) -> String {
        "ZeroER".to_string()
    }

    fn fit(&mut self, task: &MatchingTask) -> Result<()> {
        // Unsupervised: fit on the candidate pairs, ignoring labels.
        let xs: Vec<Vec<f64>> = self
            .fit_pairs(task)
            .into_iter()
            .map(|p| self.rows.row(task, p).into_owned())
            .collect();
        if xs.len() < 4 {
            return Err(Error::EmptyInput("ZeroER needs at least 4 candidate pairs"));
        }
        self.gmm.fit(&xs)?;
        self.fitted = true;
        Ok(())
    }

    fn predict(&mut self, task: &MatchingTask, pairs: &[PairRef]) -> Vec<bool> {
        assert!(self.fitted, "ZeroEr::predict before fit");
        pairs
            .iter()
            .map(|&p| self.gmm.posterior(&self.rows.row(task, p)) >= 0.5)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use crate::testtask::{small, small_with_hard};

    #[test]
    fn separates_easy_data_without_labels() {
        // Low noise AND mostly random negatives: the regime where the
        // paper's ZeroER shines (e.g. 98.8 on Ds1).
        let task = small_with_hard(0.08, 0.05, 31);
        let mut m = ZeroEr::new();
        let f1 = evaluate(&mut m, &task).unwrap().f1;
        assert!(f1 > 0.6, "unsupervised F1 {f1:.3}");
    }

    #[test]
    fn degrades_on_hard_data() {
        let easy = small_with_hard(0.08, 0.05, 32);
        let hard = small_with_hard(0.8, 0.6, 32);
        let f1 = |task| evaluate(&mut ZeroEr::new(), task).unwrap().f1;
        assert!(f1(&easy) > f1(&hard));
    }

    #[test]
    fn tiny_task_errors() {
        let mut task = small(0.3, 33);
        task.train.truncate(1);
        task.val.clear();
        task.test.clear();
        assert!(ZeroEr::new().fit(&task).is_err());
    }

    #[test]
    fn deterministic() {
        let task = small(0.4, 34);
        let run = || {
            let mut m = ZeroEr::new();
            m.fit(&task).unwrap();
            let pairs: Vec<_> = task.test.iter().map(|lp| lp.pair).collect();
            m.predict(&task, &pairs)
        };
        assert_eq!(run(), run());
    }
}
