//! Classical machine-learning substrate, implemented from scratch.
//!
//! Supplies every non-neural learner the paper's matchers need:
//!
//! - [`LogisticRegression`] and [`LinearSvm`] (Pegasos) — the classifiers
//!   behind Magellan-LR / Magellan-SVM and the `l1`/`l2` linearity
//!   complexity measures;
//! - [`DecisionTree`] (CART, Gini) and [`RandomForest`] — Magellan-DT /
//!   Magellan-RF;
//! - [`GaussianMixture`] — the per-feature two-component EM mixture at the
//!   heart of the ZeroER reimplementation;
//! - [`metrics`] — precision / recall / F-measure as defined in Section II.
//!
//! All models consume plain `&[Vec<f64>]` feature matrices with boolean
//! labels (`true` = match), are deterministic under an explicit seed, and
//! return [`rlb_util::Error`] instead of panicking on bad shapes.

pub mod forest;
pub mod gmm;
pub mod logreg;
pub mod metrics;
pub mod scale;
pub mod svm;
pub mod tree;

pub use forest::RandomForest;
pub use gmm::GaussianMixture;
pub use logreg::LogisticRegression;
pub use metrics::{confusion, f1_score, BinaryMetrics};
pub use scale::StandardScaler;
pub use svm::LinearSvm;
pub use tree::DecisionTree;

/// A fitted binary classifier over dense `f64` feature vectors.
pub trait Classifier {
    /// Predicts the positive-class probability (or a monotone score in
    /// `[0, 1]`) for one feature vector.
    fn score(&self, x: &[f64]) -> f64;

    /// Predicts the label with the default 0.5 score threshold.
    fn predict(&self, x: &[f64]) -> bool {
        self.score(x) >= 0.5
    }

    /// Predicts labels for a batch.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<bool> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

pub(crate) fn check_xy(xs: &[Vec<f64>], ys: &[bool]) -> rlb_util::Result<usize> {
    if xs.is_empty() {
        return Err(rlb_util::Error::EmptyInput("training features"));
    }
    if xs.len() != ys.len() {
        return Err(rlb_util::Error::LengthMismatch {
            expected: xs.len(),
            actual: ys.len(),
            what: "labels",
        });
    }
    let dim = xs[0].len();
    if dim == 0 {
        return Err(rlb_util::Error::EmptyInput("feature dimensions"));
    }
    if xs.iter().any(|x| x.len() != dim) {
        return Err(rlb_util::Error::InvalidParameter(
            "ragged feature matrix".into(),
        ));
    }
    Ok(dim)
}

#[cfg(test)]
pub(crate) mod testdata {
    use rlb_util::Prng;

    /// Two well-separated Gaussian blobs in 2-D.
    pub fn blobs(n: usize, seed: u64, gap: f64) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rng = Prng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for i in 0..n {
            let pos = i % 2 == 0;
            let c = if pos { gap } else { -gap };
            xs.push(vec![rng.normal_with(c, 1.0), rng.normal_with(c * 0.5, 1.0)]);
            ys.push(pos);
        }
        (xs, ys)
    }

    /// XOR pattern — not linearly separable.
    pub fn xor(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rng = Prng::seed_from_u64(seed);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let a = rng.chance(0.5);
            let b = rng.chance(0.5);
            let jitter = 0.15;
            xs.push(vec![
                f64::from(a as u8) + rng.normal_with(0.0, jitter),
                f64::from(b as u8) + rng.normal_with(0.0, jitter),
            ]);
            ys.push(a ^ b);
        }
        (xs, ys)
    }
}
