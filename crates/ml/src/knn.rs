//! k-nearest-neighbour classifier (Euclidean), backing the `n3`/`n4`
//! neighborhood complexity measures.

use crate::{check_xy, Classifier};
use rlb_util::select::TopK;
use rlb_util::Result;

/// Brute-force k-NN over Euclidean distance. Fine at benchmark scale
/// (thousands of 2-D points); the complexity measures only ever need k ≤ 5.
#[derive(Debug, Clone)]
pub struct KnnClassifier {
    xs: Vec<Vec<f64>>,
    ys: Vec<bool>,
    /// Number of neighbours consulted.
    pub k: usize,
}

impl KnnClassifier {
    /// Classifier with the given `k` (clamped to ≥ 1).
    pub fn new(k: usize) -> Self {
        KnnClassifier {
            xs: Vec::new(),
            ys: Vec::new(),
            k: k.max(1),
        }
    }

    /// Stores the training data.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[bool]) -> Result<()> {
        check_xy(xs, ys)?;
        self.xs = xs.to_vec();
        self.ys = ys.to_vec();
        Ok(())
    }

    /// Indices of the `k` nearest stored points to `x` (optionally skipping
    /// one index, for leave-one-out evaluation).
    pub fn neighbors(&self, x: &[f64], skip: Option<usize>) -> Vec<usize> {
        let mut top = TopK::new(self.k);
        for (i, p) in self.xs.iter().enumerate() {
            if Some(i) == skip {
                continue;
            }
            top.push(-rlb_util::linalg::dist2(x, p), i);
        }
        top.into_sorted().into_iter().map(|(_, i)| i).collect()
    }

    fn vote(&self, neighbors: &[usize]) -> bool {
        if neighbors.is_empty() {
            return false;
        }
        let pos = neighbors.iter().filter(|&&i| self.ys[i]).count();
        2 * pos > neighbors.len() || (2 * pos == neighbors.len() && self.ys[neighbors[0]])
    }

    /// Number of stored training points.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the classifier holds no training data.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

impl Classifier for KnnClassifier {
    fn score(&self, x: &[f64]) -> f64 {
        let nb = self.neighbors(x, None);
        if nb.is_empty() {
            return 0.5;
        }
        nb.iter().filter(|&&i| self.ys[i]).count() as f64 / nb.len() as f64
    }

    fn predict(&self, x: &[f64]) -> bool {
        let nb = self.neighbors(x, None);
        self.vote(&nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::f1_score;
    use crate::testdata::{blobs, xor};

    #[test]
    fn one_nn_memorizes_training_data() {
        let (xs, ys) = blobs(100, 41, 1.0);
        let mut m = KnnClassifier::new(1);
        m.fit(&xs, &ys).unwrap();
        assert_eq!(f1_score(&m.predict_batch(&xs), &ys), 1.0);
    }

    #[test]
    fn solves_xor() {
        let (xs, ys) = xor(300, 42);
        let mut m = KnnClassifier::new(3);
        m.fit(&xs, &ys).unwrap();
        let f1 = f1_score(&m.predict_batch(&xs), &ys);
        assert!(f1 > 0.9, "knn should solve XOR, got {f1}");
    }

    #[test]
    fn loo_differs_from_resubstitution() {
        // A lone positive amid negatives is classified negative by LOO.
        let xs = vec![vec![0.0], vec![0.1], vec![0.2], vec![0.05]];
        let ys = vec![false, false, false, true];
        let mut m = KnnClassifier::new(1);
        m.fit(&xs, &ys).unwrap();
        assert!(m.predict(&xs[3])); // sees itself
        let loo = m.neighbors(&xs[3], Some(3)); // cannot see itself
        assert!(!ys[loo[0]]);
    }

    #[test]
    fn neighbors_are_sorted_by_distance() {
        let xs = vec![vec![0.0], vec![1.0], vec![3.0], vec![0.4]];
        let ys = vec![true, false, true, false];
        let mut m = KnnClassifier::new(3);
        m.fit(&xs, &ys).unwrap();
        assert_eq!(m.neighbors(&[0.0], None), vec![0, 3, 1]);
        assert_eq!(m.neighbors(&[0.0], Some(0)), vec![3, 1, 2]);
    }

    #[test]
    fn k_zero_is_clamped() {
        assert_eq!(KnnClassifier::new(0).k, 1);
    }

    #[test]
    fn empty_model_scores_half() {
        let m = KnnClassifier::new(3);
        assert!(m.is_empty());
        assert_eq!(m.score(&[0.0]), 0.5);
    }
}
