//! Magellan-style matcher: automatically extracted similarity features
//! (similarity function × attribute) feeding a classical classifier
//! (Section IV-B). Four variants mirror the paper's Magellan-DT / -LR /
//! -RF / -SVM.

use crate::{subsample_train, MagellanRows, Matcher};
use rlb_data::{LabeledPair, MatchingTask, PairRef};
use rlb_ml::{
    Classifier, DecisionTree, LinearSvm, LogisticRegression, RandomForest, StandardScaler,
};
use rlb_util::{Error, Prng, Result};
use std::sync::Arc;

/// Which classifier tops the Magellan feature stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MagellanModel {
    /// CART decision tree.
    DecisionTree,
    /// Logistic regression.
    LogisticRegression,
    /// Random forest.
    RandomForest,
    /// Linear SVM.
    Svm,
}

impl MagellanModel {
    /// Paper-style short name.
    pub fn name(&self) -> &'static str {
        match self {
            MagellanModel::DecisionTree => "Magellan-DT",
            MagellanModel::LogisticRegression => "Magellan-LR",
            MagellanModel::RandomForest => "Magellan-RF",
            MagellanModel::Svm => "Magellan-SVM",
        }
    }

    /// All four variants.
    pub fn all() -> [MagellanModel; 4] {
        [
            MagellanModel::DecisionTree,
            MagellanModel::LogisticRegression,
            MagellanModel::RandomForest,
            MagellanModel::Svm,
        ]
    }
}

enum Fitted {
    Tree(DecisionTree),
    LogReg(LogisticRegression),
    Forest(RandomForest),
    Svm(LinearSvm),
}

impl Fitted {
    fn score(&self, x: &[f64]) -> f64 {
        match self {
            Fitted::Tree(m) => m.score(x),
            Fitted::LogReg(m) => m.score(x),
            Fitted::Forest(m) => m.score(x),
            Fitted::Svm(m) => m.score(x),
        }
    }
}

/// Magellan matcher (blocking disabled, as in the paper's fair-comparison
/// setup: it consumes exactly the task's candidate pairs).
pub struct Magellan {
    model: MagellanModel,
    seed: u64,
    /// Cap on training pairs (stratified subsample beyond it). Classical
    /// Magellan pipelines label a bounded sample anyway; the cap keeps the
    /// expensive Monge-Elkan feature extraction tractable on the largest
    /// blocked candidate sets.
    pub max_train: usize,
    rows: Arc<MagellanRows>,
    scaler: Option<StandardScaler>,
    fitted: Option<Fitted>,
}

impl Magellan {
    /// Unfitted matcher. It computes each feature row as it reads it.
    pub fn new(model: MagellanModel, seed: u64) -> Self {
        Magellan {
            model,
            seed,
            max_train: 6000,
            rows: Arc::default(),
            scaler: None,
            fitted: None,
        }
    }

    /// Reads feature rows from `rows` (built from the task later passed to
    /// `fit`) and computes only the rows it lacks. The roster shares one
    /// table between the four models and ZeroER.
    pub fn with_rows(self, rows: Arc<MagellanRows>) -> Self {
        Magellan { rows, ..self }
    }

    /// The pairs `fit` trains on: a stratified sample of at most
    /// `max_train` of the task's training pairs.
    pub fn training_pairs(&self, task: &MatchingTask) -> Vec<LabeledPair> {
        let mut rng = Prng::seed_from_u64(self.seed ^ 0x3A6E);
        subsample_train(&task.train, self.max_train, &mut rng)
    }
}

impl Matcher for Magellan {
    fn name(&self) -> String {
        self.model.name().to_string()
    }

    fn fit(&mut self, task: &MatchingTask) -> Result<()> {
        if task.train.is_empty() {
            return Err(Error::EmptyInput("Magellan training set"));
        }
        // Magellan trains on T; V is unused by the classical classifiers
        // (they have no epoch dimension to select over).
        let train = self.training_pairs(task);
        let raw: Vec<_> = train
            .iter()
            .map(|lp| self.rows.row(task, lp.pair))
            .collect();
        let ys: Vec<bool> = train.iter().map(|lp| lp.is_match).collect();
        let scaler = StandardScaler::fit(&raw)?;
        let xs = scaler.transform_batch(&raw);
        self.scaler = Some(scaler);
        self.fitted = Some(match self.model {
            MagellanModel::DecisionTree => {
                let mut m = DecisionTree::new(self.seed);
                m.fit(&xs, &ys)?;
                Fitted::Tree(m)
            }
            MagellanModel::LogisticRegression => {
                let mut m = LogisticRegression::new(self.seed);
                // scikit-learn's default LogisticRegression is unweighted;
                // Magellan uses it as-is.
                m.class_weighted = false;
                m.fit(&xs, &ys)?;
                Fitted::LogReg(m)
            }
            MagellanModel::RandomForest => {
                let mut m = RandomForest::new(self.seed);
                m.fit(&xs, &ys)?;
                Fitted::Forest(m)
            }
            MagellanModel::Svm => {
                let mut m = LinearSvm::new(self.seed);
                // Unweighted hinge loss, like Magellan's default SVC — this
                // is what makes Magellan-SVM collapse on the imbalanced
                // benchmarks (Table IV shows 0.0–12.6 F1 on several).
                m.class_weighted = false;
                m.fit(&xs, &ys)?;
                Fitted::Svm(m)
            }
        });
        Ok(())
    }

    fn predict(&mut self, task: &MatchingTask, pairs: &[PairRef]) -> Vec<bool> {
        let (Some(fitted), Some(scaler)) = (&self.fitted, &self.scaler) else {
            panic!("Magellan::predict before fit");
        };
        pairs
            .iter()
            .map(|&p| fitted.score(&scaler.transform(&self.rows.row(task, p))) >= 0.5)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use crate::testtask::small;

    #[test]
    fn all_variants_work_on_easy_data() {
        let task = small(0.1, 21);
        for model in MagellanModel::all() {
            let mut m = Magellan::new(model, 7);
            let f1 = evaluate(&mut m, &task).unwrap().f1;
            assert!(f1 > 0.7, "{} got {f1:.3}", model.name());
        }
    }

    #[test]
    fn forest_beats_linear_variants_on_hard_data() {
        let task = small(0.65, 22);
        let f1 = |model| {
            let mut m = Magellan::new(model, 7);
            evaluate(&mut m, &task).unwrap().f1
        };
        let rf = f1(MagellanModel::RandomForest);
        let svm = f1(MagellanModel::Svm);
        assert!(
            rf + 0.02 >= svm,
            "forest {rf:.3} should not trail the linear SVM {svm:.3}"
        );
    }

    #[test]
    fn predict_before_fit_panics() {
        let task = small(0.3, 23);
        let mut m = Magellan::new(MagellanModel::DecisionTree, 7);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.predict(&task, &[task.test[0].pair])
        }));
        assert!(result.is_err());
    }

    #[test]
    fn deterministic() {
        let task = small(0.4, 24);
        let run = || {
            let mut m = Magellan::new(MagellanModel::RandomForest, 9);
            m.fit(&task).unwrap();
            let pairs: Vec<_> = task.test.iter().map(|lp| lp.pair).collect();
            m.predict(&task, &pairs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_training_errors() {
        let mut task = small(0.3, 25);
        task.train.clear();
        let mut m = Magellan::new(MagellanModel::LogisticRegression, 7);
        assert!(m.fit(&task).is_err());
    }
}
