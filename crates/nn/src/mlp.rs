//! Multi-layer perceptron with a validation-selected training loop.

use crate::dense::{sigmoid, Activation, DenseLayer, HighwayLayer, Layer};
use rlb_util::{Error, Prng, Result};

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the training data — the paper's most important
    /// DL hyperparameter (each matcher is reported at two epoch budgets).
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Mini-batch size (gradients are accumulated over the batch before one
    /// Adam step).
    pub batch_size: usize,
    /// Upweight positive examples by `n_neg / n_pos` (clamped) to cope with
    /// the imbalance ratios of ER benchmarks.
    pub class_weighted: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 15,
            learning_rate: 5e-3,
            batch_size: 32,
            class_weighted: true,
        }
    }
}

/// What a training run produced.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Validation F1 per epoch.
    pub val_f1_per_epoch: Vec<f64>,
    /// Epoch whose weights were kept (best validation F1).
    pub best_epoch: usize,
    /// The best validation F1.
    pub best_val_f1: f64,
}

/// Feed-forward binary classifier: a stack of layers ending in a single
/// logit.
pub struct Mlp {
    layers: Vec<Box<dyn Layer>>,
    step_count: u64,
}

impl std::fmt::Debug for Mlp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mlp({} layers)", self.layers.len())
    }
}

impl Mlp {
    /// Builds `input_dim → hidden[0] → … → hidden[n-1] → 1` with ReLU hidden
    /// activations and a linear output logit.
    pub fn new(input_dim: usize, hidden: &[usize], seed: u64) -> Self {
        let mut rng = Prng::seed_from_u64(seed);
        let mut layers: Vec<Box<dyn Layer>> = Vec::new();
        let mut dim = input_dim;
        for &h in hidden {
            layers.push(Box::new(DenseLayer::new(
                dim,
                h,
                Activation::Relu,
                &mut rng,
            )));
            dim = h;
        }
        layers.push(Box::new(DenseLayer::new(
            dim,
            1,
            Activation::Linear,
            &mut rng,
        )));
        Mlp {
            layers,
            step_count: 0,
        }
    }

    /// Builds DeepMatcher's classification module: `input → hidden` dense,
    /// two highway layers, then the output logit (Section IV-A: "two-layer
    /// fully connected ReLU HighwayNet followed by a softmax").
    pub fn highway_net(input_dim: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = Prng::seed_from_u64(seed);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(DenseLayer::new(
                input_dim,
                hidden,
                Activation::Relu,
                &mut rng,
            )),
            Box::new(HighwayLayer::new(hidden, &mut rng)),
            Box::new(HighwayLayer::new(hidden, &mut rng)),
            Box::new(DenseLayer::new(hidden, 1, Activation::Linear, &mut rng)),
        ];
        Mlp {
            layers,
            step_count: 0,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.input_dim())
    }

    /// Raw logit for one example.
    pub fn logit(&mut self, x: &[f32]) -> f32 {
        let mut h = x;
        for l in self.layers.iter_mut() {
            h = l.forward(h);
        }
        h[0]
    }

    /// Match probability for one example.
    pub fn score(&mut self, x: &[f32]) -> f32 {
        sigmoid(self.logit(x))
    }

    /// Predicted label with threshold 0.5.
    pub fn predict(&mut self, x: &[f32]) -> bool {
        self.logit(x) >= 0.0
    }

    /// Predictions for a batch.
    pub fn predict_batch(&mut self, xs: &[Vec<f32>]) -> Vec<bool> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Accumulates every parameter gradient for the last forward pass. The
    /// first layer's input gradient is never read, so it is not computed.
    fn backprop(&mut self, dlogit: f32) {
        let (first, rest) = self
            .layers
            .split_first_mut()
            .expect("an Mlp has an output layer");
        let dlogit = [dlogit];
        let mut dy: &[f32] = &dlogit;
        for l in rest.iter_mut().rev() {
            dy = l.backward(dy, true);
        }
        first.backward(dy, false);
    }

    fn optimizer_step(&mut self, lr: f32) {
        self.step_count += 1;
        let t = self.step_count;
        for l in self.layers.iter_mut() {
            l.step(lr, t);
        }
    }

    /// Validation F1 with current weights.
    fn val_f1(&mut self, xs: &[Vec<f32>], ys: &[bool]) -> f64 {
        let preds = self.predict_batch(xs);
        rlb_ml_f1(&preds, ys)
    }

    /// Trains with BCE-with-logits, mini-batches, and **validation-based
    /// model selection**: after each epoch the validation F1 is computed and
    /// the best-scoring epoch's weights are restored at the end. When the
    /// validation set is empty, the final epoch's weights are kept.
    pub fn train(
        &mut self,
        train_x: &[Vec<f32>],
        train_y: &[bool],
        val_x: &[Vec<f32>],
        val_y: &[bool],
        cfg: &TrainConfig,
        seed: u64,
    ) -> Result<TrainReport> {
        if train_x.is_empty() {
            return Err(Error::EmptyInput("training data"));
        }
        if train_x.len() != train_y.len() {
            return Err(Error::LengthMismatch {
                expected: train_x.len(),
                actual: train_y.len(),
                what: "training labels",
            });
        }
        let dim = self.input_dim();
        if train_x.iter().any(|x| x.len() != dim) {
            return Err(Error::InvalidParameter(
                "feature width != network input".into(),
            ));
        }
        let n = train_x.len();
        let pos = train_y.iter().filter(|&&y| y).count().max(1);
        let neg = (n - pos.min(n)).max(1);
        let pos_weight = if cfg.class_weighted {
            (neg as f32 / pos as f32).clamp(1.0, 20.0)
        } else {
            1.0
        };

        let mut rng = Prng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        let mut best: Option<(f64, Vec<Vec<f32>>)> = None; // (val f1, snapshot)
        let mut report = TrainReport {
            val_f1_per_epoch: Vec::new(),
            best_epoch: 0,
            best_val_f1: 0.0,
        };

        for epoch in 0..cfg.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                for &i in chunk {
                    let logit = self.logit(&train_x[i]);
                    let p = sigmoid(logit);
                    let y = f32::from(train_y[i] as u8);
                    // dBCE/dlogit = p - y, weighted per class, averaged over
                    // the batch.
                    let w = if train_y[i] { pos_weight } else { 1.0 };
                    let g = w * (p - y) / chunk.len() as f32;
                    // A saturated sigmoid gives g == 0. Backprop would then
                    // add only ±0 terms (weights and features are finite)
                    // to gradient sums that start at +0.0 and so are never
                    // −0.0: not one bit would change.
                    if g != 0.0 {
                        self.backprop(g);
                    }
                }
                self.optimizer_step(cfg.learning_rate);
            }
            if !val_x.is_empty() {
                let f1 = self.val_f1(val_x, val_y);
                report.val_f1_per_epoch.push(f1);
                if best.as_ref().is_none_or(|(b, _)| f1 > *b) {
                    best = Some((f1, self.snapshot()));
                    report.best_epoch = epoch;
                    report.best_val_f1 = f1;
                }
            }
        }
        if let Some((_, snap)) = best {
            self.restore(&snap);
        }
        Ok(report)
    }

    /// Copies all parameters out (used for validation-based selection).
    pub(crate) fn snapshot(&self) -> Vec<Vec<f32>> {
        self.layers.iter().map(|l| l.params_flat()).collect()
    }

    fn restore(&mut self, snap: &[Vec<f32>]) {
        for (l, s) in self.layers.iter_mut().zip(snap) {
            l.set_params_flat(s);
        }
    }
}

/// Local F1 to avoid a dependency cycle with `rlb-ml`.
pub(crate) fn rlb_ml_f1(pred: &[bool], actual: &[bool]) -> f64 {
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for (&p, &a) in pred.iter().zip(actual) {
        match (p, a) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            _ => {}
        }
    }
    if 2 * tp + fp + fn_ == 0 {
        return 0.0;
    }
    2.0 * tp as f64 / (2 * tp + fp + fn_) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut rng = Prng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.chance(0.5);
            let b = rng.chance(0.5);
            xs.push(vec![
                f32::from(a as u8) + rng.normal_with(0.0, 0.1) as f32,
                f32::from(b as u8) + rng.normal_with(0.0, 0.1) as f32,
            ]);
            ys.push(a ^ b);
        }
        (xs, ys)
    }

    #[test]
    fn mlp_learns_xor() {
        let (xs, ys) = xor_data(400, 1);
        let (vx, vy) = xor_data(100, 2);
        let mut net = Mlp::new(2, &[16, 8], 3);
        let cfg = TrainConfig {
            epochs: 40,
            ..Default::default()
        };
        let report = net.train(&xs, &ys, &vx, &vy, &cfg, 4).unwrap();
        assert!(report.best_val_f1 > 0.9, "val f1 {}", report.best_val_f1);
        let preds = net.predict_batch(&vx);
        assert!(rlb_ml_f1(&preds, &vy) > 0.9);
    }

    #[test]
    fn highway_net_learns_xor() {
        let (xs, ys) = xor_data(400, 5);
        let (vx, vy) = xor_data(100, 6);
        let mut net = Mlp::highway_net(2, 16, 7);
        let cfg = TrainConfig {
            epochs: 40,
            ..Default::default()
        };
        net.train(&xs, &ys, &vx, &vy, &cfg, 8).unwrap();
        let preds = net.predict_batch(&vx);
        assert!(rlb_ml_f1(&preds, &vy) > 0.85);
    }

    #[test]
    fn validation_selection_restores_best_epoch() {
        let (xs, ys) = xor_data(200, 9);
        let (vx, vy) = xor_data(60, 10);
        let mut net = Mlp::new(2, &[12], 11);
        let cfg = TrainConfig {
            epochs: 25,
            ..Default::default()
        };
        let report = net.train(&xs, &ys, &vx, &vy, &cfg, 12).unwrap();
        let final_f1 = {
            let preds = net.predict_batch(&vx);
            rlb_ml_f1(&preds, &vy)
        };
        assert!(
            (final_f1 - report.best_val_f1).abs() < 1e-9,
            "restored weights must reproduce the best epoch: {final_f1} vs {}",
            report.best_val_f1
        );
        assert_eq!(report.val_f1_per_epoch.len(), 25);
    }

    #[test]
    fn deterministic_under_seeds() {
        let (xs, ys) = xor_data(150, 13);
        let run = || {
            let mut net = Mlp::new(2, &[8], 14);
            let cfg = TrainConfig {
                epochs: 5,
                ..Default::default()
            };
            net.train(&xs, &ys, &[], &[], &cfg, 15).unwrap();
            net.predict_batch(&xs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rejects_bad_shapes() {
        let mut net = Mlp::new(3, &[4], 1);
        let cfg = TrainConfig::default();
        assert!(net.train(&[], &[], &[], &[], &cfg, 1).is_err());
        assert!(net
            .train(&[vec![1.0, 2.0]], &[true], &[], &[], &cfg, 1)
            .is_err());
        assert!(net
            .train(&[vec![1.0, 2.0, 3.0]], &[true, false], &[], &[], &cfg, 1)
            .is_err());
    }

    #[test]
    fn scores_are_probabilities() {
        let (xs, ys) = xor_data(100, 16);
        let mut net = Mlp::new(2, &[8], 17);
        let cfg = TrainConfig {
            epochs: 3,
            ..Default::default()
        };
        net.train(&xs, &ys, &[], &[], &cfg, 18).unwrap();
        for x in xs.iter().take(20) {
            let s = net.score(x);
            assert!((0.0..=1.0).contains(&s));
        }
    }
}
