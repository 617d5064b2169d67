//! Test-only reference: the row-major layers, the plain Adam loop and the
//! training loop without skips that [`crate::dense`] and [`crate::mlp`]
//! must reproduce bit for bit.

use crate::dense::{sigmoid, Activation, DenseLayer, HighwayLayer, Layer};
use crate::mlp::{Mlp, TrainConfig, TrainReport};
use rlb_util::linalg::dot_f32;
use rlb_util::Prng;

/// The plain Adam update, one parameter after another.
pub(crate) fn adam_step(
    value: &mut [f32],
    grad: &mut [f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    t: u64,
) {
    const B1: f32 = 0.9;
    const B2: f32 = 0.999;
    const EPS: f32 = 1e-8;
    let bc1 = 1.0 - B1.powi(t as i32);
    let bc2 = 1.0 - B2.powi(t as i32);
    for i in 0..value.len() {
        let g = grad[i];
        m[i] = B1 * m[i] + (1.0 - B1) * g;
        v[i] = B2 * v[i] + (1.0 - B2) * g * g;
        let mhat = m[i] / bc1;
        let vhat = v[i] / bc2;
        value[i] -= lr * mhat / (vhat.sqrt() + EPS);
        grad[i] = 0.0;
    }
}

#[derive(Debug, Clone)]
struct RefParam {
    value: Vec<f32>,
    grad: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl RefParam {
    fn new(len: usize) -> Self {
        RefParam {
            value: vec![0.0; len],
            grad: vec![0.0; len],
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    fn xavier(fan_in: usize, fan_out: usize, rng: &mut Prng) -> Self {
        let mut p = RefParam::new(fan_in * fan_out);
        let scale = (6.0 / (fan_in + fan_out) as f64).sqrt();
        for w in p.value.iter_mut() {
            *w = rng.uniform(-scale, scale) as f32;
        }
        p
    }

    fn step(&mut self, lr: f32, t: u64) {
        adam_step(
            &mut self.value,
            &mut self.grad,
            &mut self.m,
            &mut self.v,
            lr,
            t,
        );
    }

    /// Subnormal first moments.
    fn stuck(&self) -> usize {
        self.m.iter().filter(|m| m.is_subnormal()).count()
    }
}

/// `out × in` row-major matrix as input-major.
fn input_major(w: &[f32], out: usize) -> Vec<f32> {
    let inp = w.len() / out;
    (0..inp * out)
        .map(|k| w[(k % out) * inp + k / out])
        .collect()
}

/// Row-major dense layer.
struct RefDense {
    w: RefParam,
    b: RefParam,
    act: Activation,
    in_dim: usize,
    out_dim: usize,
    last_x: Vec<f32>,
    last_a: Vec<f32>,
}

impl RefDense {
    fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut Prng) -> Self {
        RefDense {
            w: RefParam::xavier(in_dim, out_dim, rng),
            b: RefParam::new(out_dim),
            act,
            in_dim,
            out_dim,
            last_x: Vec::new(),
            last_a: Vec::new(),
        }
    }

    fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        self.last_x = x.to_vec();
        let mut out = vec![0.0f32; self.out_dim];
        for (o, out_o) in out.iter_mut().enumerate() {
            let row = &self.w.value[o * self.in_dim..(o + 1) * self.in_dim];
            let z = dot_f32(row, x) + self.b.value[o];
            *out_o = apply(self.act, z);
        }
        self.last_a = out.clone();
        out
    }

    fn backward(&mut self, dy: &[f32]) -> Vec<f32> {
        let mut dx = vec![0.0f32; self.in_dim];
        for (o, &dy_o) in dy.iter().enumerate() {
            let dz = dy_o * derivative(self.act, self.last_a[o]);
            self.b.grad[o] += dz;
            let row_g = &mut self.w.grad[o * self.in_dim..(o + 1) * self.in_dim];
            for (i, g) in row_g.iter_mut().enumerate() {
                *g += dz * self.last_x[i];
            }
            let row = &self.w.value[o * self.in_dim..(o + 1) * self.in_dim];
            for (i, d) in dx.iter_mut().enumerate() {
                *d += dz * row[i];
            }
        }
        dx
    }

    fn step(&mut self, lr: f32, t: u64) {
        self.w.step(lr, t);
        self.b.step(lr, t);
    }

    /// Parameters in [`DenseLayer::params_flat`]'s order.
    fn params_input_major(&self) -> Vec<f32> {
        let mut v = input_major(&self.w.value, self.out_dim);
        v.extend_from_slice(&self.b.value);
        v
    }

    fn stuck(&self) -> usize {
        self.w.stuck() + self.b.stuck()
    }
}

/// Row-major highway layer.
struct RefHighway {
    wh: RefParam,
    bh: RefParam,
    wt: RefParam,
    bt: RefParam,
    dim: usize,
    last_x: Vec<f32>,
    last_h: Vec<f32>,
    last_t: Vec<f32>,
}

impl RefHighway {
    fn new(dim: usize, rng: &mut Prng) -> Self {
        let wh = RefParam::xavier(dim, dim, rng);
        let wt = RefParam::xavier(dim, dim, rng);
        let mut bt = RefParam::new(dim);
        bt.value.fill(-1.0);
        RefHighway {
            wh,
            bh: RefParam::new(dim),
            wt,
            bt,
            dim,
            last_x: Vec::new(),
            last_h: Vec::new(),
            last_t: Vec::new(),
        }
    }

    fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        self.last_x = x.to_vec();
        let mut h = vec![0.0f32; self.dim];
        let mut t = vec![0.0f32; self.dim];
        for o in 0..self.dim {
            let rh = &self.wh.value[o * self.dim..(o + 1) * self.dim];
            let rt = &self.wt.value[o * self.dim..(o + 1) * self.dim];
            h[o] = (dot_f32(rh, x) + self.bh.value[o]).max(0.0);
            t[o] = sigmoid(dot_f32(rt, x) + self.bt.value[o]);
        }
        let y: Vec<f32> = (0..self.dim)
            .map(|o| t[o] * h[o] + (1.0 - t[o]) * x[o])
            .collect();
        self.last_h = h;
        self.last_t = t;
        y
    }

    fn backward(&mut self, dy: &[f32]) -> Vec<f32> {
        let mut dx = vec![0.0f32; self.dim];
        for i in 0..self.dim {
            dx[i] += dy[i] * (1.0 - self.last_t[i]);
        }
        for (o, &dy_o) in dy.iter().enumerate() {
            let dh = dy_o * self.last_t[o];
            let dzh = if self.last_h[o] > 0.0 { dh } else { 0.0 };
            self.bh.grad[o] += dzh;
            let row_hg = &mut self.wh.grad[o * self.dim..(o + 1) * self.dim];
            for (i, g) in row_hg.iter_mut().enumerate() {
                *g += dzh * self.last_x[i];
            }
            let row_h = &self.wh.value[o * self.dim..(o + 1) * self.dim];
            for (i, d) in dx.iter_mut().enumerate() {
                *d += dzh * row_h[i];
            }
            let dt = dy_o * (self.last_h[o] - self.last_x[o]);
            let dzt = dt * self.last_t[o] * (1.0 - self.last_t[o]);
            self.bt.grad[o] += dzt;
            let row_tg = &mut self.wt.grad[o * self.dim..(o + 1) * self.dim];
            for (i, g) in row_tg.iter_mut().enumerate() {
                *g += dzt * self.last_x[i];
            }
            let row_t = &self.wt.value[o * self.dim..(o + 1) * self.dim];
            for (i, d) in dx.iter_mut().enumerate() {
                *d += dzt * row_t[i];
            }
        }
        dx
    }

    fn step(&mut self, lr: f32, t: u64) {
        self.wh.step(lr, t);
        self.bh.step(lr, t);
        self.wt.step(lr, t);
        self.bt.step(lr, t);
    }

    /// Parameters in [`HighwayLayer::params_flat`]'s order.
    fn params_input_major(&self) -> Vec<f32> {
        let mut v = input_major(&self.wh.value, self.dim);
        v.extend_from_slice(&self.bh.value);
        v.extend_from_slice(&input_major(&self.wt.value, self.dim));
        v.extend_from_slice(&self.bt.value);
        v
    }

    fn stuck(&self) -> usize {
        self.wh.stuck() + self.bh.stuck() + self.wt.stuck() + self.bt.stuck()
    }
}

fn apply(act: Activation, z: f32) -> f32 {
    match act {
        Activation::Linear => z,
        Activation::Relu => z.max(0.0),
        Activation::Tanh => z.tanh(),
        Activation::Sigmoid => sigmoid(z),
    }
}

fn derivative(act: Activation, a: f32) -> f32 {
    match act {
        Activation::Linear => 1.0,
        Activation::Relu => {
            if a > 0.0 {
                1.0
            } else {
                0.0
            }
        }
        Activation::Tanh => 1.0 - a * a,
        Activation::Sigmoid => a * (1.0 - a),
    }
}

enum RefLayer {
    Dense(RefDense),
    Highway(RefHighway),
}

impl RefLayer {
    fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        match self {
            RefLayer::Dense(d) => d.forward(x),
            RefLayer::Highway(h) => h.forward(x),
        }
    }

    fn backward(&mut self, dy: &[f32]) -> Vec<f32> {
        match self {
            RefLayer::Dense(d) => d.backward(dy),
            RefLayer::Highway(h) => h.backward(dy),
        }
    }

    fn step(&mut self, lr: f32, t: u64) {
        match self {
            RefLayer::Dense(d) => d.step(lr, t),
            RefLayer::Highway(h) => h.step(lr, t),
        }
    }

    /// Parameters in the new layers' `params_flat` order.
    fn params_input_major(&self) -> Vec<f32> {
        match self {
            RefLayer::Dense(d) => d.params_input_major(),
            RefLayer::Highway(h) => h.params_input_major(),
        }
    }

    /// Subnormal first moments.
    fn stuck(&self) -> usize {
        match self {
            RefLayer::Dense(d) => d.stuck(),
            RefLayer::Highway(h) => h.stuck(),
        }
    }
}

/// The reference network with the training loop that backpropagates every
/// example through every layer.
struct RefMlp {
    layers: Vec<RefLayer>,
    step_count: u64,
    /// Examples whose logit gradient was exactly zero.
    zero_gradients: usize,
}

impl RefMlp {
    /// Twin of [`Mlp::new`].
    fn new(input_dim: usize, hidden: &[usize], seed: u64) -> Self {
        let mut rng = Prng::seed_from_u64(seed);
        let mut layers = Vec::new();
        let mut dim = input_dim;
        for &h in hidden {
            layers.push(RefLayer::Dense(RefDense::new(
                dim,
                h,
                Activation::Relu,
                &mut rng,
            )));
            dim = h;
        }
        layers.push(RefLayer::Dense(RefDense::new(
            dim,
            1,
            Activation::Linear,
            &mut rng,
        )));
        RefMlp {
            layers,
            step_count: 0,
            zero_gradients: 0,
        }
    }

    /// Twin of [`Mlp::highway_net`].
    fn highway_net(input_dim: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = Prng::seed_from_u64(seed);
        let layers = vec![
            RefLayer::Dense(RefDense::new(input_dim, hidden, Activation::Relu, &mut rng)),
            RefLayer::Highway(RefHighway::new(hidden, &mut rng)),
            RefLayer::Highway(RefHighway::new(hidden, &mut rng)),
            RefLayer::Dense(RefDense::new(hidden, 1, Activation::Linear, &mut rng)),
        ];
        RefMlp {
            layers,
            step_count: 0,
            zero_gradients: 0,
        }
    }

    fn logit(&mut self, x: &[f32]) -> f32 {
        let mut h = x.to_vec();
        for l in self.layers.iter_mut() {
            h = l.forward(&h);
        }
        h[0]
    }

    fn backprop(&mut self, dlogit: f32) {
        let mut dy = vec![dlogit];
        for l in self.layers.iter_mut().rev() {
            dy = l.backward(&dy);
        }
    }

    fn optimizer_step(&mut self, lr: f32) {
        self.step_count += 1;
        let t = self.step_count;
        for l in self.layers.iter_mut() {
            l.step(lr, t);
        }
    }

    /// Parameters per layer, in [`Mlp`]'s snapshot order.
    fn snapshot(&self) -> Vec<Vec<f32>> {
        self.layers
            .iter()
            .map(RefLayer::params_input_major)
            .collect()
    }

    /// Subnormal first moments over all layers.
    fn stuck_moments(&self) -> usize {
        self.layers.iter().map(RefLayer::stuck).sum()
    }

    /// [`Mlp::train`] as it was: every example is backpropagated through
    /// every layer.
    fn train(
        &mut self,
        train_x: &[Vec<f32>],
        train_y: &[bool],
        val_x: &[Vec<f32>],
        val_y: &[bool],
        cfg: &TrainConfig,
        seed: u64,
    ) -> TrainReport {
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
        let mut best: Option<(f64, Vec<Vec<f32>>)> = None;
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
                    let w = if train_y[i] { pos_weight } else { 1.0 };
                    let g = w * (p - y) / chunk.len() as f32;
                    self.zero_gradients += usize::from(g == 0.0);
                    self.backprop(g);
                }
                self.optimizer_step(cfg.learning_rate);
            }
            if !val_x.is_empty() {
                let preds: Vec<bool> = val_x.iter().map(|x| self.logit(x) >= 0.0).collect();
                let f1 = crate::mlp::rlb_ml_f1(&preds, val_y);
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
        report
    }

    fn restore(&mut self, snap: &[Vec<f32>]) {
        // Snapshots are input-major; write them back row-major.
        for (l, s) in self.layers.iter_mut().zip(snap) {
            match l {
                RefLayer::Dense(d) => {
                    let nw = d.w.value.len();
                    d.w.value = input_major(&s[..nw], d.in_dim);
                    d.b.value.copy_from_slice(&s[nw..]);
                }
                RefLayer::Highway(hw) => {
                    let (nw, nb) = (hw.wh.value.len(), hw.bh.value.len());
                    hw.wh.value = input_major(&s[..nw], hw.dim);
                    hw.bh.value.copy_from_slice(&s[nw..nw + nb]);
                    hw.wt.value = input_major(&s[nw + nb..2 * nw + nb], hw.dim);
                    hw.bt.value.copy_from_slice(&s[2 * nw + nb..]);
                }
            }
        }
    }
}

/// Bit patterns of a slice, for exact comparisons that tell `−0.0` from
/// `+0.0`.
pub(crate) fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inputs in [-1, 1] with every third feature zero, so some weights
    /// never see a gradient after their unit dies.
    fn inputs(n: usize, dim: usize, rng: &mut Prng) -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|j| {
                        if j % 3 == 2 {
                            0.0
                        } else {
                            rng.uniform(-1.0, 1.0) as f32
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Drives a new and a reference layer through `steps` Adam steps: the
    /// first 300 on full inputs, the rest with the even features zeroed so
    /// their weights' moments decay into the subnormals. Every output,
    /// input gradient and parameter must match bit for bit.
    fn layer_twin(new: &mut dyn Layer, old: &mut RefLayer, steps: u64, seed: u64) {
        let (din, dout) = (new.input_dim(), new.output_dim());
        assert_eq!(bits(&new.params_flat()), bits(&old.params_input_major()));
        let mut rng = Prng::seed_from_u64(seed);
        for t in 1..=steps {
            for _ in 0..2 {
                let mut x: Vec<f32> = (0..din).map(|_| rng.uniform(-1.0, 1.0) as f32).collect();
                if t > 300 {
                    x.iter_mut().step_by(2).for_each(|xi| *xi = 0.0);
                }
                let dy: Vec<f32> = (0..dout).map(|_| rng.uniform(-1.0, 1.0) as f32).collect();
                let want_y = old.forward(&x);
                assert_eq!(bits(new.forward(&x)), bits(&want_y), "forward, step {t}");
                let want_dx = old.backward(&dy);
                assert_eq!(
                    bits(new.backward(&dy, true)),
                    bits(&want_dx),
                    "dx, step {t}"
                );
            }
            new.step(5e-3, t);
            old.step(5e-3, t);
        }
        assert_eq!(
            bits(&new.params_flat()),
            bits(&old.params_input_major()),
            "params"
        );
    }

    const EDGE_WIDTHS: [usize; 5] = [1, 7, 8, 9, 65];

    #[test]
    fn dense_matches_row_major_reference_at_edge_widths() {
        for din in EDGE_WIDTHS {
            for dout in EDGE_WIDTHS {
                for act in [Activation::Relu, Activation::Linear, Activation::Tanh] {
                    let seed = (din * 100 + dout) as u64;
                    let mut new = DenseLayer::new(din, dout, act, &mut Prng::seed_from_u64(seed));
                    let old = RefDense::new(din, dout, act, &mut Prng::seed_from_u64(seed));
                    let steps = if din == 65 || dout == 65 { 400 } else { 1200 };
                    layer_twin(&mut new, &mut RefLayer::Dense(old), steps, seed);
                }
            }
        }
    }

    #[test]
    fn highway_matches_row_major_reference_at_edge_widths() {
        for dim in EDGE_WIDTHS {
            let seed = dim as u64;
            let mut new = HighwayLayer::new(dim, &mut Prng::seed_from_u64(seed));
            let mut old = RefLayer::Highway(RefHighway::new(dim, &mut Prng::seed_from_u64(seed)));
            layer_twin(&mut new, &mut old, 1200, seed);
            assert!(old.stuck() > 0, "dim {dim}: no moment went subnormal");
        }
    }

    /// Labels from a noisy linear rule, plus easy positives flagged by a
    /// strong last feature that is zero everywhere else. Once the easy
    /// positives saturate, that feature's weights see only `+0.0`
    /// gradients and their first moments decay into the subnormals.
    fn task(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
        let mut rng = Prng::seed_from_u64(seed);
        let mut xs = inputs(n, dim, &mut rng);
        let ys = xs
            .iter_mut()
            .map(|x| {
                let easy = rng.chance(0.2);
                x[dim - 1] = if easy { 16.0 } else { 0.0 };
                let noise = 0.2 * rng.uniform(-1.0, 1.0) as f32;
                easy || x[0] + x[1] + noise > 0.3
            })
            .collect();
        (xs, ys)
    }

    /// Trains a new and a reference network the way the deep matchers do
    /// (lr 1e-2, batch 32, class-weighted), once with a validation set and
    /// once without, which keeps the last epoch's weights. Per-epoch
    /// validation F1s, parameters and logits must match bit for bit.
    fn train_twin(new: impl Fn() -> Mlp, old: impl Fn() -> RefMlp, dim: usize) {
        let (tx, ty) = task(192, dim, dim as u64);
        let (vx, vy) = task(64, dim, dim as u64 + 1);
        let cfg = TrainConfig {
            epochs: 250,
            learning_rate: 1e-2,
            ..Default::default()
        };
        let steps = cfg.epochs * tx.len().div_ceil(cfg.batch_size);
        assert!(steps >= 900, "only {steps} Adam steps");
        let f1_bits = |r: &TrainReport| -> Vec<u64> {
            r.val_f1_per_epoch.iter().map(|f| f.to_bits()).collect()
        };
        for (vx, vy) in [(&vx[..], &vy[..]), (&[], &[])] {
            let (mut new, mut old) = (new(), old());
            let report = new.train(&tx, &ty, vx, vy, &cfg, 9).unwrap();
            let want = old.train(&tx, &ty, vx, vy, &cfg, 9);
            assert_eq!(f1_bits(&report), f1_bits(&want), "per-epoch validation F1");
            assert_eq!(report.best_epoch, want.best_epoch);
            for (a, b) in new.snapshot().iter().zip(old.snapshot()) {
                assert_eq!(bits(a), bits(&b), "parameters");
            }
            for x in vx.iter().chain(&tx) {
                assert_eq!(new.logit(x).to_bits(), old.logit(x).to_bits(), "logit");
            }
            if vx.is_empty() {
                assert!(
                    old.stuck_moments() > 0,
                    "dim {dim}: no moment went subnormal"
                );
                assert!(old.zero_gradients > 0, "dim {dim}: no saturated example");
            }
        }
    }

    #[test]
    fn roster_shapes_train_bit_identically() {
        // DITTO, EMTransformer and GNEM's local net; GNEM's global net;
        // HierMatcher at arity 3; DeepMatcher's highway net at arity 3.
        train_twin(
            || Mlp::new(265, &[64], 1),
            || RefMlp::new(265, &[64], 1),
            265,
        );
        train_twin(|| Mlp::new(4, &[8], 2), || RefMlp::new(4, &[8], 2), 4);
        train_twin(|| Mlp::new(14, &[24], 3), || RefMlp::new(14, &[24], 3), 14);
        train_twin(
            || Mlp::highway_net(12, 24, 4),
            || RefMlp::highway_net(12, 24, 4),
            12,
        );
    }
}
