//! Layers: dense (affine + activation) and highway, with Adam state.
//!
//! Weight matrices are stored input-major so a forward pass updates all
//! outputs as independent vector lanes; every result is bit-identical to
//! the row-major dot-product formulation (DESIGN.md §14).

use rlb_util::Prng;

/// Elementwise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity (used for the output logit).
    Linear,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    #[inline]
    fn apply(&self, z: f32) -> f32 {
        match self {
            Activation::Linear => z,
            Activation::Relu => z.max(0.0),
            Activation::Tanh => z.tanh(),
            Activation::Sigmoid => sigmoid(z),
        }
    }

    /// Derivative expressed in terms of the activation *output* `a`.
    #[inline]
    fn derivative(&self, a: f32) -> f32 {
        match self {
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
}

/// Logistic sigmoid.
#[inline]
pub fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

/// Adam's first-moment decay.
const B1: f32 = 0.9;
/// Adam's second-moment decay.
const B2: f32 = 0.999;
/// Adam's denominator guard.
const EPS: f32 = 1e-8;
/// [`B1`] as an integer over 2²⁴: `0.9f32 = 15099494 · 2⁻²⁴`.
const B1_MANTISSA: u64 = 15_099_494;
/// Parameters per Adam block: each block is checked for stuck first moments
/// with one integer test and otherwise takes the plain, vectorized update.
const ADAM_BLOCK: usize = 16;
const SIGN: u32 = 0x8000_0000;

/// Whether `x` is subnormal (zero exponent, non-zero mantissa), by its bits.
#[inline]
fn is_subnormal(x: f32) -> bool {
    (x.to_bits() & !SIGN).wrapping_sub(1) < 0x007F_FFFF
}

/// `fl(B1 · m)` for a subnormal `m`, by integer rounding of the mantissa
/// (ties to even), with a zero result returned as `+0.0` — exactly what
/// `B1 * m + (1.0 - B1) * 0.0` gives. The product of a subnormal stays
/// subnormal, so no bit of the exponent changes.
fn decay_subnormal(m: f32) -> f32 {
    let bits = m.to_bits();
    let p = u64::from(bits & 0x007F_FFFF) * B1_MANTISSA;
    let (q, r) = (p >> 24, p & 0x00FF_FFFF);
    let k = q + u64::from(r > 1 << 23 || (r == 1 << 23 && q & 1 == 1));
    if k == 0 {
        0.0
    } else {
        f32::from_bits((bits & SIGN) | k as u32)
    }
}

/// One Adam update's constants.
#[derive(Debug, Clone, Copy)]
struct Adam {
    lr: f32,
    bc1: f32,
    bc2: f32,
}

impl Adam {
    #[inline(always)]
    fn update(self, value: &mut f32, grad: &mut f32, m: &mut f32, v: &mut f32) {
        let g = *grad;
        *m = B1 * *m + (1.0 - B1) * g;
        *v = B2 * *v + (1.0 - B2) * g * g;
        let mhat = *m / self.bc1;
        let vhat = *v / self.bc2;
        *value -= self.lr * mhat / (vhat.sqrt() + EPS);
        *grad = 0.0;
    }

    /// [`Adam::update`] for a block holding a subnormal first moment, with
    /// the same result in every bit. A weight whose gradient stays `+0.0`
    /// (a dead ReLU unit, an all-zero feature) decays its moment into the
    /// subnormals, where it sticks at a few ulps (`fl(0.9 · k ulp) = k ulp`
    /// for `k ≤ 4`), and every `f32` operation on it takes a microcode
    /// assist. When `bc1 == 1`, `g == +0.0` and `lr · m′` rounds to zero,
    /// the moment decays by integer arithmetic and the weight step is a zero
    /// carrying that product's sign; everything else runs the `f32` update.
    #[cold]
    #[inline(never)]
    fn update_stuck(self, value: &mut [f32], grad: &mut [f32], m: &mut [f32], v: &mut [f32]) {
        let lanes = value.iter_mut().zip(grad).zip(m).zip(v);
        for (((value, grad), m), v) in lanes {
            if grad.to_bits() == 0 && is_subnormal(*m) {
                let m1 = decay_subnormal(*m);
                // `lr · m′` is `lr · k′` units of 2⁻¹⁴⁹, exact in f64; at
                // most half a unit rounds to a zero.
                if f64::from(self.lr.abs()) * f64::from(m1.to_bits() & !SIGN) <= 0.5 {
                    let g = *grad;
                    *v = B2 * *v + (1.0 - B2) * g * g;
                    let vhat = *v / self.bc2;
                    let step = f32::from_bits((self.lr.to_bits() ^ m1.to_bits()) & SIGN);
                    *value -= step / (vhat.sqrt() + EPS);
                    *m = m1;
                    *grad = 0.0;
                    continue;
                }
            }
            self.update_alone(value, grad, m, v);
        }
    }

    /// [`Adam::update`] behind a call. [`Adam::update_stuck`] must branch
    /// per parameter: without the call the compiler if-converts its loop
    /// into vector code that runs both arms, and with them the `f32` ops on
    /// the stuck moments the shortcut exists to avoid.
    #[inline(never)]
    fn update_alone(self, value: &mut f32, grad: &mut f32, m: &mut f32, v: &mut f32) {
        self.update(value, grad, m, v);
    }

    /// One block of parameters: [`Adam::update_stuck`] when a first moment
    /// is subnormal (an integer test of its bits), the plain update
    /// otherwise.
    #[inline(always)]
    fn block(self, value: &mut [f32], grad: &mut [f32], m: &mut [f32], v: &mut [f32]) {
        if self.bc1 == 1.0 && m.iter().fold(false, |any, &x| any | is_subnormal(x)) {
            self.update_stuck(value, grad, m, v);
        } else {
            for (((value, grad), m), v) in value.iter_mut().zip(grad).zip(m).zip(v) {
                self.update(value, grad, m, v);
            }
        }
    }
}

/// A parameter matrix/vector with its gradient accumulator and Adam moments.
#[derive(Debug, Clone)]
struct Param {
    value: Vec<f32>,
    grad: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Param {
    fn new(len: usize) -> Self {
        Param {
            value: vec![0.0; len],
            grad: vec![0.0; len],
            m: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// Xavier-uniform `fan_out × fan_in` matrix stored input-major
    /// (`value[i · fan_out + o]`). Values are drawn in row-major order, so
    /// a seed gives the same matrix as a row-major layer would.
    fn init_xavier(&mut self, fan_in: usize, fan_out: usize, rng: &mut Prng) {
        let scale = (6.0 / (fan_in + fan_out) as f64).sqrt();
        for o in 0..fan_out {
            for i in 0..fan_in {
                self.value[i * fan_out + o] = rng.uniform(-scale, scale) as f32;
            }
        }
    }

    fn adam_step(&mut self, lr: f32, t: u64) {
        let adam = Adam {
            lr,
            bc1: 1.0 - B1.powi(t as i32),
            bc2: 1.0 - B2.powi(t as i32),
        };
        // Fixed-size blocks compile to whole vectors with no remainder loop.
        let (value, value_tail) = self.value.as_chunks_mut::<ADAM_BLOCK>();
        let (grad, grad_tail) = self.grad.as_chunks_mut::<ADAM_BLOCK>();
        let (m, m_tail) = self.m.as_chunks_mut::<ADAM_BLOCK>();
        let (v, v_tail) = self.v.as_chunks_mut::<ADAM_BLOCK>();
        for (((value, grad), m), v) in value.iter_mut().zip(grad).zip(m).zip(v) {
            adam.block(value, grad, m, v);
        }
        adam.block(value_tail, grad_tail, m_tail, v_tail);
    }
}

/// `z[o] = Σᵢ w[i · out + o] · x[i] + b[o]` for every output `o` at once,
/// `w` input-major.
///
/// Each output starts at `−0.0` and adds its products for ascending `i`,
/// then its bias: the exact operation sequence of
/// `dot_f32(row_o, x) + b[o]`, since a float `Sum` folds from `−0.0`. The
/// outputs are independent lanes, so the loop vectorizes without changing
/// a bit.
fn affine(w: &[f32], x: &[f32], b: &[f32], z: &mut Vec<f32>) {
    debug_assert_eq!(w.len(), x.len() * b.len());
    z.clear();
    z.resize(b.len(), -0.0);
    for (col, &xi) in w.chunks_exact(b.len()).zip(x) {
        for (zo, &wo) in z.iter_mut().zip(col) {
            *zo += wo * xi;
        }
    }
    for (zo, &bo) in z.iter_mut().zip(b) {
        *zo += bo;
    }
}

/// `g[i · out + o] += dz[o] · x[i]` — one gradient term per weight, so the
/// loop order cannot change a sum.
fn accumulate_outer(g: &mut [f32], dz: &[f32], x: &[f32]) {
    for (col, &xi) in g.chunks_exact_mut(dz.len()).zip(x) {
        for (go, &dzo) in col.iter_mut().zip(dz) {
            *go += dzo * xi;
        }
    }
}

/// Common layer interface: forward caches what backward needs; backward
/// accumulates parameter gradients and, when asked, the input gradient;
/// `step` applies one Adam update. Both passes write into buffers the layer
/// owns and reuses.
///
/// `Send` is a supertrait so models holding boxed layers can move across
/// threads (the roster sweep trains matchers in parallel). Layers are plain
/// weight/gradient buffers, so this costs implementors nothing.
pub trait Layer: Send {
    /// Input dimensionality.
    fn input_dim(&self) -> usize;
    /// Output dimensionality.
    fn output_dim(&self) -> usize;
    /// Forward pass for a single example; returns the layer's output.
    fn forward(&mut self, x: &[f32]) -> &[f32];
    /// Backward pass for the last forward: `dy` is dL/d(output). Returns
    /// dL/d(input) when `input_grad` is set, an empty slice otherwise.
    fn backward(&mut self, dy: &[f32], input_grad: bool) -> &[f32];
    /// Applies accumulated gradients with Adam.
    fn step(&mut self, lr: f32, t: u64);
    /// All parameters flattened into one vector, in the layer's storage
    /// order (snapshot for validation-based model selection).
    fn params_flat(&self) -> Vec<f32>;
    /// Restores parameters from a [`Layer::params_flat`] snapshot.
    fn set_params_flat(&mut self, flat: &[f32]);
}

/// Fully connected layer with activation.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    w: Param, // input-major: w[i · out + o]
    b: Param,
    act: Activation,
    in_dim: usize,
    out_dim: usize,
    // Buffers of the last forward/backward call.
    last_x: Vec<f32>,
    last_a: Vec<f32>,
    dz: Vec<f32>,
    dx: Vec<f32>,
}

impl DenseLayer {
    /// Xavier-initialized dense layer.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut Prng) -> Self {
        assert!(in_dim > 0 && out_dim > 0);
        let mut w = Param::new(in_dim * out_dim);
        w.init_xavier(in_dim, out_dim, rng);
        DenseLayer {
            w,
            b: Param::new(out_dim),
            act,
            in_dim,
            out_dim,
            last_x: Vec::new(),
            last_a: Vec::new(),
            dz: Vec::new(),
            dx: Vec::new(),
        }
    }
}

impl Layer for DenseLayer {
    fn input_dim(&self) -> usize {
        self.in_dim
    }

    fn output_dim(&self) -> usize {
        self.out_dim
    }

    fn forward(&mut self, x: &[f32]) -> &[f32] {
        debug_assert_eq!(x.len(), self.in_dim);
        self.last_x.clear();
        self.last_x.extend_from_slice(x);
        affine(&self.w.value, x, &self.b.value, &mut self.last_a);
        for a in self.last_a.iter_mut() {
            *a = self.act.apply(*a);
        }
        &self.last_a
    }

    fn backward(&mut self, dy: &[f32], input_grad: bool) -> &[f32] {
        debug_assert_eq!(dy.len(), self.out_dim);
        self.dz.clear();
        for ((&dy_o, &a), bg) in dy.iter().zip(&self.last_a).zip(&mut self.b.grad) {
            let dz = dy_o * self.act.derivative(a);
            *bg += dz;
            self.dz.push(dz);
        }
        accumulate_outer(&mut self.w.grad, &self.dz, &self.last_x);
        self.dx.clear();
        if input_grad {
            // dx[i] sums over ascending o from +0.0.
            for col in self.w.value.chunks_exact(self.out_dim) {
                let mut d = 0.0f32;
                for (&dz, &w) in self.dz.iter().zip(col) {
                    d += dz * w;
                }
                self.dx.push(d);
            }
        }
        &self.dx
    }

    fn step(&mut self, lr: f32, t: u64) {
        self.w.adam_step(lr, t);
        self.b.adam_step(lr, t);
    }

    fn params_flat(&self) -> Vec<f32> {
        let mut v = self.w.value.clone();
        v.extend_from_slice(&self.b.value);
        v
    }

    fn set_params_flat(&mut self, flat: &[f32]) {
        let nw = self.w.value.len();
        assert_eq!(
            flat.len(),
            nw + self.b.value.len(),
            "snapshot size mismatch"
        );
        self.w.value.copy_from_slice(&flat[..nw]);
        self.b.value.copy_from_slice(&flat[nw..]);
    }
}

/// Highway layer: `y = t ⊙ h(x) + (1 - t) ⊙ x`, where
/// `t = σ(W_t x + b_t)` (transform gate) and `h = relu(W_h x + b_h)`.
/// Input and output dimensionality are equal by construction.
#[derive(Debug, Clone)]
pub struct HighwayLayer {
    wh: Param, // input-major, as DenseLayer's
    bh: Param,
    wt: Param, // input-major
    bt: Param,
    dim: usize,
    // Buffers of the last forward/backward call.
    last_x: Vec<f32>,
    last_h: Vec<f32>,
    last_t: Vec<f32>,
    y: Vec<f32>,
    dzh: Vec<f32>,
    dzt: Vec<f32>,
    dx: Vec<f32>,
}

impl HighwayLayer {
    /// Highway layer of width `dim`. The transform-gate bias starts at -1 so
    /// the layer initially passes its input through (standard practice).
    pub fn new(dim: usize, rng: &mut Prng) -> Self {
        assert!(dim > 0);
        let mut wh = Param::new(dim * dim);
        wh.init_xavier(dim, dim, rng);
        let mut wt = Param::new(dim * dim);
        wt.init_xavier(dim, dim, rng);
        let mut bt = Param::new(dim);
        for b in bt.value.iter_mut() {
            *b = -1.0;
        }
        HighwayLayer {
            wh,
            bh: Param::new(dim),
            wt,
            bt,
            dim,
            last_x: Vec::new(),
            last_h: Vec::new(),
            last_t: Vec::new(),
            y: Vec::new(),
            dzh: Vec::new(),
            dzt: Vec::new(),
            dx: Vec::new(),
        }
    }
}

impl Layer for HighwayLayer {
    fn input_dim(&self) -> usize {
        self.dim
    }

    fn output_dim(&self) -> usize {
        self.dim
    }

    fn forward(&mut self, x: &[f32]) -> &[f32] {
        debug_assert_eq!(x.len(), self.dim);
        self.last_x.clear();
        self.last_x.extend_from_slice(x);
        affine(&self.wh.value, x, &self.bh.value, &mut self.last_h);
        affine(&self.wt.value, x, &self.bt.value, &mut self.last_t);
        for (h, t) in self.last_h.iter_mut().zip(self.last_t.iter_mut()) {
            *h = h.max(0.0);
            *t = sigmoid(*t);
        }
        self.y.clear();
        for ((&t, &h), &xo) in self.last_t.iter().zip(&self.last_h).zip(x) {
            self.y.push(t * h + (1.0 - t) * xo);
        }
        &self.y
    }

    fn backward(&mut self, dy: &[f32], input_grad: bool) -> &[f32] {
        debug_assert_eq!(dy.len(), self.dim);
        self.dzh.clear();
        self.dzt.clear();
        for (o, &dy_o) in dy.iter().enumerate() {
            let (t, h) = (self.last_t[o], self.last_h[o]);
            // h path.
            let dh = dy_o * t;
            let dzh = if h > 0.0 { dh } else { 0.0 };
            self.bh.grad[o] += dzh;
            self.dzh.push(dzh);
            // t path: d y_o / d t_o = h_o - x_o.
            let dt = dy_o * (h - self.last_x[o]);
            let dzt = dt * t * (1.0 - t);
            self.bt.grad[o] += dzt;
            self.dzt.push(dzt);
        }
        accumulate_outer(&mut self.wh.grad, &self.dzh, &self.last_x);
        accumulate_outer(&mut self.wt.grad, &self.dzt, &self.last_x);
        self.dx.clear();
        if input_grad {
            // dx[i] = 0 + carry, then the h and t terms for ascending o.
            let cols = self.wh.value.chunks_exact(self.dim);
            let cols = cols.zip(self.wt.value.chunks_exact(self.dim));
            for (i, (col_h, col_t)) in cols.enumerate() {
                let mut d = 0.0f32;
                d += dy[i] * (1.0 - self.last_t[i]);
                let h_terms = self.dzh.iter().zip(col_h);
                for ((&dzh, &wh), (&dzt, &wt)) in h_terms.zip(self.dzt.iter().zip(col_t)) {
                    d += dzh * wh;
                    d += dzt * wt;
                }
                self.dx.push(d);
            }
        }
        &self.dx
    }

    fn step(&mut self, lr: f32, t: u64) {
        self.wh.adam_step(lr, t);
        self.bh.adam_step(lr, t);
        self.wt.adam_step(lr, t);
        self.bt.adam_step(lr, t);
    }

    fn params_flat(&self) -> Vec<f32> {
        let mut v = self.wh.value.clone();
        v.extend_from_slice(&self.bh.value);
        v.extend_from_slice(&self.wt.value);
        v.extend_from_slice(&self.bt.value);
        v
    }

    fn set_params_flat(&mut self, flat: &[f32]) {
        let (nw, nb) = (self.wh.value.len(), self.bh.value.len());
        assert_eq!(flat.len(), 2 * nw + 2 * nb, "snapshot size mismatch");
        self.wh.value.copy_from_slice(&flat[..nw]);
        self.bh.value.copy_from_slice(&flat[nw..nw + nb]);
        self.wt.value.copy_from_slice(&flat[nw + nb..2 * nw + nb]);
        self.bt.value.copy_from_slice(&flat[2 * nw + nb..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical gradient check for a layer's input gradient and one weight.
    fn grad_check<L: Layer>(layer: &mut L, x: &[f32]) {
        let y = layer.forward(x).to_vec();
        // dL = sum(y) -> dy = ones.
        let dy = vec![1.0f32; y.len()];
        let dx = layer.backward(&dy, true).to_vec();
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.to_vec();
            xp[i] += eps;
            let yp: f32 = layer.forward(&xp).iter().sum();
            let mut xm = x.to_vec();
            xm[i] -= eps;
            let ym: f32 = layer.forward(&xm).iter().sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (num - dx[i]).abs() < 1e-2,
                "input grad mismatch at {i}: numeric {num} vs analytic {}",
                dx[i]
            );
        }
    }

    #[test]
    fn dense_forward_shape_and_determinism() {
        let mut rng = Prng::seed_from_u64(1);
        let mut l = DenseLayer::new(3, 5, Activation::Relu, &mut rng);
        let y1 = l.forward(&[0.1, -0.2, 0.3]).to_vec();
        let y2 = l.forward(&[0.1, -0.2, 0.3]).to_vec();
        assert_eq!(y1.len(), 5);
        assert_eq!(y1, y2);
    }

    #[test]
    fn dense_gradcheck_all_activations() {
        for act in [Activation::Linear, Activation::Tanh, Activation::Sigmoid] {
            let mut rng = Prng::seed_from_u64(2);
            let mut l = DenseLayer::new(4, 3, act, &mut rng);
            grad_check(&mut l, &[0.3, -0.5, 0.8, 0.2]);
        }
    }

    #[test]
    fn relu_gradcheck_away_from_kink() {
        let mut rng = Prng::seed_from_u64(3);
        let mut l = DenseLayer::new(2, 2, Activation::Relu, &mut rng);
        // Pick an input whose pre-activations are comfortably non-zero.
        grad_check(&mut l, &[0.9, 0.7]);
    }

    #[test]
    fn highway_gradcheck() {
        let mut rng = Prng::seed_from_u64(4);
        let mut l = HighwayLayer::new(3, &mut rng);
        grad_check(&mut l, &[0.4, -0.3, 0.6]);
    }

    #[test]
    fn highway_initially_passes_input_through() {
        let mut rng = Prng::seed_from_u64(5);
        let mut l = HighwayLayer::new(4, &mut rng);
        let x = [0.5f32, -0.5, 0.25, 0.0];
        let y = l.forward(&x).to_vec();
        // With bt = -1 the gate is ~0.27, so output stays close to input.
        for (xi, yi) in x.iter().zip(&y) {
            assert!((xi - yi).abs() < 0.6, "{xi} vs {yi}");
        }
    }

    #[test]
    fn adam_step_reduces_simple_loss() {
        // Fit y = 2x with a single linear unit.
        let mut rng = Prng::seed_from_u64(6);
        let mut l = DenseLayer::new(1, 1, Activation::Linear, &mut rng);
        let mut t = 0;
        for _ in 0..500 {
            t += 1;
            let x = [1.0f32];
            let y = l.forward(&x)[0];
            let target = 2.0;
            // L = (y - target)^2 / 2, dL/dy = y - target.
            l.backward(&[y - target], false);
            l.step(0.05, t);
        }
        let y = l.forward(&[1.0])[0];
        assert!((y - 2.0).abs() < 0.05, "converged to {y}");
    }

    #[test]
    fn affine_starts_where_float_sum_starts() {
        // All products −0.0: a fold from +0.0 would give +0.0 here.
        let (w, x, b) = ([-0.0f32, -0.0], [1.0f32, 1.0], [-0.0f32]);
        let mut z = Vec::new();
        affine(&w, &x, &b, &mut z);
        let want = rlb_util::linalg::dot_f32(&w, &x) + b[0];
        assert_eq!(z[0].to_bits(), want.to_bits());
        assert_eq!(z[0].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn b1_mantissa_is_b1() {
        assert_eq!(B1_MANTISSA as f32 / (1u32 << 24) as f32, B1);
    }

    /// Runs [`Param::adam_step`] and the reference loop on the same state
    /// and compares every buffer bit for bit.
    fn adam_twin(p: &Param, lr: f32, t: u64) {
        use crate::reference::{adam_step, bits};
        let mut new = p.clone();
        new.adam_step(lr, t);
        let mut old = p.clone();
        adam_step(&mut old.value, &mut old.grad, &mut old.m, &mut old.v, lr, t);
        assert_eq!(bits(&new.value), bits(&old.value), "value, lr {lr}, t {t}");
        assert_eq!(bits(&new.m), bits(&old.m), "m, lr {lr}, t {t}");
        assert_eq!(bits(&new.v), bits(&old.v), "v, lr {lr}, t {t}");
        assert_eq!(bits(&new.grad), bits(&old.grad), "grad, lr {lr}, t {t}");
    }

    #[test]
    fn adam_shortcut_matches_reference_on_every_subnormal_moment() {
        // Every subnormal first moment, both signs, with g = +0.0, in
        // batches of 2 · 2¹⁵ parameters. At the deep matchers' lr the
        // shortcut takes moments of up to ~50 ulps; at 1e-30 it takes every
        // one, so the integer decay is checked on all 2²⁴ patterns.
        const HALF: u32 = 1 << 15;
        for start in (1..0x0080_0000u32).step_by(HALF as usize) {
            let m: Vec<f32> = (start..(start + HALF).min(0x0080_0000))
                .flat_map(|k| [f32::from_bits(k), f32::from_bits(k | SIGN)])
                .collect();
            let n = m.len();
            let p = Param {
                value: vec![0.25; n],
                grad: vec![0.0; n],
                m,
                v: vec![3.5e-7; n],
            };
            adam_twin(&p, 1e-2, 1000);
            adam_twin(&p, 1e-30, 1000);
        }
    }

    #[test]
    fn adam_matches_reference_on_sampled_states() {
        let mut rng = Prng::seed_from_u64(7);
        let subnormal = |rng: &mut Prng| {
            let k = rng.index(0x0080_0000) as u32;
            f32::from_bits(k | if rng.chance(0.5) { SIGN } else { 0 })
        };
        for lr in [1e-2f32, 5e-3, 1e-3, 0.3, 2.5, 1e-30, 7e9] {
            for v in [0.0f32, 1e-40, 1e-12, 3.5e-7, 0.02] {
                for value in [-0.0f32, 0.0, 0.25, -1.5, 1e-40] {
                    let n = 512;
                    let mut p = Param::new(n);
                    p.value.fill(value);
                    p.v.fill(v);
                    for j in 0..n {
                        p.m[j] = match j % 4 {
                            0 | 1 => subnormal(&mut rng),
                            2 => rng.uniform(-1e-3, 1e-3) as f32,
                            _ => [0.0, -0.0, 1.2e-38, -1.1754944e-38][j / 4 % 4],
                        };
                        p.grad[j] = match j % 5 {
                            0..=2 => 0.0,
                            3 => rng.uniform(-1.0, 1.0) as f32,
                            _ => [-0.0, 1e-40, 1e-20, 3.0][j / 5 % 4],
                        };
                    }
                    for t in [1, 7, 200, 1000] {
                        adam_twin(&p, lr, t);
                    }
                }
            }
        }
    }

    #[test]
    fn activation_derivatives_match_definition() {
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
        assert_eq!(Activation::Relu.derivative(0.0), 0.0);
        assert_eq!(Activation::Linear.derivative(123.0), 1.0);
        let a = Activation::Sigmoid.apply(0.3);
        assert!((Activation::Sigmoid.derivative(a) - a * (1.0 - a)).abs() < 1e-7);
    }
}
