//! Classification-complexity measures (Table I of the paper).
//!
//! A from-scratch Rust port of the 17 measures the paper takes from the
//! `problexity` Python package (Komorniczak & Ksieniewicz 2022), which in
//! turn implements the catalogue of Lorena et al., *"How complex is your
//! classification problem?"*, adapted to imbalanced tasks per Barella et
//! al. Five groups:
//!
//! | group | measures |
//! |---|---|
//! | feature-based | `f1`, `f1v`, `f2`, `f3` |
//! | linearity | `l1`, `l2` |
//! | neighborhood | `n1`, `n2`, `n3`, `n4`, `t1`, `lsc` |
//! | network | `den`, `cls`, `hub` |
//! | class balance | `c1`, `c2` |
//!
//! All yield values in `[0, 1]` with **higher = more complex**. Following
//! Section III-B, each candidate pair is represented by the two-dimensional
//! feature vector `[CS, JS]` (the paper drops the dimensionality measures
//! `t2`–`t4` and the near-duplicate measures `f4`, `l3` for exactly this
//! representation; so do we). The neighborhood and network groups operate on
//! the Gower distance, matching the reference implementation.

mod balance;
mod feature;
mod linearity;
mod neighborhood;
mod network;

use rlb_textsim::gower::DistanceEngine;
use rlb_util::{Error, Prng, Result};

/// Configuration for the complexity computation.
#[derive(Debug, Clone, Copy)]
pub struct ComplexityConfig {
    /// Gower-distance threshold for the network measures' ε-NN graph
    /// (problexity's default).
    pub epsilon: f64,
    /// Interpolated test points per original point for `n4`.
    pub n4_ratio: f64,
    /// Subsample cap for the O(n²)-time measures; larger datasets are
    /// sampled down deterministically (class-stratified). The streaming
    /// [`DistanceEngine`] keeps distance memory at O(threads × n), so the
    /// default admits full benchmark-sized candidate sets rather than the
    /// old 1500-point cap the materialized matrix forced.
    pub max_points: usize,
    /// Seed for `n4` interpolation and subsampling.
    pub seed: u64,
    /// Estimator mode for the O(n²) distance-based groups (neighborhood +
    /// network): when `Some(m)` and the working set is larger than `m`,
    /// those groups run on a further class-stratified subsample of `m`
    /// points instead of the full set. The cheap distance-free groups
    /// (balance, feature, linearity) always use the full working set. The
    /// declared error bound for the sampled measures is
    /// [`estimator_bound`]`(m)`; sample size and bound are reported through
    /// the `complexity.estimator.*` counters. `None` (the default) keeps
    /// every group exact.
    pub estimator_sample: Option<usize>,
}

impl Default for ComplexityConfig {
    fn default() -> Self {
        ComplexityConfig {
            epsilon: 0.15,
            n4_ratio: 1.0,
            max_points: 20_000,
            seed: 0xC0_11EC7,
            estimator_sample: None,
        }
    }
}

impl ComplexityConfig {
    /// Defaults overridden by the `RLB_COMPLEXITY_*` environment knobs:
    ///
    /// - `RLB_COMPLEXITY_SAMPLE=m` — enable estimator mode with an
    ///   `m`-point landmark sample for the distance-based groups;
    /// - `RLB_COMPLEXITY_MAX_POINTS=n` — override the working-set cap.
    ///
    /// Unset, empty, or unparsable values leave the default untouched, so
    /// the service's assess path can call this unconditionally.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Some(m) = env_usize("RLB_COMPLEXITY_SAMPLE") {
            cfg.estimator_sample = Some(m);
        }
        if let Some(n) = env_usize("RLB_COMPLEXITY_MAX_POINTS") {
            cfg.max_points = n;
        }
        cfg
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&v| v > 0)
}

/// Declared error bound for estimator mode with an `m`-point sample:
/// `sqrt(ln(200) / m)`.
///
/// Rationale: the sampled measures are (mostly) means of per-point
/// statistics bounded in `[0, 1]`, for which Hoeffding gives a two-sided
/// 99% confidence half-width of `sqrt(ln(2/δ) / (2m))` with `δ = 0.01` —
/// i.e. `sqrt(ln(200) / (2m))`. The declared bound drops the factor 2 in
/// the denominator (inflating the band by √2) as a deliberate allowance
/// for the measures that are *not* plain per-point means (`cls`, `hub`,
/// `f1`), whose sampling error has no closed form. The benchmark suite
/// checks the estimator-vs-exact gap against this bound end to end.
pub fn estimator_bound(m: usize) -> f64 {
    (200.0_f64.ln() / m as f64).sqrt()
}

/// All 17 measure values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplexityReport {
    /// Maximum Fisher's discriminant ratio.
    pub f1: f64,
    /// Directional-vector maximum Fisher's discriminant ratio.
    pub f1v: f64,
    /// Volume of the overlapping region.
    pub f2: f64,
    /// Maximum individual feature efficiency.
    pub f3: f64,
    /// Sum of the error distance by linear programming (SVM surrogate).
    pub l1: f64,
    /// Error rate of a linear SVM classifier.
    pub l2: f64,
    /// Fraction of borderline points (MST).
    pub n1: f64,
    /// Ratio of intra/extra class nearest-neighbour distance.
    pub n2: f64,
    /// Error rate of the 1-NN classifier (leave-one-out).
    pub n3: f64,
    /// Non-linearity of the 1-NN classifier.
    pub n4: f64,
    /// Fraction of hyperspheres covering the data.
    pub t1: f64,
    /// Local-set average cardinality.
    pub lsc: f64,
    /// Average density of the class network.
    pub den: f64,
    /// Clustering coefficient.
    pub cls: f64,
    /// Hub score.
    pub hub: f64,
    /// Entropy of class proportions.
    pub c1: f64,
    /// Imbalance ratio.
    pub c2: f64,
}

rlb_util::impl_json!(ComplexityReport {
    f1,
    f1v,
    f2,
    f3,
    l1,
    l2,
    n1,
    n2,
    n3,
    n4,
    t1,
    lsc,
    den,
    cls,
    hub,
    c1,
    c2,
});

impl ComplexityReport {
    /// `(name, value)` pairs in Table-I order.
    pub fn values(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("f1", self.f1),
            ("f1v", self.f1v),
            ("f2", self.f2),
            ("f3", self.f3),
            ("l1", self.l1),
            ("l2", self.l2),
            ("n1", self.n1),
            ("n2", self.n2),
            ("n3", self.n3),
            ("n4", self.n4),
            ("t1", self.t1),
            ("lsc", self.lsc),
            ("den", self.den),
            ("cls", self.cls),
            ("hub", self.hub),
            ("c1", self.c1),
            ("c2", self.c2),
        ]
    }

    /// Mean of all 17 measures — the score the paper compares against the
    /// 0.400 "easy task" threshold.
    pub fn mean(&self) -> f64 {
        let vs = self.values();
        vs.iter().map(|(_, v)| v).sum::<f64>() / vs.len() as f64
    }
}

/// Validates the input contract of [`compute`] (and of the tests' ragged
/// reference): at least 4 points, matching label length, a rectangular
/// non-empty feature matrix, and both classes present.
fn validate<R: AsRef<[f64]>>(features: &[R], labels: &[bool]) -> Result<usize> {
    if features.len() < 4 {
        return Err(Error::EmptyInput("complexity needs at least 4 points"));
    }
    if features.len() != labels.len() {
        return Err(Error::LengthMismatch {
            expected: features.len(),
            actual: labels.len(),
            what: "labels",
        });
    }
    let dim = features[0].as_ref().len();
    if dim == 0 || features.iter().any(|f| f.as_ref().len() != dim) {
        return Err(Error::InvalidParameter(
            "ragged or empty feature matrix".into(),
        ));
    }
    if labels.iter().all(|&l| l) || labels.iter().all(|&l| !l) {
        return Err(Error::InvalidParameter(
            "both classes must be present".into(),
        ));
    }
    Ok(dim)
}

/// The distance-free measure groups [`compute`] shares with the tests'
/// ragged reference: class balance on the *full* label set, then feature
/// and linearity measures on the subsample.
#[allow(clippy::type_complexity)]
fn shared_measures<R: AsRef<[f64]> + Clone>(
    features: &[R],
    labels: &[bool],
    cfg: &ComplexityConfig,
) -> (Vec<R>, Vec<bool>, [f64; 2], [f64; 4], [f64; 2]) {
    let (c1, c2) = balance::class_balance(labels);
    let (xs, ys) = stratified_subsample(features, labels, cfg.max_points, cfg.seed);
    let (f1, f1v, f2, f3) = {
        let _span = rlb_obs::span!("complexity.features");
        feature::feature_measures(&xs, &ys)
    };
    let (l1, l2) = {
        let _span = rlb_obs::span!("complexity.linearity");
        linearity::linearity_measures(&xs, &ys, cfg.seed)
    };
    (xs, ys, [c1, c2], [f1, f1v, f2, f3], [l1, l2])
}

fn assemble(
    [c1, c2]: [f64; 2],
    [f1, f1v, f2, f3]: [f64; 4],
    [l1, l2]: [f64; 2],
    nb: neighborhood::NeighborhoodMeasures,
    (den, cls, hub): (f64, f64, f64),
) -> ComplexityReport {
    ComplexityReport {
        f1,
        f1v,
        f2,
        f3,
        l1,
        l2,
        n1: nb.n1,
        n2: nb.n2,
        n3: nb.n3,
        n4: nb.n4,
        t1: nb.t1,
        lsc: nb.lsc,
        den,
        cls,
        hub,
        c1,
        c2,
    }
}

/// Computes all 17 measures over dense features and boolean labels.
///
/// Requires at least 4 points and both classes present. Accepts any dense
/// row type (`Vec<f64>`, `[f64; 2]`, …). Distance-based measure groups
/// stream Gower rows out of a [`DistanceEngine`] tile by tile, so peak
/// distance memory is O(threads × n) instead of the O(n²) a materialized
/// matrix costs. The tests check every measure bit for bit against a
/// reference over the materialized matrix.
pub fn compute<R: AsRef<[f64]> + Sync + Clone>(
    features: &[R],
    labels: &[bool],
    cfg: &ComplexityConfig,
) -> Result<ComplexityReport> {
    let dim = validate(features, labels)?;
    let _span = rlb_obs::span!("complexity.compute", "{} points, dim {dim}", features.len());
    rlb_obs::counter_add("complexity.points", features.len() as u64);

    let (xs, ys, c, f, l) = shared_measures(features, labels, cfg);
    let (xs, ys) = estimator_take(xs, ys, cfg);
    let engine = DistanceEngine::fit(&xs).expect("non-empty");
    let mut rng = Prng::seed_from_u64(cfg.seed ^ 0x4E4);
    let nb = neighborhood::neighborhood_measures(&ys, &engine, cfg.n4_ratio, &mut rng);
    let net = network::network_measures(&ys, &engine, cfg.epsilon);

    Ok(assemble(c, f, l, nb, net))
}

/// The materialized O(n²)-memory reference for [`compute`]: builds the full
/// ragged Gower distance matrix up front and hands it to the `*_ragged`
/// measure implementations, which the streaming kernels must match bit for
/// bit.
#[cfg(test)]
fn compute_ragged<R: AsRef<[f64]> + Sync + Clone>(
    features: &[R],
    labels: &[bool],
    cfg: &ComplexityConfig,
) -> Result<ComplexityReport> {
    let dim = validate(features, labels)?;
    let _span = rlb_obs::span!(
        "complexity.compute_ragged",
        "{} points, dim {dim}",
        features.len()
    );
    rlb_obs::counter_add("complexity.points", features.len() as u64);

    let (xs, ys, c, f, l) = shared_measures(features, labels, cfg);
    let (xs, ys) = estimator_take(xs, ys, cfg);

    let gower = rlb_textsim::gower::GowerSpace::fit(&xs).expect("non-empty");
    let dists = testdata::pairwise(&gower, &xs);
    let mut rng = Prng::seed_from_u64(cfg.seed ^ 0x4E4);
    let nb = neighborhood::neighborhood_measures_ragged(
        &xs,
        &ys,
        &dists,
        &gower,
        cfg.n4_ratio,
        &mut rng,
    );
    let net = network::network_measures_ragged(&ys, &dists, cfg.epsilon);

    Ok(assemble(c, f, l, nb, net))
}

/// [`compute`] over the canonical `[CS, JS]` pair representation of Section
/// III-B — the dense `[f64; 2]` rows the interned feature pipeline emits.
/// A direct delegation: the dense rows feed the [`DistanceEngine`] as-is,
/// with no intermediate `Vec<Vec<f64>>` materialization and no copying.
/// Identical output to [`compute`] on the same values.
pub fn compute_cs_js(
    features: &[[f64; 2]],
    labels: &[bool],
    cfg: &ComplexityConfig,
) -> Result<ComplexityReport> {
    compute(features, labels, cfg)
}

/// Applies estimator mode to the distance-based groups' working set: a
/// class-stratified landmark subsample of `cfg.estimator_sample` points,
/// drawn with a seed derived from `cfg.seed` so the run is deterministic
/// and — because this happens in shared code on the identical working set —
/// the streaming kernels and the tests' ragged reference still agree bit for
/// bit. Records the sample size and declared bound ([`estimator_bound`])
/// through `rlb-obs` counters (`complexity.estimator.sample`,
/// `complexity.estimator.bound_ppm`).
/// A no-op when estimator mode is off or the working set already fits.
fn estimator_take<R: Clone>(
    xs: Vec<R>,
    ys: Vec<bool>,
    cfg: &ComplexityConfig,
) -> (Vec<R>, Vec<bool>) {
    let Some(m) = cfg.estimator_sample else {
        return (xs, ys);
    };
    if xs.len() <= m {
        return (xs, ys);
    }
    let bound = estimator_bound(m);
    let _span = rlb_obs::span!(
        "complexity.estimator",
        "{m} landmarks of {}, bound {bound:.4}",
        xs.len()
    );
    rlb_obs::counter_add("complexity.estimator.sample", m as u64);
    rlb_obs::counter_add("complexity.estimator.bound_ppm", (bound * 1e6) as u64);
    stratified_subsample(&xs, &ys, m, cfg.seed ^ 0xE57)
}

/// Deterministic class-stratified subsample preserving class proportions.
///
/// Every non-empty class is guaranteed at least one pick, even under
/// extreme imbalance where its proportional share rounds to zero; the
/// remainder is re-balanced so the cap is still honored exactly.
fn stratified_subsample<R: Clone>(
    features: &[R],
    labels: &[bool],
    cap: usize,
    seed: u64,
) -> (Vec<R>, Vec<bool>) {
    let n = features.len();
    if n <= cap {
        return (features.to_vec(), labels.to_vec());
    }
    let mut rng = Prng::seed_from_u64(seed);
    let pos_idx: Vec<usize> = (0..n).filter(|&i| labels[i]).collect();
    let neg_idx: Vec<usize> = (0..n).filter(|&i| !labels[i]).collect();
    // Reserve one slot per non-empty class so neither proportional share
    // can round a minority class out of the sample entirely.
    let min_pos = usize::from(!pos_idx.is_empty());
    let min_neg = usize::from(!neg_idx.is_empty());
    let cap = cap.max(min_pos + min_neg);
    let ideal = ((pos_idx.len() as f64 / n as f64) * cap as f64).round() as usize;
    let pos_take = ideal.clamp(min_pos, pos_idx.len().min(cap - min_neg));
    let neg_take = (cap - pos_take).min(neg_idx.len());
    // Hand any slots the negatives could not fill back to the positives.
    let pos_take = (cap - neg_take).min(pos_idx.len()).max(pos_take);
    let mut take = |idx: &[usize], k: usize| -> Vec<usize> {
        let picks = rng.sample_indices(idx.len(), k);
        picks.into_iter().map(|p| idx[p]).collect()
    };
    let mut chosen = take(&pos_idx, pos_take);
    chosen.extend(take(&neg_idx, neg_take));
    chosen.sort_unstable();
    let xs = chosen.iter().map(|&i| features[i].clone()).collect();
    let ys = chosen.iter().map(|&i| labels[i]).collect();
    (xs, ys)
}

#[cfg(test)]
pub(crate) mod testdata {
    use rlb_textsim::gower::GowerSpace;
    use rlb_util::Prng;

    /// Full Gower distance matrix, one [`GowerSpace::distance`] per entry
    /// and a zero diagonal: the materialized input of the ragged reference.
    pub fn pairwise<R: AsRef<[f64]>>(space: &GowerSpace, xs: &[R]) -> Vec<Vec<f64>> {
        (0..xs.len())
            .map(|i| {
                (0..xs.len())
                    .map(|j| {
                        if i == j {
                            0.0
                        } else {
                            space.distance(xs[i].as_ref(), xs[j].as_ref())
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Similarity-style 2-D data: positives clustered high, negatives low,
    /// with controllable overlap.
    pub fn separated(
        n: usize,
        overlap: f64,
        pos_frac: f64,
        seed: u64,
    ) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rng = Prng::seed_from_u64(seed);
        let spread = 0.05 + 0.25 * overlap;
        let gap = 0.6 * (1.0 - overlap);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let pos = rng.chance(pos_frac);
            let c = if pos {
                0.5 + gap / 2.0
            } else {
                0.5 - gap / 2.0
            };
            xs.push(vec![
                rng.normal_with(c, spread).clamp(0.0, 1.0),
                rng.normal_with(c, spread).clamp(0.0, 1.0),
            ]);
            ys.push(pos);
        }
        // Ensure both classes exist.
        ys[0] = true;
        ys[1] = false;
        (xs, ys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testdata::separated;

    #[test]
    fn all_measures_in_unit_interval() {
        let (xs, ys) = separated(300, 0.5, 0.3, 1);
        let r = compute(&xs, &ys, &ComplexityConfig::default()).unwrap();
        for (name, v) in r.values() {
            assert!((0.0..=1.0).contains(&v), "{name} = {v}");
            assert!(v.is_finite(), "{name} not finite");
        }
        assert_eq!(r.values().len(), 17);
    }

    #[test]
    fn easy_data_scores_lower_than_hard_data() {
        let (ex, ey) = separated(400, 0.05, 0.3, 2);
        let (hx, hy) = separated(400, 0.95, 0.3, 3);
        let cfg = ComplexityConfig::default();
        let easy = compute(&ex, &ey, &cfg).unwrap();
        let hard = compute(&hx, &hy, &cfg).unwrap();
        assert!(
            easy.mean() + 0.08 < hard.mean(),
            "easy {:.3} should be far below hard {:.3}",
            easy.mean(),
            hard.mean()
        );
        // The most diagnostic individual measures must agree too.
        assert!(easy.n3 < hard.n3);
        assert!(easy.l2 < hard.l2);
        assert!(easy.f1 < hard.f1);
    }

    #[test]
    fn imbalance_raises_class_measures_only() {
        let (bx, by) = separated(400, 0.3, 0.5, 4);
        let (ix, iy) = separated(400, 0.3, 0.05, 5);
        let cfg = ComplexityConfig::default();
        let balanced = compute(&bx, &by, &cfg).unwrap();
        let imbalanced = compute(&ix, &iy, &cfg).unwrap();
        assert!(balanced.c1 < imbalanced.c1);
        assert!(balanced.c2 < imbalanced.c2);
        assert!(balanced.c1 < 0.1, "balanced c1 {}", balanced.c1);
        assert!(imbalanced.c2 > 0.5, "imbalanced c2 {}", imbalanced.c2);
    }

    #[test]
    fn rejects_degenerate_input() {
        let cfg = ComplexityConfig::default();
        assert!(compute::<Vec<f64>>(&[], &[], &cfg).is_err());
        let xs = vec![vec![0.1], vec![0.2], vec![0.3], vec![0.4]];
        assert!(compute(&xs, &[true; 4], &cfg).is_err());
        assert!(compute(&xs, &[true, false], &cfg).is_err());
        assert!(compute_ragged::<Vec<f64>>(&[], &[], &cfg).is_err());
        assert!(compute_ragged(&xs, &[true; 4], &cfg).is_err());
    }

    #[test]
    fn streaming_and_ragged_twins_are_bit_identical() {
        let cfg = ComplexityConfig::default();
        for (overlap, pos_frac, seed) in [(0.1, 0.3, 11), (0.6, 0.5, 12), (0.9, 0.1, 13)] {
            let (xs, ys) = separated(250, overlap, pos_frac, seed);
            let a = compute(&xs, &ys, &cfg).unwrap();
            let b = compute_ragged(&xs, &ys, &cfg).unwrap();
            for ((name, va), (_, vb)) in a.values().iter().zip(b.values()) {
                assert_eq!(va.to_bits(), vb.to_bits(), "{name}: {va} vs {vb}");
            }
        }
    }

    /// Random dense feature matrix with both classes guaranteed present.
    fn random_classification(rng: &mut Prng, n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<bool>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.f64()).collect())
            .collect();
        let mut ys: Vec<bool> = (0..n).map(|_| rng.chance(0.4)).collect();
        ys[0] = true;
        ys[1] = false;
        (xs, ys)
    }

    fn assert_reports_bit_identical(
        xs: &[Vec<f64>],
        ys: &[bool],
        cfg: &ComplexityConfig,
        case: &str,
    ) {
        let streaming = compute(xs, ys, cfg).expect("streaming compute");
        let ragged = compute_ragged(xs, ys, cfg).expect("ragged compute");
        for ((name, s), (_, r)) in streaming.values().iter().zip(ragged.values()) {
            assert_eq!(
                s.to_bits(),
                r.to_bits(),
                "case {case}: {name} diverged ({s} vs {r})"
            );
        }
    }

    #[test]
    fn complexity_streaming_matches_ragged_bitwise() {
        // The streaming DistanceEngine tiling must be invisible: every one of
        // the 17 measures agrees with the materialized-matrix twin bit for bit,
        // across random dimensionalities, sizes, and subsample caps.
        let mut rng = Prng::seed_from_u64(0x51_0E);
        for case in 0..24 {
            let n = rng.range(4, 121);
            let dim = rng.range(1, 5);
            let (xs, ys) = random_classification(&mut rng, n, dim);
            // Half the cases force the stratified subsample path.
            let cap = if rng.chance(0.5) {
                n
            } else {
                rng.range(4, n + 1)
            };
            let cfg = ComplexityConfig {
                max_points: cap,
                seed: rng.next_u64(),
                ..Default::default()
            };
            assert_reports_bit_identical(
                &xs,
                &ys,
                &cfg,
                &format!("{case} (n={n}, dim={dim}, cap={cap})"),
            );
        }
    }

    #[test]
    fn complexity_streaming_matches_ragged_on_degenerate_edges() {
        let cfg = ComplexityConfig::default();

        // Minimal size: exactly 4 points.
        let xs = vec![
            vec![0.1, 0.9],
            vec![0.2, 0.8],
            vec![0.9, 0.1],
            vec![0.8, 0.2],
        ];
        let ys = vec![true, true, false, false];
        assert_reports_bit_identical(&xs, &ys, &cfg, "n=4 minimal");

        // All rows identical: every Gower range is zero, all distances are 0.
        let xs = vec![vec![0.5, 0.5]; 6];
        let ys = vec![true, false, true, false, true, false];
        assert_reports_bit_identical(&xs, &ys, &cfg, "all-identical rows");

        // One class has a single member (n2's infinite-intra edge).
        let mut rng = Prng::seed_from_u64(0x51_0F);
        let (xs, mut ys) = random_classification(&mut rng, 12, 2);
        for y in ys.iter_mut() {
            *y = false;
        }
        ys[3] = true;
        assert_reports_bit_identical(&xs, &ys, &cfg, "single-member class");

        // A constant feature column among varying ones (zero Gower range dim).
        let mut xs: Vec<Vec<f64>> = Vec::new();
        for _ in 0..10 {
            xs.push(vec![rng.f64(), 0.7, rng.f64()]);
        }
        let mut ys: Vec<bool> = (0..10).map(|i| i % 3 == 0).collect();
        ys[0] = true;
        ys[1] = false;
        assert_reports_bit_identical(&xs, &ys, &cfg, "constant feature column");
    }

    #[test]
    fn streaming_matches_ragged_at_bench_scales() {
        // (points, cap): full-set runs plus a subsampled run, at the scales
        // the complexity bench timed the two paths at.
        for (points, cap) in [(400, 400), (1500, 1500), (5000, 1500)] {
            let (xs, ys) = separated(points, 0.5, 0.25, 0xC0_FFEE ^ points as u64);
            let cfg = ComplexityConfig {
                max_points: cap,
                ..Default::default()
            };
            assert_reports_bit_identical(&xs, &ys, &cfg, &format!("{points} points (cap {cap})"));
        }
    }

    #[test]
    fn subsample_keeps_both_classes_under_extreme_imbalance() {
        // 10000 positives : 3 negatives. The proportional negative share of
        // a 1500-point cap rounds to zero; the old clamp let the negatives
        // vanish from the sample and downstream measures divide by an empty
        // class. Every non-empty class must keep at least one pick.
        let n_pos = 10_000;
        let n_neg = 3;
        let mut rng = Prng::seed_from_u64(42);
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n_pos {
            xs.push(vec![0.6 + 0.4 * rng.f64(), 0.6 + 0.4 * rng.f64()]);
            ys.push(true);
        }
        for _ in 0..n_neg {
            xs.push(vec![0.4 * rng.f64(), 0.4 * rng.f64()]);
            ys.push(false);
        }
        let (sx, sy) = stratified_subsample(&xs, &ys, 1500, 7);
        assert_eq!(sx.len(), 1500, "cap must be honored exactly");
        assert!(sy.iter().any(|&y| y), "positives present");
        assert!(sy.iter().any(|&y| !y), "negatives present");

        // And the mirrored imbalance.
        let flipped: Vec<bool> = ys.iter().map(|&y| !y).collect();
        let (fx, fy) = stratified_subsample(&xs, &flipped, 1500, 7);
        assert_eq!(fx.len(), 1500);
        assert!(fy.iter().any(|&y| y) && fy.iter().any(|&y| !y));

        // End to end: compute must succeed and stay finite.
        let cfg = ComplexityConfig {
            max_points: 1500,
            ..Default::default()
        };
        let r = compute(&xs, &ys, &cfg).unwrap();
        for (name, v) in r.values() {
            assert!(v.is_finite(), "{name} not finite under extreme imbalance");
        }
    }

    #[test]
    fn subsampling_is_deterministic_and_stratified() {
        let (xs, ys) = separated(2000, 0.4, 0.2, 6);
        let cfg = ComplexityConfig {
            max_points: 500,
            ..Default::default()
        };
        let a = compute(&xs, &ys, &cfg).unwrap();
        let b = compute(&xs, &ys, &cfg).unwrap();
        assert_eq!(a, b);
        let (sx, sy) = stratified_subsample(&xs, &ys, 500, 7);
        assert_eq!(sx.len(), 500);
        let frac = sy.iter().filter(|&&y| y).count() as f64 / sy.len() as f64;
        let orig = ys.iter().filter(|&&y| y).count() as f64 / ys.len() as f64;
        assert!((frac - orig).abs() < 0.05);
    }

    #[test]
    fn cs_js_entry_point_matches_generic_compute() {
        let (xs, ys) = separated(200, 0.5, 0.3, 9);
        let pairs: Vec<[f64; 2]> = xs.iter().map(|v| [v[0], v[1]]).collect();
        let cfg = ComplexityConfig::default();
        assert_eq!(
            compute(&xs, &ys, &cfg).unwrap(),
            compute_cs_js(&pairs, &ys, &cfg).unwrap()
        );
    }

    #[test]
    fn estimator_twins_stay_bit_identical() {
        let (xs, ys) = separated(400, 0.5, 0.3, 21);
        let cfg = ComplexityConfig {
            estimator_sample: Some(120),
            ..Default::default()
        };
        let a = compute(&xs, &ys, &cfg).unwrap();
        let b = compute_ragged(&xs, &ys, &cfg).unwrap();
        for ((name, va), (_, vb)) in a.values().iter().zip(b.values()) {
            assert_eq!(va.to_bits(), vb.to_bits(), "{name}: {va} vs {vb}");
        }
    }

    #[test]
    fn estimator_tracks_exact_within_declared_bound() {
        let (xs, ys) = separated(3000, 0.5, 0.3, 22);
        let exact = compute(&xs, &ys, &ComplexityConfig::default()).unwrap();
        let m = 800;
        let cfg = ComplexityConfig {
            estimator_sample: Some(m),
            ..Default::default()
        };
        let est = compute(&xs, &ys, &cfg).unwrap();
        let gap = (est.mean() - exact.mean()).abs();
        let bound = estimator_bound(m);
        assert!(
            gap <= bound,
            "gap {gap:.4} exceeds declared bound {bound:.4}"
        );
        // The distance-free groups never go through the landmark sample.
        for (a, b) in [
            (est.c1, exact.c1),
            (est.c2, exact.c2),
            (est.f1, exact.f1),
            (est.l2, exact.l2),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn estimator_on_degenerate_graph_stays_defined() {
        // Every point identical: all Gower distances are zero, so the ε-NN
        // graph is complete — the degenerate extreme for the network
        // measures — and every nearest-neighbour distance ties at zero.
        let n = 60;
        let xs = vec![vec![0.5, 0.5]; n];
        let ys: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let cfg = ComplexityConfig {
            estimator_sample: Some(16),
            ..Default::default()
        };
        let a = compute(&xs, &ys, &cfg).unwrap();
        let b = compute_ragged(&xs, &ys, &cfg).unwrap();
        for ((name, va), (_, vb)) in a.values().iter().zip(b.values()) {
            assert!(va.is_finite(), "{name} = {va} not finite");
            assert!((0.0..=1.0).contains(va), "{name} = {va} out of range");
            assert_eq!(va.to_bits(), vb.to_bits(), "{name}: {va} vs {vb}");
        }
    }

    #[test]
    fn estimator_bound_shrinks_with_sample_size() {
        assert!(estimator_bound(100) > estimator_bound(1000));
        assert!(estimator_bound(4000) < 0.05);
        // Declared bound is √2 wider than the plain Hoeffding half-width.
        let m = 500;
        let hoeffding = (200.0_f64.ln() / (2.0 * m as f64)).sqrt();
        assert!((estimator_bound(m) - hoeffding * 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn config_from_env_reads_estimator_knobs() {
        std::env::remove_var("RLB_COMPLEXITY_SAMPLE");
        std::env::remove_var("RLB_COMPLEXITY_MAX_POINTS");
        let cfg = ComplexityConfig::from_env();
        assert_eq!(cfg.estimator_sample, None);
        assert_eq!(cfg.max_points, ComplexityConfig::default().max_points);

        std::env::set_var("RLB_COMPLEXITY_SAMPLE", "4000");
        std::env::set_var("RLB_COMPLEXITY_MAX_POINTS", "9999");
        let cfg = ComplexityConfig::from_env();
        assert_eq!(cfg.estimator_sample, Some(4000));
        assert_eq!(cfg.max_points, 9999);

        // Garbage and zero fall back to the defaults.
        std::env::set_var("RLB_COMPLEXITY_SAMPLE", "lots");
        std::env::set_var("RLB_COMPLEXITY_MAX_POINTS", "0");
        let cfg = ComplexityConfig::from_env();
        assert_eq!(cfg.estimator_sample, None);
        assert_eq!(cfg.max_points, ComplexityConfig::default().max_points);
        std::env::remove_var("RLB_COMPLEXITY_SAMPLE");
        std::env::remove_var("RLB_COMPLEXITY_MAX_POINTS");
    }

    #[test]
    fn compute_opens_one_span_per_measure_group() {
        let (xs, ys) = separated(200, 0.5, 0.3, 10);
        compute(&xs, &ys, &ComplexityConfig::default()).unwrap();
        let spans = rlb_obs::take_spans();
        let computes: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "complexity.compute")
            .map(|s| s.id)
            .collect();
        for group in [
            "features",
            "linearity",
            "nn",
            "n1",
            "n4",
            "t1_lsc",
            "graph",
            "cls",
            "hub",
        ] {
            let name = format!("complexity.{group}");
            assert!(
                spans
                    .iter()
                    .any(|s| s.name == name && s.parent.is_some_and(|p| computes.contains(&p))),
                "no {name} span inside complexity.compute"
            );
        }
    }

    #[test]
    fn report_mean_is_average_of_values() {
        let (xs, ys) = separated(200, 0.5, 0.3, 8);
        let r = compute(&xs, &ys, &ComplexityConfig::default()).unwrap();
        let manual: f64 = r.values().iter().map(|(_, v)| v).sum::<f64>() / r.values().len() as f64;
        assert!((r.mean() - manual).abs() < 1e-12);
    }
}
