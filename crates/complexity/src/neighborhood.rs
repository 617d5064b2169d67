//! Neighborhood measures `n1`, `n2`, `n3`, `n4`, `t1`, `lsc` over the Gower
//! distance (Table I, group c).
//!
//! [`neighborhood_measures`] streams distance rows out of a
//! [`DistanceEngine`] — O(n) peak memory. Its per-row formulas are shared
//! with a `#[cfg(test)]` ragged reference that scans a materialized O(n²)
//! `Vec<Vec<f64>>` matrix, so the tests can assert the streaming path
//! bit-for-bit.

use rlb_textsim::gower::DistanceEngine;
#[cfg(test)]
use rlb_textsim::gower::GowerSpace;
use rlb_util::Prng;

/// Results of the neighborhood group.
#[derive(Debug, Clone, Copy)]
pub struct NeighborhoodMeasures {
    pub n1: f64,
    pub n2: f64,
    pub n3: f64,
    pub n4: f64,
    pub t1: f64,
    pub lsc: f64,
}

/// Per-point nearest-neighbour scan of one distance row: `(nearest index,
/// nearest same-class distance, nearest other-class distance)`.
fn nn_scan(i: usize, row: &[f64], ys: &[bool]) -> (usize, f64, f64) {
    let mut any = usize::MAX;
    let mut best = f64::INFINITY;
    let mut intra = f64::INFINITY;
    let mut extra = f64::INFINITY;
    for (j, &d) in row.iter().enumerate() {
        if i == j {
            continue;
        }
        if d < best {
            best = d;
            any = j;
        }
        if ys[i] == ys[j] {
            if d < intra {
                intra = d;
            }
        } else if d < extra {
            extra = d;
        }
    }
    (any, intra, extra)
}

/// `n2` from the per-point nearest intra/extra-class distances.
///
/// A point whose class has a single member has no intra-class neighbour
/// (`intra = ∞`); such points are excluded from **both** sums. Counting
/// their extra-class distance in the denominator while dropping them from
/// the numerator would bias `n2` downward exactly on the extreme class
/// imbalance that is the norm in ER candidate sets. On inputs where every
/// class has ≥ 2 members all distances are finite and the sums are
/// byte-identical to the unfiltered ones.
fn n2_from_nn(nn_intra_d: &[f64], nn_extra_d: &[f64]) -> f64 {
    let mut intra = 0.0;
    let mut extra = 0.0;
    for (&di, &de) in nn_intra_d.iter().zip(nn_extra_d) {
        if di.is_finite() && de.is_finite() {
            intra += di;
            extra += de;
        }
    }
    if intra + extra == 0.0 {
        0.0
    } else {
        let r = if extra > 0.0 {
            intra / extra
        } else {
            f64::INFINITY
        };
        r / (1.0 + r)
    }
}

/// Fused `t1`/`lsc` scan of one distance row: `(sphere absorbed, local-set
/// cardinality)`. `enemy_d[i]` is the distance to point `i`'s nearest
/// enemy — the sphere radius for `t1` and the local-set radius for `lsc`.
fn t1_lsc_scan(i: usize, row: &[f64], enemy_d: &[f64]) -> (bool, usize) {
    let r = enemy_d[i];
    let count_ls = r.is_finite();
    let mut absorbed = false;
    let mut ls = 0usize;
    for (j, &d) in row.iter().enumerate() {
        if i == j {
            continue;
        }
        if !absorbed && enemy_d[j].is_finite() && d + r <= enemy_d[j] + 1e-12 {
            absorbed = true;
        }
        if count_ls && d < r {
            ls += 1;
        }
    }
    (absorbed, ls)
}

/// Folds the per-point scans into the final group (everything except the
/// matrix walks themselves, shared by the streaming and ragged paths).
fn finish(
    ys: &[bool],
    nn: &[(usize, f64, f64)],
    n1: f64,
    n4: f64,
    t1_lsc: &[(bool, usize)],
) -> NeighborhoodMeasures {
    let n = ys.len();
    let nn_intra_d: Vec<f64> = nn.iter().map(|&(_, d, _)| d).collect();
    let nn_extra_d: Vec<f64> = nn.iter().map(|&(_, _, d)| d).collect();
    let n2 = n2_from_nn(&nn_intra_d, &nn_extra_d);
    let n3 = {
        let errors = (0..n).filter(|&i| ys[nn[i].0] != ys[i]).count();
        errors as f64 / n as f64
    };
    let kept = t1_lsc.iter().filter(|&&(absorbed, _)| !absorbed).count();
    let t1 = kept as f64 / n as f64;
    let ls_total: usize = t1_lsc.iter().map(|&(_, ls)| ls).sum();
    let lsc = 1.0 - ls_total as f64 / (n * n) as f64;
    NeighborhoodMeasures {
        n1,
        n2,
        n3,
        n4,
        t1,
        lsc,
    }
}

/// Computes the whole group by streaming distance rows out of the engine —
/// O(n) peak memory.
pub fn neighborhood_measures(
    ys: &[bool],
    engine: &DistanceEngine,
    n4_ratio: f64,
    rng: &mut Prng,
) -> NeighborhoodMeasures {
    let n = engine.len();
    let nn = {
        let _span = rlb_obs::span!("complexity.nn");
        engine.map_rows(|i, row| nn_scan(i, row, ys))
    };
    let nn_extra_d: Vec<f64> = nn.iter().map(|&(_, _, d)| d).collect();
    let n1 = {
        let _span = rlb_obs::span!("complexity.n1");
        n1_mst(ys, engine)
    };
    let points: Vec<&[f64]> = (0..n).map(|i| engine.point(i)).collect();
    // Classify each synthetic point through the chunked columnar kernel; the
    // per-pair FP op order matches `GowerSpace::distance` exactly, so the
    // argmin (and thus n4) is bit-identical to the ragged twin's scalar scan.
    let n4 = {
        let _span = rlb_obs::span!("complexity.n4");
        n4_interpolated(&points, ys, n4_ratio, rng, |q| {
            let mut buf = vec![0.0; n];
            engine.query_row_into(q, &mut buf);
            argmin(&buf)
        })
    };
    let t1_lsc = {
        let _span = rlb_obs::span!("complexity.t1_lsc");
        engine.map_rows(|i, row| t1_lsc_scan(i, row, &nn_extra_d))
    };
    finish(ys, &nn, n1, n4, &t1_lsc)
}

/// Computes the whole group from a precomputed pairwise distance matrix —
/// the O(n²)-memory ragged reference for [`neighborhood_measures`].
#[cfg(test)]
pub fn neighborhood_measures_ragged<R: AsRef<[f64]> + Sync>(
    xs: &[R],
    ys: &[bool],
    dists: &[Vec<f64>],
    gower: &GowerSpace,
    n4_ratio: f64,
    rng: &mut Prng,
) -> NeighborhoodMeasures {
    let n = xs.len();
    let nn = rlb_util::par::par_map_range(n, |i| nn_scan(i, &dists[i], ys));
    let nn_extra_d: Vec<f64> = nn.iter().map(|&(_, _, d)| d).collect();
    let n1 = n1_mst_ragged(ys, dists);
    let points: Vec<&[f64]> = xs.iter().map(|x| x.as_ref()).collect();
    let n4 = n4_interpolated(&points, ys, n4_ratio, rng, |q| {
        let mut best_j = 0usize;
        let mut best_d = f64::INFINITY;
        for (j, xj) in points.iter().enumerate() {
            let d = gower.distance(q, xj);
            if d < best_d {
                best_d = d;
                best_j = j;
            }
        }
        best_j
    });
    let t1_lsc = rlb_util::par::par_map_range(n, |i| t1_lsc_scan(i, &dists[i], &nn_extra_d));
    finish(ys, &nn, n1, n4, &t1_lsc)
}

/// `n1`: fraction of points incident to an MST edge connecting the two
/// classes (borderline points). Prim's algorithm over one reusable O(n) row
/// buffer, shared by both layouts via a fill-row closure. Each node's row
/// is consumed exactly once (when the node is picked), so the streaming
/// path does the same total distance work as a full materialization — with
/// O(n) peak memory instead of O(n²).
fn n1_prim(ys: &[bool], mut fill_row: impl FnMut(usize, &mut [f64])) -> f64 {
    let n = ys.len();
    if n < 2 {
        return 0.0;
    }
    let mut row = vec![0.0; n];
    let mut in_tree = vec![false; n];
    let mut best_d = vec![f64::INFINITY; n];
    let mut best_from = vec![0usize; n];
    let mut borderline = vec![false; n];
    in_tree[0] = true;
    fill_row(0, &mut row);
    best_d[1..n].copy_from_slice(&row[1..n]);
    for _ in 1..n {
        let mut pick = usize::MAX;
        let mut pick_d = f64::INFINITY;
        for j in 0..n {
            if !in_tree[j] && best_d[j] < pick_d {
                pick_d = best_d[j];
                pick = j;
            }
        }
        if pick == usize::MAX {
            break;
        }
        in_tree[pick] = true;
        let from = best_from[pick];
        if ys[pick] != ys[from] {
            borderline[pick] = true;
            borderline[from] = true;
        }
        fill_row(pick, &mut row);
        for j in 0..n {
            if !in_tree[j] && row[j] < best_d[j] {
                best_d[j] = row[j];
                best_from[j] = pick;
            }
        }
    }
    borderline.iter().filter(|&&b| b).count() as f64 / n as f64
}

/// Streaming `n1`: Prim over on-the-fly engine rows. Each frontier row is
/// filled sequentially: one row is a few microseconds of chunked kernel
/// work, far less than starting and joining worker threads on each of the
/// n − 1 steps would cost.
fn n1_mst(ys: &[bool], engine: &DistanceEngine) -> f64 {
    n1_prim(ys, |i, buf| engine.row_into(i, buf))
}

/// Ragged `n1` reference over the materialized matrix.
#[cfg(test)]
fn n1_mst_ragged(ys: &[bool], dists: &[Vec<f64>]) -> f64 {
    n1_prim(ys, |i, buf| buf.copy_from_slice(&dists[i]))
}

/// First strict minimum of a distance row — the 1-NN index under the
/// ascending-`j`, strictly-less-wins scan both n4 twins share.
fn argmin(row: &[f64]) -> usize {
    let mut best_j = 0usize;
    let mut best_d = f64::INFINITY;
    for (j, &d) in row.iter().enumerate() {
        if d < best_d {
            best_d = d;
            best_j = j;
        }
    }
    best_j
}

/// `n4`: 1-NN error on synthetic points interpolated between random
/// same-class pairs. The synthetic points are drawn sequentially (the
/// `Prng` stream defines them), then classified in parallel by `nearest`,
/// which maps a query point to the index of its nearest original. Both
/// layouts plug in a `nearest` with identical distance bits and identical
/// argmin tie-breaking (ascending scan, strictly-less wins), so the
/// measure is layout-independent.
fn n4_interpolated(
    points: &[&[f64]],
    ys: &[bool],
    ratio: f64,
    rng: &mut Prng,
    nearest: impl Fn(&[f64]) -> usize + Sync,
) -> f64 {
    let n = points.len();
    let n_new = ((n as f64 * ratio).round() as usize).max(1);
    let pos: Vec<usize> = (0..n).filter(|&i| ys[i]).collect();
    let neg: Vec<usize> = (0..n).filter(|&i| !ys[i]).collect();
    let mut synth: Vec<(Vec<f64>, bool)> = Vec::with_capacity(n_new);
    for k in 0..n_new {
        let class_pos = k % 2 == 0;
        let pool = if class_pos { &pos } else { &neg };
        if pool.len() < 2 {
            continue;
        }
        let a = points[*rng.choose(pool)];
        let b = points[*rng.choose(pool)];
        let t = rng.f64();
        let point: Vec<f64> = a.iter().zip(b).map(|(x, y)| x + t * (y - x)).collect();
        synth.push((point, class_pos));
    }
    if synth.is_empty() {
        return 0.0;
    }
    let errors: usize = rlb_util::par::par_map(&synth, |(point, class_pos)| {
        usize::from(ys[nearest(point)] != *class_pos)
    })
    .into_iter()
    .sum();
    errors as f64 / synth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::{pairwise, separated};

    fn both(
        xs: &[Vec<f64>],
        ys: &[bool],
        ratio: f64,
        seed: u64,
    ) -> (NeighborhoodMeasures, NeighborhoodMeasures) {
        let engine = DistanceEngine::fit(xs).unwrap();
        let mut rng = Prng::seed_from_u64(seed);
        let streaming = neighborhood_measures(ys, &engine, ratio, &mut rng);
        let gower = GowerSpace::fit(xs).unwrap();
        let dists = pairwise(&gower, xs);
        let mut rng = Prng::seed_from_u64(seed);
        let ragged = neighborhood_measures_ragged(xs, ys, &dists, &gower, ratio, &mut rng);
        (streaming, ragged)
    }

    fn run(overlap: f64, seed: u64) -> NeighborhoodMeasures {
        let (xs, ys) = separated(250, overlap, 0.4, seed);
        let (streaming, ragged) = both(&xs, &ys, 1.0, seed);
        for (s, r) in [
            (streaming.n1, ragged.n1),
            (streaming.n2, ragged.n2),
            (streaming.n3, ragged.n3),
            (streaming.n4, ragged.n4),
            (streaming.t1, ragged.t1),
            (streaming.lsc, ragged.lsc),
        ] {
            assert_eq!(s.to_bits(), r.to_bits(), "streaming vs ragged");
        }
        streaming
    }

    #[test]
    fn all_bounded() {
        for overlap in [0.0, 0.5, 1.0] {
            let m = run(overlap, 1);
            for v in [m.n1, m.n2, m.n3, m.n4, m.t1, m.lsc] {
                assert!((0.0..=1.0).contains(&v), "{v} at overlap {overlap}");
            }
        }
    }

    #[test]
    fn separable_data_scores_low() {
        let m = run(0.02, 2);
        assert!(m.n1 < 0.1, "n1 {}", m.n1);
        assert!(m.n3 < 0.05, "n3 {}", m.n3);
        assert!(m.n4 < 0.1, "n4 {}", m.n4);
        assert!(m.t1 < 0.3, "t1 {}", m.t1);
    }

    #[test]
    fn overlapping_data_scores_high() {
        let lo = run(0.05, 3);
        let hi = run(0.95, 3);
        assert!(hi.n1 > lo.n1);
        assert!(hi.n3 > lo.n3);
        assert!(hi.n2 > lo.n2);
        assert!(hi.lsc > lo.lsc);
        assert!(hi.n3 > 0.2, "n3 {}", hi.n3);
    }

    #[test]
    fn mst_borderline_fraction_on_handcrafted_data() {
        // Four collinear points: n n | p p — exactly one cross edge in the
        // MST, touching 2 of 4 points.
        let ys = vec![false, false, true, true];
        let xs = vec![vec![0.0], vec![0.1], vec![0.6], vec![0.7]];
        let engine = DistanceEngine::fit(&xs).unwrap();
        assert!((n1_mst(&ys, &engine) - 0.5).abs() < 1e-12);
        let dists = pairwise(engine.space(), &xs);
        assert!((n1_mst_ragged(&ys, &dists) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn t1_two_clean_clusters_collapses_spheres() {
        // Points tightly packed per class far from the enemy: most spheres
        // absorb each other.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            xs.push(vec![i as f64 * 1e-4]);
            ys.push(true);
            xs.push(vec![1.0 + i as f64 * 1e-4]);
            ys.push(false);
        }
        let engine = DistanceEngine::fit(&xs).unwrap();
        let mut rng = Prng::seed_from_u64(1);
        let m = neighborhood_measures(&ys, &engine, 0.5, &mut rng);
        assert!(m.t1 < 0.2, "t1 {}", m.t1);
    }

    #[test]
    fn n2_skips_single_member_class_points_in_both_sums() {
        // Regression: point 0 is the only member of its class, so its intra
        // distance is infinite. It must not contribute its (finite) extra
        // distance to the denominator either.
        let xs = vec![vec![0.0], vec![0.5], vec![0.6], vec![0.7], vec![1.0]];
        let ys = vec![true, false, false, false, false];
        let (streaming, ragged) = both(&xs, &ys, 1.0, 4);
        // Remaining points: intra 0.1+0.1+0.1+0.3 = 0.6, extra
        // 0.5+0.6+0.7+1.0 = 2.8 → n2 = (0.6/2.8)/(1+0.6/2.8) = 0.6/3.4.
        let expected = 0.6 / 3.4;
        assert!(
            (streaming.n2 - expected).abs() < 1e-9,
            "n2 {} vs {expected}",
            streaming.n2
        );
        assert_eq!(streaming.n2.to_bits(), ragged.n2.to_bits());
    }

    #[test]
    fn n2_helper_excludes_infinite_intra_from_both_sums() {
        let intra = [f64::INFINITY, 0.25, 0.25];
        let extra = [0.5, 0.5, 0.5];
        // Only the two finite-intra points count: 0.5 / 1.0 → r = 0.5.
        let n2 = n2_from_nn(&intra, &extra);
        assert_eq!(n2, 0.5 / 1.5);
        // All-finite input is the plain unfiltered ratio.
        let n2 = n2_from_nn(&[0.2, 0.2], &[0.4, 0.4]);
        assert_eq!(n2, (0.4 / 0.8) / 1.5);
    }
}
