//! Network measures `den`, `cls`, `hub` (Table I, group d).
//!
//! The dataset is modelled as an ε-NN graph: nodes are instances, edges
//! connect pairs with Gower distance below `epsilon`; edges between
//! instances of *different* classes are then pruned (the paper's
//! description). All three measures are reported complexity-oriented
//! (`1 − value`), following `problexity`.
//!
//! [`network_measures`] streams distance rows out of a [`DistanceEngine`]
//! into packed bitset adjacency (2·n²/8 bytes: one copy in original node
//! order for the hub power iteration, one in cluster-sorted order for
//! triangle counting — dense ε-graphs at the 20 000-point default cap have
//! average degree in the thousands, where per-edge neighbour-list
//! intersection is intractable). Its `#[cfg(test)]` ragged reference below
//! is a materialized O(n²)-distance, adjacency-list reading of the same
//! measures. Both count the identical integer edge/triangle quantities and
//! add the same f64 values in the same order (hub's block kernel adds exact
//! `+0.0`s in between, see [`hub_block`]), so every value is
//! byte-identical.
//!
//! The cluster-sorted relabeling exploits ε-graph geometry: Gower distance
//! `< ε` bounds every per-dimension normalized difference by `ε · dims`, so
//! after sorting nodes by (class, key-dimension value) each node's
//! neighbourhood occupies a narrow contiguous band of ranks. Bitset rows in
//! that space are short runs of nonzero words; intersecting only the
//! overlap of two rows' nonzero spans (and only bits above the iterated
//! endpoint, counting each closed pair once instead of twice) turns the
//! full-stride AND-popcount into a banded one. Triangle counts are
//! integers, so the relabeling cannot change a single output bit.

use rlb_textsim::gower::DistanceEngine;

/// Consecutive ranks per block in the clustering sweep: large enough to
/// amortize each `ru` slice load across the block's rows (consecutive ranks
/// share most of their neighbourhood), small enough that the block's own
/// rows stay cache-resident.
const CLS_BLOCK: usize = 64;

/// Rows per block in hub's power-iteration kernel ([`hub_block`]): sixteen
/// f64 accumulators fill four 4-lane AVX2 registers.
const HUB_BLOCK: usize = 16;

/// Computes `(den, cls, hub)` by streaming distance rows out of the engine.
pub fn network_measures(ys: &[bool], engine: &DistanceEngine, epsilon: f64) -> (f64, f64, f64) {
    let n = ys.len();
    let stride = n.div_ceil(64);
    let graph_span = rlb_obs::span!("complexity.graph");
    let rank = cluster_rank(ys, engine);
    // Row i's same-class ε-neighbours as bitsets in both labelings. The
    // predicate is symmetric and the diagonal is excluded, so both matrices
    // are symmetric by construction — no assembly pass needed.
    let built: Vec<(Vec<u64>, Vec<u64>)> = engine.map_rows(|i, row| {
        let mut bits = vec![0u64; stride];
        let mut sorted = vec![0u64; stride];
        for (j, (&d, &yj)) in row.iter().zip(ys).enumerate() {
            if j != i && d < epsilon && yj == ys[i] {
                bits[j / 64] |= 1 << (j % 64);
                let r = rank[j];
                sorted[r / 64] |= 1 << (r % 64);
            }
        }
        (bits, sorted)
    });
    let mut rows: Vec<Vec<u64>> = Vec::with_capacity(n);
    // Contiguous rank-major bit matrix: row r at `smat[r*stride..]`. One
    // allocation keeps band-adjacent rows physically adjacent, which the
    // blocked intersection sweep below depends on for prefetch locality.
    let mut smat = vec![0u64; n * stride];
    for (i, (orig, sorted)) in built.into_iter().enumerate() {
        smat[rank[i] * stride..(rank[i] + 1) * stride].copy_from_slice(&sorted);
        rows.push(orig);
    }
    // Nonzero-word span per sorted-space row: the "band" the intersection
    // loop below is allowed to skip outside of. Empty rows get an empty
    // span (lo > hi).
    let spans: Vec<(usize, usize)> = smat.chunks_exact(stride.max(1)).map(word_span).collect();

    let degrees: Vec<usize> = rows
        .iter()
        .map(|r| r.iter().map(|w| w.count_ones() as usize).sum())
        .collect();
    let edges = degrees.iter().sum::<usize>() / 2;

    let possible = n * (n - 1) / 2;
    let den = if possible == 0 {
        1.0
    } else {
        1.0 - edges as f64 / possible as f64
    };
    drop(graph_span);

    // cls = 1 − mean local clustering coefficient. For node i, each closed
    // neighbour pair {u, v} ⊆ N(i) is counted exactly once: iterating the
    // lower endpoint u and popcounting only intersection bits strictly
    // above u. The count matches the ragged twin's per-pair edge lookups as
    // an integer, so the f64 contribution is bit-identical.
    //
    // The scan runs in *rank* order: consecutive ranks share most of their
    // neighbourhood band, so the `ru` rows a node intersects are the ones
    // its predecessor just touched — the whole band stays cache-resident
    // instead of being refetched per node.
    let cls_span = rlb_obs::span!("complexity.cls");
    let nblocks = n.div_ceil(CLS_BLOCK);
    let closed_blocks: Vec<Vec<usize>> = rlb_util::par::par_map_range(nblocks, |blk| {
        let b0 = blk * CLS_BLOCK;
        let b1 = (b0 + CLS_BLOCK).min(n);
        let mut closed = vec![0usize; b1 - b0];
        // Union of the block rows' bands: every neighbour of every row in
        // the block lives inside it.
        let (mut blo, mut bhi) = (usize::MAX, 0usize);
        for &(lo, hi) in &spans[b0..b1] {
            if lo <= hi {
                blo = blo.min(lo);
                bhi = bhi.max(hi);
            }
        }
        if blo > bhi {
            return closed; // every row in the block is isolated
        }
        for u in blo * 64..((bhi + 1) * 64).min(n) {
            let (ulo, uhi) = spans[u];
            if ulo > uhi {
                continue;
            }
            let uw = u / 64;
            let ubit = 1u64 << (u % 64);
            let above = above_bit_mask(u % 64);
            let ru = &smat[u * stride..(u + 1) * stride];
            for (slot, r) in (b0..b1).enumerate() {
                let ri = &smat[r * stride..(r + 1) * stride];
                if ri[uw] & ubit == 0 {
                    continue; // u is not a neighbour of r
                }
                let (ilo, ihi) = spans[r];
                let lo = ilo.max(ulo).max(uw);
                let hi = ihi.min(uhi);
                if lo > hi {
                    continue;
                }
                // lo >= uw by construction, so u's own word needs masking
                // only when it opens the overlap; the rest is a straight
                // slice zip the optimizer turns into branch-free
                // AND+popcount.
                let ri_s = &ri[lo..=hi];
                let ru_s = &ru[lo..=hi];
                let mut skip = 0;
                if lo == uw {
                    closed[slot] += (ri_s[0] & ru_s[0] & above).count_ones() as usize;
                    skip = 1;
                }
                closed[slot] += ri_s[skip..]
                    .iter()
                    .zip(&ru_s[skip..])
                    .map(|(a, b)| (a & b).count_ones() as usize)
                    .sum::<usize>();
            }
        }
        closed
    });
    let mut by_rank: Vec<f64> = Vec::with_capacity(n);
    for (blk, block) in closed_blocks.iter().enumerate() {
        for (slot, &c) in block.iter().enumerate() {
            let r = blk * CLS_BLOCK + slot;
            let k: usize = smat[r * stride..(r + 1) * stride]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum();
            by_rank.push(if k < 2 {
                0.0
            } else {
                c as f64 / (k * (k - 1) / 2) as f64
            });
        }
    }
    // Contributions are per-node f64s; summing in ascending *original* node
    // order keeps the accumulation sequence identical to the ragged twin's.
    let mut cls_sum = 0.0;
    for (i, &r) in rank.iter().enumerate() {
        if degrees[i] >= 2 {
            cls_sum += by_rank[r];
        }
    }
    let cls = 1.0 - cls_sum / n as f64;
    drop(cls_span);

    // hub = 1 − mean normalized hub score (principal eigenvector of the
    // adjacency matrix via power iteration), `next = A·v` one block of
    // `HUB_BLOCK` rows at a time — see `hub_block`.
    let hub = {
        let _span = rlb_obs::span!("complexity.hub");
        let mut v = vec![1.0f64; n];
        for _ in 0..50 {
            let blocks = rlb_util::par::par_map_range(n.div_ceil(HUB_BLOCK), |b| {
                hub_block(&rows[b * HUB_BLOCK..((b + 1) * HUB_BLOCK).min(n)], &v)
            });
            let mut next: Vec<f64> = blocks.into_iter().flatten().take(n).collect();
            let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-12 {
                v = vec![0.0; n];
                break;
            }
            for x in next.iter_mut() {
                *x /= norm;
            }
            v = next;
        }
        hub_from_scores(&v, n)
    };

    (den, cls, hub)
}

/// `Σ v[j]` over the set bits of each of up to [`HUB_BLOCK`] bitset rows:
/// one power-iteration step for a block of rows.
///
/// The block walks the words one column at a time. Each row's word is
/// bit-reversed once, so neighbour `j` sits in the sign bit when its turn
/// comes; every row then adds `v[j]` when that bit is set and `+0.0`
/// otherwise, and shifts left by one. The select is a compare per lane, so
/// the rows accumulate side by side in vector registers. A word that is
/// zero in every row of the block is skipped.
///
/// Bit-identity with the ragged twin's sorted adjacency walk: `v ≥ 0` at
/// every power iteration, so each accumulator starts at `+0.0` and never
/// becomes `−0.0` or NaN, and adding `+0.0` to it is exact. Each row
/// therefore still adds exactly its neighbours' `v[j]`, in ascending `j`.
/// Rows past the end of a short block stay `0.0`.
fn hub_block(rows: &[Vec<u64>], v: &[f64]) -> [f64; HUB_BLOCK] {
    let mut acc = [0.0f64; HUB_BLOCK];
    for (w, vs) in v.chunks(64).enumerate() {
        let mut masks = [0u64; HUB_BLOCK];
        for (m, row) in masks.iter_mut().zip(rows) {
            *m = row[w].reverse_bits();
        }
        if masks.iter().all(|&m| m == 0) {
            continue;
        }
        for &vj in vs {
            for (a, m) in acc.iter_mut().zip(masks.iter_mut()) {
                *a += if (*m as i64) < 0 { vj } else { 0.0 };
                *m <<= 1;
            }
        }
    }
    acc
}

/// Relabels nodes so ε-neighbourhoods become contiguous rank bands: sort by
/// (class, key-dimension value, original index), where the key dimension is
/// the active (positive-range) dimension with the largest fitted range
/// (ties broken toward the lowest index). Returns `rank[i]` = position of
/// original node `i` in the sorted order. With no active dimension every
/// distance is zero and the class-major identity order is returned.
fn cluster_rank(ys: &[bool], engine: &DistanceEngine) -> Vec<usize> {
    let n = ys.len();
    let ranges = engine.space().ranges();
    let mut key = None;
    for (d, &r) in ranges.iter().enumerate() {
        if r > 0.0 && key.is_none_or(|k: usize| r > ranges[k]) {
            key = Some(d);
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let by_class = ys[a].cmp(&ys[b]);
        match key {
            Some(d) => by_class
                .then(engine.point(a)[d].total_cmp(&engine.point(b)[d]))
                .then(a.cmp(&b)),
            None => by_class.then(a.cmp(&b)),
        }
    });
    let mut rank = vec![0usize; n];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r;
    }
    rank
}

/// Indices of the first and last nonzero words, or `(1, 0)` (an empty
/// range) when every word is zero.
fn word_span(words: &[u64]) -> (usize, usize) {
    let lo = words.iter().position(|&w| w != 0);
    match lo {
        Some(lo) => (lo, words.iter().rposition(|&w| w != 0).unwrap_or(lo)),
        None => (1, 0),
    }
}

/// Mask of the bits strictly above position `b` within one word.
fn above_bit_mask(b: usize) -> u64 {
    debug_assert!(b < 64);
    if b == 63 {
        0
    } else {
        !0u64 << (b + 1)
    }
}

/// Ascending indices of the set bits of a packed bitset: the order in which
/// [`hub_block`] adds each row's neighbours, kept as the executable
/// specification the `bit_iteration_is_ascending_and_complete` test pins.
#[cfg(test)]
fn iter_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &bits)| {
        std::iter::successors((bits != 0).then_some(bits), |b| {
            let b = b & (b - 1);
            (b != 0).then_some(b)
        })
        .map(move |b| w * 64 + b.trailing_zeros() as usize)
    })
}

/// Computes `(den, cls, hub)` from a materialized distance matrix — the
/// O(n²)-memory ragged reference for [`network_measures`].
#[cfg(test)]
pub fn network_measures_ragged(ys: &[bool], dists: &[Vec<f64>], epsilon: f64) -> (f64, f64, f64) {
    let n = ys.len();
    // Ascending outer/inner loops keep every adjacency list sorted, which
    // the closed-pair binary searches below rely on.
    let mut adj = vec![Vec::<usize>::new(); n];
    let mut edges = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if dists[i][j] < epsilon && ys[i] == ys[j] {
                adj[i].push(j);
                adj[j].push(i);
                edges += 1;
            }
        }
    }

    // den = 1 − 2E / (n(n−1)).
    let possible = n * (n - 1) / 2;
    let den = if possible == 0 {
        1.0
    } else {
        1.0 - edges as f64 / possible as f64
    };

    // cls = 1 − mean local clustering coefficient.
    let mut cls_sum = 0.0;
    for i in 0..n {
        let k = adj[i].len();
        if k < 2 {
            continue; // contributes 0 to the clustering sum
        }
        let mut closed = 0usize;
        for a in 0..k {
            for b in (a + 1)..k {
                let (u, v) = (adj[i][a], adj[i][b]);
                if adj[u].binary_search(&v).is_ok() {
                    closed += 1;
                }
            }
        }
        cls_sum += closed as f64 / (k * (k - 1) / 2) as f64;
    }
    let cls = 1.0 - cls_sum / n as f64;

    // hub = 1 − mean normalized hub score (power iteration).
    let hub = {
        let mut v = vec![1.0f64; n];
        for _ in 0..50 {
            let mut next = vec![0.0f64; n];
            for i in 0..n {
                for &j in &adj[i] {
                    next[i] += v[j];
                }
            }
            let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-12 {
                v = vec![0.0; n];
                break;
            }
            for x in next.iter_mut() {
                *x /= norm;
            }
            v = next;
        }
        hub_from_scores(&v, n)
    };

    (den, cls, hub)
}

/// `1 − mean(v)/max(v)` over the converged hub scores, shared by both twins.
fn hub_from_scores(v: &[f64], n: usize) -> f64 {
    let max = v.iter().copied().fold(0.0f64, f64::max);
    if max <= 0.0 {
        1.0 // no structure at all: maximally complex by this measure
    } else {
        let mean = v.iter().sum::<f64>() / n as f64 / max;
        1.0 - mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata::pairwise;
    use rlb_textsim::gower::GowerSpace;

    /// Runs both layouts and asserts bit-identity before returning the
    /// streaming result.
    fn graph_for(xs: &[Vec<f64>], ys: &[bool], eps: f64) -> (f64, f64, f64) {
        let engine = DistanceEngine::fit(xs).unwrap();
        let streaming = network_measures(ys, &engine, eps);
        let g = GowerSpace::fit(xs).unwrap();
        let d = pairwise(&g, xs);
        let ragged = network_measures_ragged(ys, &d, eps);
        assert_eq!(streaming.0.to_bits(), ragged.0.to_bits(), "den");
        assert_eq!(streaming.1.to_bits(), ragged.1.to_bits(), "cls");
        assert_eq!(streaming.2.to_bits(), ragged.2.to_bits(), "hub");
        streaming
    }

    #[test]
    fn bit_iteration_is_ascending_and_complete() {
        let mut words = vec![0u64; 3];
        let set = [0usize, 1, 63, 64, 100, 130, 191];
        for &j in &set {
            words[j / 64] |= 1 << (j % 64);
        }
        assert_eq!(iter_bits(&words).collect::<Vec<_>>(), set);
        assert_eq!(iter_bits(&[0u64; 2]).count(), 0);
    }

    #[test]
    fn tight_clusters_give_dense_clustered_graph() {
        // Two tight same-class clusters.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..10 {
            xs.push(vec![0.01 * i as f64]);
            ys.push(true);
            xs.push(vec![1.0 - 0.01 * i as f64]);
            ys.push(false);
        }
        let (den, cls, _hub) = graph_for(&xs, &ys, 0.15);
        // Each cluster is a clique of 10 -> 90 edges of 190 possible.
        assert!(den < 0.6, "den {den}");
        assert!(cls < 0.1, "cliques have clustering 1: cls {cls}");
    }

    #[test]
    fn cross_class_edges_are_pruned() {
        // Interleaved classes: every close neighbour is an enemy, so the
        // pruned graph is empty and all measures max out.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.01]).collect();
        let ys: Vec<bool> = (0..20).map(|i| i % 2 == 0).collect();
        let (den, cls, hub) = graph_for(&xs, &ys, 0.012);
        assert!(den > 0.95, "den {den}");
        assert_eq!(cls, 1.0);
        assert_eq!(hub, 1.0);
    }

    #[test]
    fn all_bounded() {
        let mut rng = rlb_util::Prng::seed_from_u64(1);
        let xs: Vec<Vec<f64>> = (0..100).map(|_| vec![rng.f64(), rng.f64()]).collect();
        let ys: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        for eps in [0.05, 0.15, 0.5] {
            let (den, cls, hub) = graph_for(&xs, &ys, eps);
            for v in [den, cls, hub] {
                assert!((0.0..=1.0).contains(&v), "{v} at eps {eps}");
            }
        }
    }

    #[test]
    fn larger_epsilon_means_denser_graph() {
        let mut rng = rlb_util::Prng::seed_from_u64(2);
        let xs: Vec<Vec<f64>> = (0..80).map(|_| vec![rng.f64()]).collect();
        let ys = vec![true; 40]
            .into_iter()
            .chain(vec![false; 40])
            .collect::<Vec<_>>();
        let (den_small, _, _) = graph_for(&xs, &ys, 0.05);
        let (den_large, _, _) = graph_for(&xs, &ys, 0.5);
        assert!(den_large < den_small, "{den_large} vs {den_small}");
    }

    #[test]
    fn word_span_finds_nonzero_run() {
        assert_eq!(word_span(&[0, 0, 0]), (1, 0));
        assert_eq!(word_span(&[]), (1, 0));
        assert_eq!(word_span(&[5, 0, 0]), (0, 0));
        assert_eq!(word_span(&[0, 1, 0, 8, 0]), (1, 3));
    }

    #[test]
    fn above_bit_mask_covers_strictly_higher_bits() {
        assert_eq!(above_bit_mask(63), 0);
        assert_eq!(above_bit_mask(0), !1u64);
        for b in 0..64usize {
            let m = above_bit_mask(b);
            for j in 0..64usize {
                assert_eq!(m & (1 << j) != 0, j > b, "b={b} j={j}");
            }
        }
    }

    #[test]
    fn cluster_rank_is_a_permutation_grouped_by_class() {
        let mut rng = rlb_util::Prng::seed_from_u64(9);
        let xs: Vec<Vec<f64>> = (0..70).map(|_| vec![rng.f64(), rng.f64() * 0.2]).collect();
        let ys: Vec<bool> = (0..70).map(|i| i % 3 != 0).collect();
        let engine = DistanceEngine::fit(&xs).unwrap();
        let rank = cluster_rank(&ys, &engine);
        let mut seen = [false; 70];
        for &r in &rank {
            assert!(!seen[r], "duplicate rank {r}");
            seen[r] = true;
        }
        // Class-major: every false-class rank below every true-class rank,
        // and within a class ranks ascend with the key (largest-range) dim.
        let n_false = ys.iter().filter(|&&y| !y).count();
        for (i, &r) in rank.iter().enumerate() {
            assert_eq!(r < n_false, !ys[i], "node {i}");
        }
    }

    #[test]
    fn constant_features_fall_back_to_identity_order() {
        // No active dimension: all distances zero, graph = same-class clique.
        let xs = vec![vec![1.5, 2.5]; 12];
        let ys: Vec<bool> = (0..12).map(|i| i < 7).collect();
        let (den, cls, hub) = graph_for(&xs, &ys, 0.15);
        assert!(den < 1.0);
        // Cliques: clustering coefficient 1 for every node with deg ≥ 2.
        assert!(cls < 1e-9, "cls {cls}");
        assert!((0.0..=1.0).contains(&hub));
    }

    #[test]
    fn boundary_crossing_bitset_sizes_stay_identical() {
        // n at and around the 64-bit word boundary exercises the packed
        // adjacency's partial last word; n around multiples of HUB_BLOCK
        // exercises hub's short last block.
        let mut rng = rlb_util::Prng::seed_from_u64(3);
        for n in [15usize, 16, 17, 31, 33, 63, 64, 65, 128, 129] {
            let xs: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.f64(), rng.f64()]).collect();
            let ys: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
            graph_for(&xs, &ys, 0.2);
        }
        // A tiny ε leaves most nodes isolated and most words zero in every
        // row of a hub block, so the zero-word skip does real work. Fewer
        // than 20 edges touch at most 40 of the 200 nodes.
        let n = 200;
        let xs: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.f64(), rng.f64()]).collect();
        let ys: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let (den, _, hub) = graph_for(&xs, &ys, 0.01);
        assert!(den > 1.0 - 20.0 / (n * (n - 1) / 2) as f64, "den {den}");
        assert!(hub < 1.0, "some edges remain: hub {hub}");
    }
}
