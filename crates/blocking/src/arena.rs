//! Blocked columnar vector storage and the single cosine ranking kernel.
//!
//! Every nearest-neighbour path in this crate — [`rank_all`] for one query,
//! the parallel exact scan over many, the k-means assignment
//! ([`VecArena::nearest`]) and the IVF probed scan — stores vectors in a
//! [`VecArena`] (one buffer of 8-vector blocks, one precomputed L2 norm per
//! vector) and scores candidates through [`cosine_score`] in ascending-id
//! order. Sharing the storage and the float-op sequence is what makes the
//! twin guarantees *bitwise*: any two paths that visit the same ids in the
//! same order produce identical rankings, whatever structure proposed the
//! ids.
//!
//! **Lanes, bit for bit.** A full scan scores the query against a whole
//! block at once: 8 independent accumulators, one per stored vector, each
//! starting at `-0.0` and adding `q[i] * v[i]` for ascending `i`. That is
//! exactly the float-op sequence of `rlb_util::linalg::dot_f32` (an `f32`
//! `sum` starts at `-0.0`), so every lane's dot product — and the strided
//! single-vector read of [`VecArena::score`] — equals `dot_f32(q, v)` bit
//! for bit. The independent lanes are what lets the compiler vectorize the
//! scan without reordering any sum.
//!
//! **Zero-norm policy.** Records with no text (or no q-grams) embed to the
//! zero vector, whose cosine against anything is undefined. The kernel maps
//! any pairing that involves a zero-norm vector to [`ZERO_NORM_SCORE`],
//! strictly below the cosine range `[-1, 1]`, so empty records rank
//! deterministically *after* every real candidate instead of floating
//! mid-list (the old kernel scored them 0.0, above genuinely dissimilar
//! records) or feeding NaN into top-K selection.

use rlb_util::linalg::norm_f32;
use rlb_util::select::TopK;

/// Score assigned to any (query, candidate) pair where either vector has
/// zero norm: strictly below the cosine range, so such candidates always
/// rank last (ties broken by visit order, which every kernel keeps
/// ascending by id).
pub const ZERO_NORM_SCORE: f64 = -2.0;

/// Vectors per block: the lane count of the scan kernel.
const LANES: usize = 8;

/// Cosine similarity from a precomputed dot product and the two norms,
/// widened to `f64` for top-K selection. Zero-norm inputs get
/// [`ZERO_NORM_SCORE`] instead of NaN.
#[inline]
pub fn cosine_score(dot: f32, norm_a: f32, norm_b: f32) -> f64 {
    if norm_a == 0.0 || norm_b == 0.0 {
        ZERO_NORM_SCORE
    } else {
        (dot / (norm_a * norm_b)).clamp(-1.0, 1.0) as f64
    }
}

/// A growable set of equal-dimension `f32` vectors in blocks of 8.
///
/// Block `b` holds vectors `8b .. 8b + 8` dimension-major: `data[b * dim + i]`
/// is component `i` of those 8 vectors, one per lane, and lanes past
/// [`VecArena::len`] in the last block hold zeros. There is no second,
/// row-major copy: [`VecArena::copy_out`] gathers one vector when a caller
/// needs it whole. `norms[id]` caches `norm_f32` of the pushed vector
/// (recomputing the norm of unchanged bytes is bit-stable, so cached and
/// fresh norms are interchangeable).
#[derive(Debug, Clone, Default)]
pub struct VecArena {
    dim: usize,
    data: Vec<[f32; LANES]>,
    norms: Vec<f32>,
}

impl VecArena {
    /// An empty arena for `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "arena dimension must be positive");
        VecArena {
            dim,
            data: Vec::new(),
            norms: Vec::new(),
        }
    }

    /// Builds an arena from owned rows (all of length `dim`).
    #[cfg(test)]
    pub(crate) fn from_rows(dim: usize, rows: impl IntoIterator<Item = Vec<f32>>) -> Self {
        let mut arena = VecArena::new(dim);
        for row in rows {
            arena.push(&row);
        }
        arena
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored vectors.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// Whether no vector is stored.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Bytes held by the buffers.
    pub fn bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<[f32; LANES]>() + self.norms.capacity() * 4
    }

    /// Block `b`: `dim` rows of one component for each of its 8 lanes.
    #[inline]
    fn block(&self, b: usize) -> &[[f32; LANES]] {
        &self.data[b * self.dim..(b + 1) * self.dim]
    }

    /// Appends one vector, returning its id.
    pub fn push(&mut self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.dim, "vector width != arena dim");
        let id = self.len();
        let lane = id % LANES;
        if lane == 0 {
            self.data.resize(self.data.len() + self.dim, [0.0; LANES]);
        }
        let start = self.data.len() - self.dim;
        for (row, &x) in self.data[start..].iter_mut().zip(v) {
            row[lane] = x;
        }
        self.norms.push(norm_f32(v));
        id as u32
    }

    /// Reserves room for `additional` more vectors.
    pub fn reserve(&mut self, additional: usize) {
        let rows = (self.len() + additional).div_ceil(LANES) * self.dim;
        self.data.reserve(rows - self.data.len());
        self.norms.reserve(additional);
    }

    /// Copies the vector at `id` into `out`, whose length must be the
    /// arena dimension.
    pub fn copy_out(&self, id: usize, out: &mut [f32]) {
        assert!(id < self.len(), "arena id {id} out of range");
        assert_eq!(out.len(), self.dim, "output width != arena dim");
        for (o, row) in out.iter_mut().zip(self.block(id / LANES)) {
            *o = row[id % LANES];
        }
    }

    /// The cached L2 norm of the vector at `id`.
    #[inline]
    pub fn norm(&self, id: usize) -> f32 {
        self.norms[id]
    }

    /// Scores the stored vector `id` against a query with norm `qnorm`,
    /// reading its strided column in `dot_f32`'s order.
    #[inline]
    pub fn score(&self, id: usize, q: &[f32], qnorm: f32) -> f64 {
        debug_assert_eq!(q.len(), self.dim);
        let norm = self.norm(id);
        let lane = id % LANES;
        let dot = q
            .iter()
            .zip(self.block(id / LANES))
            .map(|(x, row)| x * row[lane])
            .sum();
        cosine_score(dot, qnorm, norm)
    }

    /// Scores `q` (norm `qnorm`) against every stored vector, calling
    /// `visit(id, score)` in ascending id order. See the module docs for
    /// why each lane equals `dot_f32` bit for bit.
    #[inline]
    fn scan(&self, q: &[f32], qnorm: f32, mut visit: impl FnMut(u32, f64)) {
        debug_assert_eq!(q.len(), self.dim);
        for b in 0..self.len().div_ceil(LANES) {
            let mut dots = [-0.0f32; LANES];
            for (&x, row) in q.iter().zip(self.block(b)) {
                for (dot, &v) in dots.iter_mut().zip(row) {
                    *dot += x * v;
                }
            }
            let first = b * LANES;
            let lanes = (self.len() - first).min(LANES);
            for (lane, &dot) in dots[..lanes].iter().enumerate() {
                let id = first + lane;
                visit(id as u32, cosine_score(dot, qnorm, self.norms[id]));
            }
        }
    }

    /// Id of the best-scoring stored vector for `q` (ties keep the lowest
    /// id: a later id must score strictly higher; `None` only when the
    /// arena is empty). This is the k-means assignment primitive: a plain
    /// ascending scan, deterministic at any thread count because each call
    /// is independent.
    pub fn nearest(&self, q: &[f32], qnorm: f32) -> Option<u32> {
        let mut best: Option<(f64, u32)> = None;
        self.scan(q, qnorm, |id, score| {
            if best.is_none_or(|(top, _)| score > top) {
                best = Some((score, id));
            }
        });
        best.map(|(_, id)| id)
    }
}

/// Ranks every stored id against `q`, best first, at most `k_max` ids —
/// the exact kernel. Ids are visited in ascending order, which fixes the
/// top-K tie-breaking; every other kernel reproduces this exact visit
/// order when it covers the same id set. `k_max` may be arbitrarily large
/// (it can come off the wire): the heap is sized by the ids it can retain.
pub fn rank_all(arena: &VecArena, q: &[f32], k_max: usize) -> Vec<u32> {
    let mut top = TopK::new(k_max.min(arena.len()));
    arena.scan(q, norm_f32(q), |id, score| top.push(score, id));
    top.into_sorted().into_iter().map(|(_, id)| id).collect()
}

/// Ranks a candidate subset against `q`. `ids` must be sorted ascending so
/// the visit order — and therefore tie-breaking — matches [`rank_all`]
/// restricted to the same set; when `ids` covers every stored id the result
/// is bitwise identical to `rank_all`.
pub fn rank_subset(arena: &VecArena, ids: &[u32], q: &[f32], k_max: usize) -> Vec<u32> {
    debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
    let qnorm = norm_f32(q);
    let mut top = TopK::new(k_max.min(ids.len()));
    for &id in ids {
        top.push(arena.score(id as usize, q, qnorm), id);
    }
    top.into_sorted().into_iter().map(|(_, id)| id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_util::linalg::dot_f32;

    fn arena(rows: &[&[f32]]) -> VecArena {
        VecArena::from_rows(rows[0].len(), rows.iter().map(|r| r.to_vec()))
    }

    fn row(a: &VecArena, id: usize) -> Vec<f32> {
        let mut v = vec![0.0; a.dim()];
        a.copy_out(id, &mut v);
        v
    }

    #[test]
    fn push_get_norm_roundtrip() {
        let mut a = VecArena::new(2);
        assert!(a.is_empty());
        assert_eq!(a.push(&[3.0, 4.0]), 0);
        assert_eq!(a.push(&[1.0, 0.0]), 1);
        assert_eq!(a.len(), 2);
        assert_eq!(row(&a, 0), [3.0, 4.0]);
        assert_eq!(row(&a, 1), [1.0, 0.0]);
        assert_eq!(a.norm(0), 5.0);
        assert_eq!(a.norm(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn width_mismatch_panics() {
        VecArena::new(3).push(&[1.0]);
    }

    #[test]
    fn score_matches_cosine_f32() {
        let a = arena(&[&[1.0, 0.0], &[0.5, 0.5], &[-1.0, 0.0]]);
        let q = [1.0f32, 0.0];
        let qn = norm_f32(&q);
        for id in 0..a.len() {
            let want = rlb_util::linalg::cosine_f32(&q, &row(&a, id)) as f64;
            assert_eq!(a.score(id, &q, qn).to_bits(), want.to_bits(), "id {id}");
        }
    }

    #[test]
    fn zero_norm_scores_below_any_cosine() {
        let a = arena(&[&[0.0, 0.0], &[-1.0, 0.0]]);
        let q = [1.0f32, 0.0];
        let qn = norm_f32(&q);
        assert_eq!(a.score(0, &q, qn), ZERO_NORM_SCORE);
        assert!(a.score(0, &q, qn) < a.score(1, &q, qn));
        // Zero-norm query: every candidate gets the floor score.
        let zq = [0.0f32, 0.0];
        assert_eq!(a.score(1, &zq, norm_f32(&zq)), ZERO_NORM_SCORE);
    }

    #[test]
    fn rank_all_orders_by_similarity_with_zero_norm_last() {
        let a = arena(&[&[0.0, 0.0], &[1.0, 0.1], &[1.0, 0.0], &[-1.0, 0.0]]);
        let ranked = rank_all(&a, &[1.0, 0.0], 4);
        assert_eq!(ranked.len(), 4, "zero-norm vectors still retained");
        assert_eq!(ranked.last(), Some(&0), "empty embedding ranks last");
        assert_eq!(&ranked[..2], &[2, 1]);
    }

    #[test]
    fn rank_subset_of_everything_equals_rank_all() {
        let mut rng = rlb_util::Prng::seed_from_u64(9);
        let rows: Vec<Vec<f32>> = (0..200)
            .map(|_| (0..8).map(|_| rng.f32() * 2.0 - 1.0).collect())
            .collect();
        let a = VecArena::from_rows(8, rows);
        let q: Vec<f32> = (0..8).map(|_| rng.f32()).collect();
        let all_ids: Vec<u32> = (0..a.len() as u32).collect();
        assert_eq!(rank_all(&a, &q, 10), rank_subset(&a, &all_ids, &q, 10));
    }

    #[test]
    fn nearest_breaks_ties_by_lowest_id() {
        let a = arena(&[&[1.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let q = [2.0f32, 0.0];
        assert_eq!(a.nearest(&q, norm_f32(&q)), Some(0));
        assert_eq!(VecArena::new(2).nearest(&q, 2.0), None);
    }

    /// The per-vector reference the lane kernel must reproduce: every id
    /// in ascending order, scored with `cosine_score(dot_f32(q, row), …)`
    /// on the row as pushed.
    fn reference_scan(rows: &[Vec<f32>], q: &[f32]) -> Vec<(u32, f64)> {
        let qnorm = norm_f32(q);
        rows.iter()
            .enumerate()
            .map(|(id, row)| {
                (
                    id as u32,
                    cosine_score(dot_f32(q, row), qnorm, norm_f32(row)),
                )
            })
            .collect()
    }

    /// Rows exercising every case the lanes must keep: random vectors,
    /// zero vectors, signed-zero rows whose products against
    /// [`signed_zero_query`] are all `-0.0` (so the dot product is `-0.0`
    /// only when the accumulator starts at `-0.0`), and exact duplicates
    /// of the previous row, which tie.
    fn twin_rows(len: usize, dim: usize, rng: &mut rlb_util::Prng) -> Vec<Vec<f32>> {
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(len);
        for id in 0..len {
            let row = match id % 5 {
                1 => vec![0.0; dim],
                2 => (0..dim)
                    .map(|i| if i % 2 == 0 { -0.0 } else { 0.5 + rng.f32() })
                    .collect(),
                3 => rows[id - 1].clone(),
                _ => (0..dim).map(|_| rng.f32() * 2.0 - 1.0).collect(),
            };
            rows.push(row);
        }
        rows
    }

    fn signed_zero_query(dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|i| if i % 2 == 0 { 1.0 } else { -0.0 })
            .collect()
    }

    #[test]
    fn lane_kernel_twins_the_per_vector_reference_bitwise() {
        let mut rng = rlb_util::Prng::seed_from_u64(0x1A4E);
        let mut saw_negative_zero = false;
        for dim in [1, 5, 32] {
            for len in 0..=33 {
                let rows = twin_rows(len, dim, &mut rng);
                let a = VecArena::from_rows(dim, rows.clone());
                for (id, want) in rows.iter().enumerate() {
                    assert_eq!(&row(&a, id), want, "copy_out dim {dim} len {len} id {id}");
                }
                let random: Vec<f32> = (0..dim).map(|_| rng.f32() * 2.0 - 1.0).collect();
                let all_ids: Vec<u32> = (0..len as u32).collect();
                for q in [signed_zero_query(dim), random, vec![0.0; dim]] {
                    let qnorm = norm_f32(&q);
                    let want = reference_scan(&rows, &q);
                    let bits = |scores: &[(u32, f64)]| -> Vec<(u32, u64)> {
                        scores.iter().map(|&(id, s)| (id, s.to_bits())).collect()
                    };
                    saw_negative_zero |= want
                        .iter()
                        .any(|&(_, s)| s.to_bits() == (-0.0f64).to_bits());
                    let ctx = format!("dim {dim} len {len} q {q:?}");

                    let mut lanes = Vec::new();
                    a.scan(&q, qnorm, |id, s| lanes.push((id, s)));
                    assert_eq!(bits(&lanes), bits(&want), "scan, {ctx}");
                    let strided: Vec<(u32, f64)> = (0..len)
                        .map(|id| (id as u32, a.score(id, &q, qnorm)))
                        .collect();
                    assert_eq!(bits(&strided), bits(&want), "score, {ctx}");

                    for k in [3, len] {
                        let mut top = TopK::new(k.min(len));
                        for &(id, s) in &want {
                            top.push(s, id);
                        }
                        let ranked: Vec<u32> =
                            top.into_sorted().into_iter().map(|(_, id)| id).collect();
                        assert_eq!(rank_all(&a, &q, k), ranked, "rank_all k {k}, {ctx}");
                        assert_eq!(
                            rank_subset(&a, &all_ids, &q, k),
                            ranked,
                            "rank_subset k {k}, {ctx}"
                        );
                    }

                    let mut best: Option<(f64, u32)> = None;
                    for &(id, s) in &want {
                        if best.is_none_or(|(top, _)| s > top) {
                            best = Some((s, id));
                        }
                    }
                    assert_eq!(
                        a.nearest(&q, qnorm),
                        best.map(|(_, id)| id),
                        "nearest, {ctx}"
                    );
                }
            }
        }
        assert!(saw_negative_zero, "some reference score is -0.0");
    }
}
