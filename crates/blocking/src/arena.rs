//! Flat columnar vector storage and the single cosine ranking kernel.
//!
//! Every nearest-neighbour path in this crate — [`rank_all`] for one query,
//! the parallel exact scan over many, and the IVF probed scan — stores
//! vectors in a [`VecArena`] (one contiguous `f32` buffer, one precomputed
//! L2 norm per vector) and scores candidates through [`cosine_score`] in
//! ascending-id order. Sharing the storage and the float-op sequence is
//! what makes the twin guarantees *bitwise*: any two paths that visit the
//! same ids in the same order produce identical rankings, whatever
//! structure proposed the ids.
//!
//! **Zero-norm policy.** Records with no text (or no q-grams) embed to the
//! zero vector, whose cosine against anything is undefined. The kernel maps
//! any pairing that involves a zero-norm vector to [`ZERO_NORM_SCORE`],
//! strictly below the cosine range `[-1, 1]`, so empty records rank
//! deterministically *after* every real candidate instead of floating
//! mid-list (the old kernel scored them 0.0, above genuinely dissimilar
//! records) or feeding NaN into top-K selection.

use rlb_util::linalg::{dot_f32, norm_f32};
use rlb_util::select::TopK;

/// Score assigned to any (query, candidate) pair where either vector has
/// zero norm: strictly below the cosine range, so such candidates always
/// rank last (ties broken by visit order, which every kernel keeps
/// ascending by id).
pub const ZERO_NORM_SCORE: f64 = -2.0;

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

/// A growable set of equal-dimension `f32` vectors in one flat buffer.
///
/// Replaces the pointer-chasing `Vec<Vec<f32>>` the blocker used to keep:
/// vector `i` lives at `data[i*dim .. (i+1)*dim]`, so a scan touches memory
/// strictly sequentially, and `norms[i]` caches `norm_f32` of that slice
/// (recomputing the norm of unchanged bytes is bit-stable, so cached and
/// fresh norms are interchangeable).
#[derive(Debug, Clone, Default)]
pub struct VecArena {
    dim: usize,
    data: Vec<f32>,
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
    pub fn from_rows(dim: usize, rows: impl IntoIterator<Item = Vec<f32>>) -> Self {
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

    /// Bytes held by the flat buffers.
    pub fn bytes(&self) -> usize {
        self.data.capacity() * 4 + self.norms.capacity() * 4
    }

    /// Appends one vector, returning its id.
    pub fn push(&mut self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.dim, "vector width != arena dim");
        self.data.extend_from_slice(v);
        self.norms.push(norm_f32(v));
        (self.norms.len() - 1) as u32
    }

    /// Reserves room for `additional` more vectors.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional * self.dim);
        self.norms.reserve(additional);
    }

    /// The vector at `id`.
    #[inline]
    pub fn get(&self, id: usize) -> &[f32] {
        &self.data[id * self.dim..(id + 1) * self.dim]
    }

    /// The cached L2 norm of the vector at `id`.
    #[inline]
    pub fn norm(&self, id: usize) -> f32 {
        self.norms[id]
    }

    /// Scores the stored vector `id` against a query with norm `qnorm`.
    #[inline]
    pub fn score(&self, id: usize, q: &[f32], qnorm: f32) -> f64 {
        cosine_score(dot_f32(q, self.get(id)), qnorm, self.norm(id))
    }

    /// Id of the best-scoring stored vector for `q` (ties keep the lowest
    /// id; `None` only when the arena is empty). This is the k-means
    /// assignment primitive: a plain ascending scan, deterministic at any
    /// thread count because each call is independent.
    pub fn nearest(&self, q: &[f32], qnorm: f32) -> Option<u32> {
        if self.is_empty() {
            return None;
        }
        let mut best = (self.score(0, q, qnorm), 0u32);
        for id in 1..self.len() {
            let s = self.score(id, q, qnorm);
            if s > best.0 {
                best = (s, id as u32);
            }
        }
        Some(best.1)
    }
}

/// Ranks every stored id against `q`, best first, at most `k_max` ids —
/// the exact kernel. Ids are visited in ascending order, which fixes the
/// top-K tie-breaking; every other kernel reproduces this exact visit
/// order when it covers the same id set. `k_max` may be arbitrarily large
/// (it can come off the wire): the heap is sized by the ids it can retain.
pub fn rank_all(arena: &VecArena, q: &[f32], k_max: usize) -> Vec<u32> {
    let qnorm = norm_f32(q);
    let mut top = TopK::new(k_max.min(arena.len()));
    for id in 0..arena.len() {
        top.push(arena.score(id, q, qnorm), id as u32);
    }
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

    fn arena(rows: &[&[f32]]) -> VecArena {
        VecArena::from_rows(rows[0].len(), rows.iter().map(|r| r.to_vec()))
    }

    #[test]
    fn push_get_norm_roundtrip() {
        let mut a = VecArena::new(2);
        assert!(a.is_empty());
        assert_eq!(a.push(&[3.0, 4.0]), 0);
        assert_eq!(a.push(&[1.0, 0.0]), 1);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(0), &[3.0, 4.0]);
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
            let want = rlb_util::linalg::cosine_f32(&q, a.get(id)) as f64;
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
}
