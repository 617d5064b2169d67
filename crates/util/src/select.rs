//! Top-k selection helpers used by nearest-neighbour code paths
//! (neighborhood complexity measures, embedding-based blocking).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(score, payload)` entry ordered by score only.
///
/// Wrapping lets us keep a max-heap of the *worst* retained candidates while
/// selecting the `k` largest scores in a single streaming pass.
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    score: f64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Total order; NaN scores are rejected at insertion time.
        self.score
            .partial_cmp(&other.score)
            .expect("NaN score in top-k selection")
    }
}

/// Streaming selector retaining the `k` items with the **largest** scores.
#[derive(Debug, Clone)]
pub struct TopK<T> {
    k: usize,
    // Min-heap via Reverse ordering: the root is the smallest retained score,
    // i.e. the first candidate to evict.
    heap: BinaryHeap<std::cmp::Reverse<Entry<T>>>,
}

impl<T> TopK<T> {
    /// Selector for the `k` largest-scoring items. `k == 0` retains nothing.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Offers one item. NaN scores are ignored.
    pub fn push(&mut self, score: f64, item: T) {
        if self.k == 0 || score.is_nan() {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(std::cmp::Reverse(Entry { score, item }));
        } else if let Some(worst) = self.heap.peek() {
            if score > worst.0.score {
                self.heap.pop();
                self.heap.push(std::cmp::Reverse(Entry { score, item }));
            }
        }
    }

    /// Number of retained items so far.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Retained `(score, item)` pairs, best score first.
    pub fn into_sorted(self) -> Vec<(f64, T)> {
        let mut v: Vec<(f64, T)> = self
            .heap
            .into_iter()
            .map(|r| (r.0.score, r.0.item))
            .collect();
        v.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN survived top-k"));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Indices of the `k` largest values in `scores`, best first.
    fn top_k_indices(scores: &[f64], k: usize) -> Vec<usize> {
        let mut sel = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            sel.push(s, i);
        }
        sel.into_sorted().into_iter().map(|(_, i)| i).collect()
    }

    /// Indices of the `k` smallest values in `dists`, smallest first.
    fn bottom_k_indices(dists: &[f64], k: usize) -> Vec<usize> {
        let mut sel = TopK::new(k);
        for (i, &d) in dists.iter().enumerate() {
            sel.push(-d, i);
        }
        sel.into_sorted().into_iter().map(|(_, i)| i).collect()
    }

    #[test]
    fn keeps_largest_in_order() {
        let scores = [0.1, 0.9, 0.5, 0.7, 0.3];
        assert_eq!(top_k_indices(&scores, 3), vec![1, 3, 2]);
    }

    #[test]
    fn bottom_k_is_mirror() {
        let d = [5.0, 1.0, 3.0, 2.0];
        assert_eq!(bottom_k_indices(&d, 2), vec![1, 3]);
    }

    #[test]
    fn k_larger_than_input() {
        assert_eq!(top_k_indices(&[2.0, 1.0], 10), vec![0, 1]);
    }

    #[test]
    fn k_zero_and_nan_ignored() {
        assert!(top_k_indices(&[1.0, 2.0], 0).is_empty());
        let mut sel = TopK::new(2);
        sel.push(f64::NAN, 0usize);
        sel.push(1.0, 1usize);
        assert_eq!(sel.into_sorted(), vec![(1.0, 1usize)]);
    }

    #[test]
    fn streaming_matches_sort() {
        let mut rng = crate::Prng::seed_from_u64(3);
        let scores: Vec<f64> = (0..500).map(|_| rng.f64()).collect();
        let got = top_k_indices(&scores, 25);
        let mut expect: Vec<usize> = (0..scores.len()).collect();
        expect.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap());
        expect.truncate(25);
        assert_eq!(got, expect);
    }
}
