//! Dictionary-interned token sets: the integer twin of [`crate::TokenSet`].
//!
//! Every measure in the paper reduces to set-overlap joins over per-record
//! token sets, and the degree-of-linearity sweep touches every labelled pair
//! at 99 thresholds. Comparing heap-allocated `String`s in that loop wastes
//! most of the cycles on pointer chasing and byte-wise `memcmp`. The
//! set-similarity-join literature (PPJoin-family prefix filtering) and
//! DeepBlocker-style pipelines instead intern tokens into dense integer ids
//! once per task and join postings of integers.
//!
//! This module provides exactly that:
//!
//! - [`TokenInterner`] — an FxHash dictionary mapping each distinct token
//!   string to a dense `u32` id (one interner per task, shared across both
//!   sources so ids are comparable);
//! - [`IdSet`] — a sorted, deduplicated `Vec<u32>` with a merge-join
//!   [`IdSet::intersection_size`] that switches to a galloping
//!   (exponential-probe + binary-search) path when the two sets differ in
//!   size by [`GALLOP_RATIO`] or more;
//! - the same cosine / jaccard / dice / overlap API as [`crate::sets`].
//!
//! **Byte-identical-twin policy.** Interning is injective, so
//! `|ids(A) ∩ ids(B)| == |A ∩ B|` and every similarity here evaluates the
//! *same floating-point expression on the same integers* as its
//! [`crate::sets`] counterpart — the reports produced through either
//! representation are bit-for-bit equal. `tests/invariants.rs` asserts this
//! property over random multisets, and the `rlb-matchers` and `rlb-core`
//! unit tests assert it on whole task views and linearity reports. The same
//! argument makes the id labelling irrelevant: a dictionary filled in ingest
//! order (the resident service's) assigns different ids than one filled in
//! batch order, and every similarity still comes out bit-identical.

use rlb_util::FxHashMap;

/// Size ratio at which [`IdSet::intersection_size`] abandons the linear
/// merge for the galloping path: probing the large set per small-set element
/// costs `O(|small| · log |large|)`, which wins once the ratio is skewed.
pub const GALLOP_RATIO: usize = 16;

/// Dictionary mapping token strings to dense `u32` ids.
///
/// Ids are assigned in first-seen order, so building views in record order
/// is deterministic regardless of thread count (tokenization parallelizes;
/// interning is a cheap sequential pass over the token vectors). The
/// dictionary only grows: an id, once assigned, never changes, so sets built
/// against an earlier state stay valid as more records are interned.
#[derive(Debug, Clone, Default)]
pub struct TokenInterner {
    map: FxHashMap<String, u32>,
}

impl TokenInterner {
    /// Empty dictionary.
    pub fn new() -> Self {
        TokenInterner::default()
    }

    /// Id of `token`, interning it if unseen.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.map.get(token) {
            return id;
        }
        let id = self.map.len() as u32;
        self.map.insert(token.to_owned(), id);
        id
    }

    /// Number of distinct tokens interned so far.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no token has been interned.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A sorted, deduplicated set of interned token ids — the integer twin of
/// [`crate::TokenSet`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IdSet {
    ids: Vec<u32>,
}

impl IdSet {
    /// Builds a set from raw ids (sorts + dedups).
    pub fn from_ids(mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        IdSet { ids }
    }

    /// Interns every token and builds the set.
    pub fn from_tokens<I, S>(interner: &mut TokenInterner, tokens: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        IdSet::from_ids(
            tokens
                .into_iter()
                .map(|t| interner.intern(t.as_ref()))
                .collect(),
        )
    }

    /// Union of several already-built sets (k-way via concat + sort; the
    /// inputs are per-attribute sets whose total size is one record's worth
    /// of tokens, so simplicity beats a heap here).
    pub fn union_of(sets: &[IdSet]) -> Self {
        let mut ids = Vec::with_capacity(sets.iter().map(IdSet::len).sum());
        for s in sets {
            ids.extend_from_slice(&s.ids);
        }
        IdSet::from_ids(ids)
    }

    /// Number of distinct ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Sorted ids.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Membership test (binary search).
    pub fn contains(&self, id: u32) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Size of the intersection with `other`.
    ///
    /// Linear merge join when the sets are comparable in size; galloping
    /// probe of the larger set when they differ by [`GALLOP_RATIO`] or more.
    /// Both paths count the same ids, so the result is path-independent.
    pub fn intersection_size(&self, other: &IdSet) -> usize {
        let (small, large) = if self.len() <= other.len() {
            (&self.ids, &other.ids)
        } else {
            (&other.ids, &self.ids)
        };
        if small.is_empty() {
            return 0;
        }
        if large.len() / small.len() >= GALLOP_RATIO {
            gallop_intersection(small, large)
        } else {
            merge_intersection(small, large)
        }
    }

    /// Size of the union with `other`.
    pub fn union_size(&self, other: &IdSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }
}

/// Linear merge join over two sorted id slices.
fn merge_intersection(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Galloping intersection: for each element of the (much smaller) `small`
/// slice, probe forward in `large` with exponentially growing steps, then
/// binary-search the bracketed window. The cursor only moves forward, so the
/// whole pass is `O(|small| · log |large|)`.
fn gallop_intersection(small: &[u32], large: &[u32]) -> usize {
    let mut count = 0;
    let mut base = 0usize;
    for &x in small {
        if base >= large.len() {
            break;
        }
        let mut step = 1usize;
        while base + step < large.len() && large[base + step] < x {
            step <<= 1;
        }
        let hi = (base + step + 1).min(large.len());
        match large[base..hi].binary_search(&x) {
            Ok(i) => {
                count += 1;
                base += i + 1;
            }
            Err(i) => base += i,
        }
    }
    count
}

/// Cosine similarity of two id sets; `0.0` when either is empty.
/// Same expression as [`crate::sets::cosine`], hence bit-identical output.
pub fn cosine(a: &IdSet, b: &IdSet) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    a.intersection_size(b) as f64 / ((a.len() as f64) * (b.len() as f64)).sqrt()
}

/// Jaccard similarity of two id sets; `0.0` when both are empty.
pub fn jaccard(a: &IdSet, b: &IdSet) -> f64 {
    let union = a.union_size(b);
    if union == 0 {
        return 0.0;
    }
    a.intersection_size(b) as f64 / union as f64
}

/// Dice similarity of two id sets; `0.0` when both are empty.
pub fn dice(a: &IdSet, b: &IdSet) -> f64 {
    let total = a.len() + b.len();
    if total == 0 {
        return 0.0;
    }
    2.0 * a.intersection_size(b) as f64 / total as f64
}

/// Overlap coefficient; `0.0` when either is empty.
pub fn overlap(a: &IdSet, b: &IdSet) -> f64 {
    let min = a.len().min(b.len());
    if min == 0 {
        return 0.0;
    }
    a.intersection_size(b) as f64 / min as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::{self, TokenSet};

    fn both(words: &[&str], interner: &mut TokenInterner) -> (TokenSet, IdSet) {
        (
            TokenSet::new(words.iter().copied()),
            IdSet::from_tokens(interner, words.iter()),
        )
    }

    #[test]
    fn interner_assigns_dense_stable_ids() {
        let mut it = TokenInterner::new();
        assert!(it.is_empty());
        let a = it.intern("apple");
        let b = it.intern("banana");
        assert_eq!(it.intern("apple"), a);
        assert_eq!((a, b), (0, 1));
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn from_tokens_sorts_and_dedups() {
        let mut it = TokenInterner::new();
        // Interned in appearance order b=0, a=1, c=2; the set sorts by id.
        let s = IdSet::from_tokens(&mut it, ["b", "a", "b", "c"]);
        assert_eq!(s.ids(), &[0, 1, 2]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(1));
        assert!(!s.contains(7));
    }

    #[test]
    fn similarities_match_string_twin_on_known_values() {
        let mut it = TokenInterner::new();
        let (ta, ia) = both(&["a", "b", "c", "d"], &mut it);
        let (tb, ib) = both(&["c", "d"], &mut it);
        assert_eq!(ia.intersection_size(&ib), ta.intersection_size(&tb));
        assert_eq!(ia.union_size(&ib), ta.union_size(&tb));
        assert_eq!(cosine(&ia, &ib).to_bits(), sets::cosine(&ta, &tb).to_bits());
        assert_eq!(
            jaccard(&ia, &ib).to_bits(),
            sets::jaccard(&ta, &tb).to_bits()
        );
        assert_eq!(dice(&ia, &ib).to_bits(), sets::dice(&ta, &tb).to_bits());
        assert_eq!(
            overlap(&ia, &ib).to_bits(),
            sets::overlap(&ta, &tb).to_bits()
        );
    }

    #[test]
    fn empty_sets_are_safe() {
        let e = IdSet::default();
        let s = IdSet::from_ids(vec![3, 1]);
        for f in [cosine, jaccard, dice, overlap] {
            assert_eq!(f(&e, &s), 0.0);
            assert_eq!(f(&e, &e), 0.0);
        }
        assert_eq!(e.intersection_size(&s), 0);
    }

    #[test]
    fn gallop_path_agrees_with_merge_path() {
        // |large| / |small| >= GALLOP_RATIO forces the galloping branch;
        // compare against a plain merge on the same data.
        let large: Vec<u32> = (0..400).map(|i| i * 3).collect();
        for small in [
            vec![0u32],
            vec![3, 9, 1197],
            vec![1, 2, 4, 5],         // nothing in common
            vec![0, 600, 1197, 2000], // hits at both ends, miss past the end
        ] {
            let a = IdSet::from_ids(small.clone());
            let b = IdSet::from_ids(large.clone());
            assert!(b.len() / a.len() >= GALLOP_RATIO);
            let merged = merge_intersection(a.ids(), b.ids());
            assert_eq!(a.intersection_size(&b), merged, "small {small:?}");
            assert_eq!(b.intersection_size(&a), merged, "small {small:?}");
        }
    }

    #[test]
    fn union_of_equals_pairwise_construction() {
        let sets = [
            IdSet::from_ids(vec![5, 1, 3]),
            IdSet::from_ids(vec![2, 3]),
            IdSet::default(),
            IdSet::from_ids(vec![9, 1]),
        ];
        let merged = IdSet::union_of(&sets);
        assert_eq!(merged.ids(), &[1, 2, 3, 5, 9]);
        assert_eq!(IdSet::union_of(&[]).len(), 0);
    }
}
