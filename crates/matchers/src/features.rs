//! Shared record/pair feature extraction used by several matchers.
//!
//! The hot paths (Algorithm 1's 99-threshold sweep, the `[CS, JS]` feature
//! space feeding the 17 complexity measures, and the ESDE matchers) all run
//! over per-record token sets. [`TaskViews`] stores those sets
//! dictionary-interned as [`IdSet`]s — integer merge joins instead of
//! `String` comparisons — and [`TaskViewCache`] shares one build across
//! every consumer so tokenization happens exactly once per record per
//! pipeline run. The character q-gram views ([`QgramViews`],
//! [`QgramAttrViews`]) have a single consumer each, the ESDE q-gram
//! variant that builds and owns them. They intern each gram through a
//! prefix tree of `(prefix id, last char)` pairs, so no gram is ever a
//! `String`. The `String` sets ([`TokenSet`], scored by
//! [`rlb_textsim::sets`]) stay the reference: this module's tests rebuild
//! them per record and check every interned score against them bit for
//! bit. [`MagellanRows`] holds the Magellan row of every pair the roster's
//! Magellan models and ZeroER read, computed once in parallel.

use rlb_data::{MatchingTask, PairRef, Record};
use rlb_textsim::tokenize::push_padded;
use rlb_textsim::{intern, sets, IdSet, TokenInterner, TokenSet};
use rlb_util::FxHashMap;
use std::borrow::Cow;
use std::sync::Arc;

/// Character q-gram lengths the ESDE q-gram variants sweep (Section IV-C).
pub const ESDE_Q_RANGE: std::ops::RangeInclusive<usize> = 2..=10;

/// Cached per-record interned token views for one source.
#[derive(Debug, Clone)]
pub struct RecordViews {
    /// Schema-agnostic token set over all attributes.
    pub full: Vec<IdSet>,
    /// Token set per attribute.
    pub per_attr: Vec<Vec<IdSet>>,
}

/// Schema-agnostic q-gram views: `[record][q-index]` over the full text,
/// `q` ranging over [`ESDE_Q_RANGE`].
#[derive(Debug, Clone)]
pub struct QgramViews {
    /// Left-source sets.
    pub left: Vec<Vec<IdSet>>,
    /// Right-source sets.
    pub right: Vec<Vec<IdSet>>,
}

/// Schema-based q-gram views: `[record][attr][q-index]`.
#[derive(Debug, Clone)]
pub struct QgramAttrViews {
    /// Left-source sets.
    pub left: Vec<Vec<Vec<IdSet>>>,
    /// Right-source sets.
    pub right: Vec<Vec<Vec<IdSet>>>,
}

/// Both sources' interned token views plus the arity, bundled per task.
///
/// The token dictionary is private: only the build and
/// [`TaskViewCache::extended`] intern through it. The q-gram views have one
/// consumer each (SAQ- and SBQ-ESDE), which builds them itself with
/// [`QgramViews::build`] or [`QgramAttrViews::build`].
#[derive(Debug, Clone)]
pub struct TaskViews {
    /// Left-source views.
    pub left: RecordViews,
    /// Right-source views.
    pub right: RecordViews,
    /// Shared attribute count.
    pub arity: usize,
    interner: TokenInterner,
}

/// Tokenizes every record of a source in parallel: per-attribute token
/// vectors (the full-record tokens are their concatenation, so they are not
/// re-tokenized).
fn tokenize_source(records: &[Record], arity: usize) -> Vec<Vec<Vec<String>>> {
    rlb_util::par::par_map(records, |r| {
        (0..arity)
            .map(|a| rlb_textsim::tokenize::tokens(r.value(a)))
            .collect()
    })
}

/// Interns pre-tokenized records, appending the resulting views to `out`.
/// Sequential in record order, so a fresh interner assigns a deterministic
/// dictionary; similarity outputs are id-label-independent either way (see
/// the twin policy in [`rlb_textsim::intern`]).
fn intern_into(
    token_lists: Vec<Vec<Vec<String>>>,
    interner: &mut TokenInterner,
    out: &mut RecordViews,
) {
    out.full.reserve(token_lists.len());
    out.per_attr.reserve(token_lists.len());
    for attrs in token_lists {
        let attr_sets: Vec<IdSet> = attrs
            .into_iter()
            .map(|toks| IdSet::from_tokens(interner, toks.iter()))
            .collect();
        out.full.push(IdSet::union_of(&attr_sets));
        out.per_attr.push(attr_sets);
    }
}

impl TaskViews {
    /// Computes the token views for a task (tokenization parallel, interning
    /// sequential; one dictionary shared by both sources).
    pub fn build(task: &MatchingTask) -> Self {
        let arity = task.left.arity().max(task.right.arity());
        let left_toks = tokenize_source(&task.left.records, arity);
        let right_toks = tokenize_source(&task.right.records, arity);
        let mut left = RecordViews {
            full: Vec::new(),
            per_attr: Vec::new(),
        };
        let mut right = RecordViews {
            full: Vec::new(),
            per_attr: Vec::new(),
        };
        let mut interner = TokenInterner::new();
        intern_into(left_toks, &mut interner, &mut left);
        intern_into(right_toks, &mut interner, &mut right);
        TaskViews {
            left,
            right,
            arity,
            interner,
        }
    }

    /// Number of distinct tokens in the task's dictionary.
    pub fn vocab_size(&self) -> usize {
        self.interner.len()
    }

    /// `[CS, JS]` — the canonical 2-D representation of Section III-B, used
    /// by the complexity measures and the degree of linearity.
    pub fn cs_js(&self, p: PairRef) -> [f64; 2] {
        let a = &self.left.full[p.left as usize];
        let b = &self.right.full[p.right as usize];
        [intern::cosine(a, b), intern::jaccard(a, b)]
    }

    /// `[CS, JS]` over one attribute's token sets — the schema-aware
    /// linearity variant's per-attribute scores.
    pub fn attr_cs_js(&self, p: PairRef, attr: usize) -> [f64; 2] {
        let a = &self.left.per_attr[p.left as usize][attr];
        let b = &self.right.per_attr[p.right as usize][attr];
        [intern::cosine(a, b), intern::jaccard(a, b)]
    }

    /// Schema-agnostic `[CS, DS, JS]` over full-text tokens (SA-ESDE).
    pub fn sa_features(&self, p: PairRef) -> Vec<f64> {
        let a = &self.left.full[p.left as usize];
        let b = &self.right.full[p.right as usize];
        vec![
            intern::cosine(a, b),
            intern::dice(a, b),
            intern::jaccard(a, b),
        ]
    }

    /// Schema-based `[CS, DS, JS]` per attribute (SB-ESDE), `3·|A|` wide.
    pub fn sb_features(&self, p: PairRef) -> Vec<f64> {
        let mut out = Vec::with_capacity(3 * self.arity);
        for a in 0..self.arity {
            let l = &self.left.per_attr[p.left as usize][a];
            let r = &self.right.per_attr[p.right as usize][a];
            out.push(intern::cosine(l, r));
            out.push(intern::dice(l, r));
            out.push(intern::jaccard(l, r));
        }
        out
    }
}

/// A dictionary of character q-grams kept as a prefix tree: a gram's id is
/// the id of the pair (id of its (q−1)-char prefix, last char), so no gram
/// is allocated, stored or hashed as a string. Distinct grams of any
/// length get distinct ids, so an [`IdSet`] of gram ids has the members of
/// the gram strings' [`TokenSet`] up to a bijection, and cosine, dice and
/// jaccard keep their bits.
#[derive(Default)]
struct GramTrie {
    nodes: FxHashMap<(u32, char), u32>,
    /// The padded text of the value being cut, reused across values.
    padded: Vec<char>,
}

impl GramTrie {
    /// The empty gram, the parent of every 1-char gram (never a node id).
    const ROOT: u32 = u32::MAX;

    /// One set per q of [`ESDE_Q_RANGE`]: the q-grams of `text`, as
    /// `TokenSet::from_qgrams(text, q)` has them.
    fn sets(&mut self, text: &str) -> Vec<IdSet> {
        let (lo, hi) = (*ESDE_Q_RANGE.start(), *ESDE_Q_RANGE.end());
        let mut grams: Vec<Vec<u32>> = vec![Vec::new(); hi - lo + 1];
        self.padded.clear();
        // Padded once for the longest q. The q-grams are the windows of the
        // text padded with q − 1 sentinels: the windows of this buffer that
        // start at `hi − q` or later and at `len − hi` at the latest. A walk
        // down the tree from start `s` meets the ids of the grams that start
        // there, one per length.
        if push_padded(text, hi - 1, &mut self.padded) {
            for s in 0..=self.padded.len() - hi {
                let mut node = Self::ROOT;
                for (q, &c) in (1..).zip(&self.padded[s..s + hi]) {
                    let next = self.nodes.len() as u32;
                    node = *self.nodes.entry((node, c)).or_insert(next);
                    if q >= lo && s + q >= hi {
                        grams[q - lo].push(node);
                    }
                }
            }
        }
        grams.into_iter().map(IdSet::from_ids).collect()
    }
}

impl QgramViews {
    /// Builds the schema-agnostic q-gram views of a task with a dictionary
    /// of their own.
    pub fn build(task: &MatchingTask) -> Self {
        let mut trie = GramTrie::default();
        let mut build = |records: &[Record]| -> Vec<Vec<IdSet>> {
            records.iter().map(|r| trie.sets(&r.full_text())).collect()
        };
        QgramViews {
            left: build(&task.left.records),
            right: build(&task.right.records),
        }
    }
}

impl QgramAttrViews {
    /// Builds the per-attribute q-gram views of a task with a dictionary of
    /// their own.
    pub fn build(task: &MatchingTask) -> Self {
        let arity = task.left.arity().max(task.right.arity());
        let mut trie = GramTrie::default();
        let mut build = |records: &[Record]| -> Vec<Vec<Vec<IdSet>>> {
            records
                .iter()
                .map(|r| (0..arity).map(|a| trie.sets(r.value(a))).collect())
                .collect()
        };
        QgramAttrViews {
            left: build(&task.left.records),
            right: build(&task.right.records),
        }
    }
}

/// Cheaply cloneable handle to one task's [`TaskViews`], built once per task
/// and threaded through `degree_of_linearity`, the assessment, the roster
/// sweep, and the ESDE variants.
#[derive(Debug, Clone)]
pub struct TaskViewCache {
    views: Arc<TaskViews>,
}

impl TaskViewCache {
    /// Builds the views for a task.
    pub fn build(task: &MatchingTask) -> Self {
        TaskViewCache {
            views: Arc::new(TaskViews::build(task)),
        }
    }

    /// Extends this cache over records appended to `task` since it was
    /// built. Only the appended tail is tokenized and interned; old
    /// per-record views and their ids are kept as they are, since the
    /// dictionary only grows.
    ///
    /// The last handle to the views is extended in place. A handle that is
    /// still shared is cloned first, so its other holders keep the views
    /// they had.
    ///
    /// # Panics
    /// If `task` has fewer records on either side than this cache covers,
    /// or a different arity — extension is strictly append-only.
    pub fn extended(self, task: &MatchingTask) -> TaskViewCache {
        let arity = task.left.arity().max(task.right.arity());
        assert_eq!(arity, self.views.arity, "arity changed across extension");
        let mut views = Arc::unwrap_or_clone(self.views);
        let interner = &mut views.interner;
        for (side, records) in [
            (&mut views.left, &task.left.records),
            (&mut views.right, &task.right.records),
        ] {
            assert!(
                records.len() >= side.full.len(),
                "records shrank across extension ({} -> {})",
                side.full.len(),
                records.len()
            );
            let tail = tokenize_source(&records[side.full.len()..], arity);
            intern_into(tail, interner, side);
        }
        TaskViewCache {
            views: Arc::new(views),
        }
    }
}

impl std::ops::Deref for TaskViewCache {
    type Target = TaskViews;

    fn deref(&self) -> &TaskViews {
        &self.views
    }
}

/// The Magellan rows ([`magellan_features`]) of a set of pairs, computed
/// once, in parallel. The roster builds one over every pair its four
/// Magellan models and ZeroER read and hands it to all five. A matcher
/// without one holds an empty table and computes each row as it reads it.
#[derive(Debug, Default)]
pub struct MagellanRows {
    index: FxHashMap<PairRef, usize>,
    rows: Vec<Vec<f64>>,
}

impl MagellanRows {
    /// Computes the row of every distinct pair in `pairs`.
    pub fn build(task: &MatchingTask, pairs: impl IntoIterator<Item = PairRef>) -> Self {
        let mut index = FxHashMap::default();
        let mut distinct = Vec::new();
        for p in pairs {
            index.entry(p).or_insert_with(|| {
                distinct.push(p);
                distinct.len() - 1
            });
        }
        let rows = rlb_util::par::par_map(&distinct, |&p| magellan_features(task, p));
        MagellanRows { index, rows }
    }

    /// The row of `p`: the stored one, or computed now when `p` has none.
    pub fn row(&self, task: &MatchingTask, p: PairRef) -> Cow<'_, [f64]> {
        match self.index.get(&p) {
            Some(&i) => Cow::Borrowed(&self.rows[i]),
            None => Cow::Owned(magellan_features(task, p)),
        }
    }
}

/// Magellan-style feature vector for one pair: eight similarity functions
/// per attribute (token cosine/jaccard, 3-gram jaccard, Jaro, Jaro-Winkler,
/// Levenshtein, symmetric Monge-Elkan over Jaro-Winkler, exact match), with
/// a both-missing indicator convention of 0.5. Each call adds one to the
/// `magellan.rows` counter.
pub fn magellan_features(task: &MatchingTask, p: PairRef) -> Vec<f64> {
    rlb_obs::counter_add("magellan.rows", 1);
    let (l, r) = task.records(p);
    let arity = task.left.arity().max(task.right.arity());
    let mut out = Vec::with_capacity(8 * arity);
    for a in 0..arity {
        let va = l.value(a);
        let vb = r.value(a);
        if va.is_empty() && vb.is_empty() {
            out.extend_from_slice(&[0.5; 8]);
            continue;
        }
        if va.is_empty() || vb.is_empty() {
            out.extend_from_slice(&[0.0; 8]);
            continue;
        }
        let ta = TokenSet::from_text(va);
        let tb = TokenSet::from_text(vb);
        let qa = TokenSet::from_qgrams(va, 3);
        let qb = TokenSet::from_qgrams(vb, 3);
        let toks_a = rlb_textsim::tokens(va);
        let toks_b = rlb_textsim::tokens(vb);
        out.push(sets::cosine(&ta, &tb));
        out.push(sets::jaccard(&ta, &tb));
        out.push(sets::jaccard(&qa, &qb));
        out.push(rlb_textsim::edit::jaro(va, vb));
        out.push(rlb_textsim::edit::jaro_winkler(va, vb));
        out.push(rlb_textsim::edit::levenshtein(va, vb));
        out.push(rlb_textsim::hybrid::monge_elkan_sym(
            &toks_a,
            &toks_b,
            rlb_textsim::edit::jaro_winkler,
        ));
        out.push(f64::from((va.to_lowercase() == vb.to_lowercase()) as u8));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testtask::small;

    #[test]
    fn views_cover_all_records() {
        let task = small(0.3, 1);
        let v = TaskViews::build(&task);
        assert_eq!(v.left.full.len(), task.left.len());
        assert_eq!(v.right.full.len(), task.right.len());
        assert_eq!(v.left.per_attr[0].len(), v.arity);
        assert!(v.vocab_size() > 0);
    }

    #[test]
    fn cs_js_matches_direct_computation() {
        let task = small(0.3, 2);
        let v = TaskViews::build(&task);
        let p = task.train[0].pair;
        let (l, r) = task.records(p);
        let expected = [
            sets::cosine(&l.token_set(), &r.token_set()),
            sets::jaccard(&l.token_set(), &r.token_set()),
        ];
        assert_eq!(v.cs_js(p), expected);
    }

    /// `String` token sets of one record: the full record's, then one per
    /// attribute — the reference the interned [`RecordViews`] must match.
    fn string_views(r: &Record, arity: usize) -> (TokenSet, Vec<TokenSet>) {
        let attrs = (0..arity)
            .map(|a| TokenSet::from_text(r.value(a)))
            .collect();
        (r.token_set(), attrs)
    }

    #[test]
    fn interned_views_equal_string_twin_bitwise() {
        let task = small(0.4, 7);
        let interned = TaskViews::build(&task);
        let arity = interned.arity;
        for lp in task.all_pairs() {
            let p = lp.pair;
            let (l, r) = task.records(p);
            let (lf, la) = string_views(l, arity);
            let (rf, ra) = string_views(r, arity);
            let [ic, ij] = interned.cs_js(p);
            assert_eq!(ic.to_bits(), sets::cosine(&lf, &rf).to_bits());
            assert_eq!(ij.to_bits(), sets::jaccard(&lf, &rf).to_bits());
            let mut strings = vec![
                sets::cosine(&lf, &rf),
                sets::dice(&lf, &rf),
                sets::jaccard(&lf, &rf),
            ];
            for (a, b) in la.iter().zip(&ra) {
                strings.extend([sets::cosine(a, b), sets::dice(a, b), sets::jaccard(a, b)]);
            }
            let interned_feats: Vec<f64> = interned
                .sa_features(p)
                .into_iter()
                .chain(interned.sb_features(p))
                .collect();
            assert_eq!(interned_feats.len(), strings.len());
            for (a, b) in interned_feats.iter().zip(&strings) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Asserts that interned q-gram sets score every measure exactly as
    /// their `String` reference does.
    fn assert_qgram_pair_bitwise(a: &IdSet, b: &IdSet, sa: &TokenSet, sb: &TokenSet) {
        for (i, s) in [
            (intern::cosine(a, b), sets::cosine(sa, sb)),
            (intern::dice(a, b), sets::dice(sa, sb)),
            (intern::jaccard(a, b), sets::jaccard(sa, sb)),
        ] {
            assert_eq!(i.to_bits(), s.to_bits(), "{i} vs {s}");
        }
    }

    /// Checks every q-gram score of `pairs` against the `String` reference.
    fn assert_qgram_views_match_reference(task: &MatchingTask, pairs: &[PairRef]) {
        let full = QgramViews::build(task);
        let attr = QgramAttrViews::build(task);
        let arity = task.left.arity().max(task.right.arity());
        for &p in pairs {
            let (li, ri) = (p.left as usize, p.right as usize);
            let (l, r) = task.records(p);
            let (lt, rt) = (l.full_text(), r.full_text());
            for (qi, q) in ESDE_Q_RANGE.enumerate() {
                assert_qgram_pair_bitwise(
                    &full.left[li][qi],
                    &full.right[ri][qi],
                    &TokenSet::from_qgrams(&lt, q),
                    &TokenSet::from_qgrams(&rt, q),
                );
                for a in 0..arity {
                    assert_qgram_pair_bitwise(
                        &attr.left[li][a][qi],
                        &attr.right[ri][a][qi],
                        &TokenSet::from_qgrams(l.value(a), q),
                        &TokenSet::from_qgrams(r.value(a), q),
                    );
                }
            }
        }
    }

    #[test]
    fn interned_qgram_views_equal_string_reference_bitwise() {
        let task = small(0.4, 7);
        let pairs: Vec<PairRef> = task.all_pairs().map(|lp| lp.pair).collect();
        assert_qgram_views_match_reference(&task, &pairs);
        // Values the ASCII fixture lacks: a lowercase longer than its input
        // (`İ` lowers to two chars), `ß`, non-Latin scripts, digits only,
        // 1-char values, empty and punctuation-only attributes.
        use rlb_data::Source;
        let schema = || vec!["a".to_string(), "b".to_string()];
        let (mut left, mut right) = (Source::new("L", schema()), Source::new("R", schema()));
        for [a, b] in [
            ["İstanbul İİ", "ß Straße"],
            ["Ωμέγα αβγ", "北京 東京"],
            ["x", "7"],
            ["", "--- !!!"],
            ["12345 678", ""],
            ["STRASSE", "i̇stanbul"],
        ] {
            left.push(vec![a.into(), b.into()]);
        }
        for [a, b] in [
            ["i̇stanbul", "SS strasse"],
            ["ωμεγα", "北京"],
            ["X", "7"],
            ["...", ""],
            ["123456", "6"],
            ["", ""],
            ["İİ", "ß"],
        ] {
            right.push(vec![a.into(), b.into()]);
        }
        let edge = MatchingTask {
            name: "edge".into(),
            left,
            right,
            train: vec![],
            val: vec![],
            test: vec![],
        };
        let pairs: Vec<PairRef> = (0..edge.left.len() as u32)
            .flat_map(|l| (0..edge.right.len() as u32).map(move |r| PairRef::new(l, r)))
            .collect();
        assert_qgram_views_match_reference(&edge, &pairs);
    }

    #[test]
    fn qgram_views_build_once_and_cover_records() {
        let task = small(0.3, 8);
        let qv = QgramViews::build(&task);
        assert_eq!(qv.left.len(), task.left.len());
        assert_eq!(qv.left[0].len(), ESDE_Q_RANGE.count());
        let qa = QgramAttrViews::build(&task);
        assert_eq!(qa.right.len(), task.right.len());
        assert_eq!(qa.right[0].len(), task.left.arity().max(task.right.arity()));
        assert_eq!(qa.right[0][0].len(), ESDE_Q_RANGE.count());
    }

    #[test]
    fn cache_clones_share_views() {
        let task = small(0.3, 9);
        let cache = TaskViewCache::build(&task);
        let clone = cache.clone();
        assert!(std::ptr::eq(&*cache, &*clone));
    }

    /// Truncates a task's record stores to a prefix (labelled pairs are
    /// irrelevant here — views are per-record).
    fn prefix_task(task: &MatchingTask, left: usize, right: usize) -> MatchingTask {
        let mut t = task.clone();
        t.left.records.truncate(left);
        t.right.records.truncate(right);
        t
    }

    #[test]
    fn extended_views_match_batch_rebuild_bitwise() {
        let task = small(0.4, 11);
        let (nl, nr) = (task.left.len(), task.right.len());
        let prefix = prefix_task(&task, nl / 2, nr / 3);
        let bits = |v: &TaskViews, p: PairRef| -> Vec<u64> {
            v.cs_js(p)
                .into_iter()
                .chain(v.sa_features(p))
                .chain(v.sb_features(p))
                .map(f64::to_bits)
                .collect()
        };
        let batch = TaskViewCache::build(&task);
        // In-place path: the sole handle is extended in two unequal steps
        // (the second leaves one side untouched) up to the full task.
        let in_place = TaskViewCache::build(&prefix)
            .extended(&prefix_task(&task, nl - 1, nr))
            .extended(&task);
        // Clone path: a second handle stays alive across the extension.
        let old = TaskViewCache::build(&prefix);
        let old_vocab = old.vocab_size();
        let old_pairs: Vec<PairRef> = task
            .all_pairs()
            .map(|lp| lp.pair)
            .filter(|p| (p.left as usize) < nl / 2 && (p.right as usize) < nr / 3)
            .collect();
        let old_bits: Vec<Vec<u64>> = old_pairs.iter().map(|&p| bits(&old, p)).collect();
        let cloned = old.clone().extended(&task);
        for grown in [&in_place, &cloned] {
            assert_eq!(grown.left.full.len(), nl);
            assert_eq!(grown.right.full.len(), nr);
            // The number of distinct tokens does not depend on their ids.
            assert_eq!(grown.vocab_size(), batch.vocab_size());
            for lp in task.all_pairs() {
                assert_eq!(bits(grown, lp.pair), bits(&batch, lp.pair));
            }
        }
        // Old per-record views carry over untouched.
        assert_eq!(cloned.left.full[..nl / 2], old.left.full[..]);
        assert_eq!(cloned.right.full[..nr / 3], old.right.full[..]);
        // The surviving old handle still answers as before the extension.
        assert_eq!(
            (old.left.full.len(), old.right.full.len()),
            (nl / 2, nr / 3)
        );
        assert_eq!(old.vocab_size(), old_vocab);
        assert!(!old_pairs.is_empty());
        for (&p, before) in old_pairs.iter().zip(&old_bits) {
            assert_eq!(&bits(&old, p), before);
        }
    }

    #[test]
    fn extension_shares_the_interner_and_reuses_old_views() {
        let task = small(0.3, 12);
        let prefix = prefix_task(&task, task.left.len() - 2, task.right.len());
        let cache = TaskViewCache::build(&prefix);
        let vocab_before = cache.vocab_size();
        // Both paths grow the old dictionary rather than start a new one:
        // the sole handle in place, a shared one from a clone.
        let in_place = TaskViewCache::build(&prefix).extended(&task);
        let grown = cache.clone().extended(&task);
        for g in [&in_place, &grown] {
            // It can only have grown, and old tokens keep their ids, so
            // old per-record views carry over untouched.
            assert!(g.vocab_size() >= vocab_before);
            assert_eq!(g.left.full[0], cache.left.full[0]);
            // The previous cache still answers queries (readers undisturbed).
            let p = prefix.train[0].pair;
            assert_eq!(cache.cs_js(p)[0].to_bits(), g.cs_js(p)[0].to_bits());
        }
    }

    #[test]
    fn empty_extension_is_identity_on_views() {
        let task = small(0.3, 13);
        let cache = TaskViewCache::build(&task);
        let same = cache.clone().extended(&task);
        assert_eq!(same.left.full.len(), cache.left.full.len());
        assert_eq!(same.left.full, cache.left.full);
        assert_eq!(same.right.full, cache.right.full);
        assert_eq!(same.vocab_size(), cache.vocab_size());
    }

    #[test]
    fn feature_widths() {
        let task = small(0.3, 3);
        let v = TaskViews::build(&task);
        let p = task.train[0].pair;
        assert_eq!(v.sa_features(p).len(), 3);
        assert_eq!(v.sb_features(p).len(), 3 * v.arity);
        assert_eq!(magellan_features(&task, p).len(), 8 * v.arity);
    }

    #[test]
    fn all_features_in_unit_interval() {
        let task = small(0.6, 4);
        let v = TaskViews::build(&task);
        for lp in task.all_pairs().take(100) {
            for f in v
                .sa_features(lp.pair)
                .into_iter()
                .chain(v.sb_features(lp.pair))
                .chain(magellan_features(&task, lp.pair))
            {
                assert!((0.0..=1.0).contains(&f), "{f}");
            }
        }
    }

    #[test]
    fn matches_have_higher_sa_features() {
        let task = small(0.3, 5);
        let v = TaskViews::build(&task);
        let mut pos = 0.0;
        let mut npos = 0;
        let mut neg = 0.0;
        let mut nneg = 0;
        for lp in task.all_pairs() {
            let f = v.sa_features(lp.pair)[0];
            if lp.is_match {
                pos += f;
                npos += 1;
            } else {
                neg += f;
                nneg += 1;
            }
        }
        assert!(pos / npos as f64 > neg / nneg as f64);
    }

    #[test]
    fn missing_value_conventions() {
        use rlb_data::Source;
        let mut left = Source::new("L", vec!["a".into(), "b".into()]);
        let mut right = Source::new("R", vec!["a".into(), "b".into()]);
        left.push(vec!["x".into(), String::new()]);
        right.push(vec!["x".into(), String::new()]);
        right.push(vec!["x".into(), "y".into()]);
        let task = MatchingTask {
            name: "m".into(),
            left,
            right,
            train: vec![],
            val: vec![],
            test: vec![],
        };
        // Both missing -> 0.5 block.
        let f = magellan_features(&task, PairRef::new(0, 0));
        assert_eq!(&f[8..16], &[0.5; 8]);
        // One missing -> 0.0 block.
        let f = magellan_features(&task, PairRef::new(0, 1));
        assert_eq!(&f[8..16], &[0.0; 8]);
    }
}
