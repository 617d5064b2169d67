//! Shared record/pair feature extraction used by several matchers.
//!
//! The hot paths (Algorithm 1's 99-threshold sweep, the `[CS, JS]` feature
//! space feeding the 17 complexity measures, and the ESDE matchers) all run
//! over per-record token sets. [`TaskViews`] stores those sets
//! dictionary-interned as [`IdSet`]s — integer merge joins instead of
//! `String` comparisons — and [`TaskViewCache`] shares one build across
//! every consumer so tokenization happens exactly once per record per
//! pipeline run. The `String` token sets ([`TokenSet`], scored by
//! [`rlb_textsim::sets`]) stay the reference: this module's tests rebuild
//! them per record and check every interned score against them bit for bit.

use rlb_data::{MatchingTask, PairRef, Record};
use rlb_textsim::{intern, sets, IdSet, ShardedInterner, TokenInterner, TokenSet};
use std::sync::{Arc, OnceLock};

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

/// Both sources' interned views plus the arity, bundled per task.
///
/// Token views are built eagerly (every consumer needs them); the q-gram
/// views the ESDE q-gram variants use are built lazily on first request and
/// then shared — a roster run fitting SAQ- and SBQ-ESDE in parallel still
/// tokenizes q-grams once.
#[derive(Debug)]
pub struct TaskViews {
    /// Left-source views.
    pub left: RecordViews,
    /// Right-source views.
    pub right: RecordViews,
    /// Shared attribute count.
    pub arity: usize,
    interner: Arc<ShardedInterner>,
    qgram_full: OnceLock<QgramViews>,
    qgram_attr: OnceLock<QgramAttrViews>,
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

/// Records whose q-gram strings exist at once while q-gram views are built.
const QGRAM_CHUNK: usize = 256;

/// Generates `grams` for each record in parallel, one [`QGRAM_CHUNK`] at a
/// time, and interns them in record order; a chunk's strings are dropped
/// before the next chunk is generated. The interner sees the same tokens in
/// the same order as it would after generating everything up front.
fn interned_in_chunks<G: Send, V>(
    records: &[Record],
    grams: impl Fn(&Record) -> G + Sync,
    mut intern: impl FnMut(&G) -> V,
) -> Vec<V> {
    let mut out = Vec::with_capacity(records.len());
    for chunk in records.chunks(QGRAM_CHUNK) {
        let generated = rlb_util::par::par_map(chunk, &grams);
        out.extend(generated.iter().map(&mut intern));
    }
    out
}

/// Interns pre-tokenized records, appending the resulting views to `out`.
/// Sequential in record order, so a fresh interner assigns a deterministic
/// dictionary; similarity outputs are id-label-independent either way (see
/// the twin-policy note on [`ShardedInterner`]).
fn intern_into(
    token_lists: Vec<Vec<Vec<String>>>,
    interner: &ShardedInterner,
    out: &mut RecordViews,
) {
    out.full.reserve(token_lists.len());
    out.per_attr.reserve(token_lists.len());
    for attrs in token_lists {
        let attr_sets: Vec<IdSet> = attrs
            .into_iter()
            .map(|toks| IdSet::from_tokens_shared(interner, toks.iter()))
            .collect();
        out.full.push(IdSet::union_of(&attr_sets));
        out.per_attr.push(attr_sets);
    }
}

impl TaskViews {
    /// Computes the token views for a task (tokenization parallel, interning
    /// sequential; one dictionary shared by both sources).
    pub fn build(task: &MatchingTask) -> Self {
        Self::build_with(task, Arc::new(ShardedInterner::new()))
    }

    /// [`TaskViews::build`] against a caller-supplied dictionary. The
    /// resident service builds its first views this way and then extends
    /// them through the same interner on every ingest.
    pub fn build_with(task: &MatchingTask, interner: Arc<ShardedInterner>) -> Self {
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
        intern_into(left_toks, &interner, &mut left);
        intern_into(right_toks, &interner, &mut right);
        TaskViews {
            left,
            right,
            arity,
            interner,
            qgram_full: OnceLock::new(),
            qgram_attr: OnceLock::new(),
        }
    }

    /// The shared token dictionary behind these views.
    pub fn interner(&self) -> &Arc<ShardedInterner> {
        &self.interner
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

    /// Schema-agnostic q-gram views (built on first call, then cached).
    /// `task` must be the task the views were built from.
    pub fn qgrams_full(&self, task: &MatchingTask) -> &QgramViews {
        self.qgram_full.get_or_init(|| {
            let mut interner = TokenInterner::new();
            let mut build = |records: &[Record]| -> Vec<Vec<IdSet>> {
                let grams = |r: &Record| -> Vec<Vec<String>> {
                    let text = r.full_text();
                    ESDE_Q_RANGE
                        .map(|q| rlb_textsim::tokenize::qgrams(&text, q))
                        .collect()
                };
                interned_in_chunks(records, grams, |per_q| {
                    per_q
                        .iter()
                        .map(|g| IdSet::from_tokens(&mut interner, g.iter()))
                        .collect()
                })
            };
            QgramViews {
                left: build(&task.left.records),
                right: build(&task.right.records),
            }
        })
    }

    /// Schema-based q-gram views (built on first call, then cached).
    pub fn qgrams_per_attr(&self, task: &MatchingTask) -> &QgramAttrViews {
        self.qgram_attr.get_or_init(|| {
            let arity = self.arity;
            let mut interner = TokenInterner::new();
            let mut build = |records: &[Record]| -> Vec<Vec<Vec<IdSet>>> {
                let grams = |r: &Record| -> Vec<Vec<Vec<String>>> {
                    (0..arity)
                        .map(|a| {
                            ESDE_Q_RANGE
                                .map(|q| rlb_textsim::tokenize::qgrams(r.value(a), q))
                                .collect()
                        })
                        .collect()
                };
                interned_in_chunks(records, grams, |attrs| {
                    attrs
                        .iter()
                        .map(|per_q| {
                            per_q
                                .iter()
                                .map(|g| IdSet::from_tokens(&mut interner, g.iter()))
                                .collect()
                        })
                        .collect()
                })
            };
            QgramAttrViews {
                left: build(&task.left.records),
                right: build(&task.right.records),
            }
        })
    }

    /// The q-gram views if already built (panics otherwise — callers must
    /// have gone through [`TaskViews::qgrams_full`] during preparation).
    pub fn qgrams_full_built(&self) -> &QgramViews {
        self.qgram_full.get().expect("qgrams_full not built")
    }

    /// The per-attribute q-gram views if already built.
    pub fn qgrams_per_attr_built(&self) -> &QgramAttrViews {
        self.qgram_attr.get().expect("qgrams_per_attr not built")
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

    /// The shared views.
    pub fn views(&self) -> &TaskViews {
        &self.views
    }

    /// Extends this cache over records appended to `task` since it was
    /// built, returning a new cache. Existing per-record views are reused
    /// (cloned id vectors — no re-tokenization, no re-interning) and only
    /// the appended tail is tokenized and interned, through the *same*
    /// shared dictionary; the interner is append-only, so the old ids stay
    /// valid. Readers holding the previous `Arc` are never disturbed.
    ///
    /// The q-gram views are deliberately not carried over: they intern
    /// through their own per-build dictionary, so they rebuild lazily on
    /// first use after an extension.
    ///
    /// # Panics
    /// If `task` has fewer records on either side than this cache covers,
    /// or a different arity — extension is strictly append-only.
    pub fn extended(&self, task: &MatchingTask) -> TaskViewCache {
        let arity = task.left.arity().max(task.right.arity());
        assert_eq!(arity, self.views.arity, "arity changed across extension");
        let interner = self.views.interner.clone();
        let extend_side = |old: &RecordViews, records: &[Record]| -> RecordViews {
            assert!(
                records.len() >= old.full.len(),
                "records shrank across extension ({} -> {})",
                old.full.len(),
                records.len()
            );
            let tail = tokenize_source(&records[old.full.len()..], arity);
            let mut out = old.clone();
            intern_into(tail, &interner, &mut out);
            out
        };
        let left = extend_side(&self.views.left, &task.left.records);
        let right = extend_side(&self.views.right, &task.right.records);
        TaskViewCache {
            views: Arc::new(TaskViews {
                left,
                right,
                arity,
                interner,
                qgram_full: OnceLock::new(),
                qgram_attr: OnceLock::new(),
            }),
        }
    }
}

impl std::ops::Deref for TaskViewCache {
    type Target = TaskViews;

    fn deref(&self) -> &TaskViews {
        &self.views
    }
}

/// Magellan-style feature vector for one pair: eight similarity functions
/// per attribute (token cosine/jaccard, 3-gram jaccard, Jaro, Jaro-Winkler,
/// Levenshtein, symmetric Monge-Elkan over Jaro-Winkler, exact match), with
/// a both-missing indicator convention of 0.5.
pub fn magellan_features(task: &MatchingTask, p: PairRef) -> Vec<f64> {
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

    #[test]
    fn qgram_views_build_once_and_cover_records() {
        let task = small(0.3, 8);
        let cache = TaskViewCache::build(&task);
        let qv = cache.qgrams_full(&task);
        assert_eq!(qv.left.len(), task.left.len());
        assert_eq!(qv.left[0].len(), ESDE_Q_RANGE.count());
        // Second request returns the same allocation (lazy build is shared).
        assert!(std::ptr::eq(qv, cache.qgrams_full_built()));
        let qa = cache.qgrams_per_attr(&task);
        assert_eq!(qa.right.len(), task.right.len());
        assert_eq!(qa.right[0].len(), cache.arity);
        assert_eq!(qa.right[0][0].len(), ESDE_Q_RANGE.count());
    }

    #[test]
    fn cache_clones_share_views() {
        let task = small(0.3, 9);
        let cache = TaskViewCache::build(&task);
        let clone = cache.clone();
        assert!(std::ptr::eq(cache.views(), clone.views()));
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
        // Build on a prefix, then extend in two unequal steps (the second
        // leaves one side untouched) up to the full task.
        let cache = TaskViewCache::build(&prefix_task(&task, nl / 2, nr / 3));
        let cache = cache.extended(&prefix_task(&task, nl - 1, nr));
        let grown = cache.extended(&task);
        let batch = TaskViewCache::build(&task);
        assert_eq!(grown.left.full.len(), nl);
        assert_eq!(grown.right.full.len(), nr);
        for lp in task.all_pairs() {
            let p = lp.pair;
            let [gc, gj] = grown.cs_js(p);
            let [bc, bj] = batch.cs_js(p);
            assert_eq!(gc.to_bits(), bc.to_bits());
            assert_eq!(gj.to_bits(), bj.to_bits());
            for (a, b) in grown
                .sa_features(p)
                .iter()
                .chain(grown.sb_features(p).iter())
                .zip(batch.sa_features(p).iter().chain(&batch.sb_features(p)))
            {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn extension_shares_the_interner_and_reuses_old_views() {
        let task = small(0.3, 12);
        let prefix = prefix_task(&task, task.left.len() - 2, task.right.len());
        let cache = TaskViewCache::build(&prefix);
        let vocab_before = cache.vocab_size();
        let grown = cache.extended(&task);
        // Same dictionary object; it can only have grown.
        assert!(Arc::ptr_eq(cache.interner(), grown.interner()));
        assert!(grown.vocab_size() >= vocab_before);
        // Old per-record views carry over untouched.
        assert_eq!(grown.left.full[0], cache.left.full[0]);
        // The previous cache still answers queries (readers undisturbed).
        let p = prefix.train[0].pair;
        assert_eq!(cache.cs_js(p)[0].to_bits(), grown.cs_js(p)[0].to_bits());
    }

    #[test]
    fn empty_extension_is_identity_on_views() {
        let task = small(0.3, 13);
        let cache = TaskViewCache::build(&task);
        let same = cache.extended(&task);
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
