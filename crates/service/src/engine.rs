//! The resident linkage engine: one long-lived owner of the record store,
//! the task views, and the embedding index.
//!
//! Every batch binary in the workspace follows build-task → measure → exit.
//! The engine inverts that: it is constructed once, then absorbs ingest
//! batches over its lifetime, keeping three incremental structures in sync:
//!
//! - the [`MatchingTask`] record store and labelled splits (append-only),
//! - a [`TaskViewCache`] whose token dictionary grows in place with each
//!   ingest (no re-tokenization of old records),
//! - an [`NnIndex`] over the right source for embedding top-K blocking,
//!   with the left records' embeddings beside it as the resident queries
//!   that [`Engine::link`] ranks (embedded once, at ingest).
//!
//! [`Engine::ingest`] is the only writer: it takes `&mut self`, and nothing
//! is ever removed from any of them.
//!
//! **Incremental-twin policy.** After any sequence of ingests, the engine's
//! [`Engine::assess`] and [`Engine::link`] outputs are byte-identical
//! (`f64::to_bits`) to a from-scratch batch rebuild over the same records —
//! similarity measures depend only on set sizes, which injective interning
//! preserves whatever order ids were assigned in, and the deterministic
//! embedding of a record depends only on its own text. The property tests in
//! `tests/incremental.rs` and `benches/service.rs` assert this end to end.
//!
//! **Scores at ingest.** [`Engine::ingest`] scores each new labelled pair's
//! `[CS, JS]` similarity row once, right after extending the views, and
//! keeps the rows parallel to the splits. The record store is append-only,
//! so a row can never go stale; [`Engine::assess`] feeds the stored rows to
//! [`assess_from_scores`] — the same downstream entry the batch path uses,
//! which is why its results stay byte-identical to a batch rebuild. Every
//! `&self` method is a plain read under the service's `RwLock` — see
//! `protocol.rs` for the per-op lock choice.

use rlb_blocking::{EmbeddingNnBlocker, IndexSide, NnIndex, Retrieval, VecArena};
use rlb_core::assessment::{assess_from_scores, Assessment};
use rlb_data::{LabeledPair, MatchingTask, PairRef, Source};
use rlb_matchers::features::TaskViewCache;
use rlb_util::FxHashSet;

/// Which labelled split an ingested pair lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Training pairs `T`.
    Train,
    /// Validation pairs `V`.
    Val,
    /// Testing pairs `C`.
    Test,
}

impl Split {
    /// Parses the wire name (`"train"` / `"val"` / `"test"`).
    pub fn parse(name: &str) -> Result<Split, String> {
        match name {
            "train" => Ok(Split::Train),
            "val" => Ok(Split::Val),
            "test" => Ok(Split::Test),
            other => Err(format!("unknown split {other:?} (train|val|test)")),
        }
    }
}

/// One labelled pair in an ingest batch. Ids may reference records appended
/// by the same batch.
#[derive(Debug, Clone, Copy)]
pub struct IngestPair {
    /// Left record id.
    pub left: u32,
    /// Right record id.
    pub right: u32,
    /// Ground-truth label.
    pub is_match: bool,
    /// Destination split.
    pub split: Split,
}

/// One ingest batch: new records for either source plus labelled pairs.
/// Every field may be empty.
#[derive(Debug, Clone, Default)]
pub struct IngestBatch {
    /// Attribute names; only honoured by the batch that first defines the
    /// schema (the engine derives `a0..` from the first record otherwise).
    pub attributes: Option<Vec<String>>,
    /// New left-source records, one value per attribute.
    pub left: Vec<Vec<String>>,
    /// New right-source records.
    pub right: Vec<Vec<String>>,
    /// New labelled pairs.
    pub pairs: Vec<IngestPair>,
}

/// Counts after a successful ingest.
#[derive(Debug, Clone, Copy)]
pub struct IngestStats {
    /// Total left records now stored.
    pub left: usize,
    /// Total right records now stored.
    pub right: usize,
    /// Total labelled pairs now stored.
    pub pairs: usize,
    /// Distinct tokens in the task views' dictionary; equal to a batch
    /// rebuild's, whatever order the records were ingested in.
    pub vocab: usize,
}

/// The resident engine. See the module docs for the incremental structures
/// and the twin policy.
#[derive(Debug)]
pub struct Engine {
    task: MatchingTask,
    views: Option<TaskViewCache>,
    index: NnIndex,
    /// Embeddings of the left records, in record order: the queries of
    /// every `link`.
    queries: VecArena,
    seen_pairs: FxHashSet<PairRef>,
    schema_fixed: bool,
    /// `[CS, JS]` rows parallel to `task.train`, `task.val`, `task.test`.
    scores: [Vec<[f64; 2]>; 3],
}

impl Engine {
    /// An empty engine. The schema (attribute names) is fixed by the first
    /// ingest that carries records.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let blocker = EmbeddingNnBlocker::default();
        Engine {
            task: MatchingTask {
                name: name.clone(),
                left: Source::new(format!("{name}-left"), Vec::new()),
                right: Source::new(format!("{name}-right"), Vec::new()),
                train: Vec::new(),
                val: Vec::new(),
                test: Vec::new(),
            },
            views: None,
            queries: VecArena::new(blocker.dim),
            index: blocker.index(IndexSide::Right),
            seen_pairs: FxHashSet::default(),
            schema_fixed: false,
            scores: Default::default(),
        }
    }

    /// The record store and labelled splits as currently ingested.
    pub fn task(&self) -> &MatchingTask {
        &self.task
    }

    /// Current counts.
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            left: self.task.left.len(),
            right: self.task.right.len(),
            pairs: self.task.total_pairs(),
            vocab: self.views.as_ref().map_or(0, |v| v.vocab_size()),
        }
    }

    /// Validates and applies one ingest batch. On error nothing is mutated;
    /// on success records are appended to the store, the views are extended
    /// in place over the new records, new right records enter the embedding
    /// index, new left records are embedded as link queries, and pairs join
    /// their splits with their `[CS, JS]` rows.
    pub fn ingest(&mut self, batch: IngestBatch) -> Result<IngestStats, String> {
        let _span = rlb_obs::span!("serve.ingest", "{}+{}", batch.left.len(), batch.right.len());
        self.validate_batch(&batch)?;
        if !self.schema_fixed {
            if let Some(attrs) = self.infer_schema(&batch) {
                self.task.left = Source::new(format!("{}-left", self.task.name), attrs.clone());
                self.task.right = Source::new(format!("{}-right", self.task.name), attrs);
                self.schema_fixed = true;
            }
        }
        let (left_start, right_start) = (self.task.left.len(), self.task.right.len());
        let batch_records = (batch.left.len() + batch.right.len()) as u64;
        for values in batch.left {
            self.task.left.push(values);
        }
        for values in batch.right {
            self.task.right.push(values);
        }
        if self.schema_fixed {
            self.views = Some(match self.views.take() {
                Some(v) => v.extended(&self.task),
                None => TaskViewCache::build(&self.task),
            });
        }
        self.index
            .insert_all(&self.task.right.records[right_start..]);
        self.index
            .embed(&self.task.left.records[left_start..], &mut self.queries);
        let views = self.views.as_ref();
        let rows = rlb_util::par::par_map(&batch.pairs, |p| {
            views
                .expect("validation admits pairs only once records fix the schema")
                .cs_js(PairRef::new(p.left, p.right))
        });
        for (p, row) in batch.pairs.iter().zip(rows) {
            let lp = LabeledPair::new(p.left, p.right, p.is_match);
            self.seen_pairs.insert(lp.pair);
            let (split, scores) = match p.split {
                Split::Train => (&mut self.task.train, &mut self.scores[0]),
                Split::Val => (&mut self.task.val, &mut self.scores[1]),
                Split::Test => (&mut self.task.test, &mut self.scores[2]),
            };
            split.push(lp);
            scores.push(row);
        }
        rlb_obs::counter_add("serve.assess_computed", batch.pairs.len() as u64);
        rlb_obs::counter_add("serve.records_ingested", batch_records);
        Ok(self.stats())
    }

    /// The embedding index over the right source (for ANN state: trained,
    /// list count, trainings).
    pub fn index(&self) -> &NnIndex {
        &self.index
    }

    /// Embedding top-K blocking over everything ingested so far: the right
    /// source is indexed incrementally, and every left record, embedded at
    /// its ingest, is ranked against all of it.
    pub fn link(&self, k: usize) -> Retrieval {
        let _span = rlb_obs::span!("serve.link", "k={k}");
        self.index.retrieval(&self.queries, k.max(1))
    }

    /// IVF-probed variant of [`Engine::link`]. `nprobe` defaults to the
    /// index's configured [`rlb_blocking::IvfParams::nprobe`]; at exhaustive
    /// probing (or while the index is still below its training threshold)
    /// the result is bitwise identical to [`Engine::link`].
    pub fn link_ann(&self, k: usize, nprobe: Option<usize>) -> Retrieval {
        let _span = rlb_obs::span!("serve.link", "ann k={k}");
        self.index.retrieval_ann(&self.queries, k.max(1), nprobe)
    }

    /// A-priori assessment (linearity, complexity, verdict flags) over the
    /// current store, from the `[CS, JS]` rows scored at ingest.
    ///
    /// A pair's similarity depends only on its two records' token sets,
    /// which injective interning preserves, so the output is byte-identical
    /// to `rlb_core::assess_with` over freshly built views (asserted in
    /// `tests/incremental.rs` and `benches/service.rs`).
    pub fn assess(&self) -> Result<Assessment, String> {
        if self.views.is_none() {
            return Err("nothing ingested yet".to_string());
        }
        let _span = rlb_obs::span!("serve.assess", "{}", self.task.name);
        let pairs: Vec<LabeledPair> = self.task.all_pairs().copied().collect();
        let scores: Vec<[f64; 2]> = self.scores.concat();
        rlb_obs::counter_add("linearity.pairs", pairs.len() as u64);
        assess_from_scores(&self.task, &[], &pairs, &scores).map_err(|e| e.to_string())
    }

    fn infer_schema(&self, batch: &IngestBatch) -> Option<Vec<String>> {
        if let Some(attrs) = &batch.attributes {
            return Some(attrs.clone());
        }
        batch
            .left
            .iter()
            .chain(batch.right.iter())
            .next()
            .map(|first| (0..first.len()).map(|i| format!("a{i}")).collect())
    }

    /// All-or-nothing validation: record widths against the (possibly
    /// about-to-be-fixed) schema, pair ids against post-append sizes, and
    /// pair uniqueness against everything already stored.
    fn validate_batch(&self, batch: &IngestBatch) -> Result<(), String> {
        let arity = if self.schema_fixed {
            if batch.attributes.is_some() {
                return Err("attributes may only be set before the first records".into());
            }
            self.task.left.arity()
        } else {
            match self.infer_schema(batch) {
                Some(attrs) => attrs.len(),
                None if batch.pairs.is_empty() => return Ok(()),
                None => return Err("pairs ingested before any records".into()),
            }
        };
        for (side, records) in [("left", &batch.left), ("right", &batch.right)] {
            for (i, values) in records.iter().enumerate() {
                if values.len() != arity {
                    return Err(format!(
                        "{side} record {i} has {} values, schema has {arity}",
                        values.len()
                    ));
                }
            }
        }
        let left_len = self.task.left.len() + batch.left.len();
        let right_len = self.task.right.len() + batch.right.len();
        let mut batch_pairs = FxHashSet::default();
        for (i, p) in batch.pairs.iter().enumerate() {
            if (p.left as usize) >= left_len {
                return Err(format!("pair {i}: left id {} out of range", p.left));
            }
            if (p.right as usize) >= right_len {
                return Err(format!("pair {i}: right id {} out of range", p.right));
            }
            let pair = PairRef::new(p.left, p.right);
            if self.seen_pairs.contains(&pair) || !batch_pairs.insert(pair) {
                return Err(format!(
                    "pair {i}: ({}, {}) already labelled",
                    p.left, p.right
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(l: u32, r: u32, m: bool, split: Split) -> IngestPair {
        IngestPair {
            left: l,
            right: r,
            is_match: m,
            split,
        }
    }

    fn recs(names: &[&str]) -> Vec<Vec<String>> {
        names.iter().map(|n| vec![n.to_string()]).collect()
    }

    #[test]
    fn ingest_then_stats_then_link() {
        let mut e = Engine::new("t");
        let stats = e
            .ingest(IngestBatch {
                attributes: Some(vec!["name".into()]),
                left: recs(&["acme widget", "zen speaker"]),
                right: recs(&["acme wdget", "zen speakers", "junk"]),
                pairs: vec![
                    pair(0, 0, true, Split::Train),
                    pair(1, 2, false, Split::Test),
                ],
            })
            .unwrap();
        assert_eq!((stats.left, stats.right, stats.pairs), (2, 3, 2));
        assert!(stats.vocab > 0);
        let ret = e.link(2);
        assert_eq!(ret.ranked.len(), 2, "one ranking per left record");
        assert_eq!(e.task().validate(), Ok(()));
    }

    #[test]
    fn failed_ingest_mutates_nothing() {
        let mut e = Engine::new("t");
        e.ingest(IngestBatch {
            left: recs(&["a"]),
            right: recs(&["b"]),
            pairs: vec![pair(0, 0, true, Split::Train)],
            ..Default::default()
        })
        .unwrap();
        let before = e.stats();
        // Bad arity.
        let err = e
            .ingest(IngestBatch {
                left: vec![vec!["x".into(), "extra".into()]],
                ..Default::default()
            })
            .unwrap_err();
        assert!(err.contains("values"), "{err}");
        // Dangling pair id.
        let err = e
            .ingest(IngestBatch {
                pairs: vec![pair(9, 0, true, Split::Val)],
                ..Default::default()
            })
            .unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // Duplicate pair.
        let err = e
            .ingest(IngestBatch {
                pairs: vec![pair(0, 0, false, Split::Test)],
                ..Default::default()
            })
            .unwrap_err();
        assert!(err.contains("already labelled"), "{err}");
        let after = e.stats();
        assert_eq!(
            (before.left, before.right, before.pairs),
            (after.left, after.right, after.pairs)
        );
    }

    #[test]
    fn pairs_may_reference_same_batch_records() {
        let mut e = Engine::new("t");
        e.ingest(IngestBatch {
            left: recs(&["a"]),
            right: recs(&["a"]),
            pairs: vec![pair(0, 0, true, Split::Train)],
            ..Default::default()
        })
        .unwrap();
        let stats = e
            .ingest(IngestBatch {
                left: recs(&["b"]),
                right: recs(&["b"]),
                pairs: vec![
                    pair(1, 1, true, Split::Train),
                    pair(1, 0, false, Split::Val),
                ],
                ..Default::default()
            })
            .unwrap();
        assert_eq!(stats.pairs, 3);
        assert_eq!(e.task().validate(), Ok(()));
    }

    #[test]
    fn assess_before_ingest_is_a_graceful_error() {
        let e = Engine::new("t");
        assert!(e.assess().unwrap_err().contains("nothing ingested"));
    }

    #[test]
    fn empty_batches_are_fine() {
        let mut e = Engine::new("t");
        let s = e.ingest(IngestBatch::default()).unwrap();
        assert_eq!((s.left, s.right, s.pairs), (0, 0, 0));
        e.ingest(IngestBatch {
            left: recs(&["a"]),
            right: recs(&["a"]),
            ..Default::default()
        })
        .unwrap();
        let s = e.ingest(IngestBatch::default()).unwrap();
        assert_eq!((s.left, s.right), (1, 1));
    }
}
