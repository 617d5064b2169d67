//! Embedding top-K nearest-neighbour blocking — the DeepBlocker substitute.
//!
//! DeepBlocker (Thirumuruganathan et al., VLDB 2021) embeds every record
//! with fastText + a self-supervised autoencoder and retrieves the `K` most
//! similar index records per query record. The substitute keeps the exact
//! same interface and tuning surface: pooled subword embeddings, cosine
//! top-K retrieval, a choice of blocked attribute, optional cleaning, and a
//! choice of which source is indexed. A perturbation seed adds the
//! run-to-run variance of the original's stochastic training (the paper
//! averages 10 repetitions).
//!
//! Vectors live in a flat [`VecArena`] (not `Vec<Vec<f32>>`), the exact
//! kernel fans out over queries through [`rlb_util::par`], and the resident
//! [`NnIndex`] carries an [`IvfIndex`] so large corpora can be probed
//! approximately ([`NnIndex::retrieval_ann`]) while the exact paths stay
//! available as bitwise twins. Zero-norm embeddings (empty or no-gram
//! records) score [`crate::arena::ZERO_NORM_SCORE`] and rank
//! deterministically last — see `arena` for the policy.

use crate::arena::{rank_all, VecArena};
use crate::ivf::{IvfIndex, IvfParams};
use rlb_data::{PairRef, Record, Source};
use rlb_embed::HashedEmbedder;
use rlb_util::Prng;

/// Which source is indexed (the other provides the query records). In the
/// paper's Table V the indexed source is the `ind.` column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexSide {
    /// Index the left source (`D1`); queries come from the right.
    Left,
    /// Index the right source (`D2`); queries come from the left.
    Right,
}

/// Embedding-based top-K blocker configuration.
#[derive(Debug, Clone)]
pub struct EmbeddingNnBlocker {
    /// Blocked attribute (`None` = schema-agnostic concatenation, the
    /// `attr.` column of Table V).
    pub attribute: Option<usize>,
    /// Stop-word removal + stemming before embedding (`cl.` column).
    pub clean: bool,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Stochasticity seed; `0` = deterministic embeddings. Non-zero values
    /// perturb each record vector slightly, emulating DeepBlocker's
    /// training variance across repetitions.
    pub perturb_seed: u64,
}

impl Default for EmbeddingNnBlocker {
    fn default() -> Self {
        EmbeddingNnBlocker {
            attribute: None,
            clean: false,
            dim: 32,
            perturb_seed: 0,
        }
    }
}

/// The ranked retrieval produced by one blocker configuration: for every
/// query record, the indexed records ordered by descending similarity.
/// Candidate sets for any `K` are prefixes, so one retrieval serves the
/// whole K grid of the tuner.
#[derive(Debug, Clone)]
pub struct Retrieval {
    /// Which source was indexed.
    pub side: IndexSide,
    /// `ranked[q]` = indexed-record ids for query record `q`, best first.
    pub ranked: Vec<Vec<u32>>,
    /// Maximum `K` retrieved.
    pub k_max: usize,
}

impl Retrieval {
    /// Candidate pairs for a prefix `k ≤ k_max`, as `(left, right)` pairs.
    pub fn candidates(&self, k: usize) -> Vec<PairRef> {
        let k = k.min(self.k_max);
        let mut out = Vec::with_capacity(self.ranked.iter().map(|r| r.len().min(k)).sum());
        for (q, ranked) in self.ranked.iter().enumerate() {
            for &idx in ranked.iter().take(k) {
                let pair = match self.side {
                    IndexSide::Right => PairRef::new(q as u32, idx),
                    IndexSide::Left => PairRef::new(idx, q as u32),
                };
                out.push(pair);
            }
        }
        out
    }
}

impl EmbeddingNnBlocker {
    /// Embeds one record under this configuration.
    fn embed(
        &self,
        embedder: &HashedEmbedder,
        record: &Record,
        rng: Option<&mut Prng>,
    ) -> Vec<f32> {
        let text = match self.attribute {
            Some(a) => record.value(a).to_string(),
            None => record.full_text(),
        };
        let tokens = if self.clean {
            crate::cleaning::clean_tokens(&text)
        } else {
            crate::cleaning::raw_tokens(&text)
        };
        let mut v = embedder.pooled(&tokens);
        if let Some(rng) = rng {
            // Small random perturbation per run, re-normalized.
            for x in v.iter_mut() {
                *x += (rng.f32() * 2.0 - 1.0) * 0.05;
            }
            rlb_embed::sim::normalize(&mut v);
        }
        v
    }

    /// Embeds a record slice into a flat arena. Deterministic configs embed
    /// in parallel (each vector depends only on its own record); a perturbed
    /// config draws from one `Prng` sequenced across records, so it must
    /// stay serial to preserve the per-seed stream.
    fn embed_arena(
        &self,
        embedder: &HashedEmbedder,
        records: &[Record],
        mut perturb: Option<&mut Prng>,
    ) -> VecArena {
        let mut arena = VecArena::new(self.dim);
        arena.reserve(records.len());
        if perturb.is_some() {
            for r in records {
                arena.push(&self.embed(embedder, r, perturb.as_deref_mut()));
            }
        } else {
            for v in rlb_util::par::par_map(records, |r| self.embed(embedder, r, None)) {
                arena.push(&v);
            }
        }
        arena
    }

    /// Embeds both sources into `(index, query)` arenas for `side`. The
    /// indexed side embeds first so a perturbation stream consumes records
    /// in the same order as every earlier revision of this blocker.
    pub(crate) fn embed_arenas(
        &self,
        left: &Source,
        right: &Source,
        side: IndexSide,
    ) -> (VecArena, VecArena) {
        let embedder = HashedEmbedder::new(self.dim, 0xB10C);
        let mut perturb = (self.perturb_seed != 0).then(|| Prng::seed_from_u64(self.perturb_seed));
        let (indexed, queries) = match side {
            IndexSide::Left => (&left.records, &right.records),
            IndexSide::Right => (&right.records, &left.records),
        };
        let index_arena = self.embed_arena(&embedder, indexed, perturb.as_mut());
        let query_arena = self.embed_arena(&embedder, queries, perturb.as_mut());
        (index_arena, query_arena)
    }

    /// Runs exact retrieval with the given indexed side and `k_max`
    /// neighbours per query.
    pub fn retrieve(
        &self,
        left: &Source,
        right: &Source,
        side: IndexSide,
        k_max: usize,
    ) -> Retrieval {
        let _span = rlb_obs::span!("blocking.retrieve", "exact k_max={k_max}");
        let (index_arena, query_arena) = self.embed_arenas(left, right, side);
        Retrieval {
            side,
            ranked: rank_queries(&index_arena, &query_arena, k_max),
            k_max,
        }
    }

    /// Runs IVF-probed retrieval: trains a coarse quantizer once over the
    /// indexed side, then probes `params.nprobe` lists per query. At
    /// `nprobe >= nlists` this is bitwise identical to [`Self::retrieve`].
    pub fn retrieve_ann(
        &self,
        left: &Source,
        right: &Source,
        side: IndexSide,
        k_max: usize,
        params: IvfParams,
    ) -> Retrieval {
        let _span = rlb_obs::span!("blocking.retrieve", "ann nprobe={}", params.nprobe);
        let (index_arena, query_arena) = self.embed_arenas(left, right, side);
        let mut ivf = IvfIndex::new(params);
        if index_arena.len() >= params.min_train {
            ivf.train(&index_arena);
        }
        Retrieval {
            side,
            ranked: rlb_util::par::par_map_range(query_arena.len(), |qi| {
                ivf.search(&index_arena, query_arena.get(qi), k_max, params.nprobe)
            }),
            k_max,
        }
    }

    /// Starts an empty incremental index with this configuration indexing
    /// `side`, with ANN knobs from the environment (`RLB_ANN_*`). See
    /// [`NnIndex`] for the twin guarantee.
    ///
    /// # Panics
    /// If `perturb_seed` is non-zero: perturbation draws from one `Prng`
    /// sequenced across *all* records of a batch run, which has no
    /// order-independent incremental counterpart.
    pub fn index(&self, side: IndexSide) -> NnIndex {
        self.index_with(side, IvfParams::from_env())
    }

    /// [`Self::index`] with explicit ANN knobs.
    pub fn index_with(&self, side: IndexSide, params: IvfParams) -> NnIndex {
        assert_eq!(
            self.perturb_seed, 0,
            "incremental NnIndex requires deterministic embeddings (perturb_seed = 0)"
        );
        NnIndex {
            embedder: HashedEmbedder::new(self.dim, 0xB10C),
            arena: VecArena::new(self.dim),
            ivf: IvfIndex::new(params),
            config: self.clone(),
            side,
        }
    }
}

/// Exact cosine ranking of every query against every indexed vector,
/// parallel over queries — the single scoring kernel shared by the batch
/// [`EmbeddingNnBlocker::retrieve`] and the incremental [`NnIndex`]. Element
/// `q` of the output is a pure function of query `q` alone, so the result is
/// bitwise identical to ranking the queries one by one with [`rank_all`] at
/// any thread count.
pub fn rank_queries(index: &VecArena, queries: &VecArena, k_max: usize) -> Vec<Vec<u32>> {
    rlb_util::par::par_map_range(queries.len(), |qi| rank_all(index, queries.get(qi), k_max))
}

/// An incrementally insertable embedding index over one source.
///
/// The batch [`EmbeddingNnBlocker::retrieve`] embeds both sources and ranks
/// in one pass, then throws everything away — unusable for a resident
/// engine that ingests records over time. `NnIndex` keeps the indexed side's
/// vectors in a flat [`VecArena`], maintains an [`IvfIndex`] over them via
/// the per-insert policy (train at `min_train`, assign afterwards, re-train
/// on growth — see [`crate::ivf`]), and supports appending records one batch
/// at a time; queries rank against the vectors present at call time.
///
/// **Twin guarantee.** With deterministic embeddings (`perturb_seed = 0`,
/// enforced at construction) each record's vector depends only on its own
/// text, and exact ranking goes through the same [`rank_queries`] kernel as
/// the batch path in the same insertion order — so after any sequence of
/// inserts, [`NnIndex::retrieval`] is *identical* (ids and order, hence
/// bitwise) to a from-scratch [`EmbeddingNnBlocker::retrieve`] over the same
/// records, and [`NnIndex::retrieval_ann`] at exhaustive `nprobe` matches
/// both. Asserted in tests, the service property suite, and the blocking
/// bench.
///
/// **Supersession.** [`NnIndex::supersede`] tombstones an indexed record:
/// it vanishes from every query path at once (exact and probed rank through
/// the same dead-aware kernel, so the twin guarantee continues to hold over
/// the live records), and the IVF layer reclaims the stale list entry at
/// its next re-train — see [`crate::ivf`].
#[derive(Debug, Clone)]
pub struct NnIndex {
    config: EmbeddingNnBlocker,
    embedder: HashedEmbedder,
    side: IndexSide,
    arena: VecArena,
    ivf: IvfIndex,
}

impl NnIndex {
    /// Which source this index holds.
    pub fn side(&self) -> IndexSide {
        self.side
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether no record has been indexed.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The ANN layer (trained state, list count, training count).
    pub fn ivf(&self) -> &IvfIndex {
        &self.ivf
    }

    /// Embeds and appends one record, returning its index id. The IVF layer
    /// observes every single insert, so its state depends only on the
    /// insert sequence.
    pub fn insert(&mut self, record: &Record) -> u32 {
        let v = self.config.embed(&self.embedder, record, None);
        let id = self.arena.push(&v);
        self.ivf.on_insert(&self.arena);
        id
    }

    /// Appends a batch of records in order.
    pub fn insert_all(&mut self, records: &[Record]) {
        self.arena.reserve(records.len());
        for r in records {
            self.insert(r);
        }
    }

    /// Marks an indexed record as superseded: it stops appearing in every
    /// query and retrieval from now on, and the IVF layer drops its stale
    /// list entry at the next re-train.
    ///
    /// # Panics
    /// If `id` was never returned by [`Self::insert`].
    pub fn supersede(&mut self, id: u32) {
        assert!(
            (id as usize) < self.arena.len(),
            "supersede of unknown id {id} (len {})",
            self.arena.len()
        );
        self.ivf.tombstone(id);
    }

    /// Indexed records that have not been superseded.
    pub fn live(&self) -> usize {
        self.arena.len() - self.ivf.dead()
    }

    /// Ranked index ids for one query record, best first (at most `k_max`),
    /// by exact scan over the live records.
    pub fn query(&self, record: &Record, k_max: usize) -> Vec<u32> {
        let q = self.config.embed(&self.embedder, record, None);
        self.ivf.rank_exact(&self.arena, &q, k_max)
    }

    /// Ranked index ids for one query record via IVF probing. `nprobe`
    /// defaults to the configured `IvfParams::nprobe`; any value `>=
    /// nlists` (or an untrained index) is an exact scan.
    pub fn query_ann(&self, record: &Record, k_max: usize, nprobe: Option<usize>) -> Vec<u32> {
        let q = self.config.embed(&self.embedder, record, None);
        let nprobe = nprobe.unwrap_or(self.ivf.params().nprobe);
        self.ivf.search(&self.arena, &q, k_max, nprobe)
    }

    fn query_arena(&self, queries: &[Record]) -> VecArena {
        let mut arena = VecArena::new(self.config.dim);
        arena.reserve(queries.len());
        for v in rlb_util::par::par_map(queries, |r| self.config.embed(&self.embedder, r, None)) {
            arena.push(&v);
        }
        arena
    }

    /// Full exact retrieval for a query set — the incremental twin of
    /// [`EmbeddingNnBlocker::retrieve`] over the records inserted so far.
    /// With no superseded records this is the shared [`rank_queries`] kernel
    /// bit for bit; afterwards it is the same scan restricted to live ids.
    pub fn retrieval(&self, queries: &[Record], k_max: usize) -> Retrieval {
        let _span = rlb_obs::span!("blocking.retrieve", "index exact k_max={k_max}");
        let query_arena = self.query_arena(queries);
        Retrieval {
            side: self.side,
            ranked: rlb_util::par::par_map_range(query_arena.len(), |qi| {
                self.ivf.rank_exact(&self.arena, query_arena.get(qi), k_max)
            }),
            k_max,
        }
    }

    /// Full IVF-probed retrieval for a query set. At exhaustive `nprobe`
    /// (`>= nlists`, e.g. `Some(usize::MAX)`) the result is bitwise
    /// identical to [`Self::retrieval`].
    pub fn retrieval_ann(
        &self,
        queries: &[Record],
        k_max: usize,
        nprobe: Option<usize>,
    ) -> Retrieval {
        let nprobe = nprobe.unwrap_or(self.ivf.params().nprobe);
        let _span = rlb_obs::span!("blocking.retrieve", "index ann nprobe={nprobe}");
        let query_arena = self.query_arena(queries);
        Retrieval {
            side: self.side,
            ranked: rlb_util::par::par_map_range(query_arena.len(), |qi| {
                self.ivf
                    .search(&self.arena, query_arena.get(qi), k_max, nprobe)
            }),
            k_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources() -> (Source, Source) {
        let mut left = Source::new("L", vec!["name".into()]);
        let mut right = Source::new("R", vec!["name".into()]);
        for name in [
            "acme widget pro",
            "zenbrook speaker ultra",
            "kordia laptop fast",
        ] {
            left.push(vec![name.into()]);
        }
        for name in [
            "acme wdget pro",
            "zenbrook speakers",
            "kordia laptops",
            "unrelated junk",
        ] {
            right.push(vec![name.into()]);
        }
        (left, right)
    }

    #[test]
    fn top1_retrieval_recovers_duplicates() {
        let (l, r) = sources();
        let blocker = EmbeddingNnBlocker::default();
        let ret = blocker.retrieve(&l, &r, IndexSide::Right, 2);
        let c1 = ret.candidates(1);
        assert!(
            c1.contains(&PairRef::new(0, 0)),
            "typo'd duplicate found at K=1"
        );
        assert!(c1.contains(&PairRef::new(1, 1)));
        assert!(c1.contains(&PairRef::new(2, 2)));
        assert_eq!(c1.len(), 3);
    }

    #[test]
    fn k_prefix_grows_candidates() {
        let (l, r) = sources();
        let ret = EmbeddingNnBlocker::default().retrieve(&l, &r, IndexSide::Right, 3);
        assert_eq!(ret.candidates(1).len(), 3);
        assert_eq!(ret.candidates(2).len(), 6);
        assert_eq!(ret.candidates(10).len(), 9, "clamped at k_max");
    }

    #[test]
    fn index_side_flips_query_role() {
        let (l, r) = sources();
        let ret = EmbeddingNnBlocker::default().retrieve(&l, &r, IndexSide::Left, 1);
        // Queries are right records now: 4 queries.
        assert_eq!(ret.candidates(1).len(), 4);
        for p in ret.candidates(1) {
            assert!((p.left as usize) < l.len());
            assert!((p.right as usize) < r.len());
        }
    }

    #[test]
    fn perturbation_changes_rankings_slightly() {
        let (l, r) = sources();
        let det = EmbeddingNnBlocker::default();
        let pert = EmbeddingNnBlocker {
            perturb_seed: 7,
            ..Default::default()
        };
        let a = det.retrieve(&l, &r, IndexSide::Right, 4);
        let b = pert.retrieve(&l, &r, IndexSide::Right, 4);
        // Same top matches survive a small perturbation…
        assert_eq!(a.candidates(1), b.candidates(1));
        // …and two different perturbation seeds stay deterministic per seed.
        let pert2 = EmbeddingNnBlocker {
            perturb_seed: 7,
            ..Default::default()
        };
        let c = pert2.retrieve(&l, &r, IndexSide::Right, 4);
        assert_eq!(b.candidates(4), c.candidates(4));
    }

    /// Retrievals must agree exactly: same side, same k, same ranked ids in
    /// the same order.
    fn assert_same_retrieval(a: &Retrieval, b: &Retrieval) {
        assert_eq!(a.side, b.side);
        assert_eq!(a.k_max, b.k_max);
        assert_eq!(a.ranked, b.ranked);
    }

    #[test]
    fn incremental_index_equals_batch_retrieve() {
        let (l, r) = sources();
        let blocker = EmbeddingNnBlocker::default();
        for side in [IndexSide::Left, IndexSide::Right] {
            let (indexed, queries) = match side {
                IndexSide::Left => (&l, &r),
                IndexSide::Right => (&r, &l),
            };
            // Insert in two uneven chunks, then one at a time.
            let mut index = blocker.index(side);
            index.insert_all(&indexed.records[..1]);
            for rec in &indexed.records[1..] {
                index.insert(rec);
            }
            assert_eq!(index.len(), indexed.len());
            let incremental = index.retrieval(&queries.records, 3);
            let batch = blocker.retrieve(&l, &r, side, 3);
            assert_same_retrieval(&incremental, &batch);
            assert_eq!(incremental.candidates(2), batch.candidates(2));
            // The ANN path at exhaustive probing is the same bits again.
            let ann = index.retrieval_ann(&queries.records, 3, Some(usize::MAX));
            assert_same_retrieval(&ann, &batch);
        }
    }

    #[test]
    fn parallel_rank_matches_serial_twin() {
        // 96 queries: above `par_map_range`'s sequential cutoff (32 items),
        // so any host with two or more cores takes the parallel path.
        const QUERIES: usize = 96;
        let words = [
            "acme", "zenbrook", "kordia", "widget", "speaker", "laptop", "pro", "ultra", "fast",
        ];
        let text = |i: usize| {
            format!(
                "{} {} {} model{}",
                words[i % 9],
                words[(i / 9) % 9],
                words[(i * 7) % 9],
                i % 13
            )
        };
        let mut left = Source::new("L", vec!["name".into()]);
        let mut right = Source::new("R", vec!["name".into()]);
        for i in 0..QUERIES {
            left.push(vec![text(i)]);
        }
        for i in 0..150 {
            right.push(vec![text(5 * i + 3)]);
        }
        let blocker = EmbeddingNnBlocker::default();
        let (index, queries) = blocker.embed_arenas(&left, &right, IndexSide::Right);
        assert_eq!(queries.len(), QUERIES);
        let serial: Vec<Vec<u32>> = (0..queries.len())
            .map(|q| rank_all(&index, queries.get(q), 4))
            .collect();
        assert_eq!(rank_queries(&index, &queries, 4), serial);
    }

    #[test]
    fn zero_norm_record_ranks_last_deterministically() {
        // An empty-text record embeds to the zero vector; it must sort
        // after every real candidate (not float mid-list at cosine 0, not
        // poison TopK with NaN) and do so reproducibly.
        let mut left = Source::new("L", vec!["name".into()]);
        left.push(vec!["acme widget".into()]);
        let mut right = Source::new("R", vec!["name".into()]);
        right.push(vec!["totally different thing".into()]);
        right.push(vec!["".into()]); // zero-norm embedding
        right.push(vec!["acme widgets".into()]);
        let blocker = EmbeddingNnBlocker::default();
        let ret = blocker.retrieve(&left, &right, IndexSide::Right, 3);
        assert_eq!(ret.ranked[0].len(), 3, "empty record still retrievable");
        assert_eq!(ret.ranked[0][0], 2, "near-duplicate first");
        assert_eq!(*ret.ranked[0].last().unwrap(), 1, "empty record last");
        let again = blocker.retrieve(&left, &right, IndexSide::Right, 3);
        assert_eq!(ret.ranked, again.ranked);
        // Zero-norm *query*: every index record scores the floor, so the
        // ranking is pure insertion order — deterministic, no NaN.
        let mut index = blocker.index(IndexSide::Right);
        index.insert_all(&right.records);
        let empty_query = Record::new(0, vec!["".into()]);
        assert_eq!(index.query(&empty_query, 3), vec![0, 1, 2]);
    }

    #[test]
    fn ann_retrieval_recovers_duplicates_when_trained() {
        // A corpus big enough to train on: 64 entities × small variants.
        let mut right = Source::new("R", vec!["name".into()]);
        for i in 0..256u32 {
            right.push(vec![format!("entity number {} variant", i % 64)]);
        }
        let mut left = Source::new("L", vec!["name".into()]);
        left.push(vec!["entity number 7 variant".into()]);
        let blocker = EmbeddingNnBlocker::default();
        let params = IvfParams {
            nlists: 8,
            nprobe: 2,
            min_train: 64,
            ..Default::default()
        };
        let ann = blocker.retrieve_ann(&left, &right, IndexSide::Right, 4, params);
        // Identical texts embed identically; the probed list containing the
        // query's own centroid holds all its duplicates.
        assert!(ann.ranked[0].contains(&7));
        // And an incremental index with the same knobs agrees exactly at
        // exhaustive probing with the exact batch scan.
        let mut index = blocker.index_with(IndexSide::Right, params);
        index.insert_all(&right.records);
        assert!(index.ivf().trained());
        let exact = blocker.retrieve(&left, &right, IndexSide::Right, 4);
        let exhaustive = index.retrieval_ann(&left.records, 4, Some(usize::MAX));
        assert_eq!(exact.ranked, exhaustive.ranked);
    }

    #[test]
    fn single_query_agrees_with_full_retrieval() {
        let (l, r) = sources();
        let mut index = EmbeddingNnBlocker::default().index(IndexSide::Right);
        index.insert_all(&r.records);
        let full = index.retrieval(&l.records, 2);
        for (q, rec) in l.records.iter().enumerate() {
            assert_eq!(index.query(rec, 2), full.ranked[q], "query {q}");
            assert_eq!(
                index.query_ann(rec, 2, Some(usize::MAX)),
                full.ranked[q],
                "ann query {q}"
            );
        }
    }

    #[test]
    fn empty_index_returns_no_candidates() {
        let (l, _) = sources();
        let index = EmbeddingNnBlocker::default().index(IndexSide::Right);
        assert!(index.is_empty());
        let ret = index.retrieval(&l.records, 3);
        assert_eq!(ret.candidates(3), vec![]);
        assert!(index.query(&l.records[0], 3).is_empty());
        assert!(index.query_ann(&l.records[0], 3, None).is_empty());
    }

    #[test]
    fn superseded_records_leave_every_query_path() {
        let (l, r) = sources();
        let mut index = EmbeddingNnBlocker::default().index(IndexSide::Right);
        index.insert_all(&r.records);
        // Right record 0 is the typo'd duplicate of left record 0.
        assert_eq!(index.query(&l.records[0], 1), vec![0]);
        index.supersede(0);
        assert_eq!(index.live(), r.len() - 1);
        // The superseded record is gone from the exact path, the ANN path,
        // and the full retrieval — and the exact/ANN twin still holds over
        // the live records.
        assert!(!index.query(&l.records[0], 4).contains(&0));
        assert!(!index
            .query_ann(&l.records[0], 4, Some(usize::MAX))
            .contains(&0));
        let exact = index.retrieval(&l.records, 4);
        let ann = index.retrieval_ann(&l.records, 4, Some(usize::MAX));
        assert_eq!(exact.ranked, ann.ranked);
        for ranked in &exact.ranked {
            assert!(!ranked.contains(&0));
            assert_eq!(ranked.len(), r.len() - 1);
        }
    }

    #[test]
    #[should_panic(expected = "unknown id")]
    fn supersede_of_unknown_id_panics() {
        let mut index = EmbeddingNnBlocker::default().index(IndexSide::Right);
        index.supersede(3);
    }

    #[test]
    #[should_panic(expected = "perturb_seed")]
    fn perturbed_config_cannot_build_an_incremental_index() {
        let blocker = EmbeddingNnBlocker {
            perturb_seed: 9,
            ..Default::default()
        };
        let _ = blocker.index(IndexSide::Left);
    }

    #[test]
    fn attribute_scoped_blocking() {
        let mut left = Source::new("L", vec!["a".into(), "b".into()]);
        let mut right = Source::new("R", vec!["a".into(), "b".into()]);
        left.push(vec!["alpha".into(), "common".into()]);
        right.push(vec!["beta".into(), "common".into()]);
        right.push(vec!["alpha".into(), "other".into()]);
        let blocker = EmbeddingNnBlocker {
            attribute: Some(0),
            ..Default::default()
        };
        let ret = blocker.retrieve(&left, &right, IndexSide::Right, 1);
        assert_eq!(ret.candidates(1), vec![PairRef::new(0, 1)]);
    }
}
