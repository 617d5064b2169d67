//! IVF-style approximate nearest-neighbour index over a [`VecArena`].
//!
//! The classic inverted-file design (the FAISS coarse quantizer): a
//! deterministic spherical k-means partitions the indexed vectors into
//! `nlists` lists keyed by centroid, and a query scores only the vectors in
//! its `nprobe` closest lists instead of the whole arena. With hashed
//! embeddings in 32 dimensions the centroid scan is tiny, so the visited
//! fraction — and the speedup over the exact scan — is roughly
//! `nprobe / nlists`.
//!
//! **Determinism.** Training is a pure function of the arena contents:
//! stride-sampled training set, evenly spread initial centroids, fixed
//! iteration count, serial `f64` accumulation in sample order, and
//! lowest-id tie-breaking in every assignment. Parallelism only appears in
//! per-element assignment scans, which [`rlb_util::par`] keeps
//! order-preserving, so the same arena always trains to the same lists at
//! any thread count.
//!
//! **Twin guarantee.** Every arena id lives in exactly one list, and probed
//! candidates are gathered and sorted ascending before ranking through the
//! same kernel as the exact scan — so at `nprobe >= nlists` (or before
//! training) [`IvfIndex::search`] degenerates to [`rank_all`] and is
//! *bitwise* identical to the exact twin. Asserted in unit tests, the
//! interleaving property suite, the blocking bench, and CI.
//!
//! **Incremental policy.** [`IvfIndex::on_insert`] is called after every
//! single vector append: before `min_train` vectors exist the index stays
//! untrained (searches are exact); the first insert reaching `min_train`
//! trains; afterwards each new vector is assigned to its nearest centroid,
//! and once the arena grows past `retrain_factor ×` the size at the last
//! training the index re-trains from scratch. Because the trigger is
//! checked per insert, the trained state is a pure function of the total
//! insert *sequence* — how the sequence was chopped into batches cannot
//! change it. The arena is append-only, so every id ever inserted stays in
//! the index.

use crate::arena::{rank_all, rank_subset, VecArena};

/// Ids per parallel task in k-means assignment: small enough that a
/// training sample of a few thousand vectors still spreads over every
/// worker.
const ASSIGN_CHUNK: usize = 16;

/// IVF tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IvfParams {
    /// Number of inverted lists; `0` selects `ceil(sqrt(n))` (clamped to
    /// `[1, 4096]`) at training time.
    pub nlists: usize,
    /// Default number of lists probed per query; `>= nlists` means exact.
    pub nprobe: usize,
    /// Minimum indexed vectors before k-means training kicks in; below it
    /// every search is an exact scan.
    pub min_train: usize,
    /// Re-train once the arena grows past `retrain_factor ×` its size at
    /// the last training.
    pub retrain_factor: f64,
    /// Training-sample budget per list (stride-sampled from the arena).
    pub sample_per_list: usize,
    /// Fixed k-means iteration count (no convergence test — determinism
    /// over adaptivity).
    pub iters: usize,
}

impl Default for IvfParams {
    fn default() -> Self {
        IvfParams {
            nlists: 0,
            nprobe: 16,
            min_train: 2000,
            retrain_factor: 1.5,
            sample_per_list: 32,
            iters: 8,
        }
    }
}

impl IvfParams {
    /// List count used when training over `n` vectors.
    fn resolve_nlists(&self, n: usize) -> usize {
        let auto = (n as f64).sqrt().ceil() as usize;
        let chosen = if self.nlists > 0 { self.nlists } else { auto };
        chosen.clamp(1, 4096).min(n.max(1))
    }
}

/// The coarse quantizer plus inverted lists for one [`VecArena`]. The arena
/// itself is owned by the caller ([`crate::NnIndex`] or the batch path) and
/// passed into every method, keeping index and storage separable.
#[derive(Debug, Clone, Default)]
pub struct IvfIndex {
    params: IvfParams,
    /// Unit-norm centroid per list (empty until trained).
    centroids: VecArena,
    /// `lists[c]` = arena ids assigned to centroid `c`, ascending. Every
    /// arena id `< trained-or-inserted length` appears in exactly one list.
    lists: Vec<Vec<u32>>,
    /// Arena length at the last training (0 = untrained).
    trained_len: usize,
    /// Completed trainings (for stats / the `ann.trains` counter).
    trains: u64,
}

impl IvfIndex {
    /// An untrained index with the given knobs.
    pub fn new(params: IvfParams) -> Self {
        IvfIndex {
            params,
            ..Default::default()
        }
    }

    /// The configured knobs.
    pub fn params(&self) -> &IvfParams {
        &self.params
    }

    /// Whether k-means has run (searches are exact scans until then).
    pub fn trained(&self) -> bool {
        self.trained_len > 0
    }

    /// Number of inverted lists (0 until trained).
    pub fn nlists(&self) -> usize {
        self.lists.len()
    }

    /// Completed trainings.
    pub fn trains(&self) -> u64 {
        self.trains
    }

    /// Id of the nearest centroid to the vector at `id` (lowest id on
    /// ties; zero-norm vectors land in list 0 by the same rule), read
    /// through the caller's buffer `v`.
    fn assign_one(&self, arena: &VecArena, id: u32, v: &mut [f32]) -> u32 {
        arena.copy_out(id as usize, v);
        self.centroids
            .nearest(v, arena.norm(id as usize))
            .expect("assign_one requires a trained quantizer")
    }

    /// [`Self::assign_one`] for each of `ids`, in order: parallel over
    /// chunks of [`ASSIGN_CHUNK`] ids that share one buffer, so no single
    /// assignment allocates.
    fn assign(&self, arena: &VecArena, ids: &[u32]) -> Vec<u32> {
        rlb_util::par::par_chunks(ids, ASSIGN_CHUNK, |_, chunk| {
            let mut v = vec![0.0; arena.dim()];
            chunk
                .iter()
                .map(|&id| self.assign_one(arena, id, &mut v))
                .collect::<Vec<u32>>()
        })
        .concat()
    }

    /// Runs deterministic spherical k-means over the whole arena and
    /// rebuilds the inverted lists. Public so batch construction can train
    /// once instead of replaying the incremental policy.
    pub fn train(&mut self, arena: &VecArena) {
        let n = arena.len();
        if n == 0 {
            return;
        }
        let start = std::time::Instant::now();
        let nlists = self.params.resolve_nlists(n);

        // Stride-sampled training set: element i is arena id i*n/s, so the
        // sample is a deterministic, evenly spread subset independent of
        // insertion batching.
        let s = (nlists * self.params.sample_per_list).clamp(nlists, n);
        let sample: Vec<u32> = (0..s).map(|i| (i * n / s) as u32).collect();
        let dim = arena.dim();
        let mut v = vec![0.0; dim];

        // Initial centroids: evenly spread sample vectors (distinct because
        // s >= nlists), unit-normalized.
        let mut centroids = VecArena::new(dim);
        for j in 0..nlists {
            arena.copy_out(sample[j * s / nlists] as usize, &mut v);
            rlb_embed::sim::normalize(&mut v);
            centroids.push(&v);
        }

        for _ in 0..self.params.iters {
            self.centroids = centroids;
            // Parallel assignment of the sample; order-preserving, so the
            // serial accumulation below sees a thread-count-independent
            // assignment vector.
            let assign = self.assign(arena, &sample);
            let mut sums = vec![0f64; nlists * dim];
            let mut counts = vec![0usize; nlists];
            for (&id, &c) in sample.iter().zip(&assign) {
                let c = c as usize;
                counts[c] += 1;
                arena.copy_out(id as usize, &mut v);
                for (acc, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(&v) {
                    *acc += x as f64;
                }
            }
            centroids = VecArena::new(dim);
            for c in 0..nlists {
                if counts[c] == 0 {
                    // Empty list: keep the old centroid rather than
                    // collapsing the partition.
                    self.centroids.copy_out(c, &mut v);
                } else {
                    let row = &sums[c * dim..(c + 1) * dim];
                    for (x, &sum) in v.iter_mut().zip(row) {
                        *x = (sum / counts[c] as f64) as f32;
                    }
                    rlb_embed::sim::normalize(&mut v);
                }
                centroids.push(&v);
            }
        }
        self.centroids = centroids;

        // Final assignment of *all* vectors; lists built serially in
        // ascending id order so probed candidates come out pre-sorted per
        // list.
        let all: Vec<u32> = (0..n as u32).collect();
        let assign = self.assign(arena, &all);
        self.lists = vec![Vec::new(); nlists];
        for (id, &c) in assign.iter().enumerate() {
            self.lists[c as usize].push(id as u32);
        }
        let listed: usize = self.lists.iter().map(Vec::len).sum();
        assert_eq!(listed, n, "training must list every id exactly once");
        self.trained_len = n;
        self.trains += 1;
        rlb_obs::counter_add("ann.trains", 1);
        rlb_obs::counter_add("ann.train_ms", start.elapsed().as_millis() as u64);
    }

    /// Incremental hook: must be called after **every single** arena push
    /// (the newest vector is `arena.len() - 1`). Trains at `min_train`,
    /// assigns to the nearest centroid once trained, and re-trains when the
    /// arena outgrows the last training by `retrain_factor`. Checked per
    /// insert so the index state depends only on the insert sequence, never
    /// on batch boundaries.
    pub fn on_insert(&mut self, arena: &VecArena) {
        let n = arena.len();
        if !self.trained() {
            if n >= self.params.min_train {
                self.train(arena);
            }
            return;
        }
        let retrain_at = (self.trained_len as f64 * self.params.retrain_factor).ceil() as usize;
        if n >= retrain_at.max(self.trained_len + 1) {
            self.train(arena);
        } else {
            let id = (n - 1) as u32;
            let c = self.assign_one(arena, id, &mut vec![0.0; arena.dim()]);
            self.lists[c as usize].push(id);
        }
    }

    /// Ranked arena ids for `q`, best first, probing `nprobe` lists.
    /// Untrained indexes and `nprobe >= nlists` take the exact path and are
    /// bitwise identical to [`rank_all`].
    pub fn search(&self, arena: &VecArena, q: &[f32], k_max: usize, nprobe: usize) -> Vec<u32> {
        let nprobe = nprobe.max(1);
        if !self.trained() || nprobe >= self.lists.len() {
            rlb_obs::counter_add("ann.probes", self.lists.len() as u64);
            rlb_obs::counter_add("ann.visited", arena.len() as u64);
            return rank_all(arena, q, k_max);
        }
        let mut ids: Vec<u32> = Vec::new();
        for c in rank_all(&self.centroids, q, nprobe) {
            ids.extend_from_slice(&self.lists[c as usize]);
        }
        // Ascending visit order matches the exact scan restricted to this
        // candidate set, fixing top-K tie-breaking.
        ids.sort_unstable();
        rlb_obs::counter_add("ann.probes", nprobe as u64);
        rlb_obs::counter_add("ann.visited", ids.len() as u64);
        rank_subset(arena, &ids, q, k_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_util::Prng;

    fn random_arena(n: usize, dim: usize, seed: u64) -> VecArena {
        let mut rng = Prng::seed_from_u64(seed);
        VecArena::from_rows(
            dim,
            (0..n).map(|_| (0..dim).map(|_| rng.f32() * 2.0 - 1.0).collect()),
        )
    }

    fn params(nlists: usize, min_train: usize) -> IvfParams {
        IvfParams {
            nlists,
            min_train,
            ..Default::default()
        }
    }

    #[test]
    fn lists_partition_every_id() {
        let arena = random_arena(500, 8, 1);
        let mut ivf = IvfIndex::new(params(8, 1));
        ivf.train(&arena);
        let mut seen: Vec<u32> = ivf.lists.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..500).collect::<Vec<u32>>());
        for list in &ivf.lists {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "lists stay sorted");
        }
    }

    #[test]
    fn exhaustive_probe_is_bit_identical_to_exact() {
        let arena = random_arena(400, 8, 2);
        let mut ivf = IvfIndex::new(params(10, 1));
        ivf.train(&arena);
        let mut rng = Prng::seed_from_u64(3);
        for _ in 0..20 {
            let q: Vec<f32> = (0..8).map(|_| rng.f32() * 2.0 - 1.0).collect();
            let exact = rank_all(&arena, &q, 15);
            assert_eq!(ivf.search(&arena, &q, 15, ivf.nlists()), exact);
            assert_eq!(ivf.search(&arena, &q, 15, usize::MAX), exact);
        }
    }

    #[test]
    fn untrained_search_is_exact() {
        let arena = random_arena(100, 8, 4);
        let ivf = IvfIndex::new(params(4, 1_000_000));
        assert!(!ivf.trained());
        let q: Vec<f32> = vec![0.5; 8];
        assert_eq!(ivf.search(&arena, &q, 5, 1), rank_all(&arena, &q, 5));
    }

    #[test]
    fn probed_search_finds_near_duplicates() {
        // Near-duplicates of a query land in the query's own probed list,
        // so even nprobe=1 recovers the planted neighbour.
        let mut arena = random_arena(2000, 8, 5);
        let mut probe = vec![0.0; 8];
        arena.copy_out(123, &mut probe);
        let mut near = probe.clone();
        near[0] += 0.01;
        let planted = arena.push(&near);
        let mut ivf = IvfIndex::new(params(16, 1));
        ivf.train(&arena);
        let got = ivf.search(&arena, &probe, 2, 1);
        assert!(got.contains(&123));
        assert!(got.contains(&planted));
    }

    #[test]
    fn training_is_deterministic() {
        let arena = random_arena(600, 8, 6);
        let mut a = IvfIndex::new(params(0, 1));
        let mut b = IvfIndex::new(params(0, 1));
        a.train(&arena);
        b.train(&arena);
        assert_eq!(a.lists, b.lists);
        assert_eq!(a.nlists(), 25, "auto nlists = ceil(sqrt(600))");
    }

    #[test]
    fn incremental_state_ignores_batch_boundaries() {
        // Same 300-insert sequence, chopped two different ways, crossing
        // both the min_train trigger and one retrain trigger.
        let arena_full = random_arena(300, 8, 7);
        let build = |cuts: &[usize]| {
            let mut ivf = IvfIndex::new(IvfParams {
                nlists: 6,
                min_train: 64,
                ..Default::default()
            });
            let mut arena = VecArena::new(8);
            let mut v = vec![0.0; 8];
            let mut prev = 0;
            for &cut in cuts.iter().chain(std::iter::once(&300)) {
                for id in prev..cut {
                    arena_full.copy_out(id, &mut v);
                    arena.push(&v);
                    ivf.on_insert(&arena);
                }
                prev = cut;
            }
            ivf
        };
        let a = build(&[10, 64, 65, 200]);
        let b = build(&[150]);
        assert_eq!(a.lists, b.lists);
        assert_eq!(a.trains(), b.trains());
        assert!(a.trains() >= 2, "sequence crosses the retrain threshold");
    }
}
