//! Property tests for the ANN incremental-twin policy: any interleaving of
//! [`NnIndex::insert_all`] batches — including batches that cross the
//! k-means training and re-training thresholds — must leave exhaustive-probe
//! retrieval `to_bits`-identical to a from-scratch batch
//! [`EmbeddingNnBlocker::retrieve`], and must leave the IVF partition itself
//! independent of how the insert sequence was chopped up.

use rlb_blocking::{EmbeddingNnBlocker, IndexSide, IvfParams, NnIndex, VecArena};
use rlb_data::Source;
use rlb_util::Prng;

const DIM: usize = 16;

/// Small thresholds so a few hundred inserts cross training and multiple
/// growth re-trains.
fn params() -> IvfParams {
    IvfParams {
        nlists: 8,
        min_train: 48,
        ..Default::default()
    }
}

fn corpus(n: usize, seed: u64) -> Source {
    let mut rng = Prng::seed_from_u64(seed);
    let mut src = Source::new("R", vec!["name".into()]);
    let adjectives = ["fast", "slim", "pro", "ultra", "mini", "max"];
    let nouns = ["widget", "speaker", "laptop", "router", "camera", "drone"];
    for i in 0..n {
        let text = match rng.index(12) {
            // A few empty records keep the zero-norm path in the property.
            0 => String::new(),
            _ => format!(
                "{} {} model {}",
                adjectives[rng.index(adjectives.len())],
                nouns[rng.index(nouns.len())],
                i % 40
            ),
        };
        src.push(vec![text]);
    }
    src
}

fn queries(n: usize, seed: u64) -> Source {
    corpus(n, seed)
}

/// `src`'s records embedded as queries of `index`.
fn embedded(index: &NnIndex, src: &Source) -> VecArena {
    let mut queries = VecArena::new(DIM);
    index.embed(&src.records, &mut queries);
    queries
}

/// Builds an index by feeding `records` through `insert_all` in chunks cut
/// at random points (empty and single-record chunks included).
fn build_interleaved(blocker: &EmbeddingNnBlocker, src: &Source, rng: &mut Prng) -> NnIndex {
    let mut index = blocker.index_with(IndexSide::Right, params());
    let mut sent = 0;
    while sent < src.len() {
        let take = match rng.index(4) {
            0 => 0,
            1 => 1,
            _ => rng.range(0, src.len() - sent + 1),
        };
        index.insert_all(&src.records[sent..sent + take]);
        sent += take;
    }
    index
}

#[test]
fn interleaved_inserts_at_exhaustive_nprobe_twin_batch_retrieve() {
    let blocker = EmbeddingNnBlocker {
        dim: DIM,
        ..Default::default()
    };
    let right = corpus(220, 11);
    let left = queries(25, 99);
    let batch = blocker.retrieve(&left, &right, IndexSide::Right, 7);
    let mut rng = Prng::seed_from_u64(0xA11);
    for case in 0..8 {
        let index = build_interleaved(&blocker, &right, &mut rng);
        assert_eq!(index.len(), right.len());
        assert!(
            index.ivf().trains() >= 2,
            "case {case}: sequence crosses training and a re-train \
             (got {} trains)",
            index.ivf().trains()
        );
        let queries = embedded(&index, &left);
        let exhaustive = index.retrieval_ann(&queries, 7, Some(usize::MAX));
        assert_eq!(
            exhaustive.ranked, batch.ranked,
            "case {case}: exhaustive ann retrieval != batch retrieve"
        );
        // The exact incremental path is the same bits again.
        assert_eq!(index.retrieval(&queries, 7).ranked, batch.ranked);
    }
}

#[test]
fn ivf_state_is_a_pure_function_of_the_insert_sequence() {
    // Beyond the exhaustive twin: even *probed* (approximate) retrieval
    // must not depend on batch boundaries, because the trained partition is
    // a pure function of the insert sequence.
    let blocker = EmbeddingNnBlocker {
        dim: DIM,
        ..Default::default()
    };
    let right = corpus(200, 5);
    let left = queries(20, 77);
    let mut rng = Prng::seed_from_u64(0xB22);
    let reference = build_interleaved(&blocker, &right, &mut rng);
    let queries = embedded(&reference, &left);
    let reference_probed = reference.retrieval_ann(&queries, 5, Some(2));
    for case in 0..6 {
        let other = build_interleaved(&blocker, &right, &mut rng);
        assert_eq!(
            other.ivf().trains(),
            reference.ivf().trains(),
            "case {case}"
        );
        assert_eq!(
            other.retrieval_ann(&queries, 5, Some(2)).ranked,
            reference_probed.ranked,
            "case {case}: probed retrieval depends on batch boundaries"
        );
    }
}

#[test]
fn inserts_below_training_threshold_stay_exact_twins() {
    let blocker = EmbeddingNnBlocker {
        dim: DIM,
        ..Default::default()
    };
    let right = corpus(40, 3); // below min_train = 48
    let left = queries(10, 4);
    let mut index = blocker.index_with(IndexSide::Right, params());
    index.insert_all(&right.records);
    assert!(!index.ivf().trained());
    let batch = blocker.retrieve(&left, &right, IndexSide::Right, 5);
    // Any nprobe is exhaustive while untrained.
    assert_eq!(
        index
            .retrieval_ann(&embedded(&index, &left), 5, Some(1))
            .ranked,
        batch.ranked
    );
}
