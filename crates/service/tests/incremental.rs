//! Property tests for the incremental-twin policy: any interleaving of
//! ingest batches — including empty and single-record batches — must leave
//! the engine producing `to_bits`-identical assessments and identical
//! blocking retrievals to a from-scratch batch rebuild over the same data.

use rlb_blocking::{EmbeddingNnBlocker, IndexSide, Retrieval};
use rlb_core::{assess_with, Assessment};
use rlb_matchers::features::TaskViewCache;
use rlb_serve::{Engine, IngestBatch, IngestPair, Split};
use rlb_synth::{BenchmarkProfile, DifficultyKnobs, Domain};
use rlb_util::Prng;

fn synth_task(seed: u64) -> rlb_data::MatchingTask {
    rlb_synth::generate_task(&BenchmarkProfile {
        id: "serve-prop",
        stands_for: "incremental twin property",
        domain: Domain::Product,
        left_size: 60,
        right_size: 70,
        n_matches: 35,
        labeled_pairs: 150,
        positive_fraction: 0.2,
        knobs: DifficultyKnobs {
            match_noise: 0.3,
            hard_negative_fraction: 0.25,
            anchor_attrs: 1,
            dirty: false,
            style_noise: 0.05,
            right_terse: false,
            base_missing: 0.05,
        },
        seed,
    })
}

/// All of a task's labelled pairs, tagged with their destination split.
fn tagged_pairs(task: &rlb_data::MatchingTask) -> Vec<IngestPair> {
    let tag = |pairs: &[rlb_data::LabeledPair], split: Split| -> Vec<IngestPair> {
        pairs
            .iter()
            .map(|lp| IngestPair {
                left: lp.pair.left,
                right: lp.pair.right,
                is_match: lp.is_match,
                split,
            })
            .collect()
    };
    let mut all = tag(&task.train, Split::Train);
    all.extend(tag(&task.val, Split::Val));
    all.extend(tag(&task.test, Split::Test));
    all
}

/// Feeds `task` into a fresh engine as a random sequence of ingest batches:
/// chunk sizes are drawn per round (0 and 1 included), and each labelled
/// pair is ingested in the first round where both of its records exist.
fn ingest_randomly(task: &rlb_data::MatchingTask, rng: &mut Prng) -> Engine {
    let mut engine = Engine::new(task.name.clone());
    let mut pending = tagged_pairs(task);
    let (mut sent_left, mut sent_right) = (0usize, 0usize);
    let attrs = task.left.attributes.clone();
    let mut first = true;
    while sent_left < task.left.len() || sent_right < task.right.len() || !pending.is_empty() {
        // Chunk sizes biased toward the edge cases the issue calls out:
        // empty batches and single-record batches come up often.
        let mut draw = |remaining: usize| -> usize {
            match rng.index(4) {
                0 => 0,
                1 => 1.min(remaining),
                _ => rng.range(0, remaining + 1),
            }
        };
        let take_left = draw(task.left.len() - sent_left);
        let take_right = draw(task.right.len() - sent_right);
        let left: Vec<Vec<String>> = task.left.records[sent_left..sent_left + take_left]
            .iter()
            .map(|r| r.values.clone())
            .collect();
        let right: Vec<Vec<String>> = task.right.records[sent_right..sent_right + take_right]
            .iter()
            .map(|r| r.values.clone())
            .collect();
        sent_left += take_left;
        sent_right += take_right;
        let (ready, rest): (Vec<IngestPair>, Vec<IngestPair>) = pending
            .into_iter()
            .partition(|p| (p.left as usize) < sent_left && (p.right as usize) < sent_right);
        pending = rest;
        engine
            .ingest(IngestBatch {
                attributes: first.then(|| attrs.clone()),
                left,
                right,
                pairs: ready,
            })
            .expect("well-formed batch ingests");
        first = false;
    }
    engine
}

/// The batch rebuild of [`Engine::assess`]: views built from scratch.
fn batch_assess(engine: &Engine) -> Result<Assessment, String> {
    assess_with(engine.task(), &[], &TaskViewCache::build(engine.task())).map_err(|e| e.to_string())
}

/// The batch rebuild of [`Engine::link`].
fn batch_link(engine: &Engine, k: usize) -> Retrieval {
    let task = engine.task();
    EmbeddingNnBlocker::default().retrieve(&task.left, &task.right, IndexSide::Right, k)
}

/// Bitwise equality via the JSON writer: it emits shortest round-tripping
/// floats, so string equality is `to_bits` equality on every measure.
fn assert_assessments_identical(engine: &Engine, label: &str) {
    let incremental = engine.assess().expect("assess after full ingest");
    let rebuilt = batch_assess(engine).expect("batch rebuild assess");
    assert_eq!(
        incremental.linearity.max_f1().to_bits(),
        rebuilt.linearity.max_f1().to_bits(),
        "{label}: linearity diverged"
    );
    for ((n1, v1), (n2, v2)) in incremental
        .complexity
        .values()
        .iter()
        .zip(rebuilt.complexity.values())
    {
        assert_eq!(*n1, n2, "{label}: measure order diverged");
        assert_eq!(
            v1.to_bits(),
            v2.to_bits(),
            "{label}: complexity {n1} diverged ({v1} vs {v2})"
        );
    }
    assert_eq!(
        rlb_util::json::to_string(&incremental),
        rlb_util::json::to_string(&rebuilt),
        "{label}: full assessment diverged"
    );
}

#[test]
fn random_ingest_interleavings_are_twins_of_batch_rebuild() {
    const CASES: usize = 12;
    let mut rng = Prng::seed_from_u64(0x5EEDED);
    for case in 0..CASES {
        let task = synth_task(1000 + case as u64);
        let engine = ingest_randomly(&task, &mut rng);
        assert_eq!(engine.stats().left, task.left.len());
        assert_eq!(engine.stats().right, task.right.len());
        assert_eq!(engine.stats().pairs, task.total_pairs());
        // The wire's `stats.vocab`: the ingest-order dictionary holds the
        // same distinct tokens as a batch rebuild's.
        assert_eq!(
            engine.stats().vocab,
            TaskViewCache::build(engine.task()).vocab_size(),
            "case {case}: vocab diverged"
        );
        assert_eq!(engine.task().validate(), Ok(()));
        assert_assessments_identical(&engine, &format!("case {case}"));
        // Blocking twin: same ranked ids in the same order.
        let k = 1 + rng.index(4);
        let incremental = engine.link(k);
        let rebuilt = batch_link(&engine, k);
        assert_eq!(
            incremental.ranked, rebuilt.ranked,
            "case {case}: link diverged"
        );
        assert_eq!(incremental.candidates(k), rebuilt.candidates(k));
        // ANN twin: exhaustive probing is bitwise the exact scan.
        let ann = engine.link_ann(k, Some(usize::MAX));
        assert_eq!(
            ann.ranked, rebuilt.ranked,
            "case {case}: exhaustive ann link diverged"
        );
    }
}

/// Single-attribute records in the style of `rlb-blocking`'s ANN twin
/// corpus: a few adjectives and nouns over 40 model numbers, with about one
/// record in twelve empty so the zero-norm path is exercised too.
fn ann_corpus(n: usize, seed: u64) -> Vec<Vec<String>> {
    let mut rng = Prng::seed_from_u64(seed);
    let adjectives = ["fast", "slim", "pro", "ultra", "mini", "max"];
    let nouns = ["widget", "speaker", "laptop", "router", "camera", "drone"];
    (0..n)
        .map(|i| {
            let text = match rng.index(12) {
                0 => String::new(),
                _ => format!(
                    "{} {} model {}",
                    adjectives[rng.index(adjectives.len())],
                    nouns[rng.index(nouns.len())],
                    i % 40
                ),
            };
            vec![text]
        })
        .collect()
}

#[test]
fn trained_ann_index_stays_a_twin_at_exhaustive_probe() {
    // Force the engine's default index to train (and re-train) during
    // ingest: k-means first runs at 2,000 right records and re-trains once
    // the store grows 1.5× past that, so 3,100 records cross both.
    let mut engine = Engine::new("ann-twin");
    engine
        .ingest(IngestBatch {
            attributes: Some(vec!["name".into()]),
            left: ann_corpus(30, 99),
            right: ann_corpus(3_100, 11),
            pairs: Vec::new(),
        })
        .unwrap();
    assert!(
        engine.index().ivf().trained(),
        "index trained during ingest"
    );
    assert!(engine.index().ivf().trains() >= 2, "growth re-train ran");
    for k in [1, 3, 5] {
        let exact = engine.link(k);
        let exhaustive = engine.link_ann(k, Some(usize::MAX));
        assert_eq!(exhaustive.ranked, exact.ranked, "k={k}");
        // A genuinely probed retrieval still answers every query with k
        // ranked ids (the lists partition the whole index).
        let probed = engine.link_ann(k, Some(1));
        assert_eq!(probed.ranked.len(), exact.ranked.len());
        assert!(probed.ranked.iter().all(|r| r.len() <= k));
    }
}

#[test]
fn one_record_per_batch_is_a_twin() {
    // The most extreme interleaving: every record in its own batch, every
    // pair the moment it is eligible.
    let task = synth_task(77);
    let mut engine = Engine::new(task.name.clone());
    let mut pending = tagged_pairs(&task);
    let attrs = task.left.attributes.clone();
    let n = task.left.len().max(task.right.len());
    for i in 0..n {
        for (side_records, sent) in [(&task.left.records, i), (&task.right.records, i)] {
            if sent < side_records.len() {
                let batch = IngestBatch {
                    attributes: (i == 0 && std::ptr::eq(side_records, &task.left.records))
                        .then(|| attrs.clone()),
                    left: if std::ptr::eq(side_records, &task.left.records) {
                        vec![side_records[sent].values.clone()]
                    } else {
                        Vec::new()
                    },
                    right: if std::ptr::eq(side_records, &task.right.records) {
                        vec![side_records[sent].values.clone()]
                    } else {
                        Vec::new()
                    },
                    pairs: Vec::new(),
                };
                engine.ingest(batch).unwrap();
            }
        }
        let sent_left = (i + 1).min(task.left.len());
        let sent_right = (i + 1).min(task.right.len());
        let (ready, rest): (Vec<IngestPair>, Vec<IngestPair>) = pending
            .into_iter()
            .partition(|p| (p.left as usize) < sent_left && (p.right as usize) < sent_right);
        pending = rest;
        if !ready.is_empty() {
            engine
                .ingest(IngestBatch {
                    pairs: ready,
                    ..Default::default()
                })
                .unwrap();
        }
    }
    assert!(pending.is_empty());
    assert_eq!(engine.stats().pairs, task.total_pairs());
    assert_assessments_identical(&engine, "one-by-one");
    assert_eq!(engine.link(3).ranked, batch_link(&engine, 3).ranked);
}

#[test]
fn intermediate_prefixes_are_twins_too() {
    // Twin equality must hold at every point of the ingest sequence, not
    // just at the end: assess after each of several cumulative batches.
    let task = synth_task(4242);
    let mut engine = Engine::new(task.name.clone());
    let mut pending = tagged_pairs(&task);
    let attrs = task.left.attributes.clone();
    let cuts = [
        (task.left.len() / 3, task.right.len() / 4),
        (2 * task.left.len() / 3, task.right.len() / 2),
        (task.left.len(), task.right.len()),
    ];
    let (mut sent_left, mut sent_right) = (0usize, 0usize);
    for (i, &(to_left, to_right)) in cuts.iter().enumerate() {
        let left: Vec<Vec<String>> = task.left.records[sent_left..to_left]
            .iter()
            .map(|r| r.values.clone())
            .collect();
        let right: Vec<Vec<String>> = task.right.records[sent_right..to_right]
            .iter()
            .map(|r| r.values.clone())
            .collect();
        (sent_left, sent_right) = (to_left, to_right);
        let (ready, rest): (Vec<IngestPair>, Vec<IngestPair>) = pending
            .into_iter()
            .partition(|p| (p.left as usize) < sent_left && (p.right as usize) < sent_right);
        pending = rest;
        engine
            .ingest(IngestBatch {
                attributes: (i == 0).then(|| attrs.clone()),
                left,
                right,
                pairs: ready,
            })
            .unwrap();
        // Complexity needs at least 4 labelled points with both classes;
        // only compare when the incremental path itself can answer.
        match engine.assess() {
            Ok(_) => assert_assessments_identical(&engine, &format!("cut {i}")),
            Err(_) => assert!(
                batch_assess(&engine).is_err(),
                "cut {i}: twin disagrees on assessability"
            ),
        }
        assert_eq!(
            engine.link(2).ranked,
            batch_link(&engine, 2).ranked,
            "cut {i}"
        );
    }
}
