//! ANN blocking bench: IVF-probed retrieval vs the exact scan at scale.
//!
//! Builds a synthetic near-duplicate corpus (entities × corrupted variants),
//! embeds it into a [`VecArena`], and measures:
//!
//! - **Exact baseline**: queries/sec of the parallel `rank_queries` kernel.
//! - **IVF retrieval**: k-means training cost, then queries/sec and
//!   recall@K across an `nprobe` sweep; at the default `nprobe` recall@10
//!   must be ≥ 0.95 (`"recall_ok"`), and at ≥ 1M records the probed path
//!   must beat the parallel exact scan ≥ 10× in queries/sec.
//! - **Twin guarantee**: exhaustive probing (`nprobe = nlists`) is asserted
//!   bit-identical to the exact scan (`"identical"`), and a small-scale
//!   incremental [`NnIndex`] crossing the re-train threshold is asserted
//!   identical to the batch path (`"incremental_identical"`).
//! - **Thread scaling**: exact and probed queries/sec at `RLB_THREADS` ∈
//!   {1, 2, 4, max}, rankings asserted identical at every level.
//!
//! Results go to `BENCH_blocking.json` via the shared artifact writer. CI
//! runs a small smoke (`RLB_BENCH_BLOCKING_RECORDS=20000`) and asserts the
//! twin and recall fields.
//!
//! Knobs: `RLB_BENCH_BLOCKING_RECORDS` (default 1000000),
//! `RLB_BENCH_BLOCKING_QUERIES` (default 200), `RLB_BENCH_SAMPLES` /
//! `RLB_BENCH_WARMUP` (harness). The index runs at
//! [`IvfParams::default`].

use rlb_bench::timing::{
    group, host_cores, resolved_samples, resolved_warmup, threads_metadata, Harness,
};
use rlb_blocking::{rank_queries, EmbeddingNnBlocker, IndexSide, IvfIndex, IvfParams, VecArena};
use rlb_data::Source;
use rlb_embed::HashedEmbedder;
use rlb_util::json::Value;
use rlb_util::Prng;
use std::hint::black_box;
use std::time::Instant;

const DIM: usize = 32;
const K: usize = 10;
/// Near-duplicate variants per entity; the exact top-K of a query is
/// dominated by its own entity's variants.
const VARIANTS: usize = 16;
const NPROBES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

const BRANDS: [&str; 16] = [
    "acme",
    "zenbrook",
    "kordia",
    "veltron",
    "nimbus",
    "quartza",
    "solace",
    "brightly",
    "omnira",
    "pexel",
    "granderm",
    "tavola",
    "ridgeline",
    "corvid",
    "lumena",
    "halcyon",
];
const ADJECTIVES: [&str; 16] = [
    "fast", "slim", "pro", "ultra", "mini", "max", "lite", "prime", "quiet", "rugged", "compact",
    "deluxe", "smart", "classic", "turbo", "eco",
];
const NOUNS: [&str; 16] = [
    "widget", "speaker", "laptop", "router", "camera", "drone", "monitor", "keyboard", "charger",
    "blender", "kettle", "scanner", "tablet", "printer", "headset", "tripod",
];

fn env_count(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// Clean token set for one entity: unique per entity, shared by all of its
/// variants.
fn entity_tokens(entity: usize) -> Vec<String> {
    vec![
        BRANDS[entity % 16].to_string(),
        ADJECTIVES[(entity / 16) % 16].to_string(),
        NOUNS[(entity / 256) % 16].to_string(),
        format!("model{}", entity % 997),
        format!("series{}", entity / 997),
    ]
}

/// Deterministic light corruption: drop one character from one token. Keeps
/// variants tightly clustered around their entity (cosine ≈ 0.9+) so the
/// recall target is about the index, not about an impossible corpus.
fn corrupt(tokens: &mut [String], seed: u64) {
    let mut rng = Prng::seed_from_u64(seed ^ 0xC0_44_07);
    let t = rng.index(tokens.len());
    let mut chars: Vec<char> = tokens[t].chars().collect();
    if chars.len() > 3 {
        chars.remove(rng.index(chars.len()));
        tokens[t] = chars.into_iter().collect();
    }
}

/// Tokens of corpus record `i`: variant 0 is the clean entity text, the
/// rest carry one typo each.
fn record_tokens(i: usize) -> Vec<String> {
    let (entity, variant) = (i / VARIANTS, i % VARIANTS);
    let mut tokens = entity_tokens(entity);
    if variant != 0 {
        corrupt(&mut tokens, i as u64);
    }
    tokens
}

/// Tokens of query `qi`: yet another corrupted variant of an entity spread
/// evenly over the corpus (a seed stream disjoint from the corpus variants).
fn query_tokens(qi: usize, entities: usize, queries: usize) -> Vec<String> {
    let entity = qi * entities / queries;
    let mut tokens = entity_tokens(entity);
    corrupt(&mut tokens, 0x51E4_0000 + qi as u64);
    tokens
}

/// Embeds `n` token sets into a flat arena, parallel over records.
fn embed_arena(
    embedder: &HashedEmbedder,
    n: usize,
    tokens_of: impl Fn(usize) -> Vec<String> + Sync,
) -> VecArena {
    let mut arena = VecArena::new(DIM);
    arena.reserve(n);
    for v in rlb_util::par::par_map_range(n, |i| embedder.pooled(&tokens_of(i))) {
        arena.push(&v);
    }
    arena
}

/// Mean fraction of the exact top-K recovered by the probed ranking.
fn recall_at_k(approx: &[Vec<u32>], exact: &[Vec<u32>]) -> f64 {
    let mut hit = 0usize;
    let mut total = 0usize;
    for (a, e) in approx.iter().zip(exact) {
        total += e.len();
        hit += e.iter().filter(|id| a.contains(id)).count();
    }
    hit as f64 / total.max(1) as f64
}

/// Probed retrieval over the whole query arena, parallel over queries.
fn search_all(
    ivf: &IvfIndex,
    index: &VecArena,
    queries: &VecArena,
    nprobe: usize,
) -> Vec<Vec<u32>> {
    rlb_util::par::par_map_range(queries.len(), |qi| {
        let mut q = vec![0.0; DIM];
        queries.copy_out(qi, &mut q);
        ivf.search(index, &q, K, nprobe)
    })
}

/// Times the probed path at each `nprobe`, reporting queries/sec, recall@K,
/// and the per-query probe/visit counters actually observed.
fn sweep_nprobe(
    h: &mut Harness,
    ivf: &IvfIndex,
    index: &VecArena,
    queries: &VecArena,
    exact: &[Vec<u32>],
    exact_qps: f64,
) -> (Vec<Value>, f64, f64) {
    let default_nprobe = ivf.params().nprobe;
    let runs = (resolved_samples() + resolved_warmup()) as u64;
    let mut points = NPROBES.to_vec();
    if !points.contains(&default_nprobe) {
        points.push(default_nprobe);
        points.sort_unstable();
    }
    let mut entries = Vec::new();
    // If the default nprobe is exhaustive at this scale it IS the exact
    // scan (the twin assertion covers it), so these fallbacks are correct.
    let (mut default_recall, mut default_qps) = (1.0, exact_qps);
    for np in points {
        if np >= ivf.nlists() {
            continue; // exhaustive: covered by the twin assertion
        }
        let before = rlb_obs::snapshot();
        let mut last: Option<Vec<Vec<u32>>> = None;
        let stats = h.bench(&format!("ann nprobe={np}"), || {
            let r = search_all(ivf, index, queries, np);
            let n = r.len();
            last = Some(r);
            black_box(n)
        });
        let after = rlb_obs::snapshot();
        let ranked = last.expect("at least one sample ran");
        let recall = recall_at_k(&ranked, exact);
        let qps = queries.len() as f64 / stats.median.as_secs_f64();
        let per_query = |name: &str| {
            (after.counter(name) - before.counter(name)) as f64
                / (runs * queries.len() as u64) as f64
        };
        let visited = per_query("ann.visited");
        println!(
            "    recall@{K} {recall:.4}, {qps:.0} queries/sec ({:.1}x exact), \
             {visited:.0} vectors visited/query",
            qps / exact_qps
        );
        if np == default_nprobe {
            (default_recall, default_qps) = (recall, qps);
        }
        entries.push(Value::Obj(vec![
            ("nprobe".into(), Value::Num(np as f64)),
            (
                "median_ms".into(),
                Value::Num(stats.median.as_secs_f64() * 1e3),
            ),
            ("queries_per_sec".into(), Value::Num(qps)),
            (format!("recall_at_{K}"), Value::Num(recall)),
            ("speedup_vs_exact".into(), Value::Num(qps / exact_qps)),
            ("visited_per_query".into(), Value::Num(visited)),
            (
                "probes_per_query".into(),
                Value::Num(per_query("ann.probes")),
            ),
        ]));
    }
    (entries, default_recall, default_qps)
}

/// Repeats exact and probed retrieval at `RLB_THREADS` ∈ {1, 2, 4, max}:
/// rankings must be identical at every level, and each level's queries/sec
/// lands in the scaling curve with the thread metadata that produced it.
/// Levels above the host's core count are marked `"oversubscribed": true`
/// and get no speedup. Restores the ambient `RLB_THREADS` before returning.
fn sweep_threads(
    h: &mut Harness,
    ivf: &IvfIndex,
    index: &VecArena,
    queries: &VecArena,
    exact_ref: &[Vec<u32>],
    ann_ref: &[Vec<u32>],
) -> Vec<Value> {
    let ambient = std::env::var("RLB_THREADS").ok();
    let max = host_cores();
    let mut levels: Vec<usize> = vec![1, 2, 4, max];
    levels.sort_unstable();
    levels.dedup();
    let nprobe = ivf.params().nprobe;

    let mut curve = Vec::new();
    for &t in &levels {
        std::env::set_var("RLB_THREADS", t.to_string());
        let mut last_exact: Option<Vec<Vec<u32>>> = None;
        let exact_stats = h.bench(&format!("exact RLB_THREADS={t}"), || {
            let r = rank_queries(index, queries, K);
            let n = r.len();
            last_exact = Some(r);
            black_box(n)
        });
        assert_eq!(
            last_exact.expect("sampled").as_slice(),
            exact_ref,
            "exact ranking changed at RLB_THREADS={t}"
        );
        let mut last_ann: Option<Vec<Vec<u32>>> = None;
        let ann_stats = h.bench(&format!("ann nprobe={nprobe} RLB_THREADS={t}"), || {
            let r = search_all(ivf, index, queries, nprobe);
            let n = r.len();
            last_ann = Some(r);
            black_box(n)
        });
        assert_eq!(
            last_ann.expect("sampled").as_slice(),
            ann_ref,
            "probed ranking changed at RLB_THREADS={t}"
        );
        let oversubscribed = t > max;
        let mut entry = vec![
            (
                "exact_queries_per_sec".into(),
                Value::Num(queries.len() as f64 / exact_stats.median.as_secs_f64()),
            ),
            (
                "ann_queries_per_sec".into(),
                Value::Num(queries.len() as f64 / ann_stats.median.as_secs_f64()),
            ),
            ("oversubscribed".into(), Value::Bool(oversubscribed)),
        ];
        if !oversubscribed {
            entry.push((
                "ann_speedup".into(),
                Value::Num(exact_stats.median.as_secs_f64() / ann_stats.median.as_secs_f64()),
            ));
        }
        entry.push(("ranked_identical".into(), Value::Bool(true)));
        entry.extend(threads_metadata());
        curve.push(Value::Obj(entry));
    }
    match ambient {
        Some(v) => std::env::set_var("RLB_THREADS", v),
        None => std::env::remove_var("RLB_THREADS"),
    }
    println!("  rankings identical across RLB_THREADS {levels:?}");
    curve
}

/// Small-scale incremental twin through the full record path: an `NnIndex`
/// fed in uneven batches (crossing training and at least one re-train) must
/// agree with the batch blocker exactly at exhaustive probing.
fn incremental_twin() -> Vec<(String, Value)> {
    const RECORDS: usize = 3000;
    const QUERIES: usize = 40;
    let mut right = Source::new("R", vec!["text".into()]);
    for i in 0..RECORDS {
        right.push(vec![record_tokens(i).join(" ")]);
    }
    let mut left = Source::new("L", vec!["text".into()]);
    for q in 0..QUERIES {
        left.push(vec![query_tokens(q, RECORDS / VARIANTS, QUERIES).join(" ")]);
    }
    let blocker = EmbeddingNnBlocker::default();
    let params = IvfParams {
        nlists: 32,
        min_train: 512,
        ..Default::default()
    };
    let mut index = blocker.index_with(IndexSide::Right, params);
    // Uneven batches: the first crosses min_train, the tail crosses the
    // 1.5× growth re-train.
    for chunk in [600usize, 1, 399, 2000] {
        let start = index.len();
        index.insert_all(&right.records[start..start + chunk]);
    }
    assert_eq!(index.len(), RECORDS);
    assert!(index.ivf().trained());
    assert!(
        index.ivf().trains() >= 2,
        "insert sequence crosses a re-train (got {})",
        index.ivf().trains()
    );
    let batch = blocker.retrieve(&left, &right, IndexSide::Right, K);
    let mut queries = VecArena::new(DIM);
    index.embed(&left.records, &mut queries);
    let exhaustive = index.retrieval_ann(&queries, K, Some(usize::MAX));
    assert_eq!(
        exhaustive.ranked, batch.ranked,
        "incremental exhaustive-probe retrieval != batch retrieve"
    );
    let probed = index.retrieval_ann(&queries, K, None);
    let recall = recall_at_k(&probed.ranked, &batch.ranked);
    println!(
        "  {RECORDS} records in 4 uneven batches, {} trains: exhaustive probe identical \
         to batch retrieve; probed recall@{K} {recall:.4}",
        index.ivf().trains()
    );
    vec![
        ("incremental_identical".into(), Value::Bool(true)),
        ("incremental_records".into(), Value::Num(RECORDS as f64)),
        (
            "incremental_trains".into(),
            Value::Num(index.ivf().trains() as f64),
        ),
        (format!("incremental_recall_at_{K}"), Value::Num(recall)),
    ]
}

fn main() {
    rlb_obs::init();
    let mut h = Harness::new();
    let records = env_count("RLB_BENCH_BLOCKING_RECORDS", 1_000_000);
    let queries = env_count("RLB_BENCH_BLOCKING_QUERIES", 200);
    let entities = (records / VARIANTS).max(1);
    let params = IvfParams::default();

    group(&format!(
        "corpus: {records} records ({entities} entities x {VARIANTS} variants), \
         {queries} queries, dim {DIM}"
    ));
    let embedder = HashedEmbedder::new(DIM, 0xB10C);
    let t = Instant::now();
    let index = embed_arena(&embedder, records, record_tokens);
    let query_arena = embed_arena(&embedder, queries, |qi| query_tokens(qi, entities, queries));
    let embed_s = t.elapsed().as_secs_f64();
    println!(
        "  embedded in {embed_s:.2}s; arena {} MiB in 8-vector blocks",
        index.bytes() / (1024 * 1024)
    );

    group("exact scan");
    let mut last: Option<Vec<Vec<u32>>> = None;
    let exact_par = h.bench("rank_queries (parallel)", || {
        let r = rank_queries(&index, &query_arena, K);
        let n = r.len();
        last = Some(r);
        black_box(n)
    });
    let exact = last.expect("at least one sample ran");
    let exact_qps = queries as f64 / exact_par.median.as_secs_f64();
    println!("  parallel {exact_qps:.0} queries/sec");

    group("IVF training");
    let mut ivf = IvfIndex::new(params);
    let t = Instant::now();
    ivf.train(&index);
    let train_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "  {} lists over {records} vectors in {train_ms:.0} ms",
        ivf.nlists()
    );

    group("exhaustive-probe twin (nprobe = nlists)");
    let exhaustive = search_all(&ivf, &index, &query_arena, usize::MAX);
    assert_eq!(
        exhaustive, exact,
        "exhaustive probing must be bit-identical to the exact scan"
    );
    println!("  bit-identical to the exact scan");

    group("nprobe sweep (queries/sec and recall vs exact)");
    let (sweep, default_recall, default_qps) =
        sweep_nprobe(&mut h, &ivf, &index, &query_arena, &exact, exact_qps);
    let default_nprobe = ivf.params().nprobe;
    assert!(
        default_recall >= 0.95,
        "recall@{K} {default_recall:.4} at default nprobe={default_nprobe} below the 0.95 floor"
    );
    let speedup = default_qps / exact_qps;
    if records >= 1_000_000 {
        assert!(
            speedup >= 10.0,
            "probed retrieval only {speedup:.1}x over the parallel exact scan at {records} records"
        );
    }
    println!(
        "  default nprobe={default_nprobe}: recall@{K} {default_recall:.4} (floor 0.95), \
         {speedup:.1}x over parallel exact"
    );

    group("thread scaling (rankings asserted identical per level)");
    let ann_ref = search_all(&ivf, &index, &query_arena, default_nprobe);
    let curve = sweep_threads(&mut h, &ivf, &index, &query_arena, &exact, &ann_ref);

    group("incremental NnIndex twin (batched inserts crossing re-train)");
    let incremental = incremental_twin();

    let snap = rlb_obs::snapshot();
    let counters = Value::Obj(
        ["ann.trains", "ann.train_ms", "ann.probes", "ann.visited"]
            .iter()
            .map(|&name| (name.to_string(), Value::Num(snap.counter(name) as f64)))
            .collect(),
    );

    let mut fields = vec![
        ("identical".into(), Value::Bool(true)),
        ("recall_ok".into(), Value::Bool(true)),
        ("records".into(), Value::Num(records as f64)),
        ("queries".into(), Value::Num(queries as f64)),
        ("entities".into(), Value::Num(entities as f64)),
        ("k".into(), Value::Num(K as f64)),
        ("dim".into(), Value::Num(DIM as f64)),
        ("arena_bytes".into(), Value::Num(index.bytes() as f64)),
        ("embed_s".into(), Value::Num(embed_s)),
        ("nlists".into(), Value::Num(ivf.nlists() as f64)),
        ("train_ms".into(), Value::Num(train_ms)),
        ("exact_queries_per_sec".into(), Value::Num(exact_qps)),
        ("default_nprobe".into(), Value::Num(default_nprobe as f64)),
        (format!("recall_at_{K}"), Value::Num(default_recall)),
        ("speedup_vs_exact".into(), Value::Num(speedup)),
        ("speedup_asserted".into(), Value::Bool(records >= 1_000_000)),
        ("nprobe_sweep".into(), Value::Arr(sweep)),
        ("scaling_curve".into(), Value::Arr(curve)),
        ("counters".into(), counters),
    ];
    fields.extend(incremental);
    rlb_bench::artifact::write("blocking", fields);
}
