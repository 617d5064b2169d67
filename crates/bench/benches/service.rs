//! Resident-service bench: ingest and query throughput through the wire
//! protocol, plus the incremental-vs-rebuild twin assertion.
//!
//! The engine ingests a synthetic benchmark in many small batches via
//! `Session::handle` (the same dispatch the `rlb-serve` binary runs), then
//! answers `link` and `assess` queries. Four jobs:
//!
//! - **Identity**: after the staged ingest, the incremental views/index
//!   must produce `to_bits`-identical assessments and identical retrievals
//!   to a from-scratch batch rebuild over the same records.
//! - **Throughput**: records/sec through staged ingest, requests/sec for
//!   `link` and `assess`, and request-latency p50/p99 from the engine's own
//!   `serve.request_us` histogram.
//! - **Assessment cache**: post-ingest `assess` over the similarity rows
//!   scored at ingest must be ≥2× faster than a full batch rebuild
//!   (`assess_with` over freshly built views) while staying byte-identical
//!   — asserted here, not just reported.
//! - **Concurrent sessions**: N ∈ {1, 2, 4} client threads hammering the
//!   `RwLock`-shared engine with read ops; requests/sec per level goes in
//!   the artifact (levels above the host's core count marked
//!   `"oversubscribed": true`), and the assessment must be unchanged
//!   afterwards.
//!
//! Results go to `BENCH_service.json` (the CI smoke run asserts
//! `"identical": true`).

use rlb_bench::timing::{group, host_cores, Harness};
use rlb_blocking::{EmbeddingNnBlocker, IndexSide};
use rlb_core::assess_with;
use rlb_matchers::features::TaskViewCache;
use rlb_serve::{Engine, Session};
use rlb_synth::{BenchmarkProfile, DifficultyKnobs, Domain};
use rlb_util::json::Value;
use std::hint::black_box;
use std::sync::RwLock;

const INGEST_BATCHES: usize = 25;
const LINK_K: usize = 10;
/// Threads per level of the concurrent-sessions scaling block.
const SESSION_LEVELS: [usize; 3] = [1, 2, 4];
/// Requests each concurrent session issues.
const REQUESTS_PER_SESSION: usize = 24;

fn synth_task(seed: u64) -> rlb_data::MatchingTask {
    // Many more records than labelled pairs on purpose: the assessment-cache
    // speedup below compares `assess` against the batch rebuild, and what
    // the rows scored at ingest (plus the incrementally extended views)
    // avoid is re-tokenizing the record store and re-scoring the pairs — the
    // complexity measures over the labelled pairs run in both paths, so the
    // store, not the pair list, is the scaled dimension.
    rlb_synth::generate_task(&BenchmarkProfile {
        id: "serve-bench",
        stands_for: "service throughput bench",
        domain: Domain::Product,
        left_size: 2600,
        right_size: 3200,
        n_matches: 400,
        labeled_pairs: 400,
        positive_fraction: 0.2,
        knobs: DifficultyKnobs {
            match_noise: 0.35,
            hard_negative_fraction: 0.3,
            anchor_attrs: 1,
            dirty: false,
            style_noise: 0.05,
            right_terse: false,
            base_missing: 0.05,
        },
        seed,
    })
}

fn records_value(records: &[rlb_data::Record]) -> Value {
    Value::Arr(
        records
            .iter()
            .map(|r| Value::Arr(r.values.iter().map(|v| Value::Str(v.clone())).collect()))
            .collect(),
    )
}

fn pairs_value(
    task: &rlb_data::MatchingTask,
    lo_l: usize,
    hi_l: usize,
    lo_r: usize,
    hi_r: usize,
) -> Value {
    let eligible = |lp: &rlb_data::LabeledPair, split: &str| -> Option<Value> {
        let (l, r) = (lp.pair.left as usize, lp.pair.right as usize);
        (l < hi_l && r < hi_r && (l >= lo_l || r >= lo_r)).then(|| {
            Value::Obj(vec![
                ("left".into(), Value::Num(lp.pair.left as f64)),
                ("right".into(), Value::Num(lp.pair.right as f64)),
                ("match".into(), Value::Bool(lp.is_match)),
                ("split".into(), Value::Str(split.into())),
            ])
        })
    };
    let mut out = Vec::new();
    for (pairs, split) in [
        (&task.train, "train"),
        (&task.val, "val"),
        (&task.test, "test"),
    ] {
        out.extend(pairs.iter().filter_map(|lp| eligible(lp, split)));
    }
    Value::Arr(out)
}

/// Drives the full ingest as `INGEST_BATCHES` wire requests; returns the
/// total records ingested and the wall time.
fn staged_ingest(
    engine: &RwLock<Engine>,
    task: &rlb_data::MatchingTask,
) -> (usize, std::time::Duration) {
    let started = std::time::Instant::now();
    let (nl, nr) = (task.left.len(), task.right.len());
    let (mut sent_l, mut sent_r) = (0usize, 0usize);
    let mut session = Session::default();
    for b in 0..INGEST_BATCHES {
        let to_l = (nl * (b + 1)) / INGEST_BATCHES;
        let to_r = (nr * (b + 1)) / INGEST_BATCHES;
        let mut fields = vec![
            ("op".to_string(), Value::Str("ingest".into())),
            (
                "left".into(),
                records_value(&task.left.records[sent_l..to_l]),
            ),
            (
                "right".into(),
                records_value(&task.right.records[sent_r..to_r]),
            ),
            (
                "pairs".into(),
                pairs_value(task, sent_l, to_l, sent_r, to_r),
            ),
        ];
        if b == 0 {
            fields.push((
                "attributes".into(),
                Value::Arr(
                    task.left
                        .attributes
                        .iter()
                        .map(|a| Value::Str(a.clone()))
                        .collect(),
                ),
            ));
        }
        let (resp, _) = session.handle(engine, &Value::Obj(fields));
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "ingest batch {b} failed: {resp:?}"
        );
        (sent_l, sent_r) = (to_l, to_r);
    }
    (nl + nr, started.elapsed())
}

/// The twin assertion: incremental assessment and retrieval must match a
/// from-scratch batch rebuild exactly.
fn assert_twin(engine: &Engine) {
    let task = engine.task();
    let incremental = engine.assess().expect("incremental assess");
    let rebuilt = assess_with(task, &[], &TaskViewCache::build(task)).expect("rebuilt assess");
    for ((name, a), (_, b)) in incremental
        .complexity
        .values()
        .iter()
        .zip(rebuilt.complexity.values())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "{name} diverged: {a} vs {b}");
    }
    assert_eq!(
        rlb_util::json::to_string(&incremental),
        rlb_util::json::to_string(&rebuilt),
        "assessment diverged"
    );
    assert_eq!(
        engine.link(LINK_K).ranked,
        EmbeddingNnBlocker::default()
            .retrieve(&task.left, &task.right, IndexSide::Right, LINK_K)
            .ranked,
        "retrieval diverged"
    );
    println!("  incremental ingest == batch rebuild: assessment + retrieval bit-identical");
}

/// Runs `threads` concurrent client sessions against the shared engine,
/// each issuing `REQUESTS_PER_SESSION` read requests (link/assess/stats in
/// rotation); returns requests issued and wall time.
fn concurrent_sessions(engine: &RwLock<Engine>, threads: usize) -> (usize, std::time::Duration) {
    let link = Value::parse(&format!(r#"{{"op":"link","k":{LINK_K},"limit":5}}"#)).unwrap();
    let assess = Value::parse(r#"{"op":"assess"}"#).unwrap();
    let stats = Value::parse(r#"{"op":"stats"}"#).unwrap();
    let requests = [&link, &stats, &assess, &stats];
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        for sid in 1..=threads as u64 {
            let requests = &requests;
            scope.spawn(move || {
                let mut session = Session::numbered(sid);
                for i in 0..REQUESTS_PER_SESSION {
                    let (resp, _) = session.handle(engine, requests[i % requests.len()]);
                    assert_eq!(
                        resp.get("ok").and_then(Value::as_bool),
                        Some(true),
                        "concurrent request failed: {resp:?}"
                    );
                }
            });
        }
    });
    (threads * REQUESTS_PER_SESSION, started.elapsed())
}

fn main() {
    rlb_obs::init();
    let mut h = Harness::new();
    let task = synth_task(0x5EEB);

    group("staged ingest through the wire protocol");
    let engine = RwLock::new(Engine::new("serve-bench"));
    let (records, ingest_wall) = staged_ingest(&engine, &task);
    let ingest_rps = records as f64 / ingest_wall.as_secs_f64();
    println!(
        "  {records} records in {INGEST_BATCHES} batches: {:.1} ms total, {:.0} records/sec",
        ingest_wall.as_secs_f64() * 1e3,
        ingest_rps
    );

    group("incremental twin identity");
    assert_twin(&engine.read().unwrap());

    group("query throughput (Session::handle)");
    let mut session = Session::default();
    let link_req = Value::parse(&format!(r#"{{"op":"link","k":{LINK_K},"limit":10}}"#)).unwrap();
    let link_stats = h.bench("link", || black_box(session.handle(&engine, &link_req)));
    let assess_req = Value::parse(r#"{"op":"assess"}"#).unwrap();
    let assess_stats = h.bench("assess", || black_box(session.handle(&engine, &assess_req)));
    let stats_req = Value::parse(r#"{"op":"stats"}"#).unwrap();
    let (stats_resp, _) = session.handle(&engine, &stats_req);
    assert_eq!(stats_resp.get("ok").and_then(Value::as_bool), Some(true));
    // Every response must echo its request trace under the run trace.
    let trace = stats_resp
        .get("trace")
        .and_then(Value::as_str)
        .expect("response echoes a trace id");
    assert!(
        trace.starts_with(&format!("{}/", rlb_obs::run_trace())),
        "trace {trace:?} not under the run trace"
    );

    group("incremental assessment cache vs full recompute");
    // Ingest scored every pair once; the batch rebuild re-tokenizes the
    // full store and re-scores every pair per call. The acceptance bar:
    // post-ingest assess ≥2× faster while byte-identical (identity
    // asserted by `assert_twin` above and the service test suite).
    let cached_stats = {
        let engine = engine.read().unwrap();
        h.bench("assess_cached", || black_box(engine.assess().unwrap()))
    };
    let rebuilt_stats = {
        let engine = engine.read().unwrap();
        let task = engine.task();
        h.bench("assess_rebuilt", || {
            black_box(assess_with(task, &[], &TaskViewCache::build(task)).unwrap())
        })
    };
    let cache_speedup = rebuilt_stats.median.as_secs_f64() / cached_stats.median.as_secs_f64();
    println!(
        "  cached {:.2} ms vs rebuilt {:.2} ms: {cache_speedup:.1}x",
        cached_stats.median.as_secs_f64() * 1e3,
        rebuilt_stats.median.as_secs_f64() * 1e3,
    );
    assert!(
        cache_speedup >= 2.0,
        "assessment cache speedup {cache_speedup:.2}x < 2x"
    );

    group("concurrent-session scaling (RwLock read path)");
    let before_concurrency = rlb_util::json::to_string(&engine.read().unwrap().assess().unwrap());
    let mut scaling = Vec::new();
    for threads in SESSION_LEVELS {
        let (issued, wall) = concurrent_sessions(&engine, threads);
        let rps = issued as f64 / wall.as_secs_f64();
        // More sessions than cores measure time-slicing, not scaling.
        let oversubscribed = threads > host_cores();
        let note = if oversubscribed {
            " (oversubscribed)"
        } else {
            ""
        };
        println!("  {threads} session(s): {issued} requests, {rps:.0} requests/sec{note}");
        scaling.push((
            threads.to_string(),
            Value::Obj(vec![
                ("requests".into(), Value::Num(issued as f64)),
                ("wall_ms".into(), Value::Num(wall.as_secs_f64() * 1e3)),
                ("requests_per_sec".into(), Value::Num(rps)),
                ("oversubscribed".into(), Value::Bool(oversubscribed)),
            ]),
        ));
    }
    // Read-path concurrency must not perturb engine state: the assessment
    // after the hammering is byte-for-byte the one from before.
    assert_eq!(
        before_concurrency,
        rlb_util::json::to_string(&engine.read().unwrap().assess().unwrap()),
        "concurrent reads changed the assessment"
    );

    // The live metrics op: a second call right after the first must see the
    // first in its window (delta == 1 for serve.metrics).
    let metrics_req = Value::parse(r#"{"op":"metrics"}"#).unwrap();
    let (_, _) = session.handle(&engine, &metrics_req);
    let (metrics_resp, _) = session.handle(&engine, &metrics_req);
    assert_eq!(metrics_resp.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(
        metrics_resp
            .get_path("counters.serve.metrics.delta")
            .and_then(Value::as_f64),
        Some(1.0),
        "one metrics call in the window: {metrics_resp:?}"
    );
    let window_p99 = metrics_resp
        .get_path("histograms.serve.request_us.window.p99")
        .and_then(Value::as_f64)
        .expect("rolling request p99");
    println!("  metrics op: rolling request p99 {window_p99} us");

    // Request latency quantiles from the engine's own histogram.
    let snap = rlb_obs::snapshot();
    let request_us = snap
        .histogram("serve.request_us")
        .expect("requests recorded a latency histogram");
    let quantile = |q| request_us.quantile(q).expect("non-empty histogram");
    let (p50, p99) = (quantile(0.50), quantile(0.99));
    println!(
        "  {} requests: p50 {p50} us, p99 {p99} us",
        request_us.count
    );

    // Thread metadata and the sample/warmup knobs come from the shared
    // artifact envelope.
    let fields = vec![
        ("identical".into(), Value::Bool(true)),
        ("records".into(), Value::Num(records as f64)),
        ("ingest_batches".into(), Value::Num(INGEST_BATCHES as f64)),
        (
            "ingest_ms".into(),
            Value::Num(ingest_wall.as_secs_f64() * 1e3),
        ),
        ("ingest_records_per_sec".into(), Value::Num(ingest_rps)),
        (
            "link_median_ms".into(),
            Value::Num(link_stats.median.as_secs_f64() * 1e3),
        ),
        (
            "link_per_sec".into(),
            Value::Num(1.0 / link_stats.median.as_secs_f64()),
        ),
        (
            "assess_median_ms".into(),
            Value::Num(assess_stats.median.as_secs_f64() * 1e3),
        ),
        (
            "assess_per_sec".into(),
            Value::Num(1.0 / assess_stats.median.as_secs_f64()),
        ),
        (
            "assess_cached_median_ms".into(),
            Value::Num(cached_stats.median.as_secs_f64() * 1e3),
        ),
        (
            "assess_rebuilt_median_ms".into(),
            Value::Num(rebuilt_stats.median.as_secs_f64() * 1e3),
        ),
        ("assess_cache_speedup".into(), Value::Num(cache_speedup)),
        ("concurrent_sessions".into(), Value::Obj(scaling)),
        ("requests".into(), Value::Num(request_us.count as f64)),
        ("request_p50_us".into(), Value::Num(p50 as f64)),
        ("request_p99_us".into(), Value::Num(p99 as f64)),
    ];
    rlb_bench::artifact::write("service", fields);
}
