//! Timing benches for the difficulty measures: the degree of linearity
//! (Figure 1/4 computation) and the 17 complexity measures (Figure 2/5
//! computation), plus an ablation of the complexity subsample cap — the
//! main runtime lever DESIGN.md calls out.
//!
//! On a 10k-labelled-pair task the interned linearity sweep is timed twice:
//! with the view build and over a shared [`TaskViewCache`]. Both
//! throughputs go to `BENCH_measures.json`, so the perf trajectory stays
//! machine-readable across changes.
//!
//! One acceptance check gates the observability subsystem itself: with
//! `RLB_LOG=off`, the JSONL sink suspended, and allocation accounting off,
//! an instrumented kernel must run within 2% of its bare twin
//! ([`bench_obs_overhead`]); the measured ratio also lands in the artifact.

use rlb_bench::timing::{group, Harness, Stats};
use rlb_complexity::ComplexityConfig;
use rlb_core::{degree_of_linearity, degree_of_linearity_with, RosterConfig, TaskViewCache};
use rlb_matchers::features::TaskViews;
use rlb_synth::{BenchmarkProfile, DifficultyKnobs, Domain};
use rlb_util::json::Value;
use std::hint::black_box;

fn reference_task(pairs: usize) -> rlb_data::MatchingTask {
    rlb_synth::generate_task(&BenchmarkProfile {
        id: "bench",
        stands_for: "timing bench",
        domain: Domain::Product,
        left_size: 400,
        right_size: 500,
        n_matches: 250,
        labeled_pairs: pairs,
        positive_fraction: 0.15,
        knobs: DifficultyKnobs::moderate(),
        seed: 0xBE7C,
    })
}

fn bench_linearity(h: &mut Harness) {
    group("degree_of_linearity");
    for pairs in [500usize, 1000, 2000] {
        let task = reference_task(pairs);
        h.bench(&format!("pairs/{pairs}"), || {
            black_box(degree_of_linearity(&task))
        });
    }
}

/// Pairs scored per second, from the median sample of a linearity run.
fn pairs_per_sec(pairs: usize, stats: &Stats) -> f64 {
    pairs as f64 / stats.median.as_secs_f64()
}

fn bench_interned(h: &mut Harness) -> Vec<(String, Value)> {
    group("degree_of_linearity interned (10k pairs)");
    const PAIRS: usize = 10_000;
    let task = reference_task(PAIRS);
    let cache = TaskViewCache::build(&task);
    let interned_e2e = h.bench("interned (build + sweep)", || {
        black_box(degree_of_linearity(&task))
    });
    let interned = h.bench("interned (shared cache, sweep only)", || {
        black_box(degree_of_linearity_with(&task, &cache))
    });
    // Sample counts and thread metadata come from the shared artifact
    // envelope; only the bench-specific numbers live here.
    vec![
        ("pairs".into(), Value::Num(PAIRS as f64)),
        (
            "interned_pairs_per_sec".into(),
            Value::Num(pairs_per_sec(PAIRS, &interned)),
        ),
        (
            "interned_e2e_pairs_per_sec".into(),
            Value::Num(pairs_per_sec(PAIRS, &interned_e2e)),
        ),
    ]
}

fn bench_complexity(h: &mut Harness) {
    let task = reference_task(1500);
    let views = TaskViews::build(&task);
    let feats: Vec<Vec<f64>> = task
        .all_pairs()
        .map(|lp| {
            let [cs, js] = views.cs_js(lp.pair);
            vec![cs, js]
        })
        .collect();
    let labels: Vec<bool> = task.all_pairs().map(|lp| lp.is_match).collect();

    group("complexity_measures");
    // Ablation: the O(n²) subsample cap trades fidelity for runtime.
    for cap in [250usize, 500, 1000] {
        let cfg = ComplexityConfig {
            max_points: cap,
            ..Default::default()
        };
        h.bench(&format!("cap/{cap}"), || {
            black_box(rlb_complexity::compute(&feats, &labels, &cfg).unwrap())
        });
    }
}

fn bench_pair_featurization(h: &mut Harness) {
    let task = reference_task(2000);
    let views = TaskViews::build(&task);
    let pairs: Vec<_> = task.all_pairs().map(|lp| lp.pair).collect();
    group("featurization");
    h.bench("cs_js_featurization_2000_pairs", || {
        for &p in &pairs {
            black_box(views.cs_js(p));
        }
    });
}

/// One chunk of the overhead-gate workload: a branch-free xorshift mixing
/// loop, identical between the bare and instrumented twins.
fn overhead_chunk(seed: u64, iters: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut acc = 0u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    acc
}

const OVERHEAD_CHUNKS: u64 = 16;
const OVERHEAD_ITERS: u64 = 200_000;

/// `seed` must come through `black_box` so the pure kernel cannot be
/// hoisted out of the timing loop as loop-invariant.
fn overhead_bare(seed: u64) -> u64 {
    let mut total = 0u64;
    for chunk in 0..OVERHEAD_CHUNKS {
        total = total.wrapping_add(overhead_chunk(seed ^ chunk, OVERHEAD_ITERS));
    }
    total
}

/// Twin of [`overhead_bare`] instrumented at the density the pipeline uses:
/// one span per region, one span plus one counter and one histogram sample
/// per chunk.
fn overhead_instrumented(seed: u64) -> u64 {
    let _run = rlb_obs::span!("bench.overhead");
    let mut total = 0u64;
    for chunk in 0..OVERHEAD_CHUNKS {
        let _s = rlb_obs::span!("bench.overhead.chunk");
        let started = std::time::Instant::now();
        total = total.wrapping_add(overhead_chunk(seed ^ chunk, OVERHEAD_ITERS));
        rlb_obs::counter_add("bench.overhead.chunks", 1);
        rlb_obs::histogram_record(
            "bench.overhead.chunk_us",
            started.elapsed().as_micros() as u64,
        );
    }
    total
}

/// The muted-observability overhead gate: with `RLB_LOG=off`, the sink
/// suspended, and allocation accounting off, realistic instrumentation
/// density must cost no more than 2% over the bare twin. Samples are
/// interleaved (bare, instrumented, bare, …) over a fixed round count —
/// independent of `RLB_BENCH_SAMPLES`, so CI smoke runs keep enough
/// samples for a stable minimum — and compared on the fastest sample,
/// which is robust to scheduling spikes. The measured ratio goes into
/// `BENCH_measures.json` so the trajectory is auditable.
fn bench_obs_overhead() -> Vec<(String, Value)> {
    const ROUNDS: usize = 20;
    group("observability overhead when muted (target <= 2%)");
    assert_eq!(
        overhead_bare(7),
        overhead_instrumented(7),
        "the twins must compute the same value"
    );
    let saved_level = rlb_obs::level();
    let saved_alloc = rlb_obs::alloc_stats_enabled();
    rlb_obs::set_level(rlb_obs::Level::Off);
    rlb_obs::set_alloc_stats(false);
    let _muted = rlb_obs::suspend_sink();
    let mut bare_min = std::time::Duration::MAX;
    let mut instrumented_min = std::time::Duration::MAX;
    black_box(overhead_instrumented(black_box(0))); // warm both paths
    for round in 0..ROUNDS {
        let seed = black_box(round as u64);
        let t = std::time::Instant::now();
        black_box(overhead_bare(seed));
        bare_min = bare_min.min(t.elapsed());
        let t = std::time::Instant::now();
        black_box(overhead_instrumented(seed));
        instrumented_min = instrumented_min.min(t.elapsed());
    }
    rlb_obs::set_alloc_stats(saved_alloc);
    rlb_obs::set_level(saved_level);
    println!(
        "  bare min {:.3} ms, instrumented min {:.3} ms ({ROUNDS} interleaved rounds)",
        bare_min.as_secs_f64() * 1e3,
        instrumented_min.as_secs_f64() * 1e3,
    );
    let ratio = instrumented_min.as_secs_f64() / bare_min.as_secs_f64();
    let overhead_pct = (ratio - 1.0) * 100.0;
    println!(
        "  instrumented/bare min ratio {ratio:.4} ({overhead_pct:+.2}% overhead, \
         {} spans + metrics per kernel call)",
        OVERHEAD_CHUNKS + 1
    );
    assert!(
        ratio <= 1.02,
        "muted observability overhead {overhead_pct:+.2}% exceeds the 2% budget"
    );
    println!("  overhead gate: PASS (<= 2%)");
    vec![
        ("obs_overhead_ratio".into(), Value::Num(ratio)),
        ("obs_overhead_budget".into(), Value::Num(1.02)),
        ("obs_overhead_pass".into(), Value::Bool(true)),
    ]
}

/// Small end-to-end roster run so the emitted trace carries a `roster.run`
/// span with its per-matcher children and the `par.*` worker metrics — the
/// CI smoke run asserts on exactly this.
fn roster_smoke() {
    group("roster smoke (2/3-epoch budget, 600 pairs)");
    let task = reference_task(600);
    let cfg = RosterConfig {
        dl_epochs: [2, 3],
        ..Default::default()
    };
    let runs = rlb_core::run_roster(&task, &cfg).expect("roster smoke run");
    println!("  {} matcher configurations completed", runs.len());
}

/// When `RLB_OBS_FILE` is set, every line must parse as JSON via the strict
/// in-tree parser and the trace must contain the two pipeline anchor spans.
fn verify_obs_file(path: &str) {
    let text = std::fs::read_to_string(path).expect("read RLB_OBS_FILE back");
    let mut span_names = std::collections::HashSet::new();
    let mut records = 0usize;
    for line in text.lines() {
        let v = Value::parse(line).expect("every RLB_OBS_FILE line parses as JSON");
        records += 1;
        if v.get("type").and_then(Value::as_str) == Some("span") {
            if let Some(name) = v.get("name").and_then(Value::as_str) {
                span_names.insert(name.to_string());
            }
        }
    }
    for required in ["linearity.sweep", "roster.run"] {
        assert!(
            span_names.contains(required),
            "{path} has no {required} span (saw {span_names:?})"
        );
    }
    println!(
        "obs file OK: {records} records, {} distinct span names",
        span_names.len()
    );
}

fn main() {
    rlb_obs::init();
    let wall_start = std::time::Instant::now();
    let mut h = Harness::new();
    {
        let _alloc = rlb_obs::alloc_phase("bench.linearity");
        bench_linearity(&mut h);
    }
    let mut measures = {
        let _alloc = rlb_obs::alloc_phase("bench.interned");
        bench_interned(&mut h)
    };
    {
        let _alloc = rlb_obs::alloc_phase("bench.complexity");
        bench_complexity(&mut h);
        bench_pair_featurization(&mut h);
    }
    {
        let _alloc = rlb_obs::alloc_phase("bench.roster");
        roster_smoke();
    }
    measures.extend(bench_obs_overhead());

    println!();
    rlb_bench::artifact::write("measures", measures);

    let metrics_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../RUN_METRICS.json");
    rlb_obs::write_run_metrics(metrics_path, wall_start.elapsed()).expect("write RUN_METRICS.json");
    println!("wrote RUN_METRICS.json");

    if let Ok(obs_path) = std::env::var("RLB_OBS_FILE") {
        if !obs_path.trim().is_empty() {
            rlb_obs::clear_sink(); // flush before reading the file back
            verify_obs_file(&obs_path);
        }
    }
}
