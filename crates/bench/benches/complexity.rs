//! Bench for the 17 complexity measures: [`rlb_complexity::compute`] over
//! the streaming columnar
//! [`DistanceEngine`](rlb_textsim::gower::DistanceEngine) kernels.
//!
//! Four jobs:
//!
//! - **Throughput**: points/sec and peak distance-buffer memory at the old
//!   1500-point default cap.
//! - **Thread scaling**: the big exact run is repeated at `RLB_THREADS` ∈
//!   {1, 2, 4, max}, the full report is asserted bit-identical across every
//!   level (thread-count invariance at scale, not just in unit tests), and
//!   the timing curve lands in the artifact with per-sample thread metadata.
//! - **Baseline tracking**: the 20000-point exact run is compared against
//!   the recorded pre-columnar baseline median.
//! - **Estimator**: the landmark estimator assesses a ≥100k-point synthetic
//!   set and its mean must land within the declared error bound of the
//!   exact (subsampled-to-cap) twin's.
//!
//! Results go to `BENCH_complexity.json` (the CI smoke runs — one at
//! `RLB_THREADS=1`, one at `=4` — assert the file carries the scaling curve
//! with `"report_identical": true`, and the threads metadata). The identity
//! against the materialized-matrix reference runs in `cargo test`
//! (`rlb-complexity`'s unit tests, at this bench's former scales).
//!
//! Smoke knobs: `RLB_BENCH_SAMPLES` / `RLB_BENCH_WARMUP` (harness),
//! `RLB_BENCH_POINTS` (thread-sweep scale, default 20000),
//! `RLB_BENCH_ESTIMATOR_POINTS` (estimator scale, default 100000).

use rlb_bench::timing::{group, host_cores, threads_metadata, Harness};
use rlb_complexity::{compute, estimator_bound, ComplexityConfig, ComplexityReport};
use rlb_textsim::gower::DistanceEngine;
use rlb_util::json::Value;
use rlb_util::Prng;
use std::hint::black_box;
use std::time::Instant;

/// Median of the 20000-point exact run recorded by the last pre-columnar
/// artifact (row-major scalar kernel, ragged bitset rows): the baseline the
/// columnar/thread-scaled kernels are measured against.
const RECORDED_BASELINE_MS: f64 = 86_842.7;
const BASELINE_POINTS: usize = 20_000;

/// Similarity-style 2-D data, mirroring the complexity crate's test fixture:
/// positives clustered high, negatives low, with controllable overlap.
fn synthetic(n: usize, overlap: f64, pos_frac: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
    let mut rng = Prng::seed_from_u64(seed);
    let spread = 0.05 + 0.25 * overlap;
    let gap = 0.6 * (1.0 - overlap);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..n {
        let pos = rng.chance(pos_frac);
        let c = if pos {
            0.5 + gap / 2.0
        } else {
            0.5 - gap / 2.0
        };
        xs.push(vec![
            rng.normal_with(c, spread).clamp(0.0, 1.0),
            rng.normal_with(c, spread).clamp(0.0, 1.0),
        ]);
        ys.push(pos);
    }
    ys[0] = true;
    ys[1] = false;
    (xs, ys)
}

fn cfg_with_cap(cap: usize) -> ComplexityConfig {
    ComplexityConfig {
        max_points: cap,
        ..Default::default()
    }
}

fn env_points(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn assert_reports_identical(a: &ComplexityReport, b: &ComplexityReport, what: &str) {
    for ((name, va), (_, vb)) in a.values().iter().zip(b.values()) {
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "{name} diverged at {what}: {va} vs {vb}"
        );
    }
}

/// Times the streaming path at `points` and reports throughput + memory.
fn bench_scale(h: &mut Harness, points: usize) -> Value {
    let (xs, ys) = synthetic(points, 0.5, 0.25, 0xBE_7C ^ points as u64);
    let cfg = cfg_with_cap(points);
    let stats = h.bench(&format!("streaming compute, n={points}"), || {
        black_box(compute(&xs, &ys, &cfg).unwrap())
    });
    let engine = DistanceEngine::fit(&xs).expect("non-empty");
    let peak = engine.peak_buffer_bytes();
    let ragged_bytes = points * points * 8;
    let pps = points as f64 / stats.median.as_secs_f64();
    println!(
        "    {:.0} points/sec; peak distance buffers {} KiB vs {} KiB ragged ({}x smaller)",
        pps,
        peak / 1024,
        ragged_bytes / 1024,
        ragged_bytes / peak.max(1)
    );
    let mut fields = vec![
        ("points".into(), Value::Num(points as f64)),
        (
            "median_ms".into(),
            Value::Num(stats.median.as_secs_f64() * 1e3),
        ),
        ("points_per_sec".into(), Value::Num(pps)),
        ("peak_buffer_bytes".into(), Value::Num(peak as f64)),
        (
            "ragged_matrix_bytes".into(),
            Value::Num(ragged_bytes as f64),
        ),
    ];
    fields.extend(threads_metadata());
    Value::Obj(fields)
}

/// Repeats the exact run at `RLB_THREADS` ∈ {1, 2, 4, max}: every level's
/// full report must be bit-identical (the thread-invariance contract at
/// scale), and each level's timing lands in the scaling curve with the
/// thread metadata that actually produced it. Levels above the host's core
/// count are marked `"oversubscribed": true` and get no speedup. Restores
/// the ambient `RLB_THREADS` before returning so the rest of the bench (and
/// the CI smoke's external setting) is untouched.
fn sweep_threads(h: &mut Harness, points: usize) -> Vec<Value> {
    let ambient = std::env::var("RLB_THREADS").ok();
    let max = host_cores();
    let mut levels: Vec<usize> = vec![1, 2, 4, max];
    levels.sort_unstable();
    levels.dedup();

    let (xs, ys) = synthetic(points, 0.5, 0.25, 0xBE_7C ^ points as u64);
    let cfg = cfg_with_cap(points);
    let mut reference: Option<ComplexityReport> = None;
    let mut curve = Vec::new();
    let mut base_median = f64::NAN;
    for &t in &levels {
        std::env::set_var("RLB_THREADS", t.to_string());
        let mut last: Option<ComplexityReport> = None;
        let stats = h.bench(&format!("exact n={points}, RLB_THREADS={t}"), || {
            let r = compute(&xs, &ys, &cfg).unwrap();
            let mean = r.mean();
            last = Some(r);
            black_box(mean)
        });
        let report = last.expect("at least one sample ran");
        match &reference {
            None => reference = Some(report),
            Some(want) => {
                assert_reports_identical(&report, want, &format!("RLB_THREADS={t}"));
            }
        }
        let median_ms = stats.median.as_secs_f64() * 1e3;
        if t == levels[0] {
            base_median = median_ms;
        }
        let oversubscribed = t > max;
        let mut entry = vec![
            ("points".into(), Value::Num(points as f64)),
            ("median_ms".into(), Value::Num(median_ms)),
            (
                "points_per_sec".into(),
                Value::Num(points as f64 / stats.median.as_secs_f64()),
            ),
            ("oversubscribed".into(), Value::Bool(oversubscribed)),
        ];
        if !oversubscribed {
            entry.push((
                "speedup_vs_1_thread".into(),
                Value::Num(base_median / median_ms),
            ));
        }
        entry.push(("report_identical".into(), Value::Bool(true)));
        entry.extend(threads_metadata());
        curve.push(Value::Obj(entry));
    }
    match ambient {
        Some(v) => std::env::set_var("RLB_THREADS", v),
        None => std::env::remove_var("RLB_THREADS"),
    }
    println!("  report bit-identical across RLB_THREADS {levels:?}");
    curve
}

/// Runs the landmark estimator against the exact twin on a large synthetic
/// set: the estimator's 17-measure mean must land within the declared
/// [`estimator_bound`] of the exact mean.
fn bench_estimator(points: usize) -> Value {
    let (xs, ys) = synthetic(points, 0.5, 0.25, 0x0E57 ^ points as u64);
    let sample = (points / 25).clamp(400, 4_000);

    let exact_cfg = ComplexityConfig::default();
    let t = Instant::now();
    let exact = compute(&xs, &ys, &exact_cfg).expect("exact compute");
    let exact_s = t.elapsed().as_secs_f64();

    let est_cfg = ComplexityConfig {
        estimator_sample: Some(sample),
        ..Default::default()
    };
    let t = Instant::now();
    let est = compute(&xs, &ys, &est_cfg).expect("estimator compute");
    let est_s = t.elapsed().as_secs_f64();

    let bound = estimator_bound(sample);
    let gap = (est.mean() - exact.mean()).abs();
    assert!(
        gap <= bound,
        "estimator mean {:.5} strayed {gap:.5} from exact {:.5}, declared bound {bound:.5}",
        est.mean(),
        exact.mean()
    );
    let snap = rlb_obs::snapshot();
    assert!(
        snap.counter("complexity.estimator.sample") >= sample as u64,
        "estimator runs must report their sample size to rlb-obs"
    );
    println!(
        "  {points} points: exact {:.2}s (cap {}), estimator {:.2}s ({sample} landmarks); \
         mean gap {gap:.5} within declared bound {bound:.5}",
        exact_s, exact_cfg.max_points, est_s
    );
    Value::Obj(vec![
        ("points".into(), Value::Num(points as f64)),
        ("sample".into(), Value::Num(sample as f64)),
        ("declared_bound".into(), Value::Num(bound)),
        ("exact_mean".into(), Value::Num(exact.mean())),
        ("estimator_mean".into(), Value::Num(est.mean())),
        ("mean_gap".into(), Value::Num(gap)),
        ("within_bound".into(), Value::Bool(true)),
        ("exact_ms".into(), Value::Num(exact_s * 1e3)),
        ("estimator_ms".into(), Value::Num(est_s * 1e3)),
        ("estimator_speedup".into(), Value::Num(exact_s / est_s)),
    ])
}

fn main() {
    rlb_obs::init();
    let mut h = Harness::new();

    group("streaming throughput (old default cap 1500)");
    let scales = vec![bench_scale(&mut h, 1500)];

    let sweep_points = env_points("RLB_BENCH_POINTS", BASELINE_POINTS);
    group("thread scaling (exact run, report asserted identical per level)");
    let curve = sweep_threads(&mut h, sweep_points);

    // Baseline comparison: only meaningful at the recorded baseline's scale.
    let mut baseline_fields = vec![
        ("points".into(), Value::Num(BASELINE_POINTS as f64)),
        ("median_ms".into(), Value::Num(RECORDED_BASELINE_MS)),
    ];
    if sweep_points == BASELINE_POINTS {
        let best = curve
            .iter()
            .filter(|e| e.get("oversubscribed") == Some(&Value::Bool(false)))
            .filter_map(|e| e.get("median_ms").and_then(Value::as_f64))
            .fold(f64::INFINITY, f64::min);
        let speedup = RECORDED_BASELINE_MS / best;
        println!(
            "  best exact median {best:.0} ms vs recorded baseline \
             {RECORDED_BASELINE_MS:.0} ms: {speedup:.2}x"
        );
        baseline_fields.push(("best_median_ms".into(), Value::Num(best)));
        baseline_fields.push(("speedup".into(), Value::Num(speedup)));
    }

    group("landmark estimator vs exact twin");
    let estimator_points = env_points("RLB_BENCH_ESTIMATOR_POINTS", 100_000);
    let estimator = bench_estimator(estimator_points);

    let tile_rows = rlb_obs::snapshot().counter("complexity.tile.rows");
    assert!(
        tile_rows > 0,
        "streaming runs must report complexity.tile.rows to rlb-obs"
    );
    let tiles = rlb_obs::snapshot().counter("complexity.tiles");
    println!("\nobs: {tiles} tiles mapped, {tile_rows} rows streamed");

    // Top-level samples/threads metadata comes from the shared artifact
    // envelope; the scaling-curve entries keep their own per-level copy.
    let fields = vec![
        ("scales".into(), Value::Arr(scales)),
        ("scaling_curve".into(), Value::Arr(curve)),
        ("recorded_baseline".into(), Value::Obj(baseline_fields)),
        ("estimator".into(), estimator),
        ("tile_rows".into(), Value::Num(tile_rows as f64)),
        ("tiles".into(), Value::Num(tiles as f64)),
    ];
    rlb_bench::artifact::write("complexity", fields);
}
