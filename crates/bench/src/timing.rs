//! Minimal in-tree micro-benchmark harness.
//!
//! Replaces the external criterion dependency for the three `cargo bench`
//! targets. Each benchmark runs a short warm-up, then times a fixed number
//! of samples with [`std::time::Instant`] and reports min / median / mean.
//! The workloads here are millisecond-scale, so one invocation per sample
//! gives stable medians without criterion's iteration batching.
//!
//! Sample counts mirror the old criterion configuration (`sample_size(10)`)
//! and can be lowered for smoke runs via `RLB_BENCH_SAMPLES`.

use rlb_util::json::Value;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Cores the host offers (`std::thread::available_parallelism`), whatever
/// `RLB_THREADS` says. A scaling level with more threads than this is
/// oversubscribed: its timings say nothing about how the code scales.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Thread-count metadata for bench artifacts: the worker count
/// [`rlb_util::par::thread_count`] actually resolved, the raw
/// `RLB_THREADS` environment value (JSON `null` when unset), and the
/// host's core count ([`host_cores`]).
///
/// Earlier artifacts recorded a single `"threads"` number with no record of
/// where it came from, so a run whose `RLB_THREADS` was ignored (typo'd,
/// clamped, or overridden by a sweep) was indistinguishable from a run that
/// honored it. Every `BENCH_*.json` writer embeds these fields — at the top
/// level and once per sweep sample — so recorded metadata can be audited
/// against the environment and the host that produced it.
pub fn threads_metadata() -> Vec<(String, Value)> {
    let raw = std::env::var("RLB_THREADS").ok();
    vec![
        (
            "threads_resolved".into(),
            Value::Num(rlb_util::par::thread_count() as f64),
        ),
        ("threads_env".into(), raw.map_or(Value::Null, Value::Str)),
        ("host_cores".into(), Value::Num(host_cores() as f64)),
    ]
}

fn env_count(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
}

/// Timed samples per benchmark: `RLB_BENCH_SAMPLES` (positive) or 10.
/// Shared by [`Harness::new`] and the artifact envelope so every
/// `BENCH_*.json` records the knobs its numbers were measured with.
pub fn resolved_samples() -> usize {
    env_count("RLB_BENCH_SAMPLES")
        .filter(|&n| n > 0)
        .unwrap_or(10)
}

/// Warm-up runs per benchmark: `RLB_BENCH_WARMUP` (0 allowed) or 2.
pub fn resolved_warmup() -> usize {
    env_count("RLB_BENCH_WARMUP").unwrap_or(2)
}

/// Timing summary of one benchmark.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Benchmark label.
    pub name: String,
    /// Fastest sample.
    pub min: Duration,
    /// Median sample — the headline number (robust to scheduling spikes).
    pub median: Duration,
    /// Mean over all samples.
    pub mean: Duration,
    /// Number of timed samples.
    pub samples: usize,
}

impl Stats {
    /// `other` / `self` on medians: how many times faster `self` is.
    pub fn speedup_over(&self, other: &Stats) -> f64 {
        other.median.as_secs_f64() / self.median.as_secs_f64()
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Benchmark collector: times closures, prints one aligned row each.
pub struct Harness {
    warmup: usize,
    samples: usize,
    results: Vec<Stats>,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// Default configuration: 2 warm-up runs, 10 timed samples. Override the
    /// sample count with `RLB_BENCH_SAMPLES` and the warm-up count with
    /// `RLB_BENCH_WARMUP` (0 is allowed — ahead-of-time-compiled workloads
    /// at multi-second scale don't need warming, and skipping it keeps full
    /// 20k-point regeneration runs affordable).
    pub fn new() -> Self {
        Harness {
            warmup: resolved_warmup(),
            samples: resolved_samples(),
            results: Vec::new(),
        }
    }

    /// Times `f`, records and prints the summary, and returns it.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> Stats {
        for _ in 0..self.warmup {
            black_box(f());
        }
        let mut times = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(f());
            times.push(start.elapsed());
        }
        times.sort();
        let min = times[0];
        let median = times[times.len() / 2];
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        let stats = Stats {
            name: name.to_string(),
            min,
            median,
            mean,
            samples: self.samples,
        };
        println!(
            "  {:<44} median {:>10}   min {:>10}   mean {:>10}   ({} samples)",
            stats.name,
            fmt_duration(stats.median),
            fmt_duration(stats.min),
            fmt_duration(stats.mean),
            stats.samples,
        );
        self.results.push(stats.clone());
        stats
    }

    /// All recorded results, in run order.
    pub fn results(&self) -> &[Stats] {
        &self.results
    }
}

/// Prints a `group` header like criterion's benchmark groups.
pub fn group(title: &str) {
    println!("\n{title}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_reports_plausible_times() {
        let mut h = Harness {
            warmup: 1,
            samples: 5,
            results: Vec::new(),
        };
        let s = h.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(s.min <= s.median && s.median <= *[s.median, s.mean].iter().max().unwrap());
        assert!(s.min > Duration::ZERO);
        assert_eq!(h.results().len(), 1);
    }

    #[test]
    fn speedup_is_ratio_of_medians() {
        let fast = Stats {
            name: "fast".into(),
            min: Duration::from_millis(1),
            median: Duration::from_millis(2),
            mean: Duration::from_millis(2),
            samples: 3,
        };
        let slow = Stats {
            name: "slow".into(),
            median: Duration::from_millis(8),
            ..fast.clone()
        };
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn threads_metadata_reports_resolved_and_raw() {
        let fields = threads_metadata();
        assert_eq!(fields[0].0, "threads_resolved");
        match &fields[0].1 {
            Value::Num(n) => assert!(*n >= 1.0),
            other => panic!("threads_resolved should be a number, got {other:?}"),
        }
        assert_eq!(fields[1].0, "threads_env");
        match &fields[1].1 {
            Value::Null | Value::Str(_) => {}
            other => panic!("threads_env should be raw string or null, got {other:?}"),
        }
        assert_eq!(fields[2].0, "host_cores");
        assert_eq!(fields[2].1.as_f64(), Some(host_cores() as f64));
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(3)), "3.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000 s");
    }
}
