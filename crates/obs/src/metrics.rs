//! Global metrics registry: named counters, gauges and log₂-bucket
//! histograms.
//!
//! The registry holds one *cell* — a set of relaxed atomics — per metric
//! name, shared by every thread. A thread looks a name's cell up under the
//! registry lock on its first use of that name and caches the `Arc` in a
//! thread-local map, so every later update from that thread is lock-free.
//!
//! Cells are shared rather than kept per thread because `rlb_util::par`
//! spawns fresh workers on every call: per-thread cells would have to
//! outlive their threads for their counts to reach the snapshot, so their
//! number would grow with the `par` calls of a run instead of with the
//! metric names. The values recorded are per tile, per query or per worker
//! exit, so threads sharing a cell's atomics do not contend measurably.

use rlb_util::hash::FxHashMap;
use rlb_util::json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::LocalKey;

/// Histogram buckets: index 0 holds zeros, index `k ≥ 1` holds values in
/// `[2^(k-1), 2^k)` — i.e. bucket by bit length.
const BUCKETS: usize = 65;

#[derive(Default)]
struct CounterCell(AtomicU64);

/// A gauge is a signed *level* (`+1` on session open, `-1` on close), not a
/// monotone total.
#[derive(Default)]
struct GaugeCell(AtomicI64);

struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for HistCell {
    fn default() -> Self {
        HistCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl HistCell {
    fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            // A cell registered but not yet recorded into still holds the
            // `u64::MAX` sentinel.
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed)),
        }
    }
}

fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket.
fn bucket_upper(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// Inclusive lower bound of a bucket.
fn bucket_lower(index: usize) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1)
    }
}

/// Every cell of one metric kind, by name — sorted, as snapshots report.
type Registry<C> = Mutex<BTreeMap<&'static str, Arc<C>>>;
/// One thread's cache of the cells it has used.
type LocalCells<C> = RefCell<FxHashMap<&'static str, Arc<C>>>;

static COUNTERS: Registry<CounterCell> = Mutex::new(BTreeMap::new());
static HISTS: Registry<HistCell> = Mutex::new(BTreeMap::new());
static GAUGES: Registry<GaugeCell> = Mutex::new(BTreeMap::new());

thread_local! {
    static LOCAL_COUNTERS: LocalCells<CounterCell> = RefCell::new(FxHashMap::default());
    static LOCAL_HISTS: LocalCells<HistCell> = RefCell::new(FxHashMap::default());
    static LOCAL_GAUGES: LocalCells<GaugeCell> = RefCell::new(FxHashMap::default());
}

/// A poisoned registry (a panic during registration) must not take the
/// instrumented pipeline down with it: cells a thread already cached keep
/// counting lock-free, uncached lookups degrade to dropping the update,
/// and the process warns exactly once.
fn warn_registry_poisoned(kind: &str) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        crate::warn!(
            "[obs] {kind} registry lock poisoned; updates from threads that \
             have not cached a metric yet will be dropped for the rest of the run"
        );
    });
}

/// Applies `update` to the cell named `name`: this thread's cached `Arc`,
/// or on its first use of `name` the shared cell, found or created under
/// the registry lock.
fn with_cell<C: Default>(
    local: &'static LocalKey<LocalCells<C>>,
    registry: &Registry<C>,
    kind: &str,
    name: &'static str,
    update: impl FnOnce(&C),
) {
    local.with(|local| {
        let mut local = local.borrow_mut();
        if let Some(cell) = local.get(name) {
            return update(cell);
        }
        let cell = match registry.lock() {
            Ok(mut cells) => Arc::clone(cells.entry(name).or_default()),
            Err(_) => return warn_registry_poisoned(kind),
        };
        update(&cell);
        local.insert(name, cell);
    });
}

/// Adds `delta` to the named counter (relaxed atomic).
pub fn counter_add(name: &'static str, delta: u64) {
    with_cell(&LOCAL_COUNTERS, &COUNTERS, "counter", name, |cell| {
        cell.0.fetch_add(delta, Ordering::Relaxed);
    });
}

/// Adds `delta` (may be negative) to the named gauge. A gauge tracks a
/// *level* — e.g. `serve.sessions`, the number of live socket sessions —
/// so the snapshot reports its current value, not a running total.
pub fn gauge_add(name: &'static str, delta: i64) {
    with_cell(&LOCAL_GAUGES, &GAUGES, "gauge", name, |cell| {
        cell.0.fetch_add(delta, Ordering::Relaxed);
    });
}

/// Records one sample in the named histogram.
pub fn histogram_record(name: &'static str, value: u64) {
    with_cell(&LOCAL_HISTS, &HISTS, "histogram", name, |cell| {
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(value, Ordering::Relaxed);
        cell.min.fetch_min(value, Ordering::Relaxed);
        cell.max.fetch_max(value, Ordering::Relaxed);
        cell.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    });
}

/// Poisons the registry locks from a throwaway thread — test-only plumbing
/// for the degradation path (run it in a dedicated test process; the
/// poisoning is irreversible).
#[doc(hidden)]
pub fn poison_registries_for_test() {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let _ = std::thread::spawn(|| {
        let _counters = COUNTERS.lock().unwrap();
        let _hists = HISTS.lock().unwrap();
        panic!("poisoning metric registries for a degradation test");
    })
    .join();
    std::panic::set_hook(hook);
}

/// Aggregated view of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    buckets: [u64; BUCKETS],
}

impl HistogramSummary {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate: linear interpolation *within* the log₂ bucket
    /// containing the `q`-th sample (assuming samples spread uniformly
    /// across the bucket), clamped to the observed `[min, max]` range.
    /// `None` on an empty histogram — an empty summary has no quantiles,
    /// and a fabricated `0` (or a NaN from `0/0` arithmetic) poisons
    /// downstream comparisons like `rlb-metrics-diff`.
    ///
    /// The pre-interpolation implementation returned the bucket's upper
    /// bound as its representative, which over-reports by up to 2× — a log₂
    /// bucket's upper bound is twice its lower — and made reported tail
    /// latencies (`p99`) systematically pessimistic. Interpolating by the
    /// rank's position inside the bucket removes that bias: on a uniform
    /// distribution the estimate lands at the true quantile to within one
    /// bucket's granularity error.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 && seen + n >= rank {
                let lower = bucket_lower(i) as f64;
                let upper = bucket_upper(i) as f64;
                let frac = (rank - seen) as f64 / n as f64;
                let est = lower + frac * (upper - lower);
                return Some((est.round() as u64).clamp(self.min, self.max));
            }
            seen += n;
        }
        Some(self.max)
    }

    /// The summary of samples recorded since `prev` was captured, derived
    /// by bucket-wise subtraction (`prev` must be an earlier snapshot of
    /// the same histogram). Exact for `count`, `sum`, bucket populations
    /// and therefore quantiles; `min`/`max` are the tightest bounds the
    /// delta buckets support, since the cumulative extremes may predate the
    /// window.
    pub fn delta_since(&self, prev: &HistogramSummary) -> HistogramSummary {
        let mut buckets = [0u64; BUCKETS];
        for (b, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[b].saturating_sub(prev.buckets[b]);
        }
        let count = self.count.saturating_sub(prev.count);
        let (mut min, mut max) = (0u64, 0u64);
        if count > 0 {
            if let Some(lo) = buckets.iter().position(|&n| n > 0) {
                min = bucket_lower(lo).max(self.min);
            }
            if let Some(hi) = buckets.iter().rposition(|&n| n > 0) {
                max = bucket_upper(hi).min(self.max);
            }
        }
        HistogramSummary {
            count,
            sum: self.sum.saturating_sub(prev.sum),
            min,
            max,
            buckets,
        }
    }

    fn quantile_value(&self, q: f64) -> Value {
        match self.quantile(q) {
            Some(v) => Value::Num(v as f64),
            None => Value::Null,
        }
    }

    /// JSON object for reports (`null` quantiles when empty).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("count".into(), Value::Num(self.count as f64)),
            ("sum".into(), Value::Num(self.sum as f64)),
            ("min".into(), Value::Num(self.min as f64)),
            ("max".into(), Value::Num(self.max as f64)),
            ("mean".into(), Value::Num(self.mean())),
            ("p50".into(), self.quantile_value(0.5)),
            ("p90".into(), self.quantile_value(0.9)),
            ("p99".into(), self.quantile_value(0.99)),
        ])
    }
}

/// A point-in-time read of every cell, names sorted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, total)` for every counter touched so far.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` for every histogram touched so far.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// `(name, level)` for every gauge touched so far.
    pub gauges: Vec<(String, i64)>,
}

impl MetricsSnapshot {
    /// Counter total by name (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Gauge level by name (0 if never touched).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// Reads every cell once into a [`MetricsSnapshot`]. A poisoned registry
/// still yields every cell registered before the poisoning panic
/// (registration only inserts; the map is never left half-mutated).
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: read_cells(&COUNTERS, |cell| cell.0.load(Ordering::Relaxed)),
        histograms: read_cells(&HISTS, HistCell::summary),
        gauges: read_cells(&GAUGES, |cell| cell.0.load(Ordering::Relaxed)),
    }
}

fn read_cells<C, V>(registry: &Registry<C>, read: impl Fn(&C) -> V) -> Vec<(String, V)> {
    registry
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(|(name, cell)| (name.to_string(), read(cell)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_by_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn counters_aggregate_across_par_map_threads() {
        // Force RLB_THREADS-independent coverage: par_map over enough items
        // that multiple workers spawn, each incrementing the shared cell.
        let before = snapshot().counter("test.par_counter");
        let items: Vec<u64> = (0..4_096).collect();
        let out = rlb_util::par::par_map(&items, |&x| {
            counter_add("test.par_counter", 1);
            x
        });
        assert_eq!(out.len(), 4_096);
        let after = snapshot().counter("test.par_counter");
        assert_eq!(after - before, 4_096, "every increment must be visible");
    }

    #[test]
    fn threads_share_one_cell_per_name() {
        // The registry must not grow with the thread count: `par` spawns
        // fresh workers on every call, so a cell per thread would pile up
        // over a long-running process.
        let cached: Vec<(Arc<CounterCell>, Arc<HistCell>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..50)
                .map(|_| {
                    scope.spawn(|| {
                        counter_add("test.one_cell_counter", 1);
                        histogram_record("test.one_cell_hist", 7);
                        (
                            LOCAL_COUNTERS.with(|l| l.borrow()["test.one_cell_counter"].clone()),
                            LOCAL_HISTS.with(|l| l.borrow()["test.one_cell_hist"].clone()),
                        )
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let counter = COUNTERS.lock().unwrap()["test.one_cell_counter"].clone();
        let hist = HISTS.lock().unwrap()["test.one_cell_hist"].clone();
        for (c, h) in &cached {
            assert!(
                Arc::ptr_eq(c, &counter),
                "a thread counted into a private cell"
            );
            assert!(
                Arc::ptr_eq(h, &hist),
                "a thread recorded into a private cell"
            );
        }
        let snap = snapshot();
        assert_eq!(snap.counter("test.one_cell_counter"), 50);
        let h = snap.histogram("test.one_cell_hist").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (50, 350, 7, 7));
    }

    #[test]
    fn gauges_sum_signed_deltas_across_threads() {
        let before = snapshot().gauge("test.gauge_level");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    gauge_add("test.gauge_level", 3);
                    gauge_add("test.gauge_level", -2);
                });
            }
        });
        let after = snapshot().gauge("test.gauge_level");
        assert_eq!(after - before, 4, "4 threads × (+3 − 2)");
        assert_eq!(snapshot().gauge("test.gauge_never_touched"), 0);
    }

    #[test]
    fn histogram_summary_tracks_range_mean_and_quantiles() {
        for v in [0u64, 1, 2, 4, 8, 1000, 1_000_000] {
            histogram_record("test.hist_basic", v);
        }
        let snap = snapshot();
        let h = snap.histogram("test.hist_basic").expect("recorded");
        assert!(h.count >= 7);
        assert_eq!(h.min, 0);
        assert!(h.max >= 1_000_000);
        assert!(h.mean() > 0.0);
        // Quantiles are bucket upper bounds clamped to the observed range.
        assert!(h.quantile(0.0).unwrap() >= h.min && h.quantile(1.0).unwrap() <= h.max);
        assert!(h.quantile(0.5).unwrap() <= h.quantile(0.99).unwrap());
    }

    #[test]
    fn histograms_aggregate_across_threads() {
        let before = snapshot()
            .histogram("test.hist_threads")
            .map_or((0, 0), |h| (h.count, h.sum));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for v in 1..=10u64 {
                        histogram_record("test.hist_threads", v);
                    }
                });
            }
        });
        let snap = snapshot();
        let h = snap.histogram("test.hist_threads").unwrap();
        assert_eq!(h.count - before.0, 40);
        assert_eq!(h.sum - before.1, 4 * 55);
        assert_eq!(h.min, 1);
        assert!(h.max >= 10);
    }

    #[test]
    fn snapshot_names_are_sorted_and_lookup_works() {
        counter_add("test.zzz", 1);
        counter_add("test.aaa", 2);
        let snap = snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(snap.counter("test.aaa") >= 2);
        assert_eq!(snap.counter("test.never_touched"), 0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets_on_known_distribution() {
        // Uniform 1..=1000, one sample each: the true p-quantile is ~1000p.
        // Build the summary directly so the global registry stays out of it.
        let mut buckets = [0u64; BUCKETS];
        for v in 1..=1000u64 {
            buckets[bucket_index(v)] += 1;
        }
        let h = HistogramSummary {
            count: 1000,
            sum: (1..=1000u64).sum(),
            min: 1,
            max: 1000,
            buckets,
        };
        // Rank 500 sits at position 245/256 of bucket [256, 511]: the
        // interpolated estimate recovers ~500 where the old upper-bound
        // representative reported 511.
        assert_eq!(h.quantile(0.5), Some(500));
        let p90 = h.quantile(0.9).unwrap();
        assert!((880..=920).contains(&p90), "p90 {p90} should be near 900");
        // p99's bucket [512, 1023] is truncated by max-clamping; the
        // estimate must never exceed an observed sample again.
        let p99 = h.quantile(0.99).unwrap();
        assert!((950..=1000).contains(&p99), "p99 {p99} should be near 990");
        assert!(h.quantile(1.0).unwrap() <= h.max);
        assert!(h.quantile(0.0).unwrap() >= h.min);
    }

    #[test]
    fn quantile_of_single_sample_is_that_sample_not_bucket_upper() {
        let mut buckets = [0u64; BUCKETS];
        buckets[bucket_index(600)] += 1;
        let h = HistogramSummary {
            count: 1,
            sum: 600,
            min: 600,
            max: 600,
            buckets,
        };
        // Bucket [512, 1023] would report 1023 under the old scheme.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(600), "q={q}");
        }
    }

    #[test]
    fn empty_histogram_has_no_quantiles_and_null_json() {
        let h = HistogramSummary {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; BUCKETS],
        };
        // No samples means no quantiles — never 0, never NaN.
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.99), None);
        assert_eq!(h.mean(), 0.0);
        assert!(!h.mean().is_nan());
        let json = h.to_value().to_json_string();
        assert!(json.contains("\"p50\":null"), "{json}");
        assert!(json.contains("\"p99\":null"), "{json}");
    }

    #[test]
    fn delta_since_recovers_the_window_between_snapshots() {
        let mut buckets = [0u64; BUCKETS];
        for v in [1u64, 2, 4] {
            buckets[bucket_index(v)] += 1;
        }
        let first = HistogramSummary {
            count: 3,
            sum: 7,
            min: 1,
            max: 4,
            buckets,
        };
        let mut buckets = first.buckets;
        for v in [8u64, 16] {
            buckets[bucket_index(v)] += 1;
        }
        let second = HistogramSummary {
            count: 5,
            sum: 31,
            min: 1,
            max: 16,
            buckets,
        };
        let delta = second.delta_since(&first);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 24);
        // Window extremes come from the delta buckets: [8,16] lands in
        // buckets [8,15] and [16,31], bounded by the cumulative max.
        assert_eq!(delta.min, 8);
        assert_eq!(delta.max, 16);
        let p50 = delta.quantile(0.5).unwrap();
        assert!((8..=16).contains(&p50), "window p50 {p50}");
        // The empty window: identical snapshots yield a zero summary with
        // no quantiles.
        let none = second.delta_since(&second);
        assert_eq!(none.count, 0);
        assert_eq!(none.quantile(0.99), None);
    }
}
