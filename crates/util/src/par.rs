//! Scoped-thread data parallelism on plain `std` — no crossbeam, no rayon.
//!
//! The workloads this workspace parallelizes (per-pair similarity scoring,
//! per-record tokenization, pairwise distance rows, independent matcher
//! runs) are embarrassingly parallel loops whose outputs must stay in input
//! order so every seeded experiment remains byte-for-byte reproducible.
//! [`par_map`] and friends guarantee exactly that: element `i` of the result
//! is always `f(items[i])`, regardless of thread count or scheduling —
//! workers race only over *which* chunk they claim, never over what a chunk
//! computes.
//!
//! The worker count comes from [`thread_count`]:
//! `std::thread::available_parallelism`, overridable via the `RLB_THREADS`
//! environment variable (`RLB_THREADS=1` forces sequential execution, which
//! the timing harness uses as its baseline).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::{Duration, Instant};

/// Inputs shorter than this run sequentially — thread spawn latency would
/// dominate the work.
const SEQUENTIAL_CUTOFF: usize = 32;

/// End-of-life statistics of one parallel worker, delivered to the hook
/// installed via [`set_worker_hook`] (normally `rlb_obs::init`, which turns
/// them into `par.*` counters and a utilization histogram).
#[derive(Debug, Clone, Copy)]
pub struct WorkerStats {
    /// Worker index within its parallel call (0-based).
    pub worker: usize,
    /// Total workers spawned by that call.
    pub threads: usize,
    /// Elements this worker processed.
    pub tasks: u64,
    /// Nanoseconds spent computing chunks.
    pub busy_ns: u64,
    /// Nanoseconds from worker start to worker exit (idle = elapsed − busy).
    pub elapsed_ns: u64,
}

static WARN_HOOK: OnceLock<fn(&str)> = OnceLock::new();
static WORKER_HOOK: OnceLock<fn(WorkerStats)> = OnceLock::new();
static REGION_HOOK: OnceLock<fn(u64)> = OnceLock::new();

/// Installs the warning hook (first caller wins; later calls are ignored).
/// Without one, warnings go to stderr unless `RLB_LOG=off`.
pub fn set_warn_hook(hook: fn(&str)) {
    let _ = WARN_HOOK.set(hook);
}

/// Installs the per-worker statistics hook (first caller wins). Workers
/// only pay for timestamps when a hook is installed.
pub fn set_worker_hook(hook: fn(WorkerStats)) {
    let _ = WORKER_HOOK.set(hook);
}

/// Installs the per-region hook (first caller wins), called with the
/// region's wall time in nanoseconds each time a parallel call actually
/// fans out to workers (sequential fallbacks don't report). `rlb_obs::init`
/// turns these into the `par.regions` counter and `par.region_us`
/// histogram, so a run's profile shows how much wall time sat inside
/// parallel sections without instrumenting every call site.
pub fn set_region_hook(hook: fn(u64)) {
    let _ = REGION_HOOK.set(hook);
}

/// Runs `body` and reports its wall time to the region hook, when one is
/// installed (timestamps are only taken with a hook present).
fn timed_region<R>(body: impl FnOnce() -> R) -> R {
    match REGION_HOOK.get() {
        Some(hook) => {
            let t0 = Instant::now();
            let out = body();
            hook(t0.elapsed().as_nanos() as u64);
            out
        }
        None => body(),
    }
}

fn emit_warning(msg: &str) {
    match WARN_HOOK.get() {
        Some(hook) => hook(msg),
        // No observability layer installed: keep the warning visible on
        // stderr, still honouring RLB_LOG=off.
        None => {
            let off = std::env::var("RLB_LOG").is_ok_and(|v| v.trim().eq_ignore_ascii_case("off"));
            if !off {
                eprintln!("[warn] {msg}");
            }
        }
    }
}

/// Number of worker threads: the `RLB_THREADS` environment variable if set
/// to a positive integer, otherwise `std::thread::available_parallelism()`.
///
/// A set-but-invalid `RLB_THREADS` (empty, `0`, non-numeric) falls back to
/// the default worker count and raises a single warn-level event for the
/// whole process instead of being silently accepted.
pub fn thread_count() -> usize {
    static INVALID_WARNED: Once = Once::new();
    let default = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match std::env::var("RLB_THREADS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                let fallback = default();
                INVALID_WARNED.call_once(|| {
                    emit_warning(&format!(
                        "[par] invalid RLB_THREADS value {raw:?} (want a positive \
                         integer) — using {fallback} worker(s)"
                    ));
                });
                fallback
            }
        },
        Err(_) => default(),
    }
}

/// Parallel `(0..n).map(f).collect()` with order-preserving output.
///
/// Work is claimed in chunks off a shared atomic counter, so uneven
/// per-element cost still balances across workers.
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = thread_count().min(n.max(1));
    if threads <= 1 || n < SEQUENTIAL_CUTOFF {
        return (0..n).map(f).collect();
    }
    // ~8 chunks per worker keeps the claim overhead negligible while still
    // smoothing out skewed per-element cost.
    claimed(n, threads, n.div_ceil(threads * 8).max(1), f)
}

/// Runs `(0..n).map(f)` on `threads` workers that claim `chunk` indices at
/// a time off one atomic counter, and returns the results in index order.
fn claimed<R, F>(n: usize, threads: usize, chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let next = &next;
    let f = &f;
    let hook = WORKER_HOOK.get().copied();
    let mut parts: Vec<(usize, Vec<R>)> = timed_region(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    scope.spawn(move || {
                        let spawned = hook.map(|_| Instant::now());
                        let mut tasks = 0u64;
                        let mut busy = Duration::ZERO;
                        let mut local = Vec::new();
                        loop {
                            let start = next.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            let end = (start + chunk).min(n);
                            let t0 = spawned.map(|_| Instant::now());
                            local.push((start, (start..end).map(f).collect::<Vec<R>>()));
                            if let Some(t0) = t0 {
                                busy += t0.elapsed();
                                tasks += (end - start) as u64;
                            }
                        }
                        if let (Some(hook), Some(spawned)) = (hook, spawned) {
                            hook(WorkerStats {
                                worker,
                                threads,
                                tasks,
                                busy_ns: busy.as_nanos() as u64,
                                elapsed_ns: spawned.elapsed().as_nanos() as u64,
                            });
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("par_map worker panicked"))
                .collect()
        })
    });
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, mut part) in parts {
        out.append(&mut part);
    }
    debug_assert_eq!(out.len(), n);
    out
}

/// Parallel `items.iter().map(f).collect()` with order-preserving output.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_range(items.len(), |i| f(&items[i]))
}

/// Applies `f` to each `chunk_size`-sized window of `items` in parallel
/// (last chunk may be shorter); `f` receives the chunk index and the slice,
/// and results come back in chunk order.
pub fn par_chunks<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "par_chunks requires a positive chunk size");
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    par_map_range(chunks.len(), |i| f(i, chunks[i]))
}

/// Parallel `items.into_iter().map(f).collect()` for owned, mutable work
/// items (e.g. fitting a roster of matchers). Workers claim one item at a
/// time, in input order, so a few expensive items cannot pile up on one
/// worker; output order matches input order.
pub fn par_map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = thread_count().min(n.max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Index `i` is claimed by exactly one worker, which takes item `i`.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    claimed(n, threads, 1, |i| {
        let item = slots[i]
            .lock()
            .expect("a slot's lock is only held to take its item")
            .take()
            .expect("each index is claimed once");
        f(item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<u64> = (0..10_000).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xA5A5).collect();
        let par = par_map(&items, |&x| x.wrapping_mul(x) ^ 0xA5A5);
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_is_deterministic_across_runs() {
        let items: Vec<usize> = (0..5_000).collect();
        let a = par_map(&items, |&x| (x as f64).sqrt().sin());
        let b = par_map(&items, |&x| (x as f64).sqrt().sin());
        assert_eq!(a, b);
    }

    #[test]
    fn par_map_handles_small_and_empty_inputs() {
        assert_eq!(par_map::<u32, u32, _>(&[], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
        let three: Vec<u32> = par_map(&[1u32, 2, 3], |&x| x * 2);
        assert_eq!(three, vec![2, 4, 6]);
    }

    #[test]
    fn par_map_range_preserves_index_order() {
        let out = par_map_range(1_000, |i| i * 3);
        assert_eq!(out, (0..1_000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn all_indices_visited_exactly_once() {
        let seen = Mutex::new(Vec::new());
        let _ = par_map_range(2_048, |i| {
            seen.lock().unwrap().push(i);
            i
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 2_048);
        assert_eq!(seen.iter().copied().collect::<HashSet<_>>().len(), 2_048);
    }

    #[test]
    fn par_chunks_covers_everything_in_order() {
        let items: Vec<u32> = (0..257).collect();
        let sums = par_chunks(&items, 10, |idx, chunk| (idx, chunk.iter().sum::<u32>()));
        assert_eq!(sums.len(), 26);
        assert_eq!(sums[0], (0, (0..10).sum()));
        assert_eq!(sums[25], (25, (250..257).sum()));
        let total: u32 = sums.iter().map(|&(_, s)| s).sum();
        assert_eq!(total, (0..257).sum());
    }

    #[test]
    fn par_map_vec_consumes_and_preserves_order() {
        let matchers: Vec<String> = (0..100).map(|i| format!("m{i}")).collect();
        let out = par_map_vec(matchers, |mut m| {
            m.push('!');
            m
        });
        assert_eq!(out.len(), 100);
        assert_eq!(out[0], "m0!");
        assert_eq!(out[99], "m99!");
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    // Hook slots are process-global OnceLocks and the test harness runs
    // tests concurrently, so these hooks capture into global state and the
    // assertions below only rely on invariants that hold regardless of
    // which test triggered a given callback.
    static CAPTURED_WARNINGS: Mutex<Vec<String>> = Mutex::new(Vec::new());
    static CAPTURED_STATS: Mutex<Vec<WorkerStats>> = Mutex::new(Vec::new());

    #[test]
    fn invalid_rlb_threads_falls_back_and_warns_once() {
        set_warn_hook(|msg| CAPTURED_WARNINGS.lock().unwrap().push(msg.to_string()));
        std::env::set_var("RLB_THREADS", "not-a-number");
        let first = thread_count();
        let second = thread_count();
        std::env::remove_var("RLB_THREADS");
        assert!(first >= 1);
        assert_eq!(first, second);
        let warnings = CAPTURED_WARNINGS.lock().unwrap();
        assert_eq!(warnings.len(), 1, "exactly one warning: {warnings:?}");
        assert!(warnings[0].contains("RLB_THREADS"), "{warnings:?}");
        assert!(warnings[0].contains("not-a-number"), "{warnings:?}");
    }

    #[test]
    fn worker_hook_accounts_for_every_task() {
        set_worker_hook(|stats| CAPTURED_STATS.lock().unwrap().push(stats));
        if thread_count() <= 1 {
            return; // single-core box: parallel paths degrade to sequential
        }
        let before: u64 = CAPTURED_STATS.lock().unwrap().iter().map(|s| s.tasks).sum();
        let n = 4_096;
        let _ = par_map_range(n, |i| i * 2);
        let _ = par_map_vec((0..n).collect::<Vec<usize>>(), |i| i + 1);
        let stats = CAPTURED_STATS.lock().unwrap();
        let after: u64 = stats.iter().map(|s| s.tasks).sum();
        // Other concurrent tests may add stats of their own; ours alone
        // contribute 2n.
        assert!(
            after - before >= 2 * n as u64,
            "hook saw {} new tasks, expected at least {}",
            after - before,
            2 * n
        );
        for s in stats.iter() {
            assert!(s.worker < s.threads, "{s:?}");
            assert!(s.busy_ns <= s.elapsed_ns, "{s:?}");
        }
    }

    static CAPTURED_REGIONS: Mutex<Vec<u64>> = Mutex::new(Vec::new());

    #[test]
    fn region_hook_fires_once_per_parallel_call() {
        set_region_hook(|elapsed_ns| CAPTURED_REGIONS.lock().unwrap().push(elapsed_ns));
        if thread_count() <= 1 {
            return; // sequential fallback: no regions to report
        }
        let before = CAPTURED_REGIONS.lock().unwrap().len();
        let _ = par_map_range(4_096, |i| i * 2);
        let _ = par_map_vec((0..4_096).collect::<Vec<usize>>(), |i| i + 1);
        let regions = CAPTURED_REGIONS.lock().unwrap();
        // Concurrent tests may add regions of their own; ours alone add 2.
        assert!(
            regions.len() - before >= 2,
            "hook saw {} new regions, expected at least 2",
            regions.len() - before
        );
    }
}
