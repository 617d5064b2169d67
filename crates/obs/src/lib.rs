//! `rlb-obs` — structured tracing and metrics for the measurement pipeline.
//!
//! The paper's verdicts come out of long multi-stage sweeps (the 99-threshold
//! linearity scan, 17 complexity measures, the 23-configuration matcher
//! roster). This crate gives every stage first-class visibility without any
//! crates.io dependency, in three pieces:
//!
//! 1. **Spans** ([`span!`]) — scoped wall-time measurements with
//!    parent/child nesting (thread-local stack) and a per-thread id.
//!    Finished spans accumulate in a global buffer drained by
//!    [`report::run_metrics`] / [`take_spans`].
//! 2. **Metrics** ([`counter_add`], [`gauge_add`], [`histogram_record`]) —
//!    a global registry of named counters, gauges and log₂-bucket
//!    histograms, one cell of relaxed atomics per name. Each thread caches
//!    the cells it uses, so only its first use of a name takes the registry
//!    lock; [`snapshot`] reads every cell once.
//! 3. **Leveled events** ([`warn!`], [`info!`], [`debug!`]) — stderr logging
//!    gated by `RLB_LOG=off|warn|info|debug` (default `info`), replacing the
//!    previous ad-hoc `eprintln!` calls.
//!
//! Events and finished spans are additionally serialized as JSON lines
//! (via `rlb_util::json`) to the file named by `RLB_OBS_FILE`, when set.
//! [`init`] reads both environment variables and installs the
//! `rlb_util::par` observer hooks; it is idempotent and cheap to call from
//! every binary entry point.
//!
//! Span naming convention: `subsystem.stage`, lowercase, dot-separated —
//! e.g. `linearity.sweep`, `roster.run`, `complexity.compute`,
//! `blocking.tune`, `esde.fit`. Counter names follow the same shape
//! (`cache.hit`, `par.tasks`).

mod alloc;
mod metrics;
mod profile;
mod report;
mod sink;
mod span;
mod trace;

pub use alloc::{
    alloc_phase, alloc_stats, alloc_stats_enabled, phase_allocs, set_alloc_stats, AllocPhase,
    AllocStats, CountingAlloc, PhaseAlloc,
};
pub use metrics::{
    counter_add, gauge_add, histogram_record, snapshot, HistogramSummary, MetricsSnapshot,
};
pub use profile::{folded_stacks, profile_spans, write_folded, SpanProfile};
pub use report::{run_metrics, write_run_metrics, RUN_METRICS_FINGERPRINT};
pub use sink::{
    clear_sink, install_test_sink, set_sink_path, sink_active, suspend_sink, SinkSuspension,
};
pub use span::{span_start, span_start_with, take_spans, Span, SpanRecord, MAX_RECORDED_SPANS};
pub use trace::{current_trace, push_trace, run_trace, set_run_trace, TraceScope};

#[doc(hidden)]
pub use metrics::poison_registries_for_test;
#[doc(hidden)]
pub use sink::poison_sink_for_test;

/// Every binary linking `rlb-obs` gets the counting allocator (accounting
/// is off — one relaxed load per allocator call — until `RLB_ALLOC_STATS=1`
/// or [`set_alloc_stats`] enables it). Defined here, library-level, so no
/// binary can forget it and none can conflict with it.
#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Event/logging verbosity, parsed from `RLB_LOG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// No events at all.
    Off = 0,
    /// Warnings only.
    Warn = 1,
    /// Warnings + informational events (the default).
    Info = 2,
    /// Everything, including per-span close events.
    Debug = 3,
}

impl Level {
    /// Lowercase name, as accepted by `RLB_LOG`.
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn from_env(raw: &str) -> Option<Level> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(Level::Off),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" | "trace" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// Sentinel meaning "not yet read from the environment".
const LEVEL_UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// The current log level (reads `RLB_LOG` on first use; default `info`).
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Warn,
        2 => Level::Info,
        3 => Level::Debug,
        _ => {
            let parsed = std::env::var("RLB_LOG")
                .ok()
                .and_then(|raw| Level::from_env(&raw))
                .unwrap_or(Level::Info);
            LEVEL.store(parsed as u8, Ordering::Relaxed);
            parsed
        }
    }
}

/// Overrides the log level for the rest of the process (tests, binaries
/// that expose their own verbosity flag).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Whether events at `at` are currently emitted.
pub fn enabled(at: Level) -> bool {
    at != Level::Off && at <= level()
}

/// The process-wide epoch all span/event timestamps are relative to.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process epoch.
pub(crate) fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Emits one event: stderr line (`[level] message`) plus a JSONL record
/// when a sink is configured. Callers normally go through the [`warn!`],
/// [`info!`] and [`debug!`] macros, which check [`enabled`] first.
pub fn event(at: Level, args: std::fmt::Arguments<'_>) {
    if !enabled(at) {
        return;
    }
    let msg = args.to_string();
    eprintln!("[{}] {msg}", at.name());
    if sink_active() {
        sink::write_record(rlb_util::json::Value::Obj(vec![
            ("type".into(), rlb_util::json::Value::Str("event".into())),
            ("level".into(), rlb_util::json::Value::Str(at.name().into())),
            ("msg".into(), rlb_util::json::Value::Str(msg)),
            (
                "trace".into(),
                rlb_util::json::Value::Str(current_trace().to_string()),
            ),
            ("t_us".into(), rlb_util::json::Value::Num(now_us() as f64)),
            (
                "thread".into(),
                rlb_util::json::Value::Num(span::thread_id() as f64),
            ),
        ]));
    }
}

/// Warn-level event (suppressed by `RLB_LOG=off`).
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Warn) {
            $crate::event($crate::Level::Warn, format_args!($($arg)*));
        }
    };
}

/// Info-level event (the default verbosity).
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Info) {
            $crate::event($crate::Level::Info, format_args!($($arg)*));
        }
    };
}

/// Debug-level event (`RLB_LOG=debug`).
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Debug) {
            $crate::event($crate::Level::Debug, format_args!($($arg)*));
        }
    };
}

/// Opens a scoped span; the returned guard records wall time, nesting and
/// thread id when dropped. An optional format string after the name is
/// stored as the span's `detail` (e.g. the matcher or task name).
///
/// ```
/// {
///     let _s = rlb_obs::span!("linearity.sweep");
///     // ... measured work ...
/// }
/// let _d = rlb_obs::span!("roster.matcher", "{} on {}", "DITTO", "Ds1");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_start($name)
    };
    ($name:expr, $($arg:tt)*) => {
        $crate::span_start_with($name, format!($($arg)*))
    };
}

/// Idempotent process-wide initialization: reads `RLB_LOG`, `RLB_OBS_FILE`,
/// `RLB_TRACE` and `RLB_ALLOC_STATS`, and installs the [`rlb_util::par`]
/// observer hooks so worker warnings route through the leveled log and
/// per-worker/per-region stats land in the metrics registry. Call it once
/// at the top of every binary; the library layers work without it (level,
/// sink and run trace are also resolved lazily), but the `par` metrics only
/// flow after `init`.
pub fn init() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        epoch();
        level();
        if let Ok(id) = std::env::var("RLB_TRACE") {
            if !id.trim().is_empty() {
                set_run_trace(id.trim());
            }
        }
        if let Ok(raw) = std::env::var("RLB_ALLOC_STATS") {
            let on = matches!(raw.trim(), "1" | "true" | "on" | "yes");
            set_alloc_stats(on);
        }
        if let Ok(path) = std::env::var("RLB_OBS_FILE") {
            if !path.trim().is_empty() {
                if let Err(e) = set_sink_path(&path) {
                    crate::warn!("[obs] cannot open RLB_OBS_FILE {path}: {e}");
                }
            }
        }
        rlb_util::par::set_warn_hook(|msg| crate::warn!("{msg}"));
        rlb_util::par::set_region_hook(|elapsed_ns| {
            counter_add("par.regions", 1);
            histogram_record("par.region_us", elapsed_ns / 1_000);
        });
        rlb_util::par::set_worker_hook(|stats| {
            counter_add("par.tasks", stats.tasks);
            counter_add("par.workers", 1);
            histogram_record("par.worker_tasks", stats.tasks);
            let idle_ns = stats.elapsed_ns.saturating_sub(stats.busy_ns);
            histogram_record("par.worker_idle_us", idle_ns / 1_000);
            let utilization = (stats.busy_ns.min(stats.elapsed_ns) * 1_000)
                .checked_div(stats.elapsed_ns)
                .unwrap_or(1_000);
            histogram_record("par.worker_utilization_permille", utilization);
        });
    });
}

/// Serializes tests that mutate process-global state (level, sink).
#[cfg(test)]
pub(crate) fn test_env_lock() -> &'static std::sync::Mutex<()> {
    static LOCK: OnceLock<std::sync::Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_accepts_documented_values() {
        assert_eq!(Level::from_env("off"), Some(Level::Off));
        assert_eq!(Level::from_env(" WARN "), Some(Level::Warn));
        assert_eq!(Level::from_env("Info"), Some(Level::Info));
        assert_eq!(Level::from_env("debug"), Some(Level::Debug));
        assert_eq!(Level::from_env("verbose"), None);
        assert_eq!(Level::from_env(""), None);
    }

    #[test]
    fn enabled_respects_ordering_and_off() {
        let _guard = test_env_lock().lock().unwrap();
        set_level(Level::Warn);
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_level(Level::Off);
        assert!(!enabled(Level::Warn));
        // Off events are never enabled, whatever the level.
        set_level(Level::Debug);
        assert!(!enabled(Level::Off));
        assert!(enabled(Level::Debug));
        set_level(Level::Info);
    }
}
