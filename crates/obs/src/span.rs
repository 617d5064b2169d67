//! Scoped spans: wall time, parent/child nesting, thread id.
//!
//! A span is opened with the [`span!`](crate::span) macro (or
//! [`span_start`]) and closed when its guard drops. Nesting is tracked per
//! thread, so spans opened on `rlb_util::par` worker threads appear as
//! roots of their own subtrees (workers cannot observe the spawning
//! thread's stack without synchronization on the hot path, which this crate
//! refuses to add).
//!
//! Finished spans land in a bounded global buffer. [`take_spans`] drains it;
//! overflow beyond [`MAX_RECORDED_SPANS`] is counted in the
//! `obs.spans_dropped` counter instead of growing without bound.

use crate::metrics::counter_add;
use crate::sink;
use rlb_util::json::Value;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};
use std::time::Instant;

/// Hard cap on buffered finished spans.
pub const MAX_RECORDED_SPANS: usize = 65_536;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);
static FINISHED: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Dense per-thread id (0 = first thread to touch the crate).
pub(crate) fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique id (process-wide, monotonically assigned).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Span name (`subsystem.stage`).
    pub name: &'static str,
    /// Optional free-form detail (task name, matcher name, …).
    pub detail: Option<String>,
    /// Trace id current when the span opened (see [`crate::current_trace`]).
    pub trace: Option<Arc<str>>,
    /// Thread the span ran on.
    pub thread: u64,
    /// Start, microseconds since the process epoch.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
}

impl SpanRecord {
    /// JSONL representation (`type: "span"`).
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("type".to_string(), Value::Str("span".into())),
            ("id".to_string(), Value::Num(self.id as f64)),
            ("name".to_string(), Value::Str(self.name.into())),
        ];
        if let Some(parent) = self.parent {
            fields.push(("parent".to_string(), Value::Num(parent as f64)));
        }
        if let Some(detail) = &self.detail {
            fields.push(("detail".to_string(), Value::Str(detail.clone())));
        }
        if let Some(trace) = &self.trace {
            fields.push(("trace".to_string(), Value::Str(trace.to_string())));
        }
        fields.push(("thread".to_string(), Value::Num(self.thread as f64)));
        fields.push(("start_us".to_string(), Value::Num(self.start_us as f64)));
        fields.push(("dur_us".to_string(), Value::Num(self.dur_us as f64)));
        Value::Obj(fields)
    }
}

/// Live span guard; records itself on drop.
#[must_use = "a span measures nothing unless its guard is held"]
pub struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    detail: Option<String>,
    trace: Arc<str>,
    start: Instant,
    start_us: u64,
}

/// Opens a span. Prefer the [`span!`](crate::span) macro.
pub fn span_start(name: &'static str) -> Span {
    open(name, None)
}

/// Opens a span carrying a detail string.
pub fn span_start_with(name: &'static str, detail: String) -> Span {
    open(name, Some(detail))
}

fn open(name: &'static str, detail: Option<String>) -> Span {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Span {
        id,
        parent,
        name,
        detail,
        trace: crate::trace::current_trace(),
        start: Instant::now(),
        start_us: crate::now_us(),
    }
}

impl Span {
    /// The span's id — usable as an explicit parent reference in logs.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_us = self.start.elapsed().as_micros() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards are dropped in LIFO order within a thread; a stray
            // out-of-order drop (guard moved across scopes) still removes
            // the right entry.
            if let Some(pos) = s.iter().rposition(|&id| id == self.id) {
                s.remove(pos);
            }
        });
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            detail: self.detail.take(),
            trace: Some(self.trace.clone()),
            thread: thread_id(),
            start_us: self.start_us,
            dur_us,
        };
        crate::debug!(
            "[span] {} {}us{}",
            record.name,
            record.dur_us,
            record
                .detail
                .as_deref()
                .map(|d| format!(" ({d})"))
                .unwrap_or_default()
        );
        if sink::sink_active() {
            sink::write_record(record.to_value());
        }
        // A poisoned buffer (a panic under the lock) degrades to dropping
        // the record — losing one span beats aborting a long run mid-flight.
        let Ok(mut finished) = FINISHED.lock() else {
            counter_add("obs.spans_dropped", 1);
            return;
        };
        if finished.len() < MAX_RECORDED_SPANS {
            finished.push(record);
        } else {
            drop(finished);
            counter_add("obs.spans_dropped", 1);
            static OVERFLOW_WARNED: Once = Once::new();
            OVERFLOW_WARNED.call_once(|| {
                crate::warn!(
                    "[obs] finished-span buffer full ({MAX_RECORDED_SPANS} spans); \
                     further spans are counted in obs.spans_dropped but not recorded \
                     (drain with take_spans/run_metrics, or span more coarsely)"
                );
            });
        }
    }
}

/// Drains every finished span recorded since the last call, in completion
/// order. A poisoned buffer yields the spans recorded before the poisoning
/// panic.
pub fn take_spans() -> Vec<SpanRecord> {
    match FINISHED.lock() {
        Ok(mut finished) => std::mem::take(&mut *finished),
        Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_time_monotonically() {
        let _guard = crate::test_env_lock().lock().unwrap();
        let _ = take_spans();
        let outer_id;
        {
            let outer = span_start("test.outer");
            outer_id = outer.id();
            {
                let _inner = span_start_with("test.inner", "detail".into());
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let spans = take_spans();
        let inner = spans
            .iter()
            .find(|s| s.name == "test.inner")
            .expect("inner recorded");
        let outer = spans
            .iter()
            .find(|s| s.name == "test.outer")
            .expect("outer recorded");
        assert_eq!(inner.parent, Some(outer_id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.detail.as_deref(), Some("detail"));
        assert_eq!(inner.thread, outer.thread);
        // The child starts no earlier than the parent and fits inside it.
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.dur_us <= outer.dur_us, "{inner:?} vs {outer:?}");
        assert!(
            inner.dur_us >= 1_000,
            "slept 2ms, recorded {}",
            inner.dur_us
        );
        // Inner closes first.
        let pos = |n: &str| spans.iter().position(|s| s.name == n).unwrap();
        assert!(pos("test.inner") < pos("test.outer"));
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let _guard = crate::test_env_lock().lock().unwrap();
        let _ = take_spans();
        {
            let root = span_start("test.root");
            let root_id = root.id();
            for _ in 0..2 {
                let _child = span_start("test.child");
            }
            drop(root);
            let spans = take_spans();
            let children: Vec<_> = spans.iter().filter(|s| s.name == "test.child").collect();
            assert_eq!(children.len(), 2);
            assert!(children.iter().all(|c| c.parent == Some(root_id)));
        }
    }

    #[test]
    fn worker_thread_spans_are_roots() {
        let _guard = crate::test_env_lock().lock().unwrap();
        let _ = take_spans();
        let _outer = span_start("test.main_thread");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _s = span_start("test.worker");
            });
        });
        drop(_outer);
        let spans = take_spans();
        let worker = spans.iter().find(|s| s.name == "test.worker").unwrap();
        assert_eq!(worker.parent, None, "cross-thread spans do not nest");
    }

    #[test]
    fn span_record_serializes_with_optional_fields() {
        let r = SpanRecord {
            id: 7,
            parent: Some(3),
            name: "x.y",
            detail: None,
            trace: None,
            thread: 1,
            start_us: 10,
            dur_us: 20,
        };
        let json = r.to_value().to_json_string();
        assert!(json.contains("\"name\":\"x.y\""), "{json}");
        assert!(json.contains("\"parent\":3"), "{json}");
        assert!(!json.contains("detail"), "{json}");
        assert!(!json.contains("trace"), "{json}");
    }

    #[test]
    fn live_spans_carry_the_current_trace_id() {
        let _guard = crate::test_env_lock().lock().unwrap();
        let _ = take_spans();
        {
            let _scope = crate::trace::push_trace("trace-test");
            let _s = span_start("test.traced");
        }
        let spans = take_spans();
        let traced = spans.iter().find(|s| s.name == "test.traced").unwrap();
        assert_eq!(traced.trace.as_deref(), Some("trace-test"));
        let json = traced.to_value().to_json_string();
        assert!(json.contains("\"trace\":\"trace-test\""), "{json}");
    }

    #[test]
    fn overflowing_the_buffer_counts_drops_and_keeps_the_cap() {
        let _guard = crate::test_env_lock().lock().unwrap();
        let _ = take_spans();
        let dropped_before = crate::snapshot().counter("obs.spans_dropped");
        // Fill to the cap plus a margin; every span past the cap must be
        // counted, not recorded.
        let extra = 10u64;
        for _ in 0..MAX_RECORDED_SPANS as u64 + extra {
            let _s = span_start("test.overflow");
        }
        let dropped = crate::snapshot().counter("obs.spans_dropped") - dropped_before;
        let spans = take_spans();
        assert_eq!(spans.len(), MAX_RECORDED_SPANS, "buffer capped");
        assert!(
            dropped >= extra,
            "expected at least {extra} drops, counted {dropped}"
        );
        // The drained buffer accepts spans again.
        {
            let _s = span_start("test.after_overflow");
        }
        let after = take_spans();
        assert!(after.iter().any(|s| s.name == "test.after_overflow"));
    }
}
