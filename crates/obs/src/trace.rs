//! Trace correlation: a deterministic id tying every span, event and JSONL
//! line back to the run (and, in the service, the request) that produced it.
//!
//! The id model is two-level:
//!
//! - the **run trace** is one id per process, set explicitly via
//!   [`set_run_trace`] or by [`crate::init`] from `RLB_TRACE` (falling back
//!   to the binary name). Batch binaries live entirely under it.
//! - a **scoped trace** ([`push_trace`]) temporarily replaces the current
//!   id; `rlb-serve` pushes one per request (`<run>/<sequence-number>`,
//!   numbered per session) and echoes it in the response, so a slow `link`
//!   in a client log can be joined against its exact span subtree in the
//!   JSONL trace.
//!
//! Ids are deterministic, not unique: the same binary driven with the same
//! input produces the same ids, which is what lets CI smoke output and
//! committed baselines be compared at all. Spans capture the current trace
//! at *open* (a request's spans keep its id even if they close after the
//! scope guard), events at emission.
//!
//! Scopes are per thread: concurrent sessions each see only their own
//! request's id, and a thread that pushed nothing (a `rlb_util::par`
//! worker, say) stamps the run trace.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

static RUN_TRACE: OnceLock<Arc<str>> = OnceLock::new();

thread_local! {
    static SCOPED: RefCell<Vec<Arc<str>>> = const { RefCell::new(Vec::new()) };
}

fn default_run_trace() -> Arc<str> {
    // Deterministic per binary: `rlb-serve`, `measures`, `fig2`, …
    let name = std::env::args()
        .next()
        .as_deref()
        .and_then(|p| {
            std::path::Path::new(p)
                .file_stem()
                .and_then(|s| s.to_str())
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "run".to_owned());
    // Cargo test/bench binaries carry a content hash suffix (`measures-0ab…`)
    // that would defeat baseline comparison; strip it.
    let name = match name.rsplit_once('-') {
        Some((stem, suffix))
            if suffix.len() == 16 && suffix.bytes().all(|b| b.is_ascii_hexdigit()) =>
        {
            stem.to_owned()
        }
        _ => name,
    };
    Arc::from(name.as_str())
}

/// Fixes the run-level trace id. First caller wins ([`crate::init`] calls
/// this with `RLB_TRACE` when set, so an explicit env id beats the binary
/// name only if nothing set one earlier).
pub fn set_run_trace(id: &str) {
    let _ = RUN_TRACE.set(Arc::from(id));
}

/// The run-level trace id (initialized on first use).
pub fn run_trace() -> Arc<str> {
    RUN_TRACE.get_or_init(default_run_trace).clone()
}

/// The trace id new spans and events on this thread are stamped with right
/// now: the thread's innermost [`push_trace`] scope, or the run trace
/// outside any scope.
pub fn current_trace() -> Arc<str> {
    SCOPED
        .with_borrow(|scoped| scoped.last().cloned())
        .unwrap_or_else(run_trace)
}

/// Scope guard restoring the previous trace id on drop. It is not `Send`:
/// it must drop on the thread whose scope stack it pushed to.
#[must_use = "the trace scope ends when this guard drops"]
pub struct TraceScope {
    id: Arc<str>,
    _thread_bound: PhantomData<*const ()>,
}

impl TraceScope {
    /// The id this scope stamps on spans and events.
    pub fn id(&self) -> &str {
        &self.id
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        // `try_with`: a guard dropped during thread teardown may outlive
        // the stack.
        let _ = SCOPED.try_with(|scoped| {
            let mut scoped = scoped.borrow_mut();
            if let Some(pos) = scoped.iter().rposition(|t| Arc::ptr_eq(t, &self.id)) {
                scoped.remove(pos);
            }
        });
    }
}

/// Makes `id` this thread's current trace until the returned guard drops.
pub fn push_trace(id: impl Into<String>) -> TraceScope {
    let id: Arc<str> = Arc::from(id.into().as_str());
    SCOPED.with_borrow_mut(|scoped| scoped.push(id.clone()));
    TraceScope {
        id,
        _thread_bound: PhantomData,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_traces_nest_and_restore() {
        let _guard = crate::test_env_lock().lock().unwrap();
        let base = current_trace();
        {
            let outer = push_trace("req-a");
            assert_eq!(outer.id(), "req-a");
            assert_eq!(&*current_trace(), "req-a");
            {
                let _inner = push_trace("req-b");
                assert_eq!(&*current_trace(), "req-b");
            }
            assert_eq!(&*current_trace(), "req-a");
        }
        assert_eq!(current_trace(), base);
    }

    #[test]
    fn concurrent_scopes_stamp_their_own_thread() {
        use std::sync::Barrier;
        let _guard = crate::test_env_lock().lock().unwrap();
        let _ = crate::take_spans();
        // A pushes its scope, then B pushes a newer one; only then does A
        // open a span, while B's scope is still live.
        let a_pushed = Barrier::new(2);
        let b_pushed = Barrier::new(2);
        let a_done = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _scope = push_trace("run/s1/1");
                a_pushed.wait();
                b_pushed.wait();
                drop(crate::span::span_start("test.session_a"));
                a_done.wait();
            });
            s.spawn(|| {
                a_pushed.wait();
                let _scope = push_trace("run/s2/1");
                b_pushed.wait();
                a_done.wait();
            });
        });
        let spans = crate::take_spans();
        let a = spans.iter().find(|s| s.name == "test.session_a").unwrap();
        assert_eq!(a.trace.as_deref(), Some("run/s1/1"));
    }

    #[test]
    fn run_trace_strips_test_binary_hash_suffix() {
        // The running test binary is `rlb_obs-<16 hex>`; the default run
        // trace must not leak that suffix.
        let run = run_trace();
        assert!(
            !run.rsplit_once('-')
                .is_some_and(|(_, s)| s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit())),
            "run trace {run:?} kept the cargo hash suffix"
        );
    }
}
