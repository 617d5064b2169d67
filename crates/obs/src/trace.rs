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

use std::sync::{Arc, Mutex, OnceLock};

static RUN_TRACE: OnceLock<Arc<str>> = OnceLock::new();
static SCOPED: Mutex<Vec<Arc<str>>> = Mutex::new(Vec::new());

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

/// The trace id new spans and events are stamped with right now: the
/// innermost [`push_trace`] scope, or the run trace outside any scope.
pub fn current_trace() -> Arc<str> {
    if let Ok(scoped) = SCOPED.lock() {
        if let Some(top) = scoped.last() {
            return top.clone();
        }
    }
    run_trace()
}

/// Scope guard restoring the previous trace id on drop.
#[must_use = "the trace scope ends when this guard drops"]
pub struct TraceScope {
    id: Arc<str>,
}

impl TraceScope {
    /// The id this scope stamps on spans and events.
    pub fn id(&self) -> &str {
        &self.id
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if let Ok(mut scoped) = SCOPED.lock() {
            if let Some(pos) = scoped.iter().rposition(|t| Arc::ptr_eq(t, &self.id)) {
                scoped.remove(pos);
            }
        }
    }
}

/// Makes `id` the current trace until the returned guard drops.
pub fn push_trace(id: impl Into<String>) -> TraceScope {
    let id: Arc<str> = Arc::from(id.into().as_str());
    if let Ok(mut scoped) = SCOPED.lock() {
        scoped.push(id.clone());
    }
    TraceScope { id }
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
