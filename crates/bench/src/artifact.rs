//! Shared writer for the machine-readable `BENCH_*.json` artifacts.
//!
//! Every bench target used to hand-roll its own `Value::Obj` envelope,
//! which let the artifacts drift: some recorded the sample count, some the
//! thread metadata, none a format fingerprint. This module gives them all
//! one envelope —
//!
//! ```json
//! {
//!   "fingerprint": "rlb-bench-v2",
//!   "bench": "<name>",
//!   "samples": <RLB_BENCH_SAMPLES or 10>,
//!   "warmup": <RLB_BENCH_WARMUP or 2>,
//!   "threads_resolved": <worker count>,
//!   "threads_env": <raw RLB_THREADS or null>,
//!   "host_cores": <available_parallelism>,
//!   ...bench-specific fields...
//! }
//! ```
//!
//! — written to `BENCH_<name>.json` at the workspace root (benches run with
//! `crates/bench` as CWD, so the path is anchored to the manifest dir).
//! Bump [`BENCH_FINGERPRINT`] when the envelope shape changes, mirroring
//! the `rlb-obs-v1` / `rlb-cache-v2` conventions.

use crate::timing::{resolved_samples, resolved_warmup, threads_metadata};
use rlb_util::json::Value;

/// Format fingerprint stamped into every artifact this module writes.
pub const BENCH_FINGERPRINT: &str = "rlb-bench-v2";

/// Writes `BENCH_<name>.json` at the workspace root: the shared envelope
/// followed by `fields` in order. Returns the path written. Panics on I/O
/// failure — a bench that cannot record its result has failed.
pub fn write(name: &str, fields: Vec<(String, Value)>) -> String {
    let mut obj = vec![
        ("fingerprint".into(), Value::Str(BENCH_FINGERPRINT.into())),
        ("bench".into(), Value::Str(name.into())),
        ("samples".into(), Value::Num(resolved_samples() as f64)),
        ("warmup".into(), Value::Num(resolved_warmup() as f64)),
    ];
    obj.extend(threads_metadata());
    obj.extend(fields);
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, Value::Obj(obj).to_json_string_pretty())
        .unwrap_or_else(|e| panic!("write BENCH_{name}.json: {e}"));
    println!("wrote BENCH_{name}.json");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_precedes_bench_fields() {
        // Build the envelope the same way `write` does, without touching
        // the workspace root from a unit test.
        let mut obj = vec![
            (
                "fingerprint".to_string(),
                Value::Str(BENCH_FINGERPRINT.into()),
            ),
            ("bench".to_string(), Value::Str("probe".into())),
            ("samples".to_string(), Value::Num(resolved_samples() as f64)),
            ("warmup".to_string(), Value::Num(resolved_warmup() as f64)),
        ];
        obj.extend(threads_metadata());
        obj.push(("custom".into(), Value::Bool(true)));
        let v = Value::Obj(obj);
        assert_eq!(
            v.get("fingerprint").and_then(Value::as_str),
            Some(BENCH_FINGERPRINT)
        );
        assert!(v.get("threads_resolved").is_some());
        assert!(v.get("custom").is_some());
        let text = v.to_json_string_pretty();
        let head = text.find("fingerprint").unwrap();
        let tail = text.find("custom").unwrap();
        assert!(head < tail, "envelope fields come first");
    }
}
