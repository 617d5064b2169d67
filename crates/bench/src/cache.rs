//! Tiny JSON result cache keyed by artifact name and input digest.
//!
//! The matcher sweep behind Table IV takes minutes; Figures 3/6 and the
//! conclusion verdicts reuse its numbers. Results land in
//! `target/rlb-results/<key>.json`.
//!
//! Every artifact is wrapped in an envelope carrying a format fingerprint
//! and the digest of the inputs that produced it (profile parameters,
//! generator, tuner and roster configuration, seeds — whatever the caller
//! describes). An artifact written by an older build (different JSON
//! layout, different cached types) or from different inputs (say, after a
//! profile recalibration) is detected, reported, and recomputed instead of
//! being silently reused. A change to the *code* that computes a cached
//! value is invisible to the digest: it still needs a [`CACHE_FINGERPRINT`]
//! bump. Writes go through a temporary file and a rename, so a crash or two
//! concurrent binaries never leave a torn artifact.

use rlb_util::hash::FxHasher;
use rlb_util::json::{FromJson, ToJson, Value};
use std::hash::Hasher;
use std::path::PathBuf;

/// Cache-format fingerprint. Bump whenever the layout of any cached type or
/// the JSON codec changes, or the code behind a cached value changes its
/// output, so stale artifacts miss instead of deserializing into wrong data.
pub const CACHE_FINGERPRINT: &str = "rlb-cache-v2";

/// Directory used for cached results.
pub fn cache_dir() -> PathBuf {
    let base = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(base).join("rlb-results")
}

/// FxHash of `inputs`, as the 16-digit hex string the envelope stores.
fn digest(inputs: &str) -> String {
    let mut hasher = FxHasher::default();
    hasher.write(inputs.as_bytes());
    format!("{:016x}", hasher.finish())
}

/// Loads `key` from the cache, or computes and stores it. `inputs`
/// describes everything the value is computed from; an artifact whose
/// stored digest of it differs is a miss.
pub fn with_cache<T, F>(key: &str, inputs: &str, compute: F) -> T
where
    T: ToJson + FromJson,
    F: FnOnce() -> T,
{
    let dir = cache_dir();
    let path = dir.join(format!("{key}.json"));
    let digest = digest(inputs);
    if let Ok(text) = std::fs::read_to_string(&path) {
        match Value::parse(&text) {
            Ok(envelope) => {
                let fingerprint = envelope.get("fingerprint").and_then(Value::as_str);
                let stored = envelope.get("inputs").and_then(Value::as_str);
                if fingerprint != Some(CACHE_FINGERPRINT) {
                    rlb_obs::counter_add("cache.miss", 1);
                    rlb_obs::info!(
                        "[cache] miss: {} has fingerprint {:?}, expected {CACHE_FINGERPRINT:?} — recomputing",
                        path.display(),
                        fingerprint.unwrap_or("<none>")
                    );
                } else if stored != Some(digest.as_str()) {
                    rlb_obs::counter_add("cache.miss", 1);
                    rlb_obs::info!(
                        "[cache] miss: {} has input digest {:?}, expected {digest:?} — recomputing",
                        path.display(),
                        stored.unwrap_or("<none>")
                    );
                } else {
                    if let Some(Ok(value)) = envelope.get("value").map(T::from_json) {
                        rlb_obs::counter_add("cache.hit", 1);
                        rlb_obs::info!("[cache] reused {}", path.display());
                        return value;
                    }
                    rlb_obs::counter_add("cache.miss", 1);
                    rlb_obs::info!(
                        "[cache] miss: {} does not decode as the expected type — recomputing",
                        path.display()
                    );
                }
            }
            Err(e) => {
                rlb_obs::counter_add("cache.miss", 1);
                rlb_obs::info!(
                    "[cache] miss: {} is not valid JSON ({e}) — recomputing",
                    path.display()
                );
            }
        }
    } else {
        rlb_obs::counter_add("cache.miss", 1);
    }
    let value = compute();
    if std::fs::create_dir_all(&dir).is_ok() {
        let envelope = Value::Obj(vec![
            (
                "fingerprint".to_string(),
                Value::Str(CACHE_FINGERPRINT.to_string()),
            ),
            ("inputs".to_string(), Value::Str(digest)),
            ("value".to_string(), value.to_json()),
        ]);
        let text = envelope.to_json_string_pretty();
        // Per-process temporary name: concurrent binaries never write into
        // one file, and the rename replaces the artifact in one step.
        let tmp = dir.join(format!("{key}.json.tmp{}", std::process::id()));
        if std::fs::write(&tmp, &text).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
            rlb_obs::counter_add("cache.write_bytes", text.len() as u64);
            rlb_obs::info!("[cache] wrote {}", path.display());
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_and_reuses() {
        let key = format!("unit-test-{}", std::process::id());
        let mut calls = 0;
        let a: Vec<u32> = with_cache(&key, "inputs", || {
            calls += 1;
            vec![1, 2, 3]
        });
        let b: Vec<u32> = with_cache(&key, "inputs", || {
            calls += 1;
            vec![9, 9, 9]
        });
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(b, vec![1, 2, 3], "second call must come from cache");
        assert_eq!(calls, 1);
        let _ = std::fs::remove_file(cache_dir().join(format!("{key}.json")));
    }

    #[test]
    fn stale_fingerprint_forces_recompute() {
        let key = format!("unit-test-stale-{}", std::process::id());
        let path = cache_dir().join(format!("{key}.json"));
        std::fs::create_dir_all(cache_dir()).unwrap();
        // An artifact written by a hypothetical older build: right shape,
        // wrong fingerprint.
        std::fs::write(&path, r#"{"fingerprint":"rlb-cache-v1","value":[7,7,7]}"#).unwrap();
        let v: Vec<u32> = with_cache(&key, "inputs", || vec![1, 2]);
        assert_eq!(v, vec![1, 2], "stale artifact must not be reused");
        // The recompute must have rewritten the envelope with the current
        // fingerprint, so a second call now hits.
        let again: Vec<u32> = with_cache(&key, "inputs", || vec![9]);
        assert_eq!(again, vec![1, 2]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn pre_envelope_artifacts_miss() {
        let key = format!("unit-test-legacy-{}", std::process::id());
        let path = cache_dir().join(format!("{key}.json"));
        std::fs::create_dir_all(cache_dir()).unwrap();
        // The pre-fingerprint format stored the bare value.
        std::fs::write(&path, "[3,3,3]").unwrap();
        let v: Vec<u32> = with_cache(&key, "inputs", || vec![4, 4]);
        assert_eq!(v, vec![4, 4]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn changed_inputs_force_recompute_and_rewrite() {
        let key = format!("unit-test-inputs-{}", std::process::id());
        let path = cache_dir().join(format!("{key}.json"));
        let old: Vec<u32> = with_cache(&key, "profile v1", || vec![5]);
        assert_eq!(old, vec![5]);
        // Same key and fingerprint, different inputs: a miss, not a reuse.
        let new: Vec<u32> = with_cache(&key, "profile v2", || vec![6, 6]);
        assert_eq!(
            new,
            vec![6, 6],
            "artifact of other inputs must not be reused"
        );
        // The recompute rewrote the artifact under the new digest.
        let again: Vec<u32> = with_cache(&key, "profile v2", || vec![0]);
        assert_eq!(again, vec![6, 6]);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains(&digest("profile v2")));
        let leftovers = std::fs::read_dir(cache_dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(&format!("{key}.json.tmp"))
            })
            .count();
        assert_eq!(leftovers, 0, "the temporary file is renamed away");
        let _ = std::fs::remove_file(path);
    }
}
