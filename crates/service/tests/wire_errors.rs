//! Service edge-case hardening: malformed and out-of-range ingest batches
//! over the wire must come back as structured `{"ok":false,"error":...}`
//! responses and leave the engine exactly as it was — no half-applied
//! records, no polluted `seen_pairs` or splits, and a clean path forward
//! for the next valid request.

use rlb_serve::{Engine, Session};
use rlb_util::json::Value;
use std::sync::RwLock;

fn ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

fn request(engine: &RwLock<Engine>, line: &str) -> Value {
    let (response, _) =
        Session::default().handle(engine, &Value::parse(line).expect("request parses"));
    response
}

fn stats_records(engine: &RwLock<Engine>) -> (f64, f64, f64) {
    let stats = request(engine, r#"{"op":"stats"}"#);
    let records = stats.get("records").expect("records block");
    let n = |f: &str| records.get(f).and_then(Value::as_f64).unwrap();
    (n("left"), n("right"), n("pairs"))
}

#[test]
fn out_of_range_pair_ids_error_without_corrupting_state() {
    let engine = RwLock::new(Engine::new("hardening"));
    let seeded = request(
        &engine,
        concat!(
            r#"{"op":"ingest","attributes":["name"],"left":[["acme widget"],["zen speaker"]],"#,
            r#""right":[["acme wdget"],["zen speakers"]],"#,
            r#""pairs":[{"left":0,"right":0,"match":true,"split":"train"}]}"#
        ),
    );
    assert!(ok(&seeded), "{seeded:?}");
    let before = stats_records(&engine);
    assert_eq!(before, (2.0, 2.0, 1.0));

    // A batch whose pair references a right id that does not exist — even
    // counting the records the batch itself would add. The batch also
    // carries a new record and a valid pair; *none* of it may apply.
    let bad = request(
        &engine,
        concat!(
            r#"{"op":"ingest","left":[["kordia laptop"]],"#,
            r#""pairs":[{"left":2,"right":9,"match":false,"split":"test"},"#,
            r#"{"left":1,"right":1,"match":true,"split":"train"}]}"#
        ),
    );
    assert!(!ok(&bad), "out-of-range pair must be rejected: {bad:?}");
    let err = bad.get("error").and_then(Value::as_str).unwrap();
    assert!(err.contains('9'), "error names the offending id: {err}");
    assert!(
        bad.get("trace").and_then(Value::as_str).is_some(),
        "errors still carry a trace"
    );
    assert_eq!(
        stats_records(&engine),
        before,
        "rejected batch leaked records or pairs into the engine"
    );

    // A duplicate of an already-ingested pair is rejected too, and
    // seen_pairs stays consistent: the original pair is still there, still
    // counted once.
    let dup = request(
        &engine,
        r#"{"op":"ingest","pairs":[{"left":0,"right":0,"match":false,"split":"test"}]}"#,
    );
    assert!(!ok(&dup), "duplicate pair must be rejected: {dup:?}");
    assert_eq!(stats_records(&engine), before);

    // The engine remains fully usable: the same new record and valid pair
    // that rode the rejected batch now apply cleanly.
    let good = request(
        &engine,
        concat!(
            r#"{"op":"ingest","left":[["kordia laptop"]],"#,
            r#""pairs":[{"left":1,"right":1,"match":true,"split":"train"}]}"#
        ),
    );
    assert!(ok(&good), "{good:?}");
    assert_eq!(stats_records(&engine), (3.0, 2.0, 2.0));
    let link = request(&engine, r#"{"op":"link","k":1}"#);
    assert!(ok(&link), "{link:?}");

    // And the splits were never polluted: the engine's task still validates
    // and holds exactly the two accepted pairs.
    let engine = engine.read().unwrap();
    assert_eq!(engine.task().validate(), Ok(()));
    assert_eq!(engine.task().total_pairs(), 2);
}

#[test]
fn structurally_bad_batches_are_all_or_nothing_too() {
    let engine = RwLock::new(Engine::new("hardening2"));
    let seeded = request(
        &engine,
        r#"{"op":"ingest","attributes":["name"],"left":[["acme"]],"right":[["acme inc"]]}"#,
    );
    assert!(ok(&seeded), "{seeded:?}");
    let before = stats_records(&engine);

    for bad_line in [
        // Arity mismatch against the declared single-attribute schema.
        r#"{"op":"ingest","left":[["too","wide"]]}"#,
        // Pair duplicated inside one batch.
        concat!(
            r#"{"op":"ingest","pairs":[{"left":0,"right":0,"match":true,"split":"train"},"#,
            r#"{"left":0,"right":0,"match":true,"split":"val"}]}"#
        ),
        // Malformed pair field (caught at parse time, before the engine).
        r#"{"op":"ingest","pairs":[{"left":0,"right":0.5,"match":true}]}"#,
    ] {
        let response = request(&engine, bad_line);
        assert!(!ok(&response), "{bad_line} must be rejected: {response:?}");
        assert!(
            response.get("error").and_then(Value::as_str).is_some(),
            "structured error: {response:?}"
        );
        assert_eq!(
            stats_records(&engine),
            before,
            "{bad_line} mutated the engine"
        );
    }
}

#[test]
fn huge_link_k_is_bounded_by_the_store() {
    // `k` sizes top-K heaps and candidate buffers; a wire value far beyond
    // the store must not preallocate for it (that aborted the process,
    // ending every session), only retain what exists.
    let engine = RwLock::new(Engine::new("huge-k"));
    let seeded = request(
        &engine,
        concat!(
            r#"{"op":"ingest","attributes":["name"],"left":[["acme widget"],["zen speaker"]],"#,
            r#""right":[["acme wdget"],["zen speakers"],["kordia laptop"]]}"#
        ),
    );
    assert!(ok(&seeded), "{seeded:?}");
    for nprobe in ["", r#","nprobe":8"#] {
        let every = request(&engine, &format!(r#"{{"op":"link","k":3{nprobe}}}"#));
        let huge = request(&engine, &format!(r#"{{"op":"link","k":1e15{nprobe}}}"#));
        assert!(ok(&every), "{every:?}");
        assert!(ok(&huge), "{huge:?}");
        assert_eq!(huge.get("pairs"), every.get("pairs"), "nprobe {nprobe:?}");
        assert_eq!(huge.get("total"), every.get("total"), "nprobe {nprobe:?}");
    }
    let stats = request(&engine, r#"{"op":"stats"}"#);
    assert!(ok(&stats), "the service still answers: {stats:?}");
}
