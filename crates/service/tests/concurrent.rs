//! Concurrent-session determinism: N client threads interleaving `link`,
//! `assess`, `stats` and `metrics` against one `RwLock<Engine>` must
//! produce, per session, responses byte-identical to a serial replay of
//! that session's requests — and a writer thread racing reader threads must
//! leave the engine `to_bits`-identical to the same ingest sequence run
//! serially. JSONL lines written under the shared sink lock must never
//! tear, and one socket session's `metrics` call must never move another
//! session's window.

use rlb_core::assess_with;
use rlb_matchers::features::TaskViewCache;
use rlb_serve::{serve_tcp, Engine, IngestBatch, IngestPair, Session, Split, TransportConfig};
use rlb_synth::{BenchmarkProfile, DifficultyKnobs, Domain};
use rlb_util::json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, RwLock};

fn synth_task(seed: u64) -> rlb_data::MatchingTask {
    rlb_synth::generate_task(&BenchmarkProfile {
        id: "serve-conc",
        stands_for: "concurrent session determinism",
        domain: Domain::Product,
        left_size: 50,
        right_size: 60,
        n_matches: 30,
        labeled_pairs: 120,
        positive_fraction: 0.2,
        knobs: DifficultyKnobs {
            match_noise: 0.3,
            hard_negative_fraction: 0.25,
            anchor_attrs: 1,
            dirty: false,
            style_noise: 0.05,
            right_terse: false,
            base_missing: 0.05,
        },
        seed,
    })
}

fn tagged_pairs(task: &rlb_data::MatchingTask) -> Vec<IngestPair> {
    let tag = |pairs: &[rlb_data::LabeledPair], split: Split| -> Vec<IngestPair> {
        pairs
            .iter()
            .map(|lp| IngestPair {
                left: lp.pair.left,
                right: lp.pair.right,
                is_match: lp.is_match,
                split,
            })
            .collect()
    };
    let mut all = tag(&task.train, Split::Train);
    all.extend(tag(&task.val, Split::Val));
    all.extend(tag(&task.test, Split::Test));
    all
}

/// One fully ingested engine for the read-only concurrency tests.
fn loaded_engine(seed: u64) -> Engine {
    let task = synth_task(seed);
    let mut engine = Engine::new(task.name.clone());
    engine
        .ingest(IngestBatch {
            attributes: Some(task.left.attributes.clone()),
            left: task.left.records.iter().map(|r| r.values.clone()).collect(),
            right: task
                .right
                .records
                .iter()
                .map(|r| r.values.clone())
                .collect(),
            pairs: tagged_pairs(&task),
        })
        .expect("full ingest");
    engine
}

/// The request script for one session: a deterministic function of the
/// session id, rotating through the read ops with varying `link` shapes.
fn session_script(sid: u64) -> Vec<Value> {
    let mut ops = Vec::new();
    for round in 0..3u64 {
        let k = 1 + ((sid + round) % 3);
        ops.push(Value::parse(&format!("{{\"op\":\"link\",\"k\":{k}}}")).unwrap());
        ops.push(Value::parse("{\"op\":\"assess\"}").unwrap());
        ops.push(Value::parse("{\"op\":\"metrics\"}").unwrap());
        ops.push(Value::parse("{\"op\":\"stats\"}").unwrap());
    }
    ops
}

fn op_of(request: &Value) -> &str {
    request.get("op").and_then(Value::as_str).unwrap()
}

fn is_ok(line: &str) -> bool {
    Value::parse(line)
        .ok()
        .and_then(|v| v.get("ok").and_then(Value::as_bool))
        == Some(true)
}

/// Runs one session's script under its per-session traces, returning the
/// response line per request and appending every line to the shared sink
/// (lock held per line, as the transport writes them).
fn run_session(engine: &RwLock<Engine>, sid: u64, sink: &Mutex<Vec<u8>>) -> Vec<String> {
    let mut lines = Vec::new();
    let mut session = Session::numbered(sid);
    for request in &session_script(sid) {
        let (response, _) = session.handle(engine, request);
        let line = response.to_json_string();
        {
            let mut sink = sink.lock().unwrap();
            sink.extend_from_slice(line.as_bytes());
            sink.push(b'\n');
        }
        lines.push(line);
    }
    lines
}

#[test]
fn concurrent_sessions_replay_byte_identically_serial() {
    const SESSIONS: u64 = 4;
    let engine = RwLock::new(loaded_engine(9001));
    // The fully ingested engine assesses before any session starts.
    engine.read().unwrap().assess().expect("warmup assess");

    let sink = Mutex::new(Vec::new());
    let (engine_ref, sink_ref) = (&engine, &sink);
    let concurrent: Vec<(u64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..=SESSIONS)
            .map(|sid| scope.spawn(move || (sid, run_session(engine_ref, sid, sink_ref))))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // No torn lines: every line in the shared sink parses as one JSON
    // object, and all lines from all sessions are accounted for.
    let raw = String::from_utf8(sink.into_inner().unwrap()).expect("sink is valid UTF-8");
    let parsed: Vec<Value> = raw
        .lines()
        .map(|l| Value::parse(l).unwrap_or_else(|e| panic!("torn line {l:?}: {e}")))
        .collect();
    assert_eq!(parsed.len(), (SESSIONS * 12) as usize);

    // Serial replay: the same scripts, same per-session traces, one request
    // at a time. Deterministic ops (link/assess) must be byte-identical —
    // including the `{run}/s{sid}/{seq}` trace, which depends only on the
    // session's own sequence. stats/metrics carry global counters whose
    // totals depend on the interleaving, so they are checked ok-only.
    for (sid, concurrent_lines) in &concurrent {
        let script = session_script(*sid);
        let mut session = Session::numbered(*sid);
        for (i, (request, concurrent_line)) in script.iter().zip(concurrent_lines).enumerate() {
            let (serial, _) = session.handle(&engine, request);
            let serial_line = serial.to_json_string();
            match op_of(request) {
                "link" | "assess" => assert_eq!(
                    concurrent_line, &serial_line,
                    "session {sid} request {i}: concurrent response diverged from serial replay"
                ),
                _ => {
                    assert!(is_ok(concurrent_line), "session {sid} request {i}");
                    assert!(is_ok(&serial_line), "session {sid} request {i} (serial)");
                }
            }
            // Both runs stamp the same per-session trace.
            let expect = format!("{}/s{sid}/{}", rlb_obs::run_trace(), i + 1);
            let got = Value::parse(concurrent_line).unwrap();
            assert_eq!(got.get("trace").and_then(Value::as_str), Some(&*expect));
        }
    }
}

#[test]
fn writer_racing_readers_leaves_a_serial_twin() {
    // One writer thread ingests the task in batches while reader threads
    // hammer link/stats/assess. Individual read responses depend on timing,
    // but the final engine state must be `to_bits`-identical to the same
    // batches ingested with no readers at all — and to a from-scratch batch
    // rebuild (the incremental twin).
    let task = synth_task(9002);
    let attrs = task.left.attributes.clone();
    let all_pairs = tagged_pairs(&task);
    let batches: Vec<IngestBatch> = (0..4)
        .map(|i| {
            let slice = |records: &[rlb_data::Record], n: usize| -> Vec<Vec<String>> {
                records[i * n / 4..(i + 1) * n / 4]
                    .iter()
                    .map(|r| r.values.clone())
                    .collect()
            };
            IngestBatch {
                attributes: (i == 0).then(|| attrs.clone()),
                left: slice(&task.left.records, task.left.len()),
                right: slice(&task.right.records, task.right.len()),
                // All pairs ride the last batch, when every record exists.
                pairs: if i == 3 {
                    all_pairs.clone()
                } else {
                    Vec::new()
                },
            }
        })
        .collect();

    let engine = RwLock::new(Engine::new(task.name.clone()));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for batch in &batches {
                engine
                    .write()
                    .unwrap()
                    .ingest(batch.clone())
                    .expect("racing ingest");
            }
        });
        for _ in 0..3 {
            scope.spawn(|| {
                for _ in 0..20 {
                    let engine = engine.read().unwrap();
                    let _ = engine.link(2);
                    let _ = engine.stats();
                    // Partial prefixes may be unassessable; both outcomes
                    // are fine mid-race, panics are not.
                    let _ = engine.assess();
                }
            });
        }
    });

    let serial = {
        let mut serial = Engine::new(task.name.clone());
        for batch in &batches {
            serial.ingest(batch.clone()).expect("serial ingest");
        }
        serial
    };
    let engine = engine.into_inner().unwrap();
    assert_eq!(engine.stats().left, serial.stats().left);
    assert_eq!(engine.stats().pairs, serial.stats().pairs);
    assert_eq!(engine.stats().vocab, serial.stats().vocab);
    let raced = engine.assess().expect("assess after race");
    let quiet = serial.assess().expect("assess without readers");
    assert_eq!(
        rlb_util::json::to_string(&raced),
        rlb_util::json::to_string(&quiet),
        "racing readers perturbed the ingest result"
    );
    let rebuilt = assess_with(engine.task(), &[], &TaskViewCache::build(engine.task()))
        .expect("batch rebuild");
    assert_eq!(
        rlb_util::json::to_string(&raced),
        rlb_util::json::to_string(&rebuilt),
        "incremental twin broke under concurrency"
    );
    assert_eq!(engine.link(3).ranked, serial.link(3).ranked);
}

/// One JSONL client connection: `call` sends a request line and waits for
/// its response, so the order of calls across clients is the order the
/// server sees them in.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client { writer, reader }
    }

    fn call(&mut self, request: &str) -> Value {
        writeln!(self.writer, "{request}").unwrap();
        self.writer.flush().unwrap();
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        Value::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }
}

#[test]
fn metrics_windows_are_per_session() {
    let engine = Arc::new(RwLock::new(Engine::new("windows")));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let config = TransportConfig {
        max_sessions: 4,
        timeout_ms: 30_000,
        max_line_bytes: 4096,
    };
    // Detached, so a failing assertion fails the test instead of leaving
    // the scope waiting on a server that never saw `shutdown`.
    let server = std::thread::spawn({
        let engine = Arc::clone(&engine);
        move || serve_tcp(&engine, listener, &config).unwrap()
    });
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    let metrics = r#"{"op":"metrics"}"#;
    b.call(metrics);
    rlb_obs::counter_add("test.session_window_probe", 3);
    a.call(metrics);
    let window = b.call(metrics);
    let delta = window
        .get("counters")
        .and_then(|c| c.get("test.session_window_probe"))
        .and_then(|probe| probe.get("delta"))
        .and_then(Value::as_f64);
    assert_eq!(
        delta,
        Some(3.0),
        "session A's metrics call moved session B's window"
    );
    a.call(r#"{"op":"shutdown"}"#);
    assert!(server.join().unwrap().shut_down);
}
