//! `serve-mixed`: `rlb_serve::serve_tcp` in-process on a loopback port-0
//! listener, driven by two closed-loop client connections.
//!
//! - Connection W streams a Product benchmark (2600 + 3200 records, 400
//!   labelled pairs) in [`BATCHES`] `ingest` requests and sends an
//!   `assess` after each batch once the store holds an assessable set.
//! - Connection R runs beside it: one read cycle per ingested batch —
//!   `stats`, exact `link` (k=10), `stats`, ANN `link` (nprobe 8) — then
//!   the final `assess` and `link`, whose outputs the run checks.
//!
//! Each client waits for its reply before sending the next request, and
//! [`Pace`] keeps W at most one batch ahead of R.

use crate::layers::Layers;
use crate::metrics::{median, tail, Digest, Report, Tally};
use crate::pass::PassOut;
use crate::{peak_rss_mb, timed_setup, LAYERS_TOTAL};
use rlb_blocking::{EmbeddingNnBlocker, IndexSide};
use rlb_data::{LabeledPair, MatchingTask, Source};
use rlb_matchers::TaskViewCache;
use rlb_obs::SpanRecord;
use rlb_serve::{serve_tcp, Engine, TransportConfig};
use rlb_synth::{BenchmarkProfile, DifficultyKnobs, Domain};
use rlb_util::json::{read_line, write_line, JsonLine, Value, MAX_DEPTH};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Ingest requests W sends, and read cycles R runs.
pub const BATCHES: usize = 100;
/// Client connections; refused on a host with fewer cores.
pub const CONNECTIONS: usize = 2;
const LINK_K: usize = 10;
const ENGINE: &str = "serve-mixed";
/// A reply slower than this counts as a failed request.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

const STATS: &str = r#"{"op":"stats"}"#;
const ASSESS: &str = r#"{"op":"assess"}"#;
const LINK: &str = r#"{"op":"link","k":10,"limit":100}"#;
const LINK_ANN: &str = r#"{"op":"link","k":10,"limit":100,"nprobe":8}"#;
const LINK_FINAL: &str = r#"{"op":"link","k":10,"limit":1000000}"#;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Ingest,
    Assess,
    Link,
    LinkAnn,
    Stats,
}

/// One ingest request and the store it leaves behind.
struct Batch {
    line: String,
    /// Records in this batch.
    records: usize,
    /// Store size after it: left and right records.
    left: usize,
    right: usize,
    /// Whether the store can be assessed after it (≥ 4 pairs, both
    /// classes).
    assessable: bool,
}

struct Inputs {
    batches: Vec<Batch>,
    /// The engine's store after every batch, pairs in ingest order: the
    /// input of the batch rebuild.
    store: MatchingTask,
}

fn profile(seed: u64) -> BenchmarkProfile {
    BenchmarkProfile {
        id: "serve-mixed",
        stands_for: "service workload",
        domain: Domain::Product,
        left_size: 2600,
        right_size: 3200,
        n_matches: 400,
        labeled_pairs: 400,
        positive_fraction: 0.2,
        knobs: DifficultyKnobs {
            match_noise: 0.35,
            hard_negative_fraction: 0.3,
            anchor_attrs: 1,
            dirty: false,
            style_noise: 0.05,
            right_terse: false,
            base_missing: 0.05,
        },
        seed: crate::batch::mix(0x5EEB, seed),
    }
}

fn records_value(records: &[rlb_data::Record]) -> Value {
    Value::Arr(
        records
            .iter()
            .map(|r| Value::Arr(r.values.iter().map(|v| Value::Str(v.clone())).collect()))
            .collect(),
    )
}

fn pair_value(lp: &LabeledPair, split: &str) -> Value {
    Value::Obj(vec![
        ("left".into(), Value::Num(f64::from(lp.pair.left))),
        ("right".into(), Value::Num(f64::from(lp.pair.right))),
        ("match".into(), Value::Bool(lp.is_match)),
        ("split".into(), Value::Str(split.into())),
    ])
}

/// Generates the task and encodes it as [`BATCHES`] ingest lines. A pair
/// joins the first batch that holds both its records.
fn inputs(seed: u64) -> Inputs {
    let task = rlb_synth::generate_task(&profile(seed));
    let (nl, nr) = (task.left.len(), task.right.len());
    let attrs = task.left.attributes.clone();
    let mut store = MatchingTask {
        name: ENGINE.into(),
        left: Source::new(format!("{ENGINE}-left"), attrs.clone()),
        right: Source::new(format!("{ENGINE}-right"), attrs.clone()),
        train: Vec::new(),
        val: Vec::new(),
        test: Vec::new(),
    };
    let (mut pairs, mut positives) = (0usize, 0usize);
    let mut batches = Vec::with_capacity(BATCHES);
    let (mut sent_l, mut sent_r) = (0, 0);
    for b in 0..BATCHES {
        let (to_l, to_r) = (nl * (b + 1) / BATCHES, nr * (b + 1) / BATCHES);
        let mut wire = Vec::new();
        for (split, src, dst) in [
            ("train", &task.train, &mut store.train),
            ("val", &task.val, &mut store.val),
            ("test", &task.test, &mut store.test),
        ] {
            for lp in src {
                let (l, r) = (lp.pair.left as usize, lp.pair.right as usize);
                if l < to_l && r < to_r && (l >= sent_l || r >= sent_r) {
                    wire.push(pair_value(lp, split));
                    dst.push(*lp);
                    pairs += 1;
                    positives += usize::from(lp.is_match);
                }
            }
        }
        for r in &task.left.records[sent_l..to_l] {
            store.left.push(r.values.clone());
        }
        for r in &task.right.records[sent_r..to_r] {
            store.right.push(r.values.clone());
        }
        let mut fields = vec![
            ("op".to_string(), Value::Str("ingest".into())),
            (
                "left".into(),
                records_value(&task.left.records[sent_l..to_l]),
            ),
            (
                "right".into(),
                records_value(&task.right.records[sent_r..to_r]),
            ),
            ("pairs".into(), Value::Arr(wire)),
        ];
        if b == 0 {
            let names = attrs.iter().map(|a| Value::Str(a.clone())).collect();
            fields.push(("attributes".into(), Value::Arr(names)));
        }
        batches.push(Batch {
            line: Value::Obj(fields).to_json_string(),
            records: (to_l - sent_l) + (to_r - sent_r),
            left: to_l,
            right: to_r,
            assessable: pairs >= 4 && positives > 0 && positives < pairs,
        });
        (sent_l, sent_r) = (to_l, to_r);
    }
    Inputs { batches, store }
}

/// One answered (or failed) request as the client saw it.
struct Req {
    op: Op,
    /// The request line sent.
    line: &'static str,
    /// Index into the batches for ingest requests.
    batch: Option<usize>,
    rtt_us: f64,
    ok: bool,
    /// The response's trace id (matches the server's spans).
    trace: String,
    /// The raw response line, kept in the traced pass for the parse and
    /// encode replays.
    response: Option<String>,
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    keep_responses: bool,
}

impl Conn {
    fn open(addr: std::net::SocketAddr, keep_responses: bool) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            keep_responses,
        })
    }

    /// Sends one line and waits for its reply. A transport error, a
    /// timeout or an unparseable reply is an `Err`.
    fn call(&mut self, line: &str) -> Result<(Value, f64, Option<String>), String> {
        let t = Instant::now();
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.writer
            .write_all(buf.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive: {e}"))?;
        let rtt_us = t.elapsed().as_secs_f64() * 1e6;
        if n == 0 {
            return Err("connection closed".into());
        }
        let value = Value::parse(reply.trim_end()).map_err(|e| format!("reply: {e}"))?;
        Ok((value, rtt_us, self.keep_responses.then_some(reply)))
    }

    /// [`Conn::call`] recorded into `reqs`; returns the reply on success.
    fn request(
        &mut self,
        reqs: &mut Vec<Req>,
        op: Op,
        line: &'static str,
        batch: Option<usize>,
        sent: Option<&str>,
    ) -> Result<Value, String> {
        let result = self.call(sent.unwrap_or(line));
        let (value, rtt_us, response) = match result {
            Ok(r) => r,
            Err(e) => {
                reqs.push(Req {
                    op,
                    line,
                    batch,
                    rtt_us: 0.0,
                    ok: false,
                    trace: String::new(),
                    response: None,
                });
                return Err(e);
            }
        };
        let ok = value.get("ok").and_then(Value::as_bool) == Some(true);
        reqs.push(Req {
            op,
            line,
            batch,
            rtt_us,
            ok,
            trace: value
                .get("trace")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            response,
        });
        Ok(value)
    }
}

/// Everything one session produced.
struct Session {
    connect_s: f64,
    wall_s: f64,
    /// Sum over both connections of first send to last reply.
    windows_s: f64,
    reqs: Vec<Req>,
    final_assess: Option<Value>,
    final_link: Option<Value>,
    errors: Vec<String>,
}

/// Couples the two connections: R starts read cycle `c` once W has ingested
/// batch `c`, and W sends batch `b` once R has started cycle `b - 1`. W runs
/// at most one batch ahead, so the store each read sees is set by this
/// schedule rather than by which thread the host happened to run first.
#[derive(Default)]
struct Pace {
    state: Mutex<PaceState>,
    moved: Condvar,
}

#[derive(Default)]
struct PaceState {
    ingested: usize,
    cycles: usize,
    /// A connection failed; the other stops waiting for it.
    stopped: bool,
}

impl Pace {
    /// Blocks until `ready`; false if the other side stopped first.
    fn wait_until(&self, ready: impl Fn(&PaceState) -> bool) -> bool {
        let mut s = self.state.lock().expect("pace lock holder panicked");
        while !ready(&s) && !s.stopped {
            s = self.moved.wait(s).expect("pace lock holder panicked");
        }
        ready(&s)
    }

    fn update(&self, f: impl FnOnce(&mut PaceState)) {
        f(&mut self.state.lock().expect("pace lock holder panicked"));
        self.moved.notify_all();
    }
}

/// Connection W: every batch, each followed by an `assess` once the store
/// is assessable.
fn writer_loop(
    conn: &mut Conn,
    inputs: &Inputs,
    pace: &Pace,
    reqs: &mut Vec<Req>,
) -> Result<(), String> {
    for (i, b) in inputs.batches.iter().enumerate() {
        if !pace.wait_until(|s| s.cycles >= i) {
            return Err("reader stopped".into());
        }
        conn.request(reqs, Op::Ingest, "", Some(i), Some(&b.line))?;
        if b.assessable {
            conn.request(reqs, Op::Assess, ASSESS, None, None)?;
        }
        pace.update(|s| s.ingested = i + 1);
    }
    Ok(())
}

/// Connection R: one read cycle per ingested batch, then the final
/// outputs.
fn reader_loop(
    conn: &mut Conn,
    pace: &Pace,
    reqs: &mut Vec<Req>,
) -> Result<(Value, Value), String> {
    for c in 0..BATCHES {
        if !pace.wait_until(|s| s.ingested > c) {
            return Err("writer stopped".into());
        }
        pace.update(|s| s.cycles = c + 1);
        conn.request(reqs, Op::Stats, STATS, None, None)?;
        conn.request(reqs, Op::Link, LINK, None, None)?;
        conn.request(reqs, Op::Stats, STATS, None, None)?;
        conn.request(reqs, Op::LinkAnn, LINK_ANN, None, None)?;
    }
    let assess = conn.request(reqs, Op::Assess, ASSESS, None, None)?;
    let link = conn.request(reqs, Op::Link, LINK_FINAL, None, None)?;
    Ok((assess, link))
}

fn session(inputs: &Inputs, traced: bool) -> Result<Session, String> {
    let engine = RwLock::new(Engine::new(ENGINE));
    let config = TransportConfig {
        max_sessions: CONNECTIONS + 2,
        timeout_ms: 300_000,
        max_line_bytes: rlb_util::json::DEFAULT_MAX_LINE_BYTES,
    };
    let connect_started = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve_tcp(&engine, listener, &config));
        let conns = Conn::open(addr, traced).and_then(|w| Ok((w, Conn::open(addr, traced)?)));
        let connect_s = connect_started.elapsed().as_secs_f64();
        let mut errors = Vec::new();
        let mut out = None;
        if let Ok((mut w, mut r)) = conns {
            let pace = Pace::default();
            let started = Instant::now();
            let ((w_reqs, w_res, w_end), (r_reqs, r_res, r_end)) = std::thread::scope(|clients| {
                let w_thread = clients.spawn(|| {
                    let mut reqs = Vec::new();
                    let res = writer_loop(&mut w, inputs, &pace, &mut reqs);
                    if res.is_err() {
                        pace.update(|s| s.stopped = true);
                    }
                    (reqs, res, Instant::now())
                });
                let r_thread = clients.spawn(|| {
                    let mut reqs = Vec::new();
                    let res = reader_loop(&mut r, &pace, &mut reqs);
                    if res.is_err() {
                        pace.update(|s| s.stopped = true);
                    }
                    (reqs, res, Instant::now())
                });
                (
                    w_thread.join().expect("writer client thread"),
                    r_thread.join().expect("reader client thread"),
                )
            });
            let end = w_end.max(r_end);
            let mut reqs = w_reqs;
            reqs.extend(r_reqs);
            if let Err(e) = w_res {
                errors.push(format!("writer: {e}"));
            }
            let (final_assess, final_link) = match r_res {
                Ok((a, l)) => (Some(a), Some(l)),
                Err(e) => {
                    errors.push(format!("reader: {e}"));
                    (None, None)
                }
            };
            out = Some(Session {
                connect_s,
                wall_s: (end - started).as_secs_f64(),
                windows_s: (w_end - started).as_secs_f64() + (r_end - started).as_secs_f64(),
                reqs,
                final_assess,
                final_link,
                errors: Vec::new(),
            });
        } else if let Err(e) = conns {
            errors.push(format!("connect: {e}"));
        }
        // Stop the server on a fresh connection: it answers even when a
        // client connection broke.
        let stopped = Conn::open(addr, false)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.call(r#"{"op":"shutdown"}"#).map(|_| ()));
        if let Err(e) = stopped {
            // The listener cannot be stopped; exiting is the only way to
            // end its thread.
            eprintln!("e2ebench: cannot stop the server: {e}");
            std::process::exit(1);
        }
        match server.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => errors.push(format!("server: {e}")),
            Err(_) => errors.push("server thread panicked".into()),
        }
        match out {
            Some(mut s) => {
                s.errors = errors;
                Ok(s)
            }
            None => Err(errors.join("; ")),
        }
    })
}

/// Digest of a `link` reply: candidate total and every echoed pair.
fn link_digest(link: &Value) -> String {
    let mut d = Digest::default();
    d.f64(link.get("total").and_then(Value::as_f64).unwrap_or(-1.0));
    for p in link.get("pairs").and_then(Value::as_arr).unwrap_or(&[]) {
        for x in p.as_arr().unwrap_or(&[]) {
            d.f64(x.as_f64().unwrap_or(-1.0));
        }
    }
    d.hex()
}

fn assess_digest(assess: &Value) -> String {
    let json = assess
        .get("assessment")
        .map(Value::to_json_string)
        .unwrap_or_default();
    Digest::default().str(&json).hex()
}

/// The final outputs recomputed from scratch over the same store.
struct Rebuild {
    assess: String,
    link: String,
}

fn rebuild(store: &MatchingTask) -> Result<Rebuild, String> {
    let views = TaskViewCache::build(store);
    let assessment =
        rlb_core::assess_with(store, &[], &views).map_err(|e| format!("rebuild assess: {e}"))?;
    let retrieval =
        EmbeddingNnBlocker::default().retrieve(&store.left, &store.right, IndexSide::Right, LINK_K);
    let candidates = retrieval.candidates(LINK_K);
    let pairs: Vec<Value> = candidates
        .iter()
        .map(|p| {
            Value::Arr(vec![
                Value::Num(f64::from(p.left)),
                Value::Num(f64::from(p.right)),
            ])
        })
        .collect();
    let link = Value::Obj(vec![
        ("total".into(), Value::Num(candidates.len() as f64)),
        ("pairs".into(), Value::Arr(pairs)),
    ]);
    let assess = Value::Obj(vec![(
        "assessment".into(),
        rlb_util::ToJson::to_json(&assessment),
    )]);
    Ok(Rebuild {
        assess: assess_digest(&assess),
        link: link_digest(&link),
    })
}

/// Latencies of one op kind, milliseconds.
fn rtts_ms(reqs: &[Req], op: Op) -> Vec<f64> {
    reqs.iter()
        .filter(|r| r.op == op && r.ok && r.line != LINK_FINAL)
        .map(|r| r.rtt_us / 1e3)
        .collect()
}

fn e2e(inputs: &Inputs, s: &Session, values: &mut Vec<(String, f64)>) {
    let records: usize = inputs.batches.iter().map(|b| b.records).sum();
    let ingest = rtts_ms(&s.reqs, Op::Ingest);
    let link = rtts_ms(&s.reqs, Op::Link);
    let mut put = |n: &str, v: f64| values.push((n.to_string(), v));
    put(
        "ingest_records_per_s",
        records as f64 / (ingest.iter().sum::<f64>() / 1e3),
    );
    put("ingest_p50_ms", median(&ingest).unwrap_or(0.0));
    put("ingest_p90_ms", tail(&ingest, 0.9).unwrap_or(0.0));
    put("ingest_samples", ingest.len() as f64);
    put(
        "assess_p50_ms",
        median(&rtts_ms(&s.reqs, Op::Assess)).unwrap_or(0.0),
    );
    put("link_p50_ms", median(&link).unwrap_or(0.0));
    put("link_p90_ms", tail(&link, 0.9).unwrap_or(0.0));
    put("link_samples", link.len() as f64);
    put(
        "link_ann_p50_ms",
        median(&rtts_ms(&s.reqs, Op::LinkAnn)).unwrap_or(0.0),
    );
    put("requests_per_s", s.reqs.len() as f64 / s.wall_s);
}

/// Time of `f`, microseconds.
fn time_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

/// The request path of the traced session, per request: parse → lock wait
/// → engine op → encode → write. Lock wait and op come from the program's
/// own `serve.request` span and the engine span inside it; parse and
/// encode are replays of `read_line` / `write_line` on the exact bytes
/// exchanged; write is the rest of the round trip (socket transfer both
/// ways and wake-ups).
fn request_path(inputs: &Inputs, s: &Session, spans: &[SpanRecord], layers: &mut Layers) -> Report {
    let by_trace: std::collections::HashMap<&str, &SpanRecord> = spans
        .iter()
        .filter(|sp| sp.name == "serve.request")
        .filter_map(|sp| Some((sp.trace.as_deref()?, sp)))
        .collect();
    let child = |parent: u64| spans.iter().find(|sp| sp.parent == Some(parent));
    let (mut parse, mut encode, mut write) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wait_read, mut wait_write) = (Vec::new(), Vec::new());
    let mut ops: [(Op, &str, Vec<f64>); 5] = [
        (Op::Ingest, "serve.op_us.ingest", Vec::new()),
        (Op::Link, "serve.op_us.link", Vec::new()),
        (Op::LinkAnn, "serve.op_us.link_ann", Vec::new()),
        (Op::Assess, "serve.op_us.assess", Vec::new()),
        (Op::Stats, "serve.op_us.stats", Vec::new()),
    ];
    for r in s.reqs.iter().filter(|r| r.ok) {
        let Some(sp) = by_trace.get(r.trace.as_str()) else {
            continue;
        };
        let line = match r.batch {
            Some(b) => inputs.batches[b].line.as_str(),
            None => r.line,
        };
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        let parse_us = time_us(|| {
            let parsed = read_line(
                &mut std::io::Cursor::new(&framed),
                rlb_util::json::DEFAULT_MAX_LINE_BYTES,
                MAX_DEPTH,
            );
            assert!(
                matches!(parsed, Ok(JsonLine::Record(_))),
                "request replay parses"
            );
        });
        let reply = r
            .response
            .as_deref()
            .and_then(|l| Value::parse(l.trim_end()).ok())
            .unwrap_or(Value::Null);
        let mut sink = Vec::new();
        let encode_us = time_us(|| {
            write_line(&mut sink, &reply).expect("in-memory write");
        });
        let request_us = sp.dur_us as f64;
        let wait_us = child(sp.id).map_or(0.0, |c| c.start_us.saturating_sub(sp.start_us) as f64);
        match r.op {
            Op::Ingest => wait_write.push(wait_us),
            Op::Stats => {}
            _ => wait_read.push(wait_us),
        }
        if let Some((_, _, v)) = ops.iter_mut().find(|(op, _, _)| *op == r.op) {
            v.push(request_us - wait_us);
        }
        let rest = (r.rtt_us - request_us - parse_us - encode_us).max(0.0);
        parse.push(parse_us);
        encode.push(encode_us);
        write.push(rest);
    }
    let sum = |v: &[f64]| v.iter().sum::<f64>() / 1e6;
    for (name, v) in [
        ("serve.parse", &parse),
        ("serve.lock_wait_read", &wait_read),
        ("serve.lock_wait_write", &wait_write),
        ("serve.encode", &encode),
        ("serve.write", &write),
    ] {
        layers.add_secs(name, sum(v));
    }
    let op_total: f64 = ops.iter().map(|(_, _, v)| sum(v)).sum();
    layers.add_secs("serve.op", op_total);
    let mut report = Report::default();
    report.add_dist("serve.parse_us", &parse, "us", true);
    report.add_dist("serve.lock_wait_read_us", &wait_read, "us", true);
    report.add_dist("serve.lock_wait_write_us", &wait_write, "us", true);
    for (op, name, v) in &ops {
        report.add_dist(name, v, "us", *op != Op::Assess);
    }
    report.add_dist("serve.encode_us", &encode, "us", true);
    report.add_dist("serve.write_us", &write, "us", true);
    report
}

/// Engine-internal layers of the traced session, from the program's spans
/// (`blocking.retrieve`, `serve.assess`, `complexity.compute`) and from a
/// replay of the ingest sequence through the public functions
/// `Engine::ingest` calls (`TaskViewCache::extended`,
/// `NnIndex::insert_all`).
fn engine_layers(inputs: &Inputs, spans: &[SpanRecord], values: &mut Vec<(String, f64)>) {
    let secs = |pred: &dyn Fn(&SpanRecord) -> bool| -> f64 {
        spans
            .iter()
            .filter(|s| pred(s))
            .map(|s| s.dur_us as f64 / 1e6)
            .sum()
    };
    let detail =
        |s: &SpanRecord, prefix: &str| s.detail.as_deref().is_some_and(|d| d.starts_with(prefix));
    let exact = |s: &SpanRecord| s.name == "blocking.retrieve" && detail(s, "index exact");
    let ann = |s: &SpanRecord| s.name == "blocking.retrieve" && detail(s, "index ann");
    let assess = secs(&|s| s.name == "serve.assess");
    let complexity = secs(&|s| s.name == "complexity.compute");
    // Store size at each exact retrieval: the ingests finished before it
    // (the write lock keeps them out of a running read).
    let mut ingest_ends: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "serve.ingest")
        .map(|s| s.start_us + s.dur_us)
        .collect();
    ingest_ends.sort_unstable();
    let mut comparisons = 0.0;
    for s in spans.iter().filter(|s| exact(s)) {
        let done = ingest_ends.partition_point(|&end| end <= s.start_us);
        if let Some(b) = done.checked_sub(1).map(|i| &inputs.batches[i]) {
            comparisons += b.left as f64 * b.right as f64;
        }
    }
    let (mut points, mut distances) = (0.0, 0.0);
    for s in spans.iter().filter(|s| s.name == "complexity.compute") {
        let n: f64 = s
            .detail
            .as_deref()
            .and_then(|d| d.split(' ').next()?.parse().ok())
            .unwrap_or(0.0);
        points += n;
        distances += n * (n - 1.0) / 2.0;
    }
    let (extend_s, insert_s) = replay_ingest(inputs);
    for (name, v) in [
        ("index.retrieve_exact_s", secs(&exact)),
        ("index.retrieve_ann_s", secs(&ann)),
        ("index.comparisons", comparisons),
        ("complexity.compute_s", complexity),
        ("complexity.points", points),
        ("complexity.pair_distances", distances),
        ("sim.cs_js_s", (assess - complexity).max(0.0)),
        // Pairs the engine scored anew; cached rows are not rescored.
        (
            "sim.pairs",
            rlb_obs::snapshot().counter("serve.assess_computed") as f64,
        ),
        ("views.extend_s", extend_s),
        ("index.insert_s", insert_s),
    ] {
        values.push((name.into(), v));
    }
}

/// Replays the ingest sequence the way `Engine::ingest` applies it:
/// returns the seconds spent extending the views and inserting into the
/// blocking index.
fn replay_ingest(inputs: &Inputs) -> (f64, f64) {
    let full = &inputs.store;
    let mut task = MatchingTask {
        name: full.name.clone(),
        left: Source::new(full.left.name.clone(), full.left.attributes.clone()),
        right: Source::new(full.right.name.clone(), full.right.attributes.clone()),
        train: Vec::new(),
        val: Vec::new(),
        test: Vec::new(),
    };
    let mut views: Option<TaskViewCache> = None;
    let mut index = EmbeddingNnBlocker::default().index(IndexSide::Right);
    let (mut extend_s, mut insert_s) = (0.0, 0.0);
    for b in &inputs.batches {
        let right_start = task.right.len();
        for r in &full.left.records[task.left.len()..b.left] {
            task.left.push(r.values.clone());
        }
        for r in &full.right.records[right_start..b.right] {
            task.right.push(r.values.clone());
        }
        let t = Instant::now();
        views = Some(match views.take() {
            Some(v) => v.extended(&task),
            None => TaskViewCache::build(&task),
        });
        extend_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        index.insert_all(&task.right.records[right_start..]);
        insert_s += t.elapsed().as_secs_f64();
    }
    (extend_s, insert_s)
}

/// One session in this process: set-up (input generation repeated, median
/// reported, plus listener start and connect), the timed session, then —
/// outside the window — the final outputs against a batch rebuild.
pub fn run_pass(seed: u64, traced: bool) -> Result<PassOut, String> {
    let (inputs, generate_s) = timed_setup(|| inputs(seed));
    let reference = rebuild(&inputs.store)?;
    let _ = rlb_obs::take_spans();
    let s = session(&inputs, traced)?;
    let spans = rlb_obs::take_spans();
    let mut tally = Tally::default();
    let mut notes: Vec<String> = s.errors.iter().map(|e| format!("ERROR {e}")).collect();
    for r in &s.reqs {
        tally.record(r.ok);
    }
    let outputs = vec![
        (
            "assess".to_string(),
            s.final_assess
                .as_ref()
                .map_or_else(String::new, assess_digest),
        ),
        (
            "link".to_string(),
            s.final_link.as_ref().map_or_else(String::new, link_digest),
        ),
    ];
    for ((what, got), rebuilt) in outputs.iter().zip([&reference.assess, &reference.link]) {
        if got != rebuilt {
            tally.fail_counted();
            notes.push(format!(
                "MISMATCH final {what}: {got} (batch rebuild {rebuilt})"
            ));
        }
    }
    notes.push(format!(
        "final assess/link match the batch rebuild ({} / {}); {} requests in {:.4} s",
        reference.assess,
        reference.link,
        s.reqs.len(),
        s.wall_s
    ));
    let mut values = vec![("connection_windows_s".to_string(), s.windows_s)];
    e2e(&inputs, &s, &mut values);
    if traced {
        let mut layers = Layers::new(true);
        let report = request_path(&inputs, &s, &spans, &mut layers);
        values.extend(report.metrics.iter().map(|m| (m.name.clone(), m.value)));
        engine_layers(&inputs, &spans, &mut values);
        values.push(("synth.generate_s".into(), generate_s));
        values.push((LAYERS_TOTAL.into(), layers.total_secs()));
    }
    Ok(PassOut {
        setup_s: generate_s + s.connect_s,
        wall_s: s.wall_s,
        ops: s.reqs.len() as f64,
        op_ms: rtts_ms(&s.reqs, Op::Link),
        tally,
        outputs,
        challenging: Vec::new(),
        values,
        notes,
        peak_rss_mb: peak_rss_mb(),
    })
}
