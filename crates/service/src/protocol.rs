//! The stdin-JSONL wire protocol in front of [`Engine`].
//!
//! One JSON object per line in, one per line out. Every request carries an
//! `"op"` field; every response carries `"ok"` (`true` with op-specific
//! payload, `false` with an `"error"` string). Malformed, oversized or
//! over-deep lines get an error response and the stream keeps going — only
//! `shutdown`, end of input, or a real I/O failure stop the loop.
//!
//! `link` is an exact scan unless the request carries an `"nprobe"` field,
//! which switches to IVF-probed retrieval over the incrementally trained
//! index; the response then echoes `"mode":"ann"` and the probe count.
//! `stats` reports the ANN layer's state under `"ann"`.
//!
//! ```text
//! {"op":"ingest","attributes":["name"],"left":[["acme"]],"right":[["acme"]],
//!  "pairs":[{"left":0,"right":0,"match":true,"split":"train"}]}
//! {"op":"link","k":5,"limit":100}
//! {"op":"link","k":5,"nprobe":8}
//! {"op":"assess"}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! Every request runs inside an `rlb-obs` span under its own trace id
//! (`<session-prefix>/<sequence>`, see [`Session`]), echoed as `"trace"` in
//! every response, and feeds per-op counters (`serve.<op>`), the shared
//! latency histogram `serve.request_us`, and a per-op histogram
//! `serve.<op>_us`. Ops that take the engine lock also record how long
//! they waited for it, from requesting the guard to holding it:
//! `serve.lock_wait_write_us` for `ingest`, `serve.lock_wait_read_us` for
//! `link`, `assess` and `stats`. The `stats` op surfaces the full
//! counter/histogram snapshot; the `metrics` op additionally reports
//! since-last-call deltas per counter and a `"window"` summary per histogram
//! (rolling p50/p99 per op between the session's consecutive `metrics`
//! calls), so a client can watch the engine live without touching
//! `RUN_METRICS.json`.

use crate::engine::{Engine, IngestBatch, IngestPair, Split};
use rlb_util::json::{read_line, write_line, JsonLine, Value, MAX_DEPTH};
use rlb_util::ToJson;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

/// Default number of neighbours per query for `link`.
pub const DEFAULT_K: usize = 5;
/// Default cap on candidate pairs echoed in a `link` response (`"total"`
/// always reports the uncapped count).
pub const DEFAULT_LINK_LIMIT: usize = 100;

/// What a session's request loop saw, returned to the binary for logging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered (ok or error).
    pub requests: u64,
    /// Error responses among them.
    pub errors: u64,
    /// Whether the loop ended via `shutdown` (vs. end of input).
    pub shut_down: bool,
}

/// Per-op `&'static` metric names (the obs layer interns by static name).
fn op_metrics(op: &str) -> Option<(&'static str, &'static str)> {
    match op {
        "ingest" => Some(("serve.ingest", "serve.ingest_us")),
        "link" => Some(("serve.link", "serve.link_us")),
        "assess" => Some(("serve.assess", "serve.assess_us")),
        "stats" => Some(("serve.stats", "serve.stats_us")),
        "metrics" => Some(("serve.metrics", "serve.metrics_us")),
        "shutdown" => Some(("serve.shutdown", "serve.shutdown_us")),
        _ => None,
    }
}

pub(crate) fn err_response(msg: impl Into<String>) -> Value {
    Value::Obj(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::Str(msg.into())),
    ])
}

fn ok_response(fields: Vec<(String, Value)>) -> Value {
    let mut obj = vec![("ok".into(), Value::Bool(true))];
    obj.extend(fields);
    Value::Obj(obj)
}

fn is_ok(response: &Value) -> bool {
    response.get("ok").and_then(Value::as_bool) == Some(true)
}

/// Runs the stdin request loop (one [`Session`]) until `shutdown`, end of
/// input, or an I/O error. `max_line_bytes` bounds each request line
/// (`RLB_SERVE_MAX_LINE` in the binary).
pub fn serve<R: BufRead, W: Write>(
    engine: &RwLock<Engine>,
    mut input: R,
    mut output: W,
    max_line_bytes: usize,
) -> std::io::Result<ServeSummary> {
    let mut session = Session::default();
    let stop = AtomicBool::new(false);
    session.serve(engine, &mut input, &mut output, max_line_bytes, &stop)?;
    Ok(session.summary)
}

/// One client's conversation with the engine: the prefix its request
/// traces extend, its request sequence, its `metrics` window baseline, and
/// what its request loop has answered. Sessions share nothing but the
/// engine, so one client's `metrics` call never resets another's window.
#[derive(Debug)]
pub struct Session {
    prefix: String,
    seq: u64,
    baseline: Option<rlb_obs::MetricsSnapshot>,
    summary: ServeSummary,
}

impl Default for Session {
    /// The stdin session: request `n` is traced `<run>/<n>`.
    fn default() -> Self {
        Session {
            prefix: rlb_obs::run_trace().to_string(),
            seq: 0,
            baseline: None,
            summary: ServeSummary::default(),
        }
    }
}

impl Session {
    /// Socket session `sid`: request `n` is traced `<run>/s<sid>/<n>`,
    /// whatever the interleaving with other sessions.
    pub fn numbered(sid: u64) -> Session {
        Session {
            prefix: format!("{}/s{sid}", rlb_obs::run_trace()),
            ..Session::default()
        }
    }

    /// What [`Session::serve`] has answered so far.
    pub(crate) fn summary(&self) -> ServeSummary {
        self.summary
    }

    /// The request loop: read a line, dispatch it, write and flush the
    /// response — until `shutdown` (which also raises `stop`), end of
    /// input, `stop` raised elsewhere, or an I/O error. Responses are
    /// flushed per line so a piped client can converse.
    pub(crate) fn serve<R: BufRead, W: Write>(
        &mut self,
        engine: &RwLock<Engine>,
        input: &mut R,
        output: &mut W,
        max_line_bytes: usize,
        stop: &AtomicBool,
    ) -> std::io::Result<()> {
        while !stop.load(Ordering::SeqCst) {
            let (response, shutdown) = match read_line(input, max_line_bytes, MAX_DEPTH)? {
                JsonLine::Eof => break,
                JsonLine::Bad(e) => {
                    rlb_obs::counter_add("serve.bad_line", 1);
                    (err_response(e.to_string()), false)
                }
                JsonLine::Record(request) => self.handle(engine, &request),
            };
            self.summary.requests += 1;
            if !is_ok(&response) {
                self.summary.errors += 1;
            }
            write_line(output, &response)?;
            output.flush()?;
            if shutdown {
                self.summary.shut_down = true;
                stop.store(true, Ordering::SeqCst);
                break;
            }
        }
        Ok(())
    }

    /// Dispatches one parsed request under the session's next trace id;
    /// returns the response and whether to stop. The engine lock is taken
    /// per op: `ingest` is the only writer; `link`, `assess` and `stats`
    /// take read locks and run concurrently across sessions; `metrics`
    /// reads only the metrics registry and this session's baseline, and
    /// `shutdown` touches no engine state.
    pub fn handle(&mut self, engine: &RwLock<Engine>, request: &Value) -> (Value, bool) {
        self.seq += 1;
        let trace = rlb_obs::push_trace(format!("{}/{}", self.prefix, self.seq));
        let (mut response, shutdown) = match request.get("op").and_then(Value::as_str) {
            Some(op) => self.dispatch(engine, op, request),
            None => (err_response("request has no \"op\" field"), false),
        };
        if let Value::Obj(fields) = &mut response {
            fields.insert(1, ("trace".into(), Value::Str(trace.id().into())));
        }
        if !is_ok(&response) {
            rlb_obs::counter_add("serve.errors", 1);
        }
        (response, shutdown)
    }

    fn dispatch(&mut self, engine: &RwLock<Engine>, op: &str, request: &Value) -> (Value, bool) {
        let started = std::time::Instant::now();
        let _span = rlb_obs::span!("serve.request", "{op}");
        let response = match op {
            "ingest" => with_write(engine, |engine| handle_ingest(engine, request)),
            "link" => with_read(engine, |engine| handle_link(engine, request)),
            "assess" => with_read(engine, |engine| match engine.assess() {
                Ok(a) => ok_response(vec![("assessment".into(), a.to_json())]),
                Err(e) => err_response(e),
            }),
            "stats" => with_read(engine, handle_stats),
            "metrics" => self.metrics(),
            "shutdown" => ok_response(vec![]),
            other => err_response(format!("unknown op {other:?}")),
        };
        let elapsed_us = started.elapsed().as_micros() as u64;
        rlb_obs::histogram_record("serve.request_us", elapsed_us);
        if let Some((counter, histogram)) = op_metrics(op) {
            rlb_obs::counter_add(counter, 1);
            rlb_obs::histogram_record(histogram, elapsed_us);
        }
        (response, op == "shutdown")
    }

    /// The `metrics` op: a live counter/histogram snapshot plus deltas
    /// since this session's previous `metrics` call. Counters report
    /// `{"total", "delta"}`; histograms report the cumulative summary under
    /// `"cumulative"` and the window under `"window"` (the first call's
    /// window is all-time). Per-op rolling p50/p99 are therefore
    /// `histograms["serve.<op>_us"].window.p50/p99`.
    fn metrics(&mut self) -> Value {
        let snap = rlb_obs::snapshot();
        let prev = self.baseline.replace(snap.clone()).unwrap_or_default();
        let counters: Vec<(String, Value)> = snap
            .counters
            .iter()
            .map(|(name, total)| {
                let delta = total.saturating_sub(prev.counter(name));
                (
                    name.clone(),
                    Value::Obj(vec![
                        ("total".into(), Value::Num(*total as f64)),
                        ("delta".into(), Value::Num(delta as f64)),
                    ]),
                )
            })
            .collect();
        let histograms: Vec<(String, Value)> = snap
            .histograms
            .iter()
            .map(|(name, h)| {
                let window = match prev.histogram(name) {
                    Some(p) => h.delta_since(p),
                    None => h.clone(),
                };
                (
                    name.clone(),
                    Value::Obj(vec![
                        ("cumulative".into(), h.to_value()),
                        ("window".into(), window.to_value()),
                    ]),
                )
            })
            .collect();
        ok_response(vec![
            ("counters".into(), Value::Obj(counters)),
            ("histograms".into(), Value::Obj(histograms)),
        ])
    }
}

/// A writer panicked while holding the engine lock; readers degrade to a
/// structured error per request instead of crashing the session.
const POISONED: &str = "engine lock poisoned by an earlier panic";

/// Records the microseconds since `requested` in the lock-wait histogram
/// `name`.
fn record_wait(name: &'static str, requested: std::time::Instant) {
    rlb_obs::histogram_record(name, requested.elapsed().as_micros() as u64);
}

fn with_read(engine: &RwLock<Engine>, op: impl FnOnce(&Engine) -> Value) -> Value {
    let requested = std::time::Instant::now();
    let guard = engine.read();
    record_wait("serve.lock_wait_read_us", requested);
    match guard {
        Ok(engine) => op(&engine),
        Err(_) => err_response(POISONED),
    }
}

fn with_write(engine: &RwLock<Engine>, op: impl FnOnce(&mut Engine) -> Value) -> Value {
    let requested = std::time::Instant::now();
    let guard = engine.write();
    record_wait("serve.lock_wait_write_us", requested);
    match guard {
        Ok(mut engine) => op(&mut engine),
        Err(_) => err_response(POISONED),
    }
}

fn parse_records(v: &Value, field: &str) -> Result<Vec<Vec<String>>, String> {
    let Some(rows) = v.get(field) else {
        return Ok(Vec::new());
    };
    let rows = rows
        .as_arr()
        .ok_or_else(|| format!("\"{field}\" must be an array of records"))?;
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let values = row
                .as_arr()
                .ok_or_else(|| format!("{field}[{i}] must be an array of strings"))?;
            values
                .iter()
                .enumerate()
                .map(|(j, s)| {
                    s.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| format!("{field}[{i}][{j}] must be a string"))
                })
                .collect()
        })
        .collect()
}

fn parse_pairs(v: &Value) -> Result<Vec<IngestPair>, String> {
    let Some(pairs) = v.get("pairs") else {
        return Ok(Vec::new());
    };
    let pairs = pairs
        .as_arr()
        .ok_or_else(|| "\"pairs\" must be an array".to_string())?;
    pairs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let id = |field: &str| -> Result<u32, String> {
                p.get(field)
                    .and_then(Value::as_f64)
                    .filter(|x| x.fract() == 0.0 && *x >= 0.0 && *x <= u32::MAX as f64)
                    .map(|x| x as u32)
                    .ok_or_else(|| format!("pairs[{i}].{field} must be a record id"))
            };
            Ok(IngestPair {
                left: id("left")?,
                right: id("right")?,
                is_match: p
                    .get("match")
                    .and_then(Value::as_bool)
                    .ok_or_else(|| format!("pairs[{i}].match must be a boolean"))?,
                split: Split::parse(p.get("split").and_then(Value::as_str).unwrap_or("train"))?,
            })
        })
        .collect()
}

fn handle_ingest(engine: &mut Engine, request: &Value) -> Value {
    let batch = (|| -> Result<IngestBatch, String> {
        let attributes = match request.get("attributes") {
            None => None,
            Some(a) => Some(
                a.as_arr()
                    .ok_or_else(|| "\"attributes\" must be an array of strings".to_string())?
                    .iter()
                    .map(|s| {
                        s.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| "\"attributes\" must be an array of strings".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        Ok(IngestBatch {
            attributes,
            left: parse_records(request, "left")?,
            right: parse_records(request, "right")?,
            pairs: parse_pairs(request)?,
        })
    })();
    match batch.and_then(|b| engine.ingest(b)) {
        Ok(stats) => ok_response(vec![
            ("left".into(), Value::Num(stats.left as f64)),
            ("right".into(), Value::Num(stats.right as f64)),
            ("pairs".into(), Value::Num(stats.pairs as f64)),
            ("vocab".into(), Value::Num(stats.vocab as f64)),
        ]),
        Err(e) => err_response(e),
    }
}

fn handle_link(engine: &Engine, request: &Value) -> Value {
    let usize_field = |field: &str, default: usize| -> Result<usize, String> {
        match request.get(field) {
            None => Ok(default),
            Some(v) => v
                .as_f64()
                .filter(|x| x.fract() == 0.0 && *x >= 1.0)
                .map(|x| x as usize)
                .ok_or_else(|| format!("\"{field}\" must be a positive integer")),
        }
    };
    let (k, limit) = match (
        usize_field("k", DEFAULT_K),
        usize_field("limit", DEFAULT_LINK_LIMIT),
    ) {
        (Ok(k), Ok(limit)) => (k, limit),
        (Err(e), _) | (_, Err(e)) => return err_response(e),
    };
    // An "nprobe" field switches to IVF-probed retrieval; without it the
    // exact scan runs, so pre-ANN clients keep their exact twin guarantees.
    let nprobe = match request.get("nprobe") {
        None => None,
        Some(_) => match usize_field("nprobe", 0) {
            Ok(n) => Some(n),
            Err(e) => return err_response(e),
        },
    };
    let retrieval = match nprobe {
        None => engine.link(k),
        Some(n) => engine.link_ann(k, Some(n)),
    };
    let candidates = retrieval.candidates(k);
    let echoed: Vec<Value> = candidates
        .iter()
        .take(limit)
        .map(|p| {
            Value::Arr(vec![
                Value::Num(f64::from(p.left)),
                Value::Num(f64::from(p.right)),
            ])
        })
        .collect();
    let mut fields = vec![
        ("k".into(), Value::Num(k as f64)),
        (
            "mode".into(),
            Value::Str(if nprobe.is_some() { "ann" } else { "exact" }.into()),
        ),
        ("total".into(), Value::Num(candidates.len() as f64)),
        ("pairs".into(), Value::Arr(echoed)),
    ];
    if let Some(n) = nprobe {
        fields.insert(2, ("nprobe".into(), Value::Num(n as f64)));
    }
    ok_response(fields)
}

fn handle_stats(engine: &Engine) -> Value {
    let stats = engine.stats();
    let snap = rlb_obs::snapshot();
    let ivf = engine.index().ivf();
    ok_response(vec![
        (
            "records".into(),
            Value::Obj(vec![
                ("left".into(), Value::Num(stats.left as f64)),
                ("right".into(), Value::Num(stats.right as f64)),
                ("pairs".into(), Value::Num(stats.pairs as f64)),
                ("vocab".into(), Value::Num(stats.vocab as f64)),
            ]),
        ),
        (
            "ann".into(),
            Value::Obj(vec![
                ("trained".into(), Value::Bool(ivf.trained())),
                ("nlists".into(), Value::Num(ivf.nlists() as f64)),
                ("trains".into(), Value::Num(ivf.trains() as f64)),
            ]),
        ),
        (
            "counters".into(),
            Value::Obj(
                snap.counters
                    .iter()
                    .map(|(n, v)| (n.clone(), Value::Num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "histograms".into(),
            Value::Obj(
                snap.histograms
                    .iter()
                    .map(|(n, h)| (n.clone(), h.to_value()))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(script: &str) -> (Vec<Value>, ServeSummary) {
        let engine = RwLock::new(Engine::new("test"));
        let mut out = Vec::new();
        let summary = serve(
            &engine,
            std::io::BufReader::new(script.as_bytes()),
            &mut out,
            4096,
        )
        .unwrap();
        let responses = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Value::parse(l).expect("response parses"))
            .collect();
        (responses, summary)
    }

    fn ok(v: &Value) -> bool {
        v.get("ok").and_then(Value::as_bool) == Some(true)
    }

    #[test]
    fn full_session_over_the_wire() {
        let script = concat!(
            r#"{"op":"ingest","attributes":["name"],"left":[["acme widget"],["zen speaker"]],"#,
            r#""right":[["acme wdget"],["zen speakers"]],"pairs":[{"left":0,"right":0,"match":true,"split":"train"}]}"#,
            "\n",
            r#"{"op":"link","k":1}"#,
            "\n",
            r#"{"op":"stats"}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n",
        );
        let (responses, summary) = drive(script);
        assert_eq!(responses.len(), 4);
        assert!(responses.iter().all(ok), "{responses:?}");
        assert_eq!(responses[0].get("left").and_then(Value::as_f64), Some(2.0));
        assert_eq!(responses[1].get("total").and_then(Value::as_f64), Some(2.0));
        let counters = responses[2].get("counters").expect("counters");
        assert!(counters.get("serve.ingest").is_some());
        let hists = responses[2].get("histograms").expect("histograms");
        assert!(hists.get("serve.request_us").is_some());
        assert_eq!(
            summary,
            ServeSummary {
                requests: 4,
                errors: 0,
                shut_down: true
            }
        );
    }

    #[test]
    fn malformed_and_unknown_requests_do_not_stop_the_loop() {
        let script = concat!(
            "{broken\n",
            r#"{"op":"teleport"}"#,
            "\n",
            r#"{"no_op":1}"#,
            "\n",
            r#"{"op":"stats"}"#,
            "\n",
        );
        let (responses, summary) = drive(script);
        assert_eq!(responses.len(), 4);
        assert!(!ok(&responses[0]));
        assert!(responses[1]
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("unknown op"));
        assert!(!ok(&responses[2]));
        assert!(ok(&responses[3]));
        assert!(!summary.shut_down, "ended on EOF, not shutdown");
        assert_eq!(summary.errors, 3);
    }

    #[test]
    fn oversized_request_line_is_an_error_response() {
        let huge = format!("{{\"op\":\"ingest\",\"pad\":\"{}\"}}\n", "x".repeat(8192));
        let script = format!("{huge}{}\n", r#"{"op":"stats"}"#);
        let (responses, _) = drive(&script);
        assert_eq!(responses.len(), 2);
        assert!(responses[0]
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("4096-byte"));
        assert!(ok(&responses[1]), "stream stays aligned after oversize");
    }

    #[test]
    fn assess_over_the_wire_matches_direct_call() {
        let engine = RwLock::new(Engine::new("twin"));
        let mut session = Session::default();
        let ingest = Value::parse(concat!(
            r#"{"op":"ingest","left":[["acme widget pro"],["zen speaker ultra"],["kordia laptop"],["other thing"]],"#,
            r#""right":[["acme wdget pro"],["zen speakers"],["kordia laptops"],["unrelated junk"]],"#,
            r#""pairs":[{"left":0,"right":0,"match":true,"split":"train"},"#,
            r#"{"left":1,"right":1,"match":true,"split":"train"},"#,
            r#"{"left":2,"right":2,"match":true,"split":"val"},"#,
            r#"{"left":0,"right":3,"match":false,"split":"train"},"#,
            r#"{"left":3,"right":1,"match":false,"split":"test"},"#,
            r#"{"left":2,"right":3,"match":false,"split":"test"}]}"#
        ))
        .unwrap();
        let (resp, _) = session.handle(&engine, &ingest);
        assert!(ok(&resp), "{resp:?}");
        let (resp, _) = session.handle(&engine, &Value::parse(r#"{"op":"assess"}"#).unwrap());
        assert!(ok(&resp), "{resp:?}");
        let wire = resp.get("assessment").expect("assessment payload");
        let direct = engine.read().unwrap().assess().unwrap();
        assert_eq!(*wire, direct.to_json(), "wire assessment == direct");
    }

    #[test]
    fn link_with_nprobe_reports_ann_mode_and_matches_exact_when_exhaustive() {
        let engine = RwLock::new(Engine::new("ann"));
        let mut session = Session::default();
        let ingest = Value::parse(concat!(
            r#"{"op":"ingest","left":[["acme widget"],["zen speaker"]],"#,
            r#""right":[["acme wdget"],["zen speakers"],["junk"]]}"#
        ))
        .unwrap();
        let (resp, _) = session.handle(&engine, &ingest);
        assert!(ok(&resp), "{resp:?}");
        let (exact, _) = session.handle(&engine, &Value::parse(r#"{"op":"link","k":2}"#).unwrap());
        assert_eq!(exact.get("mode").and_then(Value::as_str), Some("exact"));
        assert!(exact.get("nprobe").is_none());
        // A tiny index is untrained, so any nprobe is exhaustive: the ANN
        // response must carry the same pairs as the exact one.
        let (ann, _) = session.handle(
            &engine,
            &Value::parse(r#"{"op":"link","k":2,"nprobe":4}"#).unwrap(),
        );
        assert!(ok(&ann), "{ann:?}");
        assert_eq!(ann.get("mode").and_then(Value::as_str), Some("ann"));
        assert_eq!(ann.get("nprobe").and_then(Value::as_f64), Some(4.0));
        assert_eq!(ann.get("pairs"), exact.get("pairs"));
        assert_eq!(ann.get("total"), exact.get("total"));
    }

    #[test]
    fn stats_reports_ann_state() {
        let (responses, _) = drive("{\"op\":\"stats\"}\n");
        let ann = responses[0].get("ann").expect("ann block");
        assert_eq!(ann.get("trained"), Some(&Value::Bool(false)));
        assert_eq!(ann.get("nlists").and_then(Value::as_f64), Some(0.0));
        assert_eq!(ann.get("trains").and_then(Value::as_f64), Some(0.0));
    }

    #[test]
    fn every_response_echoes_a_sequential_request_trace() {
        let script = concat!(
            r#"{"op":"stats"}"#,
            "\n",
            r#"{"op":"teleport"}"#,
            "\n",
            r#"{"no_op":1}"#,
            "\n",
        );
        let (responses, _) = drive(script);
        assert_eq!(responses.len(), 3);
        let run = rlb_obs::run_trace();
        let prefix = format!("{run}/");
        let mut seqs = Vec::new();
        for r in &responses {
            let trace = r
                .get("trace")
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("response missing trace: {r:?}"));
            assert!(trace.starts_with(&prefix), "{trace} under run {run}");
            seqs.push(trace[prefix.len()..].parse::<u64>().unwrap());
        }
        // Consecutive requests in one session get consecutive sequence
        // numbers (other tests advance the global counter, so only the gap
        // between our own requests is pinned).
        assert_eq!(seqs[1], seqs[0] + 1, "{seqs:?}");
        assert_eq!(seqs[2], seqs[1] + 1, "{seqs:?}");
    }

    #[test]
    fn metrics_op_reports_totals_deltas_and_rolling_windows() {
        let engine = RwLock::new(Engine::new("metrics"));
        let mut session = Session::default();
        let metrics = Value::parse(r#"{"op":"metrics"}"#).unwrap();
        let (first, _) = session.handle(&engine, &metrics);
        assert!(ok(&first), "{first:?}");
        // Probe metrics no other test touches, so the window is exactly ours
        // even with concurrent tests hammering the global registry.
        rlb_obs::counter_add("test.metrics_probe", 2);
        rlb_obs::histogram_record("test.metrics_probe_us", 100);
        rlb_obs::histogram_record("test.metrics_probe_us", 300);
        let (second, _) = session.handle(&engine, &metrics);
        let probe = second
            .get("counters")
            .and_then(|c| c.get("test.metrics_probe"))
            .expect("probe counter");
        assert_eq!(probe.get("delta").and_then(Value::as_f64), Some(2.0));
        assert_eq!(probe.get("total").and_then(Value::as_f64), Some(2.0));
        let hist = second
            .get("histograms")
            .and_then(|h| h.get("test.metrics_probe_us"))
            .expect("probe histogram");
        let window = hist.get("window").expect("window summary");
        assert_eq!(window.get("count").and_then(Value::as_f64), Some(2.0));
        assert_eq!(window.get("sum").and_then(Value::as_f64), Some(400.0));
        assert!(window.get("p50").and_then(Value::as_f64).is_some());
        assert!(window.get("p99").and_then(Value::as_f64).is_some());
        let cumulative = hist.get("cumulative").expect("cumulative summary");
        assert_eq!(cumulative.get("count").and_then(Value::as_f64), Some(2.0));
        // The shared per-op metrics are present too (inexact totals: other
        // tests run concurrently).
        assert!(second
            .get("histograms")
            .and_then(|h| h.get("serve.request_us"))
            .is_some());
        // Lock waits: an ingest waits for the write lock, a stats for a read
        // lock, and the next window holds at least those two samples.
        for line in [
            r#"{"op":"ingest","left":[["a"]],"right":[["a"]]}"#,
            r#"{"op":"stats"}"#,
        ] {
            let (resp, _) = session.handle(&engine, &Value::parse(line).unwrap());
            assert!(ok(&resp), "{resp:?}");
        }
        let (waits, _) = session.handle(&engine, &metrics);
        for name in ["serve.lock_wait_write_us", "serve.lock_wait_read_us"] {
            let window = waits
                .get("histograms")
                .and_then(|h| h.get(name))
                .and_then(|h| h.get("window"))
                .unwrap_or_else(|| panic!("{name} window: {waits:?}"));
            assert!(
                window.get("count").and_then(Value::as_f64) >= Some(1.0),
                "{name}"
            );
        }
        // A call with no probe activity since the last sees an empty probe
        // window: zero delta, null quantiles (never NaN, never fabricated
        // zeros).
        let (quiet, _) = session.handle(&engine, &metrics);
        let probe = quiet
            .get("counters")
            .and_then(|c| c.get("test.metrics_probe"))
            .unwrap();
        assert_eq!(probe.get("delta").and_then(Value::as_f64), Some(0.0));
        let window = quiet
            .get("histograms")
            .and_then(|h| h.get("test.metrics_probe_us"))
            .and_then(|h| h.get("window"))
            .unwrap();
        assert_eq!(window.get("count").and_then(Value::as_f64), Some(0.0));
        assert_eq!(window.get("p99"), Some(&Value::Null));
    }

    #[test]
    fn bad_pair_fields_are_reported_with_location() {
        let (responses, _) = drive(concat!(
            r#"{"op":"ingest","left":[["a"]],"right":[["a"]],"pairs":[{"left":0,"right":0.5,"match":true}]}"#,
            "\n"
        ));
        let err = responses[0].get("error").and_then(Value::as_str).unwrap();
        assert!(err.contains("pairs[0].right"), "{err}");
    }
}
