//! The socket transport: N concurrent JSONL sessions over one engine.
//!
//! `rlb-serve` stays a stdin/stdout pipe unless `RLB_SERVE_ADDR` names a
//! bind address, in which case [`serve_tcp`] accepts TCP connections and
//! runs one protocol session per connection, all sharing the engine behind
//! its `RwLock` (see [`crate::protocol::Session::handle`] for the per-op
//! read/write lock split). Each session:
//!
//! - gets a session id `s1, s2, …` in accept order, and stamps request
//!   `n` with the trace id `<run>/s<id>/<n>` — deterministic per session
//!   whatever the cross-session interleaving, which is what lets the
//!   concurrent determinism tests compare against a serial replay;
//! - enforces the per-line byte cap (`RLB_SERVE_MAX_LINE`) and an
//!   idle/read timeout (`RLB_SERVE_TIMEOUT_MS`): a quiet connection gets a
//!   final `{"ok":false,"error":"idle timeout…"}` line, not a silent drop;
//! - feeds the `serve.sessions` gauge (current level) and the
//!   `serve.sessions_opened` / `serve.sessions_rejected` /
//!   `serve.session_timeouts` counters.
//!
//! At most `RLB_SERVE_SESSIONS` sessions run at once; excess connections
//! are answered with a structured error line and closed. A `shutdown`
//! request on any session stops the listener and unblocks every other
//! session. All sockets are std-only (`std::net`), non-blocking accept
//! loop, one thread per session.

use crate::engine::Engine;
use crate::protocol::{err_response, Session};
use rlb_util::json::write_line;
use rlb_util::FxHashMap;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Duration;

/// Default cap on concurrent sessions (`RLB_SERVE_SESSIONS`).
pub const DEFAULT_MAX_SESSIONS: usize = 8;
/// Default idle/read timeout per session in ms (`RLB_SERVE_TIMEOUT_MS`).
pub const DEFAULT_TIMEOUT_MS: usize = 30_000;

/// Knobs for [`serve_tcp`], normally read from the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Concurrent-session cap; further connections are rejected with a
    /// structured error line.
    pub max_sessions: usize,
    /// Per-session idle/read timeout in milliseconds.
    pub timeout_ms: usize,
    /// Per-request line cap in bytes (shared with the stdin mode).
    pub max_line_bytes: usize,
}

impl TransportConfig {
    /// Reads `RLB_SERVE_SESSIONS`, `RLB_SERVE_TIMEOUT_MS` and
    /// `RLB_SERVE_MAX_LINE`, each with the warn-once fallback of
    /// [`env_usize_once`].
    pub fn from_env() -> TransportConfig {
        TransportConfig {
            max_sessions: env_usize_once("RLB_SERVE_SESSIONS", DEFAULT_MAX_SESSIONS),
            timeout_ms: env_usize_once("RLB_SERVE_TIMEOUT_MS", DEFAULT_TIMEOUT_MS),
            max_line_bytes: env_usize_once(
                "RLB_SERVE_MAX_LINE",
                rlb_util::json::DEFAULT_MAX_LINE_BYTES,
            ),
        }
    }
}

/// Parses a positive-integer environment variable under the `RLB_THREADS`
/// validation policy: unset → `default`; set but unparseable or zero →
/// warn **once per variable** and fall back to `default`. (The previous
/// `parse().ok().filter(…)` in the binary swallowed invalid values
/// silently, so a typoed `RLB_SERVE_MAX_LINE=4M` quietly served with the
/// default cap.)
pub fn env_usize_once(name: &'static str, default: usize) -> usize {
    match std::env::var(name) {
        Err(_) => default,
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                static WARNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
                if let Ok(mut warned) = WARNED.lock() {
                    if !warned.contains(&name) {
                        warned.push(name);
                        rlb_obs::warn!(
                            "[serve] invalid {name} value {raw:?} (want a positive \
                             integer) — using {default}"
                        );
                    }
                }
                default
            }
        },
    }
}

/// What the listener saw over its lifetime, for the binary's exit log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpSummary {
    /// Sessions accepted (not counting rejected connections).
    pub sessions: u64,
    /// Connections rejected at the session cap.
    pub rejected: u64,
    /// Requests answered across all sessions (ok or error).
    pub requests: u64,
    /// Error responses among them.
    pub errors: u64,
    /// Whether the listener stopped via a `shutdown` request.
    pub shut_down: bool,
}

#[derive(Default)]
struct Totals {
    requests: AtomicU64,
    errors: AtomicU64,
}

/// Accepts sessions on `listener` until a `shutdown` request arrives on
/// any of them, then shuts every open socket down and joins the session
/// threads. The caller binds the listener (so tests and the binary can
/// both report the resolved `local_addr` before serving).
pub fn serve_tcp(
    engine: &RwLock<Engine>,
    listener: TcpListener,
    config: &TransportConfig,
) -> std::io::Result<TcpSummary> {
    listener.set_nonblocking(true)?;
    let stop = AtomicBool::new(false);
    let active = AtomicUsize::new(0);
    let totals = Totals::default();
    // Read-side clones of every open session socket, keyed by session id:
    // a `shutdown` on one session unblocks the others' reads immediately
    // instead of letting them linger until their idle timeout.
    let open: Mutex<FxHashMap<u64, TcpStream>> = Mutex::new(FxHashMap::default());
    let mut sessions = 0u64;
    let mut rejected = 0u64;
    let (stop, active, totals, open) = (&stop, &active, &totals, &open);
    std::thread::scope(|scope| -> std::io::Result<()> {
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    if active.load(Ordering::SeqCst) >= config.max_sessions {
                        rejected += 1;
                        rlb_obs::counter_add("serve.sessions_rejected", 1);
                        let mut stream = stream;
                        // Graceful degradation: one structured line, then
                        // close, instead of a bare connection drop.
                        let _ = write_line(
                            &mut stream,
                            &err_response(format!(
                                "session limit {} reached; retry later",
                                config.max_sessions
                            )),
                        );
                        let _ = stream.flush();
                        continue;
                    }
                    sessions += 1;
                    let sid = sessions;
                    if let (Ok(clone), Ok(mut map)) = (stream.try_clone(), open.lock()) {
                        map.insert(sid, clone);
                    }
                    active.fetch_add(1, Ordering::SeqCst);
                    scope.spawn(move || {
                        run_session(engine, stream, sid, config, stop, totals);
                        if let Ok(mut map) = open.lock() {
                            map.remove(&sid);
                        }
                        active.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if let Ok(map) = open.lock() {
            for stream in map.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        Ok(())
    })?;
    Ok(TcpSummary {
        sessions,
        rejected,
        requests: totals.requests.load(Ordering::SeqCst),
        errors: totals.errors.load(Ordering::SeqCst),
        shut_down: stop.load(Ordering::SeqCst),
    })
}

fn run_session(
    engine: &RwLock<Engine>,
    stream: TcpStream,
    sid: u64,
    config: &TransportConfig,
    stop: &AtomicBool,
    totals: &Totals,
) {
    rlb_obs::counter_add("serve.sessions_opened", 1);
    rlb_obs::gauge_add("serve.sessions", 1);
    let result = session_loop(engine, stream, sid, config, stop, totals);
    rlb_obs::gauge_add("serve.sessions", -1);
    if let Err(e) = result {
        rlb_obs::warn!("[serve] session s{sid} I/O error: {e}");
    }
}

fn session_loop(
    engine: &RwLock<Engine>,
    stream: TcpStream,
    sid: u64,
    config: &TransportConfig,
    stop: &AtomicBool,
    totals: &Totals,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(config.timeout_ms.max(1) as u64)))?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut session = Session::numbered(sid);
    let result = session.serve(
        engine,
        &mut reader,
        &mut writer,
        config.max_line_bytes,
        stop,
    );
    let summary = session.summary();
    totals
        .requests
        .fetch_add(summary.requests, Ordering::SeqCst);
    totals.errors.fetch_add(summary.errors, Ordering::SeqCst);
    match result {
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            // Idle/read timeout: tell the client why before closing.
            rlb_obs::counter_add("serve.session_timeouts", 1);
            let _ = write_line(
                &mut writer,
                &err_response(format!(
                    "idle timeout after {}ms; closing session",
                    config.timeout_ms
                )),
            );
            let _ = writer.flush();
            Ok(())
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlb_util::json::Value;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn config(max_sessions: usize, timeout_ms: usize) -> TransportConfig {
        TransportConfig {
            max_sessions,
            timeout_ms,
            max_line_bytes: 4096,
        }
    }

    /// Binds a loopback listener and runs [`serve_tcp`] on a detached
    /// thread while `client` drives it; returns the summary. Detached (not
    /// scoped) so a failing client assertion fails the test instead of
    /// deadlocking on a server that never saw `shutdown`.
    fn with_server(cfg: TransportConfig, client: impl FnOnce(std::net::SocketAddr)) -> TcpSummary {
        let engine = std::sync::Arc::new(RwLock::new(Engine::new("tcp-test")));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn({
            let engine = std::sync::Arc::clone(&engine);
            move || serve_tcp(&engine, listener, &cfg).unwrap()
        });
        client(addr);
        server.join().unwrap()
    }

    fn send(stream: &mut TcpStream, line: &str) {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
    }

    fn recv(reader: &mut BufReader<TcpStream>) -> Value {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Value::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }

    #[test]
    fn tcp_session_speaks_the_protocol_with_session_traces() {
        let summary = with_server(config(4, 5_000), |addr| {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            send(
                &mut stream,
                r#"{"op":"ingest","left":[["acme widget"]],"right":[["acme wdget"]],"pairs":[{"left":0,"right":0,"match":true,"split":"train"}]}"#,
            );
            let resp = recv(&mut reader);
            assert_eq!(resp.get("ok"), Some(&Value::Bool(true)), "{resp:?}");
            let run = rlb_obs::run_trace();
            assert_eq!(
                resp.get("trace").and_then(Value::as_str),
                Some(format!("{run}/s1/1").as_str())
            );
            send(&mut stream, r#"{"op":"link","k":1}"#);
            let resp = recv(&mut reader);
            assert_eq!(
                resp.get("trace").and_then(Value::as_str),
                Some(format!("{run}/s1/2").as_str())
            );
            send(&mut stream, r#"{"op":"shutdown"}"#);
            let resp = recv(&mut reader);
            assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
        });
        assert_eq!(summary.sessions, 1);
        assert_eq!(summary.requests, 3);
        assert_eq!(summary.errors, 0);
        assert!(summary.shut_down);
    }

    #[test]
    fn session_cap_rejects_with_a_structured_line() {
        let summary = with_server(config(1, 5_000), |addr| {
            let mut first = TcpStream::connect(addr).unwrap();
            let mut first_reader = BufReader::new(first.try_clone().unwrap());
            // Round-trip one request so the first session is surely active
            // before the second connection arrives.
            send(&mut first, r#"{"op":"stats"}"#);
            let _ = recv(&mut first_reader);
            let second = TcpStream::connect(addr).unwrap();
            let mut second_reader = BufReader::new(second);
            let rejection = recv(&mut second_reader);
            assert_eq!(rejection.get("ok"), Some(&Value::Bool(false)));
            let err = rejection.get("error").and_then(Value::as_str).unwrap();
            assert!(err.contains("session limit 1"), "{err}");
            send(&mut first, r#"{"op":"shutdown"}"#);
            let _ = recv(&mut first_reader);
        });
        assert_eq!(summary.sessions, 1);
        assert_eq!(summary.rejected, 1);
    }

    #[test]
    fn idle_session_times_out_gracefully_and_server_keeps_running() {
        let summary = with_server(config(4, 60), |addr| {
            let idle = TcpStream::connect(addr).unwrap();
            let mut idle_reader = BufReader::new(idle);
            // Send nothing: the server must answer with a timeout error
            // line instead of dropping the connection silently.
            let timeout = recv(&mut idle_reader);
            assert_eq!(timeout.get("ok"), Some(&Value::Bool(false)));
            let err = timeout.get("error").and_then(Value::as_str).unwrap();
            assert!(err.contains("idle timeout after 60ms"), "{err}");
            // The listener survived the timed-out session.
            let mut next = TcpStream::connect(addr).unwrap();
            let mut next_reader = BufReader::new(next.try_clone().unwrap());
            send(&mut next, r#"{"op":"shutdown"}"#);
            let resp = recv(&mut next_reader);
            assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
        });
        assert_eq!(summary.sessions, 2);
        assert!(summary.shut_down);
    }

    #[test]
    fn shutdown_on_one_session_unblocks_the_others() {
        let summary = with_server(config(4, 30_000), |addr| {
            // A session blocked in read with a 30s timeout…
            let blocked = TcpStream::connect(addr).unwrap();
            let mut blocked_reader = BufReader::new(blocked.try_clone().unwrap());
            let mut blocked_stream = blocked;
            send(&mut blocked_stream, r#"{"op":"stats"}"#);
            let _ = recv(&mut blocked_reader);
            // …must not delay shutdown issued on another session.
            let mut other = TcpStream::connect(addr).unwrap();
            let mut other_reader = BufReader::new(other.try_clone().unwrap());
            send(&mut other, r#"{"op":"shutdown"}"#);
            let resp = recv(&mut other_reader);
            assert_eq!(resp.get("ok"), Some(&Value::Bool(true)));
        });
        assert_eq!(summary.sessions, 2);
        assert!(summary.shut_down);
    }

    // `env_usize_once` tests share process environment; the vars they touch
    // are test-only names, serialized here so parallel test threads cannot
    // interleave set/remove on the same name.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn env_usize_once_accepts_valid_and_falls_back_on_invalid() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::remove_var("RLB_SERVE_TEST_UNSET");
        assert_eq!(env_usize_once("RLB_SERVE_TEST_UNSET", 7), 7);
        std::env::set_var("RLB_SERVE_TEST_VALID", "123");
        assert_eq!(env_usize_once("RLB_SERVE_TEST_VALID", 7), 123);
        std::env::remove_var("RLB_SERVE_TEST_VALID");
        for bad in ["not-a-number", "0", "-3", "4M", ""] {
            std::env::set_var("RLB_SERVE_TEST_INVALID", bad);
            assert_eq!(
                env_usize_once("RLB_SERVE_TEST_INVALID", 9),
                9,
                "value {bad:?} must fall back"
            );
        }
        std::env::remove_var("RLB_SERVE_TEST_INVALID");
    }

    /// Regression: the binary used to parse `RLB_SERVE_MAX_LINE` with
    /// `parse().ok().filter(…)`, silently swallowing invalid values. The
    /// transport config now routes it through the warn-once fallback.
    #[test]
    fn invalid_serve_max_line_falls_back_to_default() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("RLB_SERVE_MAX_LINE", "4MiB");
        let cfg = TransportConfig::from_env();
        std::env::remove_var("RLB_SERVE_MAX_LINE");
        assert_eq!(
            cfg.max_line_bytes,
            rlb_util::json::DEFAULT_MAX_LINE_BYTES,
            "invalid RLB_SERVE_MAX_LINE must fall back, not be swallowed"
        );
    }
}
