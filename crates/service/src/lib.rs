//! `rlb-serve`: the resident linkage service.
//!
//! Where every other binary in the workspace is batch (build task → measure
//! → exit), this crate keeps a linkage engine alive: records arrive in
//! ingest batches, blocking and assessment queries run against everything
//! ingested so far, and the incremental structures (task views with their
//! token dictionary, embedding index) guarantee the answers
//! are byte-identical to a from-scratch batch rebuild — see [`engine`] for
//! the twin policy and [`protocol`] for the stdin-JSONL wire format the
//! `rlb-serve` binary speaks.
//!
//! The engine is shared behind one `RwLock`: `ingest` serializes through
//! the write lock, `link`/`assess`/`stats` read concurrently, and
//! `metrics` reads only its session's state. [`transport`] puts a std-only
//! TCP listener in front of that lock (`RLB_SERVE_ADDR`), multiplexing N
//! concurrent JSONL sessions over the same request loop with per-session
//! `{run}/s{id}/{seq}` traces and `metrics` windows, idle timeouts and
//! graceful error degradation.

pub mod engine;
pub mod protocol;
pub mod transport;

pub use engine::{Engine, IngestBatch, IngestPair, IngestStats, Split};
pub use protocol::{serve, ServeSummary, Session, DEFAULT_K, DEFAULT_LINK_LIMIT};
pub use transport::{env_usize_once, serve_tcp, TcpSummary, TransportConfig};
