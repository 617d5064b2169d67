//! End-to-end benchmark of the paper pipeline and the resident linkage
//! service.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload apriori-13 --seed 0 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `README.md` for why each was chosen):
//!
//! - `apriori-13` — a-priori assessment of the 13 established stand-ins;
//! - `newbench-verdict` — the Section-VI pipeline on Dn3 and Dn8;
//! - `serve-mixed` — `rlb_serve::serve_tcp` on loopback with one writer
//!   and one reader connection.
//!
//! Each pass runs in a fresh child process of this binary (see
//! [`pass`]). `--trace 0` runs untraced passes until `--seconds` have
//! passed (at least two) and reports the end-to-end metrics. `--trace 1`
//! runs one untraced and one traced pass, checks that their outputs are
//! bit-identical, and reports the per-layer metrics. Either way every
//! output is checked against the recorded references; the run prints a
//! metric table, then one JSON result line last.

mod batch;
mod layers;
mod metrics;
mod oracle;
mod pass;
mod serve;

use metrics::{median, Report, Tally};
use pass::{PassOut, PASS_PREFIX};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// The service's user-facing latencies and rates, measured on the untraced
/// pass of a `--trace 1` run and reported beside the layers.
const SERVE_DETAIL: [(&str, &str); 10] = [
    ("ingest_records_per_s", "1/s"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p90_ms", "ms"),
    ("ingest_samples", "count"),
    ("assess_p50_ms", "ms"),
    ("link_p50_ms", "ms"),
    ("link_p90_ms", "ms"),
    ("link_samples", "count"),
    ("link_ann_p50_ms", "ms"),
    ("requests_per_s", "1/s"),
];

/// Per-layer metrics every workload reports with `--trace 1` (0 where the
/// workload does not run that layer), after which come [`SERVE_DETAIL`]
/// and the request-path distributions of [`SERVE_DISTS`].
const PER_LAYER: [(&str, &str); 27] = [
    ("synth.generate_s", "s"),
    ("views.build_s", "s"),
    ("views.extend_s", "s"),
    ("sim.cs_js_s", "s"),
    ("sim.pairs", "count"),
    ("linearity.sweep_s", "s"),
    ("complexity.compute_s", "s"),
    ("complexity.points", "count"),
    ("complexity.pair_distances", "count"),
    ("blocking.tune_s", "s"),
    ("blocking.tune_configs", "count"),
    ("blocking.candidates", "count"),
    ("blocking.pq", "ratio"),
    ("index.insert_s", "s"),
    ("index.retrieve_exact_s", "s"),
    ("index.retrieve_ann_s", "s"),
    ("index.comparisons", "count"),
    ("roster.wall_s", "s"),
    ("roster.busy_s", "s"),
    ("roster.linear_s", "s"),
    ("roster.nonlinear_ml_s", "s"),
    ("roster.deep_s", "s"),
    ("roster.configs", "count"),
    ("roster.unavailable", "count"),
    ("roster.efficiency", "ratio"),
    ("unattributed_s", "s"),
    ("obs.trace_overhead", "ratio"),
];

/// The service request path, one distribution per step: name and whether
/// a p90 is reported (its `.n` shows the sample count).
const SERVE_DISTS: [(&str, bool); 10] = [
    ("serve.parse_us", true),
    ("serve.lock_wait_read_us", true),
    ("serve.lock_wait_write_us", true),
    ("serve.op_us.ingest", true),
    ("serve.op_us.link", true),
    ("serve.op_us.link_ann", true),
    ("serve.op_us.assess", false),
    ("serve.op_us.stats", true),
    ("serve.encode_us", true),
    ("serve.write_us", true),
];

/// Name under which a traced pass reports the sum of its layer self times.
pub const LAYERS_TOTAL: &str = "layers.total_s";

/// Environment variables that change what a workload computes. They are
/// removed before any work starts, so every run measures the same program.
const NEUTRALISED_PREFIXES: [&str; 2] = ["RLB_COMPLEXITY_", "RLB_ANN_"];
const NEUTRALISED: [&str; 3] = ["RLB_OBS_FILE", "RLB_OBS_FOLDED", "RLB_ALLOC_STATS"];

/// A pass repeats its input set-up at least this many times, and until it
/// has spent [`SETUP_MIN_SECONDS`] on it; `setup_s` is the median. Cheap
/// set-ups get more repetitions, so their median stays steady.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 0.5;
const SETUP_MAX_REPS: usize = 50;

/// Untraced passes a `--trace 0` run makes at least, whatever `--seconds`
/// says: the reported times are medians over passes.
const MIN_PASSES: usize = 2;

const WORKLOADS: [&str; 3] = ["apriori-13", "newbench-verdict", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a child process: run one pass (traced or not) and report it.
    pass: Option<bool>,
}

fn flag01(value: &str) -> Option<bool> {
    match value {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut pass) = (None, 0, 10.0, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: want {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&WORKLOADS.join(" | "))),
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => trace = flag01(&value).ok_or_else(|| bad("0 or 1"))?,
            "--pass" => pass = Some(flag01(&value).ok_or_else(|| bad("0 or 1"))?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        pass,
    })
}

/// The host a run measured on, printed with every result.
struct Host {
    cores: usize,
    threads: usize,
    threads_raw: Option<String>,
}

impl Host {
    /// Refuses a worker or connection count above the core count: such a
    /// run measures oversubscription, not the program.
    fn detect(workload: &str) -> Result<Host, String> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = rlb_util::par::thread_count();
        if threads > cores {
            return Err(format!(
                "RLB_THREADS resolves to {threads} workers on a {cores}-core host"
            ));
        }
        if workload == "serve-mixed" && serve::CONNECTIONS > cores {
            return Err(format!(
                "{} client connections on a {cores}-core host",
                serve::CONNECTIONS
            ));
        }
        Ok(Host {
            cores,
            threads,
            threads_raw: std::env::var("RLB_THREADS").ok(),
        })
    }
}

fn neutralise_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| {
            NEUTRALISED.contains(&k.as_str())
                || NEUTRALISED_PREFIXES.iter().any(|p| k.starts_with(p))
        })
        .collect();
    for name in &names {
        // Single-threaded here: nothing else reads the environment yet.
        std::env::remove_var(name);
    }
    names
}

/// Peak resident set of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total and stolen CPU time on the host so far, in ticks (`/proc/stat`).
/// Time the hypervisor gives to other guests slows every pass; the share
/// printed with each run tells a slow run on a busy host from a slow
/// program.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPS`]); returns the last
/// inputs and the median time.
pub fn timed_setup<I>(mut setup: impl FnMut() -> I) -> (I, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let inputs = setup();
        times.push(t.elapsed().as_secs_f64());
        let enough =
            times.len() >= SETUP_MIN_REPS && started.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS;
        if enough || times.len() >= SETUP_MAX_REPS {
            return (inputs, median(&times).expect("set-up timed"));
        }
    }
}

/// Runs one pass in a fresh child process and reads its result line.
fn child(args: &Args, traced: bool) -> Result<PassOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--pass", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass process failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with(PASS_PREFIX))
        .ok_or("pass process printed no result")?;
    PassOut::from_line(line)
}

/// Outcome of the checks across a run's passes.
struct Checks {
    tally: Tally,
    correct: bool,
    notes: Vec<String>,
}

impl Checks {
    /// Adds a pass's own failures, then compares each output with the
    /// recorded reference and with the run's first pass. A mismatch fails
    /// that output's operation.
    fn pass(&mut self, workload: &str, seed: u64, p: &PassOut, first: Option<&PassOut>) {
        self.tally.merge(p.tally);
        self.correct &= p.tally.failed == 0;
        self.notes.extend(
            p.notes
                .iter()
                .filter(|n| n.starts_with("ERROR") || n.starts_with("MISMATCH"))
                .cloned(),
        );
        for (name, digest) in &p.outputs {
            let expected = oracle::expected(workload, seed, name);
            let earlier = first.and_then(|f| f.outputs.iter().find(|(n, _)| n == name));
            let agrees = expected.as_ref().is_none_or(|e| e == digest)
                && earlier.is_none_or(|(_, d)| d == digest);
            if !agrees {
                self.correct = false;
                self.tally.fail_counted();
                self.notes.push(format!(
                    "MISMATCH {name}: digest {digest} (reference {}, first pass {})",
                    expected.as_deref().unwrap_or("none"),
                    earlier.map_or("none", |(_, d)| d.as_str())
                ));
            }
        }
        if first.is_some_and(|f| f.outputs.len() != p.outputs.len()) {
            self.correct = false;
        }
    }

    /// The DESIGN.md §5 shape targets, checked at the default seed.
    fn shape(&mut self, workload: &str, p: &PassOut) {
        let mut got: Vec<&str> = p.challenging.iter().map(String::as_str).collect();
        got.sort_unstable();
        let (want, count): (Vec<&str>, usize) = match workload {
            "apriori-13" => {
                let mut want = oracle::CHALLENGING_ESTABLISHED.to_vec();
                want.sort_unstable();
                (want, 13)
            }
            "newbench-verdict" => (Vec::new(), batch::NEW_BENCHMARKS.len()),
            _ => return,
        };
        let ok = got == want && p.outputs.len() == count;
        self.correct &= ok;
        if !ok {
            self.tally.fail_counted();
        }
        self.notes.push(format!(
            "shape check (DESIGN.md §5): {} — challenging {got:?}, expected {want:?}",
            if ok { "pass" } else { "FAIL" }
        ));
    }
}

fn run_child(args: &Args, traced: bool, host: &Host) -> Result<PassOut, String> {
    match args.workload.as_str() {
        "serve-mixed" => serve::run_pass(args.seed, traced),
        w => Ok(batch::run_pass(
            w == "apriori-13",
            args.seed,
            traced,
            host.threads,
        )),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let neutralised = neutralise_env();
    rlb_obs::init();
    let host = match Host::detect(&args.workload) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("e2ebench: refusing to run: {e}");
            std::process::exit(2);
        }
    };
    if let Some(traced) = args.pass {
        match run_child(&args, traced, &host) {
            Ok(p) => println!("{}", p.to_line()),
            Err(e) => {
                eprintln!("e2ebench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    println!(
        "e2ebench workload={} seed={} seconds={} trace={} host_cores={} RLB_THREADS={} \
         threads_resolved={} commit={} rustc=\"{}\" neutralised={neutralised:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.cores,
        host.threads_raw.as_deref().unwrap_or("unset"),
        host.threads,
        env!("E2EBENCH_COMMIT"),
        env!("E2EBENCH_RUSTC"),
    );
    let mut checks = Checks {
        tally: Tally::default(),
        correct: true,
        notes: Vec::new(),
    };
    let ticks_before = cpu_ticks();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut passes: Vec<PassOut> = Vec::new();
    loop {
        match child(&args, false) {
            Ok(p) => {
                checks.pass(&args.workload, args.seed, &p, passes.first());
                passes.push(p);
            }
            Err(e) => {
                eprintln!("e2ebench: {e}");
                std::process::exit(1);
            }
        }
        if args.trace || (passes.len() >= MIN_PASSES && Instant::now() >= deadline) {
            break;
        }
    }
    let first = &passes[0];
    if args.seed == oracle::DEFAULT_SEED {
        checks.shape(&args.workload, first);
    }
    if !oracle::has_seed(&args.workload, args.seed) {
        checks
            .notes
            .push(format!("no recorded reference for seed {}", args.seed));
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let column = |f: &dyn Fn(&PassOut) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let op_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.op_ms.iter().copied())
        .collect();
    let mut e2e = Report::default();
    for (name, unit) in END_TO_END {
        let v = match name {
            "setup_s" => column(&|p| p.setup_s),
            "wall_s" => column(&|p| p.wall_s),
            "peak_rss_mb" => column(&|p| p.peak_rss_mb),
            "ops_per_s" => column(&|p| p.ops / p.wall_s),
            _ => median(&op_ms).unwrap_or(0.0),
        };
        e2e.add(name, v, unit);
    }

    let mut layers = Report::default();
    if args.trace {
        let traced = match child(&args, true) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("e2ebench: {e}");
                std::process::exit(1);
            }
        };
        checks.pass(&args.workload, args.seed, &traced, Some(first));
        let identical = traced.outputs == first.outputs;
        checks.correct &= identical;
        checks.notes.push(format!(
            "traced pass outputs bit-identical to the untraced pass: {identical}"
        ));
        // Self times plus unattributed time add up to the untraced wall
        // time; for the service's two closed-loop connections, to their
        // summed windows (connection-seconds).
        let covered = if args.workload == "serve-mixed" {
            first.value("connection_windows_s")
        } else {
            first.wall_s
        };
        for (name, unit) in PER_LAYER {
            let v = match name {
                "unattributed_s" => covered - traced.value(LAYERS_TOTAL),
                "obs.trace_overhead" => traced.wall_s / first.wall_s,
                _ => traced.value(name),
            };
            layers.add(name, v, unit);
        }
        for (name, unit) in SERVE_DETAIL {
            layers.add(name, first.value(name), unit);
        }
        for (name, p90) in SERVE_DISTS {
            for (suffix, unit) in [("p50", "us"), ("p90", "us"), ("n", "count")] {
                if suffix != "p90" || p90 {
                    let key = format!("{name}.{suffix}");
                    let v = traced.value(&key);
                    layers.add(key, v, unit);
                }
            }
        }
        checks.notes.push(format!(
            "traced wall {:.4} s vs untraced {:.4} s; layer self times {:.4} s of {:.4} s covered",
            traced.wall_s,
            first.wall_s,
            traced.value(LAYERS_TOTAL),
            covered
        ));
    }
    for note in first
        .notes
        .iter()
        .filter(|n| !n.starts_with("ERROR") && !n.starts_with("MISMATCH"))
    {
        println!("  {note}");
    }
    for note in &checks.notes {
        println!("{note}");
    }
    let digests: Vec<String> = first
        .outputs
        .iter()
        .map(|(n, d)| format!("{n}={d}"))
        .collect();
    println!("output digests: {}", digests.join(" "));
    println!("passes: {} (wall_s each: {walls:?})", passes.len());
    if let (Some((t0, s0)), Some((t1, s1))) = (ticks_before, cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!(
            "host CPU time stolen by other guests during the run: {:.2}%",
            share * 100.0
        );
    }
    println!(
        "attempted {} failed {} failed_ratio {} correct {}",
        checks.tally.attempted,
        checks.tally.failed,
        checks.tally.ratio(),
        checks.correct
    );
    print!("{}", e2e.table());
    print!("{}", layers.table());
    let reported = if args.trace { &layers } else { &e2e };
    println!("{}", reported.result_line(checks.correct, checks.tally));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass_with(outputs: &[(&str, &str)], failed: u64) -> PassOut {
        PassOut {
            outputs: outputs
                .iter()
                .map(|(n, d)| (n.to_string(), d.to_string()))
                .collect(),
            tally: Tally {
                attempted: outputs.len() as u64,
                failed,
            },
            ..Default::default()
        }
    }

    fn checks() -> Checks {
        Checks {
            tally: Tally::default(),
            correct: true,
            notes: Vec::new(),
        }
    }

    #[test]
    fn an_output_that_changes_between_passes_fails_its_operation() {
        let mut c = checks();
        let first = pass_with(&[("a", "01"), ("b", "02")], 0);
        c.pass("unrecorded", 0, &first, None);
        assert!(c.correct);
        let second = pass_with(&[("a", "01"), ("b", "ff")], 0);
        c.pass("unrecorded", 0, &second, Some(&first));
        assert!(!c.correct);
        assert_eq!((c.tally.attempted, c.tally.failed), (4, 1));
        assert!(c.notes.iter().any(|n| n.starts_with("MISMATCH b")));
    }

    #[test]
    fn error_responses_count_as_failures() {
        let mut c = checks();
        c.pass("unrecorded", 0, &pass_with(&[("a", "01")], 1), None);
        assert!(!c.correct);
        assert_eq!(c.tally.failed, 1);
    }

    #[test]
    fn a_digest_off_the_recorded_reference_fails() {
        let mut c = checks();
        let recorded = oracle::expected("apriori-13", oracle::DEFAULT_SEED, "Ds1")
            .expect("the default seed has references");
        c.pass("apriori-13", 0, &pass_with(&[("Ds1", &recorded)], 0), None);
        assert!(c.correct);
        c.pass(
            "apriori-13",
            0,
            &pass_with(&[("Ds1", "0000000000000000")], 0),
            None,
        );
        assert!(!c.correct);
        assert_eq!(c.tally.failed, 1);
    }

    #[test]
    fn shape_check_wants_exactly_the_four_challenging_sets() {
        let mut p = pass_with(&[("x", "0"); 13], 0);
        p.challenging = ["Dt1", "Ds4", "Dd4", "Ds6"].map(String::from).to_vec();
        let mut c = checks();
        c.shape("apriori-13", &p);
        assert!(c.correct, "{:?}", c.notes);
        p.challenging.push("Ds3".into());
        c.shape("apriori-13", &p);
        assert!(!c.correct);
    }
}
