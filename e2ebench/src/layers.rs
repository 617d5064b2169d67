//! Per-layer accounting for the traced run.
//!
//! The benchmark times its own calls into each crate's public functions;
//! nothing inside the program changes. Where a public function runs
//! several layers itself (`assess_with`, `run_roster`, the service), the
//! spans that program already records (`rlb_obs`) split it further. The
//! untraced run makes the same calls with every timer here switched off.

use rlb_obs::SpanRecord;
use std::time::Instant;

/// Seconds and counts per layer name, in first-seen order.
#[derive(Debug, Default)]
pub struct Layers {
    on: bool,
    secs: Vec<(&'static str, f64)>,
    counts: Vec<(&'static str, f64)>,
}

fn bump(list: &mut Vec<(&'static str, f64)>, name: &'static str, x: f64) {
    match list.iter_mut().find(|(n, _)| *n == name) {
        Some((_, v)) => *v += x,
        None => list.push((name, x)),
    }
}

impl Layers {
    pub fn new(on: bool) -> Self {
        Layers {
            on,
            ..Default::default()
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, charging its wall time to `name` when tracing.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        bump(&mut self.secs, name, t.elapsed().as_secs_f64());
        out
    }

    pub fn add_secs(&mut self, name: &'static str, secs: f64) {
        if self.on {
            bump(&mut self.secs, name, secs);
        }
    }

    pub fn count(&mut self, name: &'static str, x: f64) {
        if self.on {
            bump(&mut self.counts, name, x);
        }
    }

    pub fn secs(&self, name: &str) -> f64 {
        self.secs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |p| p.1)
    }

    pub fn count_of(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |p| p.1)
    }

    /// Sum of every timed layer: the layers' self times, since the timed
    /// calls never nest.
    pub fn total_secs(&self) -> f64 {
        self.secs.iter().map(|p| p.1).sum()
    }
}

/// Summed duration of the program's finished spans called `name`, seconds.
pub fn span_secs(spans: &[SpanRecord], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us as f64 / 1e6)
        .sum()
}
