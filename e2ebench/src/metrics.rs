//! The benchmark's own arithmetic: medians and tail percentiles under the
//! ten-samples-beyond rule, failure accounting, output digests, and the
//! ordered metric report the run prints.

use std::fmt::Write as _;

/// Median of `xs` (mean of the middle two for an even count); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `q` (0 < q < 1): the smallest sample with at
/// least `q·n` samples at or below it.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples that lie strictly after the nearest-rank position of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the value is set by a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank percentile `q`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(xs: &[f64], q: f64) -> Option<f64> {
    if beyond(xs.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(nearest_rank(&v, q))
}

/// Operations attempted and failed. A failure is an error response, a
/// connection error, a timeout, or an output that disagrees with its
/// reference.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Marks an already-counted operation as failed (an output found wrong
    /// after the fact).
    pub fn fail_counted(&mut self) {
        self.failed = (self.failed + 1).min(self.attempted);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// 64-bit FNV-1a over a canonical byte stream. Floats enter by their bit
/// pattern, so two digests agree only when every value is bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// A string with a terminator, so `("ab","c")` and `("a","bc")` differ.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.bytes(&x.to_bits().to_le_bytes())
    }

    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.bytes(&[u8::from(b)])
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were added.
#[derive(Debug, Default, Clone)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Median and p90 of `samples` under `name.p50` / `name.p90`, with the
    /// sample count beside them as `name.n`. An unreportable p90 (fewer
    /// than [`MIN_BEYOND`] samples beyond it) is written as 0; the count
    /// shows why.
    pub fn add_dist(&mut self, name: &str, samples: &[f64], unit: &'static str, with_p90: bool) {
        self.add(format!("{name}.p50"), median(samples).unwrap_or(0.0), unit);
        if with_p90 {
            self.add(
                format!("{name}.p90"),
                tail(samples, 0.9).unwrap_or(0.0),
                unit,
            );
        }
        self.add(format!("{name}.n"), samples.len() as f64, "count");
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// One `name value unit` line per metric, for people reading the log.
    pub fn table(&self) -> String {
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "  {:width$}  {} {}", m.name, fmt_num(m.value), m.unit);
        }
        out
    }

    /// The machine-readable result line.
    pub fn result_line(&self, correct: bool, tally: Tally) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.attempted, tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Every digit Rust's shortest round-trip formatting gives; non-finite
/// values (never expected) become 0 so the line stays valid JSON.
pub fn fmt_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(tail(&xs, 0.9), None, "9 beyond is too few");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 0.9), 10);
        // Nearest rank: the 90th of 100 sorted samples.
        assert_eq!(tail(&xs, 0.9), Some(90.0));
        let mut shuffled = xs.clone();
        shuffled.reverse();
        assert_eq!(tail(&shuffled, 0.9), Some(90.0), "order-independent");
        assert_eq!(beyond(0, 0.9), 0);
    }

    #[test]
    fn dist_reports_zero_for_an_unreportable_tail_and_prints_the_count() {
        let mut r = Report::default();
        r.add_dist("x_ms", &[1.0, 2.0, 3.0], "ms", true);
        assert_eq!(r.get("x_ms.p50"), Some(2.0));
        assert_eq!(r.get("x_ms.p90"), Some(0.0));
        assert_eq!(r.get("x_ms.n"), Some(3.0));
    }

    #[test]
    fn tally_counts_failures_and_never_exceeds_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.ratio(), 0.0);
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.ratio(), 0.25);
        t.fail_counted();
        assert_eq!(t.failed, 2);
        let mut one = Tally::default();
        one.record(true);
        one.fail_counted();
        one.fail_counted();
        assert_eq!(one.failed, 1, "a wrong output fails its operation once");
        t.merge(one);
        assert_eq!((t.attempted, t.failed), (5, 3));
    }

    #[test]
    fn digest_is_bit_exact_and_framed() {
        let d = |f: &dyn Fn(&mut Digest)| {
            let mut d = Digest::default();
            f(&mut d);
            d.hex()
        };
        // FNV-1a 64 of the empty input is its offset basis.
        assert_eq!(d(&|_| {}), "cbf29ce484222325");
        // Known vector: FNV-1a 64("a").
        assert_eq!(
            d(&|x| {
                x.bytes(b"a");
            }),
            "af63dc4c8601ec8c"
        );
        assert_ne!(
            d(&|x| {
                x.f64(0.0);
            }),
            d(&|x| {
                x.f64(-0.0);
            })
        );
        assert_ne!(
            d(&|x| {
                x.str("ab").str("c");
            }),
            d(&|x| {
                x.str("a").str("bc");
            })
        );
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut r = Report::default();
        r.add("wall_s", 1.25, "s");
        r.add("n", 3.0, "count");
        let line = r.result_line(
            true,
            Tally {
                attempted: 2,
                failed: 0,
            },
        );
        let v = rlb_util::json::Value::parse(&line).expect("valid JSON");
        assert_eq!(
            v.get_path("metrics.wall_s.value").and_then(|x| x.as_f64()),
            Some(1.25)
        );
        assert_eq!(
            v.get_path("metrics.n.unit").and_then(|x| x.as_str()),
            Some("count")
        );
        assert_eq!(v.get("attempted").and_then(|x| x.as_f64()), Some(2.0));
    }
}
