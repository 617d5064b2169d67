//! One measured pass, as a child process reports it to the parent.
//!
//! Every pass runs in a fresh process: the program's metrics registry keeps
//! a shard for every thread that ever recorded a metric, so a second pass
//! in the same process would find a larger registry than the first (and the
//! service's `stats` op, which snapshots that registry, slower). Fresh
//! processes make every pass — untraced or traced — start from the same
//! state.

use crate::metrics::Tally;
use rlb_util::json::Value;

/// Prefix of the line that carries a pass result on the child's stdout.
pub const PASS_PREFIX: &str = "PASS ";

#[derive(Debug, Default, Clone, PartialEq)]
pub struct PassOut {
    /// Median input set-up time of the pass's process.
    pub setup_s: f64,
    pub wall_s: f64,
    /// Operations completed: datasets, or requests for the service.
    pub ops: f64,
    /// Latency of the workload's primary operation, per operation.
    pub op_ms: Vec<f64>,
    pub tally: Tally,
    /// Output name → bit-exact digest.
    pub outputs: Vec<(String, String)>,
    /// Datasets no measure marks easy.
    pub challenging: Vec<String>,
    /// Further metrics by name (per-layer in a traced pass).
    pub values: Vec<(String, f64)>,
    pub notes: Vec<String>,
    pub peak_rss_mb: f64,
}

fn nums(xs: &[f64]) -> Value {
    Value::Arr(xs.iter().map(|&x| Value::Num(x)).collect())
}

fn strs(xs: &[String]) -> Value {
    Value::Arr(xs.iter().map(|s| Value::Str(s.clone())).collect())
}

impl PassOut {
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |p| p.1)
    }

    pub fn to_line(&self) -> String {
        let pairs = |xs: &[(String, String)]| {
            Value::Obj(
                xs.iter()
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                    .collect(),
            )
        };
        let v = Value::Obj(vec![
            ("setup_s".into(), Value::Num(self.setup_s)),
            ("wall_s".into(), Value::Num(self.wall_s)),
            ("ops".into(), Value::Num(self.ops)),
            ("op_ms".into(), nums(&self.op_ms)),
            ("attempted".into(), Value::Num(self.tally.attempted as f64)),
            ("failed".into(), Value::Num(self.tally.failed as f64)),
            ("outputs".into(), pairs(&self.outputs)),
            ("challenging".into(), strs(&self.challenging)),
            (
                "values".into(),
                Value::Obj(
                    self.values
                        .iter()
                        .map(|(k, x)| (k.clone(), Value::Num(*x)))
                        .collect(),
                ),
            ),
            ("notes".into(), strs(&self.notes)),
            ("peak_rss_mb".into(), Value::Num(self.peak_rss_mb)),
        ]);
        format!("{PASS_PREFIX}{}", v.to_json_string())
    }

    pub fn from_line(line: &str) -> Result<PassOut, String> {
        let v = Value::parse(line.strip_prefix(PASS_PREFIX).ok_or("not a pass line")?)
            .map_err(|e| e.to_string())?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or(format!("pass lacks {k}"))
        };
        let arr = |k: &str| v.get(k).and_then(Value::as_arr).unwrap_or(&[]);
        let obj = |k: &str| match v.get(k) {
            Some(Value::Obj(fields)) => fields.as_slice(),
            _ => &[],
        };
        let text = |x: &Value| x.as_str().unwrap_or_default().to_string();
        Ok(PassOut {
            setup_s: num("setup_s")?,
            wall_s: num("wall_s")?,
            ops: num("ops")?,
            op_ms: arr("op_ms").iter().filter_map(Value::as_f64).collect(),
            tally: Tally {
                attempted: num("attempted")? as u64,
                failed: num("failed")? as u64,
            },
            outputs: obj("outputs")
                .iter()
                .map(|(k, x)| (k.clone(), text(x)))
                .collect(),
            challenging: arr("challenging").iter().map(text).collect(),
            values: obj("values")
                .iter()
                .map(|(k, x)| (k.clone(), x.as_f64().unwrap_or(0.0)))
                .collect(),
            notes: arr("notes").iter().map(text).collect(),
            peak_rss_mb: num("peak_rss_mb")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_line_round_trips_bit_exact() {
        let p = PassOut {
            setup_s: 0.1 + 0.2,
            wall_s: 9.458715777,
            ops: 13.0,
            op_ms: vec![1.5, 2.25e-7],
            tally: Tally {
                attempted: 13,
                failed: 1,
            },
            outputs: vec![("Ds1".into(), "cbf29ce484222325".into())],
            challenging: vec!["Ds4".into()],
            values: vec![("views.build_s".into(), 0.180188301)],
            notes: vec!["a \"quoted\" note".into()],
            peak_rss_mb: 271.65625,
        };
        let back = PassOut::from_line(&p.to_line()).unwrap();
        assert_eq!(back, p);
        assert!(PassOut::from_line("garbage").is_err());
    }
}
