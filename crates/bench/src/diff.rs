//! `rlb-metrics-diff`: the metrics regression gate.
//!
//! Compares two metrics artifacts — `RUN_METRICS.json` (`rlb-obs-v2`) or
//! `BENCH_*.json` (`rlb-bench-v2`) — leaf by numeric leaf under explicit
//! per-path relative tolerances, and emits a machine-readable verdict. CI
//! runs it against committed baselines so a perf or counter regression
//! fails the build with the exact offending path, not a vague "smoke looks
//! slower".
//!
//! Comparison model:
//!
//! - both artifacts are flattened to `(dot-path, number)` pairs via
//!   [`rlb_util::json::Value::flatten_numbers`];
//! - only paths matched by a tolerance rule are compared — a gate states
//!   exactly what it guards, everything else (wall-clock noise, host
//!   dependent thread counts) is ignored by default;
//! - a rule is `pattern=tolerance`: the pattern is a literal path or a
//!   prefix glob (trailing `*`), the tolerance a relative bound
//!   (`0.05` = ±5%), optionally `+`-prefixed for one-sided gating (only
//!   *increases* beyond the bound fail — the right shape for latencies,
//!   where getting faster is not a regression);
//! - the most specific (longest-pattern) matching rule wins per path, so
//!   `--tol 'counters.*=0' --tol counters.par.workers=0.5` pins every
//!   counter exactly while letting a host-dependent one float;
//! - a rule-matched path present in the baseline but missing from the
//!   current artifact is a failure (a silently vanished metric is how a
//!   gate rots); paths only in the current artifact are reported as
//!   `added` but do not fail;
//! - mismatched `fingerprint` fields fail outright — comparing artifacts
//!   across schema versions produces nonsense, not a verdict.
//!
//! Exit codes (see the `rlb-metrics-diff` binary): 0 pass, 1 gate failure,
//! 2 usage/IO error.

use rlb_util::json::Value;

/// Fingerprint of the verdict document itself.
pub const DIFF_FINGERPRINT: &str = "rlb-diff-v1";

/// One `pattern=tolerance` gate rule.
#[derive(Debug, Clone, PartialEq)]
pub struct TolRule {
    /// Literal path or prefix glob (trailing `*`).
    pub pattern: String,
    /// Relative tolerance (`0.0` = exact, `0.05` = ±5%).
    pub rel: f64,
    /// When true, only increases beyond `rel` fail.
    pub one_sided: bool,
}

impl TolRule {
    fn matches(&self, path: &str) -> bool {
        match self.pattern.strip_suffix('*') {
            Some(prefix) => path.starts_with(prefix),
            None => path == self.pattern,
        }
    }
}

/// Parses `pattern=tolerance` (tolerance optionally `+`-prefixed).
pub fn parse_rule(raw: &str) -> Result<TolRule, String> {
    let (pattern, tol) = raw
        .rsplit_once('=')
        .ok_or_else(|| format!("rule {raw:?} is not pattern=tolerance"))?;
    if pattern.is_empty() {
        return Err(format!("rule {raw:?} has an empty pattern"));
    }
    let (one_sided, tol) = match tol.strip_prefix('+') {
        Some(rest) => (true, rest),
        None => (false, tol),
    };
    let rel: f64 = tol
        .parse()
        .map_err(|_| format!("rule {raw:?} has a non-numeric tolerance {tol:?}"))?;
    if !rel.is_finite() || rel < 0.0 {
        return Err(format!("rule {raw:?} needs a finite tolerance >= 0"));
    }
    Ok(TolRule {
        pattern: pattern.to_string(),
        rel,
        one_sided,
    })
}

/// The outcome of one gate run: the verdict document plus the flag CI
/// branches on.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Machine-readable verdict (print with `to_json_string_pretty`).
    pub verdict: Value,
    /// True when every compared path is within tolerance and nothing
    /// guarded went missing.
    pub pass: bool,
}

/// Longest-pattern matching rule for `path`, if any.
fn rule_for<'r>(rules: &'r [TolRule], path: &str) -> Option<&'r TolRule> {
    rules
        .iter()
        .filter(|r| r.matches(path))
        .max_by_key(|r| r.pattern.len())
}

/// Signed relative change from `base` to `cur` (infinite when a zero
/// baseline moves — any growth from zero overshoots every finite bound).
fn rel_change(base: f64, cur: f64) -> f64 {
    if base == cur {
        0.0
    } else if base == 0.0 {
        f64::INFINITY * (cur - base).signum()
    } else {
        (cur - base) / base.abs()
    }
}

/// Runs the gate. `rules` come from `--tol`/`--default-tol`; with no rules
/// every path is ignored and the gate trivially passes (CI must say what it
/// guards).
pub fn diff_artifacts(baseline: &Value, current: &Value, rules: &[TolRule]) -> DiffReport {
    let base_fp = baseline.get("fingerprint").and_then(Value::as_str);
    let cur_fp = current.get("fingerprint").and_then(Value::as_str);
    let fingerprint_ok = base_fp == cur_fp && base_fp.is_some();

    let base_leaves = baseline.flatten_numbers();
    let cur_leaves = current.flatten_numbers();
    let cur_by_path: std::collections::HashMap<&str, f64> =
        cur_leaves.iter().map(|(p, n)| (p.as_str(), *n)).collect();
    let base_paths: std::collections::HashSet<&str> =
        base_leaves.iter().map(|(p, _)| p.as_str()).collect();

    let mut compared = 0u64;
    let mut violations = Vec::new();
    let mut missing = Vec::new();
    for (path, base) in &base_leaves {
        let Some(rule) = rule_for(rules, path) else {
            continue;
        };
        let Some(cur) = cur_by_path.get(path.as_str()).copied() else {
            missing.push(Value::Str(path.clone()));
            continue;
        };
        compared += 1;
        let change = rel_change(*base, cur);
        let out_of_bounds = if rule.one_sided {
            change > rule.rel
        } else {
            change.abs() > rule.rel
        };
        if out_of_bounds {
            violations.push(Value::Obj(vec![
                ("path".into(), Value::Str(path.clone())),
                ("baseline".into(), Value::Num(*base)),
                ("current".into(), Value::Num(cur)),
                (
                    "rel_change".into(),
                    if change.is_finite() {
                        Value::Num(change)
                    } else {
                        Value::Str(format!("{change}"))
                    },
                ),
                ("tol".into(), Value::Num(rule.rel)),
                ("one_sided".into(), Value::Bool(rule.one_sided)),
            ]));
        }
    }
    let added: Vec<Value> = cur_leaves
        .iter()
        .filter(|(p, _)| rule_for(rules, p).is_some() && !base_paths.contains(p.as_str()))
        .map(|(p, _)| Value::Str(p.clone()))
        .collect();

    let pass = fingerprint_ok && violations.is_empty() && missing.is_empty();
    let verdict = Value::Obj(vec![
        ("fingerprint".into(), Value::Str(DIFF_FINGERPRINT.into())),
        ("pass".into(), Value::Bool(pass)),
        (
            "artifact_fingerprints".into(),
            Value::Obj(vec![
                (
                    "baseline".into(),
                    base_fp.map_or(Value::Null, |s| Value::Str(s.into())),
                ),
                (
                    "current".into(),
                    cur_fp.map_or(Value::Null, |s| Value::Str(s.into())),
                ),
                ("matching".into(), Value::Bool(fingerprint_ok)),
            ]),
        ),
        ("compared".into(), Value::Num(compared as f64)),
        ("violations".into(), Value::Arr(violations)),
        ("missing".into(), Value::Arr(missing)),
        ("added".into(), Value::Arr(added)),
    ]);
    DiffReport { verdict, pass }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn art(fp: &str, body: &str) -> Value {
        Value::parse(&format!(r#"{{"fingerprint":"{fp}",{body}}}"#)).unwrap()
    }

    fn rules(specs: &[&str]) -> Vec<TolRule> {
        specs.iter().map(|s| parse_rule(s).unwrap()).collect()
    }

    #[test]
    fn rule_parsing_accepts_globs_sides_and_rejects_junk() {
        let r = parse_rule("counters.*=0").unwrap();
        assert_eq!(r.pattern, "counters.*");
        assert_eq!(r.rel, 0.0);
        assert!(!r.one_sided);
        let r = parse_rule("wall_ms=+0.5").unwrap();
        assert!(r.one_sided);
        assert_eq!(r.rel, 0.5);
        assert!(parse_rule("no-separator").is_err());
        assert!(parse_rule("=0.1").is_err());
        assert!(parse_rule("x=abc").is_err());
        assert!(parse_rule("x=-0.1").is_err());
        assert!(parse_rule("x=inf").is_err());
    }

    #[test]
    fn identical_artifacts_pass_and_count_compared_paths() {
        let a = art("rlb-obs-v2", r#""counters":{"a":3,"b":4},"wall_ms":10"#);
        let report = diff_artifacts(&a, &a, &rules(&["counters.*=0", "wall_ms=+0.5"]));
        assert!(report.pass, "{:?}", report.verdict);
        assert_eq!(
            report.verdict.get("compared").and_then(Value::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn out_of_tolerance_paths_fail_with_the_offending_path() {
        let base = art("rlb-obs-v2", r#""counters":{"pairs":100},"wall_ms":10"#);
        let cur = art("rlb-obs-v2", r#""counters":{"pairs":130},"wall_ms":10"#);
        let report = diff_artifacts(&base, &cur, &rules(&["counters.*=0.1"]));
        assert!(!report.pass);
        let v = report
            .verdict
            .get("violations")
            .and_then(Value::as_arr)
            .unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(
            v[0].get("path").and_then(Value::as_str),
            Some("counters.pairs")
        );
        assert_eq!(v[0].get("rel_change").and_then(Value::as_f64), Some(0.3));
        // Within ±10% passes.
        let near = art("rlb-obs-v2", r#""counters":{"pairs":105},"wall_ms":10"#);
        assert!(diff_artifacts(&base, &near, &rules(&["counters.*=0.1"])).pass);
    }

    #[test]
    fn one_sided_rules_let_improvements_through() {
        let base = art("rlb-bench-v1", r#""lat_us":100"#);
        let faster = art("rlb-bench-v1", r#""lat_us":40"#);
        let slower = art("rlb-bench-v1", r#""lat_us":160"#);
        let r = rules(&["lat_us=+0.5"]);
        assert!(diff_artifacts(&base, &faster, &r).pass, "faster is fine");
        assert!(!diff_artifacts(&base, &slower, &r).pass, "slower fails");
        // Two-sided at the same bound fails the improvement too.
        assert!(!diff_artifacts(&base, &faster, &rules(&["lat_us=0.5"])).pass);
    }

    #[test]
    fn most_specific_rule_wins() {
        let base = art("rlb-obs-v2", r#""counters":{"exact":10,"loose":10}"#);
        let cur = art("rlb-obs-v2", r#""counters":{"exact":10,"loose":14}"#);
        let r = rules(&["counters.*=0", "counters.loose=0.5"]);
        assert!(diff_artifacts(&base, &cur, &r).pass, "loose rule overrides");
        let drifted = art("rlb-obs-v2", r#""counters":{"exact":11,"loose":10}"#);
        assert!(
            !diff_artifacts(&base, &drifted, &r).pass,
            "exact rule holds"
        );
    }

    #[test]
    fn missing_guarded_paths_fail_and_added_paths_do_not() {
        let base = art("rlb-obs-v2", r#""counters":{"a":1}"#);
        let cur = art("rlb-obs-v2", r#""counters":{"b":1}"#);
        let report = diff_artifacts(&base, &cur, &rules(&["counters.*=0"]));
        assert!(!report.pass);
        let missing = report
            .verdict
            .get("missing")
            .and_then(Value::as_arr)
            .unwrap();
        assert_eq!(missing, &[Value::Str("counters.a".into())]);
        let added = report.verdict.get("added").and_then(Value::as_arr).unwrap();
        assert_eq!(added, &[Value::Str("counters.b".into())]);
        // Added alone (superset current) passes.
        let superset = art("rlb-obs-v2", r#""counters":{"a":1,"b":1}"#);
        assert!(diff_artifacts(&base, &superset, &rules(&["counters.*=0"])).pass);
    }

    #[test]
    fn fingerprint_mismatch_fails_whatever_the_numbers_say() {
        let base = art("rlb-obs-v1", r#""counters":{"a":1}"#);
        let cur = art("rlb-obs-v2", r#""counters":{"a":1}"#);
        let report = diff_artifacts(&base, &cur, &rules(&["counters.*=0"]));
        assert!(!report.pass);
        assert_eq!(
            report
                .verdict
                .get_path("artifact_fingerprints.matching")
                .and_then(Value::as_bool),
            Some(false)
        );
    }

    #[test]
    fn zero_baseline_growth_is_always_a_violation_and_serializes() {
        let base = art("rlb-obs-v2", r#""counters":{"dropped":0}"#);
        let cur = art("rlb-obs-v2", r#""counters":{"dropped":7}"#);
        let report = diff_artifacts(&base, &cur, &rules(&["counters.*=10.0"]));
        assert!(!report.pass, "0 -> 7 exceeds any finite tolerance");
        // The infinite rel_change must still serialize to valid JSON.
        let text = report.verdict.to_json_string_pretty();
        let reparsed = Value::parse(&text).expect("verdict round-trips");
        assert_eq!(reparsed, report.verdict);
    }
}
