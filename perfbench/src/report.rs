//! The result line: operation counts, failed checks and metrics, rendered
//! as one JSON object and checked against `BENCHMARK.json`.

use std::collections::BTreeSet;

use crate::json::{self, Value};

/// The per-layer metrics and their units, as `BENCHMARK.json` lists them.
/// A traced run prints all of them; a layer its workload does not
/// exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traffic.sample_us", "us"),
    ("policy.mu_evals_per_interval", "count"),
    ("policy.mu_us", "us"),
    ("mac.kernel_us", "us"),
    ("model.settle_us", "us"),
    ("model.metrics_us", "us"),
    ("mac.channel_attempts_per_interval", "count"),
    ("network.glue_us", "us"),
    ("network.step_p90_us", "us"),
    ("network.step_p99_us", "us"),
    ("scenario.build_ms", "ms"),
    ("scenario.first_build_ms", "ms"),
    ("mac.fcsma_s", "s"),
    ("mac.dp_timeline_s", "s"),
    ("mac.centralized_s", "s"),
    ("mac.faulty_s", "s"),
    ("runner.efficiency", "ratio"),
    ("net.transport.broadcast_us", "us"),
    ("net.transport.recv_wait_us", "us"),
    ("net.transport.frames_sent_per_round", "count"),
    ("net.transport.frames_recv_per_round", "count"),
    ("net.node.compute_us", "us"),
    ("net.node.round_p50_us", "us"),
    ("net.node.round_p99_us", "us"),
    ("net.node.deadline_misses", "count"),
    ("trace.overhead_pct", "%"),
];

/// What one run attempted, what failed, and what it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Records one operation; `describe` names it when `ok` is false.
    pub fn record_op(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // Keep the first few descriptions; the count says the rest.
            if self.problems.len() < 20 {
                self.problems.push(describe());
            }
        }
    }

    /// Records a metric.
    pub fn record_metric(&mut self, name: &'static str, value: f64, unit_name: &'static str) {
        self.metrics.push((name, value, unit_name));
    }

    /// Records a per-layer metric under its [`PER_LAYER`] unit.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a bug in the caller).
    pub fn record_layer(&mut self, name: &'static str, value: f64) {
        let listed = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.record_metric(name, value, listed.1);
    }

    /// Records 0 for every per-layer metric not measured yet and returns
    /// their names.
    pub fn zero_unmeasured_layers(&mut self) -> Vec<&'static str> {
        let missing: Vec<&'static str> = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.metrics.iter().any(|(m, _, _)| m == n))
            .collect();
        for name in &missing {
            self.record_layer(name, 0.0);
        }
        missing
    }

    /// The descriptions of the first failed operations.
    #[must_use]
    pub fn problems(&self) -> &[String] {
        &self.problems
    }

    /// The JSON result line.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit_name)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json::json_quote(name),
                    json::json_quote(unit_name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `(name, unit)` pairs `BENCHMARK.json` lists under `section`
/// (`"end_to_end"` or `"per_layer"`).
///
/// # Errors
///
/// Fails when the file or the section is malformed.
pub fn spec_metrics(spec: &str, section: &str) -> Result<Vec<(String, String)>, String> {
    let spec = json::parse_json(spec)?;
    let Some(Value::Arr(items)) = spec.member(section) else {
        return Err(format!("BENCHMARK.json has no {section} list"));
    };
    items
        .iter()
        .map(|m| match (m.member("name"), m.member("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => Ok((n.clone(), u.clone())),
            _ => Err(format!("malformed {section} entry {m:?}")),
        })
        .collect()
}

fn key_set(members: &[(String, Value)]) -> Result<BTreeSet<&str>, String> {
    let mut set = BTreeSet::new();
    for (k, _) in members {
        if !set.insert(k.as_str()) {
            return Err(format!("duplicate key {k:?}"));
        }
    }
    Ok(set)
}

fn whole_number(v: Option<&Value>, what: &str) -> Result<u64, String> {
    match v {
        Some(Value::Num(x, text)) if !text.contains(['.', 'e', 'E', '-']) => text
            .parse()
            .map_err(|_| format!("{what} {x} is not a whole number")),
        other => Err(format!("{what} must be a whole number, got {other:?}")),
    }
}

/// Checks a result line against the contract: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`; whole counts with `attempted ≥ 1`
/// and `failed ≤ attempted`; and, under `metrics`, exactly the metrics of
/// the `end_to_end` (untraced) or `per_layer` (traced) list of
/// `BENCHMARK.json`, each a finite `value` with the listed `unit`.
/// End-to-end values must also be positive.
///
/// # Errors
///
/// Names the first violation.
pub fn validate_result_line(line: &str, spec: &str, trace: bool) -> Result<(), String> {
    let section = if trace { "per_layer" } else { "end_to_end" };
    let wanted = spec_metrics(spec, section)?;
    let Value::Obj(top) = json::parse_json(line)? else {
        return Err("the result is not a JSON object".into());
    };
    let top_keys = key_set(&top)?;
    let expected: BTreeSet<&str> = ["correct", "attempted", "failed", "metrics"].into();
    if top_keys != expected {
        return Err(format!("result keys {top_keys:?}, expected {expected:?}"));
    }
    let result = Value::Obj(top.clone());
    let Some(Value::Bool(correct)) = result.member("correct") else {
        return Err("correct must be a boolean".into());
    };
    let attempted = whole_number(result.member("attempted"), "attempted")?;
    let failed = whole_number(result.member("failed"), "failed")?;
    if attempted == 0 {
        return Err("attempted must be at least 1".into());
    }
    if failed > attempted {
        return Err(format!("failed {failed} exceeds attempted {attempted}"));
    }
    if *correct && failed > 0 {
        return Err(format!("correct is true with {failed} failed operation(s)"));
    }
    let Some(Value::Obj(metrics)) = result.member("metrics") else {
        return Err("metrics must be an object".into());
    };
    let got = key_set(metrics)?;
    let names: BTreeSet<&str> = wanted.iter().map(|(n, _)| n.as_str()).collect();
    if got != names {
        let missing: Vec<_> = names.difference(&got).collect();
        let extra: Vec<_> = got.difference(&names).collect();
        return Err(format!(
            "{section} metrics differ: missing {missing:?}, unexpected {extra:?}"
        ));
    }
    for (name, want_unit) in &wanted {
        let Some(Value::Obj(m)) = metrics.iter().find(|(k, _)| k == name).map(|(_, v)| v) else {
            return Err(format!("metric {name} must be an object"));
        };
        if key_set(m)? != BTreeSet::from(["unit", "value"]) {
            return Err(format!("metric {name} must have exactly value and unit"));
        }
        let m = Value::Obj(m.clone());
        let Some(Value::Num(value, _)) = m.member("value") else {
            return Err(format!("metric {name} has no numeric value"));
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        if !trace && *value <= 0.0 {
            return Err(format!("end-to-end metric {name} is {value}, not positive"));
        }
        if m.member("unit").and_then(Value::as_text) != Some(want_unit.as_str()) {
            return Err(format!("metric {name} must have unit {want_unit}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end": [{"name": "a_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "x.count", "unit": "count", "better": "higher"}]}"#;

    fn sample_result(value: f64) -> Outcome {
        let mut o = Outcome::default();
        o.record_op(true, String::new);
        o.record_metric("a_ms", value, "ms");
        o
    }

    #[test]
    fn rendered_lines_validate() {
        let line = sample_result(1.25).result_line();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a_ms": {"value": 1.25, "unit": "ms"}}}"#
        );
        validate_result_line(&line, SPEC, false).unwrap();
        let mut traced = Outcome::default();
        traced.record_op(true, String::new);
        traced.record_metric("x.count", 0.0, "count");
        validate_result_line(&traced.result_line(), SPEC, true).unwrap();
    }

    #[test]
    fn failures_are_counted_and_flip_correct() {
        let mut o = sample_result(1.0);
        o.record_op(false, || "step 7 collided".into());
        assert_eq!(o.problems(), ["step 7 collided"]);
        let line = o.result_line();
        assert!(line.starts_with(r#"{"correct": false, "attempted": 2, "failed": 1"#));
        validate_result_line(&line, SPEC, false).unwrap();
    }

    #[test]
    fn validator_rejects_contract_violations() {
        let bad = [
            // Wrong mode: per-layer metrics in an untraced line.
            (sample_result(1.0).result_line(), true),
            // A zero end-to-end value.
            (sample_result(0.0).result_line(), false),
            // A non-finite value renders as a bare word.
            (sample_result(f64::NAN).result_line(), false),
            (r#"{"correct": true, "attempted": 0, "failed": 0, "metrics": {"a_ms": {"value": 1, "unit": "ms"}}}"#.into(), false),
            (r#"{"correct": true, "attempted": 2, "failed": 1, "metrics": {"a_ms": {"value": 1, "unit": "ms"}}}"#.into(), false),
            (r#"{"correct": false, "attempted": 1, "failed": 2, "metrics": {"a_ms": {"value": 1, "unit": "ms"}}}"#.into(), false),
            (r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {"a_ms": {"value": 1, "unit": "ms"}}}"#.into(), false),
            (r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a_ms": {"value": 1, "unit": "s"}}}"#.into(), false),
            (r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a_ms": {"value": 1, "unit": "ms", "n": 3}}}"#.into(), false),
            (r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a_ms": {"value": 1, "unit": "ms"}, "b": {"value": 1, "unit": "ms"}}}"#.into(), false),
            (r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}}"#.into(), false),
            (r#"{"correct": true, "attempted": 1, "failed": 0, "extra": 1, "metrics": {"a_ms": {"value": 1, "unit": "ms"}}}"#.into(), false),
            (r#"{"correct": true, "correct": true, "attempted": 1, "failed": 0, "metrics": {"a_ms": {"value": 1, "unit": "ms"}}}"#.into(), false),
        ];
        for (line, trace) in bad {
            assert!(
                validate_result_line(&line, SPEC, trace).is_err(),
                "accepted {line}"
            );
        }
    }

    #[test]
    fn per_layer_table_matches_the_shipped_spec() {
        let spec = spec_metrics(include_str!("../../BENCHMARK.json"), "per_layer").unwrap();
        let table: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(spec, table);
    }

    #[test]
    fn unmeasured_layers_read_zero() {
        let mut o = Outcome::default();
        o.record_op(true, String::new);
        o.record_layer("mac.kernel_us", 4.5);
        let zeroed = o.zero_unmeasured_layers();
        assert_eq!(zeroed.len(), PER_LAYER.len() - 1);
        assert!(!zeroed.contains(&"mac.kernel_us"));
        validate_result_line(&o.result_line(), include_str!("../../BENCHMARK.json"), true).unwrap();
    }
}
