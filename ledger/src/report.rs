//! Metric tables and the result line.
//!
//! `END_TO_END` and [`per_layer_metrics`] are the single source of the
//! metric names and units; `BENCHMARK.json` lists the same names (a test
//! pins the two together).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them in an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("eval_p1_us", "us"),
    ("eval_p2_us", "us"),
    ("hit_p50_us", "us"),
    ("hit_p75_us", "us"),
    ("capacity_rps", "1/s"),
    ("compile_p50_us", "us"),
    ("depth_mean", "count"),
    ("cx_mean", "count"),
    ("approx_ratio", "ratio"),
    ("arg_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Timed layers, named by crate. Each reports `<layer>.p50_us`,
/// `<layer>.share_permille` and `<layer>.count`.
pub const LAYERS: &[&str] = &[
    "qcompile.mapping",
    "qcompile.ordering",
    "qcompile.routing",
    "qcompile.lowering",
    "qcompile.bind",
    "qsim.simulate",
    "qsim.sample",
    "qsim.noise",
    "qaoa.score",
    "qaoa.optimizer.self",
    "qserve.fingerprint",
    "qserve.submit_hit",
    "qserve.submit_miss",
    "qserve.wait",
    "qserve.queue_wait",
    "qserve.compile",
];

/// Per-layer counts and checks beyond the timed layers: `(name, unit)`.
pub const LAYER_EXTRAS: &[(&str, &str)] = &[
    ("qcompile.routing.swaps_added", "count"),
    ("qsim.simulate.gates_per_eval", "count"),
    ("qserve.queue_depth.max", "count"),
    ("qserve.hits", "count"),
    ("qserve.misses", "count"),
    ("qserve.evictions", "count"),
    ("qserve.shed", "count"),
    ("qserve.rejected", "count"),
    ("qserve.reaped", "count"),
    ("qserve.invalidated", "count"),
    ("qserve.hit_permille", "permille"),
    ("bench.generator.lag_us_p99", "us"),
    ("miss_p50_us", "us"),
    ("miss_p75_us", "us"),
    ("tail.eval_p99_us", "us"),
    ("tail.hit_p99_us", "us"),
    ("tail.miss_p99_us", "us"),
    ("bench.busy_s", "s"),
    ("bench.coverage_permille", "permille"),
    ("failed_ratio", "ratio"),
    ("ops_per_s", "1/s"),
    ("traced.eval_p2_us", "us"),
    ("traced.hit_p50_us", "us"),
    ("traced.capacity_rps", "1/s"),
];

/// Every per-layer metric `(name, unit)` a traced run reports.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in LAYERS {
        out.push((format!("{layer}.p50_us"), "us"));
        out.push((format!("{layer}.share_permille"), "permille"));
        out.push((format!("{layer}.count"), "count"));
    }
    out.extend(LAYER_EXTRAS.iter().map(|&(n, u)| (n.to_owned(), u)));
    out
}

/// One workload run's result.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted (evaluations, requests, checks).
    pub attempted: u64,
    /// Failed checks and failed, rejected, shed or reaped operations.
    pub failures: Vec<String>,
    /// Operations that failed without a check message (service-side).
    pub failed_ops: u64,
    /// Metric values with their sample counts, by name.
    pub metrics: BTreeMap<String, (f64, usize)>,
    /// Provenance facts (thread counts, sizes), rendered verbatim.
    pub facts: BTreeMap<&'static str, String>,
}

impl RunResult {
    /// Sets metric `name` to `value`, computed from `samples` samples.
    pub fn metric(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics.insert(name.to_owned(), (value, samples));
    }

    /// Records a provenance fact.
    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.insert(name, value.to_string());
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Failed operations in total.
    pub fn failed(&self) -> u64 {
        self.failed_ops + self.failures.len() as u64
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed() == 0
    }
}

/// Quotes `s` as a JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite number as JSON (non-finite values become `null`,
/// which the result check rejects).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding `names` in order.
///
/// # Errors
///
/// Names a metric that the run did not produce or produced as a
/// non-finite number.
pub fn result_line(result: &RunResult, names: &[(String, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let &(value, _) = result
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not produced"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_number(value),
            json_string(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.attempted.max(1),
        result.failed(),
        metrics.join(", ")
    ))
}

/// The provenance line printed before the result: host facts, run
/// facts, per-metric sample counts and the first failures.
pub fn provenance_line(result: &RunResult, host: &[(&'static str, String)]) -> String {
    let mut fields: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    fields.extend(
        result
            .facts
            .iter()
            .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v))),
    );
    let samples: Vec<String> = result
        .metrics
        .iter()
        .map(|(k, (_, n))| format!("{}: {n}", json_string(k)))
        .collect();
    fields.push(format!("\"samples\": {{{}}}", samples.join(", ")));
    let failures: Vec<String> = result
        .failures
        .iter()
        .take(20)
        .map(|f| json_string(f))
        .collect();
    fields.push(format!("\"failures\": [{}]", failures.join(", ")));
    format!("{{\"ledger\": {{{}}}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer_metrics().into_iter().map(|(n, _)| n));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
        for name in &names {
            assert!(name.len() <= 64, "{name} too long");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(per_layer_metrics().len() <= 128);
    }

    #[test]
    fn result_line_refuses_missing_and_non_finite_metrics() {
        let mut r = RunResult::default();
        let names = vec![("a".to_owned(), "s")];
        assert!(result_line(&r, &names).is_err());
        r.metric("a", f64::NAN, 1);
        assert!(result_line(&r, &names).is_err());
        r.metric("a", 1.25, 1);
        r.attempted = 3;
        assert_eq!(
            result_line(&r, &names).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
