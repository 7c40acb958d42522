//! The metric catalogue, the correctness gate, and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single source of every metric
//! name, unit, direction and bound; a test pins them to `BENCHMARK.json`.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Stable name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median by which an end-to-end metric may get
    /// worse before a change counts as a regression (`None` per layer).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
    }
}

/// What a user of the system sees, measured with tracing off. Every
/// workload reports every one of these (see the README for what a row and
/// an operation are on each workload).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("rows_per_s", "rows/s", true, 0.25),
    e2e("flit_hops_per_s", "hops/s", true, 0.25),
    e2e("latency_ms", "ms", false, 0.25),
    e2e("peak_heap_mb", "MB", false, 0.20),
];

/// Single-layer numbers from the traced run. A layer a workload does not
/// exercise reports 0 there.
pub const PER_LAYER: &[Metric] = &[
    layer("sim.ticks", "count", false),
    layer("sim.idle_ticks", "count", false),
    layer("sim.deadlock_tick_share", "ratio", false),
    layer("sim.flit_hops", "count", true),
    layer("sim.cycles", "count", false),
    layer("sim.busy_s", "s", false),
    layer("sim.ns_per_tick", "ns", false),
    layer("sim.step_s", "s", false),
    layer("sim.source_s", "s", false),
    layer("campaign.worker_util", "ratio", true),
    layer("campaign.collect_s", "s", false),
    layer("campaign.row_ms_p50", "ms", false),
    layer("campaign.row_ms_tail", "ms", false),
    layer("campaign.shrink_s", "s", false),
    layer("campaign.shrink_share", "ratio", false),
    layer("obs.attribution_share", "ratio", false),
    layer("scenario.decode_us_p50", "us", false),
    layer("scenario.encode_us_p50", "us", false),
    layer("serve.queue_ms_p50", "ms", false),
    layer("serve.queue_ms_tail", "ms", false),
    layer("serve.run_ms_p50", "ms", false),
    layer("serve.run_ms_tail", "ms", false),
    layer("serve.cache_us_p50", "us", false),
    layer("serve.serialize_us_p50", "us", false),
    layer("serve.hit_ratio", "ratio", true),
    layer("serve.hit_p50_ms", "ms", false),
    layer("serve.hit_tail_ms", "ms", false),
    layer("serve.miss_tail_ms", "ms", false),
    layer("serve.slo_met_frac", "ratio", true),
    layer("reconfig.epochs", "count", true),
    layer("tournament.cells_ok", "count", true),
    layer("tournament.witnesses", "count", true),
    layer("loadgen.late_tail_ms", "ms", false),
    layer("trace_overhead", "ratio", false),
    layer("host.slowdown", "ratio", false),
];

/// Looks a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The correctness gate: every operation and every invariant check is one
/// attempt, and each failure is counted and described. A run with any
/// failure exits nonzero.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    /// Counts `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one operation that failed.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(what.into());
    }

    /// Counts one check; a false `cond` is a failure described by `what`.
    pub fn check(&mut self, cond: bool, what: impl FnOnce() -> String) {
        if cond {
            self.ok(1);
        } else {
            self.fail(what());
        }
    }

    /// Operations and checks attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations and checks that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `failed / attempted` (0 before anything was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// What failed, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Everything one workload run produced: the gate plus every metric it
/// measured, keyed by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness accounting.
    pub gate: Gate,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric; the name must be declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(find(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }

    /// The result line: `correct`, `attempted`, `failed`, and the metrics
    /// of `table` (every one of them; an unmeasured metric is reported 0).
    pub fn json_line(&self, table: &[Metric]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|m| {
                let v = self.values.get(m.name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(v),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.gate.failed() == 0,
            self.gate.attempted(),
            self.gate.failed(),
            metrics.join(",")
        )
    }
}

/// A finite float as a JSON number with all its digits (Rust's shortest
/// round-trip form, which for whole numbers has no fraction part).
fn json_number(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::Value;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        let map = v.as_map().expect("an object");
        &map.iter().find(|(k, _)| k == key).expect(key).1
    }

    #[test]
    fn every_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w), "bad workload name {w}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = declared();
        let check = |key: &str, table: &[Metric]| {
            let listed = field(&doc, key).as_seq().expect("a list");
            assert_eq!(listed.len(), table.len(), "{key} count");
            for (entry, m) in listed.iter().zip(table) {
                assert_eq!(field(entry, "name").as_str(), Some(m.name));
                assert_eq!(field(entry, "unit").as_str(), Some(m.unit));
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(field(entry, "better").as_str(), Some(better), "{}", m.name);
                if let Some(b) = m.bound {
                    assert_eq!(field(entry, "bound").as_f64(), Some(b), "{}", m.name);
                }
            }
        };
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        let workloads: Vec<&str> = field(&doc, "workloads")
            .as_seq()
            .expect("a list")
            .iter()
            .map(|w| field(w, "name").as_str().expect("a name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn the_result_line_emits_exactly_the_declared_names() {
        let out = Outcome::default();
        for (table, trace) in [(END_TO_END, false), (PER_LAYER, true)] {
            let line = out.json_line(table);
            let v: Value = serde_json::from_str(&line).expect("result line is JSON");
            let names: Vec<&str> = field(&v, "metrics")
                .as_map()
                .expect("metrics object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let want: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "trace={trace}");
            for (_, entry) in field(&v, "metrics").as_map().unwrap() {
                assert!(field(entry, "value").as_f64().is_some());
            }
        }
    }

    #[test]
    fn a_failed_check_raises_the_error_rate() {
        let mut g = Gate::default();
        g.ok(99);
        assert_eq!(g.error_rate(), 0.0);
        g.check(false, || "forced".into());
        assert_eq!(g.failed(), 1);
        assert!((g.error_rate() - 0.01).abs() < 1e-12);
        let out = Outcome {
            gate: g,
            ..Outcome::default()
        };
        assert!(out.json_line(END_TO_END).starts_with("{\"correct\":false,"));
    }
}
