//! Names and units of every metric the benchmark reports, the result of
//! one run, and its two renderings: a table for people and the one-line
//! JSON object the driver reads from the end of standard output.

use std::fmt::Write as _;

use crate::json::quote;
use crate::stats::Summary;

/// The end-to-end metrics, reported by every workload with `--trace 0`.
/// `BENCHMARK.json` lists the same names with their bounds (a unit test
/// keeps the two in step).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_eps", "1/s"),
    ("on_time_share", "1"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spec.update_ns_per_event", "ns"),
    ("spec.speedup", "x"),
    ("plan.derive_ms", "ms"),
    ("plan.workers", "count"),
    ("job.run_overhead_ms", "ms"),
    ("gen.build_ms", "ms"),
    ("mailbox.independent_ns_per_event", "ns"),
    ("mailbox.barrier_ns_per_event", "ns"),
    ("mailbox.buffered_peak", "count"),
    ("worker.pump_ns_per_event", "ns"),
    ("worker.msgs_per_event", "count"),
    ("worker.updates_per_event", "count"),
    ("worker.joins_per_kevent", "count"),
    ("worker.forks_per_kevent", "count"),
    ("edge.mutex_ns_per_msg", "ns"),
    ("edge.ring_ns_per_msg", "ns"),
    ("edge.mutex_xthread_ns_per_msg", "ns"),
    ("edge.ring_xthread_ns_per_msg", "ns"),
    ("edge.xthread_stalls", "count"),
    ("executor.polls", "count"),
    ("executor.msgs_per_poll", "count"),
    ("executor.steals", "count"),
    ("executor.run_queue_max", "count"),
    ("executor.remainder_ns_per_event", "ns"),
    ("executor.remainder_share", "1"),
    ("executor.alt_shards", "count"),
    ("executor.alt_shards_latency_p50_us", "us"),
    ("feeder.stalls", "count"),
    ("feeder.ingress_depth_max", "count"),
    ("feeder.schedule_overrun_ms", "ms"),
    ("feeder.latency_p50_us", "us"),
    ("feeder.latency_p99_us", "us"),
    ("durable.record_us_p50", "us"),
    ("durable.record_us_p99", "us"),
    ("durable.open_ms_per_1k_records", "ms"),
    ("durable.bytes_per_record", "B"),
    ("metrics.overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("host.nproc", "count"),
    ("host.loadavg1", "1"),
    ("host.spin_ms", "ms"),
];

/// Printed for people only, never part of the result line.
const NOTES: &[(&str, &str)] = &[
    ("failed_share", "1"),
    ("host.shards", "count"),
    ("worker.pump_msgs_per_event", "count"),
    ("ledger.total_ns_per_event", "ns"),
    ("ledger.worker_ns_per_event", "ns"),
    ("ledger.edge_ns_per_event", "ns"),
    ("ledger.remainder_ns_per_event", "ns"),
];

fn unit_of(name: &str) -> &'static str {
    [END_TO_END, PER_LAYER, NOTES]
        .iter()
        .flat_map(|table| table.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric {name} has no unit in metrics.rs"))
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The draws behind a median, when the value is one.
    pub summary: Option<Summary>,
    /// False where the metric does not apply to the workload: the result
    /// line still carries the value, the table prints `n/a`.
    pub applicable: bool,
}

impl Metric {
    pub fn new(name: &'static str, value: f64) -> Self {
        Metric {
            name,
            unit: unit_of(name),
            value,
            summary: None,
            applicable: true,
        }
    }

    pub fn not_applicable(mut self) -> Self {
        self.applicable = false;
        self
    }

    /// A metric reported as the median of its draws.
    pub fn summarized(name: &'static str, summary: Summary) -> Self {
        Metric {
            name,
            unit: unit_of(name),
            value: summary.median,
            summary: Some(summary),
            applicable: true,
        }
    }
}

/// What one run of one workload reports.
#[derive(Default)]
pub struct Outcome {
    /// Outputs the specification expects, summed over every draw checked.
    pub attempted: u64,
    /// Outputs missing or surplus, summed over the same draws.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Further readings, for the table only.
    pub notes: Vec<Metric>,
    /// Free text appended to the table (the traced run's span ledger).
    pub text: String,
}

impl Outcome {
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn note(&mut self, m: Metric) {
        self.notes.push(m);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Every metric by name with its unit; medians with min, quartiles, max
    /// and the draw count.
    pub fn table(&self, workload: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {workload}: {} outputs checked, {} failed",
            self.attempted, self.failed
        );
        for m in self.metrics.iter().chain(&self.notes) {
            if !m.applicable {
                let _ = writeln!(out, "  {:<36} {:>16} {:<5}", m.name, "n/a", m.unit);
                continue;
            }
            let _ = write!(out, "  {:<36} {:>16.4} {:<5}", m.name, m.value, m.unit);
            if let Some(s) = &m.summary {
                let _ = write!(
                    out,
                    "  min {:.4}  q1 {:.4}  q3 {:.4}  max {:.4}  n {}",
                    s.min, s.q1, s.q3, s.max, s.n
                );
            }
            out.push('\n');
        }
        out.push_str(&self.text);
        out
    }

    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, every value with all its digits.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    m.value,
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::stats::summarize;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("valid JSON")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_harness_reports() {
        let doc = benchmark_json();
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn benchmark_json_keeps_to_the_contract_limits() {
        let doc = benchmark_json();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        for m in doc.get("end_to_end").and_then(Value::as_array).unwrap() {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
            assert!(matches!(
                m.get("better").and_then(Value::as_str),
                Some("higher" | "lower")
            ));
        }
        for m in doc.get("per_layer").and_then(Value::as_array).unwrap() {
            assert_eq!(
                m.as_object().unwrap().len(),
                3,
                "per-layer metrics have name, unit and better"
            );
        }
        let setup = &doc.get("end_to_end").and_then(Value::as_array).unwrap()[2];
        assert_eq!(setup.get("name").and_then(Value::as_str), Some("setup_s"));
        assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
        for w in doc.get("workloads").and_then(Value::as_array).unwrap() {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
        }
        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_full_digits() {
        let mut out = Outcome {
            attempted: 1800,
            ..Default::default()
        };
        out.push(Metric::summarized(
            "throughput_eps",
            summarize(&[4_012_345.678_9, 3.9e6, 4.1e6]),
        ));
        out.push(Metric::new("setup_s", 0.812_734_5));
        out.note(Metric::new("failed_share", 0.0));
        let doc = parse(&out.result_line()).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), 2, "notes stay out of the result line");
        assert_eq!(
            metrics["throughput_eps"].get("value").unwrap().as_f64(),
            Some(4_012_345.678_9)
        );
        assert_eq!(metrics["setup_s"].get("unit").unwrap().as_str(), Some("s"));
        assert!(!out.result_line().contains('\n'));
        out.failed = 2;
        assert_eq!(
            parse(&out.result_line())
                .unwrap()
                .get("correct")
                .unwrap()
                .as_bool(),
            Some(false)
        );
    }

    #[test]
    fn table_names_every_metric_with_its_unit() {
        let mut out = Outcome::default();
        out.push(Metric::summarized(
            "feeder.latency_p50_us",
            summarize(&[100.0, 120.0, 110.0]),
        ));
        out.note(Metric::new("host.spin_ms", 88.5));
        out.push(Metric::new("feeder.schedule_overrun_ms", 2700.25).not_applicable());
        let table = out.table("vb-sync-paced");
        assert!(
            table.contains("feeder.latency_p50_us")
                && table.contains("us")
                && table.contains("n 3")
        );
        assert!(table.contains("host.spin_ms") && table.contains("ms"));
        assert!(table.contains("n/a") && !table.contains("2700.25"));
        assert!(out.result_line().contains("2700.25"));
    }
}
