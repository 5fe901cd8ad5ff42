//! Metric names, units, and the layer → end-to-end map, plus the result
//! line every run ends with.
//!
//! The end-to-end metrics are the same three names on every workload; each
//! workload defines them for its own kind of operation (see README.md).
//! The per-layer metrics are the same list on every workload too: a traced
//! run reports the layers its workload exercises and 0 for the others.

use std::fmt::Write as _;

/// Short name of each DES-matrix point, in matrix order.
pub const POINTS: [&str; 5] = [
    "baseline-256",
    "accfpga-32",
    "p2p-64",
    "trainbox-64",
    "nopool-256",
];

/// `(name, unit)` of the end-to-end metrics.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("cpu_ms", "ms")];

/// One per-layer metric and the end-to-end metric it should move.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Named end-to-end metric (as printed in the report) it should move.
    pub moves: String,
    /// Workload whose traced run measures it.
    pub workload: &'static str,
}

/// `(name, unit, better)` of the metrics measured at every des-matrix
/// point, as `<name>.<pt>`; each should move `des_s.<pt>`.
const PER_POINT: [&[(&str, &str, &str)]; 3] = [
    &[
        ("sim.events", "count", "lower"),
        ("sim.ns_per_event", "ns", "lower"),
    ],
    &[
        ("pcie.recomputes", "count", "lower"),
        ("pcie.active_flows_mean", "count", "lower"),
        ("pcie.flow_cycle_us", "us", "lower"),
        ("pcie.domain_solves_per_cycle", "count", "lower"),
    ],
    &[("core.build_server_ms", "ms", "lower")],
];

/// `(name, unit, better, should move, workload)` of the other metrics.
#[rustfmt::skip]
const FIXED: [(&str, &str, &str, &str, &str); 18] = [
    ("core.parse_hash_us", "us", "lower", "serve.hit.p99_ms", "serve-mix"),
    ("core.analytic_us", "us", "lower", "serve.p50_ms", "serve-mix"),
    ("core.sweep_expand_us", "us", "lower", "serve.p99_ms", "serve-mix"),
    ("serve.parse_us", "us", "lower", "serve.hit.p99_ms", "serve-mix"),
    ("serve.cache_get_ns", "ns", "lower", "serve.hit.p99_ms", "serve-mix"),
    ("serve.cache_insert_ns", "ns", "lower", "serve.hit.p99_ms", "serve-mix"),
    ("serve.hit_ratio", "ratio", "higher", "serve.p50_ms", "serve-mix"),
    ("serve.compute_ms.des", "ms", "lower", "serve.miss.tail_ms", "serve-mix"),
    ("serve.compute_ms.analytic", "ms", "lower", "serve.miss.tail_ms", "serve-mix"),
    ("serve.queue_wait_ms", "ms", "lower", "serve.p99_ms, serve.max_rps", "serve-mix"),
    ("serve.shed_frac", "ratio", "lower", "serve.p99_ms, serve.max_rps", "serve-mix"),
    ("serve.gen_late_ms", "ms", "lower", "none (run validity)", "serve-mix"),
    ("nn.train_ms", "ms", "lower", "regen_s", "regen"),
    ("nn.arm_ms", "ms", "lower", "regen_s", "regen"),
    ("nn.matmul_gflops", "GFLOP/s", "higher", "regen_s", "regen"),
    ("dataprep.augment_us", "us", "lower", "regen_s", "regen"),
    ("sim.hold_ns.q1k", "ns", "lower", "des_s.*", "des-matrix"),
    ("sim.hold_ns.q64k", "ns", "lower", "des_s.*", "des-matrix"),
];

/// Every per-layer metric, in report order.
pub fn layer_table() -> Vec<LayerMetric> {
    let mut t = Vec::new();
    let mut add = |name: String, unit, better, moves: String, workload| {
        t.push(LayerMetric {
            name,
            unit,
            better,
            moves,
            workload,
        })
    };
    for group in PER_POINT {
        for pt in POINTS {
            for &(name, unit, better) in group {
                add(
                    format!("{name}.{pt}"),
                    unit,
                    better,
                    format!("des_s.{pt}"),
                    "des-matrix",
                );
            }
        }
    }
    for (name, unit, better, moves, workload) in FIXED {
        add(name.to_string(), unit, better, moves.to_string(), workload);
    }
    for layer in LAYERS {
        add(
            format!("self_ms.{layer}"),
            "ms",
            "lower",
            "none (time under the outermost call into the layer)".into(),
            "all",
        );
    }
    add(
        "trace.overhead_pct".into(),
        "%",
        "lower",
        "none (span recording inside cpu_ms)".into(),
        "all",
    );
    t
}

/// Layers spans are attributed to.
pub const LAYERS: [&str; 7] = ["bench", "core", "dataprep", "nn", "pcie", "serve", "sim"];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Record the tracing overhead: the CPU time the traced phase spent
    /// recording spans inside the measured `cpu_ms`, as a share of it, with
    /// `spans_per_op` spans recorded inside each operation's measurement.
    /// The traced phase's `cpu_ms` against the untraced phase's is printed
    /// beside it; that difference is mostly run-to-run spread.
    pub fn set_overhead(&mut self, untraced: f64, spans_per_op: f64) {
        let traced = self.get("cpu_ms").unwrap_or(f64::NAN);
        let span_ns = crate::spans::recording_ns();
        let pct = spans_per_op * span_ns * 1e-6 / traced * 100.0;
        println!(
            "tracing overhead: {pct:.5}% of cpu_ms ({spans_per_op} spans per operation at {span_ns:.0} ns each); \
             traced minus untraced cpu_ms {:+.2}% ({untraced:.4} -> {traced:.4} ms)",
            (traced - untraced) / untraced * 100.0
        );
        self.set("trace.overhead_pct", pct);
    }

    /// The result line: the end-to-end metrics, or with `traced` the
    /// per-layer ones (0 for layers this workload does not exercise).
    pub fn result_line(&self, traced: bool) -> String {
        let wanted: Vec<(String, &str)> = if traced {
            layer_table()
                .into_iter()
                .map(|m| (m.name, m.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite f64 as JSON with all its digits.
pub fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json must list exactly the metrics a run prints.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = trainbox_sim::json::parse(&text).expect("valid JSON");
        let field = |m: &trainbox_sim::json::Value, k: &str| {
            m.get(k).and_then(|v| v.as_str()).unwrap().to_string()
        };
        let list = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .to_vec()
        };
        let e2e: Vec<(String, String)> = list("end_to_end")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, want);
        let layers: Vec<[String; 3]> = list("per_layer")
            .iter()
            .map(|m| [field(m, "name"), field(m, "unit"), field(m, "better")])
            .collect();
        let want: Vec<[String; 3]> = layer_table()
            .into_iter()
            .map(|m| [m.name, m.unit.to_string(), m.better.to_string()])
            .collect();
        assert_eq!(layers, want);
    }

    #[test]
    fn result_line_has_every_metric_once() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.set("cpu_ms", 1.25);
        o.set("cpu_ms", 1.5);
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"cpu_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0"));
        let doc = trainbox_sim::json::parse(&o.result_line(true)).unwrap();
        let n = doc
            .get("metrics")
            .and_then(|m| m.as_object())
            .unwrap()
            .len();
        assert_eq!(n, layer_table().len());
    }
}
