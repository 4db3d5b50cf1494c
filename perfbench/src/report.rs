//! What one run reports, and how it is printed.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run, in order. Each
/// is defined on every workload: an "op" is one `compile_module` call
/// on `compile_cold`, one compiled-simulated-checked cell on
/// `execute_verify`, and one request on `serve_mix`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "op/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("code_insts_per_node", "insts/node"),
    ("est_cycles_per_node", "cycles/node"),
];

/// Per-layer metrics, printed by every traced run, in order. A layer a
/// workload does not reach reads 0 there.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("maril.ms", "ms"),
    ("mdgen.ms", "ms"),
    ("workloads.ms", "ms"),
    ("frontend.ms", "ms"),
    ("frontend.ir_nodes", "count"),
    ("interp.ms", "ms"),
    ("interp.stmts", "count"),
    ("warmup.ms", "ms"),
    ("driver.ms", "ms"),
    ("glue.ms", "ms"),
    ("select.ms", "ms"),
    ("select.insts", "count"),
    ("strategy.ms", "ms"),
    ("regalloc.ms", "ms"),
    ("regalloc.graph_edges", "count"),
    ("regalloc.rounds", "count"),
    ("regalloc.spills", "count"),
    ("dag.ms", "ms"),
    ("dag.edges", "count"),
    ("sched.ms", "ms"),
    ("sched.blocks", "count"),
    ("sched.fallbacks", "count"),
    ("sched.fallback_ms", "ms"),
    ("sched.length_cycles", "cycles"),
    ("sched.stall_cycles", "cycles"),
    ("emit.ms", "ms"),
    ("emit.insts", "count"),
    ("emit.nops", "count"),
    ("fill.ms", "ms"),
    ("fill.filled", "count"),
    ("sim.ms", "ms"),
    ("sim.minsts_per_s", "Minsts/s"),
    ("sim.insts", "count"),
    ("sim.cycles", "cycles"),
    ("sim.cycles_per_stmt", "cycles/stmt"),
    ("sim.stall_cycles", "cycles"),
    ("sim.miss_cycles", "cycles"),
    ("check.ms", "ms"),
    ("check.mismatches", "count"),
    ("serve.parse_us", "us"),
    ("serve.handle_ms_p50", "ms"),
    ("serve.handle_ms_p99", "ms"),
    ("serve.observe_us", "us"),
    ("serve.stream_ms", "ms"),
    ("serve.observability_pct", "%"),
    ("serve.access_log_bytes", "bytes"),
    ("serve.distinct_modules", "count"),
    ("serve.rss_growth_mb", "MB"),
    ("fcache.hits", "count"),
    ("fcache.misses", "count"),
    ("fcache.hit_ratio", "ratio"),
    ("fcache.evictions", "count"),
    ("fcache.entries", "count"),
    ("fcache.key_us", "us"),
    ("fcache.get_us", "us"),
    ("host.cpu_granted", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
    ("failed_ratio", "ratio"),
];

/// The deterministic metrics: each must repeat exactly between two
/// runs at one seed.
pub const DETERMINISTIC: [&str; 7] = [
    "code_insts",
    "est_cycles",
    "sim_cycles",
    "sched.length_cycles",
    "regalloc.spills",
    "emit.nops",
    "fill.filled",
];

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Metrics by name: end-to-end ones from untraced runs, per-layer
    /// ones from traced runs.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's own metrics for the human-readable part of the
    /// output: (name, value, unit), in print order.
    pub table: Vec<(&'static str, f64, &'static str)>,
    /// Deterministic metrics that this run computed.
    pub deterministic: BTreeMap<&'static str, u64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn row(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.table.push((name, value, unit));
    }

    pub fn det(&mut self, name: &'static str, value: u64) {
        self.deterministic.insert(name, value);
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The last line of a run's output: `correct`, `attempted`,
    /// `failed` and the metrics of `names`, each with its unit.
    pub fn json_line(&self, names: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// keeps; non-finite values (a failed op's latency) print as the
/// largest finite double.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_every_named_metric() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.5);
        let line = r.json_line(&END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"op_ms_p90\": {\"value\": 0.0, \"unit\": \"ms\"}"));
        assert!(line.ends_with("}}"));
    }
}
