//! Every metric the benchmark emits, with its unit, and the result line.
//!
//! `BENCHMARK.json` declares the same names; a unit test keeps the two
//! lists equal.

use std::collections::BTreeMap;
use tlc_bench::figures::ALL_IDS;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_minstr_per_s", "M/s"),
];

/// Per-layer metrics of the traced run, except the per-exhibit wall
/// times (see [`per_layer`]): `(name, unit)`.
const LAYERS: [(&str, &str); 40] = [
    ("trace.gen.ns_per_instr", "ns"),
    ("trace.compact.write_ns_per_instr", "ns"),
    ("trace.compact.bytes_per_instr", "B"),
    ("trace.compact.decode_ns_per_instr", "ns"),
    ("trace.compact.roof_fraction", "ratio"),
    ("trace.arena.capture_ns_per_instr", "ns"),
    ("trace.arena.bytes", "B"),
    ("trace.arena.roof_fraction", "ratio"),
    ("trace.arena.capture_redundancy", "ratio"),
    ("cache.filter.l1_ns_per_instr", "ns"),
    ("cache.filter.groups", "count"),
    ("cache.filter.events_per_kinstr", "count"),
    ("cache.filter.event_bytes", "B"),
    ("cache.filter.roof_fraction", "ratio"),
    ("cache.family.conventional_ns_per_event", "ns"),
    ("cache.family.exclusive_ns_per_event", "ns"),
    ("cache.family.ns_per_member_event", "ns"),
    ("cache.family.calls", "count"),
    ("cache.family.segments_ns_per_event", "ns"),
    ("cache.family.roof_fraction", "ratio"),
    ("cache.predict.profile_ns_per_event", "ns"),
    ("cache.predict.solve_ns_per_config", "ns"),
    ("core.sampling.sample_ns_per_instr", "ns"),
    ("core.sampling.slice_capture_ns_per_instr", "ns"),
    ("core.sampling.replayed_fraction", "ratio"),
    ("core.machine.derive_cold_ns_per_config", "ns"),
    ("core.machine.derive_warm_ns_per_config", "ns"),
    ("core.envelope.ns_per_point", "ns"),
    ("core.runner.self_s", "s"),
    ("core.runner.parallel_efficiency", "ratio"),
    ("bench.figures.sweep_exhibits_s", "s"),
    ("bench.figures.system_studies_s", "s"),
    ("bench.figures.model_exhibits_s", "s"),
    ("bench.figures.obs.arena_capture_s", "s"),
    ("bench.figures.obs.l1_capture_s", "s"),
    ("bench.figures.obs.fan_out_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("host.copy_gb_per_s", "GB/s"),
    ("max_miss_ratio_error", "ratio"),
    ("max_tpi_error_pct", "%"),
];

/// Every per-layer metric: the layer ledger plus one wall time per
/// exhibit id. A layer that does no work on a workload reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    v.extend(ALL_IDS.iter().map(|id| (figure_metric(id), "s")));
    v
}

/// The per-layer metric holding exhibit `id`'s wall time.
pub fn figure_metric(id: &str) -> String {
    format!("bench.figures.{id}.wall_s")
}

/// One run's outcome: correctness counts plus every metric computed.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Design points (or exhibits) checked.
    pub attempted: u64,
    /// Of those, how many failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Value of `name`, 0 if never set.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The declared metrics of one mode, `(name, unit, value)`: the
    /// end-to-end ones untraced, the per-layer ones traced.
    pub fn declared(&self, traced: bool) -> Vec<(String, &'static str, f64)> {
        let names: Vec<(String, &'static str)> = if traced {
            per_layer()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
        };
        names
            .into_iter()
            .map(|(n, u)| {
                let v = self.get(&n);
                (n, u, v)
            })
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the declared metrics of this mode.
    pub fn json_line(&self, traced: bool) -> String {
        use serde_json::{Number, Value};
        let metrics = self
            .declared(traced)
            .into_iter()
            .map(|(n, u, v)| {
                let entry = Value::Object(vec![
                    ("value".to_string(), Value::Num(Number::F(v))),
                    ("unit".to_string(), Value::Str(u.to_string())),
                ]);
                (n, entry)
            })
            .collect();
        let doc = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.failed == 0 && self.attempted > 0)),
            ("attempted".to_string(), Value::Num(Number::U(self.attempted))),
            ("failed".to_string(), Value::Num(Number::U(self.failed))),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&doc).expect("result serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Object(kv) => &kv.iter().find(|(k, _)| k == key).expect("key present").1,
            _ => panic!("not an object"),
        }
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Value::Array(items) = field(doc, key) else { panic!("{key} is not a list") };
        items
            .iter()
            .map(|m| match (field(m, "name"), field(m, "unit")) {
                (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                _ => panic!("metric without a name and unit"),
            })
            .collect()
    }

    /// Every emitted name is well-formed, unique, and declared in
    /// `BENCHMARK.json` with the same unit — and nothing declared is
    /// left unemitted.
    #[test]
    fn emitted_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let out = Outcome { attempted: 1, ..Outcome::default() };
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let emitted: Vec<(String, String)> =
                out.declared(traced).into_iter().map(|(n, u, _)| (n, u.to_string())).collect();
            for (n, _) in &emitted {
                assert!(valid_name(n), "bad metric name {n:?}");
            }
            let mut unique: Vec<&String> = emitted.iter().map(|(n, _)| n).collect();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), emitted.len(), "duplicate {key} names");
            assert_eq!(emitted, declared(&doc, key), "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut out = Outcome { attempted: 3, ..Outcome::default() };
        out.set("wall_s", 1.25);
        let line = out.json_line(false);
        let doc: Value = serde_json::from_str(&line).unwrap();
        assert!(matches!(field(&doc, "correct"), Value::Bool(true)));
        let wall = field(field(&doc, "metrics"), "wall_s");
        assert!(matches!(field(wall, "unit"), Value::Str(u) if u == "s"));
        assert!(line.contains("1.25"));
    }
}
