//! The metric catalogue: every metric the benchmark reports, with its
//! unit, in the order `BENCHMARK.json` lists them.

use crate::figures::series_labels;

/// Size class of an explored state space: `small` (<1k states), `mid`
/// (1k–10k) or `large` (≥10k).
pub fn bucket(states: usize) -> &'static str {
    match states {
        0..=999 => "small",
        1000..=9999 => "mid",
        _ => "large",
    }
}

/// The end-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics (traced run): name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut put = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    // verify_composed
    put("stg.parse.ms", "ms");
    put("stg.state_graph.ms", "ms");
    put("stg.state_graph.states", "count");
    put("stg.state_graph.edges", "count");
    for class in ["small", "mid", "large"] {
        put(&format!("stg.state_graph.ns_per_state.{class}"), "ns");
    }
    put("stg.verify.ms", "ms");
    put("petri.explore.ms", "ms");
    for class in ["small", "mid", "large"] {
        put(&format!("petri.explore.ns_per_state.{class}"), "ns");
    }
    put("share.explore", "ratio");
    put("rt.pool.bfs_speedup_2t", "ratio");
    put("states_per_s", "1/s");
    // flow_specs
    put("synth.extract.ms", "ms");
    put("boolmin.minimize.ms", "ms");
    put("boolmin.minimize.calls", "count");
    put("boolmin.care_frac", "ratio");
    put("synth.synthesize.ms", "ms");
    put("synth.synthesize.other_ms", "ms");
    put("synth.literals.cg", "count");
    put("synth.literals.gc", "count");
    put("synth.verify_si.ms", "ms");
    put("synth.verify_si.joint_states", "count");
    put("netlist.emit.ms", "ms");
    put("core.flow.ms", "ms");
    put("core.flow.overhead_ms", "ms");
    put("share.boolmin_synth", "ratio");
    put("literals", "count");
    // paper_figures
    put("core.cosim.build_ms", "ms");
    put("core.cosim.run_ms", "ms");
    put("core.cosim.windows", "count");
    put("core.cosim.ns_per_window", "ns");
    for label in series_labels() {
        for call in ["on_sensor", "on_gate_ack", "on_wakeup", "next_wakeup"] {
            put(&format!("ctrl.{label}.{call}.calls"), "count");
        }
        put(&format!("ctrl.{label}.commands"), "count");
        put(&format!("ctrl.{label}.self_ms"), "ms");
        put(&format!("ctrl.{label}.share"), "ratio");
    }
    put("analog.buck.ns_per_step", "ns");
    put("analog.record.samples", "count");
    put("analog.record.events", "count");
    put("analog.metrics.ms", "ms");
    for fig in ["table1", "fig6", "fig7a", "fig7b", "fig7c"] {
        put(&format!("bench.experiments.{fig}.ms"), "ms");
    }
    put("share.cosim", "ratio");
    put("rt.pool.sweep_speedup_2t", "ratio");
    put("sim_us_per_s", "us/s");
    put("golden_dev", "ratio");
    // every workload
    for w in crate::WORKLOADS {
        put(&format!("failed_frac.{w}"), "ratio");
        put(&format!("trace.overhead.{w}"), "ratio");
    }
    m
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Layers(Vec<(String, f64)>);

impl Layers {
    /// Records `value` under `name`.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_split_at_1k_and_10k() {
        assert_eq!(bucket(999), "small");
        assert_eq!(bucket(1000), "mid");
        assert_eq!(bucket(9999), "mid");
        assert_eq!(bucket(10_000), "large");
    }

    /// Every metric the benchmark prints is declared in `BENCHMARK.json`
    /// with the same unit, and nothing else is.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let declared: Vec<(String, String)> = json
            .lines()
            .filter(|l| l.contains("\"unit\""))
            .map(|l| {
                let field = |key: &str| {
                    let at = l.find(&format!("\"{key}\": \"")).unwrap() + key.len() + 5;
                    l[at..at + l[at..].find('"').unwrap()].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .chain(per_layer().into_iter().map(|(n, u)| (n, u.to_string())))
            .collect();
        assert_eq!(declared, ours);
        assert!(per_layer().len() <= 128);
    }
}
