//! The per-layer metrics of a traced run. Every workload prints every
//! name; a layer the workload never calls reads 0.

use crate::common::{median, Metrics};
use std::collections::BTreeMap;

/// `(name, unit)` in print order.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("db.load_ms", "ms"),
    ("graph.load_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("core.automaton_states", "count"),
    ("core.lifted_ms", "ms"),
    ("automata.count_nfta_ms", "ms"),
    ("automata.samples", "count"),
    ("automata.sample_tries", "count"),
    ("automata.sample_yield", "ratio"),
    ("automata.member_checks", "count"),
    ("automata.union_ests", "count"),
    ("graph.compile_ms", "ms"),
    ("graph.product_states", "count"),
    ("automata.count_nfa_ms", "ms"),
    ("graph.enum_ms", "ms"),
    ("par.cpu_per_wall", "ratio"),
    ("delta.apply_ms", "ms"),
    ("delta.kept_plans", "count"),
    ("delta.invalidated_plans", "count"),
    ("core.refresh_incremental", "count"),
    ("core.refresh_recompiled", "count"),
    ("core.revalidate_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.eval_mean_ms", "ms"),
    ("serve.plan_hit_ratio", "ratio"),
    ("serve.memo_hits", "count"),
    ("serve.executions", "count"),
    ("serve.coalesced", "count"),
    ("serve.queue_rejected", "count"),
    ("hit_p50_ms", "ms"),
    ("hit_p90_ms", "ms"),
    ("refresh_p50_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// The `pqe-obs` counters the NFTA counter keeps, by per-layer name.
pub const FPRAS_COUNTERS: [(&str, &str); 4] = [
    ("automata.samples", "fpras.samples"),
    ("automata.sample_tries", "fpras.sample_tries"),
    ("automata.member_checks", "fpras.member_checks"),
    ("automata.union_ests", "fpras.union_ests"),
];

#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, v);
    }

    /// Median self time of the spans named `span`, as layer metric `name`.
    pub fn span_median(
        &mut self,
        name: &'static str,
        self_times: &BTreeMap<&'static str, Vec<f64>>,
        span: &str,
    ) {
        if let Some(v) = self_times.get(span) {
            self.set(name, median(v));
        }
    }

    /// Sets `automata.sample_yield` from the sample and try counts.
    pub fn derive_yield(&mut self) {
        let samples = self.0.get("automata.samples").copied().unwrap_or(0.0);
        let tries = self.0.get("automata.sample_tries").copied().unwrap_or(0.0);
        if tries > 0.0 {
            self.set("automata.sample_yield", samples / tries);
        }
    }

    pub fn into_metrics(self) -> Metrics {
        let mut m = Metrics::default();
        for (name, unit) in PER_LAYER {
            m.put(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
        m
    }
}

/// Reads the NFTA counters, to difference around a call.
pub fn fpras_counters() -> [u64; 4] {
    FPRAS_COUNTERS.map(|(_, c)| pqe_obs::metrics::counter(c).get())
}
