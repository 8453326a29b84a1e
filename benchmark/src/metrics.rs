//! The names, units, directions and bounds of every metric the
//! benchmark prints. `BENCHMARK.json` at the repository root repeats
//! this table for the driver; a unit test keeps the two in step.

use crate::json::Value;

/// The workloads, in the order `run --all` runs them.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "static_suggest",
        "The paper's headline path: a launch suggestion from static analysis and Eq. 6 with zero \
         simulated runs; kernels, ir, codegen front-end, core and arch do the work.",
    ),
    (
        "cold_sweep",
        "The empirical-autotuning baseline: 81,920 store misses through codegen specialize, the \
         simulator and the tuner insert path with its parallel batch.",
    ),
    (
        "warm_search",
        "The read side of the same store: four stochastic searchers and a re-sweep, all hits, so a \
         front-end or simulator change must not move it.",
    ),
    (
        "disk_roundtrip",
        "The persistent tier written once and reopened four times, as the table and figure bins \
         use it; a load-path change shows above noise.",
    ),
    (
        "remote_warm",
        "A warm daemon, so codec, framing, reactor, admission and worker hand-off do all the \
         work; owns the ~50x service tax on cache hits.",
    ),
    (
        "fleet_warm",
        "Two warm daemons behind the partitioner and work-stealing scheduler; against remote_warm \
         it prices the fleet layer itself.",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far an end-to-end metric may move before `compare` calls it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the base value.
    Relative(f64),
    /// Deterministic on correct code (model-domain statistics, the
    /// failure share): any difference counts.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Listed in `BENCHMARK.json`, so printed by every workload on the
    /// result line the driver reads.
    pub driver: bool,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Bound,
    driver: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        driver,
    }
}

/// The seven end-to-end metrics. Two are kept from the driver:
///
/// - `rpc_p50_us` exists on `remote_warm` only, and the driver wants
///   every listed metric from every workload. (It was tried on all six,
///   sampled between units: wake-up latency on the sandbox VM comes in
///   phases, and its run-to-run spread passed 25 % on some workload in
///   most measurement windows.)
/// - `failed_share` is 0 on correct code, and the driver's bounds are
///   shares of a median; the result line's `attempted`, `failed` and
///   `correct` carry it instead.
pub const END_TO_END: [EndToEnd; 7] = [
    end_to_end("setup_s", "s", Better::Lower, Bound::Relative(0.25), true),
    end_to_end(
        "unit_p50_s",
        "s",
        Better::Lower,
        Bound::Relative(0.25),
        true,
    ),
    end_to_end(
        "peak_rss_mb",
        "MiB",
        Better::Lower,
        Bound::Relative(0.10),
        true,
    ),
    end_to_end(
        "rpc_p50_us",
        "us",
        Better::Lower,
        Bound::Relative(0.25),
        false,
    ),
    end_to_end(
        "suggest_quality",
        "ratio",
        Better::Higher,
        Bound::Exact,
        true,
    ),
    end_to_end("space_kept_pct", "%", Better::Lower, Bound::Exact, true),
    end_to_end(FAILED_SHARE, "ratio", Better::Lower, Bound::Exact, false),
];

pub const FAILED_SHARE: &str = "failed_share";

/// The share `BENCHMARK.json` states for an [`Bound::Exact`] metric:
/// the driver only knows relative bounds, and a deterministic value
/// has no spread to allow for.
pub const EXACT_AS_SHARE: f64 = 0.001;

/// `(name, unit, better)` of every per-layer metric, in print order.
/// They are never gated; the direction says which way is good news.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("kernels.ast_us", "us", Better::Lower),
    ("codegen.unroll_us", "us", Better::Lower),
    ("ir.lower_indexed_us", "us", Better::Lower),
    ("codegen.peephole_us", "us", Better::Lower),
    ("codegen.regalloc_us", "us", Better::Lower),
    ("codegen.front_end_us", "us", Better::Lower),
    ("codegen.front_end_calls", "count", Better::Lower),
    ("ir.program_instrs", "count", Better::Lower),
    ("codegen.specialize_ns", "ns", Better::Lower),
    ("arch.occupancy_ns", "ns", Better::Lower),
    ("arch.table_lookup_ns", "ns", Better::Lower),
    ("core.analyze_us", "us", Better::Lower),
    ("core.suggest_ns", "ns", Better::Lower),
    ("core.predict_ns", "ns", Better::Lower),
    ("sim.measure_miss_ns", "ns", Better::Lower),
    ("sim.measure_hit_ns", "ns", Better::Lower),
    ("sim.dynamic_mix_ns", "ns", Better::Lower),
    ("tuner.eval_miss_us", "us", Better::Lower),
    ("tuner.eval_hit_ns", "ns", Better::Lower),
    ("tuner.self_miss_us", "us", Better::Lower),
    ("tuner.batch_speedup", "ratio", Better::Higher),
    ("tuner.dup_eval_share", "ratio", Better::Lower),
    ("tuner.search_overhead_ns", "ns", Better::Lower),
    ("tuner.persist_emit_ns", "ns", Better::Lower),
    ("tuner.persist_parse_ns", "ns", Better::Lower),
    ("tuner.persist_bytes_per_point", "bytes", Better::Lower),
    ("tuner.persist_write_overhead_s", "s", Better::Lower),
    ("tuner.persist_load_points_per_s", "1/s", Better::Higher),
    ("tuner.store_open_us", "us", Better::Lower),
    ("service.wire_floor_us", "us", Better::Lower),
    ("service.ping_us", "us", Better::Lower),
    ("service.reactor_overhead_us", "us", Better::Lower),
    ("service.rpc_p50_us", "us", Better::Lower),
    ("service.dispatch_overhead_us", "us", Better::Lower),
    ("service.eval1_p99_us", "us", Better::Lower),
    ("service.codec_req_emit_ns", "ns", Better::Lower),
    ("service.codec_req_parse_ns", "ns", Better::Lower),
    ("service.codec_resp_emit_ns", "ns", Better::Lower),
    ("service.codec_resp_parse_ns", "ns", Better::Lower),
    ("service.bytes_per_point", "bytes", Better::Lower),
    ("service.frame_write_ns", "ns", Better::Lower),
    ("service.frame_decode_ns", "ns", Better::Lower),
    ("service.batch_frames", "count", Better::Lower),
    ("service.points_per_frame", "count", Better::Higher),
    ("service.retries", "count", Better::Lower),
    ("service.tax_ratio", "ratio", Better::Lower),
    ("fleet.chunks", "count", Better::Lower),
    ("fleet.stolen_share", "ratio", Better::Higher),
    ("fleet.shard_imbalance", "ratio", Better::Lower),
    ("fleet.shards_lost", "count", Better::Lower),
    ("fleet.overhead_ratio", "ratio", Better::Lower),
    ("run.points_per_s", "1/s", Better::Higher),
    ("run.points_per_unit", "count", Better::Higher),
    ("run.units", "count", Better::Higher),
    ("run.unit_iqr_pct", "%", Better::Lower),
    ("run.unit_raw_p50_s", "s", Better::Lower),
    ("run.slowdown", "ratio", Better::Lower),
    ("run.warmup_unit_s", "s", Better::Lower),
    ("run.rss_growth_mb", "MiB", Better::Lower),
    ("run.trace_overhead_pct", "%", Better::Lower),
    ("run.generator_threads", "count", Better::Lower),
];

/// Named values with their units, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct MetricSet(Vec<(&'static str, f64, &'static str)>);

impl MetricSet {
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// Records an end-to-end metric; the unit comes from [`END_TO_END`].
    pub fn end_to_end(&mut self, name: &'static str, value: f64) {
        let def = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("a declared end-to-end metric");
        self.0.push((name, value, def.unit));
    }

    /// Records a per-layer metric; the unit comes from [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        let (_, unit, _) = PER_LAYER
            .iter()
            .find(|m| m.0 == name)
            .expect("a declared per-layer metric");
        self.0.push((name, value, unit));
    }

    pub fn extend(&mut self, other: MetricSet) {
        self.0.extend(other.0);
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; `driver_only` leaves
    /// out the end-to-end metrics `BENCHMARK.json` does not list.
    pub fn to_json(&self, driver_only: bool) -> Value {
        let hidden = |name: &str| END_TO_END.iter().any(|m| m.name == name && !m.driver);
        let mut obj = Value::obj();
        for &(name, value, unit) in &self.0 {
            if !(driver_only && hidden(name)) {
                obj.set(
                    name,
                    Value::obj()
                        .with("value", Value::Num(value))
                        .with("unit", Value::Str(unit.to_string())),
                );
            }
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.0));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
