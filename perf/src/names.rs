//! The benchmark's vocabulary: workload names, metric names, units.
//! `BENCHMARK.json` at the repository root states the same sets; a
//! test keeps the two equal. Later performance claims cite these names.

use std::collections::BTreeMap;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cold-cyclic",
        why: "distinct cyclic patterns in process: every query misses the cache and runs dGPMs; kernels and executor rounds do the work, serve none",
    },
    Workload {
        name: "cold-acyclic",
        why: "each op asks a citation DAG (dGPMd) and a tree (dGPMt) one distinct DAG pattern each: the same kernels through the other two planner branches",
    },
    Workload {
        name: "served-hot",
        why: "2 socket connections re-asking a pre-warmed pool that fits the cache: serve framing and cache hits do the work, the kernels none",
    },
    Workload {
        name: "churn-subscribed",
        why: "delta batches of recurrent and fresh edges against 16 subscribed patterns: maintenance, generation swap and diff push; the cache as a write path",
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; unused (0) for per-layer metrics.
    pub bound: f64,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    e2e(name, unit, better, 0.0, what)
}

use Better::{Higher, Lower};

/// What a caller sees. Every workload reports every one of these, with
/// tracing off; an *op* is the workload's blocking request — a query,
/// on `cold-acyclic` a query to each of its two sessions, on
/// `churn-subscribed` one `APPLY_DELTA` batch.
///
/// The timings carry the widest bound there is because the reference
/// host drifts (README, *Steadiness*). DS and PT are counts: one seed
/// gives one value, and what their bound has to admit is only how much
/// the generated inputs differ from seed to seed.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25, "time to generate, fragment, build the engine, bind and warm up; median of the run's set-ups (5 to 40)"),
    e2e("ops_per_s", "1/s", Higher, 0.25, "ops per second of blocking time, summed over the load threads, in the median one-second slice"),
    e2e("op_p50_ms", "ms", Lower, 0.25, "median op latency as the caller measures it"),
    e2e("ds_kb_per_query", "KB", Lower, 0.15, "RunMetrics::data_bytes of a cold evaluation, mean over a fixed 1024 ops: the paper's DS (exact)"),
    e2e("pt_virtual_ms_per_query", "ms", Lower, 0.10, "RunMetrics::virtual_time_ns of the same evaluations, mean: the paper's PT under CostModel::default"),
    e2e("peak_rss_mb", "MB", Lower, 0.20, "VmHWM of the benchmark process, which hosts the system under test"),
];

/// One layer each, from the traced run. A metric that does not apply
/// to a workload reads 0 there.
pub const PER_LAYER: [Metric; 57] = [
    layer(
        "harness.trace_overhead_pct",
        "%",
        Lower,
        "op_p50_ms traced vs. untraced in the same process",
    ),
    layer(
        "harness.op_p95_ms",
        "ms",
        Lower,
        "95th-percentile op latency, tracing off: too unsteady on a shared host to carry a bound",
    ),
    layer(
        "harness.warmup_ms",
        "ms",
        Lower,
        "untimed warm-up ops, part of setup_s",
    ),
    layer(
        "graph.generate_s",
        "s",
        Lower,
        "dgs::graph::generate call(s) for the workload graph",
    ),
    layer(
        "graph.decode_binary_ms",
        "ms",
        Lower,
        "io::read_graph_binary of the workload graph: the daemon's cold-load cost",
    ),
    layer("partition.build_ms", "ms", Lower, "Fragmentation::build"),
    layer(
        "partition.vf_share",
        "share",
        Lower,
        "|Vf|/|V| of the fragmentation (exact)",
    ),
    layer(
        "partition.ef_edges",
        "count",
        Lower,
        "|Ef|, crossing edges (exact)",
    ),
    layer(
        "partition.apply_delta_us",
        "us",
        Lower,
        "Fragmentation::apply_delta per batch, on a clone",
    ),
    layer(
        "sim.hhk_ms_per_query",
        "ms",
        Lower,
        "centralized hhk_simulation on the checked sample: the kernel floor",
    ),
    layer(
        "sim.pairs_per_answer",
        "count",
        Higher,
        "mean relation size of matching patterns (exact)",
    ),
    layer(
        "sim.match_share",
        "share",
        Higher,
        "share of patterns that match (exact)",
    ),
    layer(
        "core.engine_build_ms",
        "ms",
        Lower,
        "SimEngine::builder(..).build()",
    ),
    layer("core.canon_us", "us", Lower, "SimEngine::pattern_canon"),
    layer("core.plan_us", "us", Lower, "SimEngine::plan"),
    layer(
        "core.cache_hit_us",
        "us",
        Lower,
        "in-process SimEngine::query answered by the cache",
    ),
    layer(
        "core.dgpms_exec_ms",
        "ms",
        Lower,
        "query_with(Dgpms), cache bypassed",
    ),
    layer(
        "core.dgpmd_exec_ms",
        "ms",
        Lower,
        "query_with(Dgpmd), cache bypassed",
    ),
    layer(
        "core.dgpmt_exec_ms",
        "ms",
        Lower,
        "query_with(Dgpmt), cache bypassed",
    ),
    layer(
        "core.dgpm_exec_ms",
        "ms",
        Lower,
        "query_with(dGPM), cache bypassed",
    ),
    layer(
        "core.exec_over_hhk",
        "ratio",
        Lower,
        "planned engine's exec time over hhk on the same sample: the cost of distribution",
    ),
    layer(
        "core.intra_speedup",
        "ratio",
        Higher,
        "exec time with batch_workers(1) over the default worker count",
    ),
    layer(
        "core.cache_hit_ratio",
        "share",
        Higher,
        "CacheStats hits / (hits + misses) over the run",
    ),
    layer(
        "core.cache_evictions",
        "count",
        Lower,
        "CacheStats evictions over the run",
    ),
    layer(
        "core.delta_apply_ms",
        "ms",
        Lower,
        "in-process SimEngine::apply_delta per batch, same batches",
    ),
    layer(
        "core.delta_ms_per_entry",
        "ms",
        Lower,
        "core.delta_apply_ms / maintained entries",
    ),
    layer(
        "core.revoked_pairs",
        "count",
        Lower,
        "pairs revoked per batch, mean (exact)",
    ),
    layer(
        "core.resurrected_pairs",
        "count",
        Lower,
        "pairs resurrected per batch, mean (exact)",
    ),
    layer(
        "core.maintained_entries",
        "count",
        Higher,
        "maintained cache entries per batch (exact)",
    ),
    layer(
        "core.invalidated_entries",
        "count",
        Lower,
        "entries dropped instead of maintained, total (must be 0)",
    ),
    layer(
        "net.data_msgs",
        "count",
        Lower,
        "data messages per cold evaluation (exact)",
    ),
    layer(
        "net.control_msgs",
        "count",
        Lower,
        "control messages per cold evaluation (exact)",
    ),
    layer(
        "net.rounds",
        "count",
        Lower,
        "quiescence rounds per cold evaluation (exact)",
    ),
    layer(
        "net.max_site_ops_share",
        "share",
        Lower,
        "busiest site's share of site ops, mean (exact)",
    ),
    layer(
        "net.max_site_msgs",
        "count",
        Lower,
        "messages sent by the busiest site, mean (exact)",
    ),
    layer(
        "net.ds_over_ef_vq",
        "ratio",
        Lower,
        "DS bytes over |Ef||Vq|: the paper's bound as a utilisation (exact)",
    ),
    layer(
        "net.threaded_exec_ms",
        "ms",
        Lower,
        "the same sample under ExecutorKind::Threaded",
    ),
    layer(
        "serve.bind_ms",
        "ms",
        Lower,
        "Server::bind + spawn + first connect",
    ),
    layer(
        "serve.ping_rtt_us",
        "us",
        Lower,
        "PING round trip: framing, event thread and worker hand-off, no engine",
    ),
    layer(
        "serve.request_encode_us",
        "us",
        Lower,
        "Request::encode_into of the workload's own request",
    ),
    layer(
        "serve.request_decode_us",
        "us",
        Lower,
        "Request::decode of the same bytes",
    ),
    layer(
        "serve.answer_encode_us",
        "us",
        Lower,
        "Response::encode_into of the workload's own answers",
    ),
    layer(
        "serve.answer_decode_us",
        "us",
        Lower,
        "Response::decode of the same bytes",
    ),
    layer(
        "serve.answer_bytes",
        "B",
        Lower,
        "encoded response size, mean (exact)",
    ),
    layer(
        "serve.bytes_per_pair",
        "B",
        Lower,
        "answer bytes per match pair (exact)",
    ),
    layer(
        "serve.trace_queue_us",
        "us",
        Lower,
        "server TRACE ring: socket read to worker pick-up, median",
    ),
    layer(
        "serve.trace_exec_us",
        "us",
        Lower,
        "server TRACE ring: execution, median",
    ),
    layer(
        "serve.trace_encode_us",
        "us",
        Lower,
        "server TRACE ring: response encoding, median",
    ),
    layer(
        "serve.trace_total_us",
        "us",
        Lower,
        "server TRACE ring: socket read to response hand-off, median",
    ),
    layer(
        "serve.client_self_us",
        "us",
        Lower,
        "client-measured latency minus serve.trace_total_us: wire, wake-ups, client decode",
    ),
    layer(
        "serve.pipelined_qps_d16",
        "1/s",
        Higher,
        "one connection, 16 requests in flight",
    ),
    layer(
        "serve.query_p99_ms",
        "ms",
        Lower,
        "99th-percentile op latency (1000 samples or more)",
    ),
    layer(
        "serve.delta_rtt_over_inproc",
        "ratio",
        Lower,
        "APPLY_DELTA round trip over core.delta_apply_ms",
    ),
    layer(
        "serve.diffs_pushed",
        "count",
        Higher,
        "MATCH_DIFF frames received",
    ),
    layer(
        "serve.sub_overflows",
        "count",
        Lower,
        "subscriptions ended by queue overflow (must be 0)",
    ),
    layer(
        "serve.diff_lag_p50_ms",
        "ms",
        Lower,
        "delta sent to its MATCH_DIFF received, median",
    ),
    layer(
        "serve.diff_lag_p95_ms",
        "ms",
        Lower,
        "delta sent to its MATCH_DIFF received, 95th percentile",
    ),
];

/// How long one run measures, in seconds, when `--seconds` is not given.
pub const RUN_SECONDS: u32 = 20;

/// Metric values of one run, by name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for w in &WORKLOADS {
            // Plain text: BENCHMARK.json quotes it without escapes.
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "{}",
                w.name
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    /// `BENCHMARK.json` as these tables state it. The committed file
    /// is the source the driver reads; this is what it must say.
    fn benchmark_json() -> String {
        let list = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
        let metric = |m: &Metric, bound: bool| {
            let bound = if bound {
                format!(", \"bound\": {}", m.bound)
            } else {
                String::new()
            };
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        };
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n  \"paths\": [\"perf\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
            list(WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect()),
            list(END_TO_END.iter().map(|m| metric(m, true)).collect()),
            list(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        )
    }

    #[test]
    fn benchmark_json_states_the_same_sets() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(text, benchmark_json());
    }
}
