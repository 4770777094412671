//! Fault-injection and heterogeneity tests: the distributed engines
//! compute the same relation under message duplication, adversarial
//! delivery schedules, stragglers, and their combination — the
//! confluence of monotone fixpoints that §4.1's "never changes back"
//! argument rests on.

use dgs::core::dgpm::{self, DgpmConfig};
use dgs::core::dgpms;
use dgs::graph::generate::{patterns, random};
use dgs::net::{DeliveryPlan, VirtualExecutor};
use dgs::prelude::*;
use std::sync::Arc;

fn workload(seed: u64) -> (Graph, Pattern, Arc<Fragmentation>, usize) {
    let n = 600;
    let k = 5;
    let g = random::community(n, 2_400, 6, 0.1, 5, seed);
    let q = patterns::random_cyclic(4, 8, 5, seed + 7);
    let assign = hash_partition(n, k, seed);
    let frag = Arc::new(Fragmentation::build(&g, &assign, k));
    (g, q, frag, k)
}

#[test]
fn dgpm_answer_invariant_under_duplication() {
    for seed in 0..6 {
        let (g, q, frag, _) = workload(seed);
        let oracle = hhk_simulation(&q, &g).relation;
        let qa = Arc::new(q.clone());
        for rate in [0.25, 0.5, 1.0] {
            let (coord, sites) = dgpm::build(&frag, &qa, DgpmConfig::incremental_only());
            let exec = VirtualExecutor::new(CostModel::default())
                .with_delivery(DeliveryPlan::duplicating(rate, seed));
            let o = exec.run(coord, sites);
            assert_eq!(
                o.coordinator.answer.unwrap(),
                oracle,
                "seed {seed}, rate {rate}"
            );
            // If anything shipped, full duplication must show up in
            // the metrics.
            if rate == 1.0 && o.metrics.data_messages > 0 {
                assert_eq!(
                    o.metrics.duplicated_messages * 2,
                    o.metrics.data_messages,
                    "seed {seed}"
                );
            }
        }
    }
}

#[test]
fn dgpm_with_push_tolerates_duplication() {
    // Pushed equations and subscriptions are also idempotent.
    for seed in 0..4 {
        let (g, q, frag, _) = workload(seed);
        let oracle = hhk_simulation(&q, &g).relation;
        let qa = Arc::new(q.clone());
        let (coord, sites) = dgpm::build(&frag, &qa, DgpmConfig::optimized());
        let exec = VirtualExecutor::new(CostModel::default())
            .with_delivery(DeliveryPlan::duplicating(1.0, seed));
        let o = exec.run(coord, sites);
        assert_eq!(o.coordinator.answer.unwrap(), oracle, "seed {seed}");
    }
}

#[test]
fn dgpms_answer_invariant_under_duplication_and_jitter() {
    for seed in 0..4 {
        let (g, q, frag, _) = workload(seed);
        let oracle = hhk_simulation(&q, &g).relation;
        let qa = Arc::new(q.clone());
        let (coord, sites) = dgpms::build(&frag, &qa);
        // Half the messages duplicated, 40% of the rest delayed.
        let plan = DeliveryPlan::new(0.0, 0.5, 0.2, seed ^ 0xFF);
        let exec = VirtualExecutor::new(CostModel::default()).with_delivery(plan);
        let o = exec.run(coord, sites);
        assert_eq!(o.coordinator.answer.clone().unwrap(), oracle, "seed {seed}");
    }
}

#[test]
fn answers_invariant_under_stragglers() {
    for seed in 0..4 {
        let (g, q, frag, k) = workload(seed);
        let oracle = hhk_simulation(&q, &g).relation;
        for slow_site in [0, k - 1] {
            let cost = CostModel::default().with_straggler(slow_site, 16.0);
            let engine = SimEngine::builder(&g, Arc::clone(&frag)).cost(cost).build();
            for algo in [Algorithm::dgpm(), Algorithm::dgpm_nopt(), Algorithm::Dgpms] {
                let report = engine.query_with(&algo, &q).unwrap();
                assert_eq!(
                    report.relation, oracle,
                    "seed {seed}, straggler {slow_site}, {}",
                    report.algorithm
                );
            }
        }
    }
}

#[test]
fn straggler_raises_response_time_not_shipment() {
    // Under a compute-dominant model the straggler's extra busy time
    // must show in the makespan (with network latency in the mix the
    // critical path can reroute around the slow site).
    let (g, q, frag, _) = workload(11);
    let runner = |cost: CostModel| {
        SimEngine::builder(&g, Arc::clone(&frag))
            .cost(cost)
            .build()
            .query_with(&Algorithm::dgpm_incremental_only(), &q)
            .unwrap()
    };
    let healthy = runner(CostModel::compute_only());
    let degraded = runner(CostModel::compute_only().with_straggler(0, 12.0));
    assert!(degraded.metrics.virtual_time_ns > healthy.metrics.virtual_time_ns);
    // Shipment is *schedule*-sensitive at the margin (incremental
    // evaluation coalesces differently when the straggler reorders
    // deliveries) but must not scale with the 12x slowdown.
    let (h, d) = (
        healthy.metrics.data_bytes as f64,
        degraded.metrics.data_bytes as f64,
    );
    assert!(
        (d - h).abs() / h.max(1.0) < 0.02,
        "shipment drifted: {d} vs {h} bytes"
    );
    assert_eq!(degraded.relation, healthy.relation);
}

#[test]
fn duplication_is_deterministic_end_to_end() {
    let (g, q, frag, _) = workload(3);
    let _ = g;
    let qa = Arc::new(q.clone());
    let run = || {
        let (coord, sites) = dgpm::build(&frag, &qa, DgpmConfig::incremental_only());
        let exec = VirtualExecutor::new(CostModel::default())
            .with_delivery(DeliveryPlan::duplicating(0.5, 77));
        let o = exec.run(coord, sites);
        (
            o.coordinator.answer.unwrap(),
            o.metrics.data_bytes,
            o.metrics.duplicated_messages,
            o.metrics.virtual_time_ns,
        )
    };
    assert_eq!(run(), run());
}
