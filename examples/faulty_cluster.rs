//! Robustness: stragglers and at-least-once delivery.
//!
//! The paper's protocol is a monotone fixpoint — falsified variables
//! never flip back (§4.1) — so its data messages are idempotent and
//! the computed relation is schedule-independent. This example
//! demonstrates both properties on the virtual-time cluster:
//!
//! 1. one site is slowed 8× (a straggler): the answer is unchanged,
//!    the asynchronous `dGPM` loses less response time than the
//!    round-synchronized `dGPMs`;
//! 2. 50% of data messages are delivered twice (a retrying
//!    transport): the answer is unchanged, only traffic grows.
//!
//! ```text
//! cargo run --example faulty_cluster
//! ```

use dgs::core::dgpm::{self, DgpmConfig};
use dgs::net::{DeliveryPlan, VirtualExecutor};
use dgs::prelude::*;
use std::sync::Arc;

fn main() {
    let g = dgs::graph::generate::random::community(4_000, 16_000, 8, 0.05, 8, 3);
    let q = dgs::graph::generate::patterns::random_cyclic(5, 9, 8, 17);
    let k = 8;
    let assign = hash_partition(g.node_count(), k, 3);
    let frag = Arc::new(Fragmentation::build(&g, &assign, k));
    let oracle = hhk_simulation(&q, &g).relation;

    // --- 1. Straggler ---------------------------------------------
    println!("one site slowed 8x (|F| = {k}):");
    let healthy_engine = SimEngine::builder(&g, Arc::clone(&frag)).build();
    let degraded_engine = SimEngine::builder(&g, Arc::clone(&frag))
        .cost(CostModel::default().with_straggler(0, 8.0))
        .build();
    for algo in [Algorithm::dgpm(), Algorithm::Dgpms] {
        let healthy = healthy_engine.query_with(&algo, &q).unwrap();
        let degraded = degraded_engine.query_with(&algo, &q).unwrap();
        assert_eq!(healthy.relation, oracle);
        assert_eq!(degraded.relation, oracle);
        println!(
            "  {:>6}: PT {:.2} ms -> {:.2} ms ({:.2}x); answers identical",
            healthy.algorithm,
            healthy.metrics.virtual_time_ms(),
            degraded.metrics.virtual_time_ms(),
            degraded.metrics.virtual_time_ms() / healthy.metrics.virtual_time_ms()
        );
    }

    // --- 2. Duplicated deliveries ----------------------------------
    println!("\n50% of data messages delivered twice:");
    let qa = Arc::new(q.clone());
    let run = |rate: f64| {
        let (coord, sites) = dgpm::build(&frag, &qa, DgpmConfig::incremental_only());
        let mut exec = VirtualExecutor::new(CostModel::default());
        if rate > 0.0 {
            exec = exec.with_delivery(DeliveryPlan::duplicating(rate, 99));
        }
        exec.run(coord, sites)
    };
    let clean = run(0.0);
    let faulty = run(0.5);
    assert_eq!(clean.coordinator.answer.as_ref().unwrap(), &oracle);
    assert_eq!(faulty.coordinator.answer.as_ref().unwrap(), &oracle);
    println!(
        "  clean : DS {:>8.2} KB in {:>5} messages",
        clean.metrics.data_kb(),
        clean.metrics.data_messages
    );
    println!(
        "  faulty: DS {:>8.2} KB in {:>5} messages ({} duplicates) — answer identical",
        faulty.metrics.data_kb(),
        faulty.metrics.data_messages,
        faulty.metrics.duplicated_messages
    );
}
