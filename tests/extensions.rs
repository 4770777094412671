//! Integration tests for the extension features: edge labels (§2.1's
//! dummy-node reduction), Boolean-query gathering (§4.1), and delayed
//! deliveries (confluence under adversarial schedules).

use dgs::core::dgpm::{self, DgpmConfig};
use dgs::graph::generate::{patterns, random, social};
use dgs::graph::transform::{EdgeLabeledBuilder, EdgeLabeledPatternBuilder};
use dgs::net::{DeliveryPlan, VirtualExecutor};
use dgs::prelude::*;
use std::sync::Arc;

/// End-to-end edge-labeled matching via the dummy-node reduction: an
/// `ℓ0` query edge must not match an `ℓ1` graph edge, centralized and
/// distributed alike.
#[test]
fn edge_labels_distinguish_matches() {
    const BASE: u16 = 100;
    // Pattern: A -[0]-> B.
    let mut qb = EdgeLabeledPatternBuilder::new(BASE);
    let qa = qb.add_node(Label(0));
    let qb_node = qb.add_node(Label(1));
    qb.add_edge(qa, qb_node, Some(0));
    let (q, _) = qb.build();

    // Graph: a0 -[0]-> b0, a1 -[1]-> b1.
    let mut gb = EdgeLabeledBuilder::new(BASE);
    let a0 = gb.add_node(Label(0));
    let b0 = gb.add_node(Label(1));
    let a1 = gb.add_node(Label(0));
    let b1 = gb.add_node(Label(1));
    gb.add_edge(a0, b0, Some(0));
    gb.add_edge(a1, b1, Some(1));
    let (g, _) = gb.build();

    let r = hhk_simulation(&q, &g).relation;
    assert!(r.contains(qa, a0));
    assert!(!r.contains(qa, a1));

    // Distributed: split the two components across sites.
    let assign: Vec<usize> = g.nodes().map(|v| (v.0 % 2) as usize).collect();
    let frag = Arc::new(Fragmentation::build(&g, &assign, 2));
    let report = SimEngine::builder(&g, frag)
        .build()
        .query_with(&Algorithm::dgpm(), &q)
        .unwrap();
    assert_eq!(report.relation, r);
}

/// Boolean-query gathering returns the same verdict as the
/// data-selecting run, with O(|F|) result bytes.
#[test]
fn boolean_mode_matches_data_selecting() {
    for seed in 0..8 {
        let g = random::uniform(200, 700, 5, seed);
        let q = patterns::random_cyclic(4, 8, 5, seed + 23);
        let assign = hash_partition(g.node_count(), 4, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 4));
        let engine = SimEngine::builder(&g, frag).build();
        let full = engine.query_with(&Algorithm::dgpm(), &q).unwrap();
        let boolean = engine.query_boolean_with(&Algorithm::dgpm(), &q).unwrap();
        let (matched, metrics) = (boolean.is_match, boolean.metrics);
        assert_eq!(matched, full.is_match, "seed {seed}");
        // Presence bits: 9 bytes per site of result traffic.
        assert_eq!(metrics.result_messages, 4);
        assert_eq!(metrics.result_bytes, 4 * 9);
        assert!(metrics.result_bytes <= full.metrics.result_bytes);
        // Fixpoint shipment identical.
        assert_eq!(metrics.data_bytes, full.metrics.data_bytes);
    }
}

/// Boolean mode through the fallback path for non-dGPM algorithms.
#[test]
fn boolean_mode_fallback_for_other_algorithms() {
    let w = social::fig1();
    let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
    let engine = SimEngine::builder(&w.graph, frag).build();
    for algo in [Algorithm::DisHhk, Algorithm::DMes, Algorithm::MatchCentral] {
        let boolean = engine.query_boolean_with(&algo, &w.pattern).unwrap();
        assert!(boolean.is_match, "{}", algo.name());
    }
}

/// Runs dGPM under `cfg` on the virtual executor, with deliveries
/// delayed by `plan` if given.
fn dgpm_run(
    frag: &Arc<Fragmentation>,
    q: &Pattern,
    cfg: DgpmConfig,
    plan: Option<DeliveryPlan>,
) -> (MatchRelation, u64) {
    let (coord, sites) = dgpm::build(frag, &Arc::new(q.clone()), cfg);
    let mut exec = VirtualExecutor::new(CostModel::default());
    if let Some(plan) = plan {
        exec = exec.with_delivery(plan);
    }
    let o = exec.run(coord, sites);
    (o.coordinator.answer.unwrap(), o.metrics.virtual_time_ns)
}

/// Confluence under adversarial schedules: delayed deliveries permute
/// message orderings, yet the monotone fixpoint answer never changes.
#[test]
fn jitter_schedules_are_confluent() {
    let g = random::uniform(250, 900, 4, 31);
    let q = patterns::random_cyclic(4, 8, 4, 32);
    let assign = hash_partition(g.node_count(), 6, 31);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 6));

    let baseline = dgpm_run(&frag, &q, DgpmConfig::optimized(), None);
    let mut saw_different_timing = false;
    for seed in 0..6 {
        let plan = DeliveryPlan::new(0.0, 0.0, 0.8, seed);
        let delayed = dgpm_run(&frag, &q, DgpmConfig::optimized(), Some(plan));
        assert_eq!(delayed.0, baseline.0, "delay seed {seed}");
        if delayed.1 != baseline.1 {
            saw_different_timing = true;
        }
    }
    assert!(
        saw_different_timing,
        "delays should actually perturb schedules"
    );
}

/// Push correctness under delays: pushed equations + rewiring arrive
/// in arbitrary orders relative to falsifications; answers must hold.
#[test]
fn push_is_robust_to_schedules() {
    for seed in 0..6 {
        let g = random::community(300, 1_200, 5, 0.3, 5, seed);
        let q = patterns::random_cyclic(4, 8, 5, seed + 55);
        let assign = random::community_assignment(300, 5);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 5));
        let oracle = hhk_simulation(&q, &g).relation;
        for delay_seed in 0..3 {
            let cfg = DgpmConfig {
                incremental: true,
                push_threshold: Some(0.0), // force pushes everywhere
                push_size_cap: 4096,
            };
            let plan = DeliveryPlan::new(0.0, 0.0, 0.9, delay_seed);
            let (relation, _) = dgpm_run(&frag, &q, cfg, Some(plan));
            assert_eq!(relation, oracle, "seed {seed} delay {delay_seed}");
        }
    }
}
