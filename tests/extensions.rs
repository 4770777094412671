//! Integration tests for the extension features: edge labels (§2.1's
//! dummy-node reduction), Boolean-query gathering (§4.1), and schedule
//! jitter (confluence under adversarial schedules).

use dgs::graph::generate::{patterns, random, social};
use dgs::graph::transform::{EdgeLabeledBuilder, EdgeLabeledPatternBuilder};
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

/// Confluence under adversarial schedules: latency jitter permutes
/// message orderings, yet the monotone fixpoint answer never changes.
#[test]
fn jitter_schedules_are_confluent() {
    let g = random::uniform(250, 900, 4, 31);
    let q = patterns::random_cyclic(4, 8, 4, 32);
    let assign = hash_partition(g.node_count(), 6, 31);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 6));

    let baseline = SimEngine::builder(&g, Arc::clone(&frag))
        .build()
        .query_with(&Algorithm::dgpm(), &q)
        .unwrap();
    let mut saw_different_timing = false;
    for seed in 0..6 {
        let cost = CostModel::default().with_jitter(0.8, seed);
        let jittered = SimEngine::builder(&g, Arc::clone(&frag))
            .cost(cost)
            .build()
            .query_with(&Algorithm::dgpm(), &q)
            .unwrap();
        assert_eq!(jittered.relation, baseline.relation, "jitter seed {seed}");
        if jittered.metrics.virtual_time_ns != baseline.metrics.virtual_time_ns {
            saw_different_timing = true;
        }
    }
    assert!(
        saw_different_timing,
        "jitter should actually perturb schedules"
    );
}

/// Push correctness under jitter: pushed equations + rewiring arrive
/// in arbitrary orders relative to falsifications; answers must hold.
#[test]
fn push_is_robust_to_schedules() {
    use dgs::core::dgpm::DgpmConfig;
    for seed in 0..6 {
        let g = random::community(300, 1_200, 5, 0.3, 5, seed);
        let q = patterns::random_cyclic(4, 8, 5, seed + 55);
        let assign = random::community_assignment(300, 5);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 5));
        let oracle = hhk_simulation(&q, &g).relation;
        for jitter_seed in 0..3 {
            let cost = CostModel::default().with_jitter(0.9, jitter_seed);
            let algo = Algorithm::Dgpm(DgpmConfig {
                incremental: true,
                push_threshold: Some(0.0), // force pushes everywhere
                push_size_cap: 4096,
            });
            let report = SimEngine::builder(&g, Arc::clone(&frag))
                .cost(cost)
                .build()
                .query_with(&algo, &q)
                .unwrap();
            assert_eq!(report.relation, oracle, "seed {seed} jitter {jitter_seed}");
        }
    }
}
