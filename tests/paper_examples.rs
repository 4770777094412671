//! End-to-end golden tests against the paper's own worked examples.

use dgs::graph::generate::{adversarial, social};
use dgs::prelude::*;
use std::sync::Arc;

/// Example 2: the unique maximum match of Fig. 1.
#[test]
fn example2_maximum_match() {
    let w = social::fig1();
    let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
    let report = SimEngine::builder(&w.graph, frag)
        .build()
        .query_with(&Algorithm::dgpm(), &w.pattern)
        .unwrap();
    assert!(report.is_match);
    let mut got: Vec<_> = report.answer().iter().collect();
    let mut expected = w.expected_matches();
    got.sort();
    expected.sort();
    assert_eq!(got, expected);
    // f1 must not match F ("no SP nodes trust his recommendation").
    assert!(!report.answer().contains(w.qnode("F"), w.node("f1")));
    assert!(!report.answer().contains(w.qnode("YB"), w.node("yb1")));
}

/// Example 3: Q0(G0) as Boolean and data-selecting queries.
#[test]
fn example3_ring_answers() {
    let q = adversarial::q0();
    let n = 10;
    let g = adversarial::cycle_graph(n);
    let assign = adversarial::per_pair_assignment(n);
    let frag = Arc::new(Fragmentation::build(&g, &assign, n));
    let report = SimEngine::builder(&g, frag)
        .build()
        .query_with(&Algorithm::dgpm(), &q)
        .unwrap();
    // Boolean: true. Data-selecting: {(A, Ai), (B, Bi) | i in 1..n}.
    assert!(report.is_match);
    assert_eq!(report.answer().len(), 2 * n);
    for i in 1..=n {
        assert!(report.answer().contains(QNodeId(0), adversarial::a_node(i)));
        assert!(report.answer().contains(QNodeId(1), adversarial::b_node(i)));
    }
}

/// Example 7: in the intact Fig. 1, after the initial partial
/// evaluation no Boolean variable is ever updated to false, so no
/// data message is sent at all.
#[test]
fn example7_no_false_updates() {
    let w = social::fig1();
    let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
    let report = SimEngine::builder(&w.graph, frag)
        .build()
        .query_with(&Algorithm::dgpm_incremental_only(), &w.pattern)
        .unwrap();
    assert_eq!(report.metrics.data_messages, 0);
    assert!(report.is_match);
}

/// Example 8: removing the edge (f2, sp1) falsifies X(F, f2) at F2,
/// which cascades around the recommendation cycle and empties the
/// entire answer.
#[test]
fn example8_falsification_cascade() {
    let w = social::fig1();
    let mut gb = GraphBuilder::new();
    for v in w.graph.nodes() {
        gb.add_node(w.graph.label(v));
    }
    for (a, b) in w.graph.edges() {
        if !(a == w.node("f2") && b == w.node("sp1")) {
            gb.add_edge(a, b);
        }
    }
    let g = gb.build();
    let frag = Arc::new(Fragmentation::build(&g, &w.assignment, 3));
    let report = SimEngine::builder(&g, frag)
        .build()
        .query_with(&Algorithm::dgpm_incremental_only(), &w.pattern)
        .unwrap();
    let oracle = hhk_simulation(&w.pattern, &g);
    assert_eq!(report.relation, oracle.relation);
    assert!(report.metrics.data_messages > 0, "falsifications must ship");
    // The F-SP-YF cycle is broken: none of the cycle nodes can match.
    assert!(report.relation.matches_of(w.qnode("F")).is_empty());
    assert!(report.relation.matches_of(w.qnode("SP")).is_empty());
    assert!(report.relation.matches_of(w.qnode("YF")).is_empty());
    assert!(!report.is_match);
    assert!(report.answer().is_empty());
}

/// Examples 9/10: on a DAG workload, rank scheduling sends fewer
/// (batched) messages than eager falsification shipping.
#[test]
fn example10_rank_batching_reduces_messages() {
    use dgs::graph::generate::{dag, patterns};
    // Seeds picked so the workload sits in the chatty-eager regime
    // (dGPMd's count is the fixed rank x site-pair bound either way).
    let g = dag::citation_like(2_000, 5_000, 6, 3);
    // A deep DAG query makes eager shipping chatty.
    let q = patterns::random_dag_with_depth(8, 12, 6, 6, 4);
    let assign = hash_partition(g.node_count(), 6, 3);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 6));
    let engine = SimEngine::builder(&g, frag).build();
    let rd = engine.query_with(&Algorithm::Dgpmd, &q).unwrap();
    let rg = engine
        .query_with(&Algorithm::dgpm_incremental_only(), &q)
        .unwrap();
    assert_eq!(rd.relation, rg.relation);
    assert!(
        rd.metrics.data_messages <= rg.metrics.data_messages,
        "dGPMd {} msgs vs dGPM {} msgs",
        rd.metrics.data_messages,
        rg.metrics.data_messages
    );
    // The rank batches carry the same variables.
    assert!(rd.metrics.data_bytes <= rg.metrics.data_bytes + 9 * rd.metrics.data_messages);
}

/// §2.1: Boolean vs data-selecting queries are consistent.
#[test]
fn boolean_and_data_selecting_consistency() {
    let w = social::fig1();
    let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
    let report = SimEngine::builder(&w.graph, frag)
        .build()
        .query_with(&Algorithm::dgpm(), &w.pattern)
        .unwrap();
    assert_eq!(report.is_match, boolean_matches(&w.pattern, &w.graph));
    assert_eq!(report.is_match, !report.answer().is_empty());
}
