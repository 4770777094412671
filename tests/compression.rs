//! Integration tests for query-preserving compression: the quotient
//! graphs answer every pattern exactly, compose with the distributed
//! engines, and respect the simulation preorder's structure.

use dgs::graph::generate::{dag, patterns, random, tree};
use dgs::prelude::*;
use dgs::sim::{compress_bisim, compress_simeq, SimPreorder};
use proptest::prelude::*;
use std::sync::Arc;

fn small_workload() -> impl Strategy<Value = (Graph, Pattern)> {
    (10usize..70, 1usize..5, 2usize..5, 3usize..6, any::<u64>()).prop_map(
        |(n, em, labels, nq, seed)| {
            let g = random::uniform(n, n * em, labels, seed);
            let q = patterns::random_cyclic(nq, nq + 3, labels, seed ^ 0xA5A5);
            (g, q)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Both quotients answer arbitrary patterns exactly.
    #[test]
    fn quotients_are_exact((g, q) in small_workload()) {
        let oracle = hhk_simulation(&q, &g).relation;
        prop_assert_eq!(&compress_simeq(&g).query_expanded(&q), &oracle);
        prop_assert_eq!(&compress_bisim(&g).query_expanded(&q), &oracle);
    }

    /// Simulation-equivalence merges at least as much as bisimulation,
    /// and both quotients never grow the graph.
    #[test]
    fn merge_hierarchy((g, _q) in small_workload()) {
        let s = compress_simeq(&g);
        let b = compress_bisim(&g);
        prop_assert!(s.class_count() <= b.class_count());
        prop_assert!(b.class_count() <= g.node_count().max(1) || g.node_count() == 0);
        prop_assert!(s.graph.size() <= g.size());
    }

    /// Matches are upward-closed under the simulation preorder — the
    /// half of the compression theorem that lifts quotient answers
    /// back to `G`.
    #[test]
    fn matches_upward_closed((g, q) in small_workload()) {
        let rel = hhk_simulation(&q, &g).relation;
        let pre = SimPreorder::compute(&g);
        for u in q.nodes() {
            for &v in rel.matches_of(u) {
                for w in g.nodes() {
                    if pre.le(v, w) {
                        prop_assert!(rel.contains(u, w));
                    }
                }
            }
        }
    }
}

/// Compress-then-distribute: fragment the *quotient*, run the
/// distributed engines on it, expand, and compare with the
/// uncompressed centralized oracle — the full pipeline §7 suggests.
#[test]
fn distributed_query_on_compressed_graph() {
    for seed in 0..5 {
        let g = random::web_like(1_500, 6_000, 4, seed);
        let q = patterns::random_cyclic(4, 7, 4, seed + 21);
        let c = compress_simeq(&g);
        let k = 4;
        let assign = hash_partition(c.graph.node_count(), k, seed);
        let frag = Arc::new(Fragmentation::build(&c.graph, &assign, k));
        let engine = SimEngine::builder(&c.graph, frag).build();
        let oracle = hhk_simulation(&q, &g).relation;
        for algo in [Algorithm::dgpm(), Algorithm::Dgpms] {
            let report = engine.query_with(&algo, &q).unwrap();
            let expanded = c.expand(&report.relation);
            assert_eq!(expanded, oracle, "seed {seed}, {}", report.algorithm);
        }
    }
}

/// Compression shrinks the distributed work too: on a compressible
/// tree workload, running dGPM over the fragmented quotient ships no
/// more data than over the fragmented original.
#[test]
fn compression_reduces_distributed_shipment_on_trees() {
    let g = tree::random_tree(4_000, 3, 9);
    let q = patterns::random_dag_with_depth(4, 6, 3, 3, 2);
    let c = compress_simeq(&g);
    assert!(
        c.graph.size() * 2 < g.size(),
        "tree should compress at least 2x, got {} -> {}",
        g.size(),
        c.graph.size()
    );
    let k = 6;

    let assign_g = hash_partition(g.node_count(), k, 5);
    let frag_g = Arc::new(Fragmentation::build(&g, &assign_g, k));
    let on_g = SimEngine::builder(&g, frag_g)
        .build()
        .query_with(&Algorithm::dgpm(), &q)
        .unwrap();

    let assign_c = hash_partition(c.graph.node_count(), k, 5);
    let frag_c = Arc::new(Fragmentation::build(&c.graph, &assign_c, k));
    let on_c = SimEngine::builder(&c.graph, frag_c)
        .build()
        .query_with(&Algorithm::dgpm(), &q)
        .unwrap();

    assert_eq!(c.expand(&on_c.relation), on_g.relation);
    assert!(
        on_c.metrics.data_bytes <= on_g.metrics.data_bytes,
        "quotient shipped more: {} > {}",
        on_c.metrics.data_bytes,
        on_g.metrics.data_bytes
    );
}

/// The compression pipeline handles DAG inputs and keeps them DAGs,
/// so `dGPMd` remains applicable after compression.
#[test]
fn compression_preserves_dagness() {
    use dgs::graph::algo::graph_is_dag;
    for seed in 0..5 {
        let g = dag::citation_like(800, 2_000, 4, seed);
        assert!(graph_is_dag(&g));
        let c = compress_simeq(&g);
        assert!(
            graph_is_dag(&c.graph),
            "seed {seed}: quotient of a DAG must stay a DAG for simulation equivalence"
        );
        let q = patterns::random_dag_with_depth(4, 6, 3, 4, seed);
        let k = 3;
        let assign = hash_partition(c.graph.node_count(), k, seed);
        let frag = Arc::new(Fragmentation::build(&c.graph, &assign, k));
        let report = SimEngine::builder(&c.graph, frag)
            .build()
            .query_with(&Algorithm::Dgpmd, &q)
            .unwrap();
        assert_eq!(
            c.expand(&report.relation),
            hhk_simulation(&q, &g).relation,
            "seed {seed}"
        );
    }
}
