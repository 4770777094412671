//! The central correctness property: every distributed engine computes
//! exactly the centralized maximum simulation relation, on any graph,
//! pattern and fragmentation.

use dgs::graph::generate::{dag, patterns, random, tree};
use dgs::prelude::*;
use std::sync::Arc;

fn check_general_algorithms(g: &Graph, q: &Pattern, assign: &[usize], k: usize, tag: &str) {
    let frag = Arc::new(Fragmentation::build(g, assign, k));
    let oracle = hhk_simulation(q, g);
    // One session serves every engine under test.
    let engine = SimEngine::builder(g, frag).build();
    for algo in [
        Algorithm::dgpm(),
        Algorithm::dgpm_nopt(),
        Algorithm::dgpm_incremental_only(),
        Algorithm::Dgpms,
        Algorithm::MatchCentral,
        Algorithm::DisHhk,
        Algorithm::DMes,
    ] {
        let report = engine.query_with(&algo, q).unwrap();
        assert_eq!(
            report.relation, oracle.relation,
            "{tag}: {} disagrees with the oracle",
            report.algorithm
        );
        assert_eq!(report.is_match, oracle.matches(), "{tag}: boolean answer");
    }
    // The auto-planner's relation is the fixpoint whichever engine it
    // lands on, its `trivial-∅` short-circuit included.
    let auto = engine.query(q).unwrap();
    assert_eq!(auto.relation, oracle.relation, "{tag}: Auto disagrees");
}

#[test]
fn partitioner_choice_never_changes_answers() {
    // Hash, BFS-clustered and LDG-streamed assignments give very
    // different |Ef|, but every engine computes the same relation.
    let g = random::community(600, 2_400, 6, 0.08, 5, 17);
    let q = patterns::random_cyclic(4, 8, 5, 17);
    let k = 5;
    for (name, assign) in [
        ("hash", hash_partition(g.node_count(), k, 17)),
        ("bfs", bfs_partition(&g, k, 17)),
        ("ldg", dgs::partition::ldg_partition(&g, k, 0.1, 17)),
    ] {
        check_general_algorithms(&g, &q, &assign, k, name);
    }
}

#[test]
fn random_cyclic_workloads() {
    for seed in 0..12 {
        let g = random::uniform(180, 650, 5, seed);
        let q = patterns::random_cyclic(4, 8, 5, seed * 3 + 1);
        let k = 2 + (seed as usize % 4);
        let assign = hash_partition(g.node_count(), k, seed);
        check_general_algorithms(&g, &q, &assign, k, &format!("uniform seed {seed}"));
    }
}

#[test]
fn web_like_workloads() {
    for seed in 0..6 {
        let g = random::web_like(300, 1_500, 8, seed);
        let q = patterns::random_cyclic(5, 10, 8, seed + 40);
        let assign = bfs_partition(&g, 5, seed);
        check_general_algorithms(&g, &q, &assign, 5, &format!("web seed {seed}"));
    }
}

#[test]
fn community_workloads_with_low_crossing() {
    for seed in 0..6 {
        let g = random::community(400, 1_600, 4, 0.1, 6, seed);
        let q = patterns::random_cyclic(4, 8, 6, seed + 9);
        let assign = random::community_assignment(400, 4);
        check_general_algorithms(&g, &q, &assign, 4, &format!("community seed {seed}"));
    }
}

#[test]
fn dag_graph_workloads_with_dgpmd() {
    for seed in 0..10 {
        let g = dag::citation_like(250, 700, 5, seed);
        let q = patterns::random_dag_with_depth(6, 9, 3, 5, seed + 11);
        let k = 4;
        let assign = hash_partition(g.node_count(), k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).build();
        let oracle = hhk_simulation(&q, &g);
        let report = engine.query_with(&Algorithm::Dgpmd, &q).unwrap();
        assert_eq!(report.relation, oracle.relation, "dGPMd seed {seed}");
        // Auto must pick dGPMd on this workload.
        assert_eq!(engine.plan(&q).unwrap().algorithm, "dGPMd");
        // dGPM must agree on the same workload.
        let report2 = engine.query_with(&Algorithm::dgpm(), &q).unwrap();
        assert_eq!(report2.relation, oracle.relation, "dGPM seed {seed}");
    }
}

#[test]
fn dag_pattern_on_cyclic_graph_with_dgpmd() {
    for seed in 0..8 {
        let g = random::uniform(220, 800, 5, seed + 500);
        let q = patterns::random_dag_with_depth(5, 8, 4, 5, seed);
        let assign = hash_partition(g.node_count(), 5, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 5));
        let engine = SimEngine::builder(&g, frag).build();
        let oracle = hhk_simulation(&q, &g);
        let report = engine.query_with(&Algorithm::Dgpmd, &q).unwrap();
        assert_eq!(report.relation, oracle.relation, "seed {seed}");
    }
}

#[test]
fn tree_workloads_with_dgpmt() {
    for seed in 0..8 {
        let g = tree::random_tree_with_chain_bias(350, 4, 0.5, seed);
        let q = patterns::random_dag_with_depth(5, 7, 3, 4, seed + 77);
        let k = 6;
        let assign = tree_partition(&g, k);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).build();
        let oracle = hhk_simulation(&q, &g);
        let report = engine.query_with(&Algorithm::Dgpmt, &q).unwrap();
        assert_eq!(report.relation, oracle.relation, "dGPMt seed {seed}");
        // Auto must pick dGPMt on this workload.
        assert_eq!(engine.plan(&q).unwrap().algorithm, "dGPMt");
        // dGPM on the same tree fragmentation must also agree.
        let report2 = engine.query_with(&Algorithm::dgpm(), &q).unwrap();
        assert_eq!(
            report2.relation, oracle.relation,
            "dGPM-on-tree seed {seed}"
        );
    }
}

#[test]
fn extreme_fragmentations() {
    // One node per site, and everything on one site.
    let g = random::uniform(40, 160, 4, 9);
    let q = patterns::random_cyclic(3, 6, 4, 9);
    let one_per_site: Vec<usize> = (0..40).collect();
    check_general_algorithms(&g, &q, &one_per_site, 40, "one node per site");
    check_general_algorithms(&g, &q, &vec![0; 40], 1, "single site");
}

#[test]
fn naive_and_hhk_agree_as_oracles() {
    for seed in 0..10 {
        let g = random::uniform(80, 280, 4, seed + 1000);
        let q = patterns::random_cyclic(4, 7, 4, seed);
        assert_eq!(
            naive_simulation(&q, &g).relation,
            hhk_simulation(&q, &g).relation,
            "seed {seed}"
        );
    }
}
