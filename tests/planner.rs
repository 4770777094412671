//! Property tests for the auto-planner: `Algorithm::Auto` must always
//! (a) resolve to an engine whose precondition holds, and (b) agree
//! with the centralized `hhk_simulation` oracle — on trees, DAGs, and
//! cyclic graphs alike.

use dgs::graph::generate::{dag, patterns, random, tree};
use dgs::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn engine_over(g: &Graph, assign: &[usize], k: usize) -> SimEngine {
    let frag = Arc::new(Fragmentation::build(g, assign, k));
    SimEngine::builder(g, frag).build()
}

/// The planner's chosen engine must be applicable to the facts it was
/// chosen from.
fn assert_applicable(engine: &SimEngine, report: &RunReport, q_is_dag: bool) {
    let f = engine.facts();
    match report.algorithm {
        "dGPMt" => {
            assert!(
                f.is_rooted_tree && f.fragments_connected,
                "dGPMt picked off-scope"
            );
        }
        "dGPMd" => assert!(q_is_dag || f.is_dag, "dGPMd picked off-scope"),
        "dGPMs" | "dGPM" => {}
        "trivial-∅" => assert!(!q_is_dag && f.is_dag, "short-circuit picked off-scope"),
        other => panic!("planner resolved to unexpected engine {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Trees with connected fragments: Auto resolves to dGPMt and the
    /// relation equals the oracle.
    #[test]
    fn auto_on_trees(
        n in 20usize..200,
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        let g = tree::random_tree(n, 4, seed);
        let assign = tree_partition(&g, k);
        let engine = engine_over(&g, &assign, k);
        let q = patterns::random_dag_with_depth(3, 4, 2, 4, seed ^ 0x51);
        let report = engine.query(&q).expect("auto never fails on a valid pattern");
        prop_assert_eq!(report.algorithm, "dGPMt");
        assert_applicable(&engine, &report, true);
        prop_assert_eq!(&report.relation, &hhk_simulation(&q, &g).relation);
    }

    /// DAG graphs with DAG patterns: Auto resolves to dGPMd and the
    /// relation equals the oracle.
    #[test]
    fn auto_on_dags(
        n in 40usize..300,
        em in 2usize..4,
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        let g = dag::citation_like(n, em * n, 5, seed);
        let assign = hash_partition(n, k, seed);
        let engine = engine_over(&g, &assign, k);
        let q = patterns::random_dag_with_depth(4, 6, 2, 5, seed ^ 0x52);
        let report = engine.query(&q).expect("auto never fails on a valid pattern");
        prop_assert_eq!(report.algorithm, "dGPMd");
        assert_applicable(&engine, &report, true);
        prop_assert_eq!(&report.relation, &hhk_simulation(&q, &g).relation);
    }

    /// Cyclic graphs with cyclic patterns: Auto falls back to dGPMs
    /// and the relation equals the oracle.
    #[test]
    fn auto_on_cyclic(
        n in 30usize..150,
        em in 2usize..5,
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        let g = random::uniform(n, em * n, 4, seed);
        let assign = hash_partition(n, k, seed);
        let engine = engine_over(&g, &assign, k);
        let q = patterns::random_cyclic(3, 6, 4, seed ^ 0x53);
        let report = engine.query(&q).expect("auto never fails on a valid pattern");
        assert_applicable(&engine, &report, dgs::graph::algo::pattern_is_dag(&q));
        // If G happened to come out acyclic the planner may
        // short-circuit, but only where ∅ is the maximum relation: an
        // Auto relation is the fixpoint either way.
        if report.algorithm != "trivial-∅" {
            prop_assert_eq!(report.algorithm, "dGPMs");
        }
        prop_assert_eq!(&report.relation, &hhk_simulation(&q, &g).relation);
    }

    /// Whatever the workload, Auto (a) never panics, (b) never errors
    /// on a non-empty pattern, and (c) agrees with the oracle at the
    /// answer level.
    #[test]
    fn auto_total_on_arbitrary_workloads(
        n in 20usize..120,
        em in 1usize..5,
        k in 1usize..5,
        nq in 2usize..5,
        seed in any::<u64>(),
    ) {
        let g = random::uniform(n, em * n, 3, seed);
        let assign = hash_partition(n, k, seed);
        let engine = engine_over(&g, &assign, k);
        let q = patterns::random_cyclic(nq, nq + 2, 3, seed ^ 0x54);
        let report = engine.query(&q).expect("auto never fails on a valid pattern");
        let oracle = hhk_simulation(&q, &g);
        prop_assert_eq!(report.is_match, oracle.relation.is_total());
        if report.is_match {
            prop_assert_eq!(report.answer(), &oracle.relation);
        } else {
            prop_assert!(report.answer().is_empty());
        }
    }

    /// Boolean queries agree between the Virtual and Threaded
    /// executors (and with the data-selecting answer).
    #[test]
    fn query_boolean_executor_agreement(
        n in 20usize..100,
        em in 1usize..4,
        k in 1usize..4,
        seed in any::<u64>(),
    ) {
        let g = random::uniform(n, em * n, 3, seed);
        let assign = hash_partition(n, k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let q = patterns::random_cyclic(3, 5, 3, seed ^ 0x55);
        let virt = SimEngine::builder(&g, Arc::clone(&frag)).build();
        let thr = SimEngine::builder(&g, frag)
            .executor(ExecutorKind::Threaded)
            .build();
        let bv = virt.query_boolean(&q).unwrap();
        let bt = thr.query_boolean(&q).unwrap();
        prop_assert_eq!(bv.is_match, bt.is_match);
        prop_assert_eq!(bv.is_match, virt.query(&q).unwrap().is_match);
        prop_assert_eq!(bv.is_match, hhk_simulation(&q, &g).relation.is_total());
    }

    /// The identity `query_boolean_with` rests on: a Boolean query is
    /// the data-selecting one without its rows — same verdict, engine,
    /// plan and metrics, for `Auto` and every explicit engine that
    /// applies. The exception is an explicit `dGPM`, whose sites ship
    /// the same data and then a 9-byte verdict each (§4.1).
    #[test]
    fn boolean_query_is_the_query_without_rows(
        shape in 0usize..3,
        n in 20usize..100,
        k in 1usize..4,
        seed in any::<u64>(),
    ) {
        let (g, assign, q) = match shape {
            0 => {
                let g = tree::random_tree(n, 4, seed);
                let assign = tree_partition(&g, k);
                (g, assign, patterns::random_dag_with_depth(3, 4, 2, 4, seed ^ 0x51))
            }
            1 => (
                dag::citation_like(n, 2 * n, 4, seed),
                hash_partition(n, k, seed),
                patterns::random_dag_with_depth(3, 5, 2, 4, seed ^ 0x53),
            ),
            _ => (
                random::uniform(n, 3 * n, 3, seed),
                hash_partition(n, k, seed),
                patterns::random_cyclic(3, 5, 3, seed ^ 0x55),
            ),
        };
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).cache_capacity(0).build();
        for algorithm in [
            Algorithm::Auto,
            Algorithm::Dgpmd,
            Algorithm::Dgpms,
            Algorithm::Dgpmt,
            Algorithm::MatchCentral,
            Algorithm::DisHhk,
            Algorithm::DMes,
            Algorithm::dgpm(),
            Algorithm::dgpm_nopt(),
            Algorithm::dgpm_incremental_only(),
        ] {
            let boolean = engine.query_boolean_with(&algorithm, &q);
            let full = match engine.query_with(&algorithm, &q) {
                Ok(full) => full,
                // Not applicable to this input: refused alike.
                Err(e) => {
                    prop_assert_eq!(boolean.unwrap_err(), e);
                    continue;
                }
            };
            let boolean = boolean.unwrap();
            prop_assert_eq!(boolean.is_match, full.is_match);
            if let Algorithm::Dgpm(_) = algorithm {
                prop_assert_eq!(boolean.metrics.data_bytes, full.metrics.data_bytes);
                prop_assert_eq!(boolean.metrics.result_bytes, 9 * k as u64);
                continue;
            }
            prop_assert_eq!(boolean.algorithm, full.algorithm);
            prop_assert_eq!(boolean.plan.to_string(), full.plan.to_string());
            let (mut b, mut f) = (boolean.metrics, full.metrics);
            b.wall_time = std::time::Duration::ZERO;
            f.wall_time = std::time::Duration::ZERO;
            prop_assert_eq!(b, f);
        }
    }
}

/// The 10-pattern batch acceptance scenario: one engine build, ten
/// queries, per-query metrics, one amortized broadcast.
#[test]
fn ten_pattern_batch_against_one_engine() {
    let n = 400;
    let k = 4;
    let g = random::uniform(n, 4 * n, 5, 77);
    let assign = hash_partition(n, k, 77);
    // Exactly one fragmentation build for the whole batch.
    let frag = Arc::new(Fragmentation::build(&g, &assign, k));
    let engine = SimEngine::builder(&g, Arc::clone(&frag)).build();
    assert!(Arc::ptr_eq(&engine.fragmentation(), &frag));

    let qs: Vec<Pattern> = (0..10)
        .map(|i| patterns::random_cyclic(3, 6, 5, 1000 + i))
        .collect();
    let batch = engine.query_batch(&qs);
    assert_eq!(batch.reports.len(), 10);
    assert_eq!(batch.succeeded(), 10);
    for (r, q) in batch.reports.iter().zip(&qs) {
        let r = r.as_ref().unwrap();
        // Per-query metrics are reported...
        assert!(r.metrics.total_ops > 0);
        // ... and per-query answers match the oracle.
        assert_eq!(r.relation, hhk_simulation(q, &g).relation);
    }
    // The batch broadcast is amortized: |F| control messages for the
    // posting of all 10 patterns, not 10 * |F|.
    let per_query_control: u64 = batch
        .reports
        .iter()
        .map(|r| r.as_ref().unwrap().metrics.control_messages)
        .sum();
    assert_eq!(batch.total.control_messages, per_query_control + k as u64);
}

/// In-degrees alone do not make a tree: node 0 without a parent and
/// every other node with one also fits an isolated node 0 beside a
/// cycle `1 → 2 → 1`. `Auto` must not plan `dGPMt` there (its
/// two-round bound assumes a tree), and an explicit `dGPMt` is a typed
/// refusal — not the `trivial-∅` a tree would justify for a cyclic
/// pattern, since this graph has a cycle that matches it.
#[test]
fn isolated_root_beside_a_cycle_is_not_a_tree() {
    let mut gb = GraphBuilder::new();
    for l in 0..3 {
        gb.add_node(Label(l));
    }
    gb.add_edge(NodeId(1), NodeId(2));
    gb.add_edge(NodeId(2), NodeId(1));
    let g = gb.build();
    let mut qb = PatternBuilder::new();
    let (a, b) = (qb.add_node(Label(1)), qb.add_node(Label(2)));
    qb.add_edge(a, b);
    qb.add_edge(b, a);
    let q = qb.build();
    let engine = engine_over(&g, &[0, 1, 1], 2);

    assert_ne!(engine.plan(&q).unwrap().algorithm, "dGPMt");
    let report = engine.query(&q).unwrap();
    assert_ne!(report.algorithm, "dGPMt");
    assert!(report.is_match);
    assert_eq!(report.relation, hhk_simulation(&q, &g).relation);

    match engine.query_with(&Algorithm::Dgpmt, &q) {
        Err(DgsError::Unsupported { algorithm, .. }) => assert_eq!(algorithm, "dGPMt"),
        other => panic!("explicit dGPMt on a non-tree: {other:?}"),
    }
}
