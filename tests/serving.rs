//! Concurrent-serving tests: one shared `SimEngine` under parallel
//! traffic and the pattern-result cache.
//!
//! The stress test is meant to run with `RUST_TEST_THREADS`
//! unconstrained and in release mode (see the `serving-release` CI
//! job) so the 8 client threads really do hammer the engine
//! concurrently.

use dgs::graph::generate::{patterns, random};
use dgs::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// The issue's compile-time guard: `SimEngine` must be shareable
/// across serving threads.
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn sim_engine_is_send_sync() {
    assert_send_sync::<SimEngine>();
}

/// A mixed stream: cyclic, DAG and path shapes, drawn from a small
/// seed pool so streams overlap (and the cache sees repeats).
fn mixed_pattern(i: usize, labels: usize) -> Pattern {
    let seed = (i % 10) as u64;
    match i % 3 {
        0 => patterns::random_cyclic(3, 6, labels, 900 + seed),
        1 => patterns::random_dag_with_depth(4, 6, 2, labels, 900 + seed),
        _ => patterns::random_cyclic(4, 8, labels, 950 + seed),
    }
}

fn shared_engine(g: &Graph, k: usize, seed: u64) -> SimEngine {
    let assign = hash_partition(g.node_count(), k, seed);
    let frag = Arc::new(Fragmentation::build(g, &assign, k));
    SimEngine::builder(g, frag).build()
}

/// 8 threads × 50 mixed patterns against one shared engine (cache
/// on), every answer checked against the
/// centralized `hhk_simulation` oracle.
#[test]
fn stress_eight_threads_fifty_patterns_vs_oracle() {
    let g = random::uniform(150, 600, 4, 31);
    let engine = shared_engine(&g, 4, 31);
    std::thread::scope(|s| {
        for t in 0..8usize {
            let engine = &engine;
            let g = &g;
            s.spawn(move || {
                for i in 0..50usize {
                    let q = mixed_pattern(t * 50 + i, 4);
                    let report = engine.query(&q).unwrap_or_else(|e| {
                        panic!("thread {t} query {i} failed: {e}");
                    });
                    let oracle = hhk_simulation(&q, g).relation;
                    assert_eq!(
                        report.relation, oracle,
                        "thread {t} query {i} deviates from the oracle"
                    );
                }
            });
        }
    });
    let stats = engine.cache_stats().expect("cache on by default");
    assert!(stats.hits > 0, "overlapping streams must hit the cache");
    assert_eq!(stats.hits + stats.misses, 8 * 50);
}

/// Acceptance check: a repeated query is served from cache with zero
/// protocol messages recorded.
#[test]
fn repeated_query_ships_zero_messages() {
    let g = random::uniform(120, 480, 4, 32);
    let engine = shared_engine(&g, 3, 32);
    let q = patterns::random_cyclic(3, 6, 4, 32);
    let cold = engine.query(&q).unwrap();
    assert_eq!(cold.metrics.cache_hits, 0);
    let warm = engine.query(&q).unwrap();
    assert_eq!(warm.metrics.cache_hits, 1);
    assert_eq!(warm.metrics.data_messages, 0);
    assert_eq!(warm.metrics.control_messages, 0);
    assert_eq!(warm.metrics.result_messages, 0);
    assert_eq!(
        warm.metrics.data_bytes + warm.metrics.control_bytes + warm.metrics.result_bytes,
        0
    );
    assert_eq!(warm.relation, cold.relation);

    // The same for a whole stream: once every pattern has been asked,
    // re-submitting the stream as one batch is served entirely from
    // the cache and ships nothing.
    let stream: Vec<Pattern> = (0..30).map(|i| mixed_pattern(i, 4)).collect();
    let first = engine.query_batch(&stream);
    let again = engine.query_batch(&stream);
    assert_eq!(again.total.cache_hits, stream.len() as u64);
    assert_eq!(
        again.total.data_messages + again.total.control_messages + again.total.result_messages,
        0
    );
    for (a, b) in first.reports.iter().zip(&again.reports) {
        assert_eq!(a.as_ref().unwrap().relation, b.as_ref().unwrap().relation);
    }
}

/// Rebuilds `q` with node `u` inserted at position `perm[u]`.
fn renumber(q: &Pattern, perm: &[usize]) -> Pattern {
    let n = q.node_count();
    let mut node_at = vec![0usize; n];
    for (u, &p) in perm.iter().enumerate() {
        node_at[p] = u;
    }
    let mut b = PatternBuilder::new();
    for &u in &node_at {
        b.add_node(q.label(QNodeId(u as u16)));
    }
    for (u, v) in q.edges() {
        b.add_edge(
            QNodeId(perm[u.index()] as u16),
            QNodeId(perm[v.index()] as u16),
        );
    }
    b.build()
}

/// Batch agreement: the parallel pool returns report-for-report
/// identical results to a forced single-worker run, including batches
/// containing `Err` entries.
#[test]
fn parallel_batch_agrees_with_single_worker() {
    let g = random::uniform(140, 560, 4, 33);
    let assign = hash_partition(g.node_count(), 4, 33);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 4));
    let single = SimEngine::builder(&g, Arc::clone(&frag))
        .batch_workers(1)
        .build();
    let pooled = SimEngine::builder(&g, frag).batch_workers(8).build();

    let mut qs: Vec<Pattern> = (0..20).map(|i| mixed_pattern(i, 4)).collect();
    qs.insert(5, PatternBuilder::new().build()); // Err: empty pattern
    qs.insert(13, PatternBuilder::new().build()); // another Err

    let a = single.query_batch(&qs);
    let b = pooled.query_batch(&qs);
    assert_eq!(a.reports.len(), b.reports.len());
    for (i, (x, y)) in a.reports.iter().zip(&b.reports).enumerate() {
        match (x, y) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.relation, y.relation, "answer {i}");
                assert_eq!(x.is_match, y.is_match, "match {i}");
                assert_eq!(x.algorithm, y.algorithm, "engine {i}");
                assert_eq!(x.plan.to_string(), y.plan.to_string(), "plan {i}");
                assert_eq!(x.metrics.data_messages, y.metrics.data_messages, "dm {i}");
                assert_eq!(x.metrics.data_bytes, y.metrics.data_bytes, "db {i}");
                assert_eq!(
                    x.metrics.control_messages, y.metrics.control_messages,
                    "cm {i}"
                );
                assert_eq!(x.metrics.total_ops, y.metrics.total_ops, "ops {i}");
                assert_eq!(x.metrics.cache_hits, y.metrics.cache_hits, "hits {i}");
            }
            (Err(x), Err(y)) => assert_eq!(x, y, "error {i}"),
            _ => panic!("query {i}: pooled and single-worker disagree on success"),
        }
    }
    assert_eq!(a.succeeded(), b.succeeded());
    assert_eq!(a.total.data_messages, b.total.data_messages);
    assert_eq!(a.total.data_bytes, b.total.data_bytes);
    assert_eq!(a.total.control_messages, b.total.control_messages);
    assert_eq!(a.total.control_bytes, b.total.control_bytes);
    assert_eq!(a.total.total_ops, b.total.total_ops);
    assert_eq!(a.total.cache_hits, b.total.cache_hits);
}

/// Strategy for the cache property tests: a random workload plus a
/// random node permutation for the isomorphic re-submission.
fn cache_workload() -> impl Strategy<Value = (Graph, Pattern, usize, u64)> {
    (
        20usize..90,  // nodes
        2usize..5,    // labels
        3usize..6,    // query nodes
        2usize..5,    // sites
        any::<u64>(), // seed
    )
        .prop_map(|(n, labels, nq, k, seed)| {
            let g = random::uniform(n, 4 * n, labels, seed);
            let q = patterns::random_cyclic(nq, nq + 3, labels, seed ^ 0x51c3);
            (g, q, k, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A cache hit returns a relation identical to a cold run.
    #[test]
    fn cache_hit_equals_cold_run((g, q, k, seed) in cache_workload()) {
        let assign = hash_partition(g.node_count(), k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let cached = SimEngine::builder(&g, Arc::clone(&frag)).build();
        let uncached = SimEngine::builder(&g, frag).cache_capacity(0).build();
        let cold = cached.query(&q).unwrap();
        let warm = cached.query(&q).unwrap();
        let reference = uncached.query(&q).unwrap();
        prop_assert_eq!(&cold.relation, &reference.relation);
        prop_assert_eq!(&warm.relation, &reference.relation);
        prop_assert_eq!(warm.metrics.cache_hits, 1);
        prop_assert_eq!(warm.metrics.data_messages + warm.metrics.control_messages, 0);
    }

    /// Eviction never changes answers: a capacity-2 cache cycled over
    /// five patterns (twice) still answers every query like the
    /// oracle.
    #[test]
    fn eviction_never_changes_answers((g, _q, k, seed) in cache_workload()) {
        let assign = hash_partition(g.node_count(), k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).cache_capacity(2).build();
        let qs: Vec<Pattern> = (0..5)
            .map(|i| patterns::random_cyclic(3, 6, 4, seed ^ (0xe0 + i)))
            .collect();
        for round in 0..2 {
            for (i, q) in qs.iter().enumerate() {
                let r = engine.query(q).unwrap();
                let oracle = hhk_simulation(q, &g).relation;
                prop_assert_eq!(&r.relation, &oracle, "round {} query {}", round, i);
            }
        }
        let stats = engine.cache_stats().unwrap();
        prop_assert!(stats.evictions > 0, "capacity 2 over 5 patterns must evict");
    }

    /// An isomorphic re-submission (renumbered nodes) hits the cache
    /// and the served relation matches the oracle for the renumbered
    /// pattern.
    #[test]
    fn isomorphic_resubmission_hits((g, q, k, seed) in cache_workload()) {
        let assign = hash_partition(g.node_count(), k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).build();
        engine.query(&q).unwrap();

        // A deterministic pseudo-random permutation of the nodes.
        let n = q.node_count();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed | 1;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            perm.swap(i, (state >> 33) as usize % (i + 1));
        }
        let q2 = renumber(&q, &perm);

        let warm = engine.query(&q2).unwrap();
        prop_assert_eq!(warm.metrics.cache_hits, 1, "renumbered pattern must hit");
        let oracle = hhk_simulation(&q2, &g).relation;
        prop_assert_eq!(&warm.relation, &oracle);
    }
}
