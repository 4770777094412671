//! Dynamic-graph integration tests: `SimEngine::apply_delta` followed
//! by queries must agree with building a fresh engine on the mutated
//! graph, across tree/DAG/cyclic workloads and engines — and a
//! delete-only stream must be answered with zero full re-evaluations
//! (the plan records the incremental leg).

use dgs::graph::generate::{adversarial, dag, patterns, random, tree};
use dgs::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Applies a delta to a graph the slow way (the scratch baseline).
fn mutated(g: &Graph, delta: &GraphDelta) -> Graph {
    let mut b = GraphBuilder::new();
    for v in g.nodes() {
        b.add_node(g.label(v));
    }
    for (u, v) in g.edges() {
        if !delta.delete_edges.contains(&(u, v)) {
            b.add_edge(u, v);
        }
    }
    for &(u, v) in &delta.insert_edges {
        b.add_edge(u, v);
    }
    b.build()
}

/// Deterministic op stream: deletions of existing edges (crossing and
/// local alike) interleaved with insertions of absent edges. A batch
/// is a *set* of ops, so the two lists are kept disjoint: only
/// original edges are deleted, and nothing deleted is re-inserted.
fn op_stream(g: &Graph, nops: usize, deletions_only: bool, seed: u64) -> GraphDelta {
    let n = g.node_count() as u64;
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let mut touched: std::collections::HashSet<(NodeId, NodeId)> = edges.iter().copied().collect();
    let mut delta = GraphDelta::default();
    let mut s = seed;
    for i in 0..nops {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if (deletions_only || i % 2 == 0) && !edges.is_empty() {
            let at = (s >> 33) as usize % edges.len();
            delta.delete_edges.push(edges.swap_remove(at));
        } else if !deletions_only {
            let u = NodeId(((s >> 20) % n) as u32);
            let v = NodeId(((s >> 40) % n) as u32);
            // `touched` holds every original edge plus every insert,
            // so an insert can collide with neither list.
            if touched.insert((u, v)) {
                delta.insert_edges.push((u, v));
            }
        }
    }
    delta
}

/// Insertion-only op stream: absent edges picked uniformly, disjoint
/// from the original edge set and from each other.
fn insert_stream(g: &Graph, nops: usize, seed: u64) -> GraphDelta {
    let n = g.node_count() as u64;
    let mut touched: std::collections::HashSet<(NodeId, NodeId)> = g.edges().collect();
    let mut delta = GraphDelta::default();
    let mut s = seed;
    for _ in 0..nops * 20 {
        if delta.insert_edges.len() >= nops {
            break;
        }
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = NodeId(((s >> 20) % n) as u32);
        let v = NodeId(((s >> 40) % n) as u32);
        if touched.insert((u, v)) {
            delta.insert_edges.push((u, v));
        }
    }
    delta
}

/// The wire-row view of a relation (sorted node list per query node).
fn relation_rows(relation: &MatchRelation) -> Vec<Vec<u32>> {
    (0..relation.query_nodes())
        .map(|u| {
            relation
                .matches_of(QNodeId(u as u16))
                .iter()
                .map(|v| v.0)
                .collect()
        })
        .collect()
}

/// The benchmark's churn: each batch deletes `half` present edges and
/// inserts up to `half` absent ones, every other insertion an earlier
/// deletion coming back (recurrent) and the rest fresh.
struct Churn {
    s: u64,
    graveyard: Vec<(NodeId, NodeId)>,
}

impl Churn {
    fn new(seed: u64) -> Self {
        Churn {
            s: seed,
            graveyard: Vec::new(),
        }
    }

    fn next(&mut self, bound: usize) -> usize {
        self.s = self
            .s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.s >> 33) as usize % bound
    }

    /// The next batch, valid against `mirror`.
    fn batch(&mut self, mirror: &Graph, half: usize) -> GraphDelta {
        let n = mirror.node_count();
        let mut delta = GraphDelta::default();
        for i in 0..half {
            let fresh = (NodeId(self.next(n) as u32), NodeId(self.next(n) as u32));
            let e = if i % 2 == 0 && !self.graveyard.is_empty() {
                let at = self.next(self.graveyard.len());
                self.graveyard.swap_remove(at)
            } else {
                fresh
            };
            if !mirror.has_edge(e.0, e.1) && !delta.insert_edges.contains(&e) {
                delta.insert_edges.push(e);
            }
        }
        let mut present: Vec<(NodeId, NodeId)> = mirror.edges().collect();
        for _ in 0..half {
            let at = self.next(present.len());
            delta.delete_edges.push(present.swap_remove(at));
        }
        self.graveyard.extend(&delta.delete_edges);
        delta
    }
}

/// `wanted` cyclic patterns over `labels` labels with distinct
/// canonical forms (isomorphic patterns share a cache entry).
fn distinct_cyclic_patterns(wanted: usize, labels: usize, seed: u64) -> Vec<Pattern> {
    let mut keys = std::collections::HashSet::new();
    (0..4 * wanted as u64)
        .map(|i| {
            patterns::random_cyclic(3 + (i % 3) as usize, 5 + (i % 4) as usize, labels, seed ^ i)
        })
        .filter(|q| keys.insert(SimEngine::pattern_canon(q).0))
        .take(wanted)
        .collect()
}

/// A three-node ring with a chord, labels drawn from `seed`: every node
/// reaches the cycle, so on an acyclic graph `∅` is its maximum
/// relation and the planner short-circuits it to `trivial-∅` — until an
/// insertion closes a cycle of the graph.
fn ring_pattern(labels: usize, seed: u64) -> Pattern {
    let mut b = PatternBuilder::new();
    let u: Vec<QNodeId> = (0..3)
        .map(|i| b.add_node(Label((seed >> (16 * i)) as u16 % labels as u16)))
        .collect();
    for i in 0..3 {
        b.add_edge(u[i], u[(i + 1) % 3]);
    }
    b.add_edge(u[0], u[2]);
    b.build()
}

/// Asserts that the delta-applied engine answers `q` exactly like a
/// fresh engine over the mutated graph, for every given algorithm.
fn assert_delta_equals_scratch(
    engine: &SimEngine,
    g2: &Graph,
    assign: &[usize],
    k: usize,
    q: &Pattern,
    algorithms: &[Algorithm],
) {
    let frag2 = Arc::new(Fragmentation::build(g2, assign, k));
    let scratch = SimEngine::builder(g2, frag2).cache_capacity(0).build();
    for algo in algorithms {
        let a = engine.query_with(algo, q);
        let b = scratch.query_with(algo, q);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.relation, b.relation, "{} answers differ", algo.name());
                assert_eq!(a.algorithm, b.algorithm, "resolved engines differ");
                assert_eq!(a.relation, hhk_simulation(q, g2).relation);
            }
            (Err(ea), Err(eb)) => assert_eq!(ea, eb),
            (a, b) => panic!(
                "delta/scratch disagree on applicability of {}: {a:?} vs {b:?}",
                algo.name()
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Cyclic workloads (dGPM / dGPMs territory), mixed insert+delete
    /// streams with cross-fragment ops.
    #[test]
    fn delta_equals_scratch_cyclic(
        n in 20usize..70,
        em in 2usize..5,
        k in 2usize..5,
        nops in 1usize..30,
        seed in any::<u64>(),
    ) {
        let g = random::uniform(n, n * em, 4, seed);
        let q = patterns::random_cyclic(3, 6, 4, seed ^ 0x51);
        let assign = hash_partition(n, k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).cache_capacity(0).build();
        let delta = op_stream(&g, nops, false, seed ^ 0xD17A);
        engine.apply_delta(&delta).unwrap();
        let g2 = mutated(&g, &delta);
        assert_delta_equals_scratch(
            &engine, &g2, &assign, k, &q,
            &[Algorithm::Auto, Algorithm::Dgpms, Algorithm::dgpm()],
        );
    }

    /// Tree workloads: deletions break the rooted tree, so the planner
    /// must re-plan away from dGPMt on the delta-applied session too.
    #[test]
    fn delta_equals_scratch_tree(
        n in 20usize..90,
        k in 2usize..5,
        nops in 1usize..12,
        seed in any::<u64>(),
    ) {
        let g = tree::random_tree(n, 4, seed);
        let q = patterns::random_dag_with_depth(3, 4, 2, 4, seed ^ 0x7E3);
        let assign = tree_partition(&g, k);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).cache_capacity(0).build();
        let delta = op_stream(&g, nops, true, seed ^ 0x17EE);
        engine.apply_delta(&delta).unwrap();
        let g2 = mutated(&g, &delta);
        // dGPMt's precondition fails identically on both sides (the
        // mutated graph is a forest), which the helper checks via the
        // Err/Err arm.
        assert_delta_equals_scratch(
            &engine, &g2, &assign, k, &q,
            &[Algorithm::Auto, Algorithm::Dgpmt, Algorithm::Dgpmd],
        );
    }

    /// DAG workloads: insertions may close cycles, flipping the
    /// planner's short-circuit; facts must be recomputed.
    #[test]
    fn delta_equals_scratch_dag(
        n in 20usize..80,
        k in 2usize..5,
        nops in 1usize..24,
        seed in any::<u64>(),
    ) {
        let g = dag::citation_like(n, 3 * n, 4, seed);
        let qd = patterns::random_dag_with_depth(3, 5, 2, 4, seed ^ 0xA1);
        let qc = ring_pattern(4, seed ^ 0xA2);
        let assign = hash_partition(n, k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).cache_capacity(0).build();
        let delta = op_stream(&g, nops, false, seed ^ 0xDA6);
        engine.apply_delta(&delta).unwrap();
        let g2 = mutated(&g, &delta);
        assert_delta_equals_scratch(
            &engine, &g2, &assign, k, &qd,
            &[Algorithm::Auto, Algorithm::Dgpmd],
        );
        // The ring exercises the trivial-∅ flip.
        let flipped = engine.query(&qc).unwrap().algorithm != "trivial-∅";
        prop_assert_eq!(flipped, !engine.facts().is_dag);
        assert_delta_equals_scratch(&engine, &g2, &assign, k, &qc, &[Algorithm::Auto]);
    }

    /// Insertion-only streams on cyclic workloads: the resurrection
    /// side of maintenance alone must agree with a scratch rebuild.
    #[test]
    fn delta_equals_scratch_insertions_only_cyclic(
        n in 20usize..70,
        em in 2usize..5,
        k in 2usize..5,
        nops in 1usize..24,
        seed in any::<u64>(),
    ) {
        let g = random::uniform(n, n * em, 4, seed);
        let q = patterns::random_cyclic(3, 6, 4, seed ^ 0x61);
        let assign = hash_partition(n, k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).cache_capacity(0).build();
        let delta = insert_stream(&g, nops, seed ^ 0x1A5);
        engine.apply_delta(&delta).unwrap();
        let g2 = mutated(&g, &delta);
        assert_delta_equals_scratch(
            &engine, &g2, &assign, k, &q,
            &[Algorithm::Auto, Algorithm::Dgpms, Algorithm::dgpm()],
        );
    }

    /// Insertion-only streams on tree workloads: random insertions
    /// usually break the rooted tree, so dGPMt's precondition must
    /// fail identically on the delta-applied and scratch engines.
    #[test]
    fn delta_equals_scratch_insertions_only_tree(
        n in 20usize..90,
        k in 2usize..5,
        nops in 1usize..10,
        seed in any::<u64>(),
    ) {
        let g = tree::random_tree(n, 4, seed);
        let q = patterns::random_dag_with_depth(3, 4, 2, 4, seed ^ 0x63);
        let assign = tree_partition(&g, k);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).cache_capacity(0).build();
        let delta = insert_stream(&g, nops, seed ^ 0x1A7);
        engine.apply_delta(&delta).unwrap();
        let g2 = mutated(&g, &delta);
        assert_delta_equals_scratch(
            &engine, &g2, &assign, k, &q,
            &[Algorithm::Auto, Algorithm::Dgpmt, Algorithm::Dgpmd],
        );
    }

    /// Insertion-only streams on DAG workloads, where an insertion can
    /// close a cycle and flip the planner's short-circuit.
    #[test]
    fn delta_equals_scratch_insertions_only_dag(
        n in 20usize..80,
        k in 2usize..5,
        nops in 1usize..20,
        seed in any::<u64>(),
    ) {
        let g = dag::citation_like(n, 3 * n, 4, seed);
        let qd = patterns::random_dag_with_depth(3, 5, 2, 4, seed ^ 0x65);
        let qc = ring_pattern(4, seed ^ 0x66);
        let assign = hash_partition(n, k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).cache_capacity(0).build();
        let delta = insert_stream(&g, nops, seed ^ 0x1A9);
        engine.apply_delta(&delta).unwrap();
        let g2 = mutated(&g, &delta);
        assert_delta_equals_scratch(
            &engine, &g2, &assign, k, &qd,
            &[Algorithm::Auto, Algorithm::Dgpmd],
        );
        let flipped = engine.query(&qc).unwrap().algorithm != "trivial-∅";
        prop_assert_eq!(flipped, !engine.facts().is_dag);
        assert_delta_equals_scratch(&engine, &g2, &assign, k, &qc, &[Algorithm::Auto]);
    }

    /// With the cache on, an insertion-only stream keeps every
    /// maintained entry exact: zero invalidations, and the warm
    /// re-query is a pure cache hit with no protocol messages.
    #[test]
    fn maintained_entries_stay_exact_across_insertion_batches(
        n in 30usize..70,
        em in 2usize..5,
        k in 2usize..4,
        seed in any::<u64>(),
    ) {
        let g = random::uniform(n, n * em, 4, seed);
        let q = patterns::random_cyclic(3, 6, 4, seed ^ 0x9A);
        let assign = hash_partition(n, k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).build();
        engine.query(&q).unwrap();

        let mut current = g.clone();
        let mut absorbed = 0u64;
        for batch in 0..3u64 {
            let delta = insert_stream(&current, 6, seed ^ (0xC00 + batch));
            if delta.insert_edges.is_empty() {
                break;
            }
            absorbed += delta.insert_edges.len() as u64;
            let report = engine.apply_delta(&delta).unwrap();
            prop_assert_eq!(report.maintained_entries, 1, "insertions never invalidate");
            current = mutated(&current, &delta);

            let warm = engine.query(&q).unwrap();
            prop_assert_eq!(warm.metrics.cache_hits, 1);
            prop_assert_eq!(warm.metrics.data_messages, 0);
            prop_assert_eq!(warm.metrics.control_messages, 0);
            let note = warm.plan.incremental.expect("incremental leg");
            prop_assert_eq!(note.insertions_absorbed, absorbed);
            prop_assert_eq!(note.maintenance_runs, batch + 1);
            prop_assert_eq!(&warm.relation, &hhk_simulation(&q, &current).relation);
        }
    }

    /// The subscription invariant, checked at the engine layer: a warm
    /// snapshot plus the per-batch `maintained_diffs` (translated
    /// through the canonical node mapping) reproduces the oracle
    /// relation at *every* generation of a mixed delta stream, and the
    /// reports chain on `prev_generation → generation` edges.
    #[test]
    fn maintained_diffs_reconstruct_every_generation(
        n in 30usize..70,
        em in 2usize..5,
        k in 2usize..4,
        seed in any::<u64>(),
    ) {
        let g = random::uniform(n, n * em, 4, seed);
        let q = patterns::random_cyclic(3, 6, 4, seed ^ 0x4D);
        let assign = hash_partition(n, k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).build();
        let first = engine.query(&q).unwrap();
        let mut rows = relation_rows(&first.relation);
        let (canon_key, pos_of) = SimEngine::pattern_canon(&q);
        let mut node_at = vec![0usize; pos_of.len()];
        for (u, &p) in pos_of.iter().enumerate() {
            node_at[p as usize] = u;
        }

        let mut cursor = engine.generation();
        let mut current = g.clone();
        for batch in 0..3u64 {
            let delta = op_stream(&current, 8, false, seed ^ (0xD1F + batch));
            if delta.is_empty() {
                break;
            }
            let report = engine.apply_delta(&delta).unwrap();
            prop_assert_eq!(report.prev_generation, cursor, "reports chain prev → gen");
            prop_assert!(report.generation > report.prev_generation);
            cursor = report.generation;
            current = mutated(&current, &delta);

            let diff = report
                .maintained_diffs
                .iter()
                .find(|d| d.canon_key == canon_key)
                .expect("the maintained entry ships its diff in the report");
            for var in &diff.revoked {
                let row = &mut rows[node_at[var.q as usize]];
                if let Ok(i) = row.binary_search(&var.node) {
                    row.remove(i);
                }
            }
            for var in &diff.resurrected {
                let row = &mut rows[node_at[var.q as usize]];
                if let Err(i) = row.binary_search(&var.node) {
                    row.insert(i, var.node);
                }
            }
            let want = hhk_simulation(&q, &current).relation;
            prop_assert_eq!(
                &rows,
                &relation_rows(&want),
                "replayed diffs diverge at batch {}",
                batch
            );
            // ... and the maintained entry itself serves that relation.
            let served = engine.query(&q).unwrap();
            prop_assert_eq!(served.metrics.cache_hits, 1);
            prop_assert_eq!(&served.relation, &want);
        }
    }

    /// With the cache on, a delete-only stream keeps serving from the
    /// maintained entries — exactly, and without any protocol run.
    #[test]
    fn maintained_entries_stay_exact_across_batches(
        n in 30usize..70,
        em in 2usize..5,
        k in 2usize..4,
        seed in any::<u64>(),
    ) {
        let g = random::uniform(n, n * em, 4, seed);
        let q = patterns::random_cyclic(3, 6, 4, seed ^ 0x99);
        let assign = hash_partition(n, k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).build();
        engine.query(&q).unwrap();

        let mut current = g.clone();
        let mut absorbed = 0u64;
        for batch in 0..3u64 {
            let delta = op_stream(&current, 6, true, seed ^ (0xB00 + batch));
            if delta.delete_edges.is_empty() {
                break;
            }
            absorbed += delta.delete_edges.len() as u64;
            let report = engine.apply_delta(&delta).unwrap();
            prop_assert_eq!(report.maintained_entries, 1);
            current = mutated(&current, &delta);

            let warm = engine.query(&q).unwrap();
            // Served from the maintained entry: a cache hit, zero
            // messages, the incremental leg in the plan.
            prop_assert_eq!(warm.metrics.cache_hits, 1);
            prop_assert_eq!(warm.metrics.data_messages, 0);
            prop_assert_eq!(warm.metrics.control_messages, 0);
            let note = warm.plan.incremental.expect("incremental leg");
            prop_assert_eq!(note.deletions_absorbed, absorbed);
            prop_assert_eq!(note.maintenance_runs, batch + 1);
            prop_assert_eq!(&warm.relation, &hhk_simulation(&q, &current).relation);
        }
    }

    /// The benchmark's shape: many maintained entries on one engine
    /// under a long mixed stream whose insertions alternate between
    /// recurrent edges (an earlier deletion coming back) and fresh
    /// ones. Every entry equals the oracle on the test's own mirror of
    /// the graph at every generation, and none is ever dropped —
    /// under every history that could leave the session's shared
    /// reverse adjacency behind the graph: entries that join
    /// mid-stream, a batch that finds nothing to maintain, an
    /// invalidation between two batches, an entry the LRU evicts and a
    /// later query brings back.
    #[test]
    fn many_entries_stay_exact_under_recurrent_and_fresh_churn(
        n in 40usize..90,
        k in 2usize..5,
        wanted in 8usize..17,
        seed in any::<u64>(),
        history in 0usize..5,
    ) {
        const LATE_HALF: usize = 1;
        const EMPTY_CACHE: usize = 2;
        const INVALIDATED: usize = 3;
        const EVICTED: usize = 4;
        /// The batch after which a history takes its turn.
        const TURN: usize = 10;

        let g = random::uniform(n, 4 * n, 3, seed);
        let assign = hash_partition(n, k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let mut qs = distinct_cyclic_patterns(wanted, 3, seed);
        let mut builder = SimEngine::builder(&g, frag);
        let mut strangers = Vec::new();
        if history == EVICTED {
            // Room for every entry and one stranger: the second
            // stranger pushes the least recently asked entry out.
            strangers = qs.split_off(qs.len() - 2);
            builder = builder.cache_capacity(qs.len() + 1);
        }
        let engine = builder.build();
        let mut in_play = if history == LATE_HALF { qs.len() / 2 } else { qs.len() };
        for q in &qs[..in_play] {
            engine.query(q).unwrap();
        }

        let mut mirror = g.clone();
        let mut churn = Churn::new(seed);
        let mut expect_maintained = in_play;
        for batch in 0..30 {
            let delta = churn.batch(&mirror, 4);
            let report = engine.apply_delta(&delta).unwrap();
            prop_assert_eq!(report.ignored, 0);
            prop_assert_eq!(report.maintained_entries, expect_maintained, "batch {}", batch);
            mirror = mutated(&mirror, &delta);

            // Entries this batch did not maintain: asked last, so that
            // caching them evicts a stranger and not one another.
            let cold = match history {
                LATE_HALF if batch == TURN => in_play..qs.len(),
                EMPTY_CACHE if batch == TURN + 1 => 0..qs.len(),
                EVICTED if batch == TURN + 1 => 0..1,
                _ => 0..0,
            };
            in_play = in_play.max(cold.end);
            let maintained = (0..in_play).filter(|i| !cold.contains(i));
            for i in maintained.chain(cold.clone()) {
                let served = engine.query(&qs[i]).unwrap();
                prop_assert_eq!(served.metrics.cache_hits, u64::from(!cold.contains(&i)));
                prop_assert_eq!(
                    &served.relation,
                    &hhk_simulation(&qs[i], &mirror).relation,
                    "batch {}",
                    batch
                );
            }

            expect_maintained = in_play;
            if batch == TURN {
                match history {
                    EMPTY_CACHE => {
                        engine.cache_invalidate_all();
                        expect_maintained = 0;
                    }
                    INVALIDATED => {
                        engine.cache_invalidate_all();
                        for q in &qs {
                            engine.query(q).unwrap();
                        }
                    }
                    EVICTED => {
                        for q in &strangers {
                            engine.query(q).unwrap();
                        }
                    }
                    _ => {}
                }
            }
            if history == EVICTED && batch >= TURN {
                // Two strangers for one entry, then one stranger
                // beside all of them.
                expect_maintained = qs.len() + 1;
            }
        }
    }
}

#[test]
fn cross_fragment_delta_round_trip() {
    // Delete every crossing edge out of site 0, query, then re-insert
    // them: virtual nodes retire and revive in place, and answers stay
    // oracle-exact at each step.
    let n = 120;
    let g = random::community(n, 600, 5, 0.1, 4, 42);
    let q = patterns::random_cyclic(3, 6, 4, 43);
    let assign = hash_partition(n, 3, 42);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
    let mut crossing: Vec<(NodeId, NodeId)> = Vec::new();
    {
        let f0 = frag.fragment(0);
        for u in f0.local_indices() {
            for &t in f0.successors(u) {
                if f0.is_virtual(t) {
                    crossing.push((f0.global_id(u), f0.global_id(t)));
                }
            }
        }
    }
    assert!(!crossing.is_empty(), "community graph must cross sites");

    let engine = SimEngine::builder(&g, frag).build();
    let ef_before = engine.fragmentation().ef();
    let report = engine
        .apply_delta(&GraphDelta::deletions(crossing.iter().copied()))
        .unwrap();
    assert_eq!(report.crossing_deleted, crossing.len());
    assert!(report.virtuals_retired > 0);
    assert_eq!(engine.fragmentation().ef(), ef_before - crossing.len());
    assert_eq!(engine.fragmentation().fragment(0).live_virtuals(), 0);
    let without = engine.query(&q).unwrap();
    assert_eq!(
        without.relation,
        hhk_simulation(&q, &engine.graph()).relation
    );

    let report = engine
        .apply_delta(&GraphDelta::insertions(crossing.iter().copied()))
        .unwrap();
    assert_eq!(report.crossing_inserted, crossing.len());
    assert!(report.virtuals_created > 0);
    assert_eq!(engine.fragmentation().ef(), ef_before);
    let back = engine.query(&q).unwrap();
    assert_eq!(back.relation, hhk_simulation(&q, &g).relation);

    // The round trip restored the fragmentation exactly (modulo inert
    // retired slots): compare against a rebuild.
    let rebuilt = Fragmentation::build(&g, &assign, 3);
    assert_eq!(engine.fragmentation().vf(), rebuilt.vf());
    for site in 0..3 {
        let frag_now = engine.fragmentation();
        let fd = frag_now.fragment(site);
        let fr = rebuilt.fragment(site);
        assert_eq!(fd.n_edges(), fr.n_edges());
        assert_eq!(fd.live_virtuals(), fr.n_virtual());
        let mut ins_d: Vec<u32> = fd.in_nodes().iter().map(|&i| fd.global_id(i).0).collect();
        let mut ins_r: Vec<u32> = fr.in_nodes().iter().map(|&i| fr.global_id(i).0).collect();
        ins_d.sort_unstable();
        ins_r.sort_unstable();
        assert_eq!(ins_d, ins_r);
    }
}

#[test]
fn batch_queries_serve_maintained_entries() {
    // query_batch over a mix of maintained and fresh patterns after a
    // delete-only delta: the maintained one hits with the incremental
    // leg, the fresh one runs cold — and both are exact.
    let g = random::uniform(100, 400, 4, 77);
    let assign = hash_partition(100, 3, 77);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
    let engine = SimEngine::builder(&g, frag).build();
    let warmed = patterns::random_cyclic(3, 6, 4, 770);
    let fresh = patterns::random_cyclic(3, 6, 4, 771);
    engine.query(&warmed).unwrap();

    let dels: Vec<_> = g.edges().take(10).collect();
    engine.apply_delta(&GraphDelta::deletions(dels)).unwrap();

    let batch = engine.query_batch(&[warmed.clone(), fresh.clone()]);
    assert_eq!(batch.succeeded(), 2);
    let served = batch.reports[0].as_ref().unwrap();
    assert_eq!(served.metrics.cache_hits, 1);
    assert!(served.plan.incremental.is_some());
    let cold = batch.reports[1].as_ref().unwrap();
    assert_eq!(cold.metrics.cache_hits, 0);
    for (r, q) in batch.reports.iter().zip([&warmed, &fresh]) {
        assert_eq!(
            r.as_ref().unwrap().relation,
            hhk_simulation(q, &engine.graph()).relation
        );
    }
}

#[test]
fn isomorphic_resubmission_hits_maintained_entry() {
    // The maintained entry lives under the canonical key, so an
    // isomorphic renumbering of the original pattern also serves from
    // it after deletions.
    let g = random::uniform(90, 360, 4, 88);
    let assign = hash_partition(90, 3, 88);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
    let engine = SimEngine::builder(&g, frag).build();

    let mut b = PatternBuilder::new();
    let a = b.add_node(Label(0));
    let c = b.add_node(Label(1));
    let d = b.add_node(Label(2));
    b.add_edge(a, c);
    b.add_edge(c, d);
    b.add_edge(d, a);
    let q = b.build();
    // Same pattern, nodes inserted in reverse order.
    let mut b = PatternBuilder::new();
    let d = b.add_node(Label(2));
    let c = b.add_node(Label(1));
    let a = b.add_node(Label(0));
    b.add_edge(a, c);
    b.add_edge(c, d);
    b.add_edge(d, a);
    let q_iso = b.build();

    engine.query(&q).unwrap();
    let dels: Vec<_> = g.edges().take(12).collect();
    engine.apply_delta(&GraphDelta::deletions(dels)).unwrap();
    let warm = engine.query(&q_iso).unwrap();
    assert_eq!(warm.metrics.cache_hits, 1);
    assert!(warm.plan.incremental.is_some());
    assert_eq!(
        warm.relation,
        hhk_simulation(&q_iso, &engine.graph()).relation
    );
}

/// Hand-built cascades on a single site, where maintenance is plain
/// centralized HHK counter repair: every step's report counts the
/// pairs that moved, and the maintained answer equals
/// `hhk_simulation` of the mutated graph.
#[test]
fn hand_built_cascades_on_one_site() {
    // The adversarial ring: deleting its closing edge falsifies every
    // pair (AFF is the whole graph); re-inserting it must resurrect
    // all of them, although the revived pairs support each other only
    // in a cycle — a fixpoint reachable from above, not by an upward
    // cascade.
    let n = 20;
    let closing = (adversarial::b_node(n), adversarial::a_node(1));
    let ring = (
        adversarial::q0(),
        adversarial::cycle_graph(n),
        vec![
            (GraphDelta::deletions([closing]), 2 * n as u64, 0),
            (GraphDelta::insertions([closing]), 0, 2 * n as u64),
        ],
    );

    // Deleting a self-loop (s, s) falsifies a pair of s itself
    // mid-update; the support decrement for the other query edges
    // must still happen, or s survives with phantom support. All one
    // label, so every query edge targets the same node row.
    let mut pb = PatternBuilder::new();
    let [a, b, c] = [0; 3].map(|l| pb.add_node(Label(l)));
    for (u, v) in [(a, b), (b, a), (b, c), (c, a), (c, b)] {
        pb.add_edge(u, v);
    }
    let mut gb = GraphBuilder::new();
    let s = gb.add_node(Label(0));
    let t = gb.add_node(Label(0));
    gb.add_edge(s, s);
    gb.add_edge(t, s);
    let self_loop = (
        pb.build(),
        gb.build(),
        vec![(GraphDelta::deletions([(s, s)]), 6, 0)],
    );

    for (q, g, steps) in [ring, self_loop] {
        let frag = Arc::new(Fragmentation::build(&g, &vec![0; g.node_count()], 1));
        let engine = SimEngine::builder(&g, frag).build();
        let cold = engine.query(&q).unwrap();
        assert_eq!(cold.relation, hhk_simulation(&q, &g).relation);
        assert!(cold.is_match);

        let mut current = g;
        for (delta, revoked, resurrected) in steps {
            let report = engine.apply_delta(&delta).unwrap();
            assert_eq!(report.maintained_entries, 1);
            assert_eq!(report.revoked_pairs, revoked);
            assert_eq!(report.resurrected_pairs, resurrected);
            current = mutated(&current, &delta);
            let warm = engine.query(&q).unwrap();
            assert_eq!(warm.metrics.cache_hits, 1);
            assert_eq!(warm.relation, hhk_simulation(&q, &current).relation);
            assert_eq!(warm.relation.is_empty(), resurrected == 0);
        }
    }
}

/// Insertion maintenance is charged for the change, not for the graph:
/// ten new edges in an 8 000-node community graph touch a few dozen
/// pairs, where closing the affected area over *nodes* used to reach
/// the giant component and recount it (about 19 ops per node).
#[test]
fn insertion_maintenance_costs_the_change_not_the_graph() {
    let (n, k) = (8_000, 8);
    let g = random::community(n, 5 * n, k, 0.066, 6, 1);
    let assign = random::community_assignment(n, k);
    let frag = Arc::new(Fragmentation::build(&g, &assign, k));
    let engine = SimEngine::builder(&g, frag).build();
    let q = (0..)
        .map(|i| patterns::random_cyclic(4, 5, 6, i))
        .find(|q| hhk_simulation(q, &g).matches())
        .unwrap();
    let before = engine.query(&q).unwrap().relation;
    let false_compatible = q
        .nodes()
        .flat_map(|u| g.nodes().map(move |v| (u, v)))
        .filter(|&(u, v)| q.label(u) == g.label(v) && !before.contains(u, v))
        .count() as u64;

    let delta = insert_stream(&g, 10, 1);
    assert_eq!(delta.insert_edges.len(), 10);
    let report = engine.apply_delta(&delta).unwrap();
    assert_eq!(report.maintained_entries, 1);
    let affected = report.affected_pairs();
    assert!(
        affected <= false_compatible,
        "{affected} > {false_compatible}"
    );
    assert!(
        report.metrics.total_ops < n as u64,
        "{} ops charged for 10 insertions into {n} nodes",
        report.metrics.total_ops
    );
    let warm = engine.query(&q).unwrap();
    assert_eq!(warm.metrics.cache_hits, 1);
    assert_eq!(
        warm.relation,
        hhk_simulation(&q, &mutated(&g, &delta)).relation
    );
}

/// Net-out, across sites: a pair that a batch takes away and gives
/// back is reported in neither direction, and what one batch revokes
/// the next can resurrect — every diff is duplicate-free and composes
/// to the oracle's relation.
#[test]
fn diffs_net_out_within_a_batch_and_compose_across_batches() {
    // The ring broken in batch 1 and mended in batch 2.
    let n = 12;
    let closing = (adversarial::b_node(n), adversarial::a_node(1));
    let ring = (
        adversarial::q0(),
        adversarial::cycle_graph(n),
        vec![
            (GraphDelta::deletions([closing]), 2 * n as u64, 0),
            (GraphDelta::insertions([closing]), 0, 2 * n as u64),
        ],
    );

    // `p`'s only support `s1` is deleted while a parallel one, `s2`,
    // is inserted: the deletion phase revokes `p` and, behind it, both
    // predecessors; the insertion phase brings all three back.
    let mut pb = PatternBuilder::new();
    let (a, b) = (pb.add_node(Label(0)), pb.add_node(Label(1)));
    pb.add_edge(a, b);
    pb.add_edge(b, a);
    let mut gb = GraphBuilder::new();
    let p = gb.add_node(Label(0));
    let s1 = gb.add_node(Label(1));
    let s2 = gb.add_node(Label(1));
    for (u, v) in [(p, s1), (s1, p), (s2, p)] {
        gb.add_edge(u, v);
    }
    let swap = GraphDelta {
        insert_edges: vec![(p, s2)],
        delete_edges: vec![(p, s1)],
    };
    let parallel = (pb.build(), gb.build(), vec![(swap, 0, 0)]);

    for (q, g, steps) in [ring, parallel] {
        let assign: Vec<usize> = (0..g.node_count()).map(|v| v % 3).collect();
        let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
        let engine = SimEngine::builder(&g, frag).build();
        let mut rows = relation_rows(&engine.query(&q).unwrap().relation);
        let (_, pos_of) = SimEngine::pattern_canon(&q);
        let node_at = |canon: u16| pos_of.iter().position(|&p| p == canon).unwrap();

        let mut current = g;
        for (delta, revoked, resurrected) in steps {
            let report = engine.apply_delta(&delta).unwrap();
            assert_eq!(report.revoked_pairs, revoked);
            assert_eq!(report.resurrected_pairs, resurrected);
            let diff = &report.maintained_diffs[0];
            for var in &diff.revoked {
                let row = &mut rows[node_at(var.q)];
                let at = row.binary_search(&var.node).expect("revoked a match");
                row.remove(at);
            }
            for var in &diff.resurrected {
                let row = &mut rows[node_at(var.q)];
                let at = row
                    .binary_search(&var.node)
                    .expect_err("resurrected a non-match");
                row.insert(at, var.node);
            }
            current = mutated(&current, &delta);
            assert_eq!(rows, relation_rows(&hhk_simulation(&q, &current).relation));
        }
        // The graph mirror replays the batches in order: an edge that
        // left and came back is there.
        let edges = |g: &Graph| g.edges().collect::<std::collections::BTreeSet<_>>();
        assert_eq!(edges(&engine.graph()), edges(&current));
    }
}

/// Per site and in global ids, what a fragmentation holds: its edges,
/// its live virtual nodes, and who subscribes to which in-node.
#[allow(clippy::type_complexity)]
fn fragments_by_id(
    frag: &Fragmentation,
) -> Vec<(
    BTreeSet<(u32, u32)>,
    BTreeSet<u32>,
    BTreeMap<u32, Vec<usize>>,
)> {
    let views = frag.fragments().iter().map(|f| {
        let id = |idx: u32| f.global_id(idx).0;
        let edges = f
            .local_indices()
            .flat_map(|u| f.successors(u).iter().map(move |&t| (id(u), id(t))))
            .collect();
        let live = f
            .virtual_indices()
            .filter(|&i| f.is_live_virtual(i))
            .map(id)
            .collect();
        let subscribers = f
            .in_nodes()
            .iter()
            .enumerate()
            .map(|(pos, &idx)| (id(idx), f.in_node_subscribers(pos).to_vec()))
            .collect();
        (edges, live, subscribers)
    });
    views.collect()
}

/// A retired generation's fragmentation becomes the next batch's
/// buffers only when nobody else holds it. Held three ways across five
/// batches — by a caller of `fragmentation()`, by an engine built over
/// that, by queries in flight on another thread — generation *g* is
/// never written to; let go, the session goes back to recycling and
/// stays exact. Nobody asks for the graph on the way, so what
/// `graph()` returns at the end is derived from fifty batches of
/// fragmentation updates alone.
#[test]
fn a_held_generation_is_never_recycled() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let (n, k) = (300, 4);
    let g = random::community(n, 5 * n, k, 0.1, 3, 7);
    let assign = random::community_assignment(n, k);
    let frag = Arc::new(Fragmentation::build(&g, &assign, k));
    let engine = SimEngine::builder(&g, frag).build();
    let qs = distinct_cyclic_patterns(6, 3, 7);
    for q in &qs {
        engine.query(q).unwrap();
    }
    let mut mirror = g.clone();
    let mut churn = Churn::new(7);
    let mut step = |mirror: &mut Graph| {
        let delta = churn.batch(mirror, 6);
        let report = engine.apply_delta(&delta).unwrap();
        assert_eq!(report.maintained_entries, qs.len());
        *mirror = mutated(mirror, &delta);
        for q in &qs {
            let served = engine.query(q).unwrap();
            assert_eq!(served.metrics.cache_hits, 1);
            assert_eq!(served.relation, hhk_simulation(q, mirror).relation);
        }
    };
    // Into the steady state: the built fragmentation is let go of and
    // each generation is written over the one before the last.
    for _ in 0..3 {
        step(&mut mirror);
    }

    let at_g = mirror.clone();
    let held = engine.fragmentation();
    let old = SimEngine::builder(&held.to_graph(), Arc::clone(&held)).build();
    let stop = AtomicBool::new(false);
    let (started, has_started) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        // Cold queries, back to back: each loads a snapshot and runs
        // `lEval` on its fragments while the writer swaps generations.
        let reader = s.spawn(|| {
            let mut answers = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                started.send(()).unwrap();
                let report = engine.query_with(&Algorithm::Dgpms, &qs[0]).unwrap();
                answers.push(report.relation);
            }
            answers
        });
        has_started.recv().unwrap();
        let mut generations = vec![hhk_simulation(&qs[0], &mirror).relation];
        for _ in 0..5 {
            step(&mut mirror);
            generations.push(hhk_simulation(&qs[0], &mirror).relation);
        }
        stop.store(true, Ordering::SeqCst);
        // Every answer was computed at exactly one generation.
        for answer in reader.join().unwrap() {
            assert!(generations.contains(&answer));
        }
    });

    let rebuilt = Fragmentation::build(&at_g, &assign, k);
    assert_eq!(fragments_by_id(&held), fragments_by_id(&rebuilt));
    assert_eq!((held.vf(), held.ef()), (rebuilt.vf(), rebuilt.ef()));
    assert!(*old.graph() == at_g);
    for q in &qs {
        // Evaluated on the held fragments, not served from the cache.
        let cold = old.query_with(&Algorithm::Dgpms, q).unwrap();
        assert_eq!(cold.relation, hhk_simulation(q, &at_g).relation);
    }

    drop((held, old));
    for _ in 8..50 {
        step(&mut mirror);
    }
    assert!(*engine.graph() == mirror);
}

/// A session builds each generation by replaying onto the one the last
/// swap retired; it clones the current one only when it has no such
/// spare. With the built fragmentation held by its caller, a steady
/// churn copies the first two generations and no more. A caller
/// holding `fragmentation()` across a swap costs exactly one copy more,
/// and replay then resumes. Every replayed generation answers cold
/// queries exactly, and the graph derived from the last one is the
/// mirror.
#[test]
fn a_spare_is_replayed_and_only_a_held_generation_copied() {
    let (n, k) = (300, 4);
    let g = random::community(n, 5 * n, k, 0.1, 3, 5);
    let assign = random::community_assignment(n, k);
    let frag = Arc::new(Fragmentation::build(&g, &assign, k));
    let engine = SimEngine::builder(&g, Arc::clone(&frag)).build();
    let qs = distinct_cyclic_patterns(4, 3, 5);
    for q in &qs {
        engine.query(q).unwrap();
    }
    let mut mirror = g.clone();
    let mut churn = Churn::new(5);
    let mut step = |mirror: &mut Graph| {
        let delta = churn.batch(mirror, 6);
        engine.apply_delta(&delta).unwrap();
        *mirror = mutated(mirror, &delta);
        for q in &qs {
            let oracle = hhk_simulation(q, mirror).relation;
            assert_eq!(engine.query(q).unwrap().relation, oracle);
            let cold = engine.query_with(&Algorithm::Dgpms, q).unwrap();
            assert_eq!(cold.relation, oracle);
        }
        engine.stats().generations_copied()
    };
    assert_eq!(step(&mut mirror), 1, "no spare yet");
    assert_eq!(step(&mut mirror), 2, "the built generation is held");
    for _ in 0..20 {
        assert_eq!(step(&mut mirror), 2, "steady churn replays");
    }

    let held = engine.fragmentation();
    let at_g = fragments_by_id(&held);
    assert_eq!(step(&mut mirror), 2, "the spare is the generation before");
    assert_eq!(step(&mut mirror), 3, "the held generation is copied");
    assert_eq!(
        fragments_by_id(&held),
        at_g,
        "a held generation is never written"
    );
    drop(held);
    for _ in 0..10 {
        assert_eq!(step(&mut mirror), 3, "replay resumes");
    }
    assert_eq!(
        fragments_by_id(&frag),
        fragments_by_id(&Fragmentation::build(&g, &assign, k))
    );
    assert!(*engine.graph() == mirror);
}

/// A batch is one maintenance run, however many entries it keeps: a
/// mixed batch takes exactly the four quiescence rounds of `Deleting →
/// Marking → Refining → Gathering` and a deletion-only one two, at one
/// maintained entry and at sixteen, and a batch's control messages
/// (`ShipCand`, `Refine`, `GatherRequest`) do not grow with the entry
/// count.
#[test]
fn a_batch_takes_the_rounds_of_one_run_whatever_the_entry_count() {
    let (n, k) = (400, 4);
    let g = random::community(n, 5 * n, k, 0.1, 3, 11);
    let assign = random::community_assignment(n, k);
    let qs = distinct_cyclic_patterns(16, 3, 11);
    assert_eq!(qs.len(), 16);
    let mut control = Vec::new();
    for entries in [1, 16] {
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).build();
        for q in &qs[..entries] {
            engine.query(q).unwrap();
        }
        let (mut mirror, mut churn) = (g.clone(), Churn::new(11));
        let mut per_batch = Vec::new();
        for batch in 0..8 {
            let mut delta = churn.batch(&mirror, 5);
            if batch % 2 == 1 {
                delta.insert_edges.clear();
            }
            assert!(delta.insert_edges.is_empty() == (batch % 2 == 1));
            let report = engine.apply_delta(&delta).unwrap();
            assert_eq!(report.maintained_entries, entries);
            let rounds = if batch % 2 == 1 { 2 } else { 4 };
            assert_eq!(
                report.metrics.quiescence_rounds, rounds,
                "{entries} entries, batch {batch}"
            );
            per_batch.push(report.metrics.control_messages);
            mirror = mutated(&mirror, &delta);
        }
        for q in &qs[..entries] {
            let served = engine.query(q).unwrap();
            assert_eq!(served.metrics.cache_hits, 1);
            assert_eq!(served.relation, hhk_simulation(q, &mirror).relation);
        }
        control.push(per_batch);
    }
    assert_eq!(control[0], control[1], "control messages per batch");
}
