#![cfg(test)]

use super::*;
use crate::delta::GraphDelta;
use dgs_graph::generate::social::fig1;
use dgs_graph::generate::{dag, patterns, random, tree};
use dgs_partition::{hash_partition, tree_partition};
use dgs_sim::hhk_simulation;

fn engine_for(g: &Graph, k: usize, seed: u64) -> SimEngine {
    let assign = hash_partition(g.node_count(), k, seed);
    let frag = Arc::new(Fragmentation::build(g, &assign, k));
    SimEngine::builder(g, frag).build()
}

#[test]
fn auto_picks_dgpmt_on_trees_and_agrees_with_oracle() {
    let g = tree::random_tree(200, 4, 4);
    let assign = tree_partition(&g, 4);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 4));
    let engine = SimEngine::builder(&g, frag).build();
    let q = patterns::path_pattern(2, &[dgs_graph::Label(0), dgs_graph::Label(1)]);
    let report = engine.query(&q).unwrap();
    assert_eq!(report.algorithm, "dGPMt");
    assert!(report.plan.auto);
    assert_eq!(report.relation, hhk_simulation(&q, &g).relation);
}

#[test]
fn auto_picks_dgpmd_on_dags_and_agrees_with_oracle() {
    let g = dag::citation_like(300, 700, 5, 7);
    let engine = engine_for(&g, 3, 7);
    let q = patterns::random_dag_with_depth(4, 6, 2, 5, 7);
    let report = engine.query(&q).unwrap();
    assert_eq!(report.algorithm, "dGPMd");
    assert_eq!(report.relation, hhk_simulation(&q, &g).relation);
}

#[test]
fn auto_handles_cyclic_workloads_and_agrees_with_oracle() {
    let g = random::uniform(120, 500, 4, 8);
    let engine = engine_for(&g, 3, 8);
    let q = patterns::random_cyclic(3, 6, 4, 8);
    let report = engine.query(&q).unwrap();
    assert_eq!(report.algorithm, "dGPMs");
    assert_eq!(report.relation, hhk_simulation(&q, &g).relation);
}

#[test]
fn auto_short_circuits_cyclic_pattern_on_dag() {
    let g = dag::citation_like(100, 250, 4, 1);
    let engine = engine_for(&g, 3, 1);
    let q = patterns::random_cyclic(3, 5, 4, 1);
    let report = engine.query(&q).unwrap();
    assert_eq!(report.algorithm, "trivial-∅");
    // Asking for dGPMd by name takes the same short-circuit.
    let forced = engine.query_with(&Algorithm::Dgpmd, &q).unwrap();
    for report in [report, forced] {
        assert!(!report.is_match);
        assert!(report.answer().is_empty());
        assert_eq!(report.metrics.data_bytes, 0);
        // The uniform broadcast accounting still posts Q to the sites.
        assert_eq!(report.metrics.control_messages, 3);
    }
}

#[test]
fn absent_label_gives_the_empty_answer() {
    // A pattern whose label does not occur: relation is empty,
    // is_match false, answer empty.
    let g = random::uniform(60, 200, 3, 5);
    let engine = engine_for(&g, 2, 5);
    let mut qb = dgs_graph::PatternBuilder::new();
    qb.add_node(dgs_graph::Label(9));
    let report = engine.query_with(&Algorithm::dgpm(), &qb.build()).unwrap();
    assert!(!report.is_match);
    assert!(report.relation.is_empty());
    assert!(report.answer().is_empty());
}

#[test]
fn names() {
    assert_eq!(Algorithm::Auto.name(), "Auto");
    assert_eq!(Algorithm::dgpm().name(), "dGPM");
    assert_eq!(Algorithm::dgpm_nopt().name(), "dGPMNOpt");
    assert_eq!(Algorithm::dgpm_incremental_only().name(), "dGPM-nopush");
    assert_eq!(Algorithm::Dgpmd.name(), "dGPMd");
    assert_eq!(Algorithm::Dgpms.name(), "dGPMs");
    assert_eq!(Algorithm::Dgpmt.name(), "dGPMt");
    assert_eq!(Algorithm::MatchCentral.name(), "Match");
    assert_eq!(Algorithm::DisHhk.name(), "disHHK");
    assert_eq!(Algorithm::DMes.name(), "dMes");
}

#[test]
fn explicit_engines_error_instead_of_panicking() {
    let g = random::uniform(50, 200, 4, 2);
    let engine = engine_for(&g, 2, 2);
    let q = patterns::random_cyclic(3, 5, 4, 2);
    assert!(matches!(
        engine.query_with(&Algorithm::Dgpmd, &q),
        Err(DgsError::Unsupported {
            algorithm: "dGPMd",
            ..
        })
    ));
    assert!(matches!(
        engine.query_with(&Algorithm::Dgpmt, &q),
        Err(DgsError::Unsupported {
            algorithm: "dGPMt",
            ..
        })
    ));
    // The engine session stays usable after a bad query.
    assert!(engine.query(&q).is_ok());
}

#[test]
fn answer_borrows_instead_of_cloning() {
    let w = fig1();
    let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
    let engine = SimEngine::builder(&w.graph, frag).build();
    let report = engine.query(&w.pattern).unwrap();
    assert!(report.is_match);
    // On a match the answer aliases the relation.
    assert!(std::ptr::eq(report.answer(), &report.relation));
    assert_eq!(report.answer().len(), 11);
}

#[test]
fn boolean_charges_broadcast_uniformly() {
    let w = fig1();
    let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
    let engine = SimEngine::builder(&w.graph, frag).build();
    let q = &w.pattern;
    let b = engine
        .query_boolean_with(&Algorithm::dgpm_incremental_only(), q)
        .unwrap();
    assert!(b.is_match);
    // The Boolean path used to skip the |F|-message broadcast the
    // data-selecting path charges; both paths now include it.
    let broadcast_bytes = (3 * (8 + 3 * q.node_count() + 4 * q.edge_count())) as u64;
    assert!(b.metrics.control_messages >= 3);
    assert!(b.metrics.control_bytes >= broadcast_bytes);
    let full = engine
        .query_with(&Algorithm::dgpm_incremental_only(), q)
        .unwrap();
    // Gather (3) + broadcast (3).
    assert_eq!(full.metrics.control_messages, 6);
    assert!(full.metrics.control_bytes >= broadcast_bytes);
}

#[test]
fn batch_amortizes_the_broadcast() {
    let g = random::uniform(150, 600, 4, 9);
    // Cache off: this test measures the protocol broadcast, and
    // re-queries each pattern individually after the batch.
    let assign = hash_partition(g.node_count(), 5, 9);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 5));
    let engine = SimEngine::builder(&g, frag).cache_capacity(0).build();
    let patterns: Vec<Pattern> = (0..10)
        .map(|i| patterns::random_cyclic(3, 6, 4, 100 + i))
        .collect();
    let batch = engine.query_batch(&patterns);
    assert_eq!(batch.reports.len(), 10);
    assert_eq!(batch.succeeded(), 10);
    for r in &batch.reports {
        let r = r.as_ref().unwrap();
        // Per-query metrics are present and broadcast-free.
        assert!(r.metrics.total_ops > 0);
    }
    // One broadcast for the whole batch...
    let singles: u64 = patterns
        .iter()
        .map(|q| engine.query(q).unwrap().metrics.control_messages)
        .sum();
    // ... so total control messages are |F| * (B - 1) lower than
    // B separate queries.
    assert_eq!(
        batch.total.control_messages,
        singles - 5 * (patterns.len() as u64 - 1)
    );
    // Same answers either way.
    for (r, q) in batch.reports.iter().zip(&patterns) {
        assert_eq!(
            r.as_ref().unwrap().relation,
            engine.query(q).unwrap().relation
        );
    }
}

#[test]
fn batch_isolates_failures() {
    let g = random::uniform(60, 240, 4, 10);
    let engine = engine_for(&g, 2, 10);
    let good = patterns::random_cyclic(3, 5, 4, 10);
    let bad = dgs_graph::PatternBuilder::new().build();
    let batch = engine.query_batch_with(&Algorithm::Auto, &[good.clone(), bad, good]);
    assert_eq!(batch.succeeded(), 2);
    assert!(matches!(
        batch.reports[1],
        Err(DgsError::InvalidPattern { .. })
    ));
}

#[test]
fn threaded_executor_through_the_builder() {
    let w = fig1();
    let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
    let engine = SimEngine::builder(&w.graph, frag)
        .executor(ExecutorKind::Threaded)
        .build();
    let report = engine.query(&w.pattern).unwrap();
    assert!(report.is_match);
}

#[test]
fn repeat_query_hits_the_cache_with_zero_messages() {
    let g = random::uniform(100, 400, 4, 21);
    let engine = engine_for(&g, 3, 21);
    let q = patterns::random_cyclic(3, 6, 4, 21);
    let cold = engine.query(&q).unwrap();
    assert_eq!(cold.metrics.cache_hits, 0);
    assert!(cold.metrics.control_messages > 0);
    let warm = engine.query(&q).unwrap();
    assert_eq!(warm.metrics.cache_hits, 1);
    assert_eq!(warm.metrics.data_messages, 0);
    assert_eq!(warm.metrics.control_messages, 0);
    assert_eq!(warm.metrics.result_messages, 0);
    assert_eq!(warm.metrics.data_bytes, 0);
    assert_eq!(warm.relation, cold.relation);
    assert_eq!(warm.algorithm, cold.algorithm);
    assert!(warm.plan.to_string().contains("cache"));
    let stats = engine.cache_stats().unwrap();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.entries, 1);
}

#[test]
fn explicit_engines_bypass_the_cache() {
    let g = random::uniform(80, 320, 4, 22);
    let engine = engine_for(&g, 3, 22);
    let q = patterns::random_cyclic(3, 6, 4, 22);
    for _ in 0..2 {
        let r = engine.query_with(&Algorithm::Dgpms, &q).unwrap();
        assert_eq!(r.metrics.cache_hits, 0);
        assert!(r.metrics.control_messages > 0);
    }
    assert_eq!(engine.cache_stats().unwrap().entries, 0);
}

#[test]
fn boolean_queries_read_the_cache() {
    let g = random::uniform(90, 360, 4, 23);
    let engine = engine_for(&g, 3, 23);
    let q = patterns::random_cyclic(3, 6, 4, 23);
    let full = engine.query(&q).unwrap();
    let b = engine.query_boolean(&q).unwrap();
    assert_eq!(b.is_match, full.is_match);
    assert_eq!(b.metrics.cache_hits, 1);
    assert_eq!(b.metrics.control_messages, 0);
}

#[test]
fn parallel_batch_matches_single_worker() {
    let g = random::uniform(120, 480, 4, 27);
    let assign = hash_partition(g.node_count(), 4, 27);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 4));
    let seq = SimEngine::builder(&g, Arc::clone(&frag))
        .batch_workers(1)
        .build();
    let par = SimEngine::builder(&g, frag).batch_workers(4).build();
    let mut qs: Vec<Pattern> = (0..8)
        .map(|i| patterns::random_cyclic(3, 6, 4, 270 + i))
        .collect();
    qs.push(dgs_graph::PatternBuilder::new().build()); // an Err entry
    let a = seq.query_batch(&qs);
    let b = par.query_batch(&qs);
    assert_eq!(a.succeeded(), b.succeeded());
    for (x, y) in a.reports.iter().zip(&b.reports) {
        match (x, y) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.relation, y.relation);
                assert_eq!(x.algorithm, y.algorithm);
                assert_eq!(x.plan.to_string(), y.plan.to_string());
                assert_eq!(x.metrics.data_messages, y.metrics.data_messages);
                assert_eq!(x.metrics.control_messages, y.metrics.control_messages);
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("parallel and sequential batches disagree on success"),
        }
    }
    assert_eq!(a.total.data_messages, b.total.data_messages);
    assert_eq!(a.total.control_messages, b.total.control_messages);
    assert_eq!(a.total.cache_hits, b.total.cache_hits);
}

#[test]
fn batch_serves_prewarmed_patterns_from_cache() {
    let g = random::uniform(100, 400, 4, 28);
    let engine = engine_for(&g, 3, 28);
    let q0 = patterns::random_cyclic(3, 6, 4, 280);
    let q1 = patterns::random_cyclic(3, 6, 4, 281);
    engine.query(&q0).unwrap(); // warm q0
    let batch = engine.query_batch(&[q0.clone(), q1.clone()]);
    assert_eq!(batch.succeeded(), 2);
    assert_eq!(batch.reports[0].as_ref().unwrap().metrics.cache_hits, 1);
    assert_eq!(batch.reports[1].as_ref().unwrap().metrics.cache_hits, 0);
    assert_eq!(batch.total.cache_hits, 1);
    // The hit contributes nothing; the total is q1's own run plus
    // one broadcast posting only the pattern that ran (|F| = 3
    // control messages carrying q1's bytes).
    let run = &batch.reports[1].as_ref().unwrap().metrics;
    let broadcast_bytes = (3 * (8 + 3 * q1.node_count() + 4 * q1.edge_count())) as u64;
    assert_eq!(batch.total.control_messages, run.control_messages + 3);
    assert_eq!(
        batch.total.control_bytes,
        run.control_bytes + broadcast_bytes
    );
    assert_eq!(batch.total.data_messages, run.data_messages);
}

#[test]
fn delete_delta_maintains_cache_with_zero_reevaluations() {
    let g = random::uniform(120, 480, 4, 31);
    let assign = hash_partition(g.node_count(), 3, 31);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
    let engine = SimEngine::builder(&g, frag).build();
    let q = patterns::random_cyclic(3, 6, 4, 31);
    let cold = engine.query(&q).unwrap();
    assert_eq!(cold.metrics.cache_hits, 0);

    let deletions: Vec<(dgs_graph::NodeId, dgs_graph::NodeId)> = g.edges().take(15).collect();
    let report = engine
        .apply_delta(&GraphDelta::deletions(deletions.iter().copied()))
        .unwrap();
    assert_eq!(report.deleted, 15);
    assert_eq!(report.maintained_entries, 1);
    assert!(report.generation > 0);

    // The follow-up query is served from the maintained entry:
    // zero protocol work, with the incremental leg in the plan.
    let warm = engine.query(&q).unwrap();
    assert_eq!(warm.metrics.cache_hits, 1);
    assert_eq!(warm.metrics.data_messages, 0);
    assert_eq!(warm.metrics.control_messages, 0);
    let note = warm.plan.incremental.expect("incremental leg recorded");
    assert_eq!(note.deletions_absorbed, 15);
    assert_eq!(note.maintenance_runs, 1);
    assert!(warm.plan.to_string().contains("incremental"));

    // And the maintained answer is exact.
    let mut b = dgs_graph::GraphBuilder::new();
    for v in g.nodes() {
        b.add_node(g.label(v));
    }
    for (u, v) in g.edges() {
        if !deletions.contains(&(u, v)) {
            b.add_edge(u, v);
        }
    }
    let g2 = b.build();
    assert_eq!(warm.relation, hhk_simulation(&q, &g2).relation);
    assert_eq!(engine.graph().edge_count(), g2.edge_count());
}

#[test]
fn insert_delta_maintains_even_the_empty_shortcircuit() {
    // A DAG graph: the cyclic pattern short-circuits to ∅ ...
    let g = dag::citation_like(80, 200, 4, 32);
    let assign = hash_partition(g.node_count(), 3, 32);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
    let engine = SimEngine::builder(&g, frag).build();
    let q = patterns::random_cyclic(3, 5, 4, 32);
    let cold = engine.query(&q).unwrap();
    assert_eq!(cold.algorithm, "trivial-∅");

    // ... until insertions close a cycle. The cached ∅ entry is
    // *maintained*, not invalidated: insertion-side refinement
    // resurrects whatever the back edges revive, and the facts
    // still recompute (the planner would no longer short-circuit a
    // fresh query).
    let mut back_edges = Vec::new();
    for v in g.nodes() {
        for &w in g.successors(v) {
            if !g.has_edge(w, v) && w != v {
                back_edges.push((w, v));
            }
        }
    }
    back_edges.truncate(5);
    let report = engine
        .apply_delta(&GraphDelta::insertions(back_edges))
        .unwrap();
    assert_eq!(report.inserted, 5);
    assert_eq!(report.maintained_entries, 1);
    assert_eq!(report.maintained_diffs.len(), 1);
    assert!(!engine.facts().is_dag);

    let warm = engine.query(&q).unwrap();
    assert_eq!(warm.metrics.cache_hits, 1, "maintained entry hit");
    assert_eq!(warm.metrics.data_messages, 0);
    let note = warm.plan.incremental.expect("incremental leg recorded");
    assert_eq!(note.insertions_absorbed, 5);
    assert_eq!(note.deletions_absorbed, 0);
    assert_eq!(note.maintenance_runs, 1);
    assert_eq!(warm.relation, hhk_simulation(&q, &engine.graph()).relation);
    // The resurrected pairs reported in the diff are exactly the
    // relation's pairs (the entry started empty).
    let diff = &report.maintained_diffs[0];
    assert!(diff.revoked.is_empty());
    assert_eq!(
        diff.resurrected.len() as u64,
        report.resurrected_pairs,
        "single entry accounts for all resurrections"
    );
}

#[test]
fn cyclic_pattern_with_a_sink_is_run_and_maintained_on_a_dag() {
    use dgs_graph::Label;
    // A cyclic pattern with a childless sink: u0 ⇄ u1 plus
    // u0 → u2. On any graph the maximum relation keeps u2's
    // label-compatible matches, so `∅` would be the answer
    // convention, not the fixpoint: the planner runs the pattern,
    // and the cached fixpoint maintains through every batch.
    let mut qb = dgs_graph::PatternBuilder::new();
    let u0 = qb.add_node(Label(0));
    let u1 = qb.add_node(Label(0));
    let u2 = qb.add_node(Label(0));
    qb.add_edge(u0, u1);
    qb.add_edge(u1, u0);
    qb.add_edge(u0, u2);
    let q = qb.build();
    assert!(!crate::plan::empty_rows_are_fixpoint(&q));

    // Acyclic path v0 → v1 → v2 plus two leaf nodes, all label 0.
    let mut b = dgs_graph::GraphBuilder::new();
    let vs: Vec<_> = (0..5).map(|_| b.add_node(Label(0))).collect();
    b.add_edge(vs[0], vs[1]);
    b.add_edge(vs[1], vs[2]);
    let g = b.build();
    let assign = hash_partition(g.node_count(), 2, 7);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 2));
    let engine = SimEngine::builder(&g, frag).build();
    let cold = engine.query(&q).unwrap();
    assert_eq!(cold.algorithm, "dGPMs");
    assert_eq!(cold.relation, hhk_simulation(&q, &g).relation);
    assert!(cold.relation.matches_of(u0).is_empty());
    assert_eq!(cold.relation.matches_of(u2), &vs[..]);

    // A deletion, the same edge back, then an insertion that closes
    // the cycle v0 → v1 → v2 → v0: each batch maintains the entry,
    // and each warm query is an exact cache hit.
    for delta in [
        GraphDelta::deletions([(vs[1], vs[2])]),
        GraphDelta::insertions([(vs[1], vs[2])]),
        GraphDelta::insertions([(vs[2], vs[0])]),
    ] {
        let report = engine.apply_delta(&delta).unwrap();
        assert_eq!(report.maintained_entries, 1);
        let warm = engine.query(&q).unwrap();
        assert_eq!(warm.metrics.cache_hits, 1);
        assert_eq!(warm.relation, hhk_simulation(&q, &engine.graph()).relation);
    }
    assert!(!engine.facts().is_dag);
    let cyclic = engine.query(&q).unwrap();
    // The cycle v0→v1→v2→v0 now carries u0/u1; u2 matches every
    // label-0 node, leaves included.
    assert_eq!(cyclic.relation.matches_of(u0), &vs[..3]);
    assert_eq!(cyclic.relation.matches_of(u2), &vs[..]);
}

#[test]
fn delta_validation_and_noop_semantics() {
    let g = random::uniform(40, 160, 4, 33);
    let assign = hash_partition(g.node_count(), 2, 33);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 2));
    let engine = SimEngine::builder(&g, frag).build();

    // Out-of-range endpoint.
    let bad = GraphDelta::deletions([(dgs_graph::NodeId(0), dgs_graph::NodeId(999))]);
    assert!(matches!(
        engine.apply_delta(&bad),
        Err(DgsError::InvalidDelta { .. })
    ));
    // Same edge on both sides.
    let (u, v) = g.edges().next().unwrap();
    let both = GraphDelta {
        insert_edges: vec![(u, v)],
        delete_edges: vec![(u, v)],
    };
    assert!(matches!(
        engine.apply_delta(&both),
        Err(DgsError::InvalidDelta { .. })
    ));

    // Already-satisfied ops are skipped; re-applying a delta is a
    // no-op that keeps the generation (and the cache) valid.
    let gen0 = engine.generation();
    let delta = GraphDelta::deletions([(u, v)]);
    let first = engine.apply_delta(&delta).unwrap();
    assert_eq!(first.deleted, 1);
    assert_ne!(engine.generation(), gen0);
    let gen1 = engine.generation();
    let second = engine.apply_delta(&delta).unwrap();
    assert_eq!(second.deleted, 0);
    assert_eq!(second.ignored, 1);
    assert_eq!(engine.generation(), gen1);
}

#[test]
fn cache_invalidate_all_moves_to_a_fresh_generation() {
    let g = random::uniform(80, 320, 4, 34);
    let engine = engine_for(&g, 3, 34);
    let q = patterns::random_cyclic(3, 6, 4, 34);
    engine.query(&q).unwrap();
    assert_eq!(engine.query(&q).unwrap().metrics.cache_hits, 1);
    let gen_before = engine.cache_stats().unwrap().generation;
    engine.cache_invalidate_all();
    let stats = engine.cache_stats().unwrap();
    assert!(stats.generation > gen_before);
    assert_eq!(stats.entries, 0);
    // Nothing cached survives: the re-query runs the protocol.
    assert_eq!(engine.query(&q).unwrap().metrics.cache_hits, 0);
}

#[test]
fn a_generation_holds_its_answers_once() {
    let g = random::uniform(100, 400, 4, 38);
    let assign = hash_partition(g.node_count(), 3, 38);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
    let engine = SimEngine::builder(&g, frag).cache_capacity(16).build();
    let qs: Vec<Pattern> = (0..4)
        .map(|i| patterns::random_cyclic(3, 6, 4, 40 + i))
        .collect();
    for q in &qs {
        assert_eq!(engine.query(q).unwrap().metrics.cache_hits, 0);
    }
    assert_eq!(engine.cache_stats().unwrap().entries, 4);
    // Six one-edge batches: each moves every answer to the next
    // generation and leaves no copy behind in the one it retires.
    for (u, v) in g.edges().take(6) {
        let report = engine
            .apply_delta(&GraphDelta::deletions([(u, v)]))
            .unwrap();
        assert_eq!(report.maintained_entries, 4);
    }
    let stats = engine.cache_stats().unwrap();
    assert_eq!((stats.entries, stats.evictions), (4, 0));
    assert_eq!(stats.generation, 6);
    let graph = engine.graph();
    for q in &qs {
        let warm = engine.query(q).unwrap();
        assert_eq!(warm.metrics.cache_hits, 1);
        assert_eq!(warm.relation, hhk_simulation(q, &graph).relation);
    }
    // One counter per event, cumulative across the swaps.
    let stats = engine.cache_stats().unwrap();
    assert_eq!(stats.hits, engine.stats().cache_hits());
    assert_eq!((stats.hits, stats.misses), (4, 4));
}

#[test]
fn a_retired_generation_keeps_what_its_readers_store() {
    let g = random::uniform(100, 400, 4, 39);
    let engine = engine_for(&g, 3, 39);
    let kept = patterns::random_cyclic(3, 6, 4, 39);
    engine.query(&kept).unwrap();
    let retired = engine.snapshot();
    let (u, v) = g.edges().next().unwrap();
    engine
        .apply_delta(&GraphDelta::deletions([(u, v)]))
        .unwrap();
    let entries = engine.cache_stats().unwrap().entries;

    // A reader still on the retired snapshot misses a fresh pattern,
    // runs it there and stores the answer there.
    let q = patterns::random_cyclic(3, 6, 4, 44);
    let (canon, hit) = engine.cache_lookup(&retired, &Algorithm::Auto, &q);
    assert!(hit.is_none());
    let report = engine.run_one(&retired, &Algorithm::Auto, &q, 1).unwrap();
    assert_eq!(report.generation, retired.generation);
    engine.cache_store(&retired, canon.unwrap(), &report);
    assert!(engine
        .cache_lookup(&retired, &Algorithm::Auto, &q)
        .1
        .is_some());

    // The current generation holds no copy of it and misses it.
    assert_eq!(engine.cache_stats().unwrap().entries, entries);
    let current = engine.query(&q).unwrap();
    assert_eq!(current.metrics.cache_hits, 0);
    assert_eq!(current.generation, retired.generation + 1);
    assert_eq!(
        current.relation,
        hhk_simulation(&q, &engine.graph()).relation
    );
}

#[test]
fn every_answer_names_the_generation_it_was_computed_at() {
    let g = random::uniform(90, 360, 4, 35);
    let engine = engine_for(&g, 3, 35);
    let (q0, q1, q2) = (
        patterns::random_cyclic(3, 6, 4, 35),
        patterns::random_cyclic(3, 6, 4, 36),
        patterns::random_cyclic(3, 6, 4, 37),
    );
    let gen0 = engine.generation();
    let miss = engine.query(&q0).unwrap();
    assert_eq!((miss.metrics.cache_hits, miss.generation), (0, gen0));
    let hit = engine.query(&q0).unwrap();
    assert_eq!((hit.metrics.cache_hits, hit.generation), (1, gen0));
    assert_eq!(engine.query_boolean(&q2).unwrap().generation, gen0);
    let flags = engine.query_boolean_with(&Algorithm::dgpm(), &q2).unwrap();
    assert_eq!(flags.generation, gen0);

    // A batch that changes the graph advances the generation by one,
    // and the answers after it name the new one.
    let dels: Vec<_> = g.edges().take(8).collect();
    let report = engine.apply_delta(&GraphDelta::deletions(dels)).unwrap();
    assert_eq!(
        (report.prev_generation, report.generation),
        (gen0, gen0 + 1)
    );
    assert_eq!(engine.generation(), gen0 + 1);
    let batch = engine.query_batch(&[q0.clone(), q1]);
    assert_eq!(batch.generation, gen0 + 1);
    let items: Vec<_> = batch.reports.iter().map(|r| r.as_ref().unwrap()).collect();
    assert_eq!(items[0].metrics.cache_hits, 1, "the maintained entry");
    assert_eq!(items[1].metrics.cache_hits, 0, "a fresh pattern");
    assert!(items.iter().all(|r| r.generation == gen0 + 1));
    assert_eq!(
        items[0].relation,
        hhk_simulation(&q0, &engine.graph()).relation
    );
    assert_eq!(engine.query_boolean(&q2).unwrap().generation, gen0 + 1);
    let flags = engine.query_boolean_with(&Algorithm::dgpm(), &q2).unwrap();
    assert_eq!(flags.generation, gen0 + 1);
}

#[test]
fn plan_is_a_dry_run() {
    let g = tree::random_tree(80, 3, 11);
    let assign = tree_partition(&g, 3);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
    let engine = SimEngine::builder(&g, frag).build();
    let q = patterns::path_pattern(2, &[dgs_graph::Label(0), dgs_graph::Label(1)]);
    let plan = engine.plan(&q).unwrap();
    assert_eq!(plan.algorithm, "dGPMt");
    assert!(plan.to_string().contains("auto"));
}

#[test]
fn plan_is_the_plan_the_query_runs_with() {
    // The dry run and the run come out of the same planning call, so
    // they name the same engine for the same reasons.
    let q = patterns::path_pattern(2, &[dgs_graph::Label(0), dgs_graph::Label(1)]);
    for seed in 0..5 {
        let g = tree::random_tree(200, 4, seed);
        let assign = tree_partition(&g, 3);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
        let engine = SimEngine::builder(&g, frag).cache_capacity(0).build();
        let dry = engine.plan(&q).unwrap();
        let ran = engine.query(&q).unwrap().plan;
        assert_eq!(dry.algorithm, "dGPMt", "seed {seed}");
        assert_eq!(dry.algorithm, ran.algorithm, "seed {seed}");
        assert_eq!(dry.to_string(), ran.to_string(), "seed {seed}");
    }
}

#[test]
fn boolean_query_stores_like_a_query() {
    let g = random::uniform(90, 360, 4, 23);
    let engine = engine_for(&g, 3, 23);
    let q = patterns::random_cyclic(3, 6, 4, 23);
    let b = engine.query_boolean(&q).unwrap();
    assert_eq!(b.metrics.cache_hits, 0);
    assert_eq!(engine.cache_stats().unwrap().entries, 1);
    let warm = engine.query(&q).unwrap();
    assert_eq!(warm.metrics.cache_hits, 1);
    assert_eq!(warm.metrics.data_messages, 0);
    assert_eq!(warm.metrics.control_messages, 0);
    assert_eq!(warm.metrics.result_messages, 0);
    assert_eq!(warm.is_match, b.is_match);
    assert_eq!(warm.relation, hhk_simulation(&q, &g).relation);
}
