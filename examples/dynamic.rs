//! Dynamic graphs: a `SimEngine` session absorbing live edge updates.
//!
//! Both directions drive **distributed incremental maintenance**, so
//! the warm cache keeps answering with **zero** protocol runs.
//! Deletions (unfollows, revoked recommendations) shrink the relation:
//! every site replays the HHK counter update on its fragment and ships
//! in-node falsifications to its subscriber sites, exactly like dGPM
//! data messages. Insertions grow it: the sites mark the affected area
//! `AFF` — the false, label-compatible pairs backward-reachable from
//! an inserted edge's source — flip those pairs to true and refine;
//! the survivors are the resurrected matches. The cost follows `|AFF|`,
//! not the graph.
//!
//! ```text
//! cargo run --release --example dynamic
//! ```

use dgs::prelude::*;
use std::sync::Arc;

fn main() {
    let fig1 = dgs::graph::generate::social::fig1();
    let pattern = fig1.pattern.clone();
    let n = 5_000;
    let graph = dgs::graph::generate::social::social_network(n, 4 * n, 8, &pattern, 25, 7);
    let assign = hash_partition(graph.node_count(), 4, 7);
    let frag = Arc::new(Fragmentation::build(&graph, &assign, 4));
    let engine = SimEngine::builder(&graph, frag).build();
    println!(
        "session: |V| = {}, |E| = {}, |F| = 4, |Ef| = {}",
        graph.node_count(),
        graph.edge_count(),
        engine.fragmentation().ef()
    );

    // Load the cache with a cold run.
    let cold = engine.query(&pattern).unwrap();
    println!(
        "cold query: {} pairs via {} ({} data msgs)",
        cold.relation.len(),
        cold.algorithm,
        cold.metrics.data_messages
    );

    // A stream of unfollows: three delete-only batches.
    let mut edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    for batch in 0..3 {
        let dels: Vec<(NodeId, NodeId)> = edges.split_off(edges.len() - 40);
        let report = engine.apply_delta(&GraphDelta::deletions(dels)).unwrap();
        println!(
            "\nbatch {batch}: -{} edges (crossing {}), maintained {} entr{} — \
             {} pairs revoked, {} falsification msgs",
            report.deleted,
            report.crossing_deleted,
            report.maintained_entries,
            if report.maintained_entries == 1 {
                "y"
            } else {
                "ies"
            },
            report.revoked_pairs,
            report.metrics.data_messages,
        );
        let warm = engine.query(&pattern).unwrap();
        assert_eq!(warm.metrics.cache_hits, 1);
        assert_eq!(warm.metrics.data_messages, 0);
        let note = warm.plan.incremental.expect("incremental leg recorded");
        println!(
            "  warm query: {} pairs, served from the maintained entry \
             ({} deletions absorbed over {} runs, zero messages)",
            warm.relation.len(),
            note.deletions_absorbed,
            note.maintenance_runs
        );
    }

    // The last batch of unfollows is undone: a recurrent edge coming
    // back is the common case of a changing graph. The entry is
    // maintained, not dropped — only the affected area is touched.
    let back: Vec<(NodeId, NodeId)> = graph.edges().skip(edges.len()).take(40).collect();
    let report = engine.apply_delta(&GraphDelta::insertions(back)).unwrap();
    assert_eq!(report.maintained_entries, 1);
    println!(
        "\ninsertions: +{} edges (crossing {}), maintained {} entr{} — \
         {} pairs affected, {} resurrected, {} charged ops (generation {})",
        report.inserted,
        report.crossing_inserted,
        report.maintained_entries,
        if report.maintained_entries == 1 {
            "y"
        } else {
            "ies"
        },
        report.affected_pairs(),
        report.resurrected_pairs,
        report.metrics.total_ops,
        report.generation
    );
    let fresh = engine.query(&pattern).unwrap();
    assert_eq!(fresh.metrics.cache_hits, 1);
    assert_eq!(fresh.metrics.data_messages, 0);
    println!(
        "warm query: {} pairs, still served from the maintained entry",
        fresh.relation.len()
    );

    // The session stayed exact throughout.
    let oracle = hhk_simulation(&pattern, &engine.graph());
    assert_eq!(fresh.relation, oracle.relation);
    println!("\nfinal relation equals the centralized oracle: ✓");
}
