//! Serving mode: one shared `SimEngine` under concurrent traffic.
//!
//! Builds a session over a labeled web-like graph with both serving
//! features on — the parallel batch pool and the pattern-result
//! cache — then drives it from four client threads at once and shows
//! that repeat and isomorphic submissions are served from cache with
//! zero protocol messages.
//!
//! ```text
//! cargo run --example serving
//! ```

use dgs::prelude::*;
use std::sync::Arc;

fn main() {
    let g = dgs::graph::generate::random::web_like(600, 2_400, 4, 7);
    let assign = hash_partition(g.node_count(), 4, 7);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 4));

    // One engine for the whole process: SimEngine is Send + Sync, so
    // threads share it by reference; the cache is shared too.
    let engine = SimEngine::builder(&g, frag).cache_capacity(256).build();

    // Four clients, each submitting its own mixed stream — with
    // overlapping patterns, so later clients hit entries cached by
    // earlier ones.
    let queries: Vec<Pattern> = (0..12)
        .map(|i| dgs::graph::generate::patterns::random_cyclic(3, 6, 4, 100 + (i % 6)))
        .collect();
    std::thread::scope(|s| {
        for client in 0..4 {
            let engine = &engine;
            let queries = &queries;
            s.spawn(move || {
                for (i, q) in queries.iter().enumerate() {
                    let r = engine.query(q).expect("valid pattern");
                    if client == 0 && i < 3 {
                        println!(
                            "client {client} query {i}: {} -> {} pairs (cache_hits = {})",
                            r.algorithm,
                            r.answer().len(),
                            r.metrics.cache_hits
                        );
                    }
                }
            });
        }
    });
    let stats = engine.cache_stats().expect("cache enabled");
    println!(
        "after 4 clients x {} queries: {} distinct entries, {} hits, {} misses",
        queries.len(),
        stats.entries,
        stats.hits,
        stats.misses
    );

    // A batch through the worker pool; a repeat of the same batch is
    // pure cache traffic.
    let batch = engine.query_batch(&queries);
    println!(
        "warm batch: {}/{} answered, {} cache hits, {} protocol messages",
        batch.succeeded(),
        queries.len(),
        batch.total.cache_hits,
        batch.total.data_messages + batch.total.control_messages
    );
    assert_eq!(batch.total.data_messages + batch.total.control_messages, 0);

    // Isomorphic re-submission: the same pattern with renumbered
    // nodes still hits.
    let mut b = PatternBuilder::new();
    let y = b.add_node(Label(1));
    let x = b.add_node(Label(0));
    b.add_edge(x, y);
    let q1 = b.build();
    let mut b = PatternBuilder::new();
    let x = b.add_node(Label(0));
    let y = b.add_node(Label(1));
    b.add_edge(x, y);
    let q2 = b.build();
    let cold = engine.query(&q1).unwrap();
    let warm = engine.query(&q2).unwrap();
    println!(
        "isomorphic resubmission: cold cache_hits = {}, renumbered cache_hits = {}",
        cold.metrics.cache_hits, warm.metrics.cache_hits
    );
    assert_eq!(warm.metrics.cache_hits, 1);
    // The served relation is re-expressed in q2's numbering: q2's
    // node 0 is q1's node 1 and vice versa.
    assert_eq!(
        warm.relation.matches_of(QNodeId(0)),
        cold.relation.matches_of(QNodeId(1))
    );
    assert_eq!(
        warm.relation.matches_of(QNodeId(1)),
        cold.relation.matches_of(QNodeId(0))
    );
}
