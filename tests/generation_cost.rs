//! What a generation costs the allocator. A delta batch builds the
//! next generation from a copy of the current fragmentation and runs
//! one maintenance pass per cached entry; with fragment adjacency in
//! pooled spans, the retired generation's buffers recycled and one
//! reverse adjacency per site, the number of allocations a batch makes
//! follows the batch and the entries — not the graph. Counts repeat
//! exactly for one input, so this is evidence without a clock.

use dgs::graph::generate::{patterns, random};
use dgs::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The system allocator, counting every block it hands out (a
/// `realloc` that may move counts as one). This file holds a single
/// `#[test]`, so nothing else allocates while it counts.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a statistic and touches
// no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ENTRIES: usize = 16;
const SITES: usize = 8;

/// Allocations of each of `measured` steady-state batches of 10
/// deletions and 10 insertions — every other insertion an earlier
/// deletion coming back — on a community graph of `n` nodes with
/// [`ENTRIES`] maintained entries.
fn allocations_per_batch(n: usize, measured: usize) -> Vec<u64> {
    let g = random::community(n, 5 * n, SITES, 0.066, 6, 1);
    let assign = random::community_assignment(n, SITES);
    let frag = Arc::new(Fragmentation::build(&g, &assign, SITES));
    let engine = SimEngine::builder(&g, frag).build();
    let mut keys = std::collections::HashSet::new();
    let qs: Vec<Pattern> = (0..)
        .map(|i| patterns::random_cyclic(4 + (i % 3) as usize, 5 + (i % 3) as usize, 6, i))
        .filter(|q| hhk_simulation(q, &g).matches() && keys.insert(SimEngine::pattern_canon(q).0))
        .take(ENTRIES)
        .collect();
    for q in &qs {
        engine.query(q).unwrap();
    }

    let mut present: Vec<(NodeId, NodeId)> = g.edges().collect();
    let mut graveyard: Vec<(NodeId, NodeId)> = Vec::new();
    let mut s = 1u64;
    let mut next = |bound: usize| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as usize % bound
    };
    // The first batches promote the entries, copy the reverse
    // adjacency and find the built fragmentation still shared.
    let warm_up = 4;
    let mut counts = Vec::new();
    for batch in 0..warm_up + measured {
        let mut delta = GraphDelta::default();
        while delta.insert_edges.len() < 10 {
            let e = if delta.insert_edges.len() % 2 == 0 && !graveyard.is_empty() {
                graveyard.swap_remove(next(graveyard.len()))
            } else {
                (NodeId(next(n) as u32), NodeId(next(n) as u32))
            };
            if e.0 != e.1 && !present.contains(&e) && !delta.insert_edges.contains(&e) {
                delta.insert_edges.push(e);
            }
        }
        for _ in 0..10 {
            delta
                .delete_edges
                .push(present.swap_remove(next(present.len())));
        }
        graveyard.extend(&delta.delete_edges);
        present.extend(&delta.insert_edges);

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = engine.apply_delta(&delta).unwrap();
        let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!((report.inserted, report.deleted), (10, 10));
        assert_eq!(report.maintained_entries, ENTRIES);
        if batch >= warm_up {
            counts.push(made);
        }
    }
    // The batches were real: every entry still equals the oracle.
    let now = engine.graph();
    for q in &qs {
        let served = engine.query(q).unwrap();
        assert_eq!(served.metrics.cache_hits, 1);
        assert_eq!(served.relation, hhk_simulation(q, &now).relation);
    }
    counts
}

#[test]
fn allocations_per_batch_follow_the_change_not_the_graph() {
    let median = |mut counts: Vec<u64>| {
        counts.sort_unstable();
        counts[counts.len() / 2]
    };
    let small = allocations_per_batch(2_000, 12);
    let large = allocations_per_batch(16_000, 12);
    println!("allocations per batch, |V| = 2 000: {small:?}");
    println!("allocations per batch, |V| = 16 000: {large:?}");
    for &made in small.iter().chain(&large) {
        assert!(made < 5_000, "{made} allocations in one batch");
    }
    let (small, large) = (median(small), median(large));
    assert!(
        2 * large < 3 * small && 2 * small < 3 * large,
        "median allocations per batch: {small} on 2 000 nodes, {large} on 16 000"
    );
}
