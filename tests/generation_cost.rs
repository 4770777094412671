//! What a generation costs the allocator. A delta batch builds the
//! next generation by replaying the batch before it and its own onto
//! the generation the last swap retired, and runs one maintenance run
//! for all cached entries; with fragment adjacency in pooled spans
//! edited in place and one reverse adjacency per site, the number of
//! allocations a batch makes follows the batch and the entries — not
//! the graph. Counts repeat exactly for one input, so this is evidence
//! without a clock. Over a long churn, the bytes a session keeps follow
//! the fragment slots the churn adds, not the number of batches: every
//! pool edited in place is compacted like a copied one.

use dgs::graph::generate::{patterns, random};
use dgs::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The system allocator, counting every block it hands out (a
/// `realloc` that may move counts as one) and the bytes requested and
/// not yet freed. The counts are process-wide, so the tests of this
/// file run one at a time: the soak is ignored unless asked for, and
/// asking for it takes `--test-threads=1`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics and touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ENTRIES: usize = 16;
const SITES: usize = 8;

/// A session on a community graph of `n` nodes with [`ENTRIES`]
/// maintained entries, and the churn that drives it: batches of 10
/// deletions and 10 insertions, every other insertion an earlier
/// deletion coming back.
struct Churn {
    n: usize,
    engine: SimEngine,
    qs: Vec<Pattern>,
    present: Vec<(NodeId, NodeId)>,
    is_present: HashSet<(NodeId, NodeId)>,
    graveyard: Vec<(NodeId, NodeId)>,
    rng: u64,
}

impl Churn {
    fn new(n: usize) -> Self {
        let g = random::community(n, 5 * n, SITES, 0.066, 6, 1);
        let assign = random::community_assignment(n, SITES);
        let frag = Arc::new(Fragmentation::build(&g, &assign, SITES));
        let engine = SimEngine::builder(&g, frag).build();
        let mut keys = HashSet::new();
        let qs: Vec<Pattern> = (0..)
            .map(|i| patterns::random_cyclic(4 + (i % 3) as usize, 5 + (i % 3) as usize, 6, i))
            .filter(|q| {
                hhk_simulation(q, &g).matches() && keys.insert(SimEngine::pattern_canon(q).0)
            })
            .take(ENTRIES)
            .collect();
        for q in &qs {
            engine.query(q).unwrap();
        }
        let present: Vec<(NodeId, NodeId)> = g.edges().collect();
        Churn {
            n,
            engine,
            qs,
            is_present: present.iter().copied().collect(),
            present,
            graveyard: Vec::new(),
            rng: 1,
        }
    }

    fn next(&mut self, bound: usize) -> usize {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.rng >> 33) as usize % bound
    }

    fn next_batch(&mut self) -> GraphDelta {
        let mut delta = GraphDelta::default();
        while delta.insert_edges.len() < 10 {
            let e = if delta.insert_edges.len() % 2 == 0 && !self.graveyard.is_empty() {
                let at = self.next(self.graveyard.len());
                self.graveyard.swap_remove(at)
            } else {
                (
                    NodeId(self.next(self.n) as u32),
                    NodeId(self.next(self.n) as u32),
                )
            };
            if e.0 != e.1 && !self.is_present.contains(&e) && !delta.insert_edges.contains(&e) {
                delta.insert_edges.push(e);
            }
        }
        for _ in 0..10 {
            let at = self.next(self.present.len());
            let e = self.present.swap_remove(at);
            self.is_present.remove(&e);
            delta.delete_edges.push(e);
        }
        self.graveyard.extend(&delta.delete_edges);
        self.present.extend(&delta.insert_edges);
        self.is_present.extend(&delta.insert_edges);
        delta
    }

    /// Applies a batch; every entry must be maintained.
    fn apply(&self, delta: &GraphDelta) {
        let report = self.engine.apply_delta(delta).unwrap();
        assert_eq!((report.inserted, report.deleted), (10, 10));
        assert_eq!(report.maintained_entries, ENTRIES);
    }

    /// The batches were real: every entry still equals the oracle.
    fn assert_exact(&self) {
        let now = self.engine.graph();
        for q in &self.qs {
            let served = self.engine.query(q).unwrap();
            assert_eq!(served.metrics.cache_hits, 1);
            assert_eq!(served.relation, hhk_simulation(q, &now).relation);
        }
    }
}

/// Allocations of each of `measured` steady-state batches on `n` nodes.
fn allocations_per_batch(n: usize, measured: usize) -> Vec<u64> {
    let mut churn = Churn::new(n);
    // The first batches promote the entries, copy the reverse
    // adjacency and find the built fragmentation still shared.
    let warm_up = 4;
    let mut counts = Vec::new();
    for batch in 0..warm_up + measured {
        let delta = churn.next_batch();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        churn.apply(&delta);
        let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if batch >= warm_up {
            counts.push(made);
        }
    }
    churn.assert_exact();
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

/// Live bytes after 20 000 batches on 8 000 nodes are at most twice
/// those after 5 000. What still grows is the fragments' virtual
/// slots, which a churn of fresh edges keeps adding; an entry's state
/// grows a bit per slot and query node with them.
#[test]
#[ignore = "a 20 000-batch soak: run it in release, with --test-threads=1"]
fn live_bytes_follow_the_slots_not_the_batches() {
    let mut churn = Churn::new(8_000);
    let mut early = 0;
    for batch in 1..=20_000 {
        let delta = churn.next_batch();
        churn.apply(&delta);
        if batch == 5_000 {
            early = LIVE_BYTES.load(Ordering::Relaxed);
        }
    }
    let late = LIVE_BYTES.load(Ordering::Relaxed);
    let mb = |b: u64| b as f64 / 1e6;
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let rss = status.lines().find(|l| l.starts_with("VmRSS:"));
    println!(
        "live bytes: {:.1} MB at batch 5 000, {:.1} MB at batch 20 000 ({:.2}x); {}",
        mb(early),
        mb(late),
        late as f64 / early as f64,
        rss.unwrap_or("VmRSS: n/a")
    );
    churn.assert_exact();
    assert!(
        late <= 2 * early,
        "live bytes grew {:.1} → {:.1} MB",
        mb(early),
        mb(late)
    );
}
