//! The session-level pattern-result cache.
//!
//! A serving engine sees the same handful of pattern shapes over and
//! over — often submitted by different clients that numbered the query
//! nodes differently. The cache therefore keys results by a
//! **canonical form** of the pattern (a label-preserving renumbering
//! computed by color refinement plus a small individualization
//! search), so isomorphic re-submissions hit the same entry, and
//! stores the match lists in canonical node order so a hit can be
//! re-expressed in the submitter's numbering with one permutation.
//!
//! Soundness does not depend on the canonical form being minimal:
//! the cache key *is* the full canonical encoding (node count, labels
//! and edges under the chosen renumbering), so two patterns share a
//! key **only if** the encodings are literally equal — which exhibits
//! an isomorphism between them. When the search would explode (highly
//! automorphic patterns) or the pattern is large, we fall back to the
//! identity numbering: still sound, merely fewer isomorphic hits.

use crate::plan::PlanExplanation;
use dgs_graph::{Label, NodeId, Pattern, PatternBuilder, QNodeId};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Patterns larger than this skip the canonical search and use the
/// identity numbering (the paper assumes `|Q|` "typically small";
/// anything bigger is an unusual client and still cached, just
/// without isomorphism folding).
const MAX_SEARCH_NODES: usize = 16;

/// Cap on discrete colorings visited by the individualization search;
/// exceeding it (only possible for highly automorphic patterns) falls
/// back to the identity numbering. The leaf count is an isomorphism
/// invariant, so isomorphic patterns fall back together and keys stay
/// comparable.
const LEAF_BUDGET: usize = 2000;

/// A pattern together with its canonical renumbering.
pub(crate) struct CanonicalPattern {
    /// The canonical encoding, used as the cache key:
    /// `[n, m, labels in canonical order..., sorted canonical edges...]`.
    pub key: Vec<u32>,
    /// Canonical position of every original node index.
    pub pos_of: Vec<u16>,
}

impl CanonicalPattern {
    /// Inverse of `pos_of`: the original node index at each canonical
    /// position.
    pub fn node_at(&self) -> Vec<u16> {
        let mut node_at = vec![0u16; self.pos_of.len()];
        for (u, &p) in self.pos_of.iter().enumerate() {
            node_at[p as usize] = u as u16;
        }
        node_at
    }
}

/// Encodes `q` under the renumbering `pos_of`. Equal encodings imply
/// isomorphic patterns (the encoding fully determines the labeled
/// digraph up to the renumbering applied).
fn encode(q: &Pattern, pos_of: &[u16]) -> Vec<u32> {
    let n = q.node_count();
    let mut node_at = vec![0u16; n];
    for (u, &p) in pos_of.iter().enumerate() {
        node_at[p as usize] = u as u16;
    }
    let mut out = Vec::with_capacity(2 + n + 2 * q.edge_count());
    out.push(n as u32);
    out.push(q.edge_count() as u32);
    for &u in &node_at {
        out.push(q.label(QNodeId(u)).0 as u32);
    }
    let mut edges: Vec<(u16, u16)> = q
        .edges()
        .map(|(a, b)| (pos_of[a.index()], pos_of[b.index()]))
        .collect();
    edges.sort_unstable();
    for (a, b) in edges {
        out.push(a as u32);
        out.push(b as u32);
    }
    out
}

fn identity_form(q: &Pattern) -> CanonicalPattern {
    let pos_of: Vec<u16> = (0..q.node_count() as u16).collect();
    CanonicalPattern {
        key: encode(q, &pos_of),
        pos_of,
    }
}

/// Refines `colors` to the coarsest stable partition under
/// `(color, sorted child colors, sorted parent colors)` signatures,
/// densifying color ids to `0..count` by signature rank (an
/// isomorphism-invariant ordering). Returns the color count.
fn refine(q: &Pattern, colors: &mut [u32]) -> usize {
    let n = q.node_count();
    loop {
        let sigs: Vec<(u32, Vec<u32>, Vec<u32>)> = (0..n)
            .map(|u| {
                let qu = QNodeId(u as u16);
                let mut cc: Vec<u32> = q.children(qu).iter().map(|c| colors[c.index()]).collect();
                cc.sort_unstable();
                let mut pc: Vec<u32> = q.parents(qu).iter().map(|p| colors[p.index()]).collect();
                pc.sort_unstable();
                (colors[u], cc, pc)
            })
            .collect();
        let mut distinct: Vec<&(u32, Vec<u32>, Vec<u32>)> = sigs.iter().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let old_count = {
            let mut cs: Vec<u32> = colors.to_vec();
            cs.sort_unstable();
            cs.dedup();
            cs.len()
        };
        for (u, sig) in sigs.iter().enumerate() {
            colors[u] = distinct.binary_search(&sig).expect("own signature") as u32;
        }
        if distinct.len() == old_count {
            return distinct.len();
        }
    }
}

struct Search<'q> {
    q: &'q Pattern,
    best: Option<(Vec<u32>, Vec<u16>)>,
    leaves: usize,
}

impl Search<'_> {
    /// Depth-first individualization-refinement; returns `false` when
    /// the leaf budget is exhausted.
    fn dfs(&mut self, colors: Vec<u32>, count: usize) -> bool {
        let n = self.q.node_count();
        if count == n {
            self.leaves += 1;
            if self.leaves > LEAF_BUDGET {
                return false;
            }
            let pos_of: Vec<u16> = colors.iter().map(|&c| c as u16).collect();
            let enc = encode(self.q, &pos_of);
            if self.best.as_ref().is_none_or(|(b, _)| enc < *b) {
                self.best = Some((enc, pos_of));
            }
            return true;
        }
        let target = (0..count as u32)
            .find(|&c| colors.iter().filter(|&&x| x == c).count() > 1)
            .expect("non-discrete partition has a splittable class");
        for u in 0..n {
            if colors[u] != target {
                continue;
            }
            // Individualize u: give it a color sorting before its class
            // peers, then re-refine.
            let mut c2: Vec<u32> = colors.iter().map(|&c| c * 2 + 1).collect();
            c2[u] = colors[u] * 2;
            let cnt = refine(self.q, &mut c2);
            if !self.dfs(c2, cnt) {
                return false;
            }
        }
        true
    }
}

/// Computes the canonical form of `q`: a renumbering such that any
/// isomorphic pattern produces the same `key`.
pub(crate) fn canonicalize(q: &Pattern) -> CanonicalPattern {
    let n = q.node_count();
    if n == 0 {
        return CanonicalPattern {
            key: vec![0, 0],
            pos_of: Vec::new(),
        };
    }
    if n > MAX_SEARCH_NODES {
        return identity_form(q);
    }
    // Initial colors: rank of the node's label among the distinct
    // labels present (invariant under renumbering).
    let mut labels: Vec<u16> = q.labels().iter().map(|l| l.0).collect();
    labels.sort_unstable();
    labels.dedup();
    let mut colors: Vec<u32> = q
        .labels()
        .iter()
        .map(|l| labels.binary_search(&l.0).expect("own label") as u32)
        .collect();
    let count = refine(q, &mut colors);
    let mut search = Search {
        q,
        best: None,
        leaves: 0,
    };
    if !search.dfs(colors, count) {
        return identity_form(q);
    }
    let (key, pos_of) = search.best.expect("search visited at least one leaf");
    CanonicalPattern { key, pos_of }
}

/// Reconstructs the pattern a canonical encoding describes, in its
/// canonical numbering. The encoding is complete (node count, labels
/// and edges under the canonical renumbering), so the graph-update
/// subsystem can rebuild the exact pattern a cache entry answers —
/// this is what lets `SimEngine::apply_delta` maintain entries whose
/// original `Pattern` values are long gone.
pub(crate) fn decode_pattern(key: &[u32]) -> Pattern {
    let n = key[0] as usize;
    let m = key[1] as usize;
    debug_assert_eq!(key.len(), 2 + n + 2 * m, "malformed canonical encoding");
    let mut b = PatternBuilder::new();
    for &label in &key[2..2 + n] {
        b.add_node(Label(label as u16));
    }
    for e in 0..m {
        let a = key[2 + n + 2 * e] as u16;
        let c = key[2 + n + 2 * e + 1] as u16;
        b.add_edge(QNodeId(a), QNodeId(c));
    }
    b.build()
}

/// A cached answer, stored in canonical node order so any isomorphic
/// submission can be served from it.
#[derive(Debug)]
pub(crate) struct CachedResult {
    /// Sorted match lists; row `c` holds the matches of the query node
    /// at canonical position `c`. Shared with the entry's earlier
    /// generations until a maintained diff changes them.
    pub rows: Arc<Vec<Vec<NodeId>>>,
    /// Display name of the engine that produced the entry.
    pub algorithm: &'static str,
    /// The plan of the run that produced the entry.
    pub plan: PlanExplanation,
}

/// Observability counters of a [`crate::SimEngine`]'s pattern-result
/// cache.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries the current generation holds.
    pub entries: usize,
    /// Maximum entries a generation holds.
    pub capacity: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to a protocol run.
    pub misses: u64,
    /// Entries dropped by the LRU policy.
    pub evictions: u64,
    /// The engine's current graph generation. Each generation holds
    /// its own entries; every `apply_delta` or `cache_invalidate_all`
    /// moves the engine to a fresh generation, so a growing value is
    /// invalidation churn made observable.
    pub generation: u64,
}

#[derive(Debug)]
struct Entry {
    value: Arc<CachedResult>,
    tick: u64,
}

/// An LRU map from canonical pattern encodings to cached answers, one
/// per generation. It counts nothing: the engine keeps the hit, miss
/// and eviction counters of the whole session.
///
/// Recency is tracked with a monotonic tick per entry plus a queue of
/// `(tick, key)` touches; stale queue entries (whose tick no longer
/// matches the map) are skipped lazily on eviction, giving amortized
/// `O(1)` touches.
#[derive(Debug)]
pub(crate) struct PatternCache {
    capacity: usize,
    map: HashMap<Vec<u32>, Entry>,
    queue: VecDeque<(u64, Vec<u32>)>,
    tick: u64,
}

impl PatternCache {
    pub fn new(capacity: usize) -> Self {
        PatternCache {
            capacity,
            map: HashMap::new(),
            queue: VecDeque::new(),
            tick: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn get(&mut self, key: &[u32]) -> Option<Arc<CachedResult>> {
        self.tick += 1;
        let e = self.map.get_mut(key)?;
        e.tick = self.tick;
        self.queue.push_back((self.tick, key.to_vec()));
        let hit = Arc::clone(&e.value);
        self.compact();
        Some(hit)
    }

    /// Drops stale touches once the queue outgrows a small multiple of
    /// the capacity, so steady-state hit traffic (which never triggers
    /// eviction) cannot grow the queue without bound. Amortized `O(1)`
    /// per touch: a full sweep runs only after ~capacity-many pushes.
    fn compact(&mut self) {
        if self.queue.len() > 2 * self.capacity.max(8) {
            let map = &self.map;
            self.queue
                .retain(|(t, k)| map.get(k).is_some_and(|e| e.tick == *t));
        }
    }

    /// Stores `value` under `key` and returns how many entries the LRU
    /// dropped to make room.
    pub fn insert(&mut self, key: Vec<u32>, value: Arc<CachedResult>) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut evicted = 0;
        self.tick += 1;
        self.queue.push_back((self.tick, key.clone()));
        self.map.insert(
            key,
            Entry {
                value,
                tick: self.tick,
            },
        );
        while self.map.len() > self.capacity {
            let Some((t, k)) = self.queue.pop_front() else {
                break;
            };
            // Only the newest touch of a key is live; older queue
            // entries are stale and skipped.
            if self.map.get(&k).is_some_and(|e| e.tick == t) {
                self.map.remove(&k);
                evicted += 1;
            }
        }
        self.compact();
        evicted
    }

    /// Every entry, sorted by key — the answers the update subsystem
    /// promotes to incremental maintenance, in a deterministic order.
    pub fn entries(&self) -> Vec<(Vec<u32>, Arc<CachedResult>)> {
        let mut out: Vec<(Vec<u32>, Arc<CachedResult>)> = self
            .map
            .iter()
            .map(|(k, e)| (k.clone(), Arc::clone(&e.value)))
            .collect();
        // Deterministic order regardless of hash-map iteration.
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::{Label, PatternBuilder};

    /// Fig. 1's pattern under two different node numberings.
    fn fig1_two_numberings() -> (Pattern, Pattern) {
        let mut b = PatternBuilder::new();
        let yb = b.add_node(Label(0));
        let f = b.add_node(Label(1));
        let yf = b.add_node(Label(2));
        let sp = b.add_node(Label(3));
        b.add_edge(yb, f);
        b.add_edge(yb, yf);
        b.add_edge(f, sp);
        b.add_edge(sp, yf);
        b.add_edge(yf, f);
        let q1 = b.build();

        // Same pattern, nodes inserted in reverse order.
        let mut b = PatternBuilder::new();
        let sp = b.add_node(Label(3));
        let yf = b.add_node(Label(2));
        let f = b.add_node(Label(1));
        let yb = b.add_node(Label(0));
        b.add_edge(yb, f);
        b.add_edge(yb, yf);
        b.add_edge(f, sp);
        b.add_edge(sp, yf);
        b.add_edge(yf, f);
        let q2 = b.build();
        (q1, q2)
    }

    #[test]
    fn isomorphic_renumberings_share_a_key() {
        let (q1, q2) = fig1_two_numberings();
        let c1 = canonicalize(&q1);
        let c2 = canonicalize(&q2);
        assert_eq!(c1.key, c2.key);
        // The canonical positions of corresponding nodes agree:
        // node u of q1 corresponds to node 3-u of q2.
        for u in 0..4 {
            assert_eq!(c1.pos_of[u], c2.pos_of[3 - u], "node {u}");
        }
    }

    #[test]
    fn different_patterns_get_different_keys() {
        let (q1, _) = fig1_two_numberings();
        // Same nodes, one edge flipped.
        let mut b = PatternBuilder::new();
        let yb = b.add_node(Label(0));
        let f = b.add_node(Label(1));
        let yf = b.add_node(Label(2));
        let sp = b.add_node(Label(3));
        b.add_edge(f, yb); // flipped
        b.add_edge(yb, yf);
        b.add_edge(f, sp);
        b.add_edge(sp, yf);
        b.add_edge(yf, f);
        let q3 = b.build();
        assert_ne!(canonicalize(&q1).key, canonicalize(&q3).key);

        // Same shape, one label changed.
        let mut b = PatternBuilder::new();
        let yb = b.add_node(Label(0));
        let f = b.add_node(Label(1));
        let yf = b.add_node(Label(2));
        let sp = b.add_node(Label(9));
        b.add_edge(yb, f);
        b.add_edge(yb, yf);
        b.add_edge(f, sp);
        b.add_edge(sp, yf);
        b.add_edge(yf, f);
        let q4 = b.build();
        assert_ne!(canonicalize(&q1).key, canonicalize(&q4).key);
    }

    #[test]
    fn symmetric_patterns_are_handled() {
        // A hub with 6 interchangeable same-label sinks: refinement
        // cannot split the sinks, so the search individualizes; the
        // canonical key must still be numbering-invariant.
        let build = |order: &[usize]| {
            let mut b = PatternBuilder::new();
            let mut ids = [QNodeId(0); 7];
            for &i in order {
                ids[i] = b.add_node(if i == 0 { Label(0) } else { Label(1) });
            }
            for i in 1..7 {
                b.add_edge(ids[0], ids[i]);
            }
            b.build()
        };
        let q1 = build(&[0, 1, 2, 3, 4, 5, 6]);
        let q2 = build(&[3, 6, 0, 5, 1, 4, 2]);
        assert_eq!(canonicalize(&q1).key, canonicalize(&q2).key);
    }

    #[test]
    fn node_at_inverts_pos_of() {
        let (q1, _) = fig1_two_numberings();
        let c = canonicalize(&q1);
        let node_at = c.node_at();
        for u in 0..q1.node_count() {
            assert_eq!(node_at[c.pos_of[u] as usize] as usize, u);
        }
    }

    #[test]
    fn large_patterns_fall_back_to_identity() {
        let mut b = PatternBuilder::new();
        let nodes: Vec<_> = (0..20).map(|i| b.add_node(Label(i % 3))).collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        let q = b.build();
        let c = canonicalize(&q);
        assert_eq!(c.pos_of, (0..20u16).collect::<Vec<_>>());
        assert_eq!(c.key, encode(&q, &c.pos_of));
    }

    fn dummy(tag: &'static str) -> Arc<CachedResult> {
        Arc::new(CachedResult {
            rows: Arc::default(),
            algorithm: tag,
            plan: PlanExplanation::forced(tag),
        })
    }

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut c = PatternCache::new(2);
        assert_eq!(c.insert(vec![1], dummy("a")), 0);
        assert_eq!(c.insert(vec![2], dummy("b")), 0);
        assert!(c.get(&[1]).is_some()); // refresh 1; 2 is now LRU
        assert_eq!(c.insert(vec![3], dummy("c")), 1);
        assert!(c.get(&[2]).is_none(), "2 should have been evicted");
        assert!(c.get(&[1]).is_some());
        assert!(c.get(&[3]).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn hit_traffic_does_not_grow_the_queue_unboundedly() {
        let mut c = PatternCache::new(4);
        for k in 0u32..4 {
            c.insert(vec![k], dummy("a"));
        }
        for _ in 0..10_000 {
            assert!(c.get(&[1]).is_some());
        }
        // Bounded by the compaction threshold, not by the hit count.
        assert!(
            c.queue.len() <= 2 * c.capacity.max(8) + 1,
            "queue grew to {} entries",
            c.queue.len()
        );
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = PatternCache::new(0);
        c.insert(vec![1], dummy("a"));
        assert!(c.get(&[1]).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn decode_pattern_roundtrips_the_canonical_form() {
        let (q1, q2) = fig1_two_numberings();
        for q in [q1, q2] {
            let c = canonicalize(&q);
            let decoded = decode_pattern(&c.key);
            // The decoded pattern is the canonical renumbering of q:
            // canonicalizing it again yields the identical key.
            assert_eq!(canonicalize(&decoded).key, c.key);
            // And node u of q sits at canonical position pos_of[u].
            for u in q.nodes() {
                assert_eq!(
                    decoded.label(QNodeId(c.pos_of[u.index()])),
                    q.label(u),
                    "label of node {u:?}"
                );
            }
            assert_eq!(decoded.edge_count(), q.edge_count());
        }
    }

    #[test]
    fn reinsert_overwrites_without_growth() {
        let mut c = PatternCache::new(4);
        c.insert(vec![1], dummy("a"));
        assert_eq!(c.insert(vec![1], dummy("b")), 0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&[1]).unwrap().algorithm, "b");
    }
}
