//! Query-preserving graph compression for simulation queries.
//!
//! §7 of the VLDB'14 paper names "graph compression" as the companion
//! technique for querying real-life graphs; the construction here is
//! the simulation-query half of Fan, Li, Wang & Wu, *Query Preserving
//! Graph Compression* (SIGMOD 2012): merge the nodes of each
//! **simulation-equivalence** class ([`crate::preorder`]) into one
//! node of a compressed graph `Gc`, keep an edge `[v] → [w]` iff some
//! member edge exists, and answer any simulation pattern on `Gc`
//! instead of `G` — *exactly*, for every pattern, with no
//! decompression of `G` itself.
//!
//! **Theorem** (why this is exact). Write `v ≤ w` for the simulation
//! preorder of `G` and `[v]` for the class of `v`.
//!
//! 1. *Matches are upward-closed*: `(u, v) ∈ Q(G)` and `v ≤ w` imply
//!    `(u, w) ∈ Q(G)` — the relation `{(u, w) | ∃v ≤ w, (u,v) ∈ Q(G)}`
//!    satisfies the simulation conditions (a witness child `v'` of `v`
//!    maps along `v ≤ w` to a child `w'` of `w` with `v' ≤ w'`).
//! 2. *Projection*: `{(u, [v]) | (u, v) ∈ Q(G)}` is a simulation on
//!    `Gc` (class edges include all member edges), so
//!    `(u, v) ∈ Q(G) ⟹ (u, [v]) ∈ Q(Gc)`.
//! 3. *Lifting*: the class preorder `[a] ≤c [b] ⟺ a ≤ b` is itself a
//!    self-simulation of `Gc` (if `[a] → [a']` via member edge
//!    `(a1, a1')` with `a1 ≡ a ≤ b`, then `b` has a child `b'` with
//!    `a1' ≤ b'`, giving `[b] → [b']` and `[a'] ≤c [b']`). Hence
//!    `Q(Gc)` is upward-closed under `≤c` by fact 1 applied to `Gc`,
//!    and `{(u, v) | (u, [v]) ∈ Q(Gc)}` satisfies the simulation
//!    conditions on `G`: a class witness `[v] → [w]` with
//!    `(u', [w]) ∈ Q(Gc)` comes from a member edge `(v1, w1)`,
//!    `v1 ≤ v` yields a child `w2` of `v` with `w1 ≤ w2`, and upward
//!    closure moves the match from `[w1]` to `[w2]`. So
//!    `(u, [v]) ∈ Q(Gc) ⟹ (u, v) ∈ Q(G)`.
//!
//! Both inclusions together give `(u, v) ∈ Q(G) ⟺ (u, [v]) ∈ Q(Gc)`,
//! which is what [`CompressedGraph::query`] implements (answers are
//! reported over `Gc` classes and expanded to original node ids on
//! demand).
//!
//! The compression ratio depends on how much simulation-equivalent
//! redundancy the graph carries; label-sparse scale-free graphs
//! typically compress their sink-heavy periphery aggressively (every
//! same-label sink is equivalent). [`compress_bisim`] offers the
//! cheaper bisimulation-based variant ([`crate::bisim`]) that merges
//! less but runs in near-linear time, the practical preprocessing for
//! big fragments.

use crate::hhk::hhk_simulation;
use crate::match_relation::{MatchRelation, SimResult};
use crate::preorder::SimPreorder;
use dgs_graph::{Graph, GraphBuilder, NodeId, Pattern};

/// A graph compressed by a simulation-preserving node equivalence.
#[derive(Clone, Debug)]
pub struct CompressedGraph {
    /// The quotient graph `Gc`.
    pub graph: Graph,
    /// Class id of every original node.
    pub class_of: Vec<u32>,
    /// Original members of every class, sorted.
    pub members: Vec<Vec<NodeId>>,
}

impl CompressedGraph {
    /// Builds the quotient of `g` under the class assignment
    /// (`class_count` dense classes; every class must be inhabited and
    /// label-homogeneous).
    pub fn from_classes(g: &Graph, class_of: Vec<u32>, class_count: usize) -> Self {
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); class_count];
        let mut labels = vec![dgs_graph::Label(0); class_count];
        for v in g.nodes() {
            let c = class_of[v.index()] as usize;
            debug_assert!(
                members[c].is_empty() || labels[c] == g.label(v),
                "class {c} mixes labels"
            );
            labels[c] = g.label(v);
            members[c].push(v);
        }
        debug_assert!(members.iter().all(|m| !m.is_empty()), "empty class");
        let mut b = GraphBuilder::with_capacity(class_count, g.edge_count());
        for &l in &labels {
            b.add_node(l);
        }
        for (u, v) in g.edges() {
            b.add_edge(NodeId(class_of[u.index()]), NodeId(class_of[v.index()]));
        }
        CompressedGraph {
            graph: b.build(),
            class_of,
            members,
        }
    }

    /// Number of classes (nodes of `Gc`).
    pub fn class_count(&self) -> usize {
        self.members.len()
    }

    /// Compression ratio `|Gc| / |G|` in the paper's size measure
    /// (`|V| + |E|`), given the original graph size.
    pub fn ratio(&self, original_size: usize) -> f64 {
        self.graph.size() as f64 / original_size.max(1) as f64
    }

    /// Answers a simulation pattern on the compressed graph. The
    /// returned relation is over **class** node ids of `Gc`; use
    /// [`CompressedGraph::expand`] for original node ids.
    pub fn query(&self, q: &Pattern) -> SimResult {
        hhk_simulation(q, &self.graph)
    }

    /// Expands a class-level relation to original node ids.
    pub fn expand(&self, class_relation: &MatchRelation) -> MatchRelation {
        let lists = (0..class_relation.query_nodes())
            .map(|u| {
                class_relation
                    .matches_of(dgs_graph::QNodeId(u as u16))
                    .iter()
                    .flat_map(|&c| self.members[c.index()].iter().copied())
                    .collect()
            })
            .collect();
        MatchRelation::from_lists(lists)
    }

    /// Convenience: query and expand in one step, returning the
    /// original-node relation (equal to `hhk_simulation(q, g)` on the
    /// uncompressed graph, by the module-level theorem).
    pub fn query_expanded(&self, q: &Pattern) -> MatchRelation {
        self.expand(&self.query(q).relation)
    }
}

/// The largest graph [`compress_simeq`] is asked to compress: its
/// preorder holds two `O(|V|²)` tables, a `bool` and a `u32` counter
/// per node pair (5 bytes, so 2 GB at this bound). Callers refuse a
/// bigger graph before it allocates; [`compress_bisim`] is the
/// near-linear alternative.
pub const SIMEQ_MAX_NODES: usize = 20_000;

/// Compresses `g` by **simulation equivalence** (maximal merging;
/// `O(|V||E|)` time, `O(|V|²)` space — see [`crate::preorder`]).
pub fn compress_simeq(g: &Graph) -> CompressedGraph {
    let pre = SimPreorder::compute(g);
    let (class_of, count) = pre.equivalence_classes();
    CompressedGraph::from_classes(g, class_of, count)
}

/// Compresses `g` by **bisimulation** (near-linear time, merges a
/// subset of what [`compress_simeq`] merges — see [`crate::bisim`]).
pub fn compress_bisim(g: &Graph) -> CompressedGraph {
    let p = crate::bisim::bisimulation_partition(g);
    CompressedGraph::from_classes(g, p.class_of.clone(), p.class_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::generate::{dag, patterns, random};
    use dgs_graph::{Label, PatternBuilder};

    fn assert_exact(g: &Graph, c: &CompressedGraph, q: &Pattern, tag: &str) {
        let oracle = hhk_simulation(q, g).relation;
        let got = c.query_expanded(q);
        assert_eq!(got, oracle, "{tag}");
    }

    #[test]
    fn simeq_compression_is_exact_on_random_graphs() {
        for seed in 0..8 {
            let g = random::uniform(70, 220, 3, seed);
            let c = compress_simeq(&g);
            for qseed in 0..3 {
                let q = patterns::random_cyclic(3, 5, 3, seed * 10 + qseed);
                assert_exact(&g, &c, &q, &format!("seed {seed}/{qseed}"));
            }
        }
    }

    #[test]
    fn bisim_compression_is_exact_on_random_graphs() {
        for seed in 0..8 {
            let g = random::uniform(80, 260, 3, seed + 50);
            let c = compress_bisim(&g);
            let q = patterns::random_dag_with_depth(4, 6, 3, 3, seed);
            assert_exact(&g, &c, &q, &format!("seed {seed}"));
        }
    }

    #[test]
    fn simeq_never_coarser_than_exactness_allows_on_dags() {
        for seed in 0..5 {
            let g = dag::citation_like(150, 400, 4, seed);
            let c = compress_simeq(&g);
            let q = patterns::random_dag_with_depth(4, 6, 3, 4, seed + 7);
            assert_exact(&g, &c, &q, &format!("dag seed {seed}"));
        }
    }

    #[test]
    fn simeq_merges_at_least_as_much_as_bisim() {
        for seed in 0..6 {
            let g = random::uniform(90, 280, 3, seed);
            let s = compress_simeq(&g);
            let b = compress_bisim(&g);
            assert!(
                s.class_count() <= b.class_count(),
                "seed {seed}: simeq {} > bisim {}",
                s.class_count(),
                b.class_count()
            );
        }
    }

    #[test]
    fn sink_heavy_star_compresses_hard() {
        // One hub pointing at 50 same-label sinks: all sinks are
        // equivalent, so Gc is hub -> sink.
        let mut gb = GraphBuilder::new();
        let hub = gb.add_node(Label(0));
        for _ in 0..50 {
            let s = gb.add_node(Label(1));
            gb.add_edge(hub, s);
        }
        let g = gb.build();
        let c = compress_simeq(&g);
        assert_eq!(c.class_count(), 2);
        assert_eq!(c.graph.edge_count(), 1);
        assert!(c.ratio(g.size()) < 0.05);

        // Matches expand back to all 50 sinks.
        let mut qb = PatternBuilder::new();
        let a = qb.add_node(Label(0));
        let b = qb.add_node(Label(1));
        qb.add_edge(a, b);
        let q = qb.build();
        let rel = c.query_expanded(&q);
        assert_eq!(rel.matches_of(dgs_graph::QNodeId(1)).len(), 50);
        assert_exact(&g, &c, &q, "star");
    }

    #[test]
    fn expand_preserves_emptiness_convention() {
        let g = random::uniform(40, 120, 3, 9);
        let c = compress_simeq(&g);
        let mut qb = PatternBuilder::new();
        qb.add_node(Label(14)); // absent label
        let q = qb.build();
        let res = c.query(&q);
        assert!(!res.matches());
        assert!(c.expand(&res.relation).is_empty());
    }

    #[test]
    fn members_partition_the_nodes() {
        let g = random::uniform(60, 180, 4, 3);
        let c = compress_simeq(&g);
        let mut seen = vec![false; g.node_count()];
        for (cls, members) in c.members.iter().enumerate() {
            for &v in members {
                assert!(!seen[v.index()], "{v:?} in two classes");
                seen[v.index()] = true;
                assert_eq!(c.class_of[v.index()] as usize, cls);
                assert_eq!(g.label(v), c.graph.label(NodeId(cls as u32)));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn compressing_twice_is_idempotent() {
        let g = random::uniform(80, 240, 3, 21);
        let once = compress_simeq(&g);
        let twice = compress_simeq(&once.graph);
        assert_eq!(once.class_count(), twice.class_count());
    }
}
