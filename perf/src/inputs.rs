//! Inputs, all derived from `--seed`: the program under test receives
//! only these generated graphs, patterns and delta batches.

use crate::rng::{derive, Rng};
use dgs::graph::generate::{dag, patterns, random, tree};
use dgs::prelude::*;
use std::collections::HashSet;

/// Streams of sub-seeds; one constant per independent input.
pub mod stream {
    pub const GRAPH: u64 = 1;
    pub const TREE: u64 = 2;
    pub const MEASURED: u64 = 3;
    /// Warm-up patterns come from their own stream, so they are
    /// disjoint from the measured ones.
    pub const WARMUP: u64 = 4;
    pub const SHAPE: u64 = 5;
    pub const RENUMBER: u64 = 6;
    pub const DELTAS: u64 = 7;
    /// Patterns the served workloads evaluate cold for DS and PT.
    pub const COUNTED: u64 = 8;
}

/// The cross-community edge fraction at which a community graph of
/// `n` nodes, `m` edges and `k` communities has an expected
/// `|Vf|/|V|` of `target`: a node is in `Vf` iff some crossing edge
/// enters it, and crossing edges pick uniform targets.
pub fn cross_fraction_for_vf(target: f64, n: usize, m: usize, k: usize) -> f64 {
    let lambda = -(1.0 - target).ln();
    (lambda * n as f64 * k as f64 / (m as f64 * (k as f64 - 1.0))).clamp(0.0, 1.0)
}

/// A graph with its site assignment.
pub struct Placed {
    pub graph: Graph,
    pub assignment: Vec<usize>,
    pub sites: usize,
}

/// Exp-1's shape: a community digraph, one community per site, with
/// `|Vf|/|V|` near `vf`.
pub fn community_graph(
    n: usize,
    m: usize,
    sites: usize,
    vf: f64,
    labels: usize,
    seed: u64,
) -> Placed {
    let cross = cross_fraction_for_vf(vf, n, m, sites);
    Placed {
        graph: random::community(n, m, sites, cross, labels, derive(seed, stream::GRAPH, 0)),
        assignment: random::community_assignment(n, sites),
        sites,
    }
}

/// Exp-2's shape: a community citation DAG.
pub fn citation_dag(n: usize, m: usize, sites: usize, vf: f64, labels: usize, seed: u64) -> Placed {
    let cross = cross_fraction_for_vf(vf, n, m, sites);
    Placed {
        graph: dag::citation_like_community(
            n,
            m,
            sites,
            cross,
            labels,
            derive(seed, stream::GRAPH, 0),
        ),
        assignment: random::community_assignment(n, sites),
        sites,
    }
}

/// A random rooted tree cut into connected subtrees (`dGPMt`'s
/// precondition).
pub fn partitioned_tree(n: usize, sites: usize, labels: usize, seed: u64) -> Placed {
    let graph = tree::random_tree(n, labels, derive(seed, stream::TREE, 0));
    let assignment = tree_partition(&graph, sites);
    Placed {
        graph,
        assignment,
        sites,
    }
}

/// The `i`-th cyclic pattern of `stream`: 4–6 nodes, `extra` edges
/// beyond one per node.
pub fn cyclic_pattern(seed: u64, stream: u64, i: u64, labels: usize, extra: usize) -> Pattern {
    let nq = Rng::new(derive(seed, stream::SHAPE ^ (stream << 8), i)).between(4, 6);
    patterns::random_cyclic(nq, nq + extra, labels, derive(seed, stream, i))
}

/// The `i`-th DAG pattern of `stream`: longest path 2–6, up to two
/// nodes off the backbone, `extra` edges beyond a spanning tree.
pub fn dag_pattern(seed: u64, stream: u64, i: u64, labels: usize, extra: usize) -> Pattern {
    let mut shape = Rng::new(derive(seed, stream::SHAPE ^ (stream << 8), i));
    let depth = shape.between(2, 6);
    let nq = depth + 1 + shape.between(0, 2);
    patterns::random_dag_with_depth(nq, nq - 1 + extra, depth, labels, derive(seed, stream, i))
}

/// An isomorphic copy of `q` with its nodes renumbered and its edges
/// listed in another order: a different request, the same canonical
/// form. Returns the copy and `new_of[old]`.
pub fn renumbered(q: &Pattern, seed: u64) -> (Pattern, Vec<u16>) {
    let mut rng = Rng::new(seed);
    let nq = q.node_count();
    let mut old_at: Vec<u16> = (0..nq as u16).collect();
    rng.shuffle(&mut old_at);
    let mut new_of = vec![0u16; nq];
    for (new, &old) in old_at.iter().enumerate() {
        new_of[old as usize] = new as u16;
    }
    let mut b = PatternBuilder::new();
    for &old in &old_at {
        b.add_node(q.label(QNodeId(old)));
    }
    let mut edges: Vec<_> = q.edges().collect();
    rng.shuffle(&mut edges);
    for (u, c) in edges {
        b.add_edge(QNodeId(new_of[u.index()]), QNodeId(new_of[c.index()]));
    }
    (b.build(), new_of)
}

/// Delta batches over a changing edge set. Each batch deletes `half`
/// present edges and inserts `half` absent ones; insertions alternate
/// between **recurrent** edges (re-inserting an earlier deletion, so
/// revoked pairs can be resurrected) and **fresh** random edges — the
/// two edge classes of the time-varying-graph taxonomy that exercise
/// both directions of maintenance. The edge count stays constant.
pub struct Churn {
    rng: Rng,
    nodes: usize,
    present: Vec<(u32, u32)>,
    member: HashSet<(u32, u32)>,
    /// Deleted by earlier batches and not re-inserted since.
    graveyard: Vec<(u32, u32)>,
    half: usize,
}

impl Churn {
    pub fn new(graph: &Graph, half: usize, seed: u64) -> Self {
        let present: Vec<(u32, u32)> = graph.edges().map(|(u, v)| (u.0, v.0)).collect();
        assert!(present.len() > 4 * half, "graph too small to churn");
        Churn {
            rng: Rng::new(derive(seed, stream::DELTAS, 0)),
            nodes: graph.node_count(),
            member: present.iter().copied().collect(),
            present,
            graveyard: Vec::new(),
            half,
        }
    }

    /// The edges present after the batches handed out so far.
    pub fn present(&self) -> &[(u32, u32)] {
        &self.present
    }

    fn absent(&self, e: &(u32, u32), pending: &[(u32, u32)]) -> bool {
        !self.member.contains(e) && !pending.contains(e)
    }

    /// The next batch; valid against the graph all earlier batches
    /// produced (no op is a no-op, no edge is in both lists).
    pub fn next_batch(&mut self) -> GraphDelta {
        let mut inserts = Vec::with_capacity(self.half);
        for i in 0..self.half {
            let mut edge = None;
            while edge.is_none() && i % 2 == 0 && !self.graveyard.is_empty() {
                let at = self.rng.below(self.graveyard.len());
                // A fresh insertion may have brought this one back already.
                edge = Some(self.graveyard.swap_remove(at)).filter(|e| self.absent(e, &inserts));
            }
            while edge.is_none() {
                let e = (
                    self.rng.below(self.nodes) as u32,
                    self.rng.below(self.nodes) as u32,
                );
                edge = Some(e).filter(|e| e.0 != e.1 && self.absent(e, &inserts));
            }
            inserts.extend(edge);
        }
        let mut deletes = Vec::with_capacity(self.half);
        for _ in 0..self.half {
            let at = self.rng.below(self.present.len());
            deletes.push(self.present.swap_remove(at));
        }
        for e in &deletes {
            self.member.remove(e);
        }
        self.graveyard.extend(&deletes);
        for &e in &inserts {
            self.member.insert(e);
            self.present.push(e);
        }
        let nodes = |es: Vec<(u32, u32)>| {
            es.into_iter()
                .map(|(u, v)| (NodeId(u), NodeId(v)))
                .collect()
        };
        GraphDelta {
            insert_edges: nodes(inserts),
            delete_edges: nodes(deletes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = community_graph(400, 2000, 4, 0.25, 6, 1);
        let b = community_graph(400, 2000, 4, 0.25, 6, 1);
        let c = community_graph(400, 2000, 4, 0.25, 6, 2);
        assert!(a.graph == b.graph);
        assert!(a.graph != c.graph);
        for i in 0..20 {
            assert_eq!(
                cyclic_pattern(1, stream::MEASURED, i, 6, 1),
                cyclic_pattern(1, stream::MEASURED, i, 6, 1)
            );
            assert_eq!(
                dag_pattern(1, stream::MEASURED, i, 6, 1),
                dag_pattern(1, stream::MEASURED, i, 6, 1)
            );
        }
        let differ = |f: &dyn Fn(u64, u64, u64) -> Pattern| {
            (0..20).any(|i| f(1, stream::MEASURED, i) != f(2, stream::MEASURED, i))
                && (0..20).any(|i| f(1, stream::MEASURED, i) != f(1, stream::WARMUP, i))
        };
        assert!(differ(&|s, st, i| cyclic_pattern(s, st, i, 6, 1)));
        assert!(differ(&|s, st, i| dag_pattern(s, st, i, 6, 1)));
    }

    #[test]
    fn renumbered_copy_is_isomorphic_with_the_same_canonical_form() {
        for i in 0..30 {
            let q = cyclic_pattern(5, stream::MEASURED, i, 4, 2);
            let (copy, new_of) = renumbered(&q, i);
            assert_eq!(copy.node_count(), q.node_count());
            assert_eq!(copy.edge_count(), q.edge_count());
            for u in q.nodes() {
                assert_eq!(q.label(u), copy.label(QNodeId(new_of[u.index()])));
            }
            for (u, c) in q.edges() {
                assert!(copy.has_edge(QNodeId(new_of[u.index()]), QNodeId(new_of[c.index()])));
            }
            assert_eq!(
                SimEngine::pattern_canon(&q).0,
                SimEngine::pattern_canon(&copy).0
            );
        }
    }

    #[test]
    fn churn_batches_are_valid_and_recurrent() {
        let placed = community_graph(300, 1500, 4, 0.25, 4, 9);
        let mut edges: HashSet<(u32, u32)> =
            placed.graph.edges().map(|(u, v)| (u.0, v.0)).collect();
        let size = edges.len();
        let mut churn = Churn::new(&placed.graph, 5, 9);
        let mut ever_deleted = HashSet::new();
        let mut recurrent = 0;
        for _ in 0..40 {
            let d = churn.next_batch();
            assert_eq!((d.insert_edges.len(), d.delete_edges.len()), (5, 5));
            for &(u, v) in &d.insert_edges {
                assert!(!d.delete_edges.contains(&(u, v)));
                recurrent += usize::from(ever_deleted.contains(&(u.0, v.0)));
            }
            for &(u, v) in &d.delete_edges {
                assert!(edges.remove(&(u.0, v.0)), "deleting an absent edge");
                ever_deleted.insert((u.0, v.0));
            }
            for &(u, v) in &d.insert_edges {
                assert!(edges.insert((u.0, v.0)), "inserting a present edge");
            }
            assert_eq!(edges.len(), size);
        }
        assert!(recurrent >= 40 * 2, "recurrent insertions: {recurrent}");
        let again: Vec<_> = {
            let mut c = Churn::new(&placed.graph, 5, 9);
            (0..3).map(|_| c.next_batch()).collect()
        };
        let mut c = Churn::new(&placed.graph, 5, 9);
        assert!(again.iter().all(|d| *d == c.next_batch()));
    }
}
