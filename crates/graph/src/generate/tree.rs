//! Random rooted trees for the `dGPMt` experiments (Corollary 4).
//!
//! Edges are directed parent → child, matching distributed XML
//! document trees (the paper extends the XPath bounds of \[10\] to graph
//! simulation on trees). Node 0 is always the root.

use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::label::Label;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random recursive tree: node `i > 0` attaches to a uniform random
/// parent among `0..i`. Expected depth is `O(log n)`.
pub fn random_tree(n: usize, num_labels: usize, seed: u64) -> Graph {
    random_tree_with_chain_bias(n, num_labels, 0.0, seed)
}

/// A random tree where node `i` attaches to node `i - 1` with
/// probability `chain_bias` (producing deeper trees) and to a uniform
/// random earlier node otherwise. `chain_bias = 1.0` yields a path.
pub fn random_tree_with_chain_bias(
    n: usize,
    num_labels: usize,
    chain_bias: f64,
    seed: u64,
) -> Graph {
    assert!(n > 0, "need at least one node");
    assert!(num_labels > 0, "need at least one label");
    assert!((0.0..=1.0).contains(&chain_bias), "bias must be in [0,1]");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for _ in 0..n {
        b.add_node(Label(rng.gen_range(0..num_labels) as u16));
    }
    for i in 1..n as u32 {
        let parent = if i == 1 || rng.gen_bool(chain_bias) {
            i - 1
        } else {
            rng.gen_range(0..i)
        };
        b.add_edge(NodeId(parent), NodeId(i));
    }
    b.build()
}

/// Checks the tree invariant: node 0 has in-degree 0, every other
/// node has in-degree exactly 1, and every node is reachable from
/// node 0. The in-degrees alone also fit a tree beside cycles that
/// node 0 does not reach.
pub fn is_rooted_tree(g: &Graph) -> bool {
    let n = g.node_count();
    if n == 0 || g.in_degree(NodeId(0)) != 0 {
        return false;
    }
    if !(1..n as u32).all(|v| g.in_degree(NodeId(v)) == 1) {
        return false;
    }
    // With those in-degrees each node is entered at most once, so the
    // walk from the root needs no visited set.
    let mut reached = 0;
    let mut stack = vec![NodeId(0)];
    while let Some(v) = stack.pop() {
        reached += 1;
        stack.extend_from_slice(g.successors(v));
    }
    reached == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::graph_is_dag;

    #[test]
    fn tree_invariants() {
        let g = random_tree(500, 15, 21);
        assert_eq!(g.node_count(), 500);
        assert_eq!(g.edge_count(), 499);
        assert!(is_rooted_tree(&g));
        assert!(graph_is_dag(&g));
    }

    #[test]
    fn chain_bias_one_is_a_path() {
        let g = random_tree_with_chain_bias(50, 3, 1.0, 0);
        for v in 0..49u32 {
            assert_eq!(g.successors(NodeId(v)), &[NodeId(v + 1)]);
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(random_tree(100, 5, 4), random_tree(100, 5, 4));
    }

    #[test]
    fn single_node_tree() {
        let g = random_tree(1, 2, 0);
        assert!(is_rooted_tree(&g));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn is_rooted_tree_rejects_non_trees() {
        use crate::graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        b.add_nodes(3, Label(0));
        b.add_edge(NodeId(0), NodeId(2));
        b.add_edge(NodeId(1), NodeId(2)); // two parents
        assert!(!is_rooted_tree(&b.build()));

        let mut b = GraphBuilder::new();
        b.add_nodes(2, Label(0));
        b.add_edge(NodeId(1), NodeId(0)); // root has a parent
        assert!(!is_rooted_tree(&b.build()));

        let mut b = GraphBuilder::new();
        b.add_nodes(3, Label(0));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(1)); // in-degrees fit, 1 and 2 unreachable
        assert!(!is_rooted_tree(&b.build()));
    }
}
