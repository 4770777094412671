//! DAG generators, substituting for the Citation dataset of Exp-2.
//!
//! A citation network is acyclic because papers cite older papers. The
//! [`citation_like`] generator reproduces that: node ids are
//! publication order, and each edge goes from a newer node to a
//! strictly older node, with a recency bias (papers mostly cite recent
//! work) and a popularity bias (well-cited papers attract more
//! citations). [`layered`] gives finer control over depth for the
//! diameter sweeps of Fig. 6(g)/(h).

use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::label::Label;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A citation-like DAG with `n` nodes and about `m` edges; labels
/// uniform from `0..num_labels`. Every edge `(u, v)` satisfies
/// `u > v` (newer cites older), so the graph is acyclic by
/// construction.
pub fn citation_like(n: usize, m: usize, num_labels: usize, seed: u64) -> Graph {
    assert!(n > 1, "need at least two nodes");
    assert!(num_labels > 0, "need at least one label");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    for _ in 0..n {
        b.add_node(Label(rng.gen_range(0..num_labels) as u16));
    }
    // Popularity pool of already-cited targets.
    let mut pool: Vec<u32> = Vec::with_capacity(m);
    for _ in 0..m {
        let u = rng.gen_range(1..n as u32);
        // Recency bias: max of two uniforms over [0, u) skews recent.
        let v = if !pool.is_empty() && rng.gen_bool(0.3) {
            // Popularity: re-cite a popular target if it is older than u.
            let candidate = pool[rng.gen_range(0..pool.len())];
            if candidate < u {
                candidate
            } else {
                rng.gen_range(0..u).max(rng.gen_range(0..u))
            }
        } else {
            rng.gen_range(0..u).max(rng.gen_range(0..u))
        };
        b.add_edge(NodeId(u), NodeId(v));
        pool.push(v);
    }
    b.build()
}

/// A layered DAG: `n` nodes spread over `layers` layers; each edge goes
/// from a node in layer `k` to a node in a strictly smaller layer
/// (biased to `k - 1`), so the longest path is at most `layers - 1` and
/// with high probability exactly that.
pub fn layered(n: usize, m: usize, layers: usize, num_labels: usize, seed: u64) -> Graph {
    assert!(layers >= 1 && n >= layers, "need n >= layers >= 1");
    assert!(num_labels > 0, "need at least one label");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    // Node i belongs to layer i % layers; nodes of layer k are
    // { k, k + layers, k + 2*layers, ... }.
    for _ in 0..n {
        b.add_node(Label(rng.gen_range(0..num_labels) as u16));
    }
    // A single layer admits no edges (every edge must descend a
    // layer): return the edgeless graph instead of searching forever
    // for a source above layer 0.
    if layers == 1 {
        return b.build();
    }
    let layer_of = |v: u32| (v as usize) % layers;
    let nodes_in_layer = |k: usize| -> u32 { (n - k).div_ceil(layers) as u32 };
    let pick_in_layer = |k: usize, rng: &mut SmallRng| -> u32 {
        let count = nodes_in_layer(k);
        (rng.gen_range(0..count) as usize * layers + k) as u32
    };
    for _ in 0..m {
        // Source in layer >= 1.
        let u = loop {
            let u = rng.gen_range(0..n as u32);
            if layer_of(u) >= 1 {
                break u;
            }
        };
        let ul = layer_of(u);
        // Target mostly in the adjacent layer below, sometimes deeper.
        let tl = if ul == 1 || rng.gen_bool(0.8) {
            ul - 1
        } else {
            rng.gen_range(0..ul - 1)
        };
        let v = pick_in_layer(tl, &mut rng);
        b.add_edge(NodeId(u), NodeId(v));
    }
    b.build()
}

/// A community-structured citation-like DAG: node `v` belongs to
/// community `v % k`; each citation stays inside its community with
/// probability `1 - cross_fraction`. Edges always point to strictly
/// older nodes, so the result is a DAG.
///
/// As with [`crate::generate::random::community`], assigning community
/// `i` to site `i` gives direct control over the `|Vf|/|V|` ratio —
/// the knob behind the `|Vf|` sweeps of Fig. 6(k)/(l).
pub fn citation_like_community(
    n: usize,
    m: usize,
    k: usize,
    cross_fraction: f64,
    num_labels: usize,
    seed: u64,
) -> Graph {
    assert!(n > k && k > 0, "need n > k >= 1");
    assert!((0.0..=1.0).contains(&cross_fraction), "fraction in [0,1]");
    assert!(num_labels > 0, "need at least one label");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    for _ in 0..n {
        b.add_node(Label(rng.gen_range(0..num_labels) as u16));
    }
    for _ in 0..m {
        let u = rng.gen_range(k as u32..n as u32); // old enough to have
                                                   // a same-community elder
        let c = u as usize % k;
        let v = if rng.gen_bool(cross_fraction) {
            rng.gen_range(0..u)
        } else {
            // Random same-community node older than u: members of c
            // below u are {c, c+k, ..., u-k}.
            let older = (u as usize - c) / k; // count of such members
            (rng.gen_range(0..older) * k + c) as u32
        };
        b.add_edge(NodeId(u), NodeId(v));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{graph_is_dag, graph_topo_ranks};

    #[test]
    fn citation_like_is_dag() {
        let g = citation_like(1_000, 2_200, 15, 11);
        assert!(graph_is_dag(&g));
        assert_eq!(g.node_count(), 1_000);
        assert!(g.edge_count() > 1_800);
    }

    #[test]
    fn citation_edges_point_backwards() {
        let g = citation_like(500, 1_500, 10, 5);
        for (u, v) in g.edges() {
            assert!(u.0 > v.0, "edge ({u:?},{v:?}) not backwards");
        }
    }

    #[test]
    fn citation_deterministic() {
        assert_eq!(citation_like(100, 300, 5, 2), citation_like(100, 300, 5, 2));
    }

    #[test]
    fn layered_is_dag_with_bounded_depth() {
        let layers = 6;
        let g = layered(600, 2_000, layers, 15, 3);
        assert!(graph_is_dag(&g));
        let ranks = graph_topo_ranks(&g).unwrap();
        let depth = ranks.into_iter().max().unwrap();
        assert!((depth as usize) < layers);
        // With 2000 edges biased to adjacent layers the full depth is
        // reached with overwhelming probability.
        assert_eq!(depth as usize, layers - 1);
    }

    #[test]
    fn layered_respects_layer_order() {
        let layers = 4;
        let g = layered(100, 300, layers, 5, 9);
        for (u, v) in g.edges() {
            assert!((u.0 as usize) % layers > (v.0 as usize) % layers);
        }
    }

    #[test]
    fn single_layer_graph_has_no_edges() {
        let g = layered(10, 50, 1, 3, 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn citation_community_is_dag_with_controlled_crossing() {
        let n = 4_000;
        let k = 8;
        let g = citation_like_community(n, 12_000, k, 0.2, 15, 7);
        assert!(graph_is_dag(&g));
        for (u, v) in g.edges() {
            assert!(u.0 > v.0);
        }
        let crossing = g
            .edges()
            .filter(|&(u, v)| u.index() % k != v.index() % k)
            .count();
        let ratio = crossing as f64 / g.edge_count() as f64;
        let expected = 0.2 * (k as f64 - 1.0) / k as f64;
        assert!(
            (ratio - expected).abs() < 0.04,
            "crossing ratio {ratio} vs expected {expected}"
        );
    }
}
