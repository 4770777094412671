//! Random labeled digraph generators.
//!
//! * [`uniform`] — each edge chosen uniformly at random (G(n, m)-style);
//! * [`web_like`] — heavy-tailed in/out degrees via preferential
//!   attachment, substituting for the Yahoo web graph of Exp-1 (|V|:|E|
//!   = 1:5, |Σ| = 15 in the paper);
//! * [`community`] — communities with a controlled crossing fraction.

use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::label::Label;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_labels<R: Rng>(b: &mut GraphBuilder, n: usize, num_labels: usize, rng: &mut R) {
    assert!(num_labels > 0, "need at least one label");
    for _ in 0..n {
        b.add_node(Label(rng.gen_range(0..num_labels) as u16));
    }
}

/// A uniform random digraph with `n` nodes, about `m` edges (duplicates
/// are removed) and labels drawn uniformly from `0..num_labels`.
pub fn uniform(n: usize, m: usize, num_labels: usize, seed: u64) -> Graph {
    assert!(n > 0, "need at least one node");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    random_labels(&mut b, n, num_labels, &mut rng);
    for _ in 0..m {
        let u = NodeId(rng.gen_range(0..n as u32));
        let v = NodeId(rng.gen_range(0..n as u32));
        b.add_edge(u, v);
    }
    b.build()
}

/// A scale-free-ish random digraph: edge targets (and, with lower
/// probability, sources) are chosen by preferential attachment, giving
/// heavy-tailed in-degrees like a web graph. Nodes keep uniform random
/// labels so that label selectivity matches the uniform generator.
pub fn web_like(n: usize, m: usize, num_labels: usize, seed: u64) -> Graph {
    assert!(n > 0, "need at least one node");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    random_labels(&mut b, n, num_labels, &mut rng);

    // Endpoint pool for preferential attachment: picking a uniform
    // element of the pool selects nodes proportionally to their current
    // degree (plus the uniform seeding below).
    let mut pool: Vec<u32> = Vec::with_capacity(2 * m);
    for _ in 0..m {
        let u = if !pool.is_empty() && rng.gen_bool(0.25) {
            pool[rng.gen_range(0..pool.len())]
        } else {
            rng.gen_range(0..n as u32)
        };
        let v = if !pool.is_empty() && rng.gen_bool(0.70) {
            pool[rng.gen_range(0..pool.len())]
        } else {
            rng.gen_range(0..n as u32)
        };
        b.add_edge(NodeId(u), NodeId(v));
        pool.push(u);
        pool.push(v);
    }
    b.build()
}

/// A community-structured random digraph: `n` nodes split round-robin
/// into `k` communities; each edge stays inside its source's community
/// with probability `1 - cross_fraction` and goes to a uniform random
/// node otherwise.
///
/// Assigning community `i` to site `i` yields a fragmentation whose
/// `|Vf|/|V|` ratio is directly controlled by `cross_fraction`, which is
/// how the paper's `|Vf|` settings (25%–50%, Fig. 6(e)/(f)/(k)/(l)) are
/// realized here — the paper instead post-processes random
/// partitions with swap refinement \[27\], which `dgs-partition` also
/// implements.
pub fn community(
    n: usize,
    m: usize,
    k: usize,
    cross_fraction: f64,
    num_labels: usize,
    seed: u64,
) -> Graph {
    assert!(n > 0 && k > 0 && n >= k, "need n >= k >= 1");
    assert!((0.0..=1.0).contains(&cross_fraction), "fraction in [0,1]");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, m);
    random_labels(&mut b, n, num_labels, &mut rng);
    // Node v belongs to community v % k; community c = {c, c+k, ...}.
    let members_of = |c: usize| -> u32 { (n - c).div_ceil(k) as u32 };
    for _ in 0..m {
        let u = rng.gen_range(0..n as u32);
        let c = u as usize % k;
        let v = if rng.gen_bool(cross_fraction) {
            rng.gen_range(0..n as u32)
        } else {
            (rng.gen_range(0..members_of(c)) as usize * k + c) as u32
        };
        b.add_edge(NodeId(u), NodeId(v));
    }
    b.build()
}

/// The canonical site assignment for [`community`] graphs: node `v` on
/// site `v % k`.
pub fn community_assignment(n: usize, k: usize) -> Vec<usize> {
    (0..n).map(|v| v % k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_counts() {
        let g = uniform(100, 400, 15, 42);
        assert_eq!(g.node_count(), 100);
        // Duplicates are removed, so at most m edges; with n^2 = 10000
        // slots and 400 draws nearly all should survive.
        assert!(g.edge_count() > 350 && g.edge_count() <= 400);
    }

    #[test]
    fn uniform_deterministic() {
        let g1 = uniform(50, 200, 5, 7);
        let g2 = uniform(50, 200, 5, 7);
        assert_eq!(g1, g2);
        let g3 = uniform(50, 200, 5, 8);
        assert_ne!(g1, g3);
    }

    #[test]
    fn labels_within_alphabet() {
        let g = uniform(200, 600, 15, 1);
        assert!(g.nodes().all(|v| g.label(v).index() < 15));
        assert!(g.label_bound() <= 15);
    }

    #[test]
    fn web_like_heavy_tail() {
        let g = web_like(2_000, 10_000, 15, 3);
        assert_eq!(g.node_count(), 2_000);
        let max_in = g.nodes().map(|v| g.in_degree(v)).max().unwrap();
        let avg_in = g.edge_count() as f64 / g.node_count() as f64;
        // Preferential attachment must concentrate in-degree well above
        // the mean (a uniform graph would have max ≈ 15 here).
        assert!(
            max_in as f64 > 8.0 * avg_in,
            "max in-degree {max_in} not heavy-tailed (avg {avg_in:.1})"
        );
    }

    #[test]
    fn web_like_deterministic() {
        assert_eq!(web_like(100, 500, 15, 9), web_like(100, 500, 15, 9));
    }

    #[test]
    #[should_panic(expected = "at least one label")]
    fn zero_labels_rejected() {
        let _ = uniform(10, 10, 0, 0);
    }

    #[test]
    fn community_cross_fraction_controls_crossing_edges() {
        let n = 4_000;
        let k = 8;
        let assign = community_assignment(n, k);
        let crossing_ratio = |frac: f64| -> f64 {
            let g = community(n, 16_000, k, frac, 15, 5);
            let crossing = g
                .edges()
                .filter(|&(u, v)| assign[u.index()] != assign[v.index()])
                .count();
            crossing as f64 / g.edge_count() as f64
        };
        let lo = crossing_ratio(0.1);
        let hi = crossing_ratio(0.6);
        // cross_fraction f yields ~ f * (k-1)/k crossing edges.
        assert!((lo - 0.1 * 7.0 / 8.0).abs() < 0.03, "lo = {lo}");
        assert!((hi - 0.6 * 7.0 / 8.0).abs() < 0.03, "hi = {hi}");
        assert!(hi > 4.0 * lo);
    }

    #[test]
    fn community_assignment_round_robin() {
        assert_eq!(community_assignment(5, 2), vec![0, 1, 0, 1, 0]);
    }
}
