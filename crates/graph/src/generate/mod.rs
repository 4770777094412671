//! Synthetic workload generators.
//!
//! The paper evaluates on the Yahoo web graph, a citation DAG, and
//! synthetic graphs with `|Σ| = 15` labels; none of those datasets are
//! redistributable, so this module provides generators that preserve
//! the structural properties the experiments depend on (degree
//! distributions, |V|:|E| ratios, label alphabet size, acyclicity,
//! tree shape).
//!
//! The substitutions: the Yahoo web graph becomes a scale-free labeled
//! graph with the same |V|:|E| = 1:5 ratio and |Σ| = 15
//! ([`random::community`] when the experiment needs a controlled
//! crossing structure); the citation DAG becomes a
//! community-structured citation-like DAG with |V|:|E| ≈ 1.4:3
//! ([`dag::citation_like_community`]); the synthetic graphs keep the
//! paper's 1:4 ratio. A target `|Vf|/|V|` is reached through the
//! community generators' cross-edge fraction: crossing edges hit
//! uniform targets, so `mc` of them put a node in `Vf` with
//! probability `≈ 1 − exp(−mc/|V|)`.
//!
//! * [`random`] — uniform and power-law ("web-like") labeled digraphs
//!   (Exp-1, Exp-3);
//! * [`dag`] — layered "citation-like" DAGs (Exp-2);
//! * [`tree`] — random rooted trees (Corollary 4 experiments);
//! * [`social`] — the paper's Fig. 1 running example and scalable
//!   social-recommendation graphs;
//! * [`adversarial`] — the Fig. 2 families behind the impossibility
//!   theorem;
//! * [`rmat`] — the R-MAT / Graph500 recursive-matrix model, a second
//!   scale-free family for cross-checking generator effects;
//! * [`patterns`] — random cyclic patterns and DAG patterns with a
//!   prescribed depth.

pub mod adversarial;
pub mod dag;
pub mod patterns;
pub mod random;
pub mod rmat;
pub mod social;
pub mod tree;

use crate::graph::{GraphBuilder, NodeId};
use crate::pattern::Pattern;
use rand::Rng;

/// Adds `copies` isomorphic copies of `pattern` to `builder`, plus one
/// random incoming edge per copy to keep the graph weakly connected.
///
/// An isomorphic copy guarantees that every pattern node has a
/// simulation match (the copy simulates the pattern), so generators use
/// this to implant a controllable number of guaranteed matches into
/// otherwise random graphs. Returns the first implanted node of each
/// copy.
pub fn implant_pattern<R: Rng>(
    builder: &mut GraphBuilder,
    pattern: &Pattern,
    copies: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let mut firsts = Vec::with_capacity(copies);
    for _ in 0..copies {
        let existing = builder.node_count();
        let base = builder.node_count() as u32;
        for u in pattern.nodes() {
            builder.add_node(pattern.label(u));
        }
        firsts.push(NodeId(base));
        for (u, c) in pattern.edges() {
            builder.add_edge(NodeId(base + u.0 as u32), NodeId(base + c.0 as u32));
        }
        if existing > 0 {
            let anchor = NodeId(rng.gen_range(0..existing as u32));
            builder.add_edge(anchor, NodeId(base));
        }
    }
    firsts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;
    use crate::pattern::PatternBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn implant_adds_isomorphic_copy() {
        let mut qb = PatternBuilder::new();
        let a = qb.add_node(Label(1));
        let b = qb.add_node(Label(2));
        qb.add_edge(a, b);
        let q = qb.build();

        let mut gb = GraphBuilder::new();
        gb.add_node(Label(0)); // pre-existing anchor
        let mut rng = SmallRng::seed_from_u64(7);
        let firsts = implant_pattern(&mut gb, &q, 3, &mut rng);
        assert_eq!(firsts.len(), 3);
        let g = gb.build();
        assert_eq!(g.node_count(), 1 + 3 * 2);
        for f in firsts {
            assert_eq!(g.label(f), Label(1));
            let next = NodeId(f.0 + 1);
            assert_eq!(g.label(next), Label(2));
            assert!(g.has_edge(f, next));
        }
    }
}
