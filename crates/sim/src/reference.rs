//! The pre-bitset reference kernel: counter-based simulation over
//! `HashSet`/`HashMap`-of-pairs storage.
//!
//! This is the representation the hot paths used before
//! [`crate::matchset`]: candidate pairs live in a `HashSet<(u16, u32)>`
//! and the per-(query-edge, node) support counters in a
//! `HashMap<(usize, u32), u32>`, so every test, kill and decrement pays
//! a hash probe.  The algorithm is the same HHK'95 worklist as
//! [`crate::hhk::hhk_simulation`] — only the data layout differs —
//! which makes this kernel the **oracle** for proptest equivalence of
//! the bitset kernels (`tests/property.rs`). It is not a benchmark
//! baseline: what the bitset path costs is `sim.hhk_ms_per_query` in
//! `perf/README.md`.

use crate::match_relation::{MatchRelation, SimResult};
use dgs_graph::{Graph, NodeId, Pattern, QNodeId};
use std::collections::{HashMap, HashSet};

/// Computes the maximum simulation relation with hash-table pair
/// storage (the old hot-path representation).
pub fn hashset_simulation(q: &Pattern, g: &Graph) -> SimResult {
    let nq = q.node_count();
    let n = g.node_count() as u32;
    let mut ops: u64 = 0;

    let qedges: Vec<(QNodeId, QNodeId)> = q.edges().collect();
    let mut parent_edges: Vec<Vec<(usize, QNodeId)>> = vec![Vec::new(); nq];
    for (e, &(u, uc)) in qedges.iter().enumerate() {
        parent_edges[uc.index()].push((e, u));
    }

    // Candidate pairs (u, v), label-matched.
    let mut cand: HashSet<(u16, u32)> = HashSet::new();
    for u in q.nodes() {
        let lu = q.label(u);
        for v in 0..n {
            ops += 1;
            if g.label(NodeId(v)) == lu {
                cand.insert((u.0, v));
            }
        }
    }

    // cnt[(e, v)] = |succ(v) ∩ cand(uc)| for e = (u, uc): a hash probe
    // per (successor × query edge) — the churn the bitset rows remove.
    let mut cnt: HashMap<(usize, u32), u32> = HashMap::new();
    for v in 0..n {
        let succs = g.successors(NodeId(v));
        for (e, &(_, uc)) in qedges.iter().enumerate() {
            let mut c = 0u32;
            for &w in succs {
                ops += 1;
                if cand.contains(&(uc.0, w.0)) {
                    c += 1;
                }
            }
            cnt.insert((e, v), c);
        }
    }

    // Seed the worklist with pairs that fail immediately.
    let mut worklist: Vec<(QNodeId, u32)> = Vec::new();
    for u in q.nodes() {
        if q.is_sink(u) {
            continue;
        }
        let out_edges: Vec<usize> = qedges
            .iter()
            .enumerate()
            .filter_map(|(e, &(src, _))| (src == u).then_some(e))
            .collect();
        for v in 0..n {
            if !cand.contains(&(u.0, v)) {
                continue;
            }
            ops += 1;
            if out_edges.iter().any(|&e| cnt[&(e, v)] == 0) {
                cand.remove(&(u.0, v));
                worklist.push((u, v));
            }
        }
    }

    // Propagate deaths.
    while let Some((uc, vc)) = worklist.pop() {
        for &(e, u) in &parent_edges[uc.index()] {
            for &vp in g.predecessors(NodeId(vc)) {
                ops += 1;
                let c = cnt.get_mut(&(e, vp.0)).expect("seeded counter");
                debug_assert!(*c > 0, "counter underflow");
                *c -= 1;
                if *c == 0 && cand.remove(&(u.0, vp.0)) {
                    worklist.push((u, vp.0));
                }
            }
        }
    }

    let mut lists: Vec<Vec<NodeId>> = vec![Vec::new(); nq];
    for &(u, v) in &cand {
        lists[u as usize].push(NodeId(v));
    }
    for l in &mut lists {
        l.sort_unstable();
    }
    SimResult {
        relation: MatchRelation::from_lists(lists),
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hhk::hhk_simulation;
    use crate::naive::naive_simulation;
    use dgs_graph::generate::patterns::random_cyclic;
    use dgs_graph::generate::random::uniform;
    use dgs_graph::generate::social::fig1;

    #[test]
    fn fig1_matches_expected() {
        let w = fig1();
        let r = hashset_simulation(&w.pattern, &w.graph);
        assert!(r.matches());
        let mut got: Vec<_> = r.relation.iter().collect();
        let mut expected = w.expected_matches();
        got.sort();
        expected.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn agrees_with_both_kernels_on_random_inputs() {
        for seed in 0..20 {
            let g = uniform(60, 180, 4, seed);
            let q = random_cyclic(4, 7, 4, seed * 31 + 1);
            let hash = hashset_simulation(&q, &g);
            assert_eq!(
                hash.relation,
                hhk_simulation(&q, &g).relation,
                "seed {seed}"
            );
            assert_eq!(
                hash.relation,
                naive_simulation(&q, &g).relation,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn empty_graph_never_matches() {
        let q = random_cyclic(3, 4, 3, 0);
        let g = dgs_graph::GraphBuilder::new().build();
        let r = hashset_simulation(&q, &g);
        assert!(!r.matches());
        assert_eq!(r.relation.len(), 0);
    }
}
