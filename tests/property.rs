//! Property-based tests (proptest) over random graphs, patterns and
//! fragmentations.

use dgs::graph::generate::{patterns, random};
use dgs::graph::QNodeId;
use dgs::prelude::*;
use dgs::sim::SimResult;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Strategy: a small random workload described by seeds and sizes
/// (generation itself goes through the deterministic generators so
/// shrinking stays meaningful).
fn workload_strategy() -> impl Strategy<Value = (Graph, Pattern, Vec<usize>, usize)> {
    (
        10usize..80,  // nodes
        1usize..5,    // edge multiplier
        2usize..5,    // labels
        3usize..6,    // query nodes
        1usize..5,    // sites
        any::<u64>(), // seed
    )
        .prop_map(|(n, em, labels, nq, k, seed)| {
            let g = random::uniform(n, n * em, labels, seed);
            let q = patterns::random_cyclic(nq, nq + 3, labels, seed ^ 0x9e37);
            let assign = hash_partition(n, k, seed);
            (g, q, assign, k)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The distributed engines equal the centralized oracle on
    /// arbitrary workloads.
    #[test]
    fn dgpm_equals_oracle((g, q, assign, k) in workload_strategy()) {
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let oracle = hhk_simulation(&q, &g);
        let engine = SimEngine::builder(&g, frag).build();
        for algo in [Algorithm::dgpm(), Algorithm::dgpm_nopt(), Algorithm::DMes] {
            let report = engine.query_with(&algo, &q).unwrap();
            prop_assert_eq!(&report.relation, &oracle.relation);
        }
    }

    /// HHK equals the naive fixpoint.
    #[test]
    fn hhk_equals_naive((g, q, _assign, _k) in workload_strategy()) {
        prop_assert_eq!(
            hhk_simulation(&q, &g).relation,
            naive_simulation(&q, &g).relation
        );
    }

    /// Soundness: every pair of the computed relation satisfies the
    /// simulation child condition; labels always agree.
    #[test]
    fn relation_is_sound((g, q, _assign, _k) in workload_strategy()) {
        let rel = hhk_simulation(&q, &g).relation;
        for (u, v) in rel.iter() {
            prop_assert_eq!(q.label(u), g.label(v));
        }
        let ok = rel.respects_child_condition(&q, |v| g.successors(v).to_vec());
        prop_assert!(ok);
    }

    /// Maximality: adding any label-compatible pair not in the
    /// relation breaks the simulation conditions (the relation is the
    /// *maximum* simulation). Verified by checking the candidate pair
    /// itself fails the child condition under R ∪ {pair}.
    #[test]
    fn relation_is_maximal((g, q, _assign, _k) in workload_strategy()) {
        let rel = hhk_simulation(&q, &g).relation;
        for u in q.nodes() {
            for v in g.nodes() {
                if q.label(u) != g.label(v) || rel.contains(u, v) {
                    continue;
                }
                // Under the (false) assumption that (u,v) holds in
                // addition to rel, some query edge of u must still be
                // unwitnessed — otherwise rel wasn't maximal. Witness
                // check uses rel ∪ {(u,v)}.
                let holds = |uu: QNodeId, vv: NodeId| {
                    rel.contains(uu, vv) || (uu == u && vv == v)
                };
                let all_witnessed = q.children(u).iter().all(|&uc| {
                    g.successors(v).iter().any(|&vc| holds(uc, vc))
                });
                prop_assert!(
                    !all_witnessed,
                    "pair (u{}, v{}) could be added — relation not maximal",
                    u.0, v.0
                );
            }
        }
    }

    /// The Boolean answer is consistent with totality of the relation,
    /// and the ∅ convention is applied.
    #[test]
    fn boolean_answer_consistency((g, q, assign, k) in workload_strategy()) {
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let report = SimEngine::builder(&g, frag)
            .build()
            .query_with(&Algorithm::dgpm(), &q)
            .unwrap();
        prop_assert_eq!(report.is_match, report.relation.is_total());
        if !report.is_match {
            prop_assert!(report.answer().is_empty());
        } else {
            prop_assert_eq!(report.answer(), &report.relation);
        }
    }

    /// Fragmentation invariants hold for arbitrary assignments:
    /// the local node sets partition V; Fi.O / Fi.I are consistent
    /// with the crossing edges; |Vf| counts distinct virtual nodes.
    #[test]
    fn fragmentation_invariants((g, _q, assign, k) in workload_strategy()) {
        let frag = Fragmentation::build(&g, &assign, k);
        // Partition.
        let mut seen = vec![false; g.node_count()];
        for f in frag.fragments() {
            for idx in f.local_indices() {
                let v = f.global_id(idx);
                prop_assert!(!seen[v.index()], "node in two fragments");
                seen[v.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b), "node in no fragment");
        // Crossing-edge consistency.
        let mut ef = 0usize;
        for (u, v) in g.edges() {
            if assign[u.index()] != assign[v.index()] {
                ef += 1;
                let fu = frag.fragment(assign[u.index()]);
                let idx = fu.index_of(v).expect("virtual node present at source");
                prop_assert!(fu.is_virtual(idx));
                let fv = frag.fragment(assign[v.index()]);
                let vidx = fv.index_of(v).unwrap();
                prop_assert!(fv.in_node_pos(vidx).is_some(), "target is an in-node");
            }
        }
        prop_assert_eq!(frag.ef(), ef);
        // |Vf| = distinct crossing-edge targets.
        let mut vf: Vec<u32> = g
            .edges()
            .filter(|&(u, v)| assign[u.index()] != assign[v.index()])
            .map(|(_, v)| v.0)
            .collect();
        vf.sort_unstable();
        vf.dedup();
        prop_assert_eq!(frag.vf(), vf.len());
    }

    /// The SCC-stratified engine equals the oracle on arbitrary
    /// (cyclic) workloads.
    #[test]
    fn dgpms_equals_oracle((g, q, assign, k) in workload_strategy()) {
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let oracle = hhk_simulation(&q, &g);
        let report = SimEngine::builder(&g, frag)
            .build()
            .query_with(&Algorithm::Dgpms, &q)
            .unwrap();
        prop_assert_eq!(&report.relation, &oracle.relation);
    }
}

// ---- bitset kernels vs the HashSet-of-pairs reference -----------------
//
// The flat `MatchSet` representation inside `hhk_simulation` and the
// engines' `lEval` has zero iteration-order freedom, so it must
// reproduce the HashSet reference kernel (`hashset_simulation` below)
// *exactly* — on trees, DAGs and cyclic graphs, under every engine,
// and across the delta-maintenance path.

/// The pre-bitset reference kernel: counter-based simulation over
/// `HashSet`/`HashMap`-of-pairs storage, the oracle of this section.
/// Candidate pairs live in a `HashSet<(u16, u32)>` and the
/// per-(query-edge, node) support counters in a
/// `HashMap<(usize, u32), u32>`, so every test, kill and decrement pays
/// a hash probe. The algorithm is the same HHK'95 worklist as
/// `hhk_simulation` — only the data layout differs.
fn hashset_simulation(q: &Pattern, g: &Graph) -> SimResult {
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

mod hashset_reference {
    use super::hashset_simulation;
    use dgs::graph::generate::patterns::random_cyclic;
    use dgs::graph::generate::random::uniform;
    use dgs::graph::generate::social::fig1;
    use dgs::prelude::*;

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

/// Strategy: a (graph shape × pattern shape) workload — tree, DAG or
/// cyclic data, tree-ish/DAG/cyclic query — plus a fragmentation.
fn shaped_workload_strategy() -> impl Strategy<Value = (Graph, Pattern, Vec<usize>, usize, u64)> {
    (
        0usize..3,    // graph family: tree | DAG | cyclic
        0usize..2,    // pattern family: DAG | cyclic
        12usize..70,  // nodes
        2usize..5,    // labels
        2usize..5,    // sites
        any::<u64>(), // seed
    )
        .prop_map(|(gf, qf, n, labels, k, seed)| {
            let g = match gf {
                0 => dgs::graph::generate::tree::random_tree(n, labels, seed),
                1 => dgs::graph::generate::dag::citation_like(n, 3 * n, labels, seed),
                _ => random::uniform(n, 3 * n, labels, seed),
            };
            let q = match qf {
                0 => patterns::random_dag_with_depth(4, 6, 2, labels, seed ^ 0x5bd1),
                _ => patterns::random_cyclic(4, 7, labels, seed ^ 0x5bd1),
            };
            let assign = hash_partition(g.node_count(), k, seed);
            (g, q, assign, k, seed)
        })
}

/// Pseudo-random mixed delta over `g`: deletions of distinct present
/// edges, insertions of distinct absent ones.
fn random_delta(g: &Graph, nops: usize, seed: u64) -> GraphDelta {
    let n = g.node_count() as u64;
    let mut edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let mut touched: std::collections::HashSet<(NodeId, NodeId)> = edges.iter().copied().collect();
    let mut delta = GraphDelta::default();
    let mut s = seed | 1;
    for i in 0..nops {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if i % 2 == 0 && !edges.is_empty() {
            let at = (s >> 33) as usize % edges.len();
            delta.delete_edges.push(edges.swap_remove(at));
        } else {
            let u = NodeId(((s >> 20) % n) as u32);
            let v = NodeId(((s >> 40) % n) as u32);
            if touched.insert((u, v)) {
                delta.insert_edges.push((u, v));
            }
        }
    }
    delta
}

/// `g` after `delta`, rebuilt the slow way for the oracle.
fn apply_to_graph(g: &Graph, delta: &GraphDelta) -> Graph {
    let deleted: std::collections::HashSet<(NodeId, NodeId)> =
        delta.delete_edges.iter().copied().collect();
    let mut b = GraphBuilder::new();
    for v in g.nodes() {
        b.add_node(g.label(v));
    }
    for (u, v) in g.edges() {
        if !deleted.contains(&(u, v)) {
            b.add_edge(u, v);
        }
    }
    for &(u, v) in &delta.insert_edges {
        b.add_edge(u, v);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The bitset kernel equals the HashSet reference kernel exactly,
    /// on every graph/pattern shape.
    #[test]
    fn bitset_kernel_equals_hashset_reference(
        (g, q, _assign, _k, _seed) in shaped_workload_strategy()
    ) {
        prop_assert_eq!(
            hhk_simulation(&q, &g).relation,
            hashset_simulation(&q, &g).relation
        );
    }

    /// Every engine whose plan accepts the workload reproduces the
    /// HashSet reference: the bitset `lEval`/`MatchSet` conversions
    /// changed no answers anywhere in dGPM/dGPMd/dGPMs/dGPMt. The one
    /// sanctioned divergence is an *explicit* `dGPMd`/`dGPMt` request
    /// short-circuited to `trivial-∅` (cyclic `Q` on an acyclic `G`),
    /// whose relation is the ∅ answer convention rather than the raw
    /// fixpoint — for that case the reference must agree there is no
    /// total match. `Auto` short-circuits only where ∅ is the fixpoint.
    #[test]
    fn engines_equal_hashset_reference_on_shaped_workloads(
        (g, q, assign, k, _seed) in shaped_workload_strategy()
    ) {
        let oracle = hashset_simulation(&q, &g);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).cache_capacity(0).build();
        for algo in [
            Algorithm::dgpm(),
            Algorithm::Dgpmd,
            Algorithm::Dgpms,
            Algorithm::Dgpmt,
            Algorithm::Auto,
        ] {
            // Shape-restricted engines may decline (e.g. dGPMt off a
            // tree); a produced answer must match the reference.
            if let Ok(report) = engine.query_with(&algo, &q) {
                prop_assert_eq!(report.is_match, oracle.relation.is_total());
                if report.algorithm == "trivial-∅" && !matches!(algo, Algorithm::Auto) {
                    prop_assert!(!oracle.relation.is_total());
                } else {
                    prop_assert_eq!(
                        &report.relation,
                        &oracle.relation,
                        "{:?} diverges from the HashSet reference",
                        algo
                    );
                }
            }
        }
    }

    /// The delta path too: after a mixed insert/delete batch the
    /// maintained session answers exactly what the HashSet reference
    /// computes on the mutated graph.
    #[test]
    fn delta_path_equals_hashset_reference(
        (g, q, assign, k, seed) in shaped_workload_strategy()
    ) {
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let engine = SimEngine::builder(&g, frag).build();
        // Warm the cached answer so maintenance has something to keep
        // current.
        engine.query(&q).expect("pre-delta query");
        let delta = random_delta(&g, 8, seed ^ 0xd1f7);
        if !delta.is_empty() {
            engine.apply_delta(&delta).expect("apply delta");
            let oracle = hashset_simulation(&q, &apply_to_graph(&g, &delta));
            let got = engine.query(&q).expect("post-delta query");
            prop_assert_eq!(got.is_match, oracle.relation.is_total());
            prop_assert_eq!(
                &got.relation,
                &oracle.relation,
                "delta path diverges from the HashSet reference on the mutated graph"
            );
        }
    }
}
