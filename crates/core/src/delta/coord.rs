//! The coordinator of a batch's one maintenance run, and
//! [`build_maintenance`], which assembles the run's actors.
//!
//! The run is phased by coordinator quiescence barriers —
//! `Deleting → Marking → Refining → Gathering` — because marking must
//! see the post-deletion candidacy and refinement must see the
//! complete `AFF` and every candidacy row: 4 rounds for a batch with
//! insertions, 2 for a deletion-only one.

use super::msg::{ByEntry, UpdateMsg};
use super::site::DeltaSiteLogic;
use super::state::{DeltaSiteState, Entry};
use crate::vars::Var;
use dgs_graph::{NodeId, Pattern};
use dgs_net::{CoordinatorLogic, Endpoint, Outbox};
use dgs_partition::{Fragmentation, SpanLists};
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Deleting,
    Marking,
    Refining,
    Gathering,
    Done,
}

/// Coordinator of a batch's one maintenance run: routes the deletion
/// batch, idles through the falsification fixpoint, then (when the
/// batch has insertions) drives marking and refinement through two
/// more quiescence barriers, and finally collects the revoked and
/// resurrected pairs of every entry. Insertion-only batches sail
/// through the empty deletion phase; deletion-only batches skip
/// marking and refinement entirely. So a batch costs 4 rounds (2
/// without insertions) whatever the number of entries.
pub struct DeltaCoordinator {
    ops_by_site: Vec<Vec<(u32, u32)>>,
    ins_by_site: Vec<Vec<(u32, u32)>>,
    /// Per owner site: `(dest site, in-node global id)` candidacy
    /// shipments for crossing insertions.
    ship_by_site: Vec<Vec<(u32, u32)>>,
    has_insertions: bool,
    phase: Phase,
    /// Per entry, the match pairs revoked across all sites, ascending
    /// once the run is done (query nodes in the entry's pattern's
    /// numbering, data nodes global).
    pub revoked: Vec<Vec<Var>>,
    /// Per entry, the match pairs resurrected across all sites,
    /// ascending once the run is done.
    pub resurrected: Vec<Vec<Var>>,
}

impl DeltaCoordinator {
    fn begin_gather(&mut self, out: &mut Outbox<UpdateMsg>) -> bool {
        for i in 0..out.num_sites() {
            out.send_control(Endpoint::Site(i as u32), UpdateMsg::GatherRequest);
        }
        self.phase = Phase::Gathering;
        if out.num_sites() == 0 {
            self.phase = Phase::Done;
            return true;
        }
        false
    }

    /// Records one site's result for every entry it names.
    fn collect(into: &mut [Vec<Var>], groups: ByEntry<Var>, out: &mut Outbox<UpdateMsg>) {
        for (k, vars) in groups {
            out.charge_ops(vars.len() as u64 + 1);
            into[k as usize].extend(vars);
        }
    }
}

impl CoordinatorLogic<UpdateMsg> for DeltaCoordinator {
    fn on_start(&mut self, out: &mut Outbox<UpdateMsg>) {
        for (s, ops) in self.ops_by_site.iter_mut().enumerate() {
            if !ops.is_empty() {
                out.send(
                    Endpoint::Site(s as u32),
                    UpdateMsg::Ops(std::mem::take(ops)),
                );
            }
        }
    }

    fn on_message(&mut self, _from: Endpoint, msg: UpdateMsg, out: &mut Outbox<UpdateMsg>) {
        match msg {
            UpdateMsg::Revoked(groups) => Self::collect(&mut self.revoked, groups, out),
            UpdateMsg::Resurrected(groups) => Self::collect(&mut self.resurrected, groups, out),
            _ => unreachable!("coordinator only receives results"),
        }
    }

    fn on_quiescent(&mut self, out: &mut Outbox<UpdateMsg>) -> bool {
        match self.phase {
            Phase::Deleting => {
                if !self.has_insertions {
                    return self.begin_gather(out);
                }
                for (s, ops) in self.ins_by_site.iter_mut().enumerate() {
                    if !ops.is_empty() {
                        out.send(
                            Endpoint::Site(s as u32),
                            UpdateMsg::InsOps(std::mem::take(ops)),
                        );
                    }
                }
                for (s, ships) in self.ship_by_site.iter_mut().enumerate() {
                    if !ships.is_empty() {
                        out.send_control(
                            Endpoint::Site(s as u32),
                            UpdateMsg::ShipCand(std::mem::take(ships)),
                        );
                    }
                }
                self.phase = Phase::Marking;
                false
            }
            Phase::Marking => {
                // Every site gets `Refine`: marks spread through
                // `Affected` cascades, so any site may hold part of
                // `AFF` by now.
                for i in 0..out.num_sites() {
                    out.send_control(Endpoint::Site(i as u32), UpdateMsg::Refine);
                }
                self.phase = Phase::Refining;
                false
            }
            Phase::Refining => self.begin_gather(out),
            Phase::Gathering => {
                // Sites report in whatever order they finish: sorted,
                // a diff is the same under every executor.
                for vars in self.revoked.iter_mut().chain(&mut self.resurrected) {
                    vars.sort_unstable();
                }
                self.phase = Phase::Done;
                true
            }
            Phase::Done => true,
        }
    }
}

/// Builds the actor set of a batch's **one** maintenance run over
/// `deletions` and `insertions` (either may be empty; the engine
/// guarantees they are disjoint) for every maintained entry: one
/// [`DeltaSiteLogic`] per site holding each entry's pattern and
/// persistent [`DeltaSiteState`], plus the routing coordinator.
/// `entries` lists them as `(pattern, one state per site)`; the run's
/// messages and results name an entry by its position there. Each op
/// is routed to the site owning its source node; for every *crossing*
/// insertion the coordinator also schedules a [`UpdateMsg::ShipCand`]
/// so the inserting site's fresh (or revived) virtual slot starts from
/// the owner's current candidacy. `frag` must already have the delta
/// applied.
///
/// `pred` is the session's **one** reverse adjacency per site
/// ([`Fragmentation::reverse_adjacency`], taken once), *pre-delta*:
/// the deletion phase reads it, and a redelivered op is recognised by
/// `remove`/`insert` on it returning `false`. The run edits it once
/// per edge for all entries and [`DeltaSiteLogic::into_parts`] hands
/// it back post-delta, where the next batch starts.
///
/// # Panics
/// Panics unless `pred` and every entry's states have one element per
/// site.
pub fn build_maintenance(
    frag: &Arc<Fragmentation>,
    entries: Vec<(Arc<Pattern>, Vec<DeltaSiteState>)>,
    mut pred: Vec<SpanLists<u32>>,
    deletions: &[(NodeId, NodeId)],
    insertions: &[(NodeId, NodeId)],
) -> (DeltaCoordinator, Vec<DeltaSiteLogic>) {
    let n = frag.num_sites();
    assert!(
        pred.len() == n && entries.iter().all(|(_, states)| states.len() == n),
        "one state per entry and one reverse adjacency per site required"
    );
    // Both ends of a batch edge have a slot at its source's site in
    // the post-delta fragment (a retired virtual slot keeps its index;
    // a new one gets its empty list here, and bits that stay false
    // until its `CandRow` lands).
    for (f, lists) in frag.fragments().iter().zip(&mut pred) {
        lists.grow_to(f.n_total());
    }
    let k = entries.len();
    let mut per_site: Vec<Vec<Entry>> = (0..n).map(|_| Vec::with_capacity(k)).collect();
    for (k, (q, states)) in (0..).zip(entries) {
        for ((f, st), site) in frag.fragments().iter().zip(states).zip(&mut per_site) {
            site.push(Entry::new(k, Arc::clone(&q), st, f.n_total()));
        }
    }
    let mut ops_by_site: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for &(u, v) in deletions {
        ops_by_site[frag.owner(u)].push((u.0, v.0));
    }
    let mut ins_by_site: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    let mut ship_by_site: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
    for &(u, v) in insertions {
        let (src, dst) = (frag.owner(u), frag.owner(v));
        ins_by_site[src].push((u.0, v.0));
        if dst != src {
            ship_by_site[dst].push((src as u32, v.0));
        }
    }
    for ships in &mut ship_by_site {
        ships.sort_unstable();
        ships.dedup();
    }
    let sites = (per_site.into_iter().zip(pred).enumerate())
        .map(|(site, (entries, pred))| {
            DeltaSiteLogic::new(site, Arc::clone(frag), entries, pred, n)
        })
        .collect();
    (
        DeltaCoordinator {
            ops_by_site,
            ins_by_site,
            ship_by_site,
            has_insertions: !insertions.is_empty(),
            phase: Phase::Deleting,
            revoked: vec![Vec::new(); k],
            resurrected: vec![Vec::new(); k],
        },
        sites,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_eval::EvalState;
    use dgs_graph::generate::{patterns, random};
    use dgs_graph::GraphBuilder;
    use dgs_graph::QNodeId;
    use dgs_net::{CostModel, ExecutorKind};
    use dgs_partition::hash_partition;
    use dgs_partition::SiteId;
    use dgs_sim::hhk_simulation;

    fn rows_of(q: &Pattern, g: &dgs_graph::Graph) -> Vec<Vec<NodeId>> {
        let rel = hhk_simulation(q, g).relation;
        q.nodes().map(|u| rel.matches_of(u).to_vec()).collect()
    }

    impl DeltaSiteState {
        /// The reference state of `site` for a *converged* relation,
        /// counted from scratch: candidacy is relation membership on
        /// every slot, and every local node's counters are exact, read
        /// or not. `rows[u]` must be the sorted matches of query node
        /// `u` over global node ids.
        fn from_relation(
            frag: &Fragmentation,
            site: SiteId,
            q: &Pattern,
            rows: &[Vec<NodeId>],
        ) -> Self {
            let f = frag.fragment(site);
            let mut eval = EvalState::new(q, f.n_total(), f.n_local());
            for idx in 0..f.n_total() as u32 {
                for (u, row) in rows.iter().enumerate() {
                    if row.binary_search(&f.global_id(idx)).is_ok() {
                        eval.cand.set(u, idx);
                    }
                }
            }
            for (e, (_, uc)) in q.edges().enumerate() {
                for idx in f.local_indices() {
                    let succ = f.successors(idx).iter();
                    let c = succ.filter(|&&s| eval.cand.test(uc.index(), s)).count();
                    eval.cnt[e * f.n_local() + idx as usize] = c as u32;
                }
            }
            DeltaSiteState::new(eval)
        }
    }

    /// A batch's run over `entries`, the way these tests set one up:
    /// the reverse adjacency made on the spot from the pre-delta
    /// fragmentation `before`, the batch already applied to `after`.
    fn build_maintenance(
        before: &Fragmentation,
        after: &Arc<Fragmentation>,
        entries: Vec<(&Pattern, Vec<DeltaSiteState>)>,
        deletions: &[(NodeId, NodeId)],
        insertions: &[(NodeId, NodeId)],
    ) -> (DeltaCoordinator, Vec<DeltaSiteLogic>) {
        let entries = (entries.into_iter())
            .map(|(q, states)| (Arc::new(q.clone()), states))
            .collect();
        let pred = before.reverse_adjacency();
        super::build_maintenance(after, entries, pred, deletions, insertions)
    }

    /// The states the sites hand back, one list per entry.
    fn entry_states(sites: Vec<DeltaSiteLogic>) -> Vec<Vec<DeltaSiteState>> {
        let mut by_entry: Vec<Vec<DeltaSiteState>> = Vec::new();
        for site in sites {
            let (states, _) = site.into_parts();
            by_entry.resize_with(states.len(), Vec::new);
            for (entry, st) in by_entry.iter_mut().zip(states) {
                entry.push(st);
            }
        }
        by_entry
    }

    fn graph_without(g: &dgs_graph::Graph, deleted: &[(NodeId, NodeId)]) -> dgs_graph::Graph {
        let mut b = GraphBuilder::new();
        for v in g.nodes() {
            b.add_node(g.label(v));
        }
        for (u, v) in g.edges() {
            if !deleted.contains(&(u, v)) {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    #[test]
    fn maintenance_run_matches_recomputation() {
        for seed in 0..6 {
            let n = 80;
            let g = random::uniform(n, 320, 4, seed);
            let q = patterns::random_cyclic(4, 7, 4, seed + 3);
            let assign = hash_partition(n, 3, seed);
            let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
            let rows = rows_of(&q, &g);

            let deletions: Vec<(NodeId, NodeId)> = g.edges().take(12).collect();
            let states: Vec<DeltaSiteState> = (0..3)
                .map(|s| DeltaSiteState::from_relation(&frag, s, &q, &rows))
                .collect();

            // The fragmentation absorbs the delta first (as the engine
            // does), then the maintenance protocol runs.
            let mut frag2 = (*frag).clone();
            frag2.apply_delta(
                &deletions
                    .iter()
                    .map(|&(u, v)| dgs_partition::EdgeOp::Delete(u, v))
                    .collect::<Vec<_>>(),
            );
            let frag2 = Arc::new(frag2);
            let (coord, sites) =
                build_maintenance(&frag, &frag2, vec![(&q, states)], &deletions, &[]);
            let o = dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, sites);

            // Revoking the reported pairs from the old relation yields
            // the oracle relation on the mutated graph.
            let g2 = graph_without(&g, &deletions);
            let oracle = hhk_simulation(&q, &g2).relation;
            assert!(o.coordinator.resurrected[0].is_empty());
            let mut rows2 = rows.clone();
            for var in &o.coordinator.revoked[0] {
                let row = &mut rows2[var.q as usize];
                let pos = row
                    .binary_search(&var.node_id())
                    .expect("revoked pair was in the relation");
                row.remove(pos);
            }
            let maintained = dgs_sim::MatchRelation::from_lists(rows2);
            assert_eq!(maintained, oracle, "seed {seed}");
        }
    }

    #[test]
    fn redelivered_deletions_and_falsifications_are_idempotent() {
        use dgs_net::{DeliveryPlan, VirtualExecutor};
        for seed in 0..4 {
            let n = 70;
            let g = random::uniform(n, 280, 4, seed + 50);
            let q = patterns::random_cyclic(4, 7, 4, seed + 53);
            let assign = hash_partition(n, 4, seed);
            let frag = Arc::new(Fragmentation::build(&g, &assign, 4));
            let rows = rows_of(&q, &g);
            let deletions: Vec<(NodeId, NodeId)> = g.edges().take(10).collect();

            let mut frag2 = (*frag).clone();
            frag2.apply_delta(
                &deletions
                    .iter()
                    .map(|&(u, v)| dgs_partition::EdgeOp::Delete(u, v))
                    .collect::<Vec<_>>(),
            );
            let frag2 = Arc::new(frag2);

            let run = |plan: Option<DeliveryPlan>| {
                let states: Vec<DeltaSiteState> = (0..4)
                    .map(|s| DeltaSiteState::from_relation(&frag, s, &q, &rows))
                    .collect();
                let (coord, sites) =
                    build_maintenance(&frag, &frag2, vec![(&q, states)], &deletions, &[]);
                let mut exec = VirtualExecutor::new(CostModel::default());
                if let Some(plan) = plan {
                    exec = exec.with_delivery(plan);
                }
                let o = exec.run(coord, sites);
                let mut revoked = o.coordinator.revoked[0].clone();
                revoked.sort_unstable();
                let states = entry_states(o.sites).remove(0);
                (revoked, states, o.metrics)
            };

            let (clean_revoked, clean_states, _) = run(None);
            let (faulty_revoked, faulty_states, m) =
                run(Some(DeliveryPlan::duplicating(1.0, seed ^ 0xA5)));
            // Every data message (ops batches and falsifications) was
            // re-delivered...
            if m.data_messages > 0 {
                assert_eq!(m.duplicated_messages * 2, m.data_messages, "seed {seed}");
            }
            // ...and neither the revoked set nor any site's counter
            // state changed: deletions and falsifications are
            // idempotent.
            assert_eq!(faulty_revoked, clean_revoked, "seed {seed}");
            assert_eq!(faulty_states, clean_states, "seed {seed}");
        }
    }

    /// Applies a mixed batch via the distributed protocol under a hash
    /// partition and checks the patched rows against the cold oracle
    /// on the mutated graph.
    fn check_mixed_maintenance(
        seed: u64,
        n: usize,
        sites: usize,
        deletions: &[(NodeId, NodeId)],
        insertions: &[(NodeId, NodeId)],
        g: &dgs_graph::Graph,
        q: &Pattern,
    ) {
        let assign = hash_partition(n, sites, seed);
        check_maintenance_on(&assign, sites, deletions, insertions, g, q);
    }

    /// The same under a given assignment. Returns the run's metrics,
    /// the pairs marked across all sites, and the resurrected pairs.
    fn check_maintenance_on(
        assign: &[SiteId],
        sites: usize,
        deletions: &[(NodeId, NodeId)],
        insertions: &[(NodeId, NodeId)],
        g: &dgs_graph::Graph,
        q: &Pattern,
    ) -> (dgs_net::RunMetrics, u64, usize) {
        let frag = Arc::new(Fragmentation::build(g, assign, sites));
        let rows = rows_of(q, g);
        let states: Vec<DeltaSiteState> = (0..sites)
            .map(|s| DeltaSiteState::from_relation(&frag, s, q, &rows))
            .collect();

        let mut ops: Vec<dgs_partition::EdgeOp> = insertions
            .iter()
            .map(|&(u, v)| dgs_partition::EdgeOp::Insert(u, v))
            .collect();
        ops.extend(
            deletions
                .iter()
                .map(|&(u, v)| dgs_partition::EdgeOp::Delete(u, v)),
        );
        let mut frag2 = (*frag).clone();
        frag2.apply_delta(&ops);
        let frag2 = Arc::new(frag2);
        let (coord, site_logic) =
            build_maintenance(&frag, &frag2, vec![(q, states)], deletions, insertions);
        let o = dgs_net::run(
            ExecutorKind::Virtual,
            &CostModel::default(),
            coord,
            site_logic,
        );

        let mut b = GraphBuilder::new();
        for v in g.nodes() {
            b.add_node(g.label(v));
        }
        for (u, v) in g.edges() {
            if !deletions.contains(&(u, v)) {
                b.add_edge(u, v);
            }
        }
        for &(u, v) in insertions {
            b.add_edge(u, v);
        }
        let oracle = hhk_simulation(q, &b.build()).relation;

        let mut rows2 = rows.clone();
        for var in &o.coordinator.revoked[0] {
            let row = &mut rows2[var.q as usize];
            let pos = row
                .binary_search(&var.node_id())
                .expect("revoked pair was in the relation");
            row.remove(pos);
        }
        for var in &o.coordinator.resurrected[0] {
            let row = &mut rows2[var.q as usize];
            let pos = row
                .binary_search(&var.node_id())
                .expect_err("resurrected pair was not in the relation");
            row.insert(pos, var.node_id());
        }
        let maintained = dgs_sim::MatchRelation::from_lists(rows2);
        assert_eq!(maintained, oracle);
        let affected = o.sites.iter().map(|s| s.stats().affected_pairs).sum();
        (o.metrics, affected, o.coordinator.resurrected[0].len())
    }

    /// A chain `v0 → … → v8` with alternating labels, laid across three
    /// sites in blocks of three, against the two-node cycle pattern:
    /// nothing matches until the far end is closed into a cycle.
    fn chain_over_three_sites() -> (dgs_graph::Graph, Pattern, Vec<SiteId>) {
        let mut gb = GraphBuilder::new();
        let vs: Vec<NodeId> = (0..9)
            .map(|i| gb.add_node(dgs_graph::Label(i % 2)))
            .collect();
        for w in vs.windows(2) {
            gb.add_edge(w[0], w[1]);
        }
        let mut pb = dgs_graph::PatternBuilder::new();
        let a = pb.add_node(dgs_graph::Label(0));
        let b = pb.add_node(dgs_graph::Label(1));
        pb.add_edge(a, b);
        pb.add_edge(b, a);
        (gb.build(), pb.build(), (0..9).map(|i| i / 3).collect())
    }

    #[test]
    fn affected_area_crosses_two_borders_pair_by_pair() {
        let (g, q, assign) = chain_over_three_sites();
        assert!(hhk_simulation(&q, &g).relation.is_empty());
        // Closing `v8 → v7` happens inside site 2; every pair upstream
        // comes back, so `AFF` has to reach site 0 through two
        // `Affected` hops — the only data messages besides `InsOps`.
        let closing = [(NodeId(8), NodeId(7))];
        let (m, affected, resurrected) = check_maintenance_on(&assign, 3, &[], &closing, &g, &q);
        assert_eq!((affected, resurrected), (9, 9));
        assert_eq!(m.data_messages, 1 + 2, "InsOps + one Affected per border");
    }

    #[test]
    fn matching_pairs_are_frozen_out_of_the_affected_area() {
        // An alternating ring: every label-compatible pair matches
        // already, so a chord has nothing to mark and nothing to report.
        let n = 12;
        let mut gb = GraphBuilder::new();
        let vs: Vec<NodeId> = (0..n)
            .map(|i| gb.add_node(dgs_graph::Label(i % 2)))
            .collect();
        for i in 0..n as usize {
            gb.add_edge(vs[i], vs[(i + 1) % n as usize]);
        }
        let g = gb.build();
        let (_, q, _) = chain_over_three_sites();
        assert_eq!(hhk_simulation(&q, &g).relation.len(), n as usize);
        let chords = [(vs[0], vs[5]), (vs[3], vs[8]), (vs[7], vs[2])];
        let assign: Vec<SiteId> = (0..n as usize).map(|i| i % 3).collect();
        let (_, affected, resurrected) = check_maintenance_on(&assign, 3, &[], &chords, &g, &q);
        assert_eq!((affected, resurrected), (0, 0));
    }

    #[test]
    fn insertion_only_run_matches_recomputation() {
        for seed in 0..6 {
            let n = 60;
            let g = random::uniform(n, 180, 4, seed + 20);
            let q = patterns::random_cyclic(4, 7, 4, seed + 23);
            let present: std::collections::HashSet<(NodeId, NodeId)> = g.edges().collect();
            let mut insertions = Vec::new();
            'outer: for u in 0..n as u32 {
                for v in 0..n as u32 {
                    let e = (NodeId(u), NodeId((v * 7 + u) % n as u32));
                    if e.0 != e.1 && !present.contains(&e) && !insertions.contains(&e) {
                        insertions.push(e);
                        if insertions.len() == 12 {
                            break 'outer;
                        }
                    }
                }
            }
            check_mixed_maintenance(seed, n, 3, &[], &insertions, &g, &q);
        }
    }

    #[test]
    fn mixed_run_matches_recomputation() {
        for seed in 0..6 {
            let n = 60;
            let g = random::uniform(n, 200, 4, seed + 40);
            let q = patterns::random_cyclic(4, 7, 4, seed + 43);
            let deletions: Vec<(NodeId, NodeId)> = g.edges().take(8).collect();
            let present: std::collections::HashSet<(NodeId, NodeId)> = g.edges().collect();
            let mut insertions = Vec::new();
            'outer: for u in 0..n as u32 {
                for v in 0..n as u32 {
                    let e = (NodeId((u * 13 + 5) % n as u32), NodeId(v));
                    if e.0 != e.1 && !present.contains(&e) && !insertions.contains(&e) {
                        insertions.push(e);
                        if insertions.len() == 8 {
                            break 'outer;
                        }
                    }
                }
            }
            check_mixed_maintenance(seed, n, 4, &deletions, &insertions, &g, &q);
        }
    }

    #[test]
    fn ring_mend_resurrects_across_sites() {
        // Distributed sibling of the centralized ring-mend test: the
        // adversarial cycle spans sites round-robin, the closing edge
        // is deleted (killing every pair) and re-inserted in a later
        // batch — the refinement must revive the mutually-supporting
        // pairs through cross-site Affected/Falsified traffic.
        use dgs_graph::generate::adversarial;
        let n = 12;
        let q = adversarial::q0();
        let g = adversarial::cycle_graph(n);
        let closing = (adversarial::b_node(n), adversarial::a_node(1));
        let g2 = graph_without(&g, &[closing]);
        check_mixed_maintenance(7, g.node_count(), 3, &[], &[closing], &g2, &q);
    }

    #[test]
    fn redelivered_insertion_traffic_is_idempotent() {
        use dgs_net::{DeliveryPlan, VirtualExecutor};
        for seed in 0..4 {
            let n = 50;
            let g = random::uniform(n, 160, 4, seed + 70);
            let q = patterns::random_cyclic(4, 7, 4, seed + 73);
            let assign = hash_partition(n, 4, seed);
            let frag = Arc::new(Fragmentation::build(&g, &assign, 4));
            let rows = rows_of(&q, &g);
            let deletions: Vec<(NodeId, NodeId)> = g.edges().take(6).collect();
            let present: std::collections::HashSet<(NodeId, NodeId)> = g.edges().collect();
            let mut insertions = Vec::new();
            'outer: for u in 0..n as u32 {
                for v in 0..n as u32 {
                    let e = (NodeId(u), NodeId(v));
                    if u != v
                        && !present.contains(&e)
                        && !insertions.contains(&e)
                        && frag.owner(e.0) != frag.owner(e.1)
                    {
                        insertions.push(e);
                        if insertions.len() == 6 {
                            break 'outer;
                        }
                    }
                }
            }

            let mut ops: Vec<dgs_partition::EdgeOp> = insertions
                .iter()
                .map(|&(u, v)| dgs_partition::EdgeOp::Insert(u, v))
                .collect();
            ops.extend(
                deletions
                    .iter()
                    .map(|&(u, v)| dgs_partition::EdgeOp::Delete(u, v)),
            );
            let mut frag2 = (*frag).clone();
            frag2.apply_delta(&ops);
            let frag2 = Arc::new(frag2);

            let run = |plan: Option<DeliveryPlan>| {
                let states: Vec<DeltaSiteState> = (0..4)
                    .map(|s| DeltaSiteState::from_relation(&frag, s, &q, &rows))
                    .collect();
                let entries = vec![(&q, states)];
                let (coord, sites) =
                    build_maintenance(&frag, &frag2, entries, &deletions, &insertions);
                let mut exec = VirtualExecutor::new(CostModel::default());
                if let Some(plan) = plan {
                    exec = exec.with_delivery(plan);
                }
                let o = exec.run(coord, sites);
                let mut revoked = o.coordinator.revoked[0].clone();
                revoked.sort_unstable();
                let mut resurrected = o.coordinator.resurrected[0].clone();
                resurrected.sort_unstable();
                let states = entry_states(o.sites).remove(0);
                (revoked, resurrected, states, o.metrics)
            };

            let (clean_rev, clean_res, clean_states, _) = run(None);
            let (faulty_rev, faulty_res, faulty_states, m) =
                run(Some(DeliveryPlan::duplicating(1.0, seed ^ 0x5A)));
            // Every data message (ops, insertions, falsifications,
            // marks, and candidacy rows) was re-delivered...
            if m.data_messages > 0 {
                assert_eq!(m.duplicated_messages * 2, m.data_messages, "seed {seed}");
            }
            // ...and nothing observable changed: the whole insertion
            // path is idempotent.
            assert_eq!(faulty_rev, clean_rev, "seed {seed}");
            assert_eq!(faulty_res, clean_res, "seed {seed}");
            assert_eq!(faulty_states, clean_states, "seed {seed}");
        }
    }

    /// Asserts that `states` are the reference states of `rows` on
    /// `frag`: the same candidacy on every local and live virtual slot,
    /// and every counter of a local candidate equal to the brute-force
    /// count. A retired slot's row is as it was when the slot retired:
    /// its site left the in-node's subscriber list, so nothing is
    /// shipped to it, and a crossing insertion that revives it ships it
    /// a `CandRow`.
    fn assert_reference_states(
        frag: &Fragmentation,
        q: &Pattern,
        rows: &[Vec<NodeId>],
        states: &[DeltaSiteState],
        at: &str,
    ) {
        for (site, st) in states.iter().enumerate() {
            let f = frag.fragment(site);
            let reference = DeltaSiteState::from_relation(frag, site, q, rows);
            let slots = 0..f.n_total() as u32;
            for idx in slots.filter(|&idx| !f.is_virtual(idx) || f.is_live_virtual(idx)) {
                for u in 0..q.node_count() as u16 {
                    let want = reference.is_candidate(u, idx);
                    assert_eq!(
                        st.is_candidate(u, idx),
                        want,
                        "{at}: site {site}, X({u}, {idx})"
                    );
                }
            }
            for (e, (u, _)) in q.edges().enumerate() {
                for idx in f.local_indices().filter(|&idx| st.is_candidate(u.0, idx)) {
                    let c = e * f.n_local() + idx as usize;
                    let (got, want) = (st.eval.cnt[c], reference.eval.cnt[c]);
                    assert_eq!(got, want, "{at}: site {site}, edge {e} at {idx}");
                }
            }
        }
    }

    /// The diff from `old` to `new` rows as ascending `(revoked,
    /// resurrected)` pairs.
    fn diff_of(old: &[Vec<NodeId>], new: &[Vec<NodeId>]) -> (Vec<Var>, Vec<Var>) {
        let gone = |a: &[Vec<NodeId>], b: &[Vec<NodeId>]| -> Vec<Var> {
            let rows = a.iter().zip(b).enumerate();
            let pairs = rows.flat_map(|(u, (a, b))| {
                let left = a.iter().filter(move |v| b.binary_search(v).is_err());
                left.map(move |&v| Var::new(QNodeId(u as u16), v))
            });
            pairs.collect()
        };
        (gone(old, new), gone(new, old))
    }

    /// Maintenance keeps `lEval`'s state `lEval`'s, for every entry of
    /// a batch's one run: after promotion, and after each batch of a
    /// churn — deletions, recurrent and fresh insertions, crossing ones
    /// that create and revive virtual slots — each entry's state at
    /// every site is the reference state of the oracle relation on the
    /// post-delta fragmentation, its diff is exactly the oracle's
    /// change, and its rows patched by the diff are the oracle's. The
    /// patterns share their labels, so the entries mark and cascade
    /// through the same pairs. A second session runs the same batches
    /// under a delivery plan that duplicates and delays data messages:
    /// a redelivered `Ops` or `InsOps`, or an entry-tagged `Falsified`,
    /// `Affected` or `CandRow`, is a no-op for every entry.
    #[test]
    fn maintained_states_equal_the_reference_batch_after_batch() {
        use dgs_net::{DeliveryPlan, VirtualExecutor};
        let (mut created, mut revived, mut moved, mut duplicated) = (0, 0, 0, 0);
        for seed in 0..4u64 {
            let (n, sites) = (90, 3);
            let (g, assign) = if seed % 2 == 0 {
                (
                    random::uniform(n, 300, 3, seed),
                    hash_partition(n, sites, seed),
                )
            } else {
                let g = random::community(n, 300, sites, 0.2, 3, seed);
                (g, random::community_assignment(n, sites))
            };
            let qs: Vec<Arc<Pattern>> = vec![
                Arc::new(patterns::random_cyclic(4, 7, 3, seed + 5)),
                Arc::new(patterns::random_dag_with_depth(5, 6, 3, 3, seed + 9)),
                Arc::new(patterns::random_cyclic(3, 4, 3, seed + 13)),
            ];
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |bound: usize| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 33) as usize % bound
            };
            let mut frag = Arc::new(Fragmentation::build(&g, &assign, sites));
            let mut rows: Vec<Vec<Vec<NodeId>>> = qs.iter().map(|q| rows_of(q, &g)).collect();
            let mut clean: Vec<Vec<DeltaSiteState>> = (qs.iter().zip(&rows))
                .map(|(q, rows)| {
                    let states = (0..sites).map(|s| DeltaSiteState::promote(&frag, s, q, rows));
                    let states: Vec<DeltaSiteState> = states.collect();
                    assert_reference_states(&frag, q, rows, &states, "promoted");
                    states
                })
                .collect();
            let mut faulty = clean.clone();
            let mut present: Vec<(NodeId, NodeId)> = g.edges().collect();
            let mut graveyard = Vec::new();
            for batch in 0..5 {
                let mut insertions = Vec::new();
                while insertions.len() < 8 {
                    let e = if insertions.len() % 2 == 0 && !graveyard.is_empty() {
                        graveyard.swap_remove(next(graveyard.len()))
                    } else {
                        (NodeId(next(n) as u32), NodeId(next(n) as u32))
                    };
                    if e.0 != e.1 && !present.contains(&e) && !insertions.contains(&e) {
                        insertions.push(e);
                    }
                }
                let deletions: Vec<(NodeId, NodeId)> = (0..8)
                    .map(|_| present.swap_remove(next(present.len())))
                    .collect();
                graveyard.extend(&deletions);
                present.extend(&insertions);

                let ops: Vec<dgs_partition::EdgeOp> = (insertions.iter())
                    .map(|&(u, v)| dgs_partition::EdgeOp::Insert(u, v))
                    .chain(
                        deletions
                            .iter()
                            .map(|&(u, v)| dgs_partition::EdgeOp::Delete(u, v)),
                    )
                    .collect();
                let mut after = (*frag).clone();
                after.apply_delta(&ops);
                for (b, a) in frag.fragments().iter().zip(after.fragments()) {
                    created += a.n_total() - b.n_total();
                    revived += (b.virtual_indices())
                        .filter(|&v| !b.is_live_virtual(v) && a.is_live_virtual(v))
                        .count();
                }
                let after = Arc::new(after);
                let now = after.to_graph();
                let new_rows: Vec<Vec<Vec<NodeId>>> = qs.iter().map(|q| rows_of(q, &now)).collect();
                let plan = DeliveryPlan::new(0.0, 0.4, 0.4, seed * 31 + batch);
                for (run, states, plan) in [
                    ("clean", &mut clean, None),
                    ("faulty", &mut faulty, Some(plan)),
                ] {
                    let entries = qs.iter().map(|q| &**q).zip(std::mem::take(states));
                    let (coord, logic) = build_maintenance(
                        &frag,
                        &after,
                        entries.collect(),
                        &deletions,
                        &insertions,
                    );
                    let mut exec = VirtualExecutor::new(CostModel::default());
                    if let Some(plan) = plan {
                        exec = exec.with_delivery(plan);
                    }
                    let o = exec.run(coord, logic);
                    duplicated += o.metrics.duplicated_messages;
                    *states = entry_states(o.sites);
                    for (k, q) in qs.iter().enumerate() {
                        let at =
                            format!("seed {seed}, batch {batch}, {run} run, entry {k} {:?}", **q);
                        assert_reference_states(&after, q, &new_rows[k], &states[k], &at);
                        let (revoked, resurrected) =
                            (&o.coordinator.revoked[k], &o.coordinator.resurrected[k]);
                        let (want_revoked, want_resurrected) = diff_of(&rows[k], &new_rows[k]);
                        assert_eq!(revoked, &want_revoked, "{at}: revoked");
                        assert_eq!(resurrected, &want_resurrected, "{at}: resurrected");
                        let mut patched = rows[k].clone();
                        for var in revoked {
                            patched[var.q as usize].retain(|&v| v != var.node_id());
                        }
                        for var in resurrected {
                            let row = &mut patched[var.q as usize];
                            let at = row.binary_search(&var.node_id()).unwrap_err();
                            row.insert(at, var.node_id());
                        }
                        assert_eq!(patched, new_rows[k], "{at}: rows");
                        if plan.is_none() {
                            moved += revoked.len() + resurrected.len();
                        }
                    }
                }
                rows = new_rows;
                frag = after;
            }
        }
        assert!(
            created > 0 && revived > 0 && moved > 0 && duplicated > 0,
            "{created} slots created, {revived} revived, {moved} pairs moved, \
             {duplicated} messages duplicated"
        );
    }
}
