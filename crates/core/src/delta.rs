//! The graph-update subsystem: batched edge deltas with distributed
//! incremental maintenance.
//!
//! A serving session must absorb a stream of edge updates without
//! rebuilding the session, the fragmentation, or the pattern-result
//! cache from scratch. The asymmetry is fundamental under the
//! downward-monotone semantics of graph simulation:
//!
//! * **Deletions only shrink** the maximum relation (Fan, Wang & Wu,
//!   TODS'13 — the basis of the paper's incremental `lEval`, §4.2), so
//!   a cached answer can be **maintained** in `O(|AFF|)`: every site
//!   replays the HHK counter update on its own fragment and ships the
//!   in-node falsifications to its subscriber sites, exactly like dGPM
//!   data messages. No full re-evaluation happens.
//! * **Insertions only grow** the relation, and are repaired by a
//!   bounded distributed re-refinement. Each site computes its
//!   slice of the affected area `AFF` — the backward closure of the
//!   inserted edges' source nodes — with [`UpdateMsg::Affected`]
//!   carrying the closure across fragment boundaries whenever a marked
//!   in-node's candidacy may change at a subscriber. Affected pairs
//!   are optimistically revived to label compatibility, their counters
//!   rebuilt, and the standard downward refinement re-run with
//!   non-affected candidacy frozen; resurrections flow back at gather,
//!   symmetric to the falsification path.
//!
//! Every batch shape is maintained: deletions run first (on the
//! pre-insertion adjacency — the engine rejects an edge appearing in
//! both lists, so the two sub-batches commute), then the insertion
//! phases; an insertion-only batch simply quiesces straight through
//! the (empty) deletion phase. Nothing is conservatively invalidated
//! anymore.
//!
//! [`GraphDelta`] is the batch; `SimEngine::apply_delta` routes it.
//! This module owns the maintenance protocol: [`UpdateMsg`] is its
//! wire format (ops, falsifications, affected marks, and candidacy
//! rows are **data** messages, so fault injection covers them — all
//! are idempotent), [`DeltaSiteState`] is the per-site counter state
//! reconstructed from a cached relation, and [`build_maintenance`]
//! assembles the actor set for one maintenance run.
//!
//! The run is phased by coordinator quiescence barriers —
//! `Deleting → Marking → Refining → Gathering` — because marking must
//! see the post-deletion candidacy and refinement must see the
//! complete marked set. One cross-channel race needs care: a fast
//! site can finish refining and ship a falsification before a slow
//! site has seen its own `Refine`, so sites buffer falsifications
//! that arrive mid-marking and replay them after revival.

use crate::vars::Var;
use dgs_graph::{NodeId, Pattern};
use dgs_net::{CoordinatorLogic, Endpoint, Outbox, SiteDeltaMetrics, SiteLogic, WireSize};
use dgs_partition::{Fragmentation, SiteId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A batch of edge updates against the loaded graph.
///
/// Inserted edges must not exist yet and deleted edges must exist;
/// ops that are already satisfied (an insert of a present edge, a
/// delete of an absent one) are skipped and reported, which makes
/// re-applying a delta a no-op. An edge may not appear in both lists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Edges to insert.
    pub insert_edges: Vec<(NodeId, NodeId)>,
    /// Edges to delete.
    pub delete_edges: Vec<(NodeId, NodeId)>,
}

impl GraphDelta {
    /// A deletion-only batch — the incrementally maintainable kind.
    pub fn deletions(ops: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        GraphDelta {
            insert_edges: Vec::new(),
            delete_edges: ops.into_iter().collect(),
        }
    }

    /// An insertion-only batch.
    pub fn insertions(ops: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        GraphDelta {
            insert_edges: ops.into_iter().collect(),
            delete_edges: Vec::new(),
        }
    }

    /// True iff the batch carries no ops at all.
    pub fn is_empty(&self) -> bool {
        self.insert_edges.is_empty() && self.delete_edges.is_empty()
    }

    /// Number of ops in the batch.
    pub fn op_count(&self) -> usize {
        self.insert_edges.len() + self.delete_edges.len()
    }
}

/// What one `SimEngine::apply_delta` call did.
#[derive(Clone, Debug)]
pub struct DeltaReport {
    /// Edges actually inserted.
    pub inserted: usize,
    /// Edges actually deleted.
    pub deleted: usize,
    /// Ops skipped because they were already satisfied.
    pub ignored: usize,
    /// Inserted edges that cross fragments.
    pub crossing_inserted: usize,
    /// Deleted edges that crossed fragments.
    pub crossing_deleted: usize,
    /// Virtual nodes created (or revived) at source sites.
    pub virtuals_created: usize,
    /// Virtual nodes retired at source sites.
    pub virtuals_retired: usize,
    /// Cached entries kept current by distributed incremental
    /// maintenance. Every non-empty batch shape takes this path —
    /// deletion-only, insertion-only, and mixed alike.
    pub maintained_entries: usize,
    /// Cached entries dropped without maintenance. Since insertion-side
    /// maintenance landed, the only entries counted here are
    /// `trivial-∅` short-circuits whose pattern has nodes that cannot
    /// reach a cycle of `Q`: their stored `∅` rows are the answer
    /// convention rather than the maximum fixpoint, so an insertion
    /// batch has no valid baseline to repair from and the entry is
    /// dropped instead (the next query re-evaluates fresh).
    pub invalidated_entries: usize,
    /// Match pairs revoked across all maintained entries (deletion
    /// side of the batch).
    pub revoked_pairs: u64,
    /// Match pairs resurrected across all maintained entries
    /// (insertion side of the batch).
    pub resurrected_pairs: u64,
    /// The engine's graph generation after this batch (fresh cache
    /// entries are keyed under it).
    pub generation: u64,
    /// The generation this batch was applied *against*. Generations
    /// come from a shared allocator and are strictly increasing but
    /// not necessarily contiguous, so consumers chaining per-batch
    /// diffs (live subscriptions) key on `prev_generation →
    /// generation` edges instead of assuming `+1`.
    pub prev_generation: u64,
    /// Aggregate traffic/ops of the maintenance runs (deletion ops and
    /// falsifications are data messages; gathers are control/result).
    pub metrics: dgs_net::RunMetrics,
    /// Per-site maintenance accounting, aggregated over all maintained
    /// entries.
    pub per_site: Vec<SiteDeltaMetrics>,
    /// Exact per-entry match-set diffs produced by maintenance — what
    /// a live subscription on the pattern must push. One element per
    /// maintained entry; not serialized in the wire summary.
    pub maintained_diffs: Vec<MaintainedDiff>,
}

/// The exact diff one delta batch applied to one maintained cache
/// entry: which pairs left the match set and which (re)entered it.
/// This is the "diff for free" a maintained entry yields — the
/// subscription layer forwards it without re-running the query.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MaintainedDiff {
    /// Canonical pattern key of the maintained entry (the suffix of
    /// its cache key, stable across generations).
    pub canon_key: Vec<u32>,
    /// Pairs revoked from the match set, in canonical query-node
    /// numbering.
    pub revoked: Vec<Var>,
    /// Pairs resurrected into the match set.
    pub resurrected: Vec<Var>,
}

/// Messages of the distributed maintenance protocol.
///
/// `Ops`, `InsOps`, `Falsified`, `Affected`, and `CandRow` are
/// **data** messages: they ride the same accounting (and
/// fault-injection) path as dGPM's falsification traffic, and all are
/// idempotent — a re-delivered deletion finds the edge already gone, a
/// re-delivered insertion finds it already present, a re-delivered
/// falsification finds the variable already false, a re-delivered mark
/// finds the node already marked, and a re-delivered candidacy row
/// overwrites with the same values — so at-least-once delivery cannot
/// change the maintained relation. `ShipCand`, `Refine`, and
/// `GatherRequest` are control; `Revoked` and `Resurrected` are
/// results.
#[derive(Clone, Debug)]
pub enum UpdateMsg {
    /// Edge deletions routed to the site owning the source node
    /// (data; coordinator → site).
    Ops(Vec<(u32, u32)>),
    /// Edge insertions routed to the site owning the source node
    /// (data; coordinator → site, marking phase).
    InsOps(Vec<(u32, u32)>),
    /// Falsified in-node variables (data; site → subscriber site) —
    /// exactly dGPM's `lMsg`.
    Falsified(Vec<Var>),
    /// Global ids of in-nodes that entered the affected area at their
    /// owner (data; owner → subscriber sites, marking phase). The
    /// subscriber marks its virtual copy and continues the backward
    /// closure locally — this is how `AFF` crosses fragment borders.
    Affected(Vec<u32>),
    /// Current candidacy of in-nodes that a new crossing insertion
    /// targets: `(global id, query nodes it matches)` (data; owner →
    /// the inserting site, marking phase). Seeds fresh or revived
    /// virtual slots, whose local state is blank or stale.
    CandRow(Vec<(u32, Vec<u16>)>),
    /// Instructs the owner of each listed in-node to ship its
    /// [`UpdateMsg::CandRow`] to the given destination site, as
    /// `(dest site, global id)` (control; coordinator → owner).
    ShipCand(Vec<(u32, u32)>),
    /// Marking is globally quiescent: revive affected pairs, rebuild
    /// their counters, and re-run refinement (control; coordinator →
    /// all sites).
    Refine,
    /// Result collection request (control; coordinator → sites).
    GatherRequest,
    /// Local match pairs revoked by this site (result; site →
    /// coordinator).
    Revoked(Vec<Var>),
    /// Local match pairs resurrected by this site (result; site →
    /// coordinator).
    Resurrected(Vec<Var>),
}

impl WireSize for UpdateMsg {
    fn wire_size(&self) -> usize {
        1 + match self {
            UpdateMsg::Ops(ops) | UpdateMsg::InsOps(ops) | UpdateMsg::ShipCand(ops) => {
                4 + 8 * ops.len()
            }
            UpdateMsg::Falsified(vars)
            | UpdateMsg::Revoked(vars)
            | UpdateMsg::Resurrected(vars) => vars.wire_size(),
            UpdateMsg::Affected(gids) => 4 + 4 * gids.len(),
            UpdateMsg::CandRow(rows) => {
                4 + rows
                    .iter()
                    .map(|(_, qs)| 4 + 2 + 2 * qs.len())
                    .sum::<usize>()
            }
            UpdateMsg::Refine | UpdateMsg::GatherRequest => 0,
        }
    }
}

/// Persistent per-site counter state for one maintained pattern: the
/// HHK scheme restricted to the fragment (the state `lEval` would hold
/// at its fixpoint), plus the fragment's adjacency, which the state
/// owns and mutates so that deletions stay idempotent and `O(|AFF|)`
/// across batches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaSiteState {
    n: usize,
    nq: usize,
    /// Fragment-local adjacency (shrinks as deletions are applied).
    succ: Vec<Vec<u32>>,
    pred: Vec<Vec<u32>>,
    /// Candidacy of `X(u, idx)`: `cand[idx * nq + u]`.
    cand: Vec<bool>,
    /// Support counters: `cnt[e * n + idx]`.
    cnt: Vec<u32>,
}

impl DeltaSiteState {
    /// Reconstructs the fixpoint state of `site` from a *converged*
    /// relation: candidacy is relation membership (for local and
    /// virtual nodes alike — falsifications were fully propagated when
    /// the relation was computed), and the counters are recounted from
    /// the fragment adjacency. `rows[u]` must be the sorted matches of
    /// canonical query node `u` over global node ids.
    pub fn from_relation(
        frag: &Fragmentation,
        site: SiteId,
        q: &Pattern,
        rows: &[Vec<NodeId>],
    ) -> Self {
        let f = frag.fragment(site);
        let n = f.n_total();
        let nq = q.node_count();
        let succ: Vec<Vec<u32>> = (0..n as u32).map(|i| f.successors(i).to_vec()).collect();
        let pred: Vec<Vec<u32>> = (0..n as u32).map(|i| f.predecessors(i).to_vec()).collect();
        let mut cand = vec![false; n * nq];
        for idx in 0..n {
            let gid = f.global_id(idx as u32);
            for (u, row) in rows.iter().enumerate() {
                cand[idx * nq + u] = row.binary_search(&gid).is_ok();
            }
        }
        let qedges: Vec<(u16, u16)> = q.edges().map(|(a, b)| (a.0, b.0)).collect();
        let mut cnt = vec![0u32; qedges.len() * n];
        for (idx, ss) in succ.iter().enumerate() {
            for &s in ss {
                for (e, &(_, uc)) in qedges.iter().enumerate() {
                    if cand[s as usize * nq + uc as usize] {
                        cnt[e * n + idx] += 1;
                    }
                }
            }
        }
        DeltaSiteState {
            n,
            nq,
            succ,
            pred,
            cand,
            cnt,
        }
    }

    /// Is `X(u, idx)` still a candidate? (`idx` is a fragment-local
    /// index.)
    pub fn is_candidate(&self, u: u16, idx: u32) -> bool {
        self.cand[idx as usize * self.nq + u as usize]
    }
}

/// A site's view of the run's phase progression. Advanced by the
/// messages themselves: any marking-phase message moves a site out of
/// `Deleting`, and only the coordinator's `Refine` (sent at global
/// marking quiescence) moves it into `Refining`. A deletion-only run
/// never leaves `Deleting`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SitePhase {
    Deleting,
    Marking,
    Refining,
}

/// Site logic of one maintenance run: owns the persistent state for
/// the duration and hands it back through [`Self::into_state`].
pub struct DeltaSiteLogic {
    site: SiteId,
    frag: Arc<Fragmentation>,
    qedges: Vec<(u16, u16)>,
    /// Per query node: `(edge index, parent)` pairs.
    parent_edges: Vec<Vec<(usize, u16)>>,
    /// Per query node: indices of its out-edges (refinement seeding).
    out_edges: Vec<Vec<usize>>,
    /// Pattern node labels, for optimistic revival of affected pairs.
    qlabels: Vec<dgs_graph::Label>,
    st: DeltaSiteState,
    phase: SitePhase,
    /// Nodes in this site's slice of `AFF` (sized with the state once
    /// marking starts).
    marked: Vec<bool>,
    /// Falsifications that arrived from an already-refining site while
    /// this one was still marking; replayed right after revival.
    pending_falsified: Vec<Var>,
    /// Candidacy snapshot taken at `Refine`, before revival — the
    /// reference for computing resurrections.
    pre_refine: Vec<bool>,
    /// Local pairs falsified during the deletion phase (filtered
    /// against the final candidacy and shipped at gather).
    revoked: Vec<Var>,
    /// In refine mode, `propagate` kills optimistically-revived pairs;
    /// those are refinement, not revocations, and stay unrecorded.
    in_refine: bool,
    stats: SiteDeltaMetrics,
    ops: u64,
}

impl DeltaSiteLogic {
    fn new(site: SiteId, frag: Arc<Fragmentation>, q: &Pattern, st: DeltaSiteState) -> Self {
        let qedges: Vec<(u16, u16)> = q.edges().map(|(a, b)| (a.0, b.0)).collect();
        let mut parent_edges: Vec<Vec<(usize, u16)>> = vec![Vec::new(); q.node_count()];
        let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); q.node_count()];
        for (e, &(u, uc)) in qedges.iter().enumerate() {
            parent_edges[uc as usize].push((e, u));
            out_edges[u as usize].push(e);
        }
        DeltaSiteLogic {
            stats: SiteDeltaMetrics {
                site,
                ..SiteDeltaMetrics::default()
            },
            site,
            frag,
            qedges,
            parent_edges,
            out_edges,
            qlabels: q.nodes().map(|u| q.label(u)).collect(),
            st,
            phase: SitePhase::Deleting,
            marked: Vec::new(),
            pending_falsified: Vec::new(),
            pre_refine: Vec::new(),
            revoked: Vec::new(),
            in_refine: false,
            ops: 0,
        }
    }

    /// The persistent counter state, to be carried into the next
    /// batch.
    pub fn into_state(self) -> DeltaSiteState {
        self.st
    }

    /// This run's per-site accounting.
    pub fn stats(&self) -> &SiteDeltaMetrics {
        &self.stats
    }

    /// Applies one (possibly re-delivered) edge deletion. Returns the
    /// in-node variables it falsified.
    fn apply_deletion(&mut self, u: u32, v: u32) -> Vec<Var> {
        let f = self.frag.fragment(self.site);
        let (Some(ui), Some(vi)) = (f.index_of(NodeId(u)), f.index_of(NodeId(v))) else {
            return Vec::new();
        };
        let (ui, vi) = (ui as usize, vi as usize);
        // Idempotence: a duplicate delivery finds the edge already
        // removed from this state's own adjacency and is a no-op.
        let Ok(pos) = self.st.succ[ui].binary_search(&(vi as u32)) else {
            return Vec::new();
        };
        self.st.succ[ui].remove(pos);
        let ppos = self.st.pred[vi]
            .binary_search(&(ui as u32))
            .expect("reverse edge tracked");
        self.st.pred[vi].remove(ppos);
        self.stats.ops_applied += 1;

        // The deleted edge supported, per query edge (uq, uc), the
        // pair (uq, u) iff (uc, v) is still a candidate. Snapshot v's
        // candidacy row first: on a self-loop (u = v) an early
        // iteration can falsify a pair of v itself, and the counters
        // hold the *pre-deletion* support — the cascade for the
        // falsified pair is `propagate`'s job.
        let (n, nq) = (self.st.n, self.st.nq);
        let vcand: Vec<bool> = (0..nq).map(|uc| self.st.cand[vi * nq + uc]).collect();
        let mut worklist = Vec::new();
        for (e, &(uq, uc)) in self.qedges.iter().enumerate() {
            self.ops += 1;
            if vcand[uc as usize] {
                let c = &mut self.st.cnt[e * n + ui];
                debug_assert!(*c > 0, "support counter underflow");
                *c -= 1;
                if *c == 0 && self.st.cand[ui * nq + uq as usize] {
                    self.st.cand[ui * nq + uq as usize] = false;
                    worklist.push((uq, ui as u32));
                }
            }
        }
        self.propagate(worklist)
    }

    /// The downward worklist (the incremental `lEval` of §4.2 over
    /// this fragment): records revoked local pairs and returns the
    /// falsified in-node variables — what `lMsg` must ship.
    fn propagate(&mut self, mut worklist: Vec<(u16, u32)>) -> Vec<Var> {
        let f = self.frag.fragment(self.site);
        let st = &mut self.st;
        let (n, nq) = (st.n, st.nq);
        let n_local = f.n_local();
        let mut falsified_in_nodes = Vec::new();
        while let Some((uq, idx)) = worklist.pop() {
            if (idx as usize) < n_local {
                let var = Var {
                    q: uq,
                    node: f.global_id(idx).0,
                };
                if !self.in_refine {
                    self.revoked.push(var);
                    self.stats.pairs_revoked += 1;
                }
                if f.in_node_pos(idx).is_some() {
                    falsified_in_nodes.push(var);
                }
            }
            for &(e, up) in &self.parent_edges[uq as usize] {
                for i in 0..st.pred[idx as usize].len() {
                    let vp = st.pred[idx as usize][i] as usize;
                    self.ops += 1;
                    let c = &mut st.cnt[e * n + vp];
                    debug_assert!(*c > 0, "support counter underflow");
                    *c -= 1;
                    if *c == 0 && st.cand[vp * nq + up as usize] {
                        st.cand[vp * nq + up as usize] = false;
                        worklist.push((up, vp as u32));
                    }
                }
            }
        }
        falsified_in_nodes
    }

    /// Ships in-node falsifications to their subscriber sites (read
    /// from the *current* fragmentation, so dropped subscriptions ship
    /// nothing), batched per destination.
    fn route_falsifications(&mut self, vars: Vec<Var>, out: &mut Outbox<UpdateMsg>) {
        if vars.is_empty() {
            return;
        }
        let f = self.frag.fragment(self.site);
        let mut per_site: BTreeMap<SiteId, Vec<Var>> = BTreeMap::new();
        for var in vars {
            let idx = f.index_of(var.node_id()).expect("in-node var is local");
            let pos = f.in_node_pos(idx).expect("falsified var is an in-node");
            for &s in f.in_node_subscribers(pos) {
                per_site.entry(s).or_default().push(var);
            }
        }
        for (s, vars) in per_site {
            self.stats.falsifications_shipped += vars.len() as u64;
            out.send(Endpoint::Site(s as u32), UpdateMsg::Falsified(vars));
        }
    }

    /// Enters the marking phase on first contact: grows the state to
    /// the post-delta fragment (crossing insertions can append or
    /// revive virtual slots) and sizes the mark set. Idempotent.
    fn enter_marking(&mut self) {
        if self.phase != SitePhase::Deleting {
            return;
        }
        self.phase = SitePhase::Marking;
        let frag = Arc::clone(&self.frag);
        let f = frag.fragment(self.site);
        let new_n = f.n_total();
        let st = &mut self.st;
        if new_n > st.n {
            st.succ.resize(new_n, Vec::new());
            st.pred.resize(new_n, Vec::new());
            // `cand` is index-major, so existing rows keep their
            // offsets; `cnt` is edge-major over `n` and must be
            // re-laid-out.
            st.cand.resize(new_n * st.nq, false);
            let ne = self.qedges.len();
            let mut cnt = vec![0u32; ne * new_n];
            for e in 0..ne {
                cnt[e * new_n..e * new_n + st.n].copy_from_slice(&st.cnt[e * st.n..(e + 1) * st.n]);
            }
            st.cnt = cnt;
            st.n = new_n;
        }
        self.marked = vec![false; st.n];
    }

    /// Marks `seeds` and closes backward over this fragment's
    /// predecessors (always local indices — virtual nodes have no
    /// out-edges). Whenever a *local in-node* enters the affected
    /// area, its subscribers are told via [`UpdateMsg::Affected`] so
    /// the closure continues across the border.
    fn mark_from(&mut self, seeds: Vec<u32>, out: &mut Outbox<UpdateMsg>) {
        let frag = Arc::clone(&self.frag);
        let f = frag.fragment(self.site);
        let mut per_site: BTreeMap<SiteId, Vec<u32>> = BTreeMap::new();
        let mut stack = Vec::new();
        let mut visit = |idx: u32, marked: &mut Vec<bool>, stack: &mut Vec<u32>| {
            if marked[idx as usize] {
                return;
            }
            marked[idx as usize] = true;
            stack.push(idx);
            if !f.is_virtual(idx) {
                if let Some(pos) = f.in_node_pos(idx) {
                    for &s in f.in_node_subscribers(pos) {
                        per_site.entry(s).or_default().push(f.global_id(idx).0);
                    }
                }
            }
        };
        for idx in seeds {
            visit(idx, &mut self.marked, &mut stack);
        }
        while let Some(idx) = stack.pop() {
            for i in 0..self.st.pred[idx as usize].len() {
                let p = self.st.pred[idx as usize][i];
                self.ops += 1;
                visit(p, &mut self.marked, &mut stack);
            }
        }
        for (s, gids) in per_site {
            out.send(Endpoint::Site(s as u32), UpdateMsg::Affected(gids));
        }
    }

    /// Applies one routed insertion batch (marking phase): edges enter
    /// this state's own adjacency (idempotently, so re-delivery is a
    /// no-op) and their source nodes seed the affected-area closure.
    /// Counters are *not* touched here — every marked node's counters
    /// are rebuilt wholesale at `Refine`.
    fn apply_insertions(&mut self, pairs: Vec<(u32, u32)>, out: &mut Outbox<UpdateMsg>) {
        let frag = Arc::clone(&self.frag);
        let f = frag.fragment(self.site);
        let mut seeds = Vec::new();
        for (u, v) in pairs {
            let ui = f
                .index_of(NodeId(u))
                .expect("insertion routed to owner of source");
            let vi = f
                .index_of(NodeId(v))
                .expect("insertion target present in post-delta fragment");
            let Err(pos) = self.st.succ[ui as usize].binary_search(&vi) else {
                continue;
            };
            self.st.succ[ui as usize].insert(pos, vi);
            let ppos = self.st.pred[vi as usize]
                .binary_search(&ui)
                .expect_err("reverse edge tracked symmetrically");
            self.st.pred[vi as usize].insert(ppos, ui);
            self.stats.ops_applied += 1;
            seeds.push(ui);
        }
        self.mark_from(seeds, out);
    }

    /// Applies a falsification batch to this fragment's virtual copies
    /// and cascades. Shared by the deletion phase, the refining phase,
    /// and the replay of buffered falsifications.
    fn apply_falsified(&mut self, vars: Vec<Var>) -> Vec<Var> {
        let frag = Arc::clone(&self.frag);
        let f = frag.fragment(self.site);
        let nq = self.st.nq;
        let mut worklist = Vec::new();
        for var in vars {
            self.ops += 1;
            let Some(idx) = f.index_of(var.node_id()) else {
                continue;
            };
            debug_assert!(f.is_virtual(idx), "falsification targets a virtual node");
            if (idx as usize) >= self.st.n {
                // A slot this site only subscribes to as of this batch
                // (the owner reads the post-delta subscriber list).
                // Not sized yet mid-deletion; its row arrives later
                // via `CandRow`, already reflecting the falsification.
                debug_assert_eq!(self.phase, SitePhase::Deleting);
                continue;
            }
            let slot = idx as usize * nq + var.q as usize;
            // Idempotence: an already-false variable is a no-op.
            if self.st.cand[slot] {
                self.st.cand[slot] = false;
                worklist.push((var.q, idx));
            }
        }
        self.propagate(worklist)
    }

    /// Marking is globally quiescent: optimistically revive every
    /// affected pair, rebuild affected counters, and re-run the
    /// downward refinement with non-affected candidacy frozen as the
    /// boundary. Buffered out-of-phase falsifications replay after
    /// revival so they cannot be lost.
    fn refine(&mut self, out: &mut Outbox<UpdateMsg>) {
        if self.phase == SitePhase::Refining {
            return;
        }
        self.enter_marking();
        self.phase = SitePhase::Refining;
        self.pre_refine = self.st.cand.clone();
        let frag = Arc::clone(&self.frag);
        let f = frag.fragment(self.site);
        let (n, nq) = (self.st.n, self.st.nq);
        for idx in 0..n {
            if !self.marked[idx] {
                continue;
            }
            self.ops += 1;
            let lbl = f.label(idx as u32);
            for (u, &ql) in self.qlabels.iter().enumerate() {
                self.st.cand[idx * nq + u] = ql == lbl;
            }
        }
        for idx in 0..n {
            if !self.marked[idx] {
                continue;
            }
            for (e, &(_, uc)) in self.qedges.iter().enumerate() {
                self.ops += 1;
                self.st.cnt[e * n + idx] = self.st.succ[idx]
                    .iter()
                    .filter(|&&w| self.st.cand[w as usize * nq + uc as usize])
                    .count() as u32;
            }
        }
        // Seed from affected *local* pairs that lack support. Virtual
        // slots are never seeded locally: their support lives at the
        // owner, which ships falsifications if they die.
        let mut worklist = Vec::new();
        for idx in 0..f.n_local() {
            if !self.marked[idx] {
                continue;
            }
            for u in 0..nq {
                if self.st.cand[idx * nq + u]
                    && self.out_edges[u]
                        .iter()
                        .any(|&e| self.st.cnt[e * n + idx] == 0)
                {
                    self.st.cand[idx * nq + u] = false;
                    worklist.push((u as u16, idx as u32));
                }
            }
        }
        self.in_refine = true;
        let mut falsified = self.propagate(worklist);
        let pending = std::mem::take(&mut self.pending_falsified);
        falsified.extend(self.apply_falsified(pending));
        self.route_falsifications(falsified, out);
    }

    /// Reconciles this run's result against the final candidacy:
    /// deletion-phase revocations that refinement resurrected cancel
    /// out, and resurrections are pairs that are in the relation now
    /// but were not before the batch.
    fn gather(&mut self, out: &mut Outbox<UpdateMsg>) {
        let frag = Arc::clone(&self.frag);
        let f = frag.fragment(self.site);
        let nq = self.st.nq;
        let taken = std::mem::take(&mut self.revoked);
        let was_revoked: std::collections::HashSet<Var> = taken.iter().copied().collect();
        let before = taken.len() as u64;
        let revoked: Vec<Var> = taken
            .into_iter()
            .filter(|var| {
                let idx = f.index_of(var.node_id()).expect("revoked var is local") as usize;
                !self.st.cand[idx * nq + var.q as usize]
            })
            .collect();
        self.stats.pairs_revoked -= before - revoked.len() as u64;
        let mut resurrected = Vec::new();
        if self.phase == SitePhase::Refining {
            for idx in 0..f.n_local() {
                if !self.marked[idx] {
                    continue;
                }
                for u in 0..nq {
                    let slot = idx * nq + u;
                    debug_assert!(
                        self.st.cand[slot] || !self.pre_refine[slot],
                        "refinement falsified a previously-true pair"
                    );
                    if self.st.cand[slot] && !self.pre_refine[slot] {
                        let var = Var {
                            q: u as u16,
                            node: f.global_id(idx as u32).0,
                        };
                        // A pair revoked by this batch's deletions and
                        // revived by its insertions nets out: it never
                        // left the relation.
                        if !was_revoked.contains(&var) {
                            resurrected.push(var);
                        }
                    }
                }
            }
        }
        self.stats.pairs_resurrected += resurrected.len() as u64;
        out.send_result(Endpoint::Coordinator, UpdateMsg::Revoked(revoked));
        if !resurrected.is_empty() {
            out.send_result(Endpoint::Coordinator, UpdateMsg::Resurrected(resurrected));
        }
    }

    fn charge(&mut self, out: &mut Outbox<UpdateMsg>) {
        out.charge_ops(std::mem::take(&mut self.ops));
    }
}

impl SiteLogic<UpdateMsg> for DeltaSiteLogic {
    fn on_start(&mut self, _out: &mut Outbox<UpdateMsg>) {
        // Sites idle until the coordinator routes them ops.
    }

    fn on_message(&mut self, from: Endpoint, msg: UpdateMsg, out: &mut Outbox<UpdateMsg>) {
        match msg {
            UpdateMsg::Ops(pairs) => {
                let mut falsified = Vec::new();
                for (u, v) in pairs {
                    falsified.extend(self.apply_deletion(u, v));
                }
                self.route_falsifications(falsified, out);
            }
            UpdateMsg::Falsified(vars) => {
                if self.phase == SitePhase::Marking {
                    // From a site that is already refining (there is
                    // no cross-channel ordering with the coordinator's
                    // `Refine`). Applying now would be undone by
                    // revival — hold until this site revives too.
                    self.pending_falsified.extend(vars);
                } else {
                    let falsified = self.apply_falsified(vars);
                    self.route_falsifications(falsified, out);
                }
            }
            UpdateMsg::InsOps(pairs) => {
                self.enter_marking();
                self.apply_insertions(pairs, out);
            }
            UpdateMsg::Affected(gids) => {
                self.enter_marking();
                let frag = Arc::clone(&self.frag);
                let f = frag.fragment(self.site);
                let seeds = gids
                    .into_iter()
                    .map(|gid| {
                        f.index_of(NodeId(gid))
                            .expect("affected in-node has a subscribed slot here")
                    })
                    .collect();
                self.mark_from(seeds, out);
            }
            UpdateMsg::CandRow(rows) => {
                self.enter_marking();
                let frag = Arc::clone(&self.frag);
                let f = frag.fragment(self.site);
                let nq = self.st.nq;
                for (gid, qs) in rows {
                    self.ops += 1;
                    let idx = f
                        .index_of(NodeId(gid))
                        .expect("candidacy row targets a subscribed slot")
                        as usize;
                    for u in 0..nq {
                        self.st.cand[idx * nq + u] = false;
                    }
                    for q in qs {
                        self.st.cand[idx * nq + q as usize] = true;
                    }
                }
            }
            UpdateMsg::ShipCand(requests) => {
                debug_assert_eq!(from, Endpoint::Coordinator);
                self.enter_marking();
                let frag = Arc::clone(&self.frag);
                let f = frag.fragment(self.site);
                let nq = self.st.nq;
                let mut per_site: BTreeMap<SiteId, Vec<(u32, Vec<u16>)>> = BTreeMap::new();
                for (dest, gid) in requests {
                    let idx = f.index_of(NodeId(gid)).expect("shipped in-node is local") as usize;
                    let qs: Vec<u16> = (0..nq)
                        .filter(|&u| self.st.cand[idx * nq + u])
                        .map(|u| u as u16)
                        .collect();
                    per_site.entry(dest as usize).or_default().push((gid, qs));
                }
                for (s, rows) in per_site {
                    out.send(Endpoint::Site(s as u32), UpdateMsg::CandRow(rows));
                }
            }
            UpdateMsg::Refine => {
                debug_assert_eq!(from, Endpoint::Coordinator);
                self.refine(out);
            }
            UpdateMsg::GatherRequest => {
                debug_assert_eq!(from, Endpoint::Coordinator);
                self.gather(out);
            }
            UpdateMsg::Revoked(_) | UpdateMsg::Resurrected(_) => {
                unreachable!("sites never receive results")
            }
        }
        self.charge(out);
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Deleting,
    Marking,
    Refining,
    Gathering,
    Done,
}

/// Coordinator of one maintenance run: routes the deletion batch,
/// idles through the falsification fixpoint, then (when the batch has
/// insertions) drives marking and refinement through two more
/// quiescence barriers, and finally collects the revoked and
/// resurrected pairs. Insertion-only batches sail through the empty
/// deletion phase; deletion-only batches skip marking and refinement
/// entirely, so their runs cost exactly what they did before
/// insertions were maintainable.
pub struct DeltaCoordinator {
    ops_by_site: Vec<Vec<(u32, u32)>>,
    ins_by_site: Vec<Vec<(u32, u32)>>,
    /// Per owner site: `(dest site, in-node global id)` candidacy
    /// shipments for crossing insertions.
    ship_by_site: Vec<Vec<(u32, u32)>>,
    has_insertions: bool,
    phase: Phase,
    /// Match pairs revoked across all sites (query nodes in the
    /// maintained pattern's numbering, data nodes global).
    pub revoked: Vec<Var>,
    /// Match pairs resurrected across all sites.
    pub resurrected: Vec<Var>,
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
            UpdateMsg::Revoked(vars) => {
                out.charge_ops(vars.len() as u64 + 1);
                self.revoked.extend(vars);
            }
            UpdateMsg::Resurrected(vars) => {
                out.charge_ops(vars.len() as u64 + 1);
                self.resurrected.extend(vars);
            }
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
                self.phase = Phase::Done;
                true
            }
            Phase::Done => true,
        }
    }
}

/// Builds the actor set for one distributed maintenance run over a
/// batch of `deletions` and `insertions` (either may be empty; the
/// engine guarantees they are disjoint): one [`DeltaSiteLogic`] per
/// site wrapping its persistent [`DeltaSiteState`], plus the routing
/// coordinator. Each op is routed to the site owning its source node;
/// for every *crossing* insertion the coordinator also schedules a
/// [`UpdateMsg::ShipCand`] so the inserting site's fresh (or revived)
/// virtual slot starts from the owner's current candidacy. `frag`
/// must already have the delta applied.
///
/// # Panics
/// Panics if `states.len() != frag.num_sites()`.
pub fn build_maintenance(
    frag: &Arc<Fragmentation>,
    q: &Pattern,
    states: Vec<DeltaSiteState>,
    deletions: &[(NodeId, NodeId)],
    insertions: &[(NodeId, NodeId)],
) -> (DeltaCoordinator, Vec<DeltaSiteLogic>) {
    assert_eq!(
        states.len(),
        frag.num_sites(),
        "one state per site required"
    );
    let mut ops_by_site: Vec<Vec<(u32, u32)>> = vec![Vec::new(); frag.num_sites()];
    for &(u, v) in deletions {
        ops_by_site[frag.owner(u)].push((u.0, v.0));
    }
    let mut ins_by_site: Vec<Vec<(u32, u32)>> = vec![Vec::new(); frag.num_sites()];
    let mut ship_by_site: Vec<Vec<(u32, u32)>> = vec![Vec::new(); frag.num_sites()];
    for &(u, v) in insertions {
        let src = frag.owner(u);
        ins_by_site[src].push((u.0, v.0));
        let dst = frag.owner(v);
        if dst != src {
            ship_by_site[dst].push((src as u32, v.0));
        }
    }
    for ships in &mut ship_by_site {
        ships.sort_unstable();
        ships.dedup();
    }
    let sites = states
        .into_iter()
        .enumerate()
        .map(|(s, st)| DeltaSiteLogic::new(s, Arc::clone(frag), q, st))
        .collect();
    (
        DeltaCoordinator {
            ops_by_site,
            ins_by_site,
            ship_by_site,
            has_insertions: !insertions.is_empty(),
            phase: Phase::Deleting,
            revoked: Vec::new(),
            resurrected: Vec::new(),
        },
        sites,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::generate::{patterns, random};
    use dgs_graph::GraphBuilder;
    use dgs_net::{CostModel, ExecutorKind};
    use dgs_partition::hash_partition;
    use dgs_sim::hhk_simulation;

    fn rows_of(q: &Pattern, g: &dgs_graph::Graph) -> Vec<Vec<NodeId>> {
        let rel = hhk_simulation(q, g).relation;
        q.nodes().map(|u| rel.matches_of(u).to_vec()).collect()
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
            let (coord, sites) = build_maintenance(&frag2, &q, states, &deletions, &[]);
            let o = dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, sites);

            // Revoking the reported pairs from the old relation yields
            // the oracle relation on the mutated graph.
            let g2 = graph_without(&g, &deletions);
            let oracle = hhk_simulation(&q, &g2).relation;
            assert!(o.coordinator.resurrected.is_empty());
            let mut rows2 = rows.clone();
            for var in &o.coordinator.revoked {
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
        use dgs_net::{FaultPlan, VirtualExecutor};
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

            let run = |faults: Option<FaultPlan>| {
                let states: Vec<DeltaSiteState> = (0..4)
                    .map(|s| DeltaSiteState::from_relation(&frag, s, &q, &rows))
                    .collect();
                let (coord, sites) = build_maintenance(&frag2, &q, states, &deletions, &[]);
                let mut exec = VirtualExecutor::new(CostModel::default());
                if let Some(f) = faults {
                    exec = exec.with_faults(f);
                }
                let o = exec.run(coord, sites);
                let mut revoked = o.coordinator.revoked.clone();
                revoked.sort_unstable();
                let states: Vec<DeltaSiteState> = o
                    .sites
                    .into_iter()
                    .map(DeltaSiteLogic::into_state)
                    .collect();
                (revoked, states, o.metrics)
            };

            let (clean_revoked, clean_states, _) = run(None);
            let (faulty_revoked, faulty_states, m) =
                run(Some(FaultPlan::duplicating(1.0, seed ^ 0xA5)));
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

    /// Applies a mixed batch via the distributed protocol and checks
    /// the patched rows against the cold oracle on the mutated graph.
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
        let frag = Arc::new(Fragmentation::build(g, &assign, sites));
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
        let (coord, site_logic) = build_maintenance(&frag2, q, states, deletions, insertions);
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
        for var in &o.coordinator.revoked {
            let row = &mut rows2[var.q as usize];
            let pos = row
                .binary_search(&var.node_id())
                .expect("revoked pair was in the relation");
            row.remove(pos);
        }
        for var in &o.coordinator.resurrected {
            let row = &mut rows2[var.q as usize];
            let pos = row
                .binary_search(&var.node_id())
                .expect_err("resurrected pair was not in the relation");
            row.insert(pos, var.node_id());
        }
        let maintained = dgs_sim::MatchRelation::from_lists(rows2);
        assert_eq!(maintained, oracle, "seed {seed}");
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
        use dgs_net::{FaultPlan, VirtualExecutor};
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

            let run = |faults: Option<FaultPlan>| {
                let states: Vec<DeltaSiteState> = (0..4)
                    .map(|s| DeltaSiteState::from_relation(&frag, s, &q, &rows))
                    .collect();
                let (coord, sites) = build_maintenance(&frag2, &q, states, &deletions, &insertions);
                let mut exec = VirtualExecutor::new(CostModel::default());
                if let Some(f) = faults {
                    exec = exec.with_faults(f);
                }
                let o = exec.run(coord, sites);
                let mut revoked = o.coordinator.revoked.clone();
                revoked.sort_unstable();
                let mut resurrected = o.coordinator.resurrected.clone();
                resurrected.sort_unstable();
                let states: Vec<DeltaSiteState> = o
                    .sites
                    .into_iter()
                    .map(DeltaSiteLogic::into_state)
                    .collect();
                (revoked, resurrected, states, o.metrics)
            };

            let (clean_rev, clean_res, clean_states, _) = run(None);
            let (faulty_rev, faulty_res, faulty_states, m) =
                run(Some(FaultPlan::duplicating(1.0, seed ^ 0x5A)));
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

    #[test]
    fn wire_sizes() {
        assert_eq!(UpdateMsg::GatherRequest.wire_size(), 1);
        assert_eq!(UpdateMsg::Refine.wire_size(), 1);
        assert_eq!(UpdateMsg::Ops(vec![(1, 2), (3, 4)]).wire_size(), 1 + 4 + 16);
        assert_eq!(UpdateMsg::InsOps(vec![(1, 2)]).wire_size(), 1 + 4 + 8);
        assert_eq!(UpdateMsg::ShipCand(vec![(0, 9)]).wire_size(), 1 + 4 + 8);
        assert_eq!(UpdateMsg::Affected(vec![1, 2, 3]).wire_size(), 1 + 4 + 12);
        assert_eq!(
            UpdateMsg::CandRow(vec![(4, vec![0, 2])]).wire_size(),
            1 + 4 + (4 + 2 + 4)
        );
        let v = vec![Var { q: 0, node: 7 }];
        assert_eq!(UpdateMsg::Falsified(v.clone()).wire_size(), 1 + 4 + 6);
        assert_eq!(UpdateMsg::Revoked(v.clone()).wire_size(), 1 + 4 + 6);
        assert_eq!(UpdateMsg::Resurrected(v).wire_size(), 1 + 4 + 6);
    }

    #[test]
    fn delta_helpers() {
        let d = GraphDelta::deletions([(NodeId(0), NodeId(1))]);
        assert!(d.insert_edges.is_empty());
        assert_eq!(d.op_count(), 1);
        assert!(!d.is_empty());
        let i = GraphDelta::insertions([(NodeId(1), NodeId(0))]);
        assert!(i.delete_edges.is_empty());
        assert!(GraphDelta::default().is_empty());
    }
}
