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
//! * **Insertions only grow** the relation, and are repaired in
//!   `O(|AFF|)` too, with the affected area defined over **pairs** as
//!   in TODS'13. A pair `(uq, v)` is in `AFF` iff it is
//!   label-compatible, *currently false*, and backward-reachable —
//!   through pairs that are themselves label-compatible and false,
//!   following pattern edge `(up, uq)` over graph edge `(p, v)` — from
//!   a false pair `(uq, u)` at the source of an inserted edge `(u, w)`
//!   where `uq` has an out-edge to a pattern node labelled like `w` (a
//!   label-only seed, so marking never waits for a candidacy row).
//!   Pairs that already match are frozen and never enter: insertions
//!   cannot falsify them. [`UpdateMsg::Affected`] carries the closure
//!   across fragment boundaries pair by pair, from an in-node's owner
//!   to the virtual slots of its subscribers. `AFF` is then flipped to
//!   true, the counters repaired, and the standard downward refinement
//!   runs from the revived pairs that lack support; survivors flow
//!   back at gather as resurrections, symmetric to the falsification
//!   path. The work is `AFF` and its in- and out-edges; the rest of the
//!   fragment is never visited.
//!
//! Every batch shape is maintained: deletions run first (on the
//! pre-insertion adjacency — the engine rejects an edge appearing in
//! both lists, so the two sub-batches commute), then the insertion
//! phases; an insertion-only batch simply quiesces straight through
//! the (empty) deletion phase. Nothing is conservatively invalidated
//! anymore.
//!
//! ## One counter kernel
//!
//! A maintained entry's per-site state, [`DeltaSiteState`], is the
//! state `lEval` (`local_eval.rs`) leaves at its fixpoint plus the
//! `AFF` scratch, and every falsification runs `lEval`'s cascade. An
//! entry is **promoted** by running `lEval` on the pre-delta
//! fragmentation with the virtual pairs the cached rows exclude pinned
//! false. A counter is **readable** — and exact — only while its pair
//! is a candidate, so a deleted edge decrements its source pair only
//! while that pair is a candidate (the cascade's own guard), an
//! inserted edge or a revived pair bumps only pairs that are true and
//! outside `AFF`, and a revived local pair's counters, stale since it
//! fell, are **recounted** over its post-delta successors.
//!
//! [`GraphDelta`] is the batch; `SimEngine::apply_delta` routes it.
//! This module owns the maintenance protocol: [`UpdateMsg`] is its
//! wire format (ops, falsifications, affected marks, and candidacy
//! rows are **data** messages, so fault injection covers them — all
//! are idempotent), [`DeltaSiteState`] is the per-site state, and
//! [`build_maintenance`] assembles the actor set for one maintenance
//! run. The session's reverse adjacency per site is built once and
//! lent to every run.
//!
//! The run is phased by coordinator quiescence barriers —
//! `Deleting → Marking → Refining → Gathering` — because marking must
//! see the post-deletion candidacy and refinement must see the
//! complete `AFF` and every candidacy row. One cross-channel race
//! needs care: a fast site can finish refining and ship a
//! falsification before a slow site has seen its own `Refine`, so
//! sites buffer falsifications that arrive mid-marking and replay them
//! after revival.

use crate::local_eval::{EvalState, LocalEval};
use crate::vars::{SiteBatches, Var};
use dgs_graph::{NodeId, Pattern, QNodeId};
use dgs_net::{CoordinatorLogic, Endpoint, Outbox, SiteDeltaMetrics, SiteLogic, WireSize};
use dgs_partition::{Fragmentation, SiteId, SpanLists};
use dgs_sim::MatchSet;
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

impl DeltaReport {
    /// Size of the affected area `AFF` the batch's insertions marked,
    /// summed over sites and maintained entries — what insertion-side
    /// maintenance cost is proportional to.
    pub fn affected_pairs(&self) -> u64 {
        self.per_site.iter().map(|s| s.affected_pairs).sum()
    }
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
/// finds the pair already marked, and a re-delivered candidacy row
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
    /// In-node pairs that entered the affected area at their owner
    /// (data; owner → subscriber sites, marking phase). The subscriber
    /// marks the same pairs on its virtual copy and continues the
    /// backward closure locally — this is how `AFF` crosses fragment
    /// borders.
    Affected(Vec<Var>),
    /// Current candidacy of in-nodes that a new crossing insertion
    /// targets: `(global id, query nodes it matches)` (data; owner →
    /// the inserting site, marking phase). Seeds fresh or revived
    /// virtual slots, whose local state is blank or stale.
    CandRow(Vec<(u32, Vec<u16>)>),
    /// Instructs the owner of each listed in-node to ship its
    /// [`UpdateMsg::CandRow`] to the given destination site, as
    /// `(dest site, global id)` (control; coordinator → owner).
    ShipCand(Vec<(u32, u32)>),
    /// Marking is globally quiescent: flip `AFF` to true, bump the
    /// counters it supports, and refine (control; coordinator → all
    /// sites).
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
            | UpdateMsg::Affected(vars)
            | UpdateMsg::Revoked(vars)
            | UpdateMsg::Resurrected(vars) => vars.wire_size(),
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

/// Persistent per-site state of one maintained pattern: `lEval`'s
/// fixpoint state on the fragment, kept current batch by batch, and
/// the insertion phase's `AFF` scratch. It holds no adjacency: the
/// edges it counts over are the session's one reverse adjacency per
/// site, lent to each run ([`build_maintenance`]), so an entry costs a
/// candidacy bit and a mark bit per pair, a counter per local node and
/// pattern edge, and nothing that grows with `|Ei|`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaSiteState {
    eval: EvalState,
    /// Insertion-phase scratch, laid out like the candidacy rows: the
    /// pairs in `aff`. All three scratch fields are empty between runs
    /// — `gather` clears them through the `aff` list, so a run touches
    /// `O(|AFF|)` of them, never `O(n · nq)`.
    mark: MatchSet,
    /// This site's slice of `AFF` as `(query node, local index)`, in
    /// marking order; doubles as the closure's worklist.
    aff: Vec<(u16, u32)>,
    /// Edges this run inserted, as local indices. Their counter
    /// increments wait for `Refine`, when every `CandRow` has landed.
    inserted: Vec<(u32, u32)>,
}

impl DeltaSiteState {
    /// Promotes a cached entry at `site`: `lEval` runs on the pre-delta
    /// fragmentation `frag` with every label-compatible virtual pair the
    /// cached rows exclude — live or retired slot — pinned false. Its
    /// local fixpoint `L` is then exactly the cached relation `R`: `R`
    /// is supported inside the fragment, so `L ⊇ R` on local nodes, and
    /// `L` together with `R` on the other sites is a simulation, so
    /// `L ⊆ R`. `rows[u]` must be the sorted matches of canonical query
    /// node `u` over global node ids.
    pub(crate) fn promote(
        frag: &Arc<Fragmentation>,
        site: SiteId,
        q: &Arc<Pattern>,
        rows: &[Vec<NodeId>],
    ) -> Self {
        let f = frag.fragment(site);
        let excluded = f.virtual_indices().flat_map(|idx| {
            let gid = f.global_id(idx);
            let compatible = q.nodes().filter(move |&u| q.label(u) == f.label(idx));
            let excluded = compatible.filter(move |u| rows[u.index()].binary_search(&gid).is_err());
            excluded.map(move |u| Var::new(u, gid))
        });
        let pinned = excluded.collect();
        let (ev, _) = LocalEval::new_with_pinned(Arc::clone(frag), site, Arc::clone(q), &pinned);
        Self::new(ev.state)
    }

    /// The state `eval` with empty scratch.
    fn new(eval: EvalState) -> Self {
        DeltaSiteState {
            mark: MatchSet::new(eval.cand.rows(), eval.cand.cols()),
            eval,
            aff: Vec::new(),
            inserted: Vec::new(),
        }
    }

    /// Is `X(u, idx)` still a candidate? (`idx` is a fragment-local
    /// index.)
    pub fn is_candidate(&self, u: u16, idx: u32) -> bool {
        self.eval.cand.test(u as usize, idx)
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

/// Site logic of one maintenance run: owns the entry's persistent
/// state and the site's reverse adjacency for the duration and hands
/// both back through [`Self::into_parts`].
pub struct DeltaSiteLogic {
    site: SiteId,
    frag: Arc<Fragmentation>,
    q: Arc<Pattern>,
    st: DeltaSiteState,
    /// Everything here walks edges backward; forward lists would be
    /// a second copy of the same set. Pre-delta when the run starts,
    /// post-delta when it ends.
    pred: SpanLists<u32>,
    phase: SitePhase,
    /// Falsifications that arrived from an already-refining site while
    /// this one was still marking; replayed right after revival.
    pending_falsified: Vec<Var>,
    /// Local pairs falsified during the deletion phase (filtered
    /// against the final candidacy and shipped at gather). While
    /// refining, the cascade kills optimistically-revived pairs; those
    /// are refinement, not revocations, and stay unrecorded.
    revoked: Vec<Var>,
    stats: SiteDeltaMetrics,
    ops: u64,
}

impl DeltaSiteLogic {
    fn new(
        site: SiteId,
        frag: Arc<Fragmentation>,
        q: Arc<Pattern>,
        st: DeltaSiteState,
        pred: SpanLists<u32>,
    ) -> Self {
        DeltaSiteLogic {
            stats: SiteDeltaMetrics {
                site,
                ..SiteDeltaMetrics::default()
            },
            site,
            frag,
            q,
            st,
            pred,
            phase: SitePhase::Deleting,
            pending_falsified: Vec::new(),
            revoked: Vec::new(),
            ops: 0,
        }
    }

    /// The persistent state, to be carried into the next batch, and
    /// the site's reverse adjacency, now post-delta.
    pub fn into_parts(self) -> (DeltaSiteState, SpanLists<u32>) {
        (self.st, self.pred)
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
        // Idempotence: a duplicate delivery finds the edge already
        // removed from this state's own adjacency and is a no-op.
        if !self.pred.remove(vi as usize, ui) {
            return Vec::new();
        }
        self.stats.ops_applied += 1;

        // The deleted edge supported, per query edge (uq, uc), the
        // pair (uq, u) iff (uc, v) is a candidate; only a candidate's
        // counter is exact, so only a candidate's moves. On a self-loop
        // the counters hold the *pre-deletion* support, so a child pair
        // an earlier edge just falsified still counts.
        let ev = &mut self.st.eval;
        let mut worklist = Vec::new();
        for (e, (uq, uc)) in self.q.edges().enumerate() {
            self.ops += 1;
            let child =
                ev.cand.test(uc.index(), vi) || (ui == vi && worklist.contains(&(uc.0, vi)));
            if child && ev.cand.test(uq.index(), ui) {
                let c = &mut ev.cnt[e * ev.n_local + ui as usize];
                debug_assert!(*c > 0, "support counter underflow");
                *c -= 1;
                if *c == 0 {
                    ev.cand.remove(uq.index(), ui);
                    worklist.push((uq.0, ui));
                }
            }
        }
        self.cascade(worklist)
    }

    /// `lEval`'s cascade (the incremental `lEval` of §4.2) over this
    /// run's reverse adjacency: records revoked local pairs and returns
    /// the falsified in-node variables — what `lMsg` must ship.
    fn cascade(&mut self, worklist: Vec<(u16, u32)>) -> Vec<Var> {
        let f = self.frag.fragment(self.site);
        let refining = self.phase == SitePhase::Refining;
        let (pred, revoked, stats) = (&self.pred, &mut self.revoked, &mut self.stats);
        let mut falsified_in_nodes = Vec::new();
        let (ev, preds) = (&mut self.st.eval, |idx| pred.of(idx as usize));
        ev.cascade(worklist, preds, &mut self.ops, |uq, idx| {
            if f.is_virtual(idx) {
                return;
            }
            let var = Var {
                q: uq,
                node: f.global_id(idx).0,
            };
            if !refining {
                revoked.push(var);
                stats.pairs_revoked += 1;
            }
            if f.in_node_pos(idx).is_some() {
                falsified_in_nodes.push(var);
            }
        });
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
        let mut batches = SiteBatches::new(out.num_sites());
        for var in vars {
            let idx = f.index_of(var.node_id()).expect("in-node var is local");
            let pos = f.in_node_pos(idx).expect("falsified var is an in-node");
            batches.push(var, f.in_node_subscribers(pos));
        }
        for (s, vars) in batches.into_batches() {
            self.stats.falsifications_shipped += vars.len() as u64;
            out.send(Endpoint::Site(s as u32), UpdateMsg::Falsified(vars));
        }
    }

    /// Enters the marking phase on first contact. Idempotent.
    fn enter_marking(&mut self) {
        if self.phase == SitePhase::Deleting {
            self.phase = SitePhase::Marking;
        }
    }

    /// Adds `seeds` to this site's slice of `AFF` and closes it
    /// backward, pair by pair: from `(uq, v)` over pattern edge
    /// `(up, uq)` and graph edge `(p, v)` to `(up, p)`, provided that
    /// pair is label-compatible and false (predecessors are always
    /// local indices — virtual nodes have no out-edges — so their
    /// candidacy is authoritative here). Seeds are taken on trust: the
    /// caller checked them, or their owner did. Whenever a pair of a
    /// *local in-node* enters, its subscribers are told via
    /// [`UpdateMsg::Affected`] so the closure continues across the
    /// border.
    fn mark_from(&mut self, seeds: Vec<(u16, u32)>, out: &mut Outbox<UpdateMsg>) {
        let f = self.frag.fragment(self.site);
        let st = &mut self.st;
        let stats = &mut self.stats;
        let mut batches = SiteBatches::new(out.num_sites());
        let mut enter = |uq: u16, idx: u32, mark: &mut MatchSet, aff: &mut Vec<(u16, u32)>| {
            if !mark.insert(uq as usize, idx) {
                return;
            }
            aff.push((uq, idx));
            if !f.is_virtual(idx) {
                stats.affected_pairs += 1;
                if let Some(pos) = f.in_node_pos(idx) {
                    let node = f.global_id(idx).0;
                    batches.push(Var { q: uq, node }, f.in_node_subscribers(pos));
                }
            }
        };
        let mut next = st.aff.len();
        for (uq, idx) in seeds {
            enter(uq, idx, &mut st.mark, &mut st.aff);
        }
        while next < st.aff.len() {
            let (uq, idx) = st.aff[next];
            next += 1;
            for &(_, up) in &st.eval.parent_edges[uq as usize] {
                for &p in self.pred.of(idx as usize) {
                    self.ops += 1;
                    if self.q.label(QNodeId(up)) == f.label(p) && !st.eval.cand.test(up as usize, p)
                    {
                        enter(up, p, &mut st.mark, &mut st.aff);
                    }
                }
            }
        }
        for (s, vars) in batches.into_batches() {
            out.send(Endpoint::Site(s as u32), UpdateMsg::Affected(vars));
        }
    }

    /// Applies one routed insertion batch (marking phase): edges enter
    /// this state's own adjacency (idempotently, so re-delivery is a
    /// no-op) and every false, label-compatible pair `(uq, u)` of a
    /// source `u` seeds `AFF` if `uq` has an out-edge to a pattern node
    /// labelled like the target — labels only, because a crossing
    /// target's `CandRow` may not have landed yet. For the same reason
    /// the counters wait for `Refine`.
    fn apply_insertions(&mut self, pairs: Vec<(u32, u32)>, out: &mut Outbox<UpdateMsg>) {
        let f = self.frag.fragment(self.site);
        let mut seeds = Vec::new();
        for (u, v) in pairs {
            let ui = f
                .index_of(NodeId(u))
                .expect("insertion routed to owner of source");
            let vi = f
                .index_of(NodeId(v))
                .expect("insertion target present in post-delta fragment");
            if !self.pred.insert(vi as usize, ui) {
                continue;
            }
            self.st.inserted.push((ui, vi));
            self.stats.ops_applied += 1;
            for (uq, uc) in self.q.edges() {
                self.ops += 1;
                if self.q.label(uc) == f.label(vi)
                    && self.q.label(uq) == f.label(ui)
                    && !self.st.is_candidate(uq.0, ui)
                {
                    seeds.push((uq.0, ui));
                }
            }
        }
        self.mark_from(seeds, out);
    }

    /// Applies a falsification batch to this fragment's virtual copies
    /// and cascades. Shared by the deletion phase, the refining phase,
    /// and the replay of buffered falsifications.
    fn apply_falsified(&mut self, vars: Vec<Var>) -> Vec<Var> {
        let frag = Arc::clone(&self.frag);
        let f = frag.fragment(self.site);
        let cand = &mut self.st.eval.cand;
        let mut worklist = Vec::new();
        for var in vars {
            self.ops += 1;
            let Some(idx) = f.index_of(var.node_id()) else {
                continue;
            };
            debug_assert!(f.is_virtual(idx), "falsification targets a virtual node");
            // Idempotence: an already-false variable is a no-op — as is
            // one for a slot this site subscribes to only as of this
            // batch (the owner reads the post-delta subscriber list):
            // its `CandRow`, shipped later, reflects the falsification.
            if cand.remove(var.q as usize, idx) {
                worklist.push((var.q, idx));
            }
        }
        self.cascade(worklist)
    }

    /// Marking is globally quiescent, so `AFF` is complete and every
    /// `CandRow` has landed: repair the counters for the inserted
    /// edges, flip `AFF` to true, recount the revived local pairs, and
    /// run the downward refinement from those that lack support, with
    /// everything outside `AFF` frozen as the boundary. Buffered
    /// out-of-phase falsifications replay after revival so they cannot
    /// be lost.
    fn refine(&mut self, out: &mut Outbox<UpdateMsg>) {
        if self.phase == SitePhase::Refining {
            return;
        }
        self.enter_marking();
        self.phase = SitePhase::Refining;
        let f = self.frag.fragment(self.site);
        let (ev, mark) = (&mut self.st.eval, &self.st.mark);
        let n_local = ev.n_local;
        // An inserted edge supports its source pair once per pattern
        // edge whose child pair is true, if the source pair is true
        // too; `AFF` pairs, still false here, are counted below.
        for &(ui, vi) in &self.st.inserted {
            for (e, (uq, uc)) in self.q.edges().enumerate() {
                self.ops += 1;
                if ev.cand.test(uc.index(), vi) && ev.cand.test(uq.index(), ui) {
                    ev.cnt[e * n_local + ui as usize] += 1;
                }
            }
        }
        // A revived pair supports the true pairs of its predecessors;
        // those in `AFF` are recounted below instead.
        for &(uq, idx) in &self.st.aff {
            self.ops += 1;
            ev.cand.set(uq as usize, idx);
            for &(e, up) in &ev.parent_edges[uq as usize] {
                for &p in self.pred.of(idx as usize) {
                    self.ops += 1;
                    if ev.cand.test(up as usize, p) && !mark.test(up as usize, p) {
                        ev.cnt[e * n_local + p as usize] += 1;
                    }
                }
            }
        }
        // A revived *local* pair's counters went stale when it fell:
        // count them afresh, then seed the refinement from those that
        // lack support. Virtual slots are never seeded locally: their
        // support lives at the owner, which ships falsifications.
        let mut worklist = Vec::new();
        for &(uq, idx) in self.st.aff.iter().filter(|&&(_, idx)| !f.is_virtual(idx)) {
            let succ = f.successors(idx);
            let mut dead = false;
            for (e, (_, uc)) in self.q.edges().enumerate().filter(|(_, (u, _))| u.0 == uq) {
                self.ops += succ.len() as u64;
                let c = succ.iter().filter(|&&s| ev.cand.test(uc.index(), s));
                let c = c.count() as u32;
                ev.cnt[e * n_local + idx as usize] = c;
                dead |= c == 0;
            }
            if dead {
                worklist.push((uq, idx));
            }
        }
        for &(uq, idx) in &worklist {
            ev.cand.remove(uq as usize, idx);
        }
        let mut falsified = self.cascade(worklist);
        let pending = std::mem::take(&mut self.pending_falsified);
        falsified.extend(self.apply_falsified(pending));
        self.route_falsifications(falsified, out);
    }

    /// Reconciles this run's result against the final candidacy and
    /// clears the insertion-phase scratch. Deletion-phase revocations
    /// that refinement revived cancel out; every other local `AFF`
    /// pair that survived refinement is a resurrection (it was false
    /// when it entered).
    fn gather(&mut self, out: &mut Outbox<UpdateMsg>) {
        let f = self.frag.fragment(self.site);
        let st = &mut self.st;
        let mut revoked = std::mem::take(&mut self.revoked);
        let before = revoked.len() as u64;
        // A revoked pair that is true again never left the relation:
        // its mark goes, so the `AFF` walk below does not report it.
        revoked.retain(|var| {
            let idx = f.index_of(var.node_id()).expect("revoked var is local");
            let back = st.eval.cand.test(var.q as usize, idx);
            if back {
                let in_aff = st.mark.remove(var.q as usize, idx);
                debug_assert!(in_aff, "only AFF pairs come back");
            }
            !back
        });
        self.stats.pairs_revoked -= before - revoked.len() as u64;
        let mut resurrected = Vec::new();
        for (uq, idx) in st.aff.drain(..) {
            self.ops += 1;
            if st.mark.remove(uq as usize, idx)
                && !f.is_virtual(idx)
                && st.eval.cand.test(uq as usize, idx)
            {
                resurrected.push(Var {
                    q: uq,
                    node: f.global_id(idx).0,
                });
            }
        }
        st.inserted.clear();
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
            UpdateMsg::Affected(vars) => {
                self.enter_marking();
                let f = self.frag.fragment(self.site);
                // The owner vouches for these: its candidacy is the
                // authority, and this slot's own row may still be
                // waiting for its `CandRow`.
                let seeds = vars
                    .into_iter()
                    .map(|var| {
                        let idx = f
                            .index_of(var.node_id())
                            .expect("affected in-node has a subscribed slot here");
                        (var.q, idx)
                    })
                    .collect();
                self.mark_from(seeds, out);
            }
            UpdateMsg::CandRow(rows) => {
                self.enter_marking();
                let f = self.frag.fragment(self.site);
                let cand = &mut self.st.eval.cand;
                for (gid, qs) in rows {
                    self.ops += 1;
                    let idx = f
                        .index_of(NodeId(gid))
                        .expect("candidacy row targets a subscribed slot");
                    for u in 0..cand.rows() {
                        cand.remove(u, idx);
                    }
                    for q in qs {
                        cand.set(q as usize, idx);
                    }
                }
            }
            UpdateMsg::ShipCand(requests) => {
                debug_assert_eq!(from, Endpoint::Coordinator);
                self.enter_marking();
                let f = self.frag.fragment(self.site);
                let mut per_site: BTreeMap<SiteId, Vec<(u32, Vec<u16>)>> = BTreeMap::new();
                for (dest, gid) in requests {
                    let idx = f.index_of(NodeId(gid)).expect("shipped in-node is local");
                    let qs: Vec<u16> = (0..self.q.node_count() as u16)
                        .filter(|&u| self.st.is_candidate(u, idx))
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
/// `pred` is the session's **one** reverse adjacency per site
/// ([`Fragmentation::reverse_adjacency`], taken once): the run borrows it
/// and [`DeltaSiteLogic::into_parts`] hands it back post-delta. A run
/// has to start from the *pre-delta* lists — the deletion phase reads
/// them, and a redelivered op is recognised by `remove`/`insert` on
/// them returning `false` — so the batch is first taken back out of
/// them: a no-op on pre-delta lists, the rewind between two entries of
/// one batch on the lists the previous run left.
///
/// # Panics
/// Panics unless `states` and `pred` have one element per site.
pub fn build_maintenance(
    frag: &Arc<Fragmentation>,
    q: &Arc<Pattern>,
    mut states: Vec<DeltaSiteState>,
    mut pred: Vec<SpanLists<u32>>,
    deletions: &[(NodeId, NodeId)],
    insertions: &[(NodeId, NodeId)],
) -> (DeltaCoordinator, Vec<DeltaSiteLogic>) {
    assert!(
        states.len() == frag.num_sites() && pred.len() == frag.num_sites(),
        "one state and one reverse adjacency per site required"
    );
    // Both ends of a batch edge have a slot at its source's site in
    // the post-delta fragment (a retired virtual slot keeps its index;
    // a new one gets its empty list here, and bits that stay false
    // until its `CandRow` lands).
    for ((f, lists), st) in frag.fragments().iter().zip(&mut pred).zip(&mut states) {
        lists.grow_to(f.n_total());
        st.eval.cand.grow_cols(f.n_total());
        st.mark.grow_cols(f.n_total());
    }
    let slots = |site: SiteId, u: NodeId, v: NodeId| {
        let f = frag.fragment(site);
        let at = f.index_of(u).zip(f.index_of(v));
        at.expect("batch edge has slots at its source's site")
    };
    let mut ops_by_site: Vec<Vec<(u32, u32)>> = vec![Vec::new(); frag.num_sites()];
    for &(u, v) in deletions {
        let src = frag.owner(u);
        ops_by_site[src].push((u.0, v.0));
        let (ui, vi) = slots(src, u, v);
        pred[src].insert(vi as usize, ui);
    }
    let mut ins_by_site: Vec<Vec<(u32, u32)>> = vec![Vec::new(); frag.num_sites()];
    let mut ship_by_site: Vec<Vec<(u32, u32)>> = vec![Vec::new(); frag.num_sites()];
    for &(u, v) in insertions {
        let src = frag.owner(u);
        ins_by_site[src].push((u.0, v.0));
        let (ui, vi) = slots(src, u, v);
        pred[src].remove(vi as usize, ui);
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
        .zip(pred)
        .enumerate()
        .map(|(s, (st, pred))| DeltaSiteLogic::new(s, Arc::clone(frag), Arc::clone(q), st, pred))
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

    /// A run of one entry, the way these tests set one up: from the
    /// post-delta fragmentation and the batch alone, with the reverse
    /// adjacency made on the spot. The lists
    /// are post-delta, as they are when the engine hands them from
    /// one entry of a batch to the next.
    fn build_maintenance(
        frag: &Arc<Fragmentation>,
        q: &Pattern,
        states: Vec<DeltaSiteState>,
        deletions: &[(NodeId, NodeId)],
        insertions: &[(NodeId, NodeId)],
    ) -> (DeltaCoordinator, Vec<DeltaSiteLogic>) {
        let (pred, q) = (frag.reverse_adjacency(), Arc::new(q.clone()));
        super::build_maintenance(frag, &q, states, pred, deletions, insertions)
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
                let (coord, sites) = build_maintenance(&frag2, &q, states, &deletions, &[]);
                let mut exec = VirtualExecutor::new(CostModel::default());
                if let Some(plan) = plan {
                    exec = exec.with_delivery(plan);
                }
                let o = exec.run(coord, sites);
                let mut revoked = o.coordinator.revoked.clone();
                revoked.sort_unstable();
                let states: Vec<DeltaSiteState> = o
                    .sites
                    .into_iter()
                    .map(|site| site.into_parts().0)
                    .collect();
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
        assert_eq!(maintained, oracle);
        let affected = o.sites.iter().map(|s| s.stats().affected_pairs).sum();
        (o.metrics, affected, o.coordinator.resurrected.len())
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
                let (coord, sites) = build_maintenance(&frag2, &q, states, &deletions, &insertions);
                let mut exec = VirtualExecutor::new(CostModel::default());
                if let Some(plan) = plan {
                    exec = exec.with_delivery(plan);
                }
                let o = exec.run(coord, sites);
                let mut revoked = o.coordinator.revoked.clone();
                revoked.sort_unstable();
                let mut resurrected = o.coordinator.resurrected.clone();
                resurrected.sort_unstable();
                let states: Vec<DeltaSiteState> = o
                    .sites
                    .into_iter()
                    .map(|site| site.into_parts().0)
                    .collect();
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

    /// Maintenance keeps `lEval`'s state `lEval`'s: after promotion, and
    /// after each batch of a churn — deletions, recurrent and fresh
    /// insertions, crossing ones that create and revive virtual slots —
    /// every site's state is the reference state of the oracle relation
    /// on the post-delta fragmentation.
    #[test]
    fn maintained_states_equal_the_reference_batch_after_batch() {
        let (mut created, mut revived, mut moved) = (0, 0, 0);
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
            let cyclic = patterns::random_cyclic(4, 7, 3, seed + 5);
            let dag = patterns::random_dag_with_depth(5, 6, 3, 3, seed + 9);
            for q in [Arc::new(cyclic), Arc::new(dag)] {
                let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut next = move |bound: usize| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    (x >> 33) as usize % bound
                };
                let mut frag = Arc::new(Fragmentation::build(&g, &assign, sites));
                let mut rows = rows_of(&q, &g);
                let mut states: Vec<DeltaSiteState> = (0..sites)
                    .map(|s| DeltaSiteState::promote(&frag, s, &q, &rows))
                    .collect();
                assert_reference_states(&frag, &q, &rows, &states, "promoted");
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
                    let (coord, logic) =
                        build_maintenance(&after, &q, states, &deletions, &insertions);
                    let o =
                        dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, logic);
                    moved += o.coordinator.revoked.len() + o.coordinator.resurrected.len();
                    states = o
                        .sites
                        .into_iter()
                        .map(|site| site.into_parts().0)
                        .collect();
                    rows = rows_of(&q, &after.to_graph());
                    let at = format!("seed {seed}, {:?}, batch {batch}", *q);
                    assert_reference_states(&after, &q, &rows, &states, &at);
                    frag = after;
                }
            }
        }
        assert!(
            created > 0 && revived > 0 && moved > 0,
            "{created} slots created, {revived} revived, {moved} pairs moved"
        );
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(UpdateMsg::GatherRequest.wire_size(), 1);
        assert_eq!(UpdateMsg::Refine.wire_size(), 1);
        assert_eq!(UpdateMsg::Ops(vec![(1, 2), (3, 4)]).wire_size(), 1 + 4 + 16);
        assert_eq!(UpdateMsg::InsOps(vec![(1, 2)]).wire_size(), 1 + 4 + 8);
        assert_eq!(UpdateMsg::ShipCand(vec![(0, 9)]).wire_size(), 1 + 4 + 8);
        assert_eq!(
            UpdateMsg::CandRow(vec![(4, vec![0, 2])]).wire_size(),
            1 + 4 + (4 + 2 + 4)
        );
        let v = vec![Var { q: 0, node: 7 }];
        assert_eq!(UpdateMsg::Falsified(v.clone()).wire_size(), 1 + 4 + 6);
        assert_eq!(UpdateMsg::Affected(v.clone()).wire_size(), 1 + 4 + 6);
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
