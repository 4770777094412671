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
//! are idempotent), [`DeltaSiteState`] is the per-site state of one
//! entry, and [`build_maintenance`] assembles the actor set of a
//! batch's maintenance run.
//!
//! ## One run per batch
//!
//! Every maintained entry of a batch shares **one** run, so a batch
//! costs the rounds of one run whatever the number of entries, as the
//! paper bounds a run by its rounds and the work at each site. A site
//! holds the session's one reverse adjacency and every entry's state;
//! it applies each edge op to the adjacency once and then runs every
//! entry's counter step. What a site does once for all entries — the
//! routed ops, candidacy shipping, `Refine`, the gather request — is
//! one message; falsifications, affected marks, candidacy rows and
//! results are tagged by entry ([`ByEntry`]), one message per
//! destination per handler. The run starts from the pre-delta
//! adjacency and leaves it post-delta for the next batch: nothing is
//! rewound.
//!
//! The run is phased by coordinator quiescence barriers —
//! `Deleting → Marking → Refining → Gathering` — because marking must
//! see the post-deletion candidacy and refinement must see the
//! complete `AFF` and every candidacy row: 4 rounds for a batch with
//! insertions, 2 for a deletion-only one. One cross-channel race
//! needs care: a fast site can finish refining and ship a
//! falsification before a slow site has seen its own `Refine`, so
//! sites buffer falsifications that arrive mid-marking and replay them
//! after revival.

use crate::local_eval::{EvalState, LocalEval};
use crate::vars::Var;
use dgs_graph::{NodeId, Pattern, QNodeId};
use dgs_net::{CoordinatorLogic, Endpoint, Outbox, SiteDeltaMetrics, SiteLogic, WireSize};
use dgs_partition::{Fragment, Fragmentation, SiteId, SpanLists};
use dgs_sim::MatchSet;
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
    /// Traffic and ops of the batch's one maintenance run (edge ops,
    /// falsifications, marks and candidacy rows are data messages;
    /// barriers are control, gathers result): its `virtual_time_ns` is
    /// the batch's PT, whatever the number of maintained entries.
    pub metrics: dgs_net::RunMetrics,
    /// Per-site maintenance accounting of the run: edge ops once per
    /// site, pairs and shipments summed over the maintained entries.
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
    /// numbering, ascending.
    pub revoked: Vec<Var>,
    /// Pairs resurrected into the match set, ascending.
    pub resurrected: Vec<Var>,
}

/// A message's items for several maintained entries: `(entry, items)`
/// for each entry that has any, ascending by entry, where an entry is
/// its position in the list [`build_maintenance`] took.
pub type ByEntry<T> = Vec<(u32, Vec<T>)>;

/// Messages of the distributed maintenance protocol. One run maintains
/// every entry of a batch: what a site does once for all of them —
/// apply an edge, ship candidacy, refine, report — is one message;
/// what differs per entry travels grouped by entry ([`ByEntry`]), one
/// message per destination per handler.
///
/// `Ops`, `InsOps`, `Falsified`, `Affected`, and `CandRow` are
/// **data** messages: they ride the same accounting (and
/// fault-injection) path as dGPM's falsification traffic, and all are
/// idempotent — a re-delivered deletion finds the edge already gone, a
/// re-delivered insertion finds it already present, a re-delivered
/// falsification finds the variable already false, a re-delivered mark
/// finds the pair already marked, and a re-delivered candidacy row
/// overwrites with the same values — so at-least-once delivery cannot
/// change the maintained relation of any entry. `ShipCand`, `Refine`,
/// and `GatherRequest` are control; `Revoked` and `Resurrected` are
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
    /// exactly dGPM's `lMsg`, per entry.
    Falsified(ByEntry<Var>),
    /// In-node pairs that entered the affected area at their owner
    /// (data; owner → subscriber sites, marking phase). The subscriber
    /// marks the same pairs on its virtual copy and continues the
    /// backward closure locally — this is how `AFF` crosses fragment
    /// borders.
    Affected(ByEntry<Var>),
    /// Current candidacy of in-nodes that a new crossing insertion
    /// targets: `(global id, query nodes it matches)` (data; owner →
    /// the inserting site, marking phase). Seeds fresh or revived
    /// virtual slots, whose local state is blank or stale.
    CandRow(ByEntry<(u32, Vec<u16>)>),
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
    Revoked(ByEntry<Var>),
    /// Local match pairs resurrected by this site (result; site →
    /// coordinator).
    Resurrected(ByEntry<Var>),
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
            UpdateMsg::CandRow(groups) => {
                let rows = groups.iter().flat_map(|(_, rows)| rows);
                let rows = rows.map(|(_, qs)| 4 + 2 + 2 * qs.len()).sum::<usize>();
                4 + 8 * groups.len() + rows
            }
            UpdateMsg::Refine | UpdateMsg::GatherRequest => 0,
        }
    }
}

/// What a site ships, per destination site, grouped by entry: one
/// message per destination whatever the number of entries.
struct EntryBatches<T>(Vec<ByEntry<T>>);

impl<T: Clone + PartialEq> EntryBatches<T> {
    fn new(num_sites: usize) -> Self {
        EntryBatches((0..num_sites).map(|_| Vec::new()).collect())
    }

    /// Adds `item` of entry `k` to the batch of each site in `to`,
    /// keeping one group per entry, ascending (a deletion batch steps
    /// through the entries once per edge). The calls for one item are
    /// consecutive, so a site named twice (a subscriber that also
    /// registered as an extra) still gets it once.
    fn push(&mut self, k: u32, item: T, to: &[SiteId]) {
        for &s in to {
            let groups = &mut self.0[s];
            let at = groups.partition_point(|&(g, _)| g < k);
            match groups.get_mut(at) {
                Some((g, items)) if *g == k => {
                    if items.last() != Some(&item) {
                        items.push(item.clone());
                    }
                }
                _ => groups.insert(at, (k, vec![item.clone()])),
            }
        }
    }

    /// Sends the non-empty batches as `msg`, ascending by site (the
    /// order message sequence numbers, and so virtual time, are
    /// assigned in), and leaves every batch empty. Returns the number
    /// of items shipped.
    fn send(&mut self, out: &mut Outbox<UpdateMsg>, msg: fn(ByEntry<T>) -> UpdateMsg) -> u64 {
        let mut shipped = 0;
        for (s, groups) in self.0.iter_mut().enumerate() {
            if !groups.is_empty() {
                shipped += groups
                    .iter()
                    .map(|(_, items)| items.len() as u64)
                    .sum::<u64>();
                out.send(Endpoint::Site(s as u32), msg(std::mem::take(groups)));
            }
        }
        shipped
    }
}

/// Persistent per-site state of one maintained pattern: `lEval`'s
/// fixpoint state on the fragment, kept current batch by batch, and
/// the insertion phase's `AFF` scratch. It holds no adjacency: the
/// edges it counts over are the session's one reverse adjacency per
/// site, lent to each batch's run ([`build_maintenance`]), so an entry
/// costs a candidacy bit and a mark bit per pair, a counter per local
/// node and pattern edge, and nothing that grows with `|Ei|`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaSiteState {
    eval: EvalState,
    /// Insertion-phase scratch, laid out like the candidacy rows: the
    /// pairs in `aff`. Both scratch fields are empty between runs —
    /// `gather` clears them through the `aff` list, so a run touches
    /// `O(|AFF|)` of them, never `O(n · nq)`.
    mark: MatchSet,
    /// This site's slice of `AFF` as `(query node, local index)`, in
    /// marking order; doubles as the closure's worklist.
    aff: Vec<(u16, u32)>,
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

/// Can pattern edge `(uq, uc)` map onto edge `(ui, vi)` of `f`? Only
/// label-compatible pairs are ever candidates, so an edge step checks
/// the labels, which every entry of the site shares, before it reads
/// an entry's candidacy.
fn label_compatible(
    q: &Pattern,
    (uq, uc): (QNodeId, QNodeId),
    f: &Fragment,
    (ui, vi): (u32, u32),
) -> bool {
    q.label(uq) == f.label(ui) && q.label(uc) == f.label(vi)
}

/// One maintained entry at one site for the length of a run: its
/// pattern, its persistent state, and what the run gathers for it.
struct Entry {
    /// Its position in the list [`build_maintenance`] took: the tag of
    /// its messages.
    k: u32,
    q: Arc<Pattern>,
    st: DeltaSiteState,
    /// Falsifications that arrived from an already-refining site while
    /// this one was still marking; replayed right after revival.
    pending_falsified: Vec<Var>,
    /// Local pairs falsified during the deletion phase (filtered
    /// against the final candidacy and shipped at gather). While
    /// refining, the cascade kills optimistically-revived pairs; those
    /// are refinement, not revocations, and stay unrecorded.
    revoked: Vec<Var>,
}

/// What an entry's step reads and charges besides the entry itself:
/// the site's fragment, its one reverse adjacency, the edges the run
/// inserted there (as local indices — their counter increments wait
/// for `Refine`, when every `CandRow` has landed), its accounting,
/// whether it is refining, and the falsifications or marks the
/// handler ships.
struct Site<'a> {
    f: &'a Fragment,
    pred: &'a SpanLists<u32>,
    inserted: &'a [(u32, u32)],
    stats: &'a mut SiteDeltaMetrics,
    ops: &'a mut u64,
    refining: bool,
    ship: &'a mut EntryBatches<Var>,
}

impl Entry {
    /// The counter step of deleted edge `(ui, vi)`, already gone from
    /// the site's adjacency, and its cascade. The deleted edge
    /// supported, per query edge `(uq, uc)`, the pair `(uq, ui)` iff
    /// `(uc, vi)` is a candidate; only a candidate's counter is exact,
    /// so only a candidate's moves. On a self-loop the counters hold
    /// the *pre-deletion* support, so a child pair an earlier edge just
    /// falsified still counts.
    fn delete_edge(&mut self, (ui, vi): (u32, u32), cx: &mut Site) {
        let ev = &mut self.st.eval;
        let mut worklist = Vec::new();
        for (e, (uq, uc)) in self.q.edges().enumerate() {
            *cx.ops += 1;
            if !label_compatible(&self.q, (uq, uc), cx.f, (ui, vi)) {
                continue;
            }
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
        self.cascade(worklist, cx);
    }

    /// `lEval`'s cascade (the incremental `lEval` of §4.2) over the
    /// site's reverse adjacency: records revoked local pairs and ships
    /// the falsified in-node variables — what `lMsg` must ship — to
    /// their subscriber sites, read from the *current* fragmentation
    /// (so dropped subscriptions ship nothing).
    fn cascade(&mut self, worklist: Vec<(u16, u32)>, cx: &mut Site) {
        let (k, f, pred, refining) = (self.k, cx.f, cx.pred, cx.refining);
        let (revoked, stats, ship) = (&mut self.revoked, &mut *cx.stats, &mut *cx.ship);
        let preds = |idx| pred.of(idx as usize);
        self.st.eval.cascade(worklist, preds, cx.ops, |uq, idx| {
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
            if let Some(pos) = f.in_node_pos(idx) {
                ship.push(k, var, f.in_node_subscribers(pos));
            }
        });
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
    fn mark_from(&mut self, seeds: impl IntoIterator<Item = (u16, u32)>, cx: &mut Site) {
        let (k, f, st) = (self.k, cx.f, &mut self.st);
        let (stats, ship) = (&mut *cx.stats, &mut *cx.ship);
        let mut enter = |uq: u16, idx: u32, mark: &mut MatchSet, aff: &mut Vec<(u16, u32)>| {
            if !mark.insert(uq as usize, idx) {
                return;
            }
            aff.push((uq, idx));
            if !f.is_virtual(idx) {
                stats.affected_pairs += 1;
                if let Some(pos) = f.in_node_pos(idx) {
                    let node = f.global_id(idx).0;
                    ship.push(k, Var { q: uq, node }, f.in_node_subscribers(pos));
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
                for &p in cx.pred.of(idx as usize) {
                    *cx.ops += 1;
                    if self.q.label(QNodeId(up)) == f.label(p) && !st.eval.cand.test(up as usize, p)
                    {
                        enter(up, p, &mut st.mark, &mut st.aff);
                    }
                }
            }
        }
    }

    /// Seeds `AFF` from the edges `fresh` this site just inserted:
    /// every false, label-compatible pair `(uq, u)` of a source `u`
    /// seeds it if `uq` has an out-edge to a pattern node labelled like
    /// the target — labels only, because a crossing target's `CandRow`
    /// may not have landed yet.
    fn mark_insertions(&mut self, fresh: &[(u32, u32)], cx: &mut Site) {
        let mut seeds = Vec::new();
        for &(ui, vi) in fresh {
            for (uq, uc) in self.q.edges() {
                *cx.ops += 1;
                if label_compatible(&self.q, (uq, uc), cx.f, (ui, vi))
                    && !self.st.is_candidate(uq.0, ui)
                {
                    seeds.push((uq.0, ui));
                }
            }
        }
        self.mark_from(seeds, cx);
    }

    /// Marks the in-node pairs their owner reports affected on this
    /// site's virtual copies and continues the closure. The owner
    /// vouches for them: its candidacy is the authority, and this
    /// slot's own row may still be waiting for its `CandRow`.
    fn apply_affected(&mut self, vars: Vec<Var>, cx: &mut Site) {
        let f = cx.f;
        let seeds = vars.into_iter().map(|var| {
            let idx = f.index_of(var.node_id());
            (
                var.q,
                idx.expect("affected in-node has a subscribed slot here"),
            )
        });
        self.mark_from(seeds, cx);
    }

    /// Applies a falsification batch to this fragment's virtual copies
    /// and cascades. Shared by the deletion phase, the refining phase,
    /// and the replay of buffered falsifications.
    fn apply_falsified(&mut self, vars: Vec<Var>, cx: &mut Site) {
        let (f, cand) = (cx.f, &mut self.st.eval.cand);
        let mut worklist = Vec::new();
        for var in vars {
            *cx.ops += 1;
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
        self.cascade(worklist, cx);
    }

    /// Overwrites the candidacy of subscribed slots with their owner's
    /// rows.
    fn set_rows(&mut self, rows: Vec<(u32, Vec<u16>)>, cx: &mut Site) {
        let cand = &mut self.st.eval.cand;
        for (gid, qs) in rows {
            *cx.ops += 1;
            let idx =
                (cx.f.index_of(NodeId(gid))).expect("candidacy row targets a subscribed slot");
            for u in 0..cand.rows() {
                cand.remove(u, idx);
            }
            for q in qs {
                cand.set(q as usize, idx);
            }
        }
    }

    /// Marking is globally quiescent, so `AFF` is complete and every
    /// `CandRow` has landed: repair the counters for the inserted
    /// edges, flip `AFF` to true, recount the revived local pairs, and
    /// run the downward refinement from those that lack support, with
    /// everything outside `AFF` frozen as the boundary. Buffered
    /// out-of-phase falsifications replay after revival so they cannot
    /// be lost.
    fn refine(&mut self, cx: &mut Site) {
        let f = cx.f;
        let (ev, mark) = (&mut self.st.eval, &self.st.mark);
        let n_local = ev.n_local;
        // An inserted edge supports its source pair once per pattern
        // edge whose child pair is true, if the source pair is true
        // too; `AFF` pairs, still false here, are counted below.
        for &(ui, vi) in cx.inserted {
            for (e, (uq, uc)) in self.q.edges().enumerate() {
                *cx.ops += 1;
                if label_compatible(&self.q, (uq, uc), f, (ui, vi))
                    && ev.cand.test(uc.index(), vi)
                    && ev.cand.test(uq.index(), ui)
                {
                    ev.cnt[e * n_local + ui as usize] += 1;
                }
            }
        }
        // A revived pair supports the true pairs of its predecessors;
        // those in `AFF` are recounted below instead.
        for &(uq, idx) in &self.st.aff {
            *cx.ops += 1;
            ev.cand.set(uq as usize, idx);
            for &(e, up) in &ev.parent_edges[uq as usize] {
                for &p in cx.pred.of(idx as usize) {
                    *cx.ops += 1;
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
                *cx.ops += succ.len() as u64;
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
        self.cascade(worklist, cx);
        let pending = std::mem::take(&mut self.pending_falsified);
        self.apply_falsified(pending, cx);
    }

    /// Reconciles this run's result against the final candidacy and
    /// clears the insertion-phase scratch; returns the revoked and the
    /// resurrected pairs. Deletion-phase revocations that refinement
    /// revived cancel out; every other local `AFF` pair that survived
    /// refinement is a resurrection (it was false when it entered).
    fn gather(&mut self, cx: &mut Site) -> (Vec<Var>, Vec<Var>) {
        let (f, st) = (cx.f, &mut self.st);
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
        cx.stats.pairs_revoked -= before - revoked.len() as u64;
        let mut resurrected = Vec::new();
        for (uq, idx) in st.aff.drain(..) {
            *cx.ops += 1;
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
        cx.stats.pairs_resurrected += resurrected.len() as u64;
        (revoked, resurrected)
    }
}

/// Site logic of a batch's one maintenance run: every maintained
/// entry's state and the site's one reverse adjacency, for the
/// duration; hands both back through [`Self::into_parts`]. An edge op
/// is applied to the adjacency once, then every entry takes its
/// counter step.
pub struct DeltaSiteLogic {
    site: SiteId,
    frag: Arc<Fragmentation>,
    entries: Vec<Entry>,
    /// Everything here walks edges backward; forward lists would be
    /// a second copy of the same set. Pre-delta when the run starts,
    /// post-delta when it ends.
    pred: SpanLists<u32>,
    /// Edges this run inserted, as local indices.
    inserted: Vec<(u32, u32)>,
    phase: SitePhase,
    /// What the current handler ships, empty between handlers.
    ship: EntryBatches<Var>,
    stats: SiteDeltaMetrics,
    ops: u64,
}

impl DeltaSiteLogic {
    /// Every entry's persistent state, in the order
    /// [`build_maintenance`] took them, to be carried into the next
    /// batch, and the site's reverse adjacency, now post-delta.
    pub fn into_parts(self) -> (Vec<DeltaSiteState>, SpanLists<u32>) {
        (self.entries.into_iter().map(|e| e.st).collect(), self.pred)
    }

    /// This run's per-site accounting.
    pub fn stats(&self) -> &SiteDeltaMetrics {
        &self.stats
    }

    /// The entries and what their steps read and ship.
    fn split(&mut self) -> (&mut [Entry], Site<'_>) {
        let cx = Site {
            f: self.frag.fragment(self.site),
            pred: &self.pred,
            inserted: &self.inserted,
            stats: &mut self.stats,
            ops: &mut self.ops,
            refining: self.phase == SitePhase::Refining,
            ship: &mut self.ship,
        };
        (&mut self.entries, cx)
    }

    /// Runs `step` for every entry with variables in `groups`, then
    /// sends what the steps shipped as one `msg` per destination.
    fn each(
        &mut self,
        groups: ByEntry<Var>,
        out: &mut Outbox<UpdateMsg>,
        msg: fn(ByEntry<Var>) -> UpdateMsg,
        step: fn(&mut Entry, Vec<Var>, &mut Site),
    ) -> u64 {
        let (entries, mut cx) = self.split();
        for (k, vars) in groups {
            step(&mut entries[k as usize], vars, &mut cx);
        }
        self.ship.send(out, msg)
    }

    /// Applies one (possibly re-delivered) deletion batch: each edge
    /// leaves the adjacency, then every entry takes its counter step
    /// and cascades. A duplicate delivery finds the edge already gone
    /// and is a no-op for every entry.
    fn apply_deletions(&mut self, pairs: Vec<(u32, u32)>, out: &mut Outbox<UpdateMsg>) {
        for (u, v) in pairs {
            let f = self.frag.fragment(self.site);
            let (Some(ui), Some(vi)) = (f.index_of(NodeId(u)), f.index_of(NodeId(v))) else {
                continue;
            };
            if !self.pred.remove(vi as usize, ui) {
                continue;
            }
            self.stats.ops_applied += 1;
            let (entries, mut cx) = self.split();
            for e in entries {
                e.delete_edge((ui, vi), &mut cx);
            }
        }
        self.stats.falsifications_shipped += self.ship.send(out, UpdateMsg::Falsified);
    }

    /// Applies one routed insertion batch (marking phase): edges enter
    /// the adjacency (idempotently, so re-delivery is a no-op for every
    /// entry) and each entry seeds `AFF` from the new ones. The
    /// counters wait for `Refine`.
    fn apply_insertions(&mut self, pairs: Vec<(u32, u32)>, out: &mut Outbox<UpdateMsg>) {
        let from = self.inserted.len();
        let f = self.frag.fragment(self.site);
        for (u, v) in pairs {
            let ui = (f.index_of(NodeId(u))).expect("insertion routed to owner of source");
            let vi = f
                .index_of(NodeId(v))
                .expect("insertion target present in post-delta fragment");
            if self.pred.insert(vi as usize, ui) {
                self.inserted.push((ui, vi));
                self.stats.ops_applied += 1;
            }
        }
        let (entries, mut cx) = self.split();
        let fresh = &cx.inserted[from..];
        for e in entries {
            e.mark_insertions(fresh, &mut cx);
        }
        self.ship.send(out, UpdateMsg::Affected);
    }

    /// Ships, for every entry, the candidacy rows the coordinator asked
    /// for: one [`UpdateMsg::CandRow`] per destination.
    fn ship_rows(&mut self, requests: &[(u32, u32)], out: &mut Outbox<UpdateMsg>) {
        let f = self.frag.fragment(self.site);
        let at = |&(dest, gid): &(u32, u32)| {
            let idx = f.index_of(NodeId(gid)).expect("shipped in-node is local");
            ([dest as usize], gid, idx)
        };
        let requests: Vec<([SiteId; 1], u32, u32)> = requests.iter().map(at).collect();
        let mut rows = EntryBatches::new(out.num_sites());
        for e in &self.entries {
            for (dest, gid, idx) in &requests {
                let qs: Vec<u16> = (0..e.q.node_count() as u16)
                    .filter(|&u| e.st.is_candidate(u, *idx))
                    .collect();
                rows.push(e.k, (*gid, qs), dest);
            }
        }
        rows.send(out, UpdateMsg::CandRow);
    }

    /// Enters the marking phase on first contact. Idempotent.
    fn enter_marking(&mut self) {
        if self.phase == SitePhase::Deleting {
            self.phase = SitePhase::Marking;
        }
    }

    /// Every entry reconciles ([`Entry::gather`]); one `Revoked`, and
    /// one `Resurrected` if anything came back, carry them all.
    fn gather(&mut self, out: &mut Outbox<UpdateMsg>) {
        let (mut revoked, mut resurrected) = (Vec::new(), Vec::new());
        let (entries, mut cx) = self.split();
        for e in entries {
            let (rev, res) = e.gather(&mut cx);
            if !rev.is_empty() {
                revoked.push((e.k, rev));
            }
            if !res.is_empty() {
                resurrected.push((e.k, res));
            }
        }
        self.inserted.clear();
        out.send_result(Endpoint::Coordinator, UpdateMsg::Revoked(revoked));
        if !resurrected.is_empty() {
            out.send_result(Endpoint::Coordinator, UpdateMsg::Resurrected(resurrected));
        }
    }
}

impl SiteLogic<UpdateMsg> for DeltaSiteLogic {
    fn on_start(&mut self, _out: &mut Outbox<UpdateMsg>) {
        // Sites idle until the coordinator routes them ops.
    }

    fn on_message(&mut self, from: Endpoint, msg: UpdateMsg, out: &mut Outbox<UpdateMsg>) {
        match msg {
            UpdateMsg::Ops(pairs) => self.apply_deletions(pairs, out),
            UpdateMsg::Falsified(groups) if self.phase == SitePhase::Marking => {
                // From a site that is already refining (there is no
                // cross-channel ordering with the coordinator's
                // `Refine`). Applying now would be undone by revival —
                // hold until this site revives too.
                for (k, vars) in groups {
                    self.entries[k as usize].pending_falsified.extend(vars);
                }
            }
            UpdateMsg::Falsified(groups) => {
                let shipped = self.each(groups, out, UpdateMsg::Falsified, Entry::apply_falsified);
                self.stats.falsifications_shipped += shipped;
            }
            UpdateMsg::InsOps(pairs) => {
                self.enter_marking();
                self.apply_insertions(pairs, out);
            }
            UpdateMsg::Affected(groups) => {
                self.enter_marking();
                self.each(groups, out, UpdateMsg::Affected, Entry::apply_affected);
            }
            UpdateMsg::CandRow(groups) => {
                self.enter_marking();
                let (entries, mut cx) = self.split();
                for (k, rows) in groups {
                    entries[k as usize].set_rows(rows, &mut cx);
                }
            }
            UpdateMsg::ShipCand(requests) => {
                debug_assert_eq!(from, Endpoint::Coordinator);
                self.enter_marking();
                self.ship_rows(&requests, out);
            }
            UpdateMsg::Refine if self.phase != SitePhase::Refining => {
                debug_assert_eq!(from, Endpoint::Coordinator);
                self.phase = SitePhase::Refining;
                let (entries, mut cx) = self.split();
                for e in entries {
                    e.refine(&mut cx);
                }
                self.stats.falsifications_shipped += self.ship.send(out, UpdateMsg::Falsified);
            }
            UpdateMsg::Refine => {}
            UpdateMsg::GatherRequest => {
                debug_assert_eq!(from, Endpoint::Coordinator);
                self.gather(out);
            }
            UpdateMsg::Revoked(_) | UpdateMsg::Resurrected(_) => {
                unreachable!("sites never receive results")
            }
        }
        out.charge_ops(std::mem::take(&mut self.ops));
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
        for ((f, mut st), site) in frag.fragments().iter().zip(states).zip(&mut per_site) {
            st.eval.cand.grow_cols(f.n_total());
            st.mark.grow_cols(f.n_total());
            site.push(Entry {
                k,
                q: Arc::clone(&q),
                st,
                pending_falsified: Vec::new(),
                revoked: Vec::new(),
            });
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
        .map(|(site, (entries, pred))| DeltaSiteLogic {
            site,
            frag: Arc::clone(frag),
            entries,
            pred,
            inserted: Vec::new(),
            phase: SitePhase::Deleting,
            ship: EntryBatches::new(n),
            stats: SiteDeltaMetrics {
                site,
                ..SiteDeltaMetrics::default()
            },
            ops: 0,
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

    #[test]
    fn wire_sizes() {
        assert_eq!(UpdateMsg::GatherRequest.wire_size(), 1);
        assert_eq!(UpdateMsg::Refine.wire_size(), 1);
        assert_eq!(UpdateMsg::Ops(vec![(1, 2), (3, 4)]).wire_size(), 1 + 4 + 16);
        assert_eq!(UpdateMsg::InsOps(vec![(1, 2)]).wire_size(), 1 + 4 + 8);
        assert_eq!(UpdateMsg::ShipCand(vec![(0, 9)]).wire_size(), 1 + 4 + 8);
        assert_eq!(
            UpdateMsg::CandRow(vec![(0, vec![(4, vec![0, 2])])]).wire_size(),
            1 + 4 + (4 + 4 + (4 + 2 + 4))
        );
        // An entry-tagged list counts its tag: 4 bytes a group, beside
        // the group's own length prefix.
        assert_eq!(
            UpdateMsg::CandRow(vec![(0, vec![(4, vec![0, 2])]), (3, vec![])]).wire_size(),
            1 + 4 + (4 + 4 + (4 + 2 + 4)) + (4 + 4)
        );
        let v = vec![(2, vec![Var { q: 0, node: 7 }])];
        assert_eq!(
            UpdateMsg::Falsified(v.clone()).wire_size(),
            1 + 4 + 4 + 4 + 6
        );
        assert_eq!(
            UpdateMsg::Affected(v.clone()).wire_size(),
            1 + 4 + 4 + 4 + 6
        );
        assert_eq!(UpdateMsg::Revoked(v.clone()).wire_size(), 1 + 4 + 4 + 4 + 6);
        assert_eq!(UpdateMsg::Resurrected(v).wire_size(), 1 + 4 + 4 + 4 + 6);
    }

    /// Whatever order the entries push in, a destination's batch holds
    /// one group per entry, ascending, and an item named twice in a
    /// row for one site goes once.
    #[test]
    fn entry_batches_group_by_entry_in_order() {
        let var = |node| Var { q: 0, node };
        let mut batches = EntryBatches::new(3);
        batches.push(2, var(1), &[0, 0, 2]);
        batches.push(0, var(2), &[0]);
        batches.push(2, var(3), &[0]);
        batches.push(0, var(4), &[2]);
        assert_eq!(
            batches.0[0],
            vec![(0, vec![var(2)]), (2, vec![var(1), var(3)])]
        );
        assert_eq!(batches.0[2], vec![(0, vec![var(4)]), (2, vec![var(1)])]);
        assert!(batches.0[1].is_empty());
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
