//! The per-site state of one maintained entry and its counter steps.
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
//! The steps are [`Entry`]'s, one per message a site handles; the
//! site logic (`site.rs`) calls them for every entry, so they are
//! `#[inline]` across that module boundary.

use super::msg::EntryBatches;
use crate::local_eval::{EvalState, LocalEval};
use crate::vars::Var;
use dgs_graph::{NodeId, Pattern, QNodeId};
use dgs_net::SiteDeltaMetrics;
use dgs_partition::{Fragment, Fragmentation, SiteId, SpanLists};
use dgs_sim::MatchSet;
use std::sync::Arc;

/// Persistent per-site state of one maintained pattern: `lEval`'s
/// fixpoint state on the fragment, kept current batch by batch, and
/// the insertion phase's `AFF` scratch. It holds no adjacency: the
/// edges it counts over are the session's one reverse adjacency per
/// site, lent to each batch's run ([`super::build_maintenance`]), so an entry
/// costs a candidacy bit and a mark bit per pair, a counter per local
/// node and pattern edge, and nothing that grows with `|Ei|`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaSiteState {
    pub(super) eval: EvalState,
    /// Insertion-phase scratch, laid out like the candidacy rows: the
    /// pairs in `aff`. Both scratch fields are empty between runs —
    /// `gather` clears them through the `aff` list, so a run touches
    /// `O(|AFF|)` of them, never `O(n · nq)`.
    pub(super) mark: MatchSet,
    /// This site's slice of `AFF` as `(query node, local index)`, in
    /// marking order; doubles as the closure's worklist.
    pub(super) aff: Vec<(u16, u32)>,
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
    pub(super) fn new(eval: EvalState) -> Self {
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
pub(super) struct Entry {
    /// Its position in the list [`super::build_maintenance`] took: the
    /// tag of its messages.
    pub(super) k: u32,
    pub(super) q: Arc<Pattern>,
    pub(super) st: DeltaSiteState,
    /// Falsifications that arrived from an already-refining site while
    /// this one was still marking; replayed right after revival.
    pub(super) pending_falsified: Vec<Var>,
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
pub(super) struct Site<'a> {
    pub(super) f: &'a Fragment,
    pub(super) pred: &'a SpanLists<u32>,
    pub(super) inserted: &'a [(u32, u32)],
    pub(super) stats: &'a mut SiteDeltaMetrics,
    pub(super) ops: &'a mut u64,
    pub(super) refining: bool,
    pub(super) ship: &'a mut EntryBatches<Var>,
}

impl Entry {
    /// Entry `k` of a run over `q`, from its persistent state `st`,
    /// widened to the `n_total` slots of the post-delta fragment (a
    /// new virtual slot's bits stay false until its `CandRow` lands).
    pub(super) fn new(k: u32, q: Arc<Pattern>, mut st: DeltaSiteState, n_total: usize) -> Self {
        st.eval.cand.grow_cols(n_total);
        st.mark.grow_cols(n_total);
        Entry {
            k,
            q,
            st,
            pending_falsified: Vec::new(),
            revoked: Vec::new(),
        }
    }

    /// The counter step of deleted edge `(ui, vi)`, already gone from
    /// the site's adjacency, and its cascade. The deleted edge
    /// supported, per query edge `(uq, uc)`, the pair `(uq, ui)` iff
    /// `(uc, vi)` is a candidate; only a candidate's counter is exact,
    /// so only a candidate's moves. On a self-loop the counters hold
    /// the *pre-deletion* support, so a child pair an earlier edge just
    /// falsified still counts.
    #[inline]
    pub(super) fn delete_edge(&mut self, (ui, vi): (u32, u32), cx: &mut Site) {
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
    /// [`super::UpdateMsg::Affected`] so the closure continues across the
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
    #[inline]
    pub(super) fn mark_insertions(&mut self, fresh: &[(u32, u32)], cx: &mut Site) {
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
    #[inline]
    pub(super) fn apply_affected(&mut self, vars: Vec<Var>, cx: &mut Site) {
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
    #[inline]
    pub(super) fn apply_falsified(&mut self, vars: Vec<Var>, cx: &mut Site) {
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
    #[inline]
    pub(super) fn set_rows(&mut self, rows: Vec<(u32, Vec<u16>)>, cx: &mut Site) {
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
    #[inline]
    pub(super) fn refine(&mut self, cx: &mut Site) {
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
    #[inline]
    pub(super) fn gather(&mut self, cx: &mut Site) -> (Vec<Var>, Vec<Var>) {
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
