//! `lEval`: optimistic local evaluation with incremental falsification
//! (§4.1, Fig. 4 of the paper).
//!
//! Each site keeps, for every node of its fragment (local *and*
//! virtual) and every query node, a candidacy bit for the Boolean
//! variable `X(u,v)`:
//!
//! * label mismatch → `false` from the start (both sides of a crossing
//!   edge know the virtual node's label, so this never needs shipping);
//! * `u` a sink query node and labels match → `true` forever (`lEval`
//!   line 5);
//! * otherwise `X(u,v)` starts optimistically `true` and can only be
//!   *falsified* — for local nodes by the counter-based worklist below,
//!   for virtual nodes by falsification messages from their owner.
//!
//! The counters are the HHK scheme restricted to the fragment: pair
//! `(u, v)` holds, per query edge `(u, u')`, the number of
//! still-candidate successors matching `u'`. Virtual nodes have no
//! out-edges in `Ei`, so their pairs are never falsified locally —
//! exactly the paper's "always assume the unevaluated virtual nodes
//! are match candidates".
//!
//! **Only counters that can be read exist.** A counter of edge
//! `(u, u')` at `v` is read when a successor of `v` leaves `u'`, and
//! only while `(u, v)` is still a candidate. So it is written only for
//! a local node whose label is the label of `u` (the source of some
//! query edge), and decremented only while `(u, v)` is a candidate —
//! a bit test that costs no more than the decrement it skips. The
//! counter of a falsified pair goes stale and is never read again.
//!
//! The state at the fixpoint — candidacy rows and counters, without
//! the fragment — outlives the query: delta maintenance (`delta/`)
//! promotes a cached answer by running this evaluation with the
//! virtual pairs the answer excludes pinned false, keeps the state per
//! site between batches, and runs the same cascade on it over its own
//! reverse adjacency.
//!
//! Counters are **seeded from the fragment's label index**
//! ([`Fragment::label_row`], [`Fragment::successor_labels`]): facts of
//! the graph that `Fragmentation::build` lays out and `apply_delta`
//! keeps, so no query recomputes them. Initial candidacy is label
//! equality, so a candidate row is a copy of its label's row; the
//! nodes to seed are the local slots of the source labels' rows,
//! walked in index order; and edge `e`'s counter at a node is the sum
//! of the node's successor label runs of `e`'s child label.
//! Right after a node's counters are written, each of its source pairs
//! with a zero counter is falsified and queued — the dead-on-arrival
//! check is part of the seeding, not a second scan. Virtual pairs
//! pinned false (`dGPMNOpt`'s from-scratch rebuild,
//! [`LocalEval::new_with_pinned`]) join the same cascade, so
//! [`LocalEval::new`] is the same path with nothing pinned.
//!
//! **The charge is that of the kernel before the index**, so that PT
//! and the pinned op counts stay where they were: one op per slot for
//! the label pass that built the rows per query, one per row word
//! copied, one label test per local node, `|succ| + |E_l|` per seeded
//! node (`E_l` the query edges whose source has its label `l`), one
//! check per source pair. The work done differs on three of these
//! terms: there is no pass over the slots, no unseeded local node is
//! visited, and a seeded node reads its runs — at most `|succ|`, as a
//! rule the number of distinct labels among its successors — once
//! per out-edge of its source pairs instead of each successor's label
//! once.
//!
//! [`LocalEval::apply_virtual_falsifications`] is the *incremental*
//! `lEval` of §4.2: it touches only the affected area `AFF` (the
//! counters reachable from the changed variables), and returns the
//! in-node variables that became false — precisely what `lMsg` must
//! ship. Each comes back as a [`Falsified`]: the variable *and* its
//! node's position in [`Fragment::in_nodes`], read from a dense table
//! built once per evaluation, so neither the worklist nor the ship
//! path (`vars::SiteBatches`) searches for the subscriber list.

use crate::vars::Var;
use dgs_graph::{Pattern, QNodeId};
use dgs_partition::{Fragment, Fragmentation, SiteId};
use dgs_sim::matchset::{MatchSet, SetBits};
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

/// A falsified in-node variable and its node's position in
/// [`Fragment::in_nodes`] (the key of its subscriber list).
pub type Falsified = (Var, u32);

/// What `lEval` keeps of a fragment at its fixpoint, without the
/// fragment: the candidacy rows, the support counters, and the
/// pattern's edges as the cascade walks them. Delta maintenance keeps
/// one per site for every cached entry between batches.
#[derive(Clone, Debug)]
pub(crate) struct EvalState {
    /// Per query node: `(edge index, parent)` pairs of incoming query
    /// edges.
    pub(crate) parent_edges: Vec<Vec<(usize, u16)>>,
    /// Candidacy of `X(u, v)`: one bitset row per query variable over
    /// the fragment index arena (locals first, then virtuals).
    pub(crate) cand: MatchSet,
    /// Support counters: `cnt[e * n_local + idx]`, meaningful while
    /// `idx` is a (local) candidate of the source of query edge `e`.
    pub(crate) cnt: Vec<u32>,
    /// `|Vi|`, the counters' stride: virtual nodes have no out-edges.
    pub(crate) n_local: usize,
}

impl EvalState {
    /// The state of `q` over `n` fragment slots, the first `n_local`
    /// of them local: no candidates, every counter zero.
    pub(crate) fn new(q: &Pattern, n: usize, n_local: usize) -> Self {
        let mut parent_edges: Vec<Vec<(usize, u16)>> = vec![Vec::new(); q.node_count()];
        for (e, (u, uc)) in q.edges().enumerate() {
            parent_edges[uc.index()].push((e, u.0));
        }
        EvalState {
            parent_edges,
            cand: MatchSet::new(q.node_count(), n),
            cnt: vec![0; q.edge_count() * n_local],
            n_local,
        }
    }

    /// The downward cascade, `lEval`'s one: each worklist entry has
    /// just been set non-candidate; `falsified` hears of it, then the
    /// supporting counters of its predecessors (`preds`, always local
    /// nodes) that are still candidates are decremented — no other
    /// counter is read again — and a pair left unsupported cascades.
    /// Charges one op per predecessor visited.
    pub(crate) fn cascade<'p>(
        &mut self,
        mut worklist: Vec<(u16, u32)>,
        preds: impl Fn(u32) -> &'p [u32],
        ops: &mut u64,
        mut falsified: impl FnMut(u16, u32),
    ) {
        while let Some((uq, idx)) = worklist.pop() {
            falsified(uq, idx);
            for &(e, up) in &self.parent_edges[uq as usize] {
                for &vp in preds(idx) {
                    *ops += 1;
                    if !self.cand.test(up as usize, vp) {
                        continue;
                    }
                    let c = &mut self.cnt[e * self.n_local + vp as usize];
                    debug_assert!(*c > 0, "support counter underflow");
                    *c -= 1;
                    if *c == 0 {
                        self.cand.remove(up as usize, vp);
                        worklist.push((up, vp));
                    }
                }
            }
        }
    }
}

/// Equal as states: the same candidacy and the same counter wherever
/// one can be read. A falsified pair's counters stay as its cascade
/// left them, which depends on the order falsifications arrived in.
impl PartialEq for EvalState {
    fn eq(&self, other: &Self) -> bool {
        let (n, same) = (self.n_local, |at: usize| self.cnt[at] == other.cnt[at]);
        let readable_agree = |&(e, up): &(usize, u16)| {
            let row = self.cand.iter_row(up as usize);
            row.take_while(|&i| i < n as u32)
                .all(|i| same(e * n + i as usize))
        };
        (&self.parent_edges, n, &self.cand) == (&other.parent_edges, other.n_local, &other.cand)
            && self.parent_edges.iter().flatten().all(readable_agree)
    }
}

impl Eq for EvalState {}

/// Per-site optimistic evaluation state.
pub struct LocalEval {
    frag: Arc<Fragmentation>,
    site: SiteId,
    q: Arc<Pattern>,
    pub(crate) state: EvalState,
    /// Local index → position in [`Fragment::in_nodes`]; `u32::MAX`
    /// for every other slot.
    in_pos: Vec<u32>,
    /// Charged basic operations since the last [`LocalEval::take_ops`].
    ops: u64,
}

impl LocalEval {
    /// Builds the evaluation state and runs the initial local fixpoint
    /// (Phase 1 partial evaluation). Returns the state and the in-node
    /// variables that are already falsified — the site's first
    /// `lMsg` payload.
    pub fn new(frag: Arc<Fragmentation>, site: SiteId, q: Arc<Pattern>) -> (Self, Vec<Falsified>) {
        Self::new_with_pinned(frag, site, q, &HashSet::new())
    }

    /// Like [`LocalEval::new`], but with a set of virtual variables
    /// already known false (used by the from-scratch re-evaluation of
    /// `dGPMNOpt`, and by delta maintenance to promote a cached answer).
    pub fn new_with_pinned(
        frag: Arc<Fragmentation>,
        site: SiteId,
        q: Arc<Pattern>,
        pinned_false: &HashSet<Var>,
    ) -> (Self, Vec<Falsified>) {
        let f = frag.fragment(site);
        let nq = q.node_count();
        let n = f.n_total();
        let n_local = f.n_local();
        let mut state = EvalState::new(&q, n, n_local);
        let EvalState { cand, cnt, .. } = &mut state;

        // Candidacy by label: each candidate row is a copy of its
        // label's row in the fragment's label index. Charged as the
        // single pass over the fragment that built those rows per
        // query before the index existed.
        let mut ops = n as u64;
        for u in q.nodes() {
            ops += cand.words_per_row() as u64;
            if let Some(row) = f.label_row(q.label(u)) {
                cand.copy_row_from(u.index(), row);
            }
        }

        // Per label: the source query nodes carrying it, each with the
        // range of its out-edges (`Pattern::edges` lists a node's
        // out-edges consecutively); the label of each edge's child; and
        // the slots of every source label.
        let label_bound = q.labels().iter().map(|l| l.index() + 1).max().unwrap_or(0);
        let mut sources: Vec<Vec<(u16, Range<usize>)>> = vec![Vec::new(); label_bound];
        let child_label: Vec<usize> = q.edges().map(|(_, uc)| q.label(uc).index()).collect();
        let mut seeded = vec![0u64; cand.words_per_row()];
        let mut first = 0;
        for u in q.nodes() {
            let out = first..first + q.children(u).len();
            first = out.end;
            if !out.is_empty() {
                let l = q.label(u);
                if sources[l.index()].is_empty() {
                    for (w, &r) in seeded.iter_mut().zip(f.label_row(l).unwrap_or_default()) {
                        *w |= r;
                    }
                }
                sources[l.index()].push((u.0, out));
            }
        }

        // Seed the counters of source-labelled local nodes, in index
        // order: edge `e`'s counter at a node sums the node's successor
        // label runs of `e`'s child label. Falsify a pair with an
        // unsupported out-edge as soon as its counters are written.
        // Charged as one label test per local node and `|succ|` per
        // seeded node, the walk of its successors the runs replace.
        ops += n_local as u64;
        let mut worklist: Vec<(u16, u32)> = Vec::new();
        for idx in SetBits::new(&seeded).take_while(|&i| (i as usize) < n_local) {
            let runs = f.successor_labels(idx);
            let runs = || runs.iter().take_while(|&&(_, c)| c > 0);
            for (u, out) in &sources[f.label(idx).index()] {
                let mut dead = false;
                for e in out.clone() {
                    let of_child = runs().filter(|&&(l, _)| l.index() == child_label[e]);
                    let c = of_child.map(|&(_, c)| u32::from(c)).sum();
                    cnt[e * n_local + idx as usize] = c;
                    dead |= c == 0;
                }
                if dead {
                    cand.remove(*u as usize, idx);
                    worklist.push((*u, idx));
                }
                ops += out.len() as u64 + 1;
            }
            ops += f.successors(idx).len() as u64;
        }

        // Pinned-false virtual pairs leave candidacy through the same
        // cascade.
        for var in pinned_false {
            ops += 1;
            let Some(idx) = f.index_of(var.node_id()) else {
                continue;
            };
            if (var.q as usize) < nq && f.is_virtual(idx) && cand.remove(var.q as usize, idx) {
                worklist.push((var.q, idx));
            }
        }

        let mut in_pos = vec![u32::MAX; n];
        for (pos, &idx) in f.in_nodes().iter().enumerate() {
            in_pos[idx as usize] = pos as u32;
        }

        let mut ev = LocalEval {
            frag: Arc::clone(&frag),
            site,
            q,
            state,
            in_pos,
            ops,
        };
        let falsified = ev.run_worklist(worklist);
        (ev, falsified)
    }

    #[inline]
    fn fragment(&self) -> &Fragment {
        self.frag.fragment(self.site)
    }

    /// Is `X(u, idx)` still a candidate? (`idx` is a fragment-local
    /// index.)
    #[inline]
    pub fn is_candidate(&self, u: u16, idx: u32) -> bool {
        self.state.cand.test(u as usize, idx)
    }

    /// The pattern this evaluation runs.
    pub fn pattern(&self) -> &Pattern {
        &self.q
    }

    /// Fragment-local index space size.
    pub fn n_total(&self) -> usize {
        self.state.cand.cols()
    }

    /// Takes and resets the charged operation counter.
    pub fn take_ops(&mut self) -> u64 {
        std::mem::take(&mut self.ops)
    }

    /// Propagates a batch of falsified *virtual* variables (received
    /// from their owner sites). Returns the in-node variables newly
    /// falsified by the incremental propagation — the next `lMsg`
    /// payload. Unknown or already-false variables are ignored
    /// (messages are idempotent).
    pub fn apply_virtual_falsifications(&mut self, vars: &[Var]) -> Vec<Falsified> {
        let frag = Arc::clone(&self.frag);
        let f = frag.fragment(self.site);
        let mut worklist = Vec::new();
        for var in vars {
            self.ops += 1;
            let Some(idx) = f.index_of(var.node_id()) else {
                continue;
            };
            debug_assert!(
                f.is_virtual(idx),
                "falsification for a non-virtual node {:?}",
                var
            );
            let cand = &mut self.state.cand;
            if (var.q as usize) < cand.rows() && cand.remove(var.q as usize, idx) {
                worklist.push((var.q, idx));
            }
        }
        self.run_worklist(worklist)
    }

    /// The cascade over the fragment's own reverse adjacency. Returns
    /// the falsified in-node variables, each with its position.
    fn run_worklist(&mut self, worklist: Vec<(u16, u32)>) -> Vec<Falsified> {
        let frag = Arc::clone(&self.frag);
        let f = frag.fragment(self.site);
        let in_pos = &self.in_pos;
        let mut falsified_in_nodes = Vec::new();
        let preds = |idx| f.predecessors(idx);
        self.state
            .cascade(worklist, preds, &mut self.ops, |uq, idx| {
                let pos = in_pos[idx as usize];
                if pos != u32::MAX {
                    let node = f.global_id(idx).0;
                    falsified_in_nodes.push((Var { q: uq, node }, pos));
                }
            });
        falsified_in_nodes
    }

    /// Current matches among *local* nodes, as global ids per query
    /// node (the payload of the final result collection).
    pub fn local_match_lists(&mut self) -> Vec<(u16, Vec<u32>)> {
        let frag = Arc::clone(&self.frag);
        let f = frag.fragment(self.site);
        let mut out = Vec::with_capacity(self.q.node_count());
        for u in 0..self.q.node_count() as u16 {
            // Set bits come out ascending, so locals ([0, n_local))
            // form a prefix of the row walk.
            let mut l = Vec::new();
            self.ops += self.state.cand.words_per_row() as u64;
            for idx in self.state.cand.iter_row(u as usize) {
                if idx as usize >= self.state.n_local {
                    break;
                }
                self.ops += 1;
                l.push(f.global_id(idx).0);
            }
            out.push((u, l));
        }
        out
    }

    /// Count of still-candidate variables of *live* virtual nodes
    /// (`|Fi.O'|` of the push benefit function; a slot a delta retired
    /// keeps its bits but is no longer in `Fi.O`).
    pub fn unevaluated_virtuals(&self) -> usize {
        let f = self.fragment();
        f.virtual_indices()
            .filter(|&idx| f.is_live_virtual(idx))
            .map(|idx| {
                (0..self.q.node_count())
                    .filter(|&u| self.state.cand.test(u, idx))
                    .count()
            })
            .sum()
    }

    /// Count of still-candidate in-node variables (`|Fi.I'|`).
    pub fn unevaluated_in_nodes(&self) -> usize {
        let f = self.fragment();
        f.in_nodes()
            .iter()
            .map(|&idx| {
                (0..self.q.node_count())
                    .filter(|&u| self.state.cand.test(u, idx))
                    .count()
            })
            .sum()
    }

    /// Still-candidate in-node variables as `Var`s.
    pub fn candidate_in_node_vars(&self) -> Vec<Var> {
        let f = self.fragment();
        let mut out = Vec::new();
        for &idx in f.in_nodes() {
            for u in 0..self.q.node_count() as u16 {
                if self.is_candidate(u, idx) {
                    out.push(Var {
                        q: u,
                        node: f.global_id(idx).0,
                    });
                }
            }
        }
        out
    }

    /// Query children of `u` paired with matching successors of `idx`,
    /// for the symbolic expansion in [`crate::push`] / `dGPMt`.
    pub(crate) fn and_or_structure(&self, u: u16, idx: u32) -> Vec<(u16, Vec<u32>)> {
        let f = self.fragment();
        let q = &self.q;
        q.children(QNodeId(u))
            .iter()
            .map(|&uc| {
                let vs: Vec<u32> = f
                    .successors(idx)
                    .iter()
                    .copied()
                    .filter(|&s| self.is_candidate(uc.0, s))
                    .collect();
                (uc.0, vs)
            })
            .collect()
    }

    /// Charges `n` extra operations (used by callers that do work on
    /// top of the evaluation state, e.g. equation expansion).
    pub fn charge(&mut self, n: u64) {
        self.ops += n;
    }

    /// The fragmentation backing this evaluation.
    pub fn fragmentation(&self) -> &Arc<Fragmentation> {
        &self.frag
    }

    /// This evaluation's site.
    pub fn site(&self) -> SiteId {
        self.site
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::generate::social::fig1;

    fn fig1_eval(site: usize) -> (LocalEval, Vec<Falsified>, dgs_graph::generate::social::Fig1) {
        let w = fig1();
        let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
        let q = Arc::new(w.pattern.clone());
        let (ev, falsified) = LocalEval::new(frag, site, q);
        (ev, falsified, w)
    }

    #[test]
    fn initial_eval_kills_local_only_failures() {
        // At F1: yb1 has no F successor, so X(YB, yb1) dies locally;
        // f1 has no SP successor at all (f1 -> f4 only, F label), so
        // X(F, f1) dies locally. Neither is an in-node, so the initial
        // falsified list is empty (in-nodes yf1/sp1 survive
        // optimistically).
        let (ev, falsified, w) = fig1_eval(0);
        assert!(falsified.is_empty());
        let f = ev.fragmentation().fragment(0);
        let yb1 = f.index_of(w.node("yb1")).unwrap();
        let f1 = f.index_of(w.node("f1")).unwrap();
        let yf1 = f.index_of(w.node("yf1")).unwrap();
        let sp1 = f.index_of(w.node("sp1")).unwrap();
        assert!(!ev.is_candidate(w.qnode("YB").0, yb1));
        assert!(!ev.is_candidate(w.qnode("F").0, f1));
        assert!(ev.is_candidate(w.qnode("YF").0, yf1));
        assert!(ev.is_candidate(w.qnode("SP").0, sp1));
    }

    #[test]
    fn virtual_pairs_survive_optimistically() {
        let (ev, _, w) = fig1_eval(0);
        let f = ev.fragmentation().fragment(0);
        // f2 and yf2 are virtual at F1; their label-matched vars stay
        // candidates until a message arrives.
        let f2 = f.index_of(w.node("f2")).unwrap();
        assert!(f.is_virtual(f2));
        assert!(ev.is_candidate(w.qnode("F").0, f2));
        // Label-mismatched virtual pair is false without any message.
        assert!(!ev.is_candidate(w.qnode("SP").0, f2));
    }

    #[test]
    fn incremental_falsification_cascades_example8() {
        // Example 8 of the paper: if X(F, f2) is falsified at F1, then
        // X(YF, yf1) = X(F, f2) falls, and X(SP, sp1) reduces to
        // X(YF, yf2) but stays a candidate.
        let (mut ev, _, w) = fig1_eval(0);
        let out = ev.apply_virtual_falsifications(&[Var::new(w.qnode("F"), w.node("f2"))]);
        let f = ev.fragmentation().fragment(0);
        let yf1 = f.index_of(w.node("yf1")).unwrap();
        let sp1 = f.index_of(w.node("sp1")).unwrap();
        assert!(!ev.is_candidate(w.qnode("YF").0, yf1));
        assert!(ev.is_candidate(w.qnode("SP").0, sp1));
        // yf1 is an in-node of F1, so its falsification must be
        // reported for shipping.
        // ...together with yf1's position among F1's in-nodes.
        let pos = f.in_node_pos(yf1).unwrap() as u32;
        assert_eq!(out, vec![(Var::new(w.qnode("YF"), w.node("yf1")), pos)]);
    }

    #[test]
    fn falsifications_idempotent_and_unknown_ignored() {
        let (mut ev, _, w) = fig1_eval(0);
        let var = Var::new(w.qnode("F"), w.node("f2"));
        let first = ev.apply_virtual_falsifications(&[var]);
        assert!(!first.is_empty());
        let second = ev.apply_virtual_falsifications(&[var]);
        assert!(second.is_empty());
        // A node this fragment has never heard of.
        let foreign = Var { q: 0, node: 9999 };
        assert!(ev.apply_virtual_falsifications(&[foreign]).is_empty());
    }

    #[test]
    fn pinned_construction_matches_incremental() {
        // dGPMNOpt invariant: rebuilding from scratch with the pinned
        // set must land in the same state as incremental propagation.
        let (mut incr, _, w) = fig1_eval(1);
        let var = Var::new(w.qnode("SP"), w.node("sp1"));
        incr.apply_virtual_falsifications(&[var]);

        let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
        let mut pinned = HashSet::new();
        pinned.insert(var);
        let (scratch, _) =
            LocalEval::new_with_pinned(frag, 1, Arc::new(w.pattern.clone()), &pinned);
        let n = incr.n_total();
        for idx in 0..n as u32 {
            for u in 0..w.pattern.node_count() as u16 {
                assert_eq!(
                    incr.is_candidate(u, idx),
                    scratch.is_candidate(u, idx),
                    "mismatch at u{u}, idx{idx}"
                );
                // Surviving local candidates agree on their support too.
                let n_local = incr.state.n_local;
                if incr.is_candidate(u, idx) && (idx as usize) < n_local {
                    let out = w.pattern.edges().enumerate();
                    for (e, _) in out.filter(|(_, (src, _))| src.0 == u) {
                        let at = e * n_local + idx as usize;
                        let (got, want) = (incr.state.cnt[at], scratch.state.cnt[at]);
                        assert_eq!(got, want, "cnt e{e}, idx{idx}");
                    }
                }
            }
        }
    }

    /// A random fragmentation that went through `apply_delta`: the
    /// first 40 edges leave, 40 fresh ones arrive, so virtual slots
    /// retire and new ones are appended behind the sorted section.
    fn churned(seed: u64) -> Arc<Fragmentation> {
        use dgs_graph::generate::random;
        use dgs_graph::NodeId;
        use dgs_partition::{hash_partition, EdgeOp};
        let g = random::uniform(120, 420, 3, seed);
        let mut frag = Fragmentation::build(&g, &hash_partition(120, 3, seed), 3);
        let mut ops: Vec<EdgeOp> = g
            .edges()
            .take(40)
            .map(|(u, v)| EdgeOp::Delete(u, v))
            .collect();
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut fresh = HashSet::new();
        while fresh.len() < 40 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let (u, v) = (
                NodeId((x >> 33) as u32 % 120),
                NodeId((x >> 13) as u32 % 120),
            );
            if u != v && !g.has_edge(u, v) && fresh.insert((u, v)) {
                ops.push(EdgeOp::Insert(u, v));
            }
        }
        frag.apply_delta(&ops);
        Arc::new(frag)
    }

    /// `lEval` as it was before counters were seeded for source-labelled
    /// nodes only: every local node seeded for every query edge, pinned
    /// pairs corrected by a decrement loop of their own, a separate
    /// dead-on-arrival scan over copies of the candidate rows, and a
    /// cascade that decrements every predecessor's counter. Its
    /// counters stay exact for every local node.
    mod full_count {
        use super::*;

        pub(super) struct Reference<'a> {
            f: &'a Fragment,
            n: usize,
            parent_edges: Vec<Vec<(usize, u16)>>,
            pub(super) cand: MatchSet,
            cnt: Vec<u32>,
        }

        impl<'a> Reference<'a> {
            pub(super) fn new(
                f: &'a Fragment,
                q: &Pattern,
                pinned_false: &HashSet<Var>,
            ) -> (Self, Vec<Falsified>) {
                let (nq, n, n_local) = (q.node_count(), f.n_total(), f.n_local());
                let qedges: Vec<(u16, u16)> = q.edges().map(|(u, c)| (u.0, c.0)).collect();
                let mut parent_edges: Vec<Vec<(usize, u16)>> = vec![Vec::new(); nq];
                let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); nq];
                for (e, &(u, uc)) in qedges.iter().enumerate() {
                    parent_edges[uc as usize].push((e, u));
                    out_edges[u as usize].push(e);
                }
                let mut cand = MatchSet::new(nq, n);
                for u in q.nodes() {
                    for idx in (0..n as u32).filter(|&i| f.label(i) == q.label(u)) {
                        cand.set(u.index(), idx);
                    }
                }
                let labels = (0..n as u32).map(|idx| f.label(idx));
                let labels = labels.chain(q.labels().iter().copied());
                let mut tally = vec![0u32; labels.map(|l| l.index() + 1).max().unwrap_or(0)];
                let child_label: Vec<usize> = qedges
                    .iter()
                    .map(|&(_, uc)| q.label(QNodeId(uc)).index())
                    .collect();
                let mut cnt = vec![0u32; qedges.len() * n];
                for idx in 0..n_local {
                    let succ = f.successors(idx as u32);
                    for &s in succ {
                        tally[f.label(s).index()] += 1;
                    }
                    for (e, &l) in child_label.iter().enumerate() {
                        cnt[e * n + idx] = tally[l];
                    }
                    for &s in succ {
                        tally[f.label(s).index()] = 0;
                    }
                }
                for var in pinned_false {
                    let Some(idx) = f.index_of(var.node_id()) else {
                        continue;
                    };
                    if (var.q as usize) < nq
                        && f.is_virtual(idx)
                        && cand.remove(var.q as usize, idx)
                    {
                        for &(e, _) in &parent_edges[var.q as usize] {
                            for &vp in f.predecessors(idx) {
                                cnt[e * n + vp as usize] -= 1;
                            }
                        }
                    }
                }
                let mut worklist = Vec::new();
                for u in 0..nq as u16 {
                    let row = cand.row(u as usize).to_vec();
                    for idx in SetBits::new(&row) {
                        if idx as usize >= n_local {
                            break;
                        }
                        let dead = out_edges[u as usize]
                            .iter()
                            .any(|&e| cnt[e * n + idx as usize] == 0);
                        if dead {
                            cand.remove(u as usize, idx);
                            worklist.push((u, idx));
                        }
                    }
                }
                let mut reference = Reference {
                    f,
                    n,
                    parent_edges,
                    cand,
                    cnt,
                };
                let falsified = reference.run_worklist(worklist);
                (reference, falsified)
            }

            pub(super) fn apply(&mut self, vars: &[Var]) -> Vec<Falsified> {
                let mut worklist = Vec::new();
                for var in vars {
                    let Some(idx) = self.f.index_of(var.node_id()) else {
                        continue;
                    };
                    if (var.q as usize) < self.cand.rows() && self.cand.remove(var.q as usize, idx)
                    {
                        worklist.push((var.q, idx));
                    }
                }
                self.run_worklist(worklist)
            }

            fn run_worklist(&mut self, mut worklist: Vec<(u16, u32)>) -> Vec<Falsified> {
                let mut falsified = Vec::new();
                while let Some((uq, idx)) = worklist.pop() {
                    if let Some(pos) = self.f.in_node_pos(idx) {
                        let node = self.f.global_id(idx).0;
                        falsified.push((Var { q: uq, node }, pos as u32));
                    }
                    for &(e, up) in &self.parent_edges[uq as usize] {
                        for &vp in self.f.predecessors(idx) {
                            let c = &mut self.cnt[e * self.n + vp as usize];
                            *c -= 1;
                            if *c == 0 && self.cand.remove(up as usize, vp) {
                                worklist.push((up, vp));
                            }
                        }
                    }
                }
                falsified
            }
        }
    }

    /// The kernel and the full-count reference agree: the same
    /// candidacy rows, the same falsified variables with the same
    /// positions, and every counter the kernel can still read — edge
    /// `(u, uc)` at a local candidate of `u` — equal to the brute-force
    /// count of candidate successors. No counter exceeds its node's
    /// out-degree, so a wrapped one fails in release builds too.
    fn assert_agree(
        ev: &LocalEval,
        reference: &full_count::Reference<'_>,
        mut got: Vec<Falsified>,
        mut want: Vec<Falsified>,
        at: &str,
    ) {
        for u in 0..ev.q.node_count() {
            assert_eq!(ev.state.cand.row(u), reference.cand.row(u), "{at}: row {u}");
        }
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{at}: falsified");
        let f = ev.fragment();
        let n_local = ev.state.n_local;
        for (e, (u, uc)) in ev.q.edges().enumerate() {
            for idx in 0..n_local as u32 {
                let c = ev.state.cnt[e * n_local + idx as usize] as usize;
                let succ = f.successors(idx);
                assert!(c <= succ.len(), "{at}: edge {e}, idx {idx}: {c} wrapped");
                if ev.is_candidate(u.0, idx) {
                    let brute = succ.iter().filter(|&&s| ev.is_candidate(uc.0, s));
                    assert_eq!(c, brute.count(), "{at}: edge {e}, idx {idx}");
                }
            }
        }
    }

    #[test]
    fn kernel_agrees_with_the_full_count_reference() {
        use dgs_graph::generate::patterns;
        let (mut retired, mut appended, mut cascaded) = (0, 0, 0);
        for seed in 0..12 {
            let frag = churned(seed);
            let cyclic = patterns::random_cyclic(4, 7, 3, seed + 11);
            let dag = patterns::random_dag_with_depth(5, 6, 3, 3, seed + 23);
            let mut x = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
            let mut next = move || {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (x >> 33) as usize
            };
            for q in [Arc::new(cyclic), Arc::new(dag)] {
                for site in 0..3 {
                    let f = frag.fragment(site);
                    retired += f.n_virtual() - f.live_virtuals();
                    let virt: Vec<u32> = f.virtual_indices().collect();
                    appended += virt
                        .windows(2)
                        .filter(|w| f.global_id(w[1]) < f.global_id(w[0]))
                        .count();
                    let vars: Vec<Var> = (virt.iter())
                        .flat_map(|&idx| q.nodes().map(move |u| Var::new(u, f.global_id(idx))))
                        .collect();
                    // Nothing pinned, then a random third of the virtual
                    // variables; the rest arrive in three incremental
                    // batches, each repeating one variable already sent.
                    let pinned: HashSet<Var> =
                        vars.iter().copied().filter(|_| next() % 3 == 0).collect();
                    for pinned in [HashSet::new(), pinned] {
                        let (mut ev, got) = LocalEval::new_with_pinned(
                            Arc::clone(&frag),
                            site,
                            Arc::clone(&q),
                            &pinned,
                        );
                        let (mut reference, want) = full_count::Reference::new(f, &q, &pinned);
                        let at = format!("seed {seed}, site {site}, {} pinned", pinned.len());
                        assert_agree(&ev, &reference, got, want, &at);
                        let mut rest: Vec<Var> = vars
                            .iter()
                            .copied()
                            .filter(|v| !pinned.contains(v))
                            .collect();
                        for i in (1..rest.len()).rev() {
                            rest.swap(i, next() % (i + 1));
                        }
                        let mut last = None;
                        for (b, batch) in rest.chunks(rest.len() / 3 + 1).enumerate() {
                            let batch: Vec<Var> = batch.iter().copied().chain(last).collect();
                            let got = ev.apply_virtual_falsifications(&batch);
                            let want = reference.apply(&batch);
                            cascaded += got.len();
                            assert_agree(&ev, &reference, got, want, &format!("{at}, batch {b}"));
                            last = batch.first().copied();
                        }
                    }
                }
            }
        }
        assert!(
            retired > 0 && appended > 0 && cascaded > 0,
            "{retired} retired, {appended} appended, {cascaded} in-nodes falsified"
        );
    }

    #[test]
    fn construction_charges_tally_seeding_exactly() {
        // |Vi ∪ Fi.O| label bits, nq row copies, one label test per
        // local node, |succ| + |E_l| per node whose label l some query
        // edge starts from, one dead check per source pair, one
        // predecessor visit per (falsified pair, parent edge,
        // predecessor).
        let w = fig1();
        let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
        let q = Arc::new(w.pattern.clone());
        let nq = q.node_count();
        for site in 0..3 {
            let f = frag.fragment(site);
            let (mut ev, _) = LocalEval::new(Arc::clone(&frag), site, Arc::clone(&q));
            let mut want = f.n_total() + nq * ev.state.cand.words_per_row();
            for idx in f.local_indices() {
                want += 1;
                let sources = q
                    .nodes()
                    .filter(|&u| !q.is_sink(u) && q.label(u) == f.label(idx));
                let sources: Vec<QNodeId> = sources.collect();
                if !sources.is_empty() {
                    want += f.successors(idx).len();
                }
                want += sources
                    .iter()
                    .map(|&u| q.children(u).len() + 1)
                    .sum::<usize>();
            }
            for u in q.nodes() {
                for idx in f.local_indices().filter(|&i| f.label(i) == q.label(u)) {
                    if !ev.is_candidate(u.0, idx) {
                        want += q.parents(u).len() * f.predecessors(idx).len();
                    }
                }
            }
            assert_eq!(ev.take_ops(), want as u64, "site {site}");
        }
    }

    #[test]
    fn retired_virtual_slots_are_not_unevaluated() {
        // Delete the only crossing edge into a virtual node of F1: the
        // slot keeps its index and its label-candidate bits, but it is
        // no longer in Fi.O and must leave |Fi.O'|.
        use dgs_partition::EdgeOp;
        let w = fig1();
        let mut frag = Fragmentation::build(&w.graph, &w.assignment, 3);
        let q = Arc::new(w.pattern.clone());
        let before = LocalEval::new(Arc::new(frag.clone()), 0, Arc::clone(&q)).0;
        let f = frag.fragment(0);
        let v = f
            .virtual_indices()
            .find(|&v| f.predecessors(v).len() == 1)
            .expect("a virtual node with one crossing edge");
        let vars = (0..q.node_count() as u16)
            .filter(|&u| before.is_candidate(u, v))
            .count();
        assert!(vars > 0, "label-matching virtual node");
        let (p, v) = (f.global_id(f.predecessors(v)[0]), f.global_id(v));
        frag.apply_delta(&[EdgeOp::Delete(p, v)]);
        let after = LocalEval::new(Arc::new(frag), 0, q).0;
        assert_eq!(
            after.unevaluated_virtuals(),
            before.unevaluated_virtuals() - vars
        );
    }

    #[test]
    fn local_match_lists_cover_local_nodes_only() {
        let (mut ev, _, w) = fig1_eval(2);
        let lists = ev.local_match_lists();
        assert_eq!(lists.len(), 4);
        let f = ev.fragmentation().fragment(2);
        for (_, l) in &lists {
            for &g in l {
                let idx = f.index_of(dgs_graph::NodeId(g)).unwrap();
                assert!(!f.is_virtual(idx));
            }
        }
        // yb3 matches YB at F3 even before any messages (all its
        // support is optimistic).
        let yb = w.qnode("YB").0;
        let yb3 = w.node("yb3").0;
        assert!(lists[yb as usize].1.contains(&yb3));
    }

    #[test]
    fn unevaluated_counts() {
        let (ev, _, _) = fig1_eval(0);
        // F1 virtuals: f2 (F matches), f4 (F), yf2 (YF) → 3 candidate
        // virtual vars; in-nodes yf1 (YF), sp1 (SP) → 2 candidates.
        assert_eq!(ev.unevaluated_virtuals(), 3);
        assert_eq!(ev.unevaluated_in_nodes(), 2);
        assert_eq!(ev.candidate_in_node_vars().len(), 2);
    }

    #[test]
    fn ops_are_charged_and_taken() {
        let (mut ev, _, _) = fig1_eval(0);
        let ops = ev.take_ops();
        assert!(ops > 0);
        assert_eq!(ev.take_ops(), 0);
        ev.charge(5);
        assert_eq!(ev.take_ops(), 5);
    }
}
