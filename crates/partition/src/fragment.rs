//! Fragments and fragmentations (§2.2 of the paper).
//!
//! [`Fragmentation::build`] turns a site assignment (`Vec<SiteId>`,
//! one site per node) into per-site [`Fragment`]s. Each fragment stores
//! a *compact local index space*: indices `0..n_local` are the local
//! nodes `Vi` (in ascending global-id order) and indices
//! `n_local..n_local + n_virtual` are the virtual nodes `Fi.O`. The
//! edge set `Ei` (local→local and crossing local→virtual edges) is
//! stored as sorted adjacency lists together with its reverse, which
//! is what the incremental falsification propagation of `lEval` walks.
//!
//! ## Dynamic updates
//!
//! A fragmentation is **mutable**: [`Fragmentation::apply_delta`]
//! absorbs a batch of edge insertions/deletions without
//! re-partitioning. Each op is routed to the fragment owning the
//! source node; when a cross-fragment edge appears the source site
//! gains (or revives) a virtual node and the target site records the
//! in-node subscription, and when the last crossing edge between a
//! site pair and node disappears the subscription is dropped and the
//! virtual node **retires**. Retired virtual slots keep their local
//! index (so per-site state built against the old index space stays
//! valid) but have no edges and no subscribers — they are inert until
//! a later insertion revives them.
//!
//! A fragment carries a label index ([`Fragment::label_row`],
//! [`Fragment::successor_labels`]; `label_index.rs`), which
//! [`Fragmentation::apply_delta`] keeps per edge op.
//!
//! ## Where a generation's bytes live
//!
//! A session keeps two fragmentations: the current generation and the
//! one it retired. It builds the next generation by replaying onto the
//! retired one the batch that retired it and then the new batch —
//! [`Fragmentation::apply_delta`] is deterministic, so that is the
//! current generation with the batch applied, slot for slot — and
//! clones the current one only when something else still holds the
//! retired one. A fragment is therefore laid out to be edited in place:
//! successors, predecessors and in-node subscribers are one
//! [`SpanLists`] each (`span_lists.rs`), and the label index's runs
//! follow the successors' pool. A list that outgrows its span moves to
//! the end of the pool and leaves the span dead;
//! [`Fragmentation::compact`] compacts a pool once dead spans and spare
//! room outnumber its items, the rule a clone applies, so a
//! fragmentation that only takes deltas stays as tight as a cloned one.
//! A clone is a dozen `memcpy`s per fragment whatever `|Vi|`, or a
//! compacting copy of a loose pool; the site assignment, which no delta
//! touches, is shared behind an `Arc`.

use crate::label_index::LabelIndex;
use crate::span_lists::SpanLists;
use dgs_graph::{Graph, GraphBuilder, Label, NodeId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Hasher of the global-id → local-index maps: one multiply per `u32`
/// node id, with the well-mixed high half folded onto the low bits
/// the table indexes by (so ids sharing their low bits — multiples of
/// 2¹⁶, say — still spread). Node ids are not attacker-chosen keys, so
/// SipHash buys nothing on the path every received variable takes.
#[derive(Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("node ids hash through write_u32");
    }
    fn write_u32(&mut self, id: u32) {
        let h = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap = HashMap<NodeId, u32, BuildHasherDefault<IdHasher>>;

/// A site identifier, `0..fragmentation.num_sites()`.
pub type SiteId = usize;

/// One edge-level update op, routed by [`Fragmentation::apply_delta`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeOp {
    /// Insert edge `(u, v)`; must not already exist.
    Insert(NodeId, NodeId),
    /// Delete edge `(u, v)`; must exist.
    Delete(NodeId, NodeId),
}

/// What one [`Fragmentation::apply_delta`] batch did to the
/// fragmentation structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FragDeltaStats {
    /// Edges inserted within one fragment.
    pub local_inserts: usize,
    /// Edges deleted within one fragment.
    pub local_deletes: usize,
    /// Crossing edges inserted.
    pub crossing_inserts: usize,
    /// Crossing edges deleted.
    pub crossing_deletes: usize,
    /// Virtual nodes created or revived at source sites.
    pub virtuals_created: usize,
    /// Virtual nodes retired (last crossing edge from their site
    /// disappeared).
    pub virtuals_retired: usize,
    /// In-node subscriptions added at target sites.
    pub subscriptions_added: usize,
    /// In-node subscriptions removed at target sites.
    pub subscriptions_removed: usize,
}

/// One fragment `Fi = (Vi ∪ Fi.O, Ei, Li)` materialized at a site.
#[derive(Debug, Default)]
pub struct Fragment {
    site: SiteId,
    n_local: usize,
    /// Global ids per local index (locals first, then virtuals); the
    /// local section is sorted by global id, the virtual section is
    /// append-ordered (sorted at build time, later slots appended by
    /// deltas).
    global_ids: Vec<NodeId>,
    /// Labels per local index.
    labels: Vec<Label>,
    /// `Ei` as sorted adjacency over local indices; only local nodes
    /// have out-edges.
    out_adj: SpanLists<u32>,
    /// Reverse adjacency of `Ei`, defined for all local indices.
    in_adj: SpanLists<u32>,
    /// Number of edges in `Ei`.
    n_edges: usize,
    /// Local indices of the in-nodes `Fi.I`, sorted.
    in_nodes: Vec<u32>,
    /// For each in-node (aligned with `in_nodes`): the sites holding it
    /// as a virtual node, i.e. the sites to notify when one of its
    /// Boolean variables is falsified (the annotation `A_d(·)` of the
    /// local dependency graph, §4.1).
    in_node_subscribers: SpanLists<SiteId>,
    /// Owner site of each virtual node (aligned with the virtual
    /// section of `global_ids`).
    virtual_owners: Vec<SiteId>,
    /// Global id → local index.
    index_of: IdMap,
    /// The label index over `labels` and `out_adj`.
    index: LabelIndex,
}

impl Clone for Fragment {
    /// Field by field; the label runs follow the successor lists, whose
    /// copy compacts a loose pool.
    fn clone(&self) -> Self {
        let mut index = self.index.clone();
        if self.out_adj.is_loose() {
            index.compact_along(&self.out_adj);
        }
        Fragment {
            index,
            out_adj: self.out_adj.clone(),
            in_adj: self.in_adj.clone(),
            in_node_subscribers: self.in_node_subscribers.clone(),
            global_ids: self.global_ids.clone(),
            labels: self.labels.clone(),
            in_nodes: self.in_nodes.clone(),
            virtual_owners: self.virtual_owners.clone(),
            index_of: self.index_of.clone(),
            ..*self
        }
    }
}

impl Fragment {
    /// The site this fragment resides at.
    #[inline]
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// `|Vi|`: number of local nodes.
    #[inline]
    pub fn n_local(&self) -> usize {
        self.n_local
    }

    /// Number of virtual slots (live **and** retired; a fragmentation
    /// that never saw a delta has no retired slots). See
    /// [`Self::live_virtuals`] for `|Fi.O|` after updates.
    #[inline]
    pub fn n_virtual(&self) -> usize {
        self.global_ids.len() - self.n_local
    }

    /// Total local index space size (`|Vi| + virtual slots`).
    #[inline]
    pub fn n_total(&self) -> usize {
        self.global_ids.len()
    }

    /// Number of edges in `Ei`.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// The paper's fragment size `|Fi| = |Vi ∪ Fi.O| + |Ei|`.
    #[inline]
    pub fn size(&self) -> usize {
        self.n_total() + self.n_edges()
    }

    /// True iff local index `idx` refers to a virtual node (live or
    /// retired).
    #[inline]
    pub fn is_virtual(&self, idx: u32) -> bool {
        (idx as usize) >= self.n_local
    }

    /// True iff `idx` is a virtual slot that currently has a crossing
    /// edge from this fragment (i.e. is genuinely in `Fi.O`).
    #[inline]
    pub fn is_live_virtual(&self, idx: u32) -> bool {
        self.is_virtual(idx) && !self.in_adj.of(idx as usize).is_empty()
    }

    /// `|Fi.O|` under dynamic updates: virtual slots that still carry
    /// at least one crossing edge.
    pub fn live_virtuals(&self) -> usize {
        self.virtual_indices()
            .filter(|&i| self.is_live_virtual(i))
            .count()
    }

    /// Global node id of local index `idx`.
    #[inline]
    pub fn global_id(&self, idx: u32) -> NodeId {
        self.global_ids[idx as usize]
    }

    /// Label of local index `idx`.
    #[inline]
    pub fn label(&self, idx: u32) -> Label {
        self.labels[idx as usize]
    }

    /// The slots carrying label `l`, as a bit row of
    /// `n_total().div_ceil(64)` words (bit `idx % 64` of word
    /// `idx / 64`) — a `MatchSet` row over this fragment, retired
    /// virtual slots included; `None` when no slot's label is `l` or
    /// above.
    #[inline]
    pub fn label_row(&self, l: Label) -> Option<&[u64]> {
        self.index.row(l)
    }

    /// The labels of local node `idx`'s successors as `(label, count)`
    /// runs, ascending by label, followed by zero counts: one entry
    /// per successor in all. The counts of one label sum to its
    /// successors carrying it (more than one run only past
    /// `u16::MAX`).
    #[inline]
    pub fn successor_labels(&self, idx: u32) -> &[(Label, u16)] {
        self.index.runs(&self.out_adj, idx)
    }

    /// Local index of a global node, if present in this fragment
    /// (as local or virtual).
    #[inline]
    pub fn index_of(&self, v: NodeId) -> Option<u32> {
        self.index_of.get(&v).copied()
    }

    /// Successors of `idx` within `Ei` (empty for virtual nodes),
    /// sorted by local index.
    #[inline]
    pub fn successors(&self, idx: u32) -> &[u32] {
        self.out_adj.of(idx as usize)
    }

    /// Predecessors of `idx` within `Ei` (always local nodes), sorted
    /// by local index.
    #[inline]
    pub fn predecessors(&self, idx: u32) -> &[u32] {
        self.in_adj.of(idx as usize)
    }

    /// Local indices of the in-nodes `Fi.I`.
    #[inline]
    pub fn in_nodes(&self) -> &[u32] {
        &self.in_nodes
    }

    /// Sites that hold in-node `in_nodes()[pos]` as a virtual node.
    #[inline]
    pub fn in_node_subscribers(&self, pos: usize) -> &[SiteId] {
        self.in_node_subscribers.of(pos)
    }

    /// Position of `idx` within `in_nodes()`, if it is an in-node.
    #[inline]
    pub fn in_node_pos(&self, idx: u32) -> Option<usize> {
        self.in_nodes.binary_search(&idx).ok()
    }

    /// Owner site of the virtual node at local index `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is not a virtual index.
    #[inline]
    pub fn virtual_owner(&self, idx: u32) -> SiteId {
        assert!(self.is_virtual(idx), "{idx} is not a virtual index");
        self.virtual_owners[idx as usize - self.n_local]
    }

    /// Iterates the local indices of all virtual slots (live and
    /// retired).
    pub fn virtual_indices(&self) -> impl Iterator<Item = u32> + '_ {
        (self.n_local as u32)..(self.n_total() as u32)
    }

    /// Iterates the local indices of all local nodes.
    pub fn local_indices(&self) -> impl Iterator<Item = u32> + '_ {
        0..(self.n_local as u32)
    }

    /// Inserts `(ui, vi)` into the sorted adjacency and counts `vi`'s
    /// label in `ui`'s runs.
    ///
    /// # Panics
    /// Panics if the edge is already present.
    fn insert_pair(&mut self, ui: u32, vi: u32) {
        let l = self.labels[vi as usize];
        assert!(
            self.index.insert(&mut self.out_adj, ui, vi, l),
            "edge to insert already present in fragment"
        );
        assert!(
            self.in_adj.insert(vi as usize, ui),
            "reverse edge already present"
        );
        self.n_edges += 1;
    }

    /// Removes `(ui, vi)` from the sorted adjacency and uncounts `vi`'s
    /// label from `ui`'s runs.
    ///
    /// # Panics
    /// Panics if the edge is absent.
    fn remove_pair(&mut self, ui: u32, vi: u32) {
        let l = self.labels[vi as usize];
        assert!(
            self.index.remove(&mut self.out_adj, ui, vi, l),
            "edge to delete missing from fragment"
        );
        assert!(self.in_adj.remove(vi as usize, ui), "reverse edge missing");
        self.n_edges -= 1;
    }

    /// Looks up or appends the virtual slot for `v`; returns its index.
    fn ensure_virtual(&mut self, v: NodeId, label: Label, owner: SiteId) -> u32 {
        if let Some(&idx) = self.index_of.get(&v) {
            debug_assert!(self.is_virtual(idx), "crossing target must be foreign");
            return idx;
        }
        let idx = self.global_ids.len() as u32;
        self.global_ids.push(v);
        self.labels.push(label);
        self.virtual_owners.push(owner);
        self.out_adj.push_list([]);
        self.in_adj.push_list([]);
        self.index_of.insert(v, idx);
        self.index.push_slot(idx, label);
        idx
    }

    /// Registers `subscriber` for in-node `idx` (creating the in-node
    /// entry if needed). Returns `true` if the subscription was new.
    fn add_subscriber(&mut self, idx: u32, subscriber: SiteId) -> bool {
        match self.in_nodes.binary_search(&idx) {
            Ok(pos) => self.in_node_subscribers.insert(pos, subscriber),
            Err(pos) => {
                self.in_nodes.insert(pos, idx);
                self.in_node_subscribers.insert_list(pos, [subscriber]);
                true
            }
        }
    }

    /// Drops `subscriber` from in-node `idx`, removing the in-node
    /// entry when its last subscriber goes. Returns `true` if the
    /// subscription existed.
    fn remove_subscriber(&mut self, idx: u32, subscriber: SiteId) -> bool {
        let Ok(pos) = self.in_nodes.binary_search(&idx) else {
            return false;
        };
        if !self.in_node_subscribers.remove(pos, subscriber) {
            return false;
        }
        if self.in_node_subscribers.of(pos).is_empty() {
            self.in_nodes.remove(pos);
            self.in_node_subscribers.remove_list(pos);
        }
        true
    }

    /// Compacts each pool that dead spans and spare room have made
    /// loose, by [`SpanLists::compact`]'s rule; the label runs move
    /// with the successor lists. No slot moves.
    fn compact(&mut self) {
        if self.out_adj.is_loose() {
            self.index.compact_along(&self.out_adj);
        }
        self.out_adj.compact();
        self.in_adj.compact();
        self.in_node_subscribers.compact();
    }
}

/// A fragmentation `F = (F1, ..., Fn)` of a graph, plus the global
/// quantities the paper's bounds are stated in (`|Vf|`, `|Ef|`,
/// `|Fm|`).
#[derive(Clone, Debug, Default)]
pub struct Fragmentation {
    num_sites: usize,
    /// One site per global node; shared by a session's generations.
    assignment: Arc<[SiteId]>,
    fragments: Vec<Fragment>,
    /// Incoming-crossing-edge count per global node (`> 0` ⇔ the node
    /// is a virtual node of some fragment).
    crossing_in: Vec<u32>,
    vf: usize,
    ef: usize,
}

impl Fragmentation {
    /// Builds the fragmentation of `graph` induced by `assignment`
    /// (site per node). Sites are `0..num_sites`; `num_sites` must be
    /// at least `max(assignment) + 1` and empty sites are allowed.
    ///
    /// # Panics
    /// Panics if `assignment.len() != graph.node_count()` or a site id
    /// is out of range.
    pub fn build(graph: &Graph, assignment: &[SiteId], num_sites: usize) -> Self {
        assert_eq!(
            assignment.len(),
            graph.node_count(),
            "assignment must cover every node"
        );
        assert!(
            assignment.iter().all(|&s| s < num_sites),
            "site id out of range"
        );
        let n = graph.node_count();

        // Local nodes per site (ascending global order) and each node's
        // local index.
        let mut locals: Vec<Vec<NodeId>> = vec![Vec::new(); num_sites];
        let mut local_idx = vec![0u32; n];
        for v in graph.nodes() {
            let s = assignment[v.index()];
            local_idx[v.index()] = locals[s].len() as u32;
            locals[s].push(v);
        }

        // Virtual node sets, crossing-edge count and, per owner site,
        // the `(in-node local index, subscribing site)` pairs.
        let mut virtuals: Vec<Vec<NodeId>> = vec![Vec::new(); num_sites];
        let mut in_subs: Vec<Vec<(u32, SiteId)>> = vec![Vec::new(); num_sites];
        let mut crossing_in = vec![0u32; n];
        let mut ef = 0usize;
        for (u, v) in graph.edges() {
            let su = assignment[u.index()];
            let sv = assignment[v.index()];
            if su != sv {
                ef += 1;
                crossing_in[v.index()] += 1;
                virtuals[su].push(v);
                in_subs[sv].push((local_idx[v.index()], su));
            }
        }
        for vs in &mut virtuals {
            vs.sort_unstable();
            vs.dedup();
        }

        // |Vf| = distinct nodes that are a virtual node of some
        // fragment (equivalently: have an incoming crossing edge).
        let vf = crossing_in.iter().filter(|&&c| c > 0).count();

        let mut fragments = Vec::with_capacity(num_sites);
        for site in 0..num_sites {
            let n_local = locals[site].len();
            let mut global_ids: Vec<NodeId> = Vec::with_capacity(n_local + virtuals[site].len());
            global_ids.extend_from_slice(&locals[site]);
            global_ids.extend_from_slice(&virtuals[site]);
            let labels: Vec<Label> = global_ids.iter().map(|&v| graph.label(v)).collect();
            let mut index_of =
                IdMap::with_capacity_and_hasher(global_ids.len(), Default::default());
            for (i, &v) in global_ids.iter().enumerate() {
                index_of.insert(v, i as u32);
            }
            let virtual_owners: Vec<SiteId> = virtuals[site]
                .iter()
                .map(|&v| assignment[v.index()])
                .collect();

            // Ei, forward: one list per local node in index order,
            // straight into the pool (virtual slots have no out-edges).
            let n_total = global_ids.len();
            let n_edges = locals[site].iter().map(|&v| graph.out_degree(v)).sum();
            let mut out_adj = SpanLists::with_capacity(n_total, n_edges);
            for &v in &locals[site] {
                out_adj.push_list(graph.successors(v).iter().map(|w| {
                    if assignment[w.index()] == site {
                        local_idx[w.index()]
                    } else {
                        index_of[w]
                    }
                }));
            }
            out_adj.grow_to(n_total);
            let in_adj = out_adj.transpose(n_total);
            let index = LabelIndex::build(&labels, &out_adj);

            // In-nodes and their subscribers, both ascending.
            let subs = &mut in_subs[site];
            subs.sort_unstable();
            subs.dedup();
            let mut in_nodes = Vec::new();
            let mut in_node_subscribers = SpanLists::default();
            for of_node in subs.chunk_by(|a, b| a.0 == b.0) {
                in_nodes.push(of_node[0].0);
                in_node_subscribers.push_list(of_node.iter().map(|&(_, s)| s));
            }

            fragments.push(Fragment {
                site,
                n_local,
                global_ids,
                labels,
                out_adj,
                in_adj,
                n_edges,
                in_nodes,
                in_node_subscribers,
                virtual_owners,
                index_of,
                index,
            });
        }

        Fragmentation {
            num_sites,
            assignment: assignment.into(),
            fragments,
            crossing_in,
            vf,
            ef,
        }
    }

    /// A copy of every fragment's predecessor lists, by site: what
    /// incremental maintenance takes once per session and then keeps
    /// current itself.
    pub fn reverse_adjacency(&self) -> Vec<SpanLists<u32>> {
        self.fragments.iter().map(|f| f.in_adj.clone()).collect()
    }

    /// The fragmented graph itself: every edge lives in the fragment
    /// owning its source. Local nodes ascend with their global ids, so
    /// one cursor per site walks them in step with the assignment.
    pub fn to_graph(&self) -> Graph {
        let edges = self.fragments.iter().map(Fragment::n_edges).sum();
        let mut b = GraphBuilder::with_capacity(self.assignment.len(), edges);
        let mut next_local = vec![0u32; self.num_sites];
        for &site in self.assignment.iter() {
            let f = &self.fragments[site];
            let ui = next_local[site];
            next_local[site] += 1;
            let u = b.add_node(f.label(ui));
            for &t in f.successors(ui) {
                b.add_edge(u, f.global_id(t));
            }
        }
        b.build()
    }

    /// Absorbs a batch of edge ops **without re-partitioning**: each op
    /// routes to the fragment owning its source node; crossing-edge
    /// changes create/revive or retire virtual nodes at the source site
    /// and add/drop in-node subscriptions at the target site, and the
    /// global `|Vf|`/`|Ef|` counters are maintained incrementally.
    ///
    /// The node set (and therefore the site assignment and every local
    /// index) is unchanged; retired virtual slots keep their index and
    /// are revived in place if a crossing edge reappears.
    ///
    /// # Panics
    /// Panics if an op references a node outside the assignment,
    /// inserts an edge that already exists, or deletes one that does
    /// not — callers (e.g. `SimEngine::apply_delta`) filter no-ops
    /// first.
    pub fn apply_delta(&mut self, ops: &[EdgeOp]) -> FragDeltaStats {
        let mut stats = FragDeltaStats::default();
        for &op in ops {
            match op {
                EdgeOp::Insert(u, v) => self.insert_edge(u, v, &mut stats),
                EdgeOp::Delete(u, v) => self.delete_edge(u, v, &mut stats),
            }
        }
        stats
    }

    /// Compacts every fragment's pools that deltas have left more
    /// than twice their items, in place and by the rule a clone
    /// applies, so a fragmentation that only ever takes deltas stays
    /// as tight as a copied one. Every local index stays where it is.
    pub fn compact(&mut self) {
        for f in &mut self.fragments {
            f.compact();
        }
    }

    fn endpoints(&self, u: NodeId, v: NodeId) -> (SiteId, SiteId) {
        assert!(
            u.index() < self.assignment.len() && v.index() < self.assignment.len(),
            "edge ({u:?}, {v:?}) outside the fragmented node set"
        );
        (self.assignment[u.index()], self.assignment[v.index()])
    }

    fn insert_edge(&mut self, u: NodeId, v: NodeId, stats: &mut FragDeltaStats) {
        let (su, sv) = self.endpoints(u, v);
        if su == sv {
            let f = &mut self.fragments[su];
            let ui = f.index_of[&u];
            let vi = f.index_of[&v];
            f.insert_pair(ui, vi);
            stats.local_inserts += 1;
            return;
        }
        let label = {
            let fv = &self.fragments[sv];
            fv.labels[fv.index_of[&v] as usize]
        };
        let f = &mut self.fragments[su];
        let vi = f.ensure_virtual(v, label, sv);
        let revived = f.predecessors(vi).is_empty();
        let ui = f.index_of[&u];
        f.insert_pair(ui, vi);
        if revived {
            stats.virtuals_created += 1;
            // First crossing edge from su into v: su subscribes to v's
            // falsifications at the owner site.
            let fv = &mut self.fragments[sv];
            let v_local = fv.index_of[&v];
            if fv.add_subscriber(v_local, su) {
                stats.subscriptions_added += 1;
            }
        }
        self.ef += 1;
        self.crossing_in[v.index()] += 1;
        if self.crossing_in[v.index()] == 1 {
            self.vf += 1;
        }
        stats.crossing_inserts += 1;
    }

    fn delete_edge(&mut self, u: NodeId, v: NodeId, stats: &mut FragDeltaStats) {
        let (su, sv) = self.endpoints(u, v);
        if su == sv {
            let f = &mut self.fragments[su];
            let ui = f.index_of[&u];
            let vi = f.index_of[&v];
            f.remove_pair(ui, vi);
            stats.local_deletes += 1;
            return;
        }
        let f = &mut self.fragments[su];
        let ui = f.index_of[&u];
        let vi = f.index_of[&v];
        f.remove_pair(ui, vi);
        let retired = f.predecessors(vi).is_empty();
        if retired {
            stats.virtuals_retired += 1;
            let fv = &mut self.fragments[sv];
            let v_local = fv.index_of[&v];
            if fv.remove_subscriber(v_local, su) {
                stats.subscriptions_removed += 1;
            }
        }
        self.ef -= 1;
        self.crossing_in[v.index()] -= 1;
        if self.crossing_in[v.index()] == 0 {
            self.vf -= 1;
        }
        stats.crossing_deletes += 1;
    }

    /// Number of sites `|F|`.
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// The fragment at `site`.
    #[inline]
    pub fn fragment(&self, site: SiteId) -> &Fragment {
        &self.fragments[site]
    }

    /// All fragments, indexed by site.
    #[inline]
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// Owner site of a global node.
    #[inline]
    pub fn owner(&self, v: NodeId) -> SiteId {
        self.assignment[v.index()]
    }

    /// True iff edge `(u, v)` exists in the fragmented graph (it lives
    /// in the fragment owning `u`). `O(log deg)` — what lets a dynamic
    /// session validate delta ops without materializing the graph.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let f = &self.fragments[self.owner(u)];
        let (Some(ui), Some(vi)) = (f.index_of(u), f.index_of(v)) else {
            return false;
        };
        f.successors(ui).binary_search(&vi).is_ok()
    }

    /// The site assignment (one site per global node).
    #[inline]
    pub fn assignment(&self) -> &[SiteId] {
        &self.assignment
    }

    /// `|Vf|`: number of distinct virtual nodes across all fragments.
    #[inline]
    pub fn vf(&self) -> usize {
        self.vf
    }

    /// `|Ef|`: number of crossing edges.
    #[inline]
    pub fn ef(&self) -> usize {
        self.ef
    }

    /// The largest fragment size `|Fm|` (nodes + edges).
    pub fn fm_size(&self) -> usize {
        self.fragments.iter().map(Fragment::size).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::generate::social::fig1;
    use dgs_graph::GraphBuilder;

    fn two_site_line() -> (Graph, Fragmentation) {
        // 0 -> 1 -> 2 -> 3 with sites [0, 0, 1, 1].
        let mut b = GraphBuilder::new();
        b.add_nodes(4, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(3));
        let g = b.build();
        let f = Fragmentation::build(&g, &[0, 0, 1, 1], 2);
        (g, f)
    }

    #[test]
    fn local_and_virtual_partitions() {
        let (_, f) = two_site_line();
        let f0 = f.fragment(0);
        assert_eq!(f0.n_local(), 2);
        assert_eq!(f0.n_virtual(), 1); // node 2 is virtual at site 0
        assert_eq!(f0.global_id(2), NodeId(2));
        assert!(f0.is_virtual(2));
        assert!(f0.is_live_virtual(2));
        assert_eq!(f0.virtual_owner(2), 1);

        let f1 = f.fragment(1);
        assert_eq!(f1.n_local(), 2);
        assert_eq!(f1.n_virtual(), 0);
        assert_eq!(f1.in_nodes().len(), 1);
        assert_eq!(f1.global_id(f1.in_nodes()[0]), NodeId(2));
        assert_eq!(f1.in_node_subscribers(0), &[0]);
    }

    #[test]
    fn vf_ef_counts() {
        let (_, f) = two_site_line();
        assert_eq!(f.ef(), 1);
        assert_eq!(f.vf(), 1);
        assert_eq!(f.owner(NodeId(2)), 1);
    }

    #[test]
    fn fragment_edges_cover_local_and_crossing() {
        let (_, f) = two_site_line();
        let f0 = f.fragment(0);
        // Edges at site 0: (0,1) local and (1,2) crossing.
        assert_eq!(f0.n_edges(), 2);
        assert_eq!(f0.successors(0), &[1]);
        assert_eq!(f0.successors(1), &[2]); // virtual index
        assert_eq!(f0.successors(2), &[] as &[u32]); // virtual: no out-edges
        assert_eq!(f0.predecessors(2), &[1]);
    }

    #[test]
    fn fig1_fragmentation_matches_paper() {
        let w = fig1();
        let f = Fragmentation::build(&w.graph, &w.assignment, 3);
        // Example 4: F1.O = {f4, f2, yf2}, F1.I = {sp1, yf1}.
        let f1 = f.fragment(0);
        let virt_names: Vec<&str> = f1
            .virtual_indices()
            .map(|i| w.node_names[f1.global_id(i).index()])
            .collect();
        let mut virt_sorted = virt_names.clone();
        virt_sorted.sort_unstable();
        assert_eq!(virt_sorted, vec!["f2", "f4", "yf2"]);
        let in_names: Vec<&str> = f1
            .in_nodes()
            .iter()
            .map(|&i| w.node_names[f1.global_id(i).index()])
            .collect();
        let mut in_sorted = in_names;
        in_sorted.sort_unstable();
        assert_eq!(in_sorted, vec!["sp1", "yf1"]);

        // Example 5: G3d has (S1,S3) annotated {f4} and (S2,S3)
        // annotated {sp3, yf3}: i.e. at site 2, in-node f4 has
        // subscriber S1=0, and sp3/yf3 have subscriber S2=1.
        let f3 = f.fragment(2);
        for (pos, &idx) in f3.in_nodes().iter().enumerate() {
            let name = w.node_names[f3.global_id(idx).index()];
            let subs = f3.in_node_subscribers(pos);
            match name {
                "f4" => assert_eq!(subs, &[0]),
                "sp3" | "yf3" => assert_eq!(subs, &[1]),
                other => panic!("unexpected in-node {other}"),
            }
        }
    }

    #[test]
    fn empty_site_allowed() {
        let mut b = GraphBuilder::new();
        b.add_nodes(2, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        let f = Fragmentation::build(&g, &[0, 0], 3);
        assert_eq!(f.num_sites(), 3);
        assert_eq!(f.fragment(1).n_total(), 0);
        assert_eq!(f.fragment(2).n_total(), 0);
        assert_eq!(f.ef(), 0);
    }

    #[test]
    fn index_of_roundtrip() {
        let (_, f) = two_site_line();
        let f0 = f.fragment(0);
        for idx in 0..f0.n_total() as u32 {
            assert_eq!(f0.index_of(f0.global_id(idx)), Some(idx));
        }
        assert_eq!(f0.index_of(NodeId(3)), None);
    }

    /// Id sets a bare `id * K` would pile into a few buckets: the
    /// table indexes by the *low* bits of the hash, and the low bits of
    /// a product depend only on the low bits of the id.
    fn adversarial_id_sets() -> [Vec<u32>; 3] {
        [
            (0..1u32 << 16).map(|i| i << 16).collect(), // multiples of 2^16
            (1_000_000..1_000_000 + (1u32 << 16)).collect(), // one dense run
            (0..1u32 << 16).map(|i| u32::MAX - 3 * i).collect(), // near u32::MAX
        ]
    }

    #[test]
    fn id_hasher_spreads_adversarial_id_sets() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        for ids in adversarial_id_sets() {
            // 2^16 keys into 2^16 buckets: a random function leaves
            // 1 - 1/e = 63 % of the buckets hit; so must this one,
            // on the low bits (bucket) and on the top 7 (control byte).
            let mut buckets = vec![false; 1 << 16];
            let mut tags = [0usize; 128];
            for &id in &ids {
                let h = build.hash_one(NodeId(id));
                buckets[(h & 0xFFFF) as usize] = true;
                tags[(h >> 57) as usize] += 1;
            }
            let hit = buckets.iter().filter(|&&b| b).count();
            assert!(hit > ids.len() / 2, "{hit} of 65536 buckets hit");
            let (lo, hi) = (tags.iter().min().unwrap(), tags.iter().max().unwrap());
            assert!(*lo > 256 && *hi < 1024, "tag counts {lo}..{hi}, mean 512");
        }
    }

    #[test]
    fn id_map_roundtrips_adversarial_id_sets() {
        for ids in adversarial_id_sets() {
            let mut map = IdMap::default();
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(map.insert(NodeId(id), i as u32), None);
            }
            for (i, &id) in ids.iter().enumerate() {
                assert_eq!(map.get(&NodeId(id)), Some(&(i as u32)));
            }
            assert_eq!(map.get(&NodeId(999_999)), None, "in none of the sets");
        }
    }

    #[test]
    fn index_of_roundtrips_on_skewed_id_sets_across_deltas() {
        // Site 1 owns the multiples of 2^12, site 2 the top 64 ids,
        // site 0 the dense rest; crossing edges make each set virtual
        // somewhere, and deltas retire, revive and append slots.
        let n: u32 = (1 << 16) + 64;
        let stride = 1 << 12;
        let assignment: Vec<SiteId> = (0..n)
            .map(|v| match v {
                v if v >= n - 64 => 2,
                v if v % stride == 0 => 1,
                _ => 0,
            })
            .collect();
        let mut b = GraphBuilder::new();
        b.add_nodes(n as usize, Label(0));
        for i in 0..16 {
            b.add_edge(NodeId(i * stride), NodeId(i * stride + 1)); // 1 -> 0
            b.add_edge(NodeId(i * stride + 2), NodeId(n - 1 - i)); // 0 -> 2
            b.add_edge(NodeId(n - 1 - i), NodeId(i * stride)); // 2 -> 1
        }
        let mut frag = Fragmentation::build(&b.build(), &assignment, 3);
        let roundtrips = |frag: &Fragmentation| {
            for f in frag.fragments() {
                for idx in 0..f.n_total() as u32 {
                    assert_eq!(f.index_of(f.global_id(idx)), Some(idx));
                }
            }
            assert_eq!(frag.fragment(1).index_of(NodeId(5)), None);
        };
        roundtrips(&frag);
        let before: usize = frag.fragments().iter().map(Fragment::n_total).sum();
        let mut ops = Vec::new();
        for i in 0..16 {
            ops.push(EdgeOp::Delete(NodeId(n - 1 - i), NodeId(i * stride))); // retire
            ops.push(EdgeOp::Insert(NodeId(i * stride), NodeId(n - 33 - i))); // append
        }
        frag.apply_delta(&ops);
        roundtrips(&frag);
        let after: usize = frag.fragments().iter().map(Fragment::n_total).sum();
        assert_eq!(after, before + 16, "sixteen appended virtual slots");
        // Revive the retired slots in place.
        let revive: Vec<EdgeOp> = (0..16)
            .map(|i| EdgeOp::Insert(NodeId(n - 1 - i), NodeId(i * stride)))
            .collect();
        frag.apply_delta(&revive);
        roundtrips(&frag);
        assert_eq!(
            frag.fragments()
                .iter()
                .map(Fragment::n_total)
                .sum::<usize>(),
            after
        );
    }

    #[test]
    fn to_graph_inverts_build_across_deltas() {
        let w = fig1();
        let mut f = Fragmentation::build(&w.graph, &w.assignment, 3);
        assert!(f.to_graph() == w.graph);
        let (u, v) = w.graph.edges().next().unwrap();
        f.apply_delta(&[EdgeOp::Delete(u, v), EdgeOp::Insert(v, u)]);
        let g = f.to_graph();
        assert!(!g.has_edge(u, v) && g.has_edge(v, u));
        assert_eq!(g.edge_count(), w.graph.edge_count());
        assert_eq!(g.labels(), w.graph.labels());
    }

    #[test]
    fn fm_size_is_largest() {
        let (_, f) = two_site_line();
        // site 0: 3 nodes (2 local + 1 virtual) + 2 edges = 5
        // site 1: 2 nodes + 1 edge = 3
        assert_eq!(f.fm_size(), 5);
    }

    #[test]
    #[should_panic(expected = "assignment must cover")]
    fn wrong_assignment_length_panics() {
        let (g, _) = two_site_line();
        let _ = Fragmentation::build(&g, &[0, 0, 1], 2);
    }

    #[test]
    #[should_panic(expected = "site id out of range")]
    fn out_of_range_site_panics() {
        let (g, _) = two_site_line();
        let _ = Fragmentation::build(&g, &[0, 0, 1, 5], 2);
    }

    #[test]
    fn crossing_edges_per_fragment_in_example4() {
        let w = fig1();
        let f = Fragmentation::build(&w.graph, &w.assignment, 3);
        // F1's crossing edges: (f1,f4), (yf1,f2), (sp1,yf2), (sp1,f2).
        let f1 = f.fragment(0);
        let mut crossing: Vec<(String, String)> = Vec::new();
        for u in f1.local_indices() {
            for &t in f1.successors(u) {
                if f1.is_virtual(t) {
                    crossing.push((
                        w.node_names[f1.global_id(u).index()].to_owned(),
                        w.node_names[f1.global_id(t).index()].to_owned(),
                    ));
                }
            }
        }
        crossing.sort();
        assert_eq!(
            crossing,
            vec![
                ("f1".to_owned(), "f4".to_owned()),
                ("sp1".to_owned(), "f2".to_owned()),
                ("sp1".to_owned(), "yf2".to_owned()),
                ("yf1".to_owned(), "f2".to_owned()),
            ]
        );
    }

    #[test]
    fn delta_deletes_crossing_edge_and_retires_virtual() {
        let (_, mut f) = two_site_line();
        let stats = f.apply_delta(&[EdgeOp::Delete(NodeId(1), NodeId(2))]);
        assert_eq!(stats.crossing_deletes, 1);
        assert_eq!(stats.virtuals_retired, 1);
        assert_eq!(stats.subscriptions_removed, 1);
        assert_eq!(f.ef(), 0);
        assert_eq!(f.vf(), 0);
        let f0 = f.fragment(0);
        // The slot survives, inert.
        assert_eq!(f0.n_virtual(), 1);
        assert_eq!(f0.live_virtuals(), 0);
        assert!(!f0.is_live_virtual(2));
        assert_eq!(f0.predecessors(2), &[] as &[u32]);
        // The subscription at site 1 is gone.
        assert!(f.fragment(1).in_nodes().is_empty());
    }

    #[test]
    fn delta_reinsert_revives_virtual_in_place() {
        let (_, mut f) = two_site_line();
        f.apply_delta(&[EdgeOp::Delete(NodeId(1), NodeId(2))]);
        let stats = f.apply_delta(&[EdgeOp::Insert(NodeId(0), NodeId(2))]);
        assert_eq!(stats.crossing_inserts, 1);
        assert_eq!(stats.virtuals_created, 1);
        assert_eq!(stats.subscriptions_added, 1);
        let f0 = f.fragment(0);
        // Same slot, revived — no index shift.
        assert_eq!(f0.n_virtual(), 1);
        assert_eq!(f0.index_of(NodeId(2)), Some(2));
        assert!(f0.is_live_virtual(2));
        assert_eq!(f0.predecessors(2), &[0]);
        assert_eq!(f.ef(), 1);
        assert_eq!(f.vf(), 1);
        let f1 = f.fragment(1);
        assert_eq!(f1.in_nodes().len(), 1);
        assert_eq!(f1.in_node_subscribers(0), &[0]);
    }

    #[test]
    fn delta_creates_new_virtual_node() {
        let (_, mut f) = two_site_line();
        // A crossing edge to a node site 0 has never seen: 0 -> 3.
        let stats = f.apply_delta(&[EdgeOp::Insert(NodeId(0), NodeId(3))]);
        assert_eq!(stats.virtuals_created, 1);
        let f0 = f.fragment(0);
        assert_eq!(f0.n_virtual(), 2);
        let idx = f0.index_of(NodeId(3)).unwrap();
        assert!(f0.is_live_virtual(idx));
        assert_eq!(f0.virtual_owner(idx), 1);
        assert_eq!(f0.label(idx), Label(0));
        assert_eq!(f.ef(), 2);
        assert_eq!(f.vf(), 2);
        // Site 1 now has two in-nodes (2 and 3), both subscribed by 0.
        let f1 = f.fragment(1);
        assert_eq!(f1.in_nodes().len(), 2);
        for pos in 0..2 {
            assert_eq!(f1.in_node_subscribers(pos), &[0]);
        }
    }

    #[test]
    fn delta_local_ops_do_not_touch_crossing_state() {
        let (_, mut f) = two_site_line();
        let stats = f.apply_delta(&[
            EdgeOp::Delete(NodeId(0), NodeId(1)),
            EdgeOp::Insert(NodeId(1), NodeId(0)),
        ]);
        assert_eq!(stats.local_deletes, 1);
        assert_eq!(stats.local_inserts, 1);
        assert_eq!(stats.crossing_inserts + stats.crossing_deletes, 0);
        assert_eq!(f.ef(), 1);
        let f0 = f.fragment(0);
        assert_eq!(f0.successors(0), &[] as &[u32]);
        assert_eq!(f0.successors(1), &[0, 2]);
    }

    #[test]
    fn subscription_persists_while_other_crossing_edge_remains() {
        let (_, mut f) = two_site_line();
        // Second crossing edge into node 2 from site 0.
        f.apply_delta(&[EdgeOp::Insert(NodeId(0), NodeId(2))]);
        // Deleting one of the two keeps the subscription and the
        // virtual node alive.
        let stats = f.apply_delta(&[EdgeOp::Delete(NodeId(1), NodeId(2))]);
        assert_eq!(stats.virtuals_retired, 0);
        assert_eq!(stats.subscriptions_removed, 0);
        assert!(f.fragment(0).is_live_virtual(2));
        assert_eq!(f.fragment(1).in_nodes().len(), 1);
        assert_eq!(f.ef(), 1);
        assert_eq!(f.vf(), 1);
    }

    #[test]
    fn has_edge_tracks_deltas() {
        let (_, mut f) = two_site_line();
        assert!(f.has_edge(NodeId(1), NodeId(2))); // crossing
        assert!(f.has_edge(NodeId(0), NodeId(1))); // local
        assert!(!f.has_edge(NodeId(2), NodeId(1)));
        assert!(!f.has_edge(NodeId(0), NodeId(3)));
        f.apply_delta(&[
            EdgeOp::Delete(NodeId(1), NodeId(2)),
            EdgeOp::Insert(NodeId(0), NodeId(3)),
        ]);
        assert!(!f.has_edge(NodeId(1), NodeId(2)));
        assert!(f.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "edge to delete missing")]
    fn deleting_absent_edge_panics() {
        let (_, mut f) = two_site_line();
        f.apply_delta(&[EdgeOp::Delete(NodeId(0), NodeId(1))]);
        f.apply_delta(&[EdgeOp::Delete(NodeId(0), NodeId(1))]);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn inserting_duplicate_edge_panics() {
        let (_, mut f) = two_site_line();
        f.apply_delta(&[EdgeOp::Insert(NodeId(0), NodeId(1))]);
    }
}

/// The retired-slot revival audit: random interleavings of crossing
/// and local edge deletes, re-inserts of previously deleted edges
/// (the revival path) and fresh inserts, with the delta-maintained
/// fragmentation compared against a from-scratch rebuild of the
/// final graph after every burst. Indices are append-only, so the
/// comparison is by **global-id sets** (a rebuild lays out virtuals
/// densely; the maintained side keeps retired slots in place), plus
/// the invariant that no existing slot ever moves.
#[cfg(test)]
mod delta_proptests {
    use super::*;
    use dgs_graph::{GraphBuilder, Label, NodeId};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet, HashSet};

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    fn build_graph(n: usize, edges: &BTreeSet<(u32, u32)>, labels: &[Label]) -> dgs_graph::Graph {
        let mut b = GraphBuilder::with_capacity(n, edges.len());
        for &l in labels {
            b.add_node(l);
        }
        for &(u, v) in edges {
            b.add_edge(NodeId(u), NodeId(v));
        }
        b.build()
    }

    /// Per-site observable state, in global ids: locals, live
    /// virtuals, edges (from local sources), and in-node subscriber
    /// sets (only non-empty ones — the maintained side keeps empty
    /// subscription slots around, a rebuild never creates them).
    #[allow(clippy::type_complexity)]
    fn observe(
        f: &Fragmentation,
    ) -> Vec<(
        BTreeSet<u32>,
        BTreeSet<u32>,
        BTreeSet<(u32, u32)>,
        BTreeMap<u32, BTreeSet<usize>>,
    )> {
        f.fragments()
            .iter()
            .map(|frag| {
                let locals: BTreeSet<u32> =
                    frag.local_indices().map(|i| frag.global_id(i).0).collect();
                let live: BTreeSet<u32> = frag
                    .virtual_indices()
                    .filter(|&i| frag.is_live_virtual(i))
                    .map(|i| frag.global_id(i).0)
                    .collect();
                let edges: BTreeSet<(u32, u32)> = frag
                    .local_indices()
                    .flat_map(|u| {
                        frag.successors(u)
                            .iter()
                            .map(move |&t| (frag.global_id(u).0, frag.global_id(t).0))
                    })
                    .collect();
                let subs: BTreeMap<u32, BTreeSet<usize>> = frag
                    .in_nodes()
                    .iter()
                    .enumerate()
                    .filter_map(|(pos, &idx)| {
                        let subscribers: BTreeSet<usize> =
                            frag.in_node_subscribers(pos).iter().copied().collect();
                        (!subscribers.is_empty()).then(|| (frag.global_id(idx).0, subscribers))
                    })
                    .collect();
                (locals, live, edges, subs)
            })
            .collect()
    }

    /// The label index, keyed by global id (a maintained fragment
    /// appends its virtual slots, a rebuilt one sorts them): the label
    /// rows holding each local and live virtual slot, and each local
    /// node's successor label runs. Every row must be
    /// `n_total().div_ceil(64)` words with no bit past the last slot.
    #[allow(clippy::type_complexity)]
    fn index_view(
        f: &Fragmentation,
    ) -> Vec<(BTreeMap<u32, Vec<Label>>, BTreeMap<u32, Vec<(Label, u16)>>)> {
        f.fragments()
            .iter()
            .map(|frag| {
                let mut rows: BTreeMap<u32, Vec<Label>> = BTreeMap::new();
                let mut l = Label(0);
                while let Some(row) = frag.label_row(l) {
                    assert_eq!(row.len(), frag.n_total().div_ceil(64), "row width");
                    for (w, &word) in row.iter().enumerate() {
                        for idx in (0..64).filter(|b| word >> b & 1 == 1).map(|b| w * 64 + b) {
                            let idx = u32::try_from(idx).unwrap();
                            assert!((idx as usize) < frag.n_total(), "bit past the last slot");
                            if !frag.is_virtual(idx) || frag.is_live_virtual(idx) {
                                rows.entry(frag.global_id(idx).0).or_default().push(l);
                            }
                        }
                    }
                    l = Label(l.0 + 1);
                }
                let runs = frag
                    .local_indices()
                    .map(|i| (frag.global_id(i).0, frag.successor_labels(i).to_vec()))
                    .collect();
                (rows, runs)
            })
            .collect()
    }

    fn check(seed: u64, n: usize, sites: usize, steps: usize) {
        let mut s = seed | 1;
        let labels: Vec<Label> = (0..n)
            .map(|_| Label((xorshift(&mut s) % 3) as u16))
            .collect();
        let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
        for _ in 0..2 * n {
            let u = (xorshift(&mut s) % n as u64) as u32;
            let v = (xorshift(&mut s) % n as u64) as u32;
            if u != v {
                edges.insert((u, v));
            }
        }
        let assignment = crate::hash_partition(n, sites, seed);
        let g = build_graph(n, &edges, &labels);
        let mut maintained = Fragmentation::build(&g, &assignment, sites);

        // Every slot that exists now must keep its index forever.
        let pinned: Vec<Vec<(NodeId, u32)>> = maintained
            .fragments()
            .iter()
            .map(|frag| {
                (0..frag.n_total() as u32)
                    .map(|i| (frag.global_id(i), i))
                    .collect()
            })
            .collect();

        let mut deleted: Vec<(u32, u32)> = Vec::new();
        for _ in 0..steps {
            let op = match xorshift(&mut s) % 3 {
                // Revival path: put back an edge we deleted earlier.
                0 if !deleted.is_empty() => {
                    let e = deleted.swap_remove((xorshift(&mut s) % deleted.len() as u64) as usize);
                    if edges.contains(&e) {
                        continue; // re-inserted already by the fresh-insert arm
                    }
                    edges.insert(e);
                    EdgeOp::Insert(NodeId(e.0), NodeId(e.1))
                }
                1 if !edges.is_empty() => {
                    let k = (xorshift(&mut s) % edges.len() as u64) as usize;
                    let e = *edges.iter().nth(k).unwrap();
                    edges.remove(&e);
                    deleted.push(e);
                    EdgeOp::Delete(NodeId(e.0), NodeId(e.1))
                }
                _ => {
                    let u = (xorshift(&mut s) % n as u64) as u32;
                    let v = (xorshift(&mut s) % n as u64) as u32;
                    if u == v || edges.contains(&(u, v)) {
                        continue;
                    }
                    edges.insert((u, v));
                    EdgeOp::Insert(NodeId(u), NodeId(v))
                }
            };
            maintained.apply_delta(&[op]);
        }

        let rebuilt = Fragmentation::build(&build_graph(n, &edges, &labels), &assignment, sites);
        assert_eq!(maintained.vf(), rebuilt.vf(), "|Vf| diverged");
        assert_eq!(maintained.ef(), rebuilt.ef(), "|Ef| diverged");
        assert_eq!(observe(&maintained), observe(&rebuilt));
        assert_eq!(index_view(&maintained), index_view(&rebuilt));

        // Index stability: locals and old virtual slots never moved,
        // revived slots were revived in place.
        for (site, pins) in pinned.iter().enumerate() {
            let frag = maintained.fragment(site);
            for &(v, idx) in pins {
                assert_eq!(frag.index_of(v), Some(idx), "slot moved at site {site}");
            }
        }

        // The maintained edge view agrees with the mutated edge set.
        let sample: Vec<(u32, u32)> = edges.iter().copied().take(20).collect();
        for (u, v) in sample {
            assert!(maintained.has_edge(NodeId(u), NodeId(v)));
        }
        let mut absent_probe = HashSet::new();
        while absent_probe.len() < 10 {
            let u = (xorshift(&mut s) % n as u64) as u32;
            let v = (xorshift(&mut s) % n as u64) as u32;
            if u != v && !edges.contains(&(u, v)) && absent_probe.insert((u, v)) {
                assert!(!maintained.has_edge(NodeId(u), NodeId(v)));
            }
        }
    }

    /// A fragmentation over `n` nodes and `sites` sites with `steps`
    /// single-op deltas behind it (moved lists, retired and appended
    /// slots), and the edge set it ended with.
    fn churned(seed: u64, n: usize, sites: usize, steps: usize) -> Fragmentation {
        let mut s = seed | 1;
        let labels: Vec<Label> = (0..n).map(|i| Label((i % 3) as u16)).collect();
        let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
        for _ in 0..2 * n {
            let u = (xorshift(&mut s) % n as u64) as u32;
            let v = (xorshift(&mut s) % n as u64) as u32;
            if u != v {
                edges.insert((u, v));
            }
        }
        let assignment = crate::hash_partition(n, sites, seed);
        let mut frag = Fragmentation::build(&build_graph(n, &edges, &labels), &assignment, sites);
        for op in random_ops(&mut s, n, &mut edges, steps) {
            frag.apply_delta(&[op]);
        }
        frag
    }

    /// `steps` valid ops against `edges`, which follows them.
    fn random_ops(
        s: &mut u64,
        n: usize,
        edges: &mut BTreeSet<(u32, u32)>,
        steps: usize,
    ) -> Vec<EdgeOp> {
        let mut ops = Vec::new();
        for _ in 0..steps {
            let u = (xorshift(s) % n as u64) as u32;
            let v = (xorshift(s) % n as u64) as u32;
            if u == v {
                continue;
            }
            ops.push(if edges.remove(&(u, v)) {
                EdgeOp::Delete(NodeId(u), NodeId(v))
            } else {
                edges.insert((u, v));
                EdgeOp::Insert(NodeId(u), NodeId(v))
            });
        }
        ops
    }

    /// What `observe` leaves out: counters, the assignment, and every
    /// slot's id, label and predecessor list by index.
    fn assert_same(a: &Fragmentation, b: &Fragmentation) {
        assert_eq!(observe(a), observe(b));
        assert_eq!(index_view(a), index_view(b));
        assert_eq!(
            (a.num_sites(), a.vf(), a.ef(), a.fm_size(), a.assignment()),
            (b.num_sites(), b.vf(), b.ef(), b.fm_size(), b.assignment())
        );
        for (fa, fb) in a.fragments().iter().zip(b.fragments()) {
            assert_eq!(
                (fa.site(), fa.n_local(), fa.n_total(), fa.in_nodes()),
                (fb.site(), fb.n_local(), fb.n_total(), fb.in_nodes())
            );
            for idx in 0..fa.n_total() as u32 {
                assert_eq!(fa.index_of(fb.global_id(idx)), Some(idx));
                assert_eq!(fa.label(idx), fb.label(idx));
                assert_eq!(fa.predecessors(idx), fb.predecessors(idx));
            }
        }
    }

    /// `clone_from` ≡ `clone`, whatever the target held before: a
    /// larger fragmentation, a smaller one, one with another site
    /// count, one with a longer history — and the copy is a
    /// fragmentation in its own right: the same deltas take it and a
    /// plain clone to the same place, and leave the source alone.
    #[test]
    fn clone_from_equals_clone_from_arbitrary_prior_contents() {
        let shapes = [
            (60, 4, 300),
            (12, 2, 0),
            (35, 3, 40),
            (60, 4, 0),
            (90, 7, 500),
        ];
        let frags: Vec<Fragmentation> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(n, sites, steps))| churned(0xC0FFEE + i as u64, n, sites, steps))
            .collect();
        let mut s = 0xFEED_u64;
        for (si, source) in frags.iter().enumerate() {
            let before = observe(source);
            for target in &frags {
                let mut recycled = target.clone();
                recycled.clone_from(source);
                let mut cloned = source.clone();
                assert_same(&recycled, &cloned);

                let n = shapes[si].0;
                let mut edges: BTreeSet<(u32, u32)> = before
                    .iter()
                    .flat_map(|site| site.2.iter().copied())
                    .collect();
                let ops = random_ops(&mut s, n, &mut edges, 120);
                assert_eq!(recycled.apply_delta(&ops), cloned.apply_delta(&ops));
                assert_same(&recycled, &cloned);
                assert_eq!(
                    observe(source),
                    before,
                    "a copy wrote through to its source"
                );
            }
        }
    }

    /// The pool lengths of every fragment's lists.
    fn pool_lens(f: &Fragmentation) -> Vec<[usize; 3]> {
        let lens = f.fragments().iter().map(|frag| {
            [
                frag.out_adj.pool_len(),
                frag.in_adj.pool_len(),
                frag.in_node_subscribers.pool_len(),
            ]
        });
        lens.collect()
    }

    /// The engine's rule for the next generation — replay onto the one
    /// the last swap retired the batch that retired it, then the new
    /// batch, then compact — builds what cloning the current one and
    /// applying the batch builds, batch after batch, slot for slot;
    /// also when a held retired generation (here every 97th) makes it
    /// clone instead. Compacted pools hold at most twice their items,
    /// and the label runs that moved with them are the ones a rebuilt
    /// index lays out.
    #[test]
    fn replaying_onto_the_retired_generation_equals_a_clone() {
        let (n, sites) = (40, 3);
        let mut current = churned(0x5EED, n, sites, 0);
        let mut edges: BTreeSet<(u32, u32)> = observe(&current)
            .iter()
            .flat_map(|site| site.2.iter().copied())
            .collect();
        let mut cloned = current.clone();
        let mut spare: Option<(Fragmentation, Vec<EdgeOp>)> = None;
        let (mut s, mut compactions) = (0xBA7C4_u64, 0);
        for batch in 0..2_000 {
            let size = 1 + (xorshift(&mut s) % 16) as usize;
            let ops = random_ops(&mut s, n, &mut edges, size);
            let mut next = match spare.take() {
                Some((mut retired, behind)) => {
                    retired.apply_delta(&behind);
                    retired
                }
                None => current.clone(),
            };
            let stats = next.apply_delta(&ops);
            let loose = pool_lens(&next);
            next.compact();
            compactions += usize::from(pool_lens(&next) != loose);
            for f in next.fragments() {
                assert!(!f.out_adj.is_loose() && !f.in_adj.is_loose());
                assert!(!f.in_node_subscribers.is_loose());
                let built = LabelIndex::build(&f.labels, &f.out_adj);
                for idx in f.local_indices() {
                    assert_eq!(f.successor_labels(idx), built.runs(&f.out_adj, idx));
                }
            }
            let retired = std::mem::replace(&mut current, next);
            spare = (batch % 97 != 0).then_some((retired, ops.clone()));

            let mut copy = cloned.clone();
            assert_eq!(copy.apply_delta(&ops), stats, "batch {batch}");
            cloned = copy;
            assert_same(&current, &cloned);
        }
        assert!(compactions > 50, "{compactions} compactions");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn delta_maintained_fragmentation_matches_rebuild(
            seed in any::<u64>(),
            n in 8usize..40,
            sites in 2usize..5,
            steps in 1usize..80,
        ) {
            check(seed, n, sites, steps);
        }
    }
}
