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
//! ## The label index
//!
//! Two facts of the graph that every query of `lEval` starts from are
//! kept here rather than recomputed per query: per label, the slots
//! carrying it as one bit row in the layout of a `MatchSet` row over
//! the fragment ([`Fragment::label_row`]), and per local node, its
//! successors' labels as `(label, count)` runs
//! ([`Fragment::successor_labels`]). [`Fragmentation::build`] lays
//! both out; [`Fragmentation::apply_delta`] keeps them, in `O(deg)`
//! per edge op and a bit per appended virtual slot (rows widen a word
//! per 64 slots).
//!
//! ## Where a generation's bytes live
//!
//! A session builds each graph generation from a copy of the one
//! before, so a fragment is laid out to be copied: successors,
//! predecessors and in-node subscribers are one [`SpanLists`] each, a
//! vector of `(start, len, cap)` spans into a single pool, and the
//! successor label runs lie in a buffer parallel to the successors'
//! pool, at their list's positions (a list of `d` successors has at
//! most `d` runs). [`Fragmentation::build`] fills the pools in index
//! order with `cap == len` (plain CSR); a delta edits a list in place,
//! and a full list moves to the end of the pool with twice the room,
//! its runs with it. The span it leaves is dead and never reused; the
//! copy of a pool whose dead spans and spare room outnumber its items
//! compacts it instead, so a copied pool is at most twice its items. A
//! clone is otherwise a dozen `memcpy`s per fragment whatever `|Vi|`;
//! the site assignment, which no delta touches, is shared behind an
//! `Arc`.
//!
//! `clone_from` is hand-written for all three types: `self` ends up
//! equal to `source.clone()` whatever it held before — more sites,
//! fewer, larger fragments — and keeps its own buffers wherever they
//! are large enough (a compacting copy allocates its pool afresh).
//! `SimEngine::apply_delta` uses it to write the next generation over
//! a retired one without touching the allocator.

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

/// Many short sorted lists in one buffer: list `i` owns
/// `pool[start..start + cap]`, whose first `len` entries are its
/// items. A copy is two `memcpy`s, not an allocation per list.
#[derive(Debug, Default)]
pub struct SpanLists<T> {
    /// `(start, len, cap)` per list.
    spans: Vec<(u32, u32, u32)>,
    pool: Vec<T>,
    /// The number of items over all lists.
    items: usize,
}

impl<T: Copy + Ord + Default> SpanLists<T> {
    /// The items of list `idx`.
    #[inline]
    pub fn of(&self, idx: usize) -> &[T] {
        let (start, len, _) = self.spans[idx];
        &self.pool[start as usize..(start + len) as usize]
    }

    /// Makes `items` (sorted) the list at `at`, before the one there.
    pub fn insert_list(&mut self, at: usize, items: impl IntoIterator<Item = T>) {
        let start = self.pool.len();
        self.pool.extend(items);
        let end = u32::try_from(self.pool.len()).expect("span pool overflow");
        let len = end - start as u32;
        self.spans.insert(at, (start as u32, len, len));
        self.items += len as usize;
    }

    /// Appends `items` (sorted) as a new last list.
    pub fn push_list(&mut self, items: impl IntoIterator<Item = T>) {
        self.insert_list(self.spans.len(), items);
    }

    /// Removes the list at `at`; the ones behind it move down.
    pub fn remove_list(&mut self, at: usize) {
        self.items -= self.spans.remove(at).1 as usize;
    }

    /// Appends empty lists until there are `lists` of them.
    pub fn grow_to(&mut self, lists: usize) {
        self.spans.resize(lists.max(self.spans.len()), (0, 0, 0));
    }

    /// Adds `item` to list `idx`; `false` if it was there already.
    pub fn insert(&mut self, idx: usize, item: T) -> bool {
        let Err(at) = self.of(idx).binary_search(&item) else {
            return false;
        };
        let (mut start, len, cap) = self.spans[idx];
        if len == cap {
            let moved = self.pool.len();
            let cap = (2 * cap).max(2);
            self.pool.resize(moved + cap as usize, T::default());
            self.pool
                .copy_within(start as usize..(start + len) as usize, moved);
            start = u32::try_from(moved).expect("span pool overflow");
            self.spans[idx] = (start, len, cap);
        }
        let (lo, hi) = (start as usize + at, (start + len) as usize);
        self.pool.copy_within(lo..hi, lo + 1);
        self.pool[lo] = item;
        self.spans[idx].1 += 1;
        self.items += 1;
        true
    }

    /// Drops `item` from list `idx`; `false` if it was not there.
    pub fn remove(&mut self, idx: usize, item: T) -> bool {
        let Ok(at) = self.of(idx).binary_search(&item) else {
            return false;
        };
        let (start, len, _) = self.spans[idx];
        let (lo, hi) = (start as usize + at, (start + len) as usize);
        self.pool.copy_within(lo + 1..hi, lo);
        self.spans[idx].1 -= 1;
        self.items -= 1;
        true
    }

    /// Where list `idx` lies in the pool: `start..start + len`.
    #[inline]
    fn range(&self, idx: usize) -> std::ops::Range<usize> {
        let (start, len, _) = self.spans[idx];
        start as usize..(start + len) as usize
    }
}

impl<T: Clone> SpanLists<T> {
    /// Dead spans and spare room outnumber the items (the pool is more
    /// than twice them): the one rule for when a pool is compacted.
    fn is_loose(&self) -> bool {
        self.pool.len() > 2 * self.items
    }

    /// Makes `self` the lists of `source`, in a pool of its own at
    /// exactly their size: every list back to back at its exact size,
    /// as [`Fragmentation::build`] lays them out.
    fn compact_from(&mut self, source: &Self) {
        self.spans.clear();
        self.pool = Vec::with_capacity(source.items);
        self.items = source.items;
        for &(start, len, _) in &source.spans {
            let at = self.pool.len() as u32;
            self.pool
                .extend_from_slice(&source.pool[start as usize..(start + len) as usize]);
            self.spans.push((at, len, len));
        }
    }

    /// Compacts the pool in place by the rule a copy applies
    /// ([`Clone::clone_from`]): once dead spans and spare room
    /// outnumber the items. For lists that are edited in place and
    /// never copied; either way a pool stays at most twice its items.
    pub fn compact(&mut self) {
        if self.is_loose() {
            let loose = SpanLists {
                spans: std::mem::take(&mut self.spans),
                pool: std::mem::take(&mut self.pool),
                items: self.items,
            };
            self.compact_from(&loose);
        }
    }
}

impl<T: Clone> Clone for SpanLists<T> {
    fn clone(&self) -> Self {
        let mut copy = SpanLists {
            spans: Vec::new(),
            pool: Vec::new(),
            items: 0,
        };
        copy.clone_from(self);
        copy
    }

    /// Two `memcpy`s while the pool holds at least half items; once
    /// dead spans and spare room outnumber the items, the copy
    /// compacts instead, into a pool of its own at the compacted size.
    /// Either way the copy's pool is at most twice its items.
    fn clone_from(&mut self, source: &Self) {
        if source.is_loose() {
            self.compact_from(source);
        } else {
            self.spans.clone_from(&source.spans);
            self.pool.clone_from(&source.pool);
            self.items = source.items;
        }
    }
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
    /// The label index, a fact of the graph that no query changes:
    /// per label, the slots carrying it as one bit row of
    /// `label_words` words — the layout of a `MatchSet` row over this
    /// fragment, so a query copies its candidate rows as they are.
    /// `label_words` is always `n_total().div_ceil(64)`; appended
    /// virtual slots widen the rows once per 64 slots.
    label_rows: Vec<u64>,
    label_words: usize,
    /// The other half of the label index, parallel to `out_adj`'s
    /// pool: where a node's successor list lies, its successors'
    /// labels lie as `(label, count)` runs, ascending, then `NO_RUN`
    /// to the end of its span (a list of `d` successors has at most
    /// `d` runs). A label with more than `u16::MAX` successors
    /// continues in further runs, the one not full first. Moves,
    /// compacts and is edited with its list.
    succ_labels: Vec<(Label, u16)>,
}

impl Clone for Fragment {
    fn clone(&self) -> Self {
        let mut copy = Fragment::default();
        copy.clone_from(self);
        copy
    }

    /// Buffer by buffer, so that each keeps the capacity it has.
    fn clone_from(&mut self, source: &Self) {
        (self.site, self.n_local, self.n_edges) = (source.site, source.n_local, source.n_edges);
        self.global_ids.clone_from(&source.global_ids);
        self.labels.clone_from(&source.labels);
        self.out_adj.clone_from(&source.out_adj);
        self.in_adj.clone_from(&source.in_adj);
        self.in_nodes.clone_from(&source.in_nodes);
        self.in_node_subscribers
            .clone_from(&source.in_node_subscribers);
        self.virtual_owners.clone_from(&source.virtual_owners);
        self.index_of.clone_from(&source.index_of);
        self.label_rows.clone_from(&source.label_rows);
        self.label_words = source.label_words;
        if self.out_adj.pool.len() == source.out_adj.pool.len() {
            self.succ_labels.clone_from(&source.succ_labels);
        } else {
            // The successor lists were compacted, back to back in index
            // order: their runs follow them.
            self.succ_labels = Vec::with_capacity(self.out_adj.pool.len());
            for idx in 0..source.n_local {
                let runs = &source.succ_labels[source.out_adj.range(idx)];
                self.succ_labels.extend_from_slice(runs);
            }
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
        let at = l.index() * self.label_words;
        self.label_rows.get(at..at + self.label_words)
    }

    /// The labels of local node `idx`'s successors as `(label, count)`
    /// runs, ascending by label, followed by zero counts: one entry
    /// per successor in all. The counts of one label sum to its
    /// successors carrying it (more than one run only past
    /// `u16::MAX`).
    #[inline]
    pub fn successor_labels(&self, idx: u32) -> &[(Label, u16)] {
        &self.succ_labels[self.out_adj.range(idx as usize)]
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
        let was = self.out_adj.range(ui as usize);
        assert!(
            self.out_adj.insert(ui as usize, vi),
            "edge to insert already present in fragment"
        );
        assert!(
            self.in_adj.insert(vi as usize, ui),
            "reverse edge already present"
        );
        self.n_edges += 1;
        let now = self.out_adj.range(ui as usize);
        if self.succ_labels.len() < self.out_adj.pool.len() {
            // The list moved to the end of the pool; its runs follow.
            self.succ_labels.resize(self.out_adj.pool.len(), NO_RUN);
            self.succ_labels.copy_within(was, now.start);
        }
        let l = self.labels[vi as usize];
        let runs = &mut self.succ_labels[now];
        let (k, at) = find_run(runs, l);
        if at < k && runs[at].0 == l && runs[at].1 < u16::MAX {
            runs[at].1 += 1;
        } else {
            runs.copy_within(at..k, at + 1);
            runs[at] = (l, 1);
        }
    }

    /// Removes `(ui, vi)` from the sorted adjacency and uncounts `vi`'s
    /// label from `ui`'s runs.
    ///
    /// # Panics
    /// Panics if the edge is absent.
    fn remove_pair(&mut self, ui: u32, vi: u32) {
        assert!(
            self.out_adj.remove(ui as usize, vi),
            "edge to delete missing from fragment"
        );
        assert!(self.in_adj.remove(vi as usize, ui), "reverse edge missing");
        self.n_edges -= 1;
        // The span still covers the removed successor's slot.
        let mut span = self.out_adj.range(ui as usize);
        span.end += 1;
        let runs = &mut self.succ_labels[span];
        let (k, at) = find_run(runs, self.labels[vi as usize]);
        runs[at].1 -= 1;
        if runs[at].1 == 0 {
            runs.copy_within(at + 1..k, at);
            runs[k - 1] = NO_RUN;
        }
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
        // One more word a row per 64 slots, as `MatchSet::grow_cols`.
        let (words, old) = (self.n_total().div_ceil(64), self.label_words.max(1));
        if words > self.label_words {
            let mut wide = vec![0; self.label_rows.len() / old * words];
            let rows = self.label_rows.chunks_exact(old);
            for (to, from) in wide.chunks_exact_mut(words).zip(rows) {
                to[..old].copy_from_slice(from);
            }
            (self.label_rows, self.label_words) = (wide, words);
        }
        set_label_bit(&mut self.label_rows, words, label, idx);
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
}

/// The filler of `Fragment::succ_labels` behind a list's runs.
const NO_RUN: (Label, u16) = (Label(0), 0);

/// In one list's slice of `Fragment::succ_labels`: the number of runs,
/// and where the first run of `l` is or would go.
fn find_run(runs: &[(Label, u16)], l: Label) -> (usize, usize) {
    let k = runs.partition_point(|&(_, c)| c > 0);
    (k, runs[..k].partition_point(|&(rl, _)| rl < l))
}

/// Sets bit `idx` of label `l`'s row in `rows` (`words` words a row),
/// appending zero rows up to `l`'s first.
fn set_label_bit(rows: &mut Vec<u64>, words: usize, l: Label, idx: u32) {
    let at = l.index() * words;
    if rows.len() < at + words {
        rows.resize(at + words, 0);
    }
    rows[at + idx as usize / 64] |= 1 << (idx % 64);
}

/// A fragmentation `F = (F1, ..., Fn)` of a graph, plus the global
/// quantities the paper's bounds are stated in (`|Vf|`, `|Ef|`,
/// `|Fm|`).
#[derive(Debug, Default)]
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

impl Clone for Fragmentation {
    fn clone(&self) -> Self {
        let mut copy = Fragmentation::default();
        copy.clone_from(self);
        copy
    }

    /// `Vec::clone_from` overwrites the fragments both sides have in
    /// place ([`Fragment::clone_from`]) and clones or drops the rest.
    fn clone_from(&mut self, source: &Self) {
        self.num_sites = source.num_sites;
        self.assignment = Arc::clone(&source.assignment);
        self.fragments.clone_from(&source.fragments);
        self.crossing_in.clone_from(&source.crossing_in);
        self.vf = source.vf;
        self.ef = source.ef;
    }
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
            let label_words = global_ids.len().div_ceil(64);
            let n_labels = labels.iter().map(|l| l.index() + 1).max().unwrap_or(0);
            let mut label_rows = vec![0; n_labels * label_words];
            for (idx, &l) in labels.iter().enumerate() {
                set_label_bit(&mut label_rows, label_words, l, idx as u32);
            }
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
            let mut out_adj = SpanLists {
                spans: Vec::with_capacity(n_total),
                pool: Vec::with_capacity(n_edges),
                items: 0,
            };
            // With each list, its label runs: a count per label seen,
            // then one run per label in label order (and one more per
            // `u16::MAX` of it), the partial run first.
            let mut in_len = vec![0u32; n_total];
            let mut succ_labels = vec![NO_RUN; n_edges];
            let (mut count, mut seen) = (vec![0usize; n_labels], Vec::new());
            for &v in &locals[site] {
                let start = out_adj.pool.len();
                out_adj.push_list(graph.successors(v).iter().map(|w| {
                    if assignment[w.index()] == site {
                        local_idx[w.index()]
                    } else {
                        index_of[w]
                    }
                }));
                out_adj.pool[start..].sort_unstable();
                for &w in &out_adj.pool[start..] {
                    in_len[w as usize] += 1;
                    let l = labels[w as usize];
                    if count[l.index()] == 0 {
                        seen.push(l);
                    }
                    count[l.index()] += 1;
                }
                seen.sort_unstable();
                let mut at = start;
                let full = usize::from(u16::MAX);
                for &l in &seen {
                    let mut n = std::mem::take(&mut count[l.index()]);
                    if n % full > 0 {
                        succ_labels[at] = (l, (n % full) as u16);
                        at += 1;
                        n -= n % full;
                    }
                    while n > 0 {
                        succ_labels[at] = (l, u16::MAX);
                        at += 1;
                        n -= full;
                    }
                }
                seen.clear();
            }
            out_adj.grow_to(n_total);

            // Ei, reverse: spans from the counts, then filled from the
            // back by sources in descending order, which leaves every
            // list sorted and `in_len` at zero.
            let mut end = 0u32;
            let spans = in_len.iter().map(|&len| {
                end += len;
                (end - len, len, len)
            });
            let mut in_adj = SpanLists {
                spans: spans.collect(),
                pool: vec![0u32; n_edges],
                items: n_edges,
            };
            for ui in (0..n_local).rev() {
                for &w in out_adj.of(ui) {
                    in_len[w as usize] -= 1;
                    let at = in_adj.spans[w as usize].0 + in_len[w as usize];
                    in_adj.pool[at as usize] = ui as u32;
                }
            }

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
                label_rows,
                label_words,
                succ_labels,
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

    /// Every mutation against a `Vec<Vec<u32>>` model: lists that fill
    /// their span and move, lists that empty, lists inserted into and
    /// removed from the middle, a span vector that grows.
    #[test]
    fn span_lists_follow_a_nested_vec_model() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % bound as u64) as usize
        };
        let mut lists = SpanLists::<u32>::default();
        let mut model: Vec<Vec<u32>> = Vec::new();
        let (mut moved, mut emptied) = (0, 0);
        for step in 0..20_000 {
            match next(16) {
                0 => {
                    let items: Vec<u32> = (0..next(4) as u32).map(|i| 2 * i).collect();
                    lists.push_list(items.iter().copied());
                    model.push(items);
                }
                1 => {
                    let at = next(model.len() + 1);
                    lists.insert_list(at, [5, 7]);
                    model.insert(at, vec![5, 7]);
                }
                2 if model.len() > 8 => {
                    let at = next(model.len());
                    lists.remove_list(at);
                    model.remove(at);
                }
                3 => {
                    let to = model.len() + next(3);
                    lists.grow_to(to);
                    model.resize(to, Vec::new());
                }
                op if !model.is_empty() => {
                    // A few lists take the traffic, in turns of mostly
                    // inserts and mostly removals: they grow through
                    // several moves and drain again.
                    let idx = next(model.len().min(12));
                    let item = next(8) as u32;
                    let at = model[idx].binary_search(&item);
                    if (op == 4) == (step / 1000 % 2 == 1) {
                        let pool_before = lists.pool.len();
                        assert_eq!(lists.insert(idx, item), at.is_err());
                        moved += usize::from(lists.pool.len() > pool_before);
                        if let Err(at) = at {
                            model[idx].insert(at, item);
                        }
                    } else {
                        assert_eq!(lists.remove(idx, item), at.is_ok());
                        if let Ok(at) = at {
                            model[idx].remove(at);
                            emptied += usize::from(model[idx].is_empty());
                        }
                    }
                }
                _ => {}
            }
            assert_eq!(lists.spans.len(), model.len());
            assert_eq!(lists.items, model.iter().map(Vec::len).sum::<usize>());
            if step % 64 == 0 || step > 19_900 {
                for (idx, list) in model.iter().enumerate() {
                    assert_eq!(lists.of(idx), &list[..], "list {idx} at step {step}");
                }
                // A copy, and a copy over something else, read the same.
                let copy = lists.clone();
                let mut over = SpanLists::<u32>::default();
                over.push_list([1, 2, 3]);
                over.clone_from(&lists);
                for (idx, list) in model.iter().enumerate() {
                    assert_eq!((copy.of(idx), over.of(idx)), (&list[..], &list[..]));
                }
            }
        }
        assert!(
            moved > 50 && emptied > 50,
            "{moved} moves, {emptied} drained"
        );
    }

    /// Lists that grew through several moves and drained again leave
    /// a pool that is mostly dead spans and spare room; the copy a
    /// generation swap makes of it holds at most twice the items.
    #[test]
    fn clone_from_compacts_a_mostly_dead_pool() {
        let mut lists = SpanLists::<u32>::default();
        for idx in 0..100 {
            lists.push_list([]);
            for item in 0..40 {
                lists.insert(idx, item);
            }
            for item in 5..40 {
                lists.remove(idx, item);
            }
        }
        let items = 100 * 5;
        assert!(lists.pool.len() > 20 * items, "{} pooled", lists.pool.len());
        let mut over = SpanLists::<u32>::default();
        over.push_list(0..5_000);
        over.clone_from(&lists);
        for copy in [over, lists.clone()] {
            assert!(copy.pool.len() <= 2 * items, "{} pooled", copy.pool.len());
            assert_eq!(copy.items, items);
            for idx in 0..100 {
                assert_eq!(copy.of(idx), lists.of(idx));
            }
        }
        // A pool at least half items is copied as it is.
        let mut dense = SpanLists::<u32>::default();
        dense.push_list([1, 2, 3]);
        dense.push_list([7, 8, 9]);
        dense.insert(0, 4);
        assert_eq!((dense.pool.len(), dense.clone().pool.len()), (12, 12));
    }

    /// `compact` is the same rule in place: a mostly dead pool shrinks
    /// to its items and keeps every list, a dense one is left alone.
    #[test]
    fn compact_applies_the_copy_rule_in_place() {
        let mut lists = SpanLists::<u32>::default();
        for idx in 0..50 {
            lists.push_list([]);
            for item in 0..20 {
                lists.insert(idx, item);
            }
            for item in 3..20 {
                lists.remove(idx, item);
            }
        }
        let before: Vec<Vec<u32>> = (0..50).map(|idx| lists.of(idx).to_vec()).collect();
        lists.compact();
        assert_eq!((lists.pool.len(), lists.items), (50 * 3, 50 * 3));
        for (idx, items) in before.iter().enumerate() {
            assert_eq!(lists.of(idx), items.as_slice());
        }
        // Compacted lists take edits like built ones.
        assert!(lists.insert(7, 99) && lists.remove(7, 0));
        assert_eq!(lists.of(7), &[1, 2, 99]);
        let mut dense = SpanLists::<u32>::default();
        dense.push_list([1, 2, 3]);
        dense.push_list([7, 8, 9]);
        dense.insert(0, 4);
        dense.compact();
        assert_eq!(dense.pool.len(), 12);
    }

    /// More than `u16::MAX` successors of one label continue in a
    /// second run, the partial one first; deltas across the boundary
    /// keep the runs a rebuild would lay out.
    #[test]
    fn a_label_past_u16_max_continues_in_a_second_run() {
        let n = 65_540;
        let mut b = GraphBuilder::new();
        b.add_node(Label(0));
        b.add_nodes(n - 2, Label(1));
        b.add_node(Label(2));
        for v in 1..n as u32 {
            b.add_edge(NodeId(0), NodeId(v));
        }
        let g = b.build();
        let mut f = Fragmentation::build(&g, &vec![0; n], 1);
        let full = u16::MAX;
        let runs = |f: &Fragmentation| -> Vec<(Label, u16)> {
            let slots = f.fragment(0).successor_labels(0);
            assert_eq!(slots.len(), f.fragment(0).successors(0).len());
            slots.iter().copied().filter(|&(_, c)| c > 0).collect()
        };
        let built = [(Label(1), 3), (Label(1), full), (Label(2), 1)];
        assert_eq!(runs(&f), built);
        let ops: Vec<EdgeOp> = (1..5)
            .map(|v| EdgeOp::Delete(NodeId(0), NodeId(v)))
            .collect();
        f.apply_delta(&ops[..3]);
        assert_eq!(runs(&f), [(Label(1), full), (Label(2), 1)]);
        f.apply_delta(&ops[3..]);
        assert_eq!(runs(&f), [(Label(1), full - 1), (Label(2), 1)]);
        let back: Vec<EdgeOp> = (1..5)
            .map(|v| EdgeOp::Insert(NodeId(0), NodeId(v)))
            .collect();
        f.apply_delta(&back[..1]);
        assert_eq!(runs(&f), [(Label(1), full), (Label(2), 1)]);
        f.apply_delta(&back[1..]);
        assert_eq!(runs(&f), built);
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
