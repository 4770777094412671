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
//! [`GraphDelta`] is the batch; `SimEngine::apply_delta` routes it.
//! This module owns the maintenance protocol, one submodule a part:
//! [`UpdateMsg`] is its wire format (`msg.rs`), [`DeltaSiteState`]
//! the per-site state of one entry and its counter steps (`state.rs`),
//! [`DeltaSiteLogic`] a site of a batch's run (`site.rs`), and
//! [`build_maintenance`] assembles the run's actors around the
//! [`DeltaCoordinator`] (`coord.rs`).

mod coord;
mod msg;
mod site;
mod state;

pub use coord::{build_maintenance, DeltaCoordinator};
pub use msg::{ByEntry, UpdateMsg};
pub use site::DeltaSiteLogic;
pub use state::DeltaSiteState;

use crate::vars::Var;
use dgs_graph::NodeId;
use dgs_net::SiteDeltaMetrics;

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
    /// The generation this batch was applied *against*: `generation −
    /// 1` for a batch that changed the graph, `generation` for one
    /// whose every op was already satisfied. A consumer of the
    /// per-batch diffs (a live subscription) applies them only to
    /// state at exactly this generation; a
    /// [`SimEngine::cache_invalidate_all`](crate::SimEngine::cache_invalidate_all)
    /// in between advances the generation without a batch.
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

#[cfg(test)]
mod tests {
    use super::*;

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
