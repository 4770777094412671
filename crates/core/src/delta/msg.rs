//! The maintenance protocol's wire format: [`UpdateMsg`], and the
//! per-entry grouping ([`ByEntry`]) its entry-tagged messages carry.
//! Ops, falsifications, affected marks and candidacy rows are **data**
//! messages, so fault injection covers them; all are idempotent.

use crate::vars::Var;
use dgs_net::{Endpoint, Outbox, WireSize};
use dgs_partition::SiteId;

/// A message's items for several maintained entries: `(entry, items)`
/// for each entry that has any, ascending by entry, where an entry is
/// its position in the list [`super::build_maintenance`] took.
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
pub(super) struct EntryBatches<T>(Vec<ByEntry<T>>);

impl<T: Clone + PartialEq> EntryBatches<T> {
    pub(super) fn new(num_sites: usize) -> Self {
        EntryBatches((0..num_sites).map(|_| Vec::new()).collect())
    }

    /// Adds `item` of entry `k` to the batch of each site in `to`,
    /// keeping one group per entry, ascending (a deletion batch steps
    /// through the entries once per edge). The calls for one item are
    /// consecutive, so a site named twice (a subscriber that also
    /// registered as an extra) still gets it once.
    #[inline]
    pub(super) fn push(&mut self, k: u32, item: T, to: &[SiteId]) {
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
    pub(super) fn send(
        &mut self,
        out: &mut Outbox<UpdateMsg>,
        msg: fn(ByEntry<T>) -> UpdateMsg,
    ) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
