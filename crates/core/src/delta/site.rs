//! A site of a batch's one maintenance run.
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
//! One cross-channel race needs care: a fast site can finish refining
//! and ship a falsification before a slow site has seen its own
//! `Refine`, so sites buffer falsifications that arrive mid-marking
//! and replay them after revival.

use super::msg::{ByEntry, EntryBatches, UpdateMsg};
use super::state::{DeltaSiteState, Entry, Site};
use crate::vars::Var;
use dgs_graph::NodeId;
use dgs_net::{Endpoint, Outbox, SiteDeltaMetrics, SiteLogic};
use dgs_partition::{Fragmentation, SiteId, SpanLists};
use std::sync::Arc;

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
    /// Site `site` of a run over `frag` (post-delta) among `num_sites`,
    /// holding `entries` and the site's reverse adjacency `pred`, still
    /// pre-delta.
    pub(super) fn new(
        site: SiteId,
        frag: Arc<Fragmentation>,
        entries: Vec<Entry>,
        pred: SpanLists<u32>,
        num_sites: usize,
    ) -> Self {
        DeltaSiteLogic {
            site,
            frag,
            entries,
            pred,
            inserted: Vec::new(),
            phase: SitePhase::Deleting,
            ship: EntryBatches::new(num_sites),
            stats: SiteDeltaMetrics {
                site,
                ..SiteDeltaMetrics::default()
            },
            ops: 0,
        }
    }

    /// Every entry's persistent state, in the order
    /// [`super::build_maintenance`] took them, to be carried into the next
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
