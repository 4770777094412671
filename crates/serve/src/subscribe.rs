//! Live match subscriptions: the server-side registry that turns
//! [`dgs_core::DeltaReport::maintained_diffs`] into `MATCH_DIFF` push
//! frames.
//!
//! A subscription is a `(connection, session, pattern)` triple with
//! the pattern's current match rows attached. `SUBSCRIBE` snapshots
//! the rows (a plain query — a cache hit when the pattern was asked
//! before) and registers the triple; every wire-applied delta then
//! calls `SubscriptionRegistry::on_delta`, which updates each
//! affected subscription's rows and queues one encoded `MATCH_DIFF`
//! frame per non-empty change.
//!
//! ## The free path and the fallback
//!
//! The insertion-side maintenance protocol keeps every cached entry
//! exact under *every* batch shape and reports the per-entry changes
//! as [`MaintainedDiff`](dgs_core::delta::MaintainedDiff)s tagged
//! with the entry's canonical pattern key. A subscription stores its pattern's canonical key and the
//! canonical→original node mapping, so consuming a maintained diff is
//! a translation plus a few sorted-vec edits — no query, no protocol
//! messages. Only when no diff applies (the entry was evicted from
//! the result cache, or the subscription missed a generation) does
//! the registry fall back to re-querying the engine and set-diffing
//! against the subscription's rows.
//!
//! ## Ordering
//!
//! A session's generations are one line: every batch that changes the
//! graph publishes its predecessor's generation plus one. Each
//! subscription remembers the generation its rows reflect — its
//! snapshot's at `SUBSCRIBE`, then each step's — and worker threads,
//! which may enter `on_delta` out of publication order, hand it each
//! digest, judged against that generation alone:
//!
//! * a **late** digest (at or below it) is dropped;
//! * the **next** one (applied against exactly it) applies the
//!   pattern's maintained diff, or re-queries when the entry was not
//!   maintained;
//! * after a **gap** (an overtaken digest, an in-process writer,
//!   `cache_invalidate_all`) the subscription re-queries and takes the
//!   re-query's generation, so the digest the gap skipped arrives late
//!   and is dropped.
//!
//! Pushed generations therefore strictly increase, nothing waits in a
//! buffer, and the stream is self-healing, never silently wrong.
//!
//! ## Backpressure
//!
//! Queued frames per subscription are bounded. A subscriber that
//! stops reading while deltas keep coming overflows its queue: the
//! queued diffs are discarded and replaced by a single terminal
//! `SUB_EVENT(overflow)` — the client learns it lost the stream and
//! can re-subscribe for a fresh snapshot. Memory stays bounded no
//! matter how slow the peer is.

use crate::proto::{rows_of, MatchDiff, Response, SubEventKind, WireAlgorithm};
use crate::wire::{encode_frame_into, CONN_LEVEL_ID};
use dgs_core::{DeltaReport, DgsError, SimEngine};
use dgs_graph::Pattern;
use dgs_net::{Counter, Gauge};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};

/// Queued push frames per subscription before it overflows.
pub(crate) const DEFAULT_SUB_QUEUE_MAX: usize = 64;

/// One registered subscription.
struct Subscription {
    conn_id: u64,
    session: String,
    pattern: Pattern,
    algorithm: WireAlgorithm,
    /// The pattern's canonical cache key — what
    /// [`dgs_core::delta::MaintainedDiff::canon_key`] is matched
    /// against.
    canon_key: Vec<u32>,
    /// Original node index at each canonical position (diff vars
    /// speak canonical positions; rows are kept in the subscriber's
    /// numbering).
    node_at: Vec<u16>,
    /// Current match rows, one sorted list per query node.
    rows: Vec<Vec<u32>>,
    /// The generation `rows` reflects.
    generation: u64,
    /// Encoded id-0 push frames awaiting the event loop. Bounded;
    /// overflow discards everything and leaves one terminal event.
    queue: VecDeque<Vec<u8>>,
    /// Terminal: the queue holds only a final `SUB_EVENT`; remove the
    /// subscription once it drains.
    dead: bool,
}

#[derive(Default)]
struct Inner {
    next_id: u64,
    subs: HashMap<u64, Subscription>,
    by_conn: HashMap<u64, Vec<u64>>,
    /// The live subscriptions of each session.
    by_session: HashMap<String, Vec<u64>>,
}

/// Subscription lifecycle handles into the server's metrics registry.
/// The default (disabled) handles are no-ops, so the registry works
/// unchanged when metrics are off.
#[derive(Clone, Default)]
pub(crate) struct SubObs {
    /// Live subscriptions right now (mirrors
    /// [`SubscriptionRegistry::live_count`]).
    pub active: Gauge,
    /// `MATCH_DIFF` frames queued for push, cumulative.
    pub pushed: Counter,
    /// Subscriptions terminated because their push queue overflowed.
    pub overflows: Counter,
}

/// The server's subscription table. One per daemon, shared by the
/// worker pool (which registers subscriptions and feeds delta
/// digests) and the event loop (which moves queued frames into
/// connection write queues).
pub(crate) struct SubscriptionRegistry {
    inner: Mutex<Inner>,
    max_queue: usize,
    obs: SubObs,
}

impl SubscriptionRegistry {
    /// A registry whose lifecycle changes tick `obs` (pass
    /// `SubObs::default()` for no-op handles).
    pub fn with_obs(max_queue: usize, obs: SubObs) -> SubscriptionRegistry {
        SubscriptionRegistry {
            inner: Mutex::new(Inner::default()),
            max_queue: max_queue.max(1),
            obs,
        }
    }

    /// Re-publishes the live-subscription gauge from the table (called
    /// under the lock after every liveness-changing mutation, so the
    /// gauge can never drift from [`Self::live_count`]).
    fn sync_active(&self, g: &Inner) {
        self.obs
            .active
            .set(g.subs.values().filter(|s| !s.dead).count() as u64);
    }

    /// Registers a subscription and snapshots its rows, labelled with
    /// the generation the snapshot query was answered at. The query
    /// runs under the registry lock so no digest can slip between the
    /// snapshot and the registration.
    pub fn subscribe(
        &self,
        conn_id: u64,
        session: &str,
        engine: &SimEngine,
        pattern: &Pattern,
        algorithm: WireAlgorithm,
    ) -> Result<(u64, u64, Vec<Vec<u32>>), DgsError> {
        let mut g = self.inner.lock();
        let report = engine.query_with(&algorithm.to_algorithm(), pattern)?;
        let rows = rows_of(&report.relation);
        let (canon_key, pos_of) = SimEngine::pattern_canon(pattern);
        let mut node_at = vec![0u16; pos_of.len()];
        for (u, &p) in pos_of.iter().enumerate() {
            node_at[p as usize] = u as u16;
        }
        let id = g.next_id + 1;
        g.next_id = id;
        let generation = report.generation;
        g.by_session.entry(session.to_owned()).or_default().push(id);
        g.by_conn.entry(conn_id).or_default().push(id);
        g.subs.insert(
            id,
            Subscription {
                conn_id,
                session: session.to_owned(),
                pattern: pattern.clone(),
                algorithm,
                canon_key,
                node_at,
                rows: rows.clone(),
                generation,
                queue: VecDeque::new(),
                dead: false,
            },
        );
        self.sync_active(&g);
        Ok((id, generation, rows))
    }

    /// Tears down `sub_id` if this connection holds it.
    pub fn unsubscribe(&self, conn_id: u64, sub_id: u64) -> bool {
        let mut g = self.inner.lock();
        match g.subs.get(&sub_id) {
            Some(sub) if sub.conn_id == conn_id => {
                g.remove_sub(sub_id);
                self.sync_active(&g);
                true
            }
            _ => false,
        }
    }

    /// Hands one applied delta's digest to every subscription of
    /// `session` (see "Ordering" above). Returns the connection ids
    /// that gained queued frames (the event loop drains them).
    pub fn on_delta(&self, session: &str, engine: &SimEngine, report: &DeltaReport) -> Vec<u64> {
        let mut g = self.inner.lock();
        let ids = g.by_session.get(session).cloned().unwrap_or_default();
        let mut dirty = Vec::new();
        for id in ids {
            g.follow(id, report, engine, self.max_queue, &self.obs, &mut dirty);
        }
        self.sync_active(&g);
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Terminates every subscription on `session` with a typed event
    /// (the session was dropped or replaced). Returns the connections
    /// that gained frames.
    pub fn drop_session(&self, session: &str) -> Vec<u64> {
        let mut g = self.inner.lock();
        let ids = g.by_session.remove(session).unwrap_or_default();
        let mut dirty = Vec::new();
        for id in ids {
            g.kill_sub(id, SubEventKind::SessionDropped, &mut dirty);
        }
        self.sync_active(&g);
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Discards every subscription of a connection that died (nothing
    /// to notify — the socket is gone).
    pub fn drop_conn(&self, conn_id: u64) {
        let mut g = self.inner.lock();
        for id in g.by_conn.remove(&conn_id).unwrap_or_default() {
            g.remove_sub(id);
        }
        self.sync_active(&g);
    }

    /// Shutdown drain: replaces every subscription of `conn_id` with
    /// a terminal `Draining` event and returns those frames for the
    /// connection's write queue (ahead of the final drain notice).
    pub fn drain_conn(&self, conn_id: u64) -> Vec<Vec<u8>> {
        let mut g = self.inner.lock();
        let ids = g.by_conn.get(&conn_id).cloned().unwrap_or_default();
        let mut frames = Vec::new();
        for id in ids {
            if g.subs.get(&id).is_some_and(|s| !s.dead) {
                frames.push(encode_push(&Response::SubEvent {
                    sub_id: id,
                    kind: SubEventKind::Draining,
                }));
                g.remove_sub(id);
            }
        }
        self.sync_active(&g);
        frames
    }

    /// Moves up to `budget` queued frames of `conn_id` out of the
    /// registry (the event loop appends them to the connection's
    /// write queue). Dead subscriptions are reaped once empty.
    pub fn take_frames(&self, conn_id: u64, budget: usize) -> Vec<Vec<u8>> {
        let mut g = self.inner.lock();
        let ids = g.by_conn.get(&conn_id).cloned().unwrap_or_default();
        let mut frames = Vec::new();
        for id in ids {
            while frames.len() < budget {
                let Some(sub) = g.subs.get_mut(&id) else {
                    break;
                };
                match sub.queue.pop_front() {
                    Some(f) => frames.push(f),
                    None => break,
                }
            }
            let reap = g
                .subs
                .get(&id)
                .is_some_and(|s| s.dead && s.queue.is_empty());
            if reap {
                g.remove_sub(id);
            }
            if frames.len() >= budget {
                break;
            }
        }
        frames
    }

    /// Whether `conn_id` still has queued frames waiting.
    pub fn has_frames(&self, conn_id: u64) -> bool {
        let g = self.inner.lock();
        g.by_conn.get(&conn_id).is_some_and(|ids| {
            ids.iter()
                .any(|id| g.subs.get(id).is_some_and(|s| !s.queue.is_empty()))
        })
    }

    /// Live subscriptions (tests/metrics).
    pub fn live_count(&self) -> usize {
        let g = self.inner.lock();
        g.subs.values().filter(|s| !s.dead).count()
    }

    /// Push frames currently parked across every subscription queue
    /// (the metrics scrape's occupancy gauge).
    pub fn queued_frames(&self) -> usize {
        let g = self.inner.lock();
        g.subs.values().map(|s| s.queue.len()).sum()
    }
}

/// Encodes a response as an id-0 push frame.
fn encode_push(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame_into(&mut buf, Some(CONN_LEVEL_ID), |b| resp.encode_into(b))
        .expect("push frames fit MAX_FRAME");
    buf
}

impl Inner {
    /// Detaches `sub_id` from every index and drops it.
    fn remove_sub(&mut self, sub_id: u64) {
        if let Some(sub) = self.subs.remove(&sub_id) {
            if let Some(ids) = self.by_conn.get_mut(&sub.conn_id) {
                ids.retain(|&i| i != sub_id);
                if ids.is_empty() {
                    self.by_conn.remove(&sub.conn_id);
                }
            }
            if let Some(ids) = self.by_session.get_mut(&sub.session) {
                ids.retain(|&i| i != sub_id);
            }
        }
    }

    /// Queues one encoded frame on `sub_id`, overflowing to a
    /// terminal event when the bound is hit.
    fn enqueue(
        &mut self,
        sub_id: u64,
        frame: Vec<u8>,
        max_queue: usize,
        obs: &SubObs,
        dirty: &mut Vec<u64>,
    ) {
        let Some(sub) = self.subs.get_mut(&sub_id).filter(|sub| !sub.dead) else {
            return;
        };
        if sub.queue.len() >= max_queue {
            // The subscriber stopped reading: discard the backlog and
            // leave one terminal Overflow event.
            obs.overflows.inc();
            return self.kill_sub(sub_id, SubEventKind::Overflow, dirty);
        }
        sub.queue.push_back(frame);
        obs.pushed.inc();
        dirty.push(sub.conn_id);
    }

    /// Terminates `sub_id` with `kind`, leaving the event as the only
    /// queued frame, and stops handing it its session's digests.
    fn kill_sub(&mut self, sub_id: u64, kind: SubEventKind, dirty: &mut Vec<u64>) {
        let session;
        {
            let Some(sub) = self.subs.get_mut(&sub_id) else {
                return;
            };
            if sub.dead {
                return;
            }
            sub.queue.clear();
            sub.queue
                .push_back(encode_push(&Response::SubEvent { sub_id, kind }));
            sub.dead = true;
            dirty.push(sub.conn_id);
            session = sub.session.clone();
        }
        if let Some(ids) = self.by_session.get_mut(&session) {
            ids.retain(|&i| i != sub_id);
        }
    }

    /// Moves one subscription past one digest by the three-way rule
    /// of "Ordering": drop it when late, apply the pattern's
    /// maintained diff when it is the next one, re-query otherwise
    /// (and take the re-query's generation). A non-empty change is
    /// queued as one `MATCH_DIFF` frame.
    fn follow(
        &mut self,
        sub_id: u64,
        report: &DeltaReport,
        engine: &SimEngine,
        max_queue: usize,
        obs: &SubObs,
        dirty: &mut Vec<u64>,
    ) {
        let Some(sub) = self.subs.get_mut(&sub_id).filter(|sub| !sub.dead) else {
            return;
        };
        if report.generation <= sub.generation {
            return;
        }
        let maintained = (report.prev_generation == sub.generation)
            .then(|| {
                report
                    .maintained_diffs
                    .iter()
                    .find(|d| d.canon_key == sub.canon_key)
            })
            .flatten();
        let (generation, added, removed) = match maintained {
            Some(diff) => {
                let mut added = Vec::new();
                let mut removed = Vec::new();
                for var in &diff.revoked {
                    let u = sub.node_at[var.q as usize];
                    let row = &mut sub.rows[u as usize];
                    if let Ok(pos) = row.binary_search(&var.node) {
                        row.remove(pos);
                        removed.push((u, var.node));
                    }
                }
                for var in &diff.resurrected {
                    let u = sub.node_at[var.q as usize];
                    let row = &mut sub.rows[u as usize];
                    if let Err(pos) = row.binary_search(&var.node) {
                        row.insert(pos, var.node);
                        added.push((u, var.node));
                    }
                }
                (report.generation, added, removed)
            }
            // No maintained diff applies (the entry was evicted, a
            // non-Auto algorithm never cached, or a generation was
            // missed): re-query and set-diff — a cache hit when
            // maintenance kept the entry, a recompute otherwise.
            None => match engine.query_with(&sub.algorithm.to_algorithm(), &sub.pattern) {
                Ok(fresh) => {
                    let rows = rows_of(&fresh.relation);
                    let (added, removed) = rows_diff(&sub.rows, &rows);
                    sub.rows = rows;
                    (fresh.generation, added, removed)
                }
                // The engine refused the re-query (pattern no longer
                // supported, executor failure): the stream can't stay
                // exact — terminate it.
                Err(_) => return self.kill_sub(sub_id, SubEventKind::Overflow, dirty),
            },
        };
        sub.generation = generation;
        if added.is_empty() && removed.is_empty() {
            return;
        }
        let frame = encode_push(&Response::MatchDiff(MatchDiff {
            sub_id,
            generation,
            added,
            removed,
        }));
        self.enqueue(sub_id, frame, max_queue, obs, dirty);
    }
}

/// Set-difference of two sorted row tables: `(added, removed)` as
/// `(query node, data node)` pairs.
#[allow(clippy::type_complexity)]
fn rows_diff(old: &[Vec<u32>], new: &[Vec<u32>]) -> (Vec<(u16, u32)>, Vec<(u16, u32)>) {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    for u in 0..old.len().max(new.len()) {
        static EMPTY: Vec<u32> = Vec::new();
        let o = old.get(u).unwrap_or(&EMPTY);
        let n = new.get(u).unwrap_or(&EMPTY);
        let (mut i, mut j) = (0, 0);
        while i < o.len() || j < n.len() {
            match (o.get(i), n.get(j)) {
                (Some(&a), Some(&b)) if a == b => {
                    i += 1;
                    j += 1;
                }
                (Some(&a), Some(&b)) if a < b => {
                    removed.push((u as u16, a));
                    i += 1;
                }
                (Some(_), Some(&b)) => {
                    added.push((u as u16, b));
                    j += 1;
                }
                (Some(&a), None) => {
                    removed.push((u as u16, a));
                    i += 1;
                }
                (None, Some(&b)) => {
                    added.push((u as u16, b));
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
    }
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::frame;
    use crate::wire::split_request_id;
    use dgs_core::GraphDelta;
    use dgs_graph::generate::{patterns, random};
    use dgs_graph::Graph;
    use dgs_partition::{hash_partition, Fragmentation};
    use std::sync::Arc;

    fn engine_for(g: &Graph, k: usize, seed: u64) -> SimEngine {
        let assign = hash_partition(g.node_count(), k, seed);
        let frag = Arc::new(Fragmentation::build(g, &assign, k));
        SimEngine::builder(g, frag).build()
    }

    /// A live `SubObs` backed by a real registry, returned alongside
    /// the registry so the handles stay readable after the move.
    fn live_obs() -> (SubObs, dgs_net::MetricsRegistry) {
        let mreg = dgs_net::MetricsRegistry::new();
        let obs = SubObs {
            active: mreg.gauge("dgsd_subscriptions_active"),
            pushed: mreg.counter("dgsd_sub_diffs_pushed_total"),
            overflows: mreg.counter("dgsd_sub_overflows_total"),
        };
        (obs, mreg)
    }

    fn fresh_rows(engine: &SimEngine, q: &Pattern) -> Vec<Vec<u32>> {
        rows_of(&engine.query(q).expect("query").relation)
    }

    /// Decodes one registry frame (`[len][ty][varint 0][body]`) into
    /// its pushed response.
    fn decode_push(frame_bytes: &[u8]) -> Response {
        let ty = frame_bytes[4];
        let (id, body) = split_request_id(&frame_bytes[5..]).expect("request id");
        assert_eq!(id, 0, "pushes ride request id 0");
        Response::decode(ty, body).expect("decode push")
    }

    fn replay(rows: &mut [Vec<u32>], diff: &MatchDiff) {
        for &(u, v) in &diff.removed {
            let row = &mut rows[u as usize];
            if let Ok(i) = row.binary_search(&v) {
                row.remove(i);
            }
        }
        for &(u, v) in &diff.added {
            let row = &mut rows[u as usize];
            if let Err(i) = row.binary_search(&v) {
                row.insert(i, v);
            }
        }
    }

    /// Replays every queued `MATCH_DIFF` of connection 1 over `rows`,
    /// checking that the pushed generations strictly increase.
    fn replay_frames(reg: &SubscriptionRegistry, rows: &mut [Vec<u32>], after: u64) {
        let mut last = after;
        for f in reg.take_frames(1, 64) {
            match decode_push(&f) {
                Response::MatchDiff(d) => {
                    assert!(
                        d.generation > last,
                        "generation {} after {last}",
                        d.generation
                    );
                    last = d.generation;
                    replay(rows, &d);
                }
                other => panic!("expected MATCH_DIFF, got {other:?}"),
            }
        }
    }

    #[test]
    fn an_overtaken_digest_requeries_and_arrives_late() {
        let g = random::uniform(40, 140, 3, 31);
        let q = patterns::random_cyclic(3, 5, 3, 731);
        let engine = engine_for(&g, 2, 31);
        let (obs, _mreg) = live_obs();
        let reg = SubscriptionRegistry::with_obs(DEFAULT_SUB_QUEUE_MAX, obs.clone());
        let (sub_id, label, snapshot) = reg
            .subscribe(1, "default", &engine, &q, WireAlgorithm::Auto)
            .expect("subscribe");
        assert_eq!(
            label,
            engine.generation(),
            "labelled with its snapshot's generation"
        );
        assert_eq!(obs.active.get(), 1, "the gauge tracks the live sub");

        let dels: Vec<_> = g.edges().take(10).collect();
        let r1 = engine
            .apply_delta(&GraphDelta::deletions(dels.iter().copied()))
            .expect("delta 1");
        let r2 = engine
            .apply_delta(&GraphDelta::insertions(dels.iter().copied()))
            .expect("delta 2");
        assert_eq!(r2.prev_generation, r1.generation);

        // The successor overtakes its predecessor: a gap, so the
        // subscription re-queries and takes the re-query's generation.
        reg.on_delta("default", &engine, &r2);
        let sub_generation = |reg: &SubscriptionRegistry| reg.inner.lock().subs[&sub_id].generation;
        assert_eq!(sub_generation(&reg), r2.generation);
        // The predecessor, and a re-delivery, arrive late: dropped.
        assert!(reg.on_delta("default", &engine, &r1).is_empty());
        assert!(reg.on_delta("default", &engine, &r2).is_empty());
        assert_eq!(sub_generation(&reg), r2.generation);

        // The next digest applies the maintained diff: no query runs.
        let queries = engine.stats().queries();
        let r3 = engine
            .apply_delta(&GraphDelta::deletions(g.edges().skip(10).take(6)))
            .expect("delta 3");
        reg.on_delta("default", &engine, &r3);
        assert_eq!(engine.stats().queries(), queries);
        assert_eq!(sub_generation(&reg), r3.generation);

        // Replaying the pushed diffs over the snapshot reproduces the
        // engine's current rows exactly.
        let mut rows = snapshot;
        replay_frames(&reg, &mut rows, label);
        assert_eq!(rows, fresh_rows(&engine, &q));
        assert!(!reg.has_frames(1));
        assert_eq!(reg.live_count(), 1);
        assert_eq!(obs.active.get(), 1);
        assert!(
            obs.pushed.get() >= 1,
            "every queued MATCH_DIFF ticks the counter"
        );
        assert_eq!(obs.overflows.get(), 0);
    }

    #[test]
    fn a_gap_requeries_and_takes_the_requerys_generation() {
        let g = random::uniform(40, 140, 3, 33);
        let q = patterns::random_cyclic(3, 5, 3, 733);
        let engine = engine_for(&g, 2, 33);
        let reg = SubscriptionRegistry::with_obs(DEFAULT_SUB_QUEUE_MAX, SubObs::default());
        let (sub_id, label, snapshot) = reg
            .subscribe(1, "default", &engine, &q, WireAlgorithm::Auto)
            .expect("subscribe");

        // A digest withheld (an in-process writer bypassing the
        // registry), then one whose predecessor is missing: the
        // subscription re-queries at the engine's generation.
        let edges: Vec<_> = g.edges().collect();
        let withheld = engine
            .apply_delta(&GraphDelta::deletions(edges[..4].iter().copied()))
            .expect("withheld delta");
        let r = engine
            .apply_delta(&GraphDelta::deletions(edges[4..7].iter().copied()))
            .expect("delta");
        let newer = engine
            .apply_delta(&GraphDelta::deletions(edges[7..10].iter().copied()))
            .expect("newer delta");
        reg.on_delta("default", &engine, &r);
        let sub_generation = |reg: &SubscriptionRegistry| reg.inner.lock().subs[&sub_id].generation;
        assert_eq!(
            sub_generation(&reg),
            newer.generation,
            "the re-query's generation"
        );
        assert!(reg.on_delta("default", &engine, &withheld).is_empty());
        assert!(reg.on_delta("default", &engine, &newer).is_empty());

        // A generation moved without a batch is a gap too.
        engine.cache_invalidate_all();
        let after = engine
            .apply_delta(&GraphDelta::deletions(edges[10..13].iter().copied()))
            .expect("delta after invalidation");
        assert_eq!(after.prev_generation, newer.generation + 1);
        reg.on_delta("default", &engine, &after);
        assert_eq!(sub_generation(&reg), after.generation);

        // The re-query diffs cover the withheld batches too.
        let mut rows = snapshot;
        replay_frames(&reg, &mut rows, label);
        assert_eq!(rows, fresh_rows(&engine, &q));
    }

    #[test]
    fn overflow_discards_backlog_and_leaves_one_terminal_event() {
        let g = random::uniform(40, 140, 3, 35);
        let q = patterns::random_cyclic(3, 5, 3, 735);
        let engine = engine_for(&g, 2, 35);
        let (obs, _mreg) = live_obs();
        let reg = SubscriptionRegistry::with_obs(2, obs.clone());
        let (sub_id, _, _) = reg
            .subscribe(9, "default", &engine, &q, WireAlgorithm::Auto)
            .expect("subscribe");
        assert_eq!(reg.live_count(), 1);
        assert_eq!(obs.active.get(), 1);

        // Queue past the bound without the event loop draining.
        {
            let mut inner = reg.inner.lock();
            let mut dirty = Vec::new();
            for i in 0..5u8 {
                let frame = vec![0, 0, 0, 0, frame::MATCH_DIFF, i];
                inner.enqueue(sub_id, frame, 2, &obs, &mut dirty);
            }
            // 2 queued + the overflow transition; dead drops the rest.
            assert_eq!(dirty, vec![9, 9, 9]);
        }
        assert_eq!(reg.live_count(), 0, "an overflowed subscription is dead");
        assert_eq!(obs.pushed.get(), 2, "only the pre-overflow pushes count");
        assert_eq!(obs.overflows.get(), 1, "the overflow transition ticks once");

        // Exactly one frame survives: the terminal Overflow event.
        let frames = reg.take_frames(9, 64);
        assert_eq!(frames.len(), 1);
        match decode_push(&frames[0]) {
            Response::SubEvent { sub_id: id, kind } => {
                assert_eq!(id, sub_id);
                assert_eq!(kind, SubEventKind::Overflow);
            }
            other => panic!("expected SUB_EVENT, got {other:?}"),
        }
        // Draining the terminal event reaps the subscription: later
        // deltas find no subscriber.
        assert!(reg.inner.lock().subs.is_empty());
        let dels: Vec<_> = g.edges().take(5).collect();
        let r = engine
            .apply_delta(&GraphDelta::deletions(dels))
            .expect("delta");
        assert!(reg.on_delta("default", &engine, &r).is_empty());
        assert!(!reg.has_frames(9));
    }

    #[test]
    fn rows_diff_reports_sorted_set_changes() {
        let old = vec![vec![1, 3, 5], vec![7]];
        let new = vec![vec![1, 4, 5], vec![]];
        let (added, removed) = rows_diff(&old, &new);
        assert_eq!(added, vec![(0, 4)]);
        assert_eq!(removed, vec![(0, 3), (1, 7)]);
    }

    #[test]
    fn rows_diff_handles_row_count_mismatch() {
        let (added, removed) = rows_diff(&[], &[vec![2]]);
        assert_eq!(added, vec![(0, 2)]);
        assert!(removed.is_empty());
    }
}
