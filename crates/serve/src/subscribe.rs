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
//! as [`MaintainedDiff`]s tagged with the entry's canonical pattern
//! key. A subscription stores its pattern's canonical key and the
//! canonical→original node mapping, so consuming a maintained diff is
//! a translation plus a few sorted-vec edits — no query, no protocol
//! messages. Only when no diff matches (the entry was evicted from
//! the result cache, or the digest chain broke) does the registry
//! fall back to re-querying the engine and set-diffing against the
//! subscription's rows.
//!
//! ## Ordering
//!
//! Engine generations are strictly increasing but **not contiguous**
//! (they come from a shared allocator), and worker threads may enter
//! `on_delta` out of publication order. Digests therefore chain on
//! `prev_generation → generation` edges: a digest applies only when
//! the session's cursor equals its `prev_generation`; out-of-order
//! arrivals stash until their predecessor lands. A chain that stalls
//! (an in-process writer bypassing the wire, a stash past its bound)
//! resynchronizes by re-querying every subscription — the stream is
//! self-healing, never silently wrong.
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
use dgs_core::delta::MaintainedDiff;
use dgs_core::{DgsError, SimEngine};
use dgs_graph::Pattern;
use dgs_net::{Counter, Gauge};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Queued push frames per subscription before it overflows.
pub(crate) const DEFAULT_SUB_QUEUE_MAX: usize = 64;

/// Unprocessed digests per session before the registry stops waiting
/// for the chain and resynchronizes by re-query.
const STASH_MAX: usize = 4;

/// One registered subscription.
struct Subscription {
    conn_id: u64,
    session: String,
    pattern: Pattern,
    algorithm: WireAlgorithm,
    /// The pattern's canonical cache key — what
    /// [`MaintainedDiff::canon_key`] is matched against.
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

/// One delta's digest: the `prev → gen` edge plus the per-entry
/// diffs.
struct Digest {
    generation: u64,
    diffs: Vec<MaintainedDiff>,
}

/// Per-session chain state.
#[derive(Default)]
struct SessionChain {
    ids: Vec<u64>,
    /// The generation every live subscription of this session is at.
    cursor: u64,
    /// Digests that arrived ahead of their predecessor, keyed by
    /// `prev_generation`.
    stash: BTreeMap<u64, Digest>,
}

#[derive(Default)]
struct Inner {
    next_id: u64,
    subs: HashMap<u64, Subscription>,
    by_conn: HashMap<u64, Vec<u64>>,
    by_session: HashMap<String, SessionChain>,
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

    /// Registers a subscription and snapshots its rows. The snapshot
    /// query runs under the registry lock so no digest can slip
    /// between the snapshot and the registration.
    pub fn subscribe(
        &self,
        conn_id: u64,
        session: &str,
        engine: &SimEngine,
        pattern: &Pattern,
        algorithm: WireAlgorithm,
    ) -> Result<(u64, u64, Vec<Vec<u32>>), DgsError> {
        let mut g = self.inner.lock();
        // Read the generation *before* the query: the rows may come
        // from a newer snapshot if a writer publishes concurrently,
        // in which case the next digest replays idempotently (sorted
        // set edits check presence) instead of being missed.
        let label = engine.generation();
        let report = engine.query_with(&algorithm.to_algorithm(), pattern)?;
        let rows = rows_of(&report.relation);
        let (canon_key, pos_of) = SimEngine::pattern_canon(pattern);
        let mut node_at = vec![0u16; pos_of.len()];
        for (u, &p) in pos_of.iter().enumerate() {
            node_at[p as usize] = u as u16;
        }
        let id = g.next_id + 1;
        g.next_id = id;
        let chain = g.by_session.entry(session.to_owned()).or_default();
        let generation = label.max(chain.cursor);
        if chain.ids.is_empty() {
            chain.cursor = generation;
            chain.stash.clear();
        }
        chain.ids.push(id);
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

    /// Feeds one applied delta's digest into `session`'s chain and
    /// processes everything that became ready. Returns the connection
    /// ids that gained queued frames (the event loop drains them).
    pub fn on_delta(
        &self,
        session: &str,
        engine: &SimEngine,
        report: &dgs_core::DeltaReport,
    ) -> Vec<u64> {
        let mut g = self.inner.lock();
        let Some(chain) = g.by_session.get_mut(session) else {
            return Vec::new();
        };
        if chain.ids.is_empty() {
            return Vec::new();
        }
        if report.generation <= chain.cursor {
            // A late-arriving digest for a generation the chain (or
            // the subscriptions' snapshots) already covers.
            return Vec::new();
        }
        chain.stash.insert(
            report.prev_generation,
            Digest {
                generation: report.generation,
                diffs: report.maintained_diffs.clone(),
            },
        );
        let mut dirty = Vec::new();
        loop {
            let session_chain = g.by_session.get_mut(session).expect("chain exists");
            if let Some(digest) = session_chain.stash.remove(&session_chain.cursor) {
                let gen = digest.generation;
                let ids = session_chain.ids.clone();
                session_chain.cursor = gen;
                for id in ids {
                    g.apply_digest(id, &digest, engine, self.max_queue, &self.obs, &mut dirty);
                }
            } else if g.by_session.get(session).expect("chain exists").stash.len() > STASH_MAX {
                // The chain stalled (a writer bypassed the wire, or a
                // digest was lost): resynchronize every subscription
                // by re-query and restart the chain at the newest
                // stashed generation.
                let chain = g.by_session.get_mut(session).expect("chain exists");
                let newest = chain
                    .stash
                    .values()
                    .map(|d| d.generation)
                    .max()
                    .expect("stash nonempty");
                chain.stash.clear();
                chain.cursor = newest;
                let ids = chain.ids.clone();
                for id in ids {
                    g.resync_sub(id, newest, engine, self.max_queue, &self.obs, &mut dirty);
                }
                break;
            } else {
                break;
            }
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
        let Some(chain) = g.by_session.get_mut(session) else {
            return Vec::new();
        };
        let ids = std::mem::take(&mut chain.ids);
        chain.stash.clear();
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
            if let Some(chain) = self.by_session.get_mut(&sub.session) {
                chain.ids.retain(|&i| i != sub_id);
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
    /// queued frame, and stops tracking it in its session chain.
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
        if let Some(chain) = self.by_session.get_mut(&session) {
            chain.ids.retain(|&i| i != sub_id);
        }
    }

    /// Applies one ready digest to one subscription: the matching
    /// maintained diff when present (free), a re-query set-diff
    /// otherwise.
    fn apply_digest(
        &mut self,
        sub_id: u64,
        digest: &Digest,
        engine: &SimEngine,
        max_queue: usize,
        obs: &SubObs,
        dirty: &mut Vec<u64>,
    ) {
        let Some(sub) = self.subs.get_mut(&sub_id) else {
            return;
        };
        if sub.dead || sub.generation >= digest.generation {
            // The subscription's snapshot already covers this
            // generation (it registered mid-chain).
            return;
        }
        let matched = digest.diffs.iter().find(|d| d.canon_key == sub.canon_key);
        let (added, removed) = match matched {
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
                sub.generation = digest.generation;
                (added, removed)
            }
            // No maintained entry for this pattern (evicted, or a
            // non-Auto algorithm that never cached): re-query and
            // set-diff. A cache hit when maintenance kept the entry; a
            // recompute otherwise.
            None => {
                return self.resync_sub(sub_id, digest.generation, engine, max_queue, obs, dirty)
            }
        };
        if added.is_empty() && removed.is_empty() {
            let sub = self.subs.get_mut(&sub_id).expect("sub exists");
            sub.generation = digest.generation;
            return;
        }
        let frame = encode_push(&Response::MatchDiff(MatchDiff {
            sub_id,
            generation: digest.generation,
            added,
            removed,
        }));
        self.enqueue(sub_id, frame, max_queue, obs, dirty);
    }

    /// Brings one subscription to `generation` without a maintained
    /// diff (its entry was not maintained, or the chain stalled):
    /// re-query and emit the set-diff against its rows.
    fn resync_sub(
        &mut self,
        sub_id: u64,
        generation: u64,
        engine: &SimEngine,
        max_queue: usize,
        obs: &SubObs,
        dirty: &mut Vec<u64>,
    ) {
        let Some(sub) = self.subs.get(&sub_id) else {
            return;
        };
        if sub.dead {
            return;
        }
        let algorithm = sub.algorithm;
        let pattern = sub.pattern.clone();
        match engine.query_with(&algorithm.to_algorithm(), &pattern) {
            Ok(report) => {
                let sub = self.subs.get_mut(&sub_id).expect("sub exists");
                let fresh = rows_of(&report.relation);
                let (added, removed) = rows_diff(&sub.rows, &fresh);
                sub.rows = fresh;
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
            // The engine refused the re-query (pattern no longer
            // supported, executor failure): the stream can't stay
            // exact — terminate it.
            Err(_) => self.kill_sub(sub_id, SubEventKind::Overflow, dirty),
        }
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

    #[test]
    fn out_of_order_digests_stash_until_the_chain_connects() {
        let g = random::uniform(40, 140, 3, 31);
        let q = patterns::random_cyclic(3, 5, 3, 731);
        let engine = engine_for(&g, 2, 31);
        let (obs, _mreg) = live_obs();
        let reg = SubscriptionRegistry::with_obs(DEFAULT_SUB_QUEUE_MAX, obs.clone());
        let (sub_id, _, snapshot) = reg
            .subscribe(1, "default", &engine, &q, WireAlgorithm::Auto)
            .expect("subscribe");
        assert_eq!(obs.active.get(), 1, "the gauge tracks the live sub");

        let dels: Vec<_> = g.edges().take(10).collect();
        let r1 = engine
            .apply_delta(&GraphDelta::deletions(dels.iter().copied()))
            .expect("delta 1");
        let r2 = engine
            .apply_delta(&GraphDelta::insertions(dels.iter().copied()))
            .expect("delta 2");

        // The successor arrives first: it must stash, not apply.
        assert!(reg.on_delta("default", &engine, &r2).is_empty());
        assert!(!reg.has_frames(1));

        // Its predecessor connects the chain and both drain in order.
        reg.on_delta("default", &engine, &r1);
        {
            let inner = reg.inner.lock();
            let chain = &inner.by_session["default"];
            assert_eq!(chain.cursor, r2.generation);
            assert!(chain.stash.is_empty());
            assert_eq!(inner.subs[&sub_id].rows, fresh_rows(&engine, &q));
        }

        // A re-delivered digest for a covered generation is dropped.
        assert!(reg.on_delta("default", &engine, &r1).is_empty());

        // Replaying the pushed diffs over the snapshot reproduces the
        // engine's current rows exactly.
        let mut rows = snapshot;
        for f in reg.take_frames(1, 64) {
            match decode_push(&f) {
                Response::MatchDiff(d) => {
                    assert_eq!(d.sub_id, sub_id);
                    replay(&mut rows, &d);
                }
                other => panic!("expected MATCH_DIFF, got {other:?}"),
            }
        }
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
    fn stalled_chain_resynchronizes_by_requery() {
        let g = random::uniform(40, 140, 3, 33);
        let q = patterns::random_cyclic(3, 5, 3, 733);
        let engine = engine_for(&g, 2, 33);
        let reg = SubscriptionRegistry::with_obs(DEFAULT_SUB_QUEUE_MAX, SubObs::default());
        let (_, _, snapshot) = reg
            .subscribe(1, "default", &engine, &q, WireAlgorithm::Auto)
            .expect("subscribe");

        // Apply a run of deltas but withhold the first digest: the
        // chain can never connect. Past STASH_MAX the registry stops
        // waiting and resynchronizes at the newest stashed generation.
        let edges: Vec<_> = g.edges().collect();
        let _withheld = engine
            .apply_delta(&GraphDelta::deletions(edges[..4].iter().copied()))
            .expect("withheld delta");
        let mut newest = 0;
        for c in 0..STASH_MAX + 1 {
            let slice = &edges[4 + c * 3..4 + (c + 1) * 3];
            let r = engine
                .apply_delta(&GraphDelta::deletions(slice.iter().copied()))
                .expect("delta");
            newest = r.generation;
            reg.on_delta("default", &engine, &r);
        }
        {
            let inner = reg.inner.lock();
            let chain = &inner.by_session["default"];
            assert_eq!(chain.cursor, newest, "chain restarted at the newest digest");
            assert!(chain.stash.is_empty());
        }

        // The resync diff covers the withheld batch too.
        let mut rows = snapshot;
        for f in reg.take_frames(1, 64) {
            if let Response::MatchDiff(d) = decode_push(&f) {
                replay(&mut rows, &d);
            }
        }
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
