//! The subscriber churn: live subscriptions parked on open
//! `MATCH_DIFF` streams while one session takes delta batches.

use super::{mixed_pattern_pool, splitmix64};
use crate::client::{DgsClient, SubscriptionEvent};
use crate::error::ServeError;
use crate::proto::{Request, Response, SessionOptions, WireAlgorithm};
use crate::transport::ServeAddr;
use dgs_graph::Pattern;
use dgs_net::LatencyHistogram;
use std::time::{Duration, Instant};

/// Configuration of [`run_subscribe`]: the time-varying-graph churn
/// experiment. The generator creates
/// its own sessions (`churn-0`, `churn-1`, ...), parks subscribers on
/// every one, then storms **only** `churn-0` with delta batches — so
/// subscribers on the other sessions double as a cross-session
/// isolation check (any push they receive is an error).
#[derive(Clone, Debug)]
pub struct SubscribeConfig {
    /// The daemon to drive.
    pub addr: ServeAddr,
    /// Sessions to create; the writer storms the first.
    pub sessions: usize,
    /// Subscribers per session, each on its own connection.
    pub subscribers: usize,
    /// Nodes per session graph (edges = 3x).
    pub nodes: usize,
    /// Delta batches the writer applies to `churn-0`, back to back.
    pub batches: usize,
    /// Edge ops per batch. The churn pool recycles: deleted edges
    /// become insertable and vice versa, so the graph orbits its base
    /// shape instead of draining.
    pub ops_per_batch: usize,
    /// Seed for graphs, patterns and churn.
    pub seed: u64,
}

impl Default for SubscribeConfig {
    fn default() -> Self {
        SubscribeConfig {
            addr: ServeAddr::Tcp("127.0.0.1:7311".into()),
            sessions: 2,
            subscribers: 2,
            nodes: 600,
            batches: 40,
            ops_per_batch: 20,
            seed: 7,
        }
    }
}

/// Fleet-wide outcome of one subscription run.
#[derive(Debug)]
pub struct SubscribeReport {
    /// Diff pushes delivered across every subscriber.
    pub diffs: u64,
    /// Delta batches the writer applied successfully.
    pub batches: u64,
    /// Failures of any kind — connects, subscribes, unexpected
    /// terminal events, cross-session leakage, a diff carrying a
    /// generation the writer never produced, or a reconstructed match
    /// set diverging from the final re-query. A correct run reports
    /// **zero**.
    pub errors: u64,
    /// Wall-clock span of the run.
    pub elapsed: Duration,
    /// Per-diff delivery latency: writer hands the batch to the wire
    /// -> subscriber decodes the push carrying that generation
    /// (nanoseconds).
    pub histogram: LatencyHistogram,
}

/// A batch of raw `(u, v)` edges drawn from a [`ChurnPool`].
type EdgeBatch = Vec<(u32, u32)>;

/// A mutable edge pool driving time-varying churn: every delete makes
/// the edge insertable later and every insert makes it deletable, so
/// an arbitrarily long stream keeps the graph near its base shape.
struct ChurnPool {
    present: EdgeBatch,
    absent: EdgeBatch,
    s: u64,
}

impl ChurnPool {
    fn new(g: &dgs_graph::Graph, seed: u64) -> ChurnPool {
        let present: Vec<(u32, u32)> = g.edges().map(|(u, v)| (u.0, v.0)).collect();
        let known: std::collections::HashSet<(u32, u32)> = present.iter().copied().collect();
        let n = (g.node_count() as u64).max(1);
        let mut absent = Vec::new();
        let mut s = seed;
        // A synthetic absent pool half the edge count, so the first
        // batches already mix inserts with deletes.
        while absent.len() < present.len() / 2 + 1 {
            let u = (splitmix64(&mut s) % n) as u32;
            let v = (splitmix64(&mut s) % n) as u32;
            if u != v && !known.contains(&(u, v)) {
                absent.push((u, v));
            }
        }
        ChurnPool { present, absent, s }
    }

    /// The next batch, roughly half deletes / half inserts. Edges
    /// flipped this batch only rejoin the draw pools afterwards, so a
    /// batch never inserts and deletes the same edge.
    fn next_batch(&mut self, nops: usize) -> (EdgeBatch, EdgeBatch) {
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for _ in 0..nops {
            if splitmix64(&mut self.s).is_multiple_of(2) && !self.present.is_empty() {
                let at = (splitmix64(&mut self.s) as usize) % self.present.len();
                deletes.push(self.present.swap_remove(at));
            } else if !self.absent.is_empty() {
                let at = (splitmix64(&mut self.s) as usize) % self.absent.len();
                inserts.push(self.absent.swap_remove(at));
            }
        }
        self.absent.extend_from_slice(&deletes);
        self.present.extend_from_slice(&inserts);
        (inserts, deletes)
    }
}

/// What one subscriber thread brings home.
struct SubOutcome {
    /// `(generation, receive instant)` per diff push, joined against
    /// the writer's send log afterwards.
    recv: Vec<(u64, Instant)>,
    errors: u64,
}

const CHURN_LABELS: usize = 4;

/// Builds the per-session churn graph (`slot` picks the seed).
fn churn_graph(cfg: &SubscribeConfig, slot: usize) -> dgs_graph::Graph {
    dgs_graph::generate::random::uniform(
        cfg.nodes.max(8),
        cfg.nodes.max(8) * 3,
        CHURN_LABELS,
        cfg.seed.wrapping_add(slot as u64),
    )
}

/// One subscriber: snapshot + diff stream on `session`, reconstructing
/// the match set locally and checking it against a final re-query.
fn run_subscriber(
    cfg: &SubscribeConfig,
    session: &str,
    pattern: &Pattern,
    ready: &std::sync::atomic::AtomicUsize,
    stop: &std::sync::atomic::AtomicBool,
) -> SubOutcome {
    use std::sync::atomic::Ordering;
    let mut out = SubOutcome {
        recv: Vec::new(),
        errors: 0,
    };
    // Any early exit still has to unblock the writer's barrier.
    let fail = |out: &mut SubOutcome| {
        out.errors += 1;
        ready.fetch_add(1, Ordering::SeqCst);
    };
    let Ok(mut client) = DgsClient::connect(&cfg.addr) else {
        fail(&mut out);
        return out;
    };
    if client.session_route(session).is_err() {
        fail(&mut out);
        return out;
    }
    let Ok((sub_id, _generation, mut rows)) = client.subscribe(pattern, WireAlgorithm::Auto) else {
        fail(&mut out);
        return out;
    };
    ready.fetch_add(1, Ordering::SeqCst);
    if client
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        out.errors += 1;
        return out;
    }
    loop {
        match client.next_event() {
            Ok(SubscriptionEvent::Diff(diff)) => {
                let at = Instant::now();
                if diff.sub_id != sub_id {
                    out.errors += 1;
                    continue;
                }
                for &(var, node) in &diff.removed {
                    let col = &mut rows[var as usize];
                    if let Ok(i) = col.binary_search(&node) {
                        col.remove(i);
                    } else {
                        out.errors += 1;
                    }
                }
                for &(var, node) in &diff.added {
                    let col = &mut rows[var as usize];
                    if let Err(i) = col.binary_search(&node) {
                        col.insert(i, node);
                    } else {
                        out.errors += 1;
                    }
                }
                out.recv.push((diff.generation, at));
            }
            // Overflow / drop / drain mid-run: the stream died early.
            Ok(SubscriptionEvent::Event { .. }) => {
                out.errors += 1;
                return out;
            }
            Err(ServeError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // A quiet window after the writer finished means the
                // stream has drained (pushes are written eagerly; 50ms
                // dwarfs a loopback round trip).
                if stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => {
                out.errors += 1;
                return out;
            }
        }
    }
    // The reconstructed match set must equal a fresh query — the
    // self-verifying half of the benchmark.
    let _ = client.set_read_timeout(None);
    match client.query(pattern, WireAlgorithm::Auto) {
        Ok(answer) if answer.rows == rows => {}
        _ => out.errors += 1,
    }
    out
}

/// Runs the live-subscription experiment: sessions created, a
/// subscriber fleet parked on open `MATCH_DIFF` streams, one session
/// stormed with churn batches. Diff latency is joined per generation
/// between the writer's send log and each subscriber's receive log.
pub fn run_subscribe(cfg: &SubscribeConfig) -> Result<SubscribeReport, ServeError> {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let sessions = cfg.sessions.max(1);
    let names: Vec<String> = (0..sessions).map(|i| format!("churn-{i}")).collect();
    let mut admin = DgsClient::connect(&cfg.addr)?;
    for (i, name) in names.iter().enumerate() {
        admin.session_create(name, &churn_graph(cfg, i), &SessionOptions::default())?;
    }
    let total_subs = sessions * cfg.subscribers.max(1);
    let patterns = mixed_pattern_pool(total_subs.max(1), CHURN_LABELS, cfg.seed);
    let ready = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let mut churn = ChurnPool::new(&churn_graph(cfg, 0), cfg.seed ^ 0xC0FFEE);

    let start = Instant::now();
    let mut sends: Vec<(u64, Instant)> = Vec::with_capacity(cfg.batches);
    let mut applied = 0u64;
    let mut writer_errors = 0u64;
    let mut outcomes: Vec<(usize, SubOutcome)> = Vec::with_capacity(total_subs);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(total_subs);
        for (si, name) in names.iter().enumerate() {
            for j in 0..cfg.subscribers.max(1) {
                let idx = si * cfg.subscribers.max(1) + j;
                let pattern = &patterns[idx % patterns.len()];
                let (ready, stop) = (&ready, &stop);
                handles.push((
                    si,
                    s.spawn(move || run_subscriber(cfg, name, pattern, ready, stop)),
                ));
            }
        }
        // The writer holds until every stream is open, so every batch
        // is observable by the whole fleet.
        while ready.load(Ordering::SeqCst) < total_subs {
            std::thread::sleep(Duration::from_millis(1));
        }
        match admin.session_route(&names[0]) {
            Ok(_) => {
                for _ in 0..cfg.batches {
                    let (insert_edges, delete_edges) = churn.next_batch(cfg.ops_per_batch.max(1));
                    let sent = Instant::now();
                    match admin.request(&Request::ApplyDelta {
                        insert_edges,
                        delete_edges,
                    }) {
                        Ok(Response::DeltaApplied(summary)) => {
                            sends.push((summary.generation, sent));
                            applied += 1;
                        }
                        _ => writer_errors += 1,
                    }
                }
            }
            Err(_) => writer_errors += cfg.batches as u64,
        }
        stop.store(true, Ordering::SeqCst);
        for (si, h) in handles {
            outcomes.push((si, h.join().expect("subscriber thread panicked")));
        }
    });
    let elapsed = start.elapsed();

    let send_at: std::collections::HashMap<u64, Instant> = sends.iter().copied().collect();
    let mut histogram = LatencyHistogram::new();
    let mut diffs = 0u64;
    let mut errors = writer_errors;
    for (si, out) in &outcomes {
        errors += out.errors;
        for &(generation, at) in &out.recv {
            diffs += 1;
            if *si != 0 {
                // Idle sessions see no deltas; any push is leakage.
                errors += 1;
                continue;
            }
            match send_at.get(&generation) {
                Some(&sent) => histogram.record_duration(at.saturating_duration_since(sent)),
                // A generation the writer never produced.
                None => errors += 1,
            }
        }
    }
    for name in &names {
        let _ = admin.session_drop(name);
    }
    Ok(SubscribeReport {
        diffs,
        batches: applied,
        errors,
        elapsed,
        histogram,
    })
}
