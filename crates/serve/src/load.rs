//! The traffic-generator library behind `dgsload` (and the CI smoke
//! job): open- and closed-loop request streams against a running
//! daemon, with per-client latency recorded into the shared
//! [`LatencyHistogram`] and merged into one fleet-wide report. A run
//! is a smoke check — were all requests served, and correctly — not a
//! measurement: the repository's benchmark is `perf/`.
//!
//! * **Closed loop** — each of `clients` threads keeps exactly one
//!   request outstanding: send, await, repeat. Throughput is whatever
//!   the server sustains; latency is the server's service time plus
//!   one round trip.
//! * **Open loop** — requests are launched on a fixed schedule
//!   (`rate` per second across the fleet) regardless of completions,
//!   the way real user traffic arrives; when the server falls behind,
//!   queueing delay shows up in the tail percentiles rather than
//!   being hidden by the clients slowing down.

use crate::client::DgsClient;
use crate::error::ServeError;
use crate::proto::{Request, Response, WireAlgorithm};
use crate::transport::ServeAddr;
use dgs_graph::{generate::patterns, Pattern};
use dgs_net::LatencyHistogram;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How the generator paces requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoadMode {
    /// One outstanding request per client.
    Closed,
    /// Fleet-wide fixed arrival rate, requests per second.
    Open {
        /// Aggregate target arrival rate (req/s) across all clients.
        rate: f64,
    },
}

/// Traffic-generator configuration.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// The daemon to hammer.
    pub addr: ServeAddr,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Pacing discipline.
    pub mode: LoadMode,
    /// Every `n`-th request is an `APPLY_DELTA` instead of a query
    /// (`0` = queries only). Deltas alternate inserting and deleting
    /// a pseudo-random edge, so the graph stays near its base shape.
    pub delta_every: usize,
    /// Patterns per `QUERY_BATCH` request (`1` = plain `QUERY`).
    pub batch_size: usize,
    /// Seed for pattern selection and delta endpoints.
    pub seed: u64,
    /// The query pool, cycled per request. When empty, [`run_load`]
    /// generates a mixed pool from the daemon's graph info.
    pub patterns: Vec<Pattern>,
    /// The named session to hammer (`None` = the server default).
    /// Every client issues a `SESSION_ROUTE` right after connecting.
    pub session: Option<String>,
    /// Requests each client keeps in flight on its one connection
    /// (`1` = blocking round trips). Closed-loop throughput scales
    /// with the window because the server overlaps service time with
    /// the round trip.
    pub pipeline: usize,
    /// Issue `PING`s instead of queries — the pure protocol
    /// microbenchmark: with near-zero execution cost per request,
    /// throughput measures framing, syscalls, and scheduling, which
    /// is exactly what pipelining amortizes. (`delta_every` still
    /// applies; `batch_size` and `patterns` are ignored.)
    pub pings: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: ServeAddr::Tcp("127.0.0.1:7311".into()),
            clients: 8,
            requests_per_client: 50,
            mode: LoadMode::Closed,
            delta_every: 0,
            batch_size: 1,
            seed: 1,
            patterns: Vec::new(),
            session: None,
            pipeline: 1,
            pings: false,
        }
    }
}

/// Fleet-wide outcome of one load run.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that failed (transport errors and server-signalled
    /// errors alike). A correct serving setup reports **zero**.
    pub errors: u64,
    /// Wall-clock span of the run.
    pub elapsed: Duration,
    /// Per-request latency across the whole fleet (nanoseconds).
    pub histogram: LatencyHistogram,
    /// Sum of `cache_hits` over all answers.
    pub cache_hits: u64,
    /// Clients that could not even connect (counted in `errors` too).
    pub failed_connects: u64,
}

impl LoadReport {
    /// Completed requests per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }
}

/// splitmix64: cheap deterministic per-client randomness (no shared
/// RNG on the hot path).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A mixed pattern pool sized for cache overlap: cyclic, DAG and
/// path shapes over `labels` labels, drawn from `pool` seeds.
pub fn mixed_pattern_pool(pool: usize, labels: usize, seed: u64) -> Vec<Pattern> {
    (0..pool)
        .map(|i| {
            let s = seed.wrapping_add((i / 3) as u64);
            match i % 3 {
                0 => patterns::random_cyclic(3, 6, labels, 900 + s),
                1 => patterns::random_dag_with_depth(4, 6, 2, labels, 900 + s),
                _ => patterns::random_cyclic(4, 8, labels, 950 + s),
            }
        })
        .collect()
}

/// Runs the configured load and merges the per-client reports.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, ServeError> {
    let probe_info = {
        let mut probe = DgsClient::connect(&cfg.addr)?;
        if let Some(session) = &cfg.session {
            probe.session_route(&[session.as_str()])?;
        }
        probe.graph_info()?
    };
    let nodes = probe_info.nodes.max(1);
    let patterns = if cfg.patterns.is_empty() {
        // Derive a mixed pool from the served graph's label universe.
        let labels = (probe_info.label_bound.max(1) as usize).min(64);
        mixed_pattern_pool(12, labels, cfg.seed)
    } else {
        cfg.patterns.clone()
    };

    let start = Instant::now();
    let mut reports: Vec<ClientOutcome> = Vec::with_capacity(cfg.clients);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(cfg.clients);
        for c in 0..cfg.clients {
            let patterns = &patterns;
            handles.push(s.spawn(move || run_client(cfg, c, patterns, nodes, start)));
        }
        for h in handles {
            reports.push(h.join().expect("load client thread panicked"));
        }
    });
    let elapsed = start.elapsed();

    let mut out = LoadReport {
        completed: 0,
        errors: 0,
        elapsed,
        histogram: LatencyHistogram::new(),
        cache_hits: 0,
        failed_connects: 0,
    };
    for r in reports {
        out.completed += r.completed;
        out.errors += r.errors;
        out.cache_hits += r.cache_hits;
        out.failed_connects += u64::from(r.failed_connect);
        out.histogram.merge(&r.histogram);
    }
    Ok(out)
}

struct ClientOutcome {
    completed: u64,
    errors: u64,
    cache_hits: u64,
    histogram: LatencyHistogram,
    failed_connect: bool,
}

fn run_client(
    cfg: &LoadConfig,
    client_idx: usize,
    patterns: &[Pattern],
    nodes: u64,
    fleet_start: Instant,
) -> ClientOutcome {
    let mut out = ClientOutcome {
        completed: 0,
        errors: 0,
        cache_hits: 0,
        histogram: LatencyHistogram::new(),
        failed_connect: false,
    };
    let mut client = match DgsClient::connect(&cfg.addr) {
        Ok(c) => c,
        Err(_) => {
            // A client that cannot connect fails its whole quota.
            out.failed_connect = true;
            out.errors = cfg.requests_per_client as u64;
            return out;
        }
    };
    if let Some(session) = &cfg.session {
        // A client that cannot reach its session fails its quota the
        // same way (every request would hit NoSuchSession anyway).
        if client.session_route(&[session.as_str()]).is_err() {
            out.failed_connect = true;
            out.errors = cfg.requests_per_client as u64;
            return out;
        }
    }
    let mut rng = cfg
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(client_idx as u64 + 1);
    let batch = cfg.batch_size.max(1);
    let depth = cfg.pipeline.max(1);
    // The pipeline window: submitted requests awaiting their answers,
    // oldest first (awaited in submit order — the server may finish
    // them in any order, the client stash reorders).
    let mut window: VecDeque<(u64, Instant)> = VecDeque::with_capacity(depth);

    for i in 0..cfg.requests_per_client {
        let scheduled = if let LoadMode::Open { rate } = cfg.mode {
            // Fleet-wide schedule: this client owns arrival slots
            // client_idx, client_idx + clients, ... at 1/rate spacing.
            let slot = (i * cfg.clients + client_idx) as f64;
            let due = fleet_start + Duration::from_secs_f64(slot / rate.max(1e-9));
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            Some(due)
        } else {
            None
        };
        let is_delta = cfg.delta_every > 0 && i % cfg.delta_every == cfg.delta_every - 1;
        let req = if is_delta {
            // Alternate inserting and deleting one pseudo-random edge;
            // already-satisfied ops are "ignored", never errors.
            let u = (splitmix64(&mut rng) % nodes) as u32;
            let v = (splitmix64(&mut rng) % nodes) as u32;
            if splitmix64(&mut rng).is_multiple_of(2) {
                Request::ApplyDelta {
                    insert_edges: vec![(u, v)],
                    delete_edges: Vec::new(),
                }
            } else {
                Request::ApplyDelta {
                    insert_edges: Vec::new(),
                    delete_edges: vec![(u, v)],
                }
            }
        } else if cfg.pings {
            Request::Ping
        } else if batch > 1 {
            Request::QueryBatch {
                patterns: (0..batch)
                    .map(|_| patterns[(splitmix64(&mut rng) as usize) % patterns.len()].clone())
                    .collect(),
                algorithm: WireAlgorithm::Auto,
            }
        } else {
            Request::Query {
                pattern: patterns[(splitmix64(&mut rng) as usize) % patterns.len()].clone(),
                algorithm: WireAlgorithm::Auto,
                boolean: false,
            }
        };
        // Open-loop latency is measured from the *scheduled* arrival,
        // not the actual send: when the server falls behind and sends
        // go out late, the wait-behind-schedule is queueing delay and
        // must land in the tail percentiles (avoiding coordinated
        // omission). Closed loop measures from the send.
        let sent = scheduled.unwrap_or_else(Instant::now);
        match client.submit(&req) {
            Ok(id) => window.push_back((id, sent)),
            Err(_) => out.errors += 1,
        }
        while window.len() >= depth {
            let (id, sent) = window.pop_front().expect("window nonempty");
            let result = client.await_response(id);
            fold(result, sent, &mut out);
        }
    }
    // Drain the tail of the window.
    while let Some((id, sent)) = window.pop_front() {
        let result = client.await_response(id);
        fold(result, sent, &mut out);
    }
    out
}

/// Folds one response (pipelined or blocking) into the outcome.
fn fold(result: Result<Response, ServeError>, sent: Instant, out: &mut ClientOutcome) {
    match result {
        Err(_) => out.errors += 1,
        Ok(resp) => {
            // A per-item engine error inside an otherwise-delivered
            // batch counts as an errored request.
            let hits = match &resp {
                Response::Answer(a) => Some(a.metrics.cache_hits),
                Response::BatchAnswer { items, total } => {
                    if items.iter().any(|item| item.is_err()) {
                        None
                    } else {
                        Some(total.cache_hits)
                    }
                }
                _ => Some(0),
            };
            match hits {
                None => out.errors += 1,
                Some(hits) => {
                    out.histogram.record_duration(sent.elapsed());
                    out.cache_hits += hits;
                    out.completed += 1;
                }
            }
        }
    }
}

// ---- the connection-count sweep ---------------------------------------

/// Configuration of [`run_conn_sweep`]: the open-loop
/// connections-vs-latency experiment.
#[derive(Clone, Debug)]
pub struct ConnSweepConfig {
    /// The daemon to sweep (its `--max-conns` must admit the largest
    /// step).
    pub addr: ServeAddr,
    /// Connection counts to hold open, one step each (e.g.
    /// `[1, 10, 100, 1000, 10000]`).
    pub steps: Vec<usize>,
    /// Fleet-wide open-loop arrival rate (req/s) at every step — held
    /// **constant** across steps, so a p99 that climbs with the
    /// connection count is pure per-connection overhead in the
    /// serving core, not extra load.
    pub rate: f64,
    /// Requests issued per step (across the whole fleet).
    pub requests_per_step: usize,
    /// How many of a step's connections actively send (the rest sit
    /// idle, which is the point: idle connections must cost buffers,
    /// not threads or latency). Also bounds the sender thread count.
    pub active_senders: usize,
}

impl Default for ConnSweepConfig {
    fn default() -> Self {
        ConnSweepConfig {
            addr: ServeAddr::Tcp("127.0.0.1:7311".into()),
            steps: vec![1, 10, 100, 1000, 10_000],
            rate: 2000.0,
            requests_per_step: 4000,
            active_senders: 64,
        }
    }
}

/// One step of a connection-count sweep: the server held
/// `connections` concurrent connections while a bounded subset drove
/// open-loop traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct ConnSweepStep {
    /// Concurrent connections held open during this step.
    pub connections: u64,
    /// Completed requests per second over the step.
    pub throughput: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests (or connects) that failed.
    pub errors: u64,
}

/// Runs the sweep: per step, hold `n` connections open, drive the
/// same open-loop `PING` schedule through a bounded subset of them,
/// and record throughput and p99, one [`ConnSweepStep`] per count.
/// `PING` isolates the serving core — readiness loop, framing,
/// dispatch — from query cost.
pub fn run_conn_sweep(cfg: &ConnSweepConfig) -> Result<Vec<ConnSweepStep>, ServeError> {
    cfg.steps.iter().map(|&n| run_sweep_step(cfg, n)).collect()
}

fn run_sweep_step(cfg: &ConnSweepConfig, n: usize) -> Result<ConnSweepStep, ServeError> {
    let n = n.max(1);
    // Open and hold every connection first; a failed connect is a
    // step error the gate must see, not a silent shrink of the fleet.
    let mut clients = Vec::with_capacity(n);
    let mut connect_errors = 0u64;
    for _ in 0..n {
        match DgsClient::connect(&cfg.addr) {
            Ok(c) => clients.push(c),
            Err(_) => connect_errors += 1,
        }
    }
    let senders = clients.len().min(cfg.active_senders.max(1));
    let quota_total = cfg.requests_per_step.max(1);
    let start = Instant::now();
    let mut outcomes: Vec<ClientOutcome> = Vec::with_capacity(senders);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(senders);
        // Senders take the *front* of the fleet; the rest stay
        // connected and silent for the whole step.
        for (j, client) in clients.iter_mut().take(senders).enumerate() {
            let rate = cfg.rate;
            handles.push(s.spawn(move || {
                let mut out = ClientOutcome {
                    completed: 0,
                    errors: 0,
                    cache_hits: 0,
                    histogram: LatencyHistogram::new(),
                    failed_connect: false,
                };
                // Fleet-wide schedule: sender j owns arrival slots
                // j, j + senders, ... at 1/rate spacing.
                let mut i = j;
                while i < quota_total {
                    let due = start + Duration::from_secs_f64(i as f64 / rate.max(1e-9));
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    fold(client.request(&Request::Ping), due, &mut out);
                    i += senders;
                }
                out
            }));
        }
        for h in handles {
            outcomes.push(h.join().expect("sweep sender thread panicked"));
        }
    });
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);

    let mut completed = 0u64;
    let mut errors = connect_errors;
    let mut histogram = LatencyHistogram::new();
    for out in &outcomes {
        completed += out.completed;
        errors += out.errors;
        histogram.merge(&out.histogram);
    }
    Ok(ConnSweepStep {
        connections: n as u64,
        throughput: completed as f64 / elapsed,
        p99_us: histogram.p99() as f64 / 1000.0,
        completed,
        errors,
    })
}

// ---- live-subscription load -------------------------------------------

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
    if client.session_route(&[session]).is_err() {
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
            Ok(crate::client::SubscriptionEvent::Diff(diff)) => {
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
            Ok(crate::client::SubscriptionEvent::Event { .. }) => {
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
        admin.session_create(
            name,
            &churn_graph(cfg, i),
            &crate::proto::SessionOptions::default(),
        )?;
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
        match admin.session_route(&[names[0].as_str()]) {
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
