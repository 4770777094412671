//! The serving daemon core: a nonblocking readiness-loop server
//! hosting named [`SimEngine`] sessions behind a [`SessionManager`].
//!
//! * **Architecture** — one **event thread** owns every socket: it
//!   accepts, reads request frames into per-connection incremental
//!   buffers ([`crate::wire::FrameBuffer`]), and flushes encoded
//!   responses from per-connection write queues, multiplexed with the
//!   `poll(2)` shim in [`crate::poll`]. A small fixed **worker pool**
//!   decodes and executes requests and hands encoded response frames
//!   back through a completion queue (waking the poller via a
//!   self-pipe). A connection therefore costs two buffers, not an OS
//!   thread — 10k idle-or-bursty clients are just 10k pollfds.
//! * **Pipelining** — every request carries a varint id the response
//!   echoes, so one connection can keep many requests in flight and
//!   take answers out of order as workers finish them.
//!   `SESSION_ROUTE` and `SHUTDOWN` are ordering **barriers**: they
//!   wait for the connection's in-flight requests and block later
//!   ones until done, so a pipelined route change still applies to
//!   exactly the requests after it.
//! * **Sharing** — there is no lock around the engines on the serve
//!   path. Each engine is snapshot-isolated: queries clone the
//!   published generation snapshot and run lock-free; `APPLY_DELTA`
//!   builds the next generation off the read path and publishes it
//!   with an atomic swap.
//! * **Admission control** — at most
//!   [`ServerConfig::max_connections`] connections are served at
//!   once. A connection over the limit still gets a well-formed
//!   answer: the server completes the handshake read and replies with
//!   an `ERROR (Busy)` frame before closing — and that rejection is
//!   tracked like any other connection, so shutdown drains the `Busy`
//!   frame out in full instead of racing process exit.
//! * **Shutdown** — the `SHUTDOWN` frame (or
//!   [`ServerHandle::shutdown`]) stops accepting, then **drains**:
//!   in-flight requests finish and their responses are written in
//!   full; requests not yet started and idle connections get a typed
//!   `ShuttingDown` error frame. Only connections still unflushed
//!   after [`ServerConfig::drain_grace`] are force-closed. A client
//!   mid-request therefore sees its answer or a typed error — never a
//!   short read.

use crate::error::{ErrorCode, ServeError};
use crate::poll::{PollSet, WakeHandle, WakePipe};
use crate::proto::{
    frame, Answer, DeltaSummary, GraphInfo, Request, Response, SessionOptions, WireCacheStats,
    WireCompression, WireMetrics, WireTrace, WIRE_MAGIC, WIRE_VERSION,
};
use crate::session::{merge_answers, merge_metrics, session_info, Route, SessionManager};
use crate::subscribe::{SubObs, SubscriptionRegistry, DEFAULT_SUB_QUEUE_MAX};
use crate::transport::{Conn, Listener, ServeAddr};
use crate::wire::{encode_frame_into, split_request_id, FrameBuffer, CONN_LEVEL_ID};
use dgs_core::{Algorithm, DgsError, GraphDelta, RunReport, SimEngine};
use dgs_graph::{Graph, NodeId, Pattern, QNodeId};
use dgs_net::{Counter, Gauge, Histo, LogLevel, Logger, MetricsRegistry, MetricsSnapshot};
use dgs_partition::{bfs_partition, hash_partition, ldg_partition, tree_partition, Fragmentation};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connections served concurrently; further clients get a typed
    /// `Busy` rejection (admission-control backpressure).
    pub max_connections: usize,
    /// How long shutdown waits for in-flight requests and unflushed
    /// responses to drain before force-closing the remaining sockets.
    pub drain_grace: Duration,
    /// Threads in the request-execution worker pool (`0` = derive
    /// from the host's parallelism, clamped to 2..=8).
    pub worker_threads: usize,
    /// Requests one connection may have in flight or queued before
    /// the event loop stops reading from it (TCP backpressure).
    pub max_pipeline: usize,
    /// Push frames one subscription may have queued before it
    /// overflows: the backlog is discarded and replaced by a single
    /// terminal `SUB_EVENT(overflow)`, so a subscriber that stops
    /// reading never grows server memory unboundedly.
    pub max_sub_queue: usize,
    /// Host a live metrics registry (`METRICS` frame, text endpoint,
    /// per-request latency histograms). `false` turns every handle
    /// into a no-op and snapshots come back empty.
    pub metrics_enabled: bool,
    /// When set, a second plain-TCP listener serves the Prometheus
    /// text exposition (`GET` anything → `text/plain; version=0.0.4`)
    /// from the same event loop.
    pub metrics_addr: Option<ServeAddr>,
    /// Requests slower than this many milliseconds land in the
    /// slow-query ring dumped by the `TRACE` frame. `None` disables
    /// capture (the default); `Some(0)` traces **every** request —
    /// the ring is bounded, so that is cheap and is how `dgsq trace`
    /// is used as a flight recorder.
    pub slow_ms: Option<u64>,
    /// Stderr log verbosity (leveled, per-target rate-limited).
    pub log_level: LogLevel,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            drain_grace: Duration::from_secs(5),
            worker_threads: 0,
            max_pipeline: 128,
            max_sub_queue: DEFAULT_SUB_QUEUE_MAX,
            metrics_enabled: true,
            metrics_addr: None,
            slow_ms: None,
            log_level: LogLevel::Warn,
        }
    }
}

// Workers oversubscribe cores: requests block on I/O-ish work
// (scoped fan-out joins, delta maintenance) and a floor of 4 keeps a
// short query from queueing behind slow writes even on a 1-core box.
fn default_workers() -> usize {
    (std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        * 2)
    .clamp(4, 16)
}

/// One decoded-enough request handed to the worker pool: the frame
/// body stays raw so even `LOAD_GRAPH`-sized decodes happen off the
/// event thread.
struct Job {
    conn_id: u64,
    request_id: u64,
    ty: u8,
    body: Vec<u8>,
    route: Arc<Mutex<Route>>,
    /// True for barrier frames (`SESSION_ROUTE`/`SHUTDOWN`): the
    /// completion reopens the connection's dispatch.
    release_barrier: bool,
    /// When the event thread queued the job (worker-pool wait time).
    enqueued: Instant,
}

/// One finished request: a fully encoded response frame ready for the
/// connection's write queue.
struct Completion {
    conn_id: u64,
    frame: Vec<u8>,
    release_barrier: bool,
    wants_shutdown: bool,
}

/// The worker pool's job queue (std mutex + condvar — the only
/// blocking wait in the server).
struct JobQueue {
    inner: StdMutex<(VecDeque<Job>, bool)>,
    cv: Condvar,
}

impl JobQueue {
    fn new() -> JobQueue {
        JobQueue {
            inner: StdMutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut g = self.inner.lock().expect("job queue poisoned");
        g.0.push_back(job);
        self.cv.notify_one();
    }

    /// Blocks for the next job; `None` once closed and empty.
    fn pop(&self) -> Option<Job> {
        let mut g = self.inner.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = g.0.pop_front() {
                return Some(job);
            }
            if g.1 {
                return None;
            }
            g = self.cv.wait(g).expect("job queue poisoned");
        }
    }

    fn close(&self) {
        self.inner.lock().expect("job queue poisoned").1 = true;
        self.cv.notify_all();
    }
}

/// Recycled response-frame buffers: workers encode into a pooled
/// `Vec`, the event thread returns it after the flush — steady-state
/// serving allocates nothing per response.
struct BufferPool {
    bufs: Mutex<Vec<Vec<u8>>>,
}

/// Don't hoard buffers that ballooned on one giant answer.
const POOL_MAX_BUF: usize = 1 << 20;
/// Enough pooled buffers to cover every worker plus queued flushes.
const POOL_MAX_LEN: usize = 64;

impl BufferPool {
    fn new() -> BufferPool {
        BufferPool {
            bufs: Mutex::new(Vec::new()),
        }
    }

    fn get(&self) -> Vec<u8> {
        self.bufs.lock().pop().unwrap_or_default()
    }

    fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() > POOL_MAX_BUF {
            return;
        }
        buf.clear();
        let mut g = self.bufs.lock();
        if g.len() < POOL_MAX_LEN {
            g.push(buf);
        }
    }
}

// ---- observability ----------------------------------------------------

/// The label value for a request frame type.
fn frame_name(ty: u8) -> &'static str {
    match ty {
        frame::PING => "PING",
        frame::GRAPH_INFO => "GRAPH_INFO",
        frame::QUERY => "QUERY",
        frame::QUERY_BATCH => "QUERY_BATCH",
        frame::APPLY_DELTA => "APPLY_DELTA",
        frame::CACHE_STATS => "CACHE_STATS",
        frame::COMPRESSION_INFO => "COMPRESSION_INFO",
        frame::LOAD_GRAPH => "LOAD_GRAPH",
        frame::SHUTDOWN => "SHUTDOWN",
        frame::SESSION_CREATE => "SESSION_CREATE",
        frame::SESSION_LIST => "SESSION_LIST",
        frame::SESSION_DROP => "SESSION_DROP",
        frame::SESSION_ROUTE => "SESSION_ROUTE",
        frame::SUBSCRIBE => "SUBSCRIBE",
        frame::UNSUBSCRIBE => "UNSUBSCRIBE",
        frame::METRICS => "METRICS",
        frame::TRACE => "TRACE",
        _ => "OTHER",
    }
}

/// Every request frame type that gets its own latency series.
const REQUEST_FRAMES: [u8; 17] = [
    frame::PING,
    frame::GRAPH_INFO,
    frame::QUERY,
    frame::QUERY_BATCH,
    frame::APPLY_DELTA,
    frame::CACHE_STATS,
    frame::COMPRESSION_INFO,
    frame::LOAD_GRAPH,
    frame::SHUTDOWN,
    frame::SESSION_CREATE,
    frame::SESSION_LIST,
    frame::SESSION_DROP,
    frame::SESSION_ROUTE,
    frame::SUBSCRIBE,
    frame::UNSUBSCRIBE,
    frame::METRICS,
    frame::TRACE,
];

/// Pre-resolved metric handles for the serving hot path: every
/// increment is one atomic op on an `Arc` fixed at bind time — no
/// registry lookup per request, and a disabled registry makes each
/// handle a no-op.
struct ServerObs {
    conns_accepted: Counter,
    conns_rejected: Counter,
    accept_errors: Counter,
    requests_total: Counter,
    /// Jobs queued for the worker pool right now.
    queue_depth: Gauge,
    /// Time a job sat queued before a worker picked it up.
    worker_wait_ns: Histo,
    /// Queue + execute + encode latency, one series per frame type.
    request_ns: HashMap<u8, Histo>,
    request_ns_other: Histo,
    deltas_applied: Counter,
    delta_maintained: Counter,
    delta_invalidated: Counter,
    slow_queries: Counter,
    /// Push frames parked across every subscription queue (synced at
    /// scrape time).
    sub_queue_frames: Gauge,
}

impl ServerObs {
    fn new(reg: &MetricsRegistry) -> ServerObs {
        let request_ns = REQUEST_FRAMES
            .iter()
            .map(|&ty| {
                let name = format!("dgsd_request_ns{{frame=\"{}\"}}", frame_name(ty));
                (ty, reg.histogram(&name))
            })
            .collect();
        ServerObs {
            conns_accepted: reg.counter("dgsd_connections_accepted_total"),
            conns_rejected: reg.counter("dgsd_connections_rejected_total"),
            accept_errors: reg.counter("dgsd_accept_errors_total"),
            requests_total: reg.counter("dgsd_requests_total"),
            queue_depth: reg.gauge("dgsd_job_queue_depth"),
            worker_wait_ns: reg.histogram("dgsd_worker_wait_ns"),
            request_ns,
            request_ns_other: reg.histogram("dgsd_request_ns{frame=\"OTHER\"}"),
            deltas_applied: reg.counter("dgsd_deltas_applied_total"),
            delta_maintained: reg.counter("dgsd_delta_maintained_entries_total"),
            delta_invalidated: reg.counter("dgsd_delta_invalidated_entries_total"),
            slow_queries: reg.counter("dgsd_slow_queries_total"),
            sub_queue_frames: reg.gauge("dgsd_sub_queue_frames"),
        }
    }

    fn request_histo(&self, ty: u8) -> &Histo {
        self.request_ns.get(&ty).unwrap_or(&self.request_ns_other)
    }

    /// The subscription registry's counter handles, resolved from the
    /// same registry so they appear in the same exposition.
    fn sub_obs(reg: &MetricsRegistry) -> SubObs {
        SubObs {
            active: reg.gauge("dgsd_subscriptions_active"),
            pushed: reg.counter("dgsd_sub_diffs_pushed_total"),
            overflows: reg.counter("dgsd_sub_overflows_total"),
        }
    }
}

/// Slow requests kept for the `TRACE` frame (oldest evicted first).
const SLOW_LOG_CAP: usize = 256;

/// What `execute` learned about a request, threaded back to the
/// worker loop for the slow-query log.
#[derive(Default)]
struct TraceCapture {
    session: String,
    algorithm: String,
    plan: String,
    site_ops: Vec<u64>,
    site_msgs: Vec<u64>,
    generation: u64,
}

/// Records what the slow-query log wants from a completed run.
fn note_trace(trace: &mut TraceCapture, session: &str, report: &RunReport) {
    trace.session = session.to_owned();
    trace.algorithm = report.algorithm.to_owned();
    trace.plan = report.plan.to_string();
    trace.site_ops = report.metrics.site_ops.clone();
    trace.site_msgs = report.metrics.site_msgs.clone();
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A session name as a Prometheus label value (quotes and
/// backslashes escaped).
fn label_escape(name: &str) -> String {
    name.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Refreshes scrape-time gauges: per-session engine counters (the
/// engines own them; the registry mirrors them when someone looks)
/// and subscription queue occupancy.
fn refresh_gauges(shared: &Shared) {
    if !shared.registry.is_enabled() {
        return;
    }
    for (name, engine) in shared.sessions.list() {
        let stats = engine.stats();
        let label = label_escape(&name);
        let set = |family: &str, v: u64| {
            shared
                .registry
                .gauge(&format!("{family}{{session=\"{label}\"}}"))
                .set(v);
        };
        set("dgsd_session_generation", engine.generation());
        set("dgsd_session_queries", stats.queries());
        set("dgsd_session_cache_hits", stats.cache_hits());
        set("dgsd_session_deltas", stats.deltas());
    }
    shared
        .obs
        .sub_queue_frames
        .set(shared.subs.queued_frames() as u64);
}

/// State shared between the event thread, the worker pool and
/// [`ServerHandle`]s.
struct Shared {
    sessions: Arc<SessionManager>,
    shutdown: AtomicBool,
    served: AtomicU64,
    rejected: AtomicU64,
    addr: ServeAddr,
    max_connections: usize,
    drain_grace: Duration,
    max_pipeline: usize,
    worker_threads: usize,
    jobs: JobQueue,
    completions: Mutex<Vec<Completion>>,
    pool: BufferPool,
    wake: WakeHandle,
    /// Live match subscriptions.
    subs: SubscriptionRegistry,
    /// Connections that gained queued push frames since the event
    /// loop last looked; workers push here and wake the poller.
    sub_dirty: Mutex<Vec<u64>>,
    /// The server-wide metrics registry (`disabled()` when metrics
    /// are off — every handle is then a no-op).
    registry: MetricsRegistry,
    /// Pre-resolved hot-path handles into `registry`.
    obs: ServerObs,
    /// The slow-query ring (bounded at [`SLOW_LOG_CAP`]).
    slow_log: Mutex<VecDeque<WireTrace>>,
    /// Slow-query threshold in nanoseconds; `None` = capture off,
    /// `Some(0)` = trace everything.
    slow_ns: Option<u64>,
    /// Leveled, rate-limited stderr logger.
    log: Logger,
    /// The text-exposition endpoint's resolved address, when bound.
    metrics_addr: Option<ServeAddr>,
}

/// A bound, not-yet-running server. [`Server::run`] blocks;
/// [`Server::spawn`] runs it on a background thread and returns a
/// [`ServerHandle`].
pub struct Server {
    listener: Listener,
    /// The optional Prometheus text-exposition listener, polled by
    /// the same event loop.
    metrics_listener: Option<Listener>,
    wake_pipe: WakePipe,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` and hosts `engine` as the `"default"` session.
    pub fn bind(addr: &ServeAddr, engine: SimEngine, cfg: ServerConfig) -> io::Result<Server> {
        let listener = Listener::bind(addr)?;
        let resolved = listener.local_addr()?;
        let metrics_listener = match &cfg.metrics_addr {
            Some(maddr) => Some(Listener::bind(maddr)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let registry = if cfg.metrics_enabled {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        };
        let obs = ServerObs::new(&registry);
        let sub_obs = ServerObs::sub_obs(&registry);
        let wake_pipe = WakePipe::new()?;
        let wake = wake_pipe.handle();
        Ok(Server {
            listener,
            metrics_listener,
            wake_pipe,
            shared: Arc::new(Shared {
                sessions: Arc::new(SessionManager::new(engine)),
                shutdown: AtomicBool::new(false),
                served: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                addr: resolved,
                max_connections: cfg.max_connections,
                drain_grace: cfg.drain_grace,
                max_pipeline: cfg.max_pipeline.max(1),
                worker_threads: if cfg.worker_threads == 0 {
                    default_workers()
                } else {
                    cfg.worker_threads
                },
                jobs: JobQueue::new(),
                completions: Mutex::new(Vec::new()),
                pool: BufferPool::new(),
                wake,
                subs: SubscriptionRegistry::with_obs(cfg.max_sub_queue, sub_obs),
                sub_dirty: Mutex::new(Vec::new()),
                registry,
                obs,
                slow_log: Mutex::new(VecDeque::new()),
                slow_ns: cfg.slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
                log: Logger::new(cfg.log_level),
                metrics_addr,
            }),
        })
    }

    /// The bound address (ephemeral port resolved).
    pub fn local_addr(&self) -> ServeAddr {
        self.shared.addr.clone()
    }

    /// The `"default"` session's engine, shared with every connection
    /// (tests use this as the in-process oracle handle).
    ///
    /// # Panics
    /// If the default session was dropped or replaced via the wire.
    pub fn engine(&self) -> Arc<SimEngine> {
        self.shared
            .sessions
            .get(crate::session::DEFAULT_SESSION)
            .expect("default session is hosted")
    }

    /// The session registry (add sessions before `run`/`spawn`, or
    /// concurrently — the map is its own synchronization).
    pub fn sessions(&self) -> Arc<SessionManager> {
        Arc::clone(&self.shared.sessions)
    }

    /// Where the Prometheus text exposition will be served, when
    /// [`ServerConfig::metrics_addr`] was set (ephemeral port
    /// resolved).
    pub fn metrics_addr(&self) -> Option<&ServeAddr> {
        self.shared.metrics_addr.as_ref()
    }

    /// Serves until a `SHUTDOWN` frame arrives (or
    /// [`ServerHandle::shutdown`] is called on a spawned server).
    /// Returns after the drain completes and the worker pool exits.
    pub fn run(self) -> io::Result<()> {
        let shared = self.shared;
        let workers: Vec<_> = (0..shared.worker_threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let result = event_loop(
            &self.listener,
            self.metrics_listener.as_ref(),
            self.wake_pipe,
            &shared,
        );
        shared.jobs.close();
        for w in workers {
            let _ = w.join();
        }
        if let ServeAddr::Unix(path) = &shared.addr {
            let _ = std::fs::remove_file(path);
        }
        result
    }

    /// Runs the server on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            shared,
            thread,
        }
    }
}

/// A running, spawned server.
pub struct ServerHandle {
    addr: ServeAddr,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// What clients should dial.
    pub fn addr(&self) -> &ServeAddr {
        &self.addr
    }

    /// The `"default"` session's engine (the tests' oracle handle).
    ///
    /// # Panics
    /// If the default session was dropped or replaced via the wire.
    pub fn engine(&self) -> Arc<SimEngine> {
        self.shared
            .sessions
            .get(crate::session::DEFAULT_SESSION)
            .expect("default session is hosted")
    }

    /// The session registry.
    pub fn sessions(&self) -> Arc<SessionManager> {
        Arc::clone(&self.shared.sessions)
    }

    /// Connections rejected by admission control so far.
    pub fn rejected_connections(&self) -> u64 {
        self.shared.rejected.load(Ordering::SeqCst)
    }

    /// Requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Subscriptions currently live across every connection
    /// (overflowed-but-undrained ones no longer count).
    pub fn live_subscriptions(&self) -> usize {
        self.shared.subs.live_count()
    }

    /// A live snapshot of the server metrics registry, with the
    /// scrape-time gauges (per-session engine counters, subscription
    /// queue occupancy) refreshed first. Empty when metrics are
    /// disabled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        refresh_gauges(&self.shared);
        self.shared.registry.snapshot()
    }

    /// Where the Prometheus text exposition is served, when
    /// [`ServerConfig::metrics_addr`] was set (ephemeral port
    /// resolved).
    pub fn metrics_addr(&self) -> Option<&ServeAddr> {
        self.shared.metrics_addr.as_ref()
    }

    /// Stops the server (drain, then force-close) and joins it.
    pub fn shutdown(self) -> io::Result<()> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake.wake();
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

// ---- the worker pool --------------------------------------------------

/// Pulls jobs until the queue closes: decode, execute, encode the
/// response into a pooled frame buffer, hand it back, wake the
/// poller. A panicking request (a shard bug, a pathological pattern)
/// becomes a typed `Internal` error instead of a dead worker.
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.jobs.pop() {
        let queue_ns = elapsed_ns(job.enqueued);
        shared.obs.queue_depth.dec();
        shared.obs.worker_wait_ns.record(queue_ns);
        let exec_start = Instant::now();
        let mut trace = TraceCapture::default();
        let (resp, wants_shutdown) = match Request::decode(job.ty, &job.body) {
            Ok(req) => {
                let wants_shutdown = matches!(req, Request::Shutdown);
                let resp = catch_unwind(AssertUnwindSafe(|| {
                    execute(&req, shared, &job.route, job.conn_id, &mut trace)
                }))
                .unwrap_or_else(|_| Response::Error {
                    code: ErrorCode::Internal,
                    message: "request execution panicked on the server".into(),
                });
                (resp, wants_shutdown)
            }
            // Frames are length-delimited, so the stream is still in
            // sync: report and keep serving.
            Err(e) => (
                Response::Error {
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                },
                false,
            ),
        };
        let exec_ns = elapsed_ns(exec_start);
        let encode_start = Instant::now();
        let mut buf = shared.pool.get();
        let id = Some(job.request_id);
        if encode_frame_into(&mut buf, id, |b| resp.encode_into(b)).is_err() {
            // The answer outgrew MAX_FRAME; the error that replaces it
            // cannot (it is a short string).
            let resp = Response::Error {
                code: ErrorCode::Internal,
                message: "response exceeded the maximum frame size".into(),
            };
            encode_frame_into(&mut buf, id, |b| resp.encode_into(b))
                .expect("error frame fits MAX_FRAME");
        }
        let encode_ns = elapsed_ns(encode_start);
        let total_ns = queue_ns.saturating_add(exec_ns).saturating_add(encode_ns);
        shared.obs.requests_total.inc();
        shared.obs.request_histo(job.ty).record(total_ns);
        if shared.slow_ns.is_some_and(|ns| total_ns >= ns) {
            shared.obs.slow_queries.inc();
            shared.log.warn(
                "slow",
                &format!(
                    "{} took {:.1} ms (queue {:.1} ms, exec {:.1} ms) on conn {}",
                    frame_name(job.ty),
                    total_ns as f64 / 1e6,
                    queue_ns as f64 / 1e6,
                    exec_ns as f64 / 1e6,
                    job.conn_id
                ),
            );
            let mut slow = shared.slow_log.lock();
            if slow.len() == SLOW_LOG_CAP {
                slow.pop_front();
            }
            slow.push_back(WireTrace {
                conn_id: job.conn_id,
                request_id: job.request_id,
                ty: job.ty,
                session: trace.session,
                queue_ns,
                exec_ns,
                encode_ns,
                total_ns,
                algorithm: trace.algorithm,
                plan: trace.plan,
                site_ops: trace.site_ops,
                site_msgs: trace.site_msgs,
                generation: trace.generation,
            });
        }
        shared.served.fetch_add(1, Ordering::SeqCst);
        shared.completions.lock().push(Completion {
            conn_id: job.conn_id,
            frame: buf,
            release_barrier: job.release_barrier,
            wants_shutdown,
        });
        shared.wake.wake();
    }
}

// ---- the event loop ---------------------------------------------------

/// How long a fresh connection may sit before completing the
/// handshake (slow-loris guard; pre-handshake sockets hold no route
/// or session state, so cutting them is free).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

enum Phase {
    /// Waiting for `HELLO`; cut at `deadline`. `reject` marks an
    /// over-capacity connection whose `HELLO` gets `Busy`.
    Handshake { deadline: Instant, reject: bool },
    /// Handshake done: every frame from here on carries a request id.
    Serving,
}

/// Per-connection event-loop state: buffers, not a thread.
struct ConnState {
    conn: Conn,
    phase: Phase,
    rbuf: FrameBuffer,
    /// Encoded frames awaiting flush; `out_pos` indexes into the
    /// front frame (partial writes are routine under poll).
    out: VecDeque<Vec<u8>>,
    out_pos: usize,
    /// Parsed requests not yet dispatched to the worker pool.
    pending: VecDeque<(u64, u8, Vec<u8>)>,
    in_flight: usize,
    /// A barrier frame (`SESSION_ROUTE`/`SHUTDOWN`) is executing;
    /// dispatch is paused until its completion releases it.
    barrier: bool,
    route: Arc<Mutex<Route>>,
    /// No more reads; flush `out` and whatever is in flight, then
    /// close.
    closing: bool,
    /// The final drain-time `ShuttingDown` notice was queued.
    notified_shutdown: bool,
}

impl ConnState {
    fn new(conn: Conn, reject: bool) -> ConnState {
        ConnState {
            conn,
            phase: Phase::Handshake {
                deadline: Instant::now() + HANDSHAKE_TIMEOUT,
                reject,
            },
            rbuf: FrameBuffer::new(),
            out: VecDeque::new(),
            out_pos: 0,
            pending: VecDeque::new(),
            in_flight: 0,
            barrier: false,
            route: Arc::new(Mutex::new(Route::default())),
            closing: false,
            notified_shutdown: false,
        }
    }

    fn rejecting(&self) -> bool {
        matches!(self.phase, Phase::Handshake { reject: true, .. })
    }

    /// Work left that the drain must wait for.
    fn draining(&self) -> bool {
        self.in_flight > 0 || !self.pending.is_empty() || !self.out.is_empty()
    }

    /// Queues one encoded response frame (an owned, non-pooled error
    /// or handshake frame). `id` is `None` only before `WELCOME`;
    /// afterwards unsolicited server frames use [`CONN_LEVEL_ID`].
    fn push_frame(&mut self, id: Option<u64>, resp: &Response) {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, id, |b| resp.encode_into(b)).expect("small frame fits");
        self.out.push_back(buf);
    }
}

enum Token {
    Wake,
    Listener,
    Conn(u64),
    MetricsListener,
    MetricsConn(u64),
}

/// One plain-HTTP scrape connection on the metrics endpoint: read
/// until the header terminator (or EOF), write one `text/plain`
/// exposition, close. No keep-alive — scrapers open a fresh
/// connection per scrape, and a half-open peer is cut at `deadline`.
struct MetricsConn {
    conn: Conn,
    rbuf: Vec<u8>,
    out: Vec<u8>,
    out_pos: usize,
    deadline: Instant,
    responded: bool,
}

fn event_loop(
    listener: &Listener,
    metrics: Option<&Listener>,
    mut wake_pipe: WakePipe,
    shared: &Shared,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    if let Some(m) = metrics {
        m.set_nonblocking(true)?;
    }
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut mconns: HashMap<u64, MetricsConn> = HashMap::new();
    let mut next_mconn: u64 = 0;
    let mut next_conn: u64 = 0;
    // Admitted (non-rejecting) connections, tracked incrementally so
    // admission control is O(1) per accept.
    let mut admitted: usize = 0;
    let mut poll = PollSet::new();
    let mut tokens: Vec<Token> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;
    // Connections whose queues changed this iteration and want an
    // opportunistic flush without waiting for the next poll round.
    let mut touched: Vec<u64> = Vec::new();

    loop {
        let shutting = shared.shutdown.load(Ordering::SeqCst);
        if shutting && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + shared.drain_grace);
            // One final accept sweep: peers whose connect() already
            // succeeded against the kernel backlog deserve a typed
            // `Busy`/`ShuttingDown` answer to their HELLO, not the
            // reset they would get when the listener closes.
            accept_burst(listener, shared, &mut conns, &mut next_conn, &mut admitted);
            for (&id, c) in conns.iter_mut() {
                begin_drain(id, c, shared);
            }
        }
        // Sweep: drop connections that finished (or died), answer the
        // drain notice once a draining connection's last response
        // lands, and enforce deadlines.
        let now = Instant::now();
        let force_close = matches!(drain_deadline, Some(dl) if now >= dl);
        conns.retain(|&id, c| {
            if shutting && !c.notified_shutdown && c.in_flight == 0 && c.pending.is_empty() {
                begin_drain(id, c, shared);
            }
            let expired = match c.phase {
                Phase::Handshake { deadline, .. } => now >= deadline,
                Phase::Serving => false,
            };
            let done = c.closing && !c.draining();
            if force_close || expired || done {
                if !c.rejecting() {
                    admitted -= 1;
                }
                for buf in c.out.drain(..) {
                    shared.pool.put(buf);
                }
                // A dead socket's subscriptions go with it (nothing to
                // notify — there is no peer left to read the event).
                shared.subs.drop_conn(id);
                false
            } else {
                true
            }
        });
        // Scrape connections never block shutdown: they are dropped
        // once draining starts, finished ones leave, half-open ones
        // are cut at their deadline.
        mconns.retain(|_, m| {
            let done = m.responded && m.out_pos >= m.out.len() && !m.out.is_empty();
            !(shutting || done || now >= m.deadline)
        });
        if shutting && conns.is_empty() {
            return Ok(());
        }

        poll.clear();
        tokens.clear();
        poll.push(wake_pipe.poll_fd(), true, false);
        tokens.push(Token::Wake);
        if !shutting {
            poll.push(listener.as_raw_fd(), true, false);
            tokens.push(Token::Listener);
            if let Some(m) = metrics {
                poll.push(m.as_raw_fd(), true, false);
                tokens.push(Token::MetricsListener);
            }
        }
        for (&id, m) in mconns.iter() {
            poll.push(m.conn.as_raw_fd(), !m.responded, !m.out.is_empty());
            tokens.push(Token::MetricsConn(id));
        }
        for (&id, c) in conns.iter() {
            let want_read = !c.closing && c.pending.len() + c.in_flight < shared.max_pipeline;
            let want_write = !c.out.is_empty();
            if want_read || want_write {
                poll.push(c.conn.as_raw_fd(), want_read, want_write);
                tokens.push(Token::Conn(id));
            }
        }
        // Deadlines (handshake cutoffs, the drain grace) need the
        // poller to wake without fd activity.
        let timeout = if drain_deadline.is_some()
            || !mconns.is_empty()
            || conns
                .values()
                .any(|c| matches!(c.phase, Phase::Handshake { .. }))
        {
            Some(Duration::from_millis(100))
        } else {
            None
        };
        poll.poll(timeout)?;

        touched.clear();
        for (idx, tok) in tokens.iter().enumerate() {
            match tok {
                Token::Wake => {
                    if poll.readable(idx) {
                        wake_pipe.drain();
                    }
                }
                Token::Listener => {
                    if poll.readable(idx) {
                        accept_burst(listener, shared, &mut conns, &mut next_conn, &mut admitted);
                    }
                }
                Token::Conn(id) => {
                    if poll.readable(idx) {
                        if let Some(c) = conns.get_mut(id) {
                            handle_read(*id, c, shared, shutting);
                        }
                    }
                    touched.push(*id);
                }
                Token::MetricsListener => {
                    if poll.readable(idx) {
                        if let Some(m) = metrics {
                            accept_metrics(m, &mut mconns, &mut next_mconn);
                        }
                    }
                }
                Token::MetricsConn(id) => {
                    if let Some(m) = mconns.get_mut(id) {
                        if service_metrics_conn(m, shared, poll.readable(idx)).is_err() {
                            mconns.remove(id);
                        }
                    }
                }
            }
        }
        // Completions: append encoded responses to their connections'
        // write queues (responses for connections that died mid-query
        // recycle straight back to the pool).
        for comp in shared.completions.lock().drain(..) {
            if comp.wants_shutdown {
                shared.shutdown.store(true, Ordering::SeqCst);
            }
            match conns.get_mut(&comp.conn_id) {
                Some(c) => {
                    c.in_flight -= 1;
                    if comp.release_barrier {
                        c.barrier = false;
                    }
                    c.out.push_back(comp.frame);
                    pump_dispatch(comp.conn_id, c, shared, shutting);
                    touched.push(comp.conn_id);
                }
                None => shared.pool.put(comp.frame),
            }
        }
        // Subscription pushes: workers queued MATCH_DIFF/SUB_EVENT
        // frames in the registry and marked their connections dirty;
        // move them into the write queues here (the event thread is
        // the only socket writer).
        let dirty: Vec<u64> = std::mem::take(&mut *shared.sub_dirty.lock());
        for id in dirty {
            match conns.get_mut(&id) {
                Some(c) if !c.closing => {
                    pump_subscriptions(id, c, shared);
                    touched.push(id);
                }
                _ => shared.subs.drop_conn(id),
            }
        }
        // Opportunistic flush: most responses go out here, in the
        // same iteration they were produced, saving a poll round.
        // After a full flush, pull any push frames still parked in
        // the registry (they were gated on the out-queue length) and
        // flush again, so a draining socket keeps its diff stream
        // moving without waiting for the next delta.
        for id in touched.drain(..) {
            if let Some(c) = conns.get_mut(&id) {
                loop {
                    if flush_writes(c, shared).is_err() {
                        c.closing = true;
                        c.out.clear();
                        c.pending.clear();
                        break;
                    }
                    if c.closing || !c.out.is_empty() || !shared.subs.has_frames(id) {
                        break;
                    }
                    pump_subscriptions(id, c, shared);
                }
            }
        }
    }
}

/// Write-queue gate for push frames: a subscription burst fills the
/// out queue at most this far, leaving the rest parked in the
/// registry's bounded per-subscription queues.
const SUB_PUMP_GATE: usize = 64;

/// Moves queued push frames of `conn_id` into its write queue, up to
/// the gate.
fn pump_subscriptions(conn_id: u64, c: &mut ConnState, shared: &Shared) {
    while c.out.len() < SUB_PUMP_GATE {
        let budget = SUB_PUMP_GATE - c.out.len();
        let frames = shared.subs.take_frames(conn_id, budget);
        if frames.is_empty() {
            return;
        }
        c.out.extend(frames);
    }
}

/// Accepts pending scrape connections on the metrics listener.
fn accept_metrics(listener: &Listener, mconns: &mut HashMap<u64, MetricsConn>, next: &mut u64) {
    loop {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // WouldBlock or a transient failure: the next poll round
            // retries; scrapes are best-effort.
            Err(_) => return,
        };
        if conn.set_nonblocking(true).is_err() {
            continue;
        }
        let id = *next;
        *next += 1;
        mconns.insert(
            id,
            MetricsConn {
                conn,
                rbuf: Vec::new(),
                out: Vec::new(),
                out_pos: 0,
                deadline: Instant::now() + HANDSHAKE_TIMEOUT,
                responded: false,
            },
        );
    }
}

/// Drives one scrape connection: read until the request headers end
/// (or EOF), render the exposition once, flush. `Err` means the
/// socket is finished — flushed in full or failed — and should be
/// dropped either way.
fn service_metrics_conn(m: &mut MetricsConn, shared: &Shared, readable: bool) -> Result<(), ()> {
    if readable && !m.responded {
        let mut chunk = [0u8; 4096];
        loop {
            match m.conn.read(&mut chunk) {
                // EOF before the headers ended: answer what we have —
                // `nc addr port < /dev/null` still gets the text.
                Ok(0) => {
                    m.responded = true;
                    break;
                }
                Ok(n) => {
                    m.rbuf.extend_from_slice(&chunk[..n]);
                    if m.rbuf.len() > 16 * 1024 {
                        return Err(()); // not a scrape request
                    }
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        if m.rbuf.windows(4).any(|w| w == b"\r\n\r\n") {
            m.responded = true;
        }
        if m.responded {
            refresh_gauges(shared);
            let body = shared.registry.snapshot().to_text();
            m.out = format!(
                "HTTP/1.0 200 OK\r\n\
                 Content-Type: text/plain; version=0.0.4\r\n\
                 Content-Length: {}\r\n\
                 Connection: close\r\n\r\n{body}",
                body.len()
            )
            .into_bytes();
        }
    }
    while m.out_pos < m.out.len() {
        match m.conn.write(&m.out[m.out_pos..]) {
            Ok(0) => return Err(()),
            Ok(n) => m.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    if m.responded && !m.out.is_empty() {
        Err(()) // fully flushed: close
    } else {
        Ok(())
    }
}

/// Accepts until `WouldBlock`; over-capacity connections are admitted
/// far enough to answer their handshake with `Busy`.
fn accept_burst(
    listener: &Listener,
    shared: &Shared,
    conns: &mut HashMap<u64, ConnState>,
    next_conn: &mut u64,
    admitted: &mut usize,
) {
    loop {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                // Transient accept failures (fd exhaustion under
                // churn, aborted connections) must not take the whole
                // daemon down with every in-flight session.
                shared.obs.accept_errors.inc();
                shared
                    .log
                    .warn("accept", &format!("accept failed ({e}); continuing"));
                return;
            }
        };
        if conn.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = conn.set_nodelay();
        let reject = *admitted >= shared.max_connections;
        if !reject {
            *admitted += 1;
        }
        shared.obs.conns_accepted.inc();
        let id = *next_conn;
        *next_conn += 1;
        conns.insert(id, ConnState::new(conn, reject));
    }
}

/// Reads everything the socket has, then parses and routes the
/// complete frames.
fn handle_read(conn_id: u64, c: &mut ConnState, shared: &Shared, shutting: bool) {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match c.conn.read(&mut chunk) {
            Ok(0) => {
                // Peer closed its write side: no more requests, but
                // in-flight responses still flush.
                c.closing = true;
                break;
            }
            Ok(n) => {
                c.rbuf.extend(&chunk[..n]);
                if n < chunk.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                c.closing = true;
                c.out.clear();
                c.pending.clear();
                return;
            }
        }
    }
    loop {
        match c.rbuf.next_frame() {
            Ok(Some((ty, payload))) => process_frame(conn_id, c, shared, shutting, ty, &payload),
            Ok(None) => break,
            Err(e) => {
                // Framing-level corruption (an oversized length):
                // unlike a bad payload, the stream cannot resync —
                // report once and hang up.
                c.push_frame(
                    matches!(c.phase, Phase::Serving).then_some(CONN_LEVEL_ID),
                    &Response::Error {
                        code: ErrorCode::Malformed,
                        message: ServeError::from(e).to_string(),
                    },
                );
                c.closing = true;
                break;
            }
        }
        if c.closing {
            break;
        }
    }
}

/// Handles one complete inbound frame: handshake, or queue-and-pump.
fn process_frame(
    conn_id: u64,
    c: &mut ConnState,
    shared: &Shared,
    shutting: bool,
    ty: u8,
    payload: &[u8],
) {
    match c.phase {
        Phase::Handshake { reject, .. } => {
            // HELLO(magic, client max version). Trailing bytes after
            // the version are *tolerated* (a future client's
            // extensions), not rejected: forward compatibility is the
            // whole point of the version byte. A client above
            // WIRE_VERSION is answered at WIRE_VERSION; one below it
            // gets a typed refusal — one protocol is served.
            if ty != frame::HELLO || payload.len() < 5 || payload[..4] != WIRE_MAGIC {
                c.push_frame(
                    None,
                    &Response::Error {
                        code: ErrorCode::Malformed,
                        message: "expected HELLO(magic, version)".into(),
                    },
                );
                c.closing = true;
                return;
            }
            let theirs = payload[4];
            if theirs < WIRE_VERSION {
                c.push_frame(
                    None,
                    &Response::Error {
                        code: ErrorCode::Unsupported,
                        message: format!(
                            "peer offered protocol v{theirs}; this server speaks v{WIRE_VERSION}"
                        ),
                    },
                );
                c.closing = true;
                return;
            }
            if reject {
                // Admission control: a typed Busy answer, drained in
                // full even when shutdown races the flush.
                shared.rejected.fetch_add(1, Ordering::SeqCst);
                shared.obs.conns_rejected.inc();
                c.push_frame(
                    None,
                    &Response::Error {
                        code: ErrorCode::Busy,
                        message: "server at connection capacity, retry later".into(),
                    },
                );
                c.closing = true;
                return;
            }
            if shutting {
                c.push_frame(
                    None,
                    &Response::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "server is shutting down".into(),
                    },
                );
                c.closing = true;
                return;
            }
            let mut welcome = Vec::with_capacity(5);
            welcome.extend_from_slice(&WIRE_MAGIC);
            welcome.push(WIRE_VERSION);
            let mut buf = Vec::new();
            buf.extend_from_slice(&(welcome.len() as u32).to_le_bytes());
            buf.push(frame::WELCOME);
            buf.extend_from_slice(&welcome);
            c.out.push_back(buf);
            c.phase = Phase::Serving;
        }
        Phase::Serving => {
            let (id, body) = match split_request_id(payload) {
                Ok((id, rest)) => (id, rest.to_vec()),
                Err(e) => {
                    c.push_frame(
                        Some(CONN_LEVEL_ID),
                        &Response::Error {
                            code: ErrorCode::Malformed,
                            message: e.to_string(),
                        },
                    );
                    c.closing = true;
                    return;
                }
            };
            c.pending.push_back((id, ty, body));
            pump_dispatch(conn_id, c, shared, shutting);
        }
    }
}

/// Moves pending requests into the worker pool, respecting the
/// pipeline cap and barrier frames. During a drain, undispatched
/// requests are answered with a typed `ShuttingDown` instead.
fn pump_dispatch(conn_id: u64, c: &mut ConnState, shared: &Shared, shutting: bool) {
    if shutting {
        while let Some((id, _, _)) = c.pending.pop_front() {
            c.push_frame(
                Some(id),
                &Response::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "server is shutting down".into(),
                },
            );
        }
        return;
    }
    while !c.barrier && c.in_flight < shared.max_pipeline {
        let Some(&(_, ty, _)) = c.pending.front() else {
            break;
        };
        // Barriers serialize against everything on this connection:
        // a pipelined SESSION_ROUTE applies to exactly the requests
        // behind it, and a SHUTDOWN response follows the answers of
        // the requests ahead of it.
        let is_barrier = ty == frame::SESSION_ROUTE || ty == frame::SHUTDOWN;
        if is_barrier && c.in_flight > 0 {
            break;
        }
        let (id, ty, body) = c.pending.pop_front().expect("front exists");
        c.in_flight += 1;
        c.barrier = is_barrier;
        shared.obs.queue_depth.inc();
        shared.jobs.push(Job {
            conn_id,
            request_id: id,
            ty,
            body,
            route: Arc::clone(&c.route),
            release_barrier: is_barrier,
            enqueued: Instant::now(),
        });
    }
}

/// Marks a connection for drain: undispatched requests answer
/// `ShuttingDown`; once nothing is in flight, every live
/// subscription gets a terminal `SUB_EVENT(draining)`, then one final
/// connection-level `ShuttingDown` notice goes out and the
/// connection closes after the flush.
fn begin_drain(conn_id: u64, c: &mut ConnState, shared: &Shared) {
    match c.phase {
        Phase::Handshake { reject, .. } => {
            // Nothing was promised yet — except a queued Busy frame,
            // which `draining()` keeps alive until flushed.
            if !reject {
                c.closing = true;
            }
        }
        Phase::Serving => {
            while let Some((id, _, _)) = c.pending.pop_front() {
                c.push_frame(
                    Some(id),
                    &Response::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "server is shutting down".into(),
                    },
                );
            }
            if c.in_flight == 0 && !c.notified_shutdown {
                c.notified_shutdown = true;
                // Pending diffs first, then the typed drain event per
                // subscription, then the connection-level notice — the
                // client sees a complete, terminated stream.
                pump_subscriptions(conn_id, c, shared);
                for frame in shared.subs.drain_conn(conn_id) {
                    c.out.push_back(frame);
                }
                c.push_frame(
                    Some(CONN_LEVEL_ID),
                    &Response::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "server is shutting down".into(),
                    },
                );
                c.closing = true;
            }
        }
    }
}

/// Writes as much of the out queue as the socket takes; fully flushed
/// frames recycle to the buffer pool. Queued frames go to the kernel
/// as one gather-write (`writev`) — under pipelining a burst of
/// responses costs one syscall, not one per frame.
fn flush_writes(c: &mut ConnState, shared: &Shared) -> io::Result<()> {
    const IOV_BATCH: usize = 64;
    while !c.out.is_empty() {
        let mut iov: Vec<io::IoSlice<'_>> = Vec::with_capacity(c.out.len().min(IOV_BATCH));
        for (i, buf) in c.out.iter().take(IOV_BATCH).enumerate() {
            let skip = if i == 0 { c.out_pos } else { 0 };
            iov.push(io::IoSlice::new(&buf[skip..]));
        }
        match c.conn.write_vectored(&iov) {
            Ok(0) => return Err(io::Error::other("socket write returned 0")),
            Ok(mut n) => {
                n += c.out_pos;
                c.out_pos = 0;
                while let Some(front) = c.out.front() {
                    if n < front.len() {
                        c.out_pos = n;
                        break;
                    }
                    n -= front.len();
                    let buf = c.out.pop_front().expect("front exists");
                    shared.pool.put(buf);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

// ---- request execution ------------------------------------------------

fn dgs_error(e: &DgsError) -> Response {
    Response::Error {
        code: ErrorCode::of_dgs(e),
        message: e.to_string(),
    }
}

fn no_such_session(name: &str) -> Response {
    Response::Error {
        code: ErrorCode::NoSuchSession,
        message: format!("no session named {name:?} is hosted"),
    }
}

fn single_target_only(what: &str, n: usize) -> Response {
    Response::Error {
        code: ErrorCode::Unsupported,
        message: format!(
            "{what} needs a single-session route, but this connection is routed to {n} sessions; \
             SESSION_ROUTE to one session first"
        ),
    }
}

/// Converts a run report into its wire answer (full relation rows).
fn answer_of_report(report: &RunReport) -> Answer {
    let rows = (0..report.relation.query_nodes())
        .map(|u| {
            report
                .relation
                .matches_of(QNodeId(u as u16))
                .iter()
                .map(|v| v.0)
                .collect()
        })
        .collect();
    Answer {
        rows,
        is_match: report.is_match,
        algorithm: report.algorithm.to_owned(),
        plan: report.plan.to_string(),
        metrics: WireMetrics::of_run(&report.metrics),
    }
}

/// Resolves a route snapshot, mapping a missing session to its typed
/// error (boxed: the happy path should not pay for the error
/// variant's size).
#[allow(clippy::type_complexity)]
fn resolve(shared: &Shared, route: &Route) -> Result<Vec<(String, Arc<SimEngine>)>, Box<Response>> {
    match shared.sessions.resolve(route) {
        Ok(engines) if engines.is_empty() => Err(Box::new(Response::Error {
            code: ErrorCode::NoSuchSession,
            message: "no sessions are hosted (all were dropped)".into(),
        })),
        Ok(engines) => Ok(engines),
        Err(name) => Err(Box::new(no_such_session(&name))),
    }
}

/// Runs `f` once per routed shard concurrently. A shard error — or a
/// shard *panic*, which must answer a typed error rather than kill
/// the connection — wins over the other shards' answers.
fn fan_out<T, F>(engines: &[(String, Arc<SimEngine>)], f: F) -> Result<Vec<T>, Box<Response>>
where
    T: Send,
    F: Fn(&SimEngine) -> Result<T, DgsError> + Sync,
{
    let joined: Vec<std::thread::Result<Result<T, DgsError>>> = std::thread::scope(|s| {
        let handles: Vec<_> = engines
            .iter()
            .map(|(_, engine)| s.spawn(|| f(engine)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut out = Vec::with_capacity(joined.len());
    for (result, (name, _)) in joined.into_iter().zip(engines) {
        match result {
            Ok(Ok(v)) => out.push(v),
            Ok(Err(e)) => return Err(Box::new(dgs_error(&e))),
            Err(_) => {
                return Err(Box::new(Response::Error {
                    code: ErrorCode::Internal,
                    message: format!("shard query panicked in session {name:?}"),
                }));
            }
        }
    }
    Ok(out)
}

/// Runs one data-selecting query on every routed shard concurrently
/// and merges the relations (see [`crate::session::merge_answers`]).
fn fan_out_query(
    engines: &[(String, Arc<SimEngine>)],
    algo: &Algorithm,
    pattern: &Pattern,
) -> Response {
    match fan_out(engines, |engine| {
        engine
            .query_with(algo, pattern)
            .map(|r| answer_of_report(&r))
    }) {
        Ok(parts) => Response::Answer(merge_answers(&parts)),
        Err(resp) => *resp,
    }
}

/// Runs a batch on every routed shard concurrently and merges
/// item-wise; a shard error on an item wins over other shards'
/// answers for it (partial unions would be silently wrong).
fn fan_out_batch(
    engines: &[(String, Arc<SimEngine>)],
    algo: &Algorithm,
    patterns: &[Pattern],
) -> Response {
    let shard_batches = match fan_out(
        engines,
        |engine| Ok(engine.query_batch_with(algo, patterns)),
    ) {
        Ok(batches) => batches,
        Err(resp) => return *resp,
    };
    let mut total = WireMetrics::default();
    for batch in &shard_batches {
        merge_metrics(&mut total, &WireMetrics::of_run(&batch.total));
    }
    let items = (0..patterns.len())
        .map(|i| {
            let mut parts = Vec::with_capacity(shard_batches.len());
            for batch in &shard_batches {
                match &batch.reports[i] {
                    Ok(report) => parts.push(answer_of_report(report)),
                    Err(e) => return Err((ErrorCode::of_dgs(e), e.to_string())),
                }
            }
            Ok(merge_answers(&parts))
        })
        .collect();
    Response::BatchAnswer { items, total }
}

/// Queues subscription push activity for the event loop: remembers
/// which connections gained frames and wakes the poller.
fn note_sub_dirty(shared: &Shared, dirty: Vec<u64>) {
    if dirty.is_empty() {
        return;
    }
    shared.sub_dirty.lock().extend(dirty);
    shared.wake.wake();
}

/// Runs one request against the routed session(s). `route` is the
/// connection's shared route cell; barrier dispatch in the event loop
/// guarantees `SESSION_ROUTE` never executes concurrently with other
/// requests on the same connection. `conn_id` identifies the
/// connection for subscription ownership. `trace` collects
/// plan/per-site details for the slow-query log.
fn execute(
    req: &Request,
    shared: &Shared,
    route: &Mutex<Route>,
    conn_id: u64,
    trace: &mut TraceCapture,
) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::GraphInfo => {
            let engines = match resolve(shared, &route.lock().clone()) {
                Ok(e) => e,
                Err(resp) => return *resp,
            };
            if engines.len() > 1 {
                return single_target_only("GRAPH_INFO", engines.len());
            }
            let engine = &engines[0].1;
            let g = engine.graph();
            let frag = engine.fragmentation();
            Response::GraphInfo(GraphInfo {
                nodes: g.node_count() as u64,
                edges: g.edge_count() as u64,
                sites: frag.num_sites() as u16,
                vf: frag.vf() as u64,
                ef: frag.ef() as u64,
                label_bound: g.label_bound() as u64,
                generation: engine.generation(),
            })
        }
        Request::Query {
            pattern,
            algorithm,
            boolean,
        } => {
            let engines = match resolve(shared, &route.lock().clone()) {
                Ok(e) => e,
                Err(resp) => return *resp,
            };
            let algo = algorithm.to_algorithm();
            if engines.len() > 1 {
                // Fan-out runs data-selecting even for Boolean
                // queries: is_match must come from the *merged*
                // relation's totality — OR-ing per-shard flags would
                // claim matches no union supports per query node.
                return match fan_out_query(&engines, &algo, pattern) {
                    Response::Answer(mut answer) => {
                        if *boolean {
                            answer.rows = Vec::new();
                        }
                        Response::Answer(answer)
                    }
                    resp => resp,
                };
            }
            let engine = &engines[0].1;
            trace.generation = engine.generation();
            if *boolean {
                match engine.query_boolean_with(&algo, pattern) {
                    Ok(report) => {
                        trace.session = engines[0].0.clone();
                        trace.algorithm = report.algorithm.to_owned();
                        trace.plan = report.plan.to_string();
                        trace.site_ops = report.metrics.site_ops.clone();
                        trace.site_msgs = report.metrics.site_msgs.clone();
                        Response::Answer(Answer {
                            rows: Vec::new(),
                            is_match: report.is_match,
                            algorithm: report.algorithm.to_owned(),
                            plan: report.plan.to_string(),
                            metrics: WireMetrics::of_run(&report.metrics),
                        })
                    }
                    Err(e) => dgs_error(&e),
                }
            } else {
                match engine.query_with(&algo, pattern) {
                    Ok(report) => {
                        note_trace(trace, &engines[0].0, &report);
                        Response::Answer(answer_of_report(&report))
                    }
                    Err(e) => dgs_error(&e),
                }
            }
        }
        Request::QueryBatch {
            patterns,
            algorithm,
        } => {
            let engines = match resolve(shared, &route.lock().clone()) {
                Ok(e) => e,
                Err(resp) => return *resp,
            };
            let algo = algorithm.to_algorithm();
            if engines.len() > 1 {
                return fan_out_batch(&engines, &algo, patterns);
            }
            let batch = engines[0].1.query_batch_with(&algo, patterns);
            trace.session = engines[0].0.clone();
            trace.generation = engines[0].1.generation();
            trace.site_ops = batch.total.site_ops.clone();
            trace.site_msgs = batch.total.site_msgs.clone();
            let items = batch
                .reports
                .iter()
                .map(|r| match r {
                    Ok(report) => Ok(answer_of_report(report)),
                    Err(e) => Err((ErrorCode::of_dgs(e), e.to_string())),
                })
                .collect();
            Response::BatchAnswer {
                items,
                total: WireMetrics::of_run(&batch.total),
            }
        }
        Request::ApplyDelta {
            insert_edges,
            delete_edges,
        } => {
            let engines = match resolve(shared, &route.lock().clone()) {
                Ok(e) => e,
                Err(resp) => return *resp,
            };
            if engines.len() > 1 {
                return single_target_only("APPLY_DELTA", engines.len());
            }
            let delta = GraphDelta {
                insert_edges: insert_edges
                    .iter()
                    .map(|&(u, v)| (NodeId(u), NodeId(v)))
                    .collect(),
                delete_edges: delete_edges
                    .iter()
                    .map(|&(u, v)| (NodeId(u), NodeId(v)))
                    .collect(),
            };
            // No lock: the engine serializes writers internally and
            // queries keep running against the published snapshot
            // while the next generation is built.
            match engines[0].1.apply_delta(&delta) {
                Ok(report) => {
                    shared.obs.deltas_applied.inc();
                    shared
                        .obs
                        .delta_maintained
                        .add(report.maintained_entries as u64);
                    shared
                        .obs
                        .delta_invalidated
                        .add(report.invalidated_entries as u64);
                    trace.session = engines[0].0.clone();
                    trace.generation = report.generation;
                    // Feed the digest to live subscriptions before
                    // answering: the diff frames queue behind this
                    // response in the connection's write order.
                    let dirty = shared.subs.on_delta(&engines[0].0, &engines[0].1, &report);
                    note_sub_dirty(shared, dirty);
                    Response::DeltaApplied(DeltaSummary {
                        inserted: report.inserted as u64,
                        deleted: report.deleted as u64,
                        ignored: report.ignored as u64,
                        crossing_inserted: report.crossing_inserted as u64,
                        crossing_deleted: report.crossing_deleted as u64,
                        virtuals_created: report.virtuals_created as u64,
                        virtuals_retired: report.virtuals_retired as u64,
                        maintained_entries: report.maintained_entries as u64,
                        invalidated_entries: report.invalidated_entries as u64,
                        revoked_pairs: report.revoked_pairs,
                        generation: report.generation,
                        resurrected_pairs: report.resurrected_pairs,
                    })
                }
                Err(e) => dgs_error(&e),
            }
        }
        Request::CacheStats => {
            let engines = match resolve(shared, &route.lock().clone()) {
                Ok(e) => e,
                Err(resp) => return *resp,
            };
            if engines.len() > 1 {
                return single_target_only("CACHE_STATS", engines.len());
            }
            Response::CacheStats(engines[0].1.cache_stats().map(|s| WireCacheStats {
                entries: s.entries as u64,
                capacity: s.capacity as u64,
                hits: s.hits,
                misses: s.misses,
                evictions: s.evictions,
                generation: s.generation,
            }))
        }
        Request::CompressionInfo => {
            let engines = match resolve(shared, &route.lock().clone()) {
                Ok(e) => e,
                Err(resp) => return *resp,
            };
            if engines.len() > 1 {
                return single_target_only("COMPRESSION_INFO", engines.len());
            }
            let engine = &engines[0].1;
            let active = engine.compression_active();
            Response::CompressionInfo(engine.compression_note().map(|n| WireCompression {
                classes: n.classes as u64,
                ratio: n.ratio,
                method: n.method.to_owned(),
                active,
            }))
        }
        Request::LoadGraph { graph, options } => {
            let name = match &*route.lock() {
                Route::Single(name) => name.clone(),
                // The error names the *route's* target count, not the
                // server-wide session count — Route::All resolves at
                // request time, so only it consults the registry.
                Route::Many(names) => return single_target_only("LOAD_GRAPH", names.len()),
                Route::All => return single_target_only("LOAD_GRAPH", shared.sessions.len()),
            };
            // Build off-path; only the map swap is synchronized.
            match build_session(graph, options) {
                Ok(engine) => {
                    let (nodes, edges) = (graph.node_count() as u64, graph.edge_count() as u64);
                    shared.sessions.insert(&name, engine);
                    // A replaced session's subscriptions refer to the
                    // old engine's state: terminate them with a typed
                    // event rather than stream diffs against a graph
                    // the subscriber never saw.
                    note_sub_dirty(shared, shared.subs.drop_session(&name));
                    Response::Loaded {
                        nodes,
                        edges,
                        sites: options.sites,
                    }
                }
                Err(message) => Response::Error {
                    code: ErrorCode::Malformed,
                    message,
                },
            }
        }
        Request::SessionCreate {
            name,
            graph,
            options,
        } => match build_session(graph, options) {
            Ok(engine) => {
                let engine = shared.sessions.insert(name, engine);
                note_sub_dirty(shared, shared.subs.drop_session(name));
                Response::SessionCreated(session_info(name, &engine))
            }
            Err(message) => Response::Error {
                code: ErrorCode::Malformed,
                message,
            },
        },
        Request::SessionList => Response::Sessions(shared.sessions.infos()),
        Request::SessionDrop { name } => {
            if shared.sessions.remove(name) {
                // Every subscription on the dropped session ends with
                // a typed SUB_EVENT(session_dropped) push.
                note_sub_dirty(shared, shared.subs.drop_session(name));
                Response::SessionDropped
            } else {
                no_such_session(name)
            }
        }
        Request::SessionRoute { sessions } => {
            let new_route = Route::of_names(sessions.clone());
            // Named routes are validated now (typed error instead of a
            // silently broken connection); Route::All re-resolves on
            // every request by design.
            match shared.sessions.resolve(&new_route) {
                Ok(engines) => {
                    let n = engines.len() as u64;
                    *route.lock() = new_route;
                    Response::SessionRouted { sessions: n }
                }
                Err(name) => no_such_session(&name),
            }
        }
        Request::Subscribe { pattern, algorithm } => {
            let engines = match resolve(shared, &route.lock().clone()) {
                Ok(e) => e,
                Err(resp) => return *resp,
            };
            if engines.len() > 1 {
                return single_target_only("SUBSCRIBE", engines.len());
            }
            let (name, engine) = &engines[0];
            match shared
                .subs
                .subscribe(conn_id, name, engine, pattern, *algorithm)
            {
                Ok((sub_id, generation, rows)) => Response::Subscribed {
                    sub_id,
                    generation,
                    rows,
                },
                Err(e) => dgs_error(&e),
            }
        }
        Request::Unsubscribe { sub_id } => {
            if shared.subs.unsubscribe(conn_id, *sub_id) {
                Response::Unsubscribed
            } else {
                Response::Error {
                    code: ErrorCode::NoSuchSubscription,
                    message: format!("this connection holds no subscription with id {sub_id}"),
                }
            }
        }
        Request::Metrics => {
            refresh_gauges(shared);
            Response::Metrics(shared.registry.snapshot())
        }
        Request::Trace => {
            // Newest first: the request someone is chasing is almost
            // always the latest one.
            Response::Trace(shared.slow_log.lock().iter().rev().cloned().collect())
        }
        Request::Shutdown => Response::ShuttingDown,
    }
}

/// Builds a fresh session per `LOAD_GRAPH` / `SESSION_CREATE` options
/// (off any lock — only the registry swap is synchronized).
pub(crate) fn build_session(graph: &Graph, options: &SessionOptions) -> Result<SimEngine, String> {
    use crate::proto::WirePartitioner;
    let k = usize::from(options.sites);
    if k == 0 {
        return Err("sites must be >= 1".into());
    }
    if graph.node_count() == 0 {
        return Err("graph has no nodes".into());
    }
    let assignment = match options.partitioner {
        WirePartitioner::Hash => hash_partition(graph.node_count(), k, options.seed),
        WirePartitioner::Bfs => bfs_partition(graph, k, options.seed),
        WirePartitioner::Ldg => ldg_partition(graph, k, 0.1, options.seed),
        WirePartitioner::Tree => tree_partition(graph, k),
    };
    let frag = Arc::new(Fragmentation::build(graph, &assignment, k));
    let mut builder =
        SimEngine::builder(graph, frag).cache_capacity(options.cache_capacity as usize);
    if let Some(method) = options.compression {
        builder = builder
            .compress(method)
            .compression_threshold(options.compression_threshold);
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::generate::social::fig1;

    fn shard_engines(n: usize) -> Vec<(String, Arc<SimEngine>)> {
        (0..n)
            .map(|i| {
                let w = fig1();
                let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
                (
                    format!("shard{i}"),
                    Arc::new(SimEngine::builder(&w.graph, frag).build()),
                )
            })
            .collect()
    }

    #[test]
    fn fan_out_answers_a_typed_error_when_a_shard_panics() {
        let engines = shard_engines(3);
        let mut calls = 0usize;
        let calls_ptr = std::sync::atomic::AtomicUsize::new(0);
        let result: Result<Vec<u32>, Box<Response>> = fan_out(&engines, |_| {
            if calls_ptr.fetch_add(1, Ordering::SeqCst) == 1 {
                panic!("injected shard failure");
            }
            Ok(7)
        });
        calls += calls_ptr.load(Ordering::SeqCst);
        assert!(calls >= 2);
        match result {
            Err(resp) => match *resp {
                Response::Error { code, message } => {
                    assert_eq!(code, ErrorCode::Internal);
                    assert!(message.contains("panicked"), "{message}");
                    assert!(message.contains("shard"), "names the session: {message}");
                }
                other => panic!("expected Response::Error, got {other:?}"),
            },
            Ok(_) => panic!("a panicking shard must not produce an answer"),
        }
    }

    #[test]
    fn fan_out_typed_dgs_errors_win_over_panics_only_when_first() {
        let engines = shard_engines(2);
        let result: Result<Vec<u32>, Box<Response>> = fan_out(&engines, |_| {
            Err(DgsError::Unsupported {
                algorithm: "injected",
                reason: "test".into(),
            })
        });
        match result {
            Err(resp) => match *resp {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::Unsupported),
                other => panic!("expected Response::Error, got {other:?}"),
            },
            Ok(_) => panic!("shard errors must propagate"),
        }
    }

    #[test]
    fn fan_out_collects_per_shard_values_in_engine_order() {
        let engines = shard_engines(3);
        let idx = std::sync::atomic::AtomicUsize::new(0);
        let got: Vec<usize> =
            fan_out(&engines, |_| Ok(idx.fetch_add(1, Ordering::SeqCst))).unwrap();
        assert_eq!(got.len(), 3);
    }
}
