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

mod dispatch;
mod event_loop;
mod metrics_http;

use crate::poll::{WakeHandle, WakePipe};
use crate::proto::{Request, WireTrace};
use crate::session::SessionManager;
use crate::subscribe::{SubObs, SubscriptionRegistry, DEFAULT_SUB_QUEUE_MAX};
use crate::transport::{Listener, ServeAddr};
use dgs_core::SimEngine;
use dgs_net::{Counter, Gauge, Histo, LogLevel, Logger, MetricsRegistry, MetricsSnapshot};
use dispatch::worker_loop;
use event_loop::event_loop;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io;
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

// Workers oversubscribe cores: a worker spends much of a request
// waiting — on the intra-query and batch threads the engine spawns, on
// socket-executor sites, on delta maintenance — and a floor of 4 keeps
// a short query from queueing behind slow writes even on a 1-core box.
fn default_workers() -> usize {
    (std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        * 2)
    .clamp(4, 16)
}

/// One decoded-enough request handed to the worker pool: the frame
/// body stays raw so even `SESSION_CREATE`-sized decodes happen off
/// the event thread.
struct Job {
    conn_id: u64,
    request_id: u64,
    ty: u8,
    body: Vec<u8>,
    route: Arc<Mutex<String>>,
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

/// The label value for a request frame type: its name in the frame
/// table.
fn frame_name(ty: u8) -> &'static str {
    let named = Request::NAMED_TAGS.iter().find(|&&(t, _)| t == ty);
    named.map_or("OTHER", |&(_, name)| name)
}

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
    slow_queries: Counter,
    /// Push frames parked across every subscription queue (synced at
    /// scrape time).
    sub_queue_frames: Gauge,
}

impl ServerObs {
    fn new(reg: &MetricsRegistry) -> ServerObs {
        let request_ns = Request::NAMED_TAGS
            .iter()
            .map(|&(ty, name)| {
                let name = format!("dgsd_request_ns{{frame=\"{name}\"}}");
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
