//! # dgs-net
//!
//! A distributed runtime for the graph-simulation algorithms of Fan
//! et al. (VLDB 2014) — from a simulated substitute for the paper's
//! Amazon EC2 deployment (a virtual-time cluster under an explicit
//! [`CostModel`]) up to genuinely multi-process execution.
//!
//! Algorithms are written once as message-driven actors
//! ([`SiteLogic`] per site plus one [`CoordinatorLogic`]) and can then
//! be driven by any executor. Every executor is one run driver over a
//! transport: the crate-internal `RunDriver` owns the coordinator, the
//! [`RunMetrics`], the [`DeliveryPlan`]'s verdicts and the barrier rule
//! (at quiescence: done, another phase, or [`ExecError::Stalled`]);
//! the transport only moves messages and reports where it observes
//! quiescence:
//!
//! * [`cluster::ThreadedExecutor`] — one OS thread per site, crossbeam
//!   channels routed through the coordinator's thread, an in-flight
//!   count for quiescence; proves the algorithms really run
//!   concurrently and measures wall-clock time;
//! * [`virtual_time::VirtualExecutor`] — a deterministic discrete-event
//!   simulation: per-site busy time is `charged ops × cost-per-op` and
//!   message delivery takes `latency + bytes / bandwidth` under an
//!   explicit, EC2-like [`CostModel`]. This is what reproduces the
//!   paper's response-time *shapes* (e.g. PT falling as `|F|` grows)
//!   on a host with fewer cores than simulated sites.
//! * [`socket::SocketCluster`] — the coordinator and the sites run in
//!   **separate OS processes** connected by TCP sockets carrying the
//!   wire frames of [`wire`]; protocols additionally implement
//!   [`SocketMsg`] (message codec) and [`RemoteSpec`] (worker-side
//!   reconstruction). See `crates/net/src/socket.rs`.
//!
//! Because graph simulation is a monotone fixpoint computation,
//! chaotic/asynchronous iteration is confluent: all executors (and
//! any message interleaving) produce identical answers; only the
//! timing metrics differ. A seeded [`DeliveryPlan`] perturbs delivery
//! (drop-then-retry, duplicate, delay) to test exactly that.
//!
//! Data shipment is accounted exactly: every message carries a
//! hand-computed [`WireSize`] and is classified as **data** (the
//! paper's DS metric), **control** (termination/barrier traffic) or
//! **result** (final match collection, which the paper's DS figures
//! exclude); see [`metrics::RunMetrics`]. The socket executor ships
//! the same logical sizes back over the wire, so its metrics are
//! directly comparable.

pub mod cluster;
pub mod cost;
pub mod delivery;
mod driver;
pub mod message;
pub mod metrics;
pub mod obs;
pub mod site;
pub mod socket;
pub mod virtual_time;
pub mod wire;

pub use cluster::ThreadedExecutor;
pub use cost::CostModel;
pub use delivery::{DeliveryPlan, Verdict};
pub use message::{Endpoint, MsgClass, WireSize};
pub use metrics::{LatencyHistogram, RunMetrics, SiteDeltaMetrics};
pub use obs::{
    Counter, Gauge, Histo, HistogramSummary, LogLevel, Logger, MetricsRegistry, MetricsSnapshot,
    METRICS_SNAPSHOT_VERSION,
};
pub use site::{CoordinatorLogic, Outbox, SiteLogic};
pub use socket::{RemoteSpec, SocketCluster, SocketConfig, SocketMsg, WorkerHost, WorkerMode};
pub use virtual_time::VirtualExecutor;

use std::fmt;

/// Which executor drives a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Real threads, wall-clock timing.
    Threaded,
    /// Deterministic discrete-event simulation, virtual timing.
    Virtual,
    /// Real OS processes connected by sockets (needs a bootstrapped
    /// [`SocketCluster`]; see [`try_run`]).
    Socket,
}

/// Why an executor could not complete a run. Every executor fails on a
/// stalled protocol and the threaded one on site panics; the socket
/// executor adds transport-level failure modes (a dead worker, a silent
/// peer, an unremotable protocol).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A site failed: its handler panicked (threaded/socket), its
    /// worker process died, or the worker reported a per-site error.
    SiteFailed {
        /// The failed site (0-based).
        site: u32,
        /// What happened.
        reason: String,
    },
    /// Messages were in flight but no worker made progress within the
    /// configured bound — a silent peer, not a protocol error.
    Timeout {
        /// The bound that elapsed, in milliseconds.
        millis: u64,
        /// What was pending.
        detail: String,
    },
    /// The transport itself failed (connect, handshake, a corrupt
    /// frame from a worker).
    Transport {
        /// What happened.
        detail: String,
    },
    /// The requested execution is not possible: a protocol that is not
    /// socket-remotable, or a run shape the cluster was not
    /// bootstrapped for.
    Unsupported {
        /// Why.
        detail: String,
    },
    /// The coordinator's `on_quiescent` returned `false` without
    /// sending anything: nothing can ever happen again.
    Stalled,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::SiteFailed { site, reason } => {
                write!(f, "site S{} failed: {reason}", site + 1)
            }
            ExecError::Timeout { millis, detail } => {
                write!(f, "timed out after {millis} ms: {detail}")
            }
            ExecError::Transport { detail } => write!(f, "transport failed: {detail}"),
            ExecError::Unsupported { detail } => write!(f, "unsupported: {detail}"),
            ExecError::Stalled => write!(
                f,
                "protocol stalled: on_quiescent returned false without sending"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Outcome of running a protocol to completion.
pub struct RunOutcome<C, S> {
    /// The coordinator, holding whatever final answer the protocol
    /// assembled.
    pub coordinator: C,
    /// The per-site logics (useful for inspecting local state in
    /// tests). Under the socket executor these are the **unstarted
    /// local twins** — the live state belongs to the worker processes.
    pub sites: Vec<S>,
    /// Timing and shipment metrics.
    pub metrics: RunMetrics,
}

/// Runs `coordinator` + `sites` under the chosen in-process executor.
///
/// This is the historical infallible entry point: a site panic under
/// the threaded executor and a stalled protocol propagate as panics, and
/// [`ExecutorKind::Socket`] is rejected (it needs a bootstrapped
/// cluster — use [`try_run`]).
pub fn run<M, C, S>(
    kind: ExecutorKind,
    cost: &CostModel,
    coordinator: C,
    sites: Vec<S>,
) -> RunOutcome<C, S>
where
    M: WireSize + Clone + Send + 'static,
    C: CoordinatorLogic<M> + Send,
    S: SiteLogic<M> + Send,
{
    match kind {
        ExecutorKind::Threaded => ThreadedExecutor::new().run(coordinator, sites),
        ExecutorKind::Virtual => VirtualExecutor::new(cost.clone()).run(coordinator, sites),
        ExecutorKind::Socket => {
            panic!("the socket executor needs a bootstrapped SocketCluster; use dgs_net::try_run")
        }
    }
}

/// Runs `coordinator` + `sites` under any executor, with typed
/// errors: threaded site panics surface as
/// [`ExecError::SiteFailed`] instead of poisoning the process, a
/// stalled protocol as [`ExecError::Stalled`], and
/// [`ExecutorKind::Socket`] dispatches to `cluster` (erroring when
/// none is supplied).
///
/// `start_workers` fans the per-site start handlers of the **virtual**
/// executor out over up to that many threads
/// ([`VirtualExecutor::with_start_workers`]): intra-query parallelism
/// for the Phase-1 local evaluations, with bit-identical outcomes. The
/// threaded executor is already one-thread-per-site and the socket
/// executor one-process-per-site, so they ignore it.
pub fn try_run<M, C, S>(
    kind: ExecutorKind,
    cost: &CostModel,
    cluster: Option<&SocketCluster>,
    start_workers: usize,
    coordinator: C,
    sites: Vec<S>,
) -> Result<RunOutcome<C, S>, ExecError>
where
    M: SocketMsg,
    C: CoordinatorLogic<M> + Send,
    S: SiteLogic<M> + RemoteSpec + Send,
{
    match kind {
        ExecutorKind::Threaded => ThreadedExecutor::new().try_run(coordinator, sites),
        ExecutorKind::Virtual => VirtualExecutor::new(cost.clone())
            .with_start_workers(start_workers)
            .try_run(coordinator, sites),
        ExecutorKind::Socket => match cluster {
            Some(cluster) => cluster.run(coordinator, sites),
            None => Err(ExecError::Unsupported {
                detail: "the socket executor needs a bootstrapped SocketCluster".into(),
            }),
        },
    }
}

/// The one reason a panicking site handler reports, under the threaded
/// and the socket executor alike.
pub(crate) fn panic_reason(panic: &(dyn std::any::Any + Send)) -> String {
    let msg = (panic.downcast_ref::<&str>().copied())
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str));
    match msg {
        Some(msg) => format!("site handler panicked: {msg}"),
        None => "site handler panicked".to_owned(),
    }
}
