//! `SocketExecutor`: the coordinator and the worker sites run in
//! **separate OS processes**, connected by TCP sockets carrying the
//! same length-prefixed frames as the serving layer (`docs/PROTOCOL.md`,
//! "Site frames").
//!
//! The in-process executors prove the algorithms; this one proves the
//! *deployment*: messages really cross a kernel socket, a worker can
//! really be killed mid-run, and the transport can really reorder and
//! re-deliver — all of which the conformance suite and its delivery-plan
//! test (`tests/executors.rs`) exercise.
//!
//! ## Topology
//!
//! The coordinator process owns the protocol run. Worker processes
//! (`dgsd --worker` / `dgsq worker`) each host one or more sites. All
//! messages are routed **through the coordinator** (a star, exactly
//! like the paper's `Sc`-centric deployment): when a site handler
//! finishes, its worker ships the whole outbox back in one `SITE_OUT`
//! frame and the coordinator forwards each send to its destination
//! worker as a `SITE_MSG` frame. That lets the coordinator keep an
//! in-flight count — the counter reaching zero proves global
//! quiescence and runs the run driver's barrier (`src/driver.rs`) —
//! and hand every send to the driver, which accounts its **logical**
//! [`WireSize`] exactly as under the other executors, so `RunMetrics`
//! are comparable across all three.
//!
//! ## Generic dispatch
//!
//! The executor is generic over the protocol: messages implement
//! [`SocketMsg`] (a byte codec on top of [`crate::wire`]) and site
//! logics implement [`RemoteSpec`] (an opaque per-site bootstrap blob
//! from which the worker process reconstructs the logic — pattern,
//! engine configuration, query mode). The worker side is type-erased:
//! a [`WorkerHost`] turns spec blobs into [`ErasedSite`]s, so one
//! worker binary serves every protocol.
//!
//! ## Faults
//!
//! * A worker that **dies** (crash, `kill -9`, dropped connection)
//!   surfaces as [`ExecError::SiteFailed`] naming a hosted site.
//! * A worker that goes **silent** is bounded by
//!   [`SocketConfig::site_timeout`]: the run fails with
//!   [`ExecError::Timeout`] instead of hanging forever.
//! * A [`DeliveryPlan`] ([`SocketConfig::delivery`]) makes the
//!   coordinator-side transport adversarial: site-bound data frames are
//!   dropped-then-retried, duplicated or delayed, with the verdicts
//!   every executor reaches for the same run. A held frame (the retry,
//!   the second copy, the delayed one) waits until the run quiesces,
//!   and held frames go out in seeded-shuffled order, so they are
//!   delayed *and* reordered.

use crate::delivery::DeliveryPlan;
use crate::driver::{Barrier, RunDriver};
use crate::message::{Endpoint, MsgClass, WireSize};
use crate::site::{CoordinatorLogic, Outbox, SiteLogic};
use crate::wire::{self, encode, FrameError, Reader, Wire};
use crate::{panic_reason, ExecError, RunOutcome};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

// ---- frame types (distinct namespace from the serving protocol) -------

/// Handshake, both directions: magic `DGSP` + `u16` version.
pub const FT_WORKER_HELLO: u8 = 0x50;
/// Session bootstrap blob (coordinator → worker).
pub const FT_WORKER_LOAD: u8 = 0x51;
/// Generic acknowledgement (worker → coordinator).
pub const FT_WORKER_OK: u8 = 0x52;
/// Generic failure: a reason string (worker → coordinator).
pub const FT_WORKER_ERR: u8 = 0x53;
/// Per-run site bootstrap: run id + the hosted sites' specs.
pub const FT_SITE_HELLO: u8 = 0x54;
/// One protocol message delivered to a hosted site.
pub const FT_SITE_MSG: u8 = 0x55;
/// One finished handler's outbox: charged ops + buffered sends.
pub const FT_SITE_OUT: u8 = 0x56;
/// A hosted site failed (decode error or handler panic).
pub const FT_SITE_ERR: u8 = 0x57;
/// End of run: the worker drops the run's site state.
pub const FT_SITE_DONE: u8 = 0x58;
/// The worker process should exit cleanly.
pub const FT_WORKER_SHUTDOWN: u8 = 0x59;

/// Magic of the site-frame handshake.
pub const SOCKET_MAGIC: &[u8; 4] = b"DGSP";
/// Protocol version of the site frames.
pub const SOCKET_VERSION: u16 = 1;

/// The announce line a worker prints once its listener is bound; the
/// spawn-local bootstrap parses the address after this marker.
pub const ANNOUNCE_MARKER: &str = "listening on ";

// ---- protocol-side traits ---------------------------------------------

/// A protocol message that can cross a process boundary. Every [`Wire`]
/// message is one, encoded by its codec; a protocol that stays
/// in-process implements this by hand and refuses in `encode`, which
/// [`SocketCluster::run`] surfaces as [`ExecError::Unsupported`].
pub trait SocketMsg: WireSize + Clone + Send + 'static {
    /// Appends the encoded message to `buf`.
    fn encode(&self, buf: &mut Vec<u8>) -> Result<(), String>;
    /// Decodes one message.
    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError>;
}

impl<T: Wire + WireSize + Clone + Send + 'static> SocketMsg for T {
    fn encode(&self, buf: &mut Vec<u8>) -> Result<(), String> {
        self.put(buf);
        Ok(())
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        T::get(r)
    }
}

/// Decodes one message that must fill `payload` exactly: the one
/// decode of the worker and of the coordinator alike.
fn decode_msg<M: SocketMsg>(payload: &[u8]) -> Result<M, FrameError> {
    Reader::exact(payload, "message", M::decode)
}

/// A site logic that a worker process can reconstruct from an opaque
/// spec blob (see `dgs-core`'s `remote` module for the engine specs).
pub trait RemoteSpec {
    /// The per-site bootstrap spec, or `Err` when this protocol cannot
    /// run remotely (e.g. its state cannot be rebuilt worker-side).
    fn remote_spec(&self) -> Result<Vec<u8>, String>;
}

// ---- worker-side type erasure -----------------------------------------

/// One buffered send of a finished handler, already encoded.
pub struct RawSend {
    /// Destination endpoint.
    pub to: Endpoint,
    /// Shipment accounting class.
    pub class: MsgClass,
    /// The message's **logical** wire size ([`WireSize`]) — what the
    /// metrics record, independent of the physical frame encoding.
    pub wire_bytes: usize,
    /// The encoded message payload.
    pub payload: Vec<u8>,
}

/// A finished handler's outbox in encoded form.
pub struct RawOutbox {
    /// Charged local operations.
    pub ops: u64,
    /// Buffered sends.
    pub sends: Vec<RawSend>,
}

/// A type-erased remote site: raw bytes in, raw outbox out. One worker
/// binary hosts any protocol through this interface.
pub trait ErasedSite: Send {
    /// Runs the site's `on_start` handler.
    fn on_start(&mut self) -> Result<RawOutbox, String>;
    /// Delivers one encoded message.
    fn on_message(&mut self, from: Endpoint, payload: &[u8]) -> Result<RawOutbox, String>;
}

struct ErasedAdapter<M, S> {
    me: Endpoint,
    num_sites: usize,
    site: S,
    _msg: std::marker::PhantomData<fn() -> M>,
}

impl<M: SocketMsg, S: SiteLogic<M> + Send> ErasedAdapter<M, S> {
    fn raw(out: Outbox<M>) -> Result<RawOutbox, String> {
        let mut sends = Vec::with_capacity(out.sends.len());
        for (to, class, msg) in out.sends {
            let wire_bytes = msg.wire_size();
            let mut payload = Vec::new();
            msg.encode(&mut payload)?;
            sends.push(RawSend {
                to,
                class,
                wire_bytes,
                payload,
            });
        }
        Ok(RawOutbox {
            ops: out.ops,
            sends,
        })
    }
}

impl<M: SocketMsg, S: SiteLogic<M> + Send> ErasedSite for ErasedAdapter<M, S> {
    fn on_start(&mut self) -> Result<RawOutbox, String> {
        let mut out = Outbox::new(self.me, self.num_sites);
        self.site.on_start(&mut out);
        Self::raw(out)
    }

    fn on_message(&mut self, from: Endpoint, payload: &[u8]) -> Result<RawOutbox, String> {
        let msg = decode_msg::<M>(payload).map_err(|e| e.to_string())?;
        let mut out = Outbox::new(self.me, self.num_sites);
        self.site.on_message(from, msg, &mut out);
        Self::raw(out)
    }
}

/// Wraps a typed site logic for hosting in a worker process. Worker
/// hosts call this from their spec factories.
pub fn erase_site<M, S>(site: S, site_idx: u32, num_sites: usize) -> Box<dyn ErasedSite>
where
    M: SocketMsg,
    S: SiteLogic<M> + Send + 'static,
{
    Box::new(ErasedAdapter::<M, S> {
        me: Endpoint::Site(site_idx),
        num_sites,
        site,
        _msg: std::marker::PhantomData,
    })
}

/// The worker process's pluggable brain: absorbs the session bootstrap
/// (graph + fragmentation) and builds site logics from per-run specs.
pub trait WorkerHost {
    /// Absorbs the session bootstrap blob sent at cluster start.
    fn load(&mut self, blob: &[u8]) -> Result<(), String>;
    /// Builds the logic of `site` for one run from its spec blob.
    fn build_site(
        &self,
        site: u32,
        num_sites: usize,
        spec: &[u8],
    ) -> Result<Box<dyn ErasedSite>, String>;
}

// ---- site frame payloads -----------------------------------------------

/// `SITE_HELLO`: one run's site bootstrap — the hosted sites and their
/// specs.
struct SiteHello {
    run: u64,
    num_sites: usize,
    hosted: Vec<(u32, Vec<u8>)>,
}

/// `SITE_MSG`: one encoded message for a hosted site.
struct SiteMsg {
    run: u64,
    site: u32,
    from: Endpoint,
    class: MsgClass,
    msg: Vec<u8>,
}

/// `SITE_OUT`: a finished handler's outbox.
struct SiteOut {
    run: u64,
    site: u32,
    out: RawOutbox,
}

/// `SITE_ERR`: a hosted site failed.
struct SiteErr {
    run: u64,
    site: u32,
    reason: String,
}

crate::wire_struct!(SiteHello {
    run,
    num_sites,
    hosted
});
crate::wire_struct!(SiteMsg {
    run,
    site,
    from,
    class,
    msg
});
crate::wire_struct!(SiteOut { run, site, out });
crate::wire_struct!(SiteErr { run, site, reason });
crate::wire_struct!(RawOutbox { ops, sends });
crate::wire_struct!(RawSend {
    to,
    class,
    wire_bytes,
    payload
});
crate::wire_enum!(MsgClass {
    0 => Data,
    1 => Control,
    2 => Result,
});

/// One varint: 0 is the coordinator, `i + 1` site `i`.
impl Wire for Endpoint {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Endpoint::Coordinator => 0,
            Endpoint::Site(i) => u64::from(*i) + 1,
        }
        .put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(match u64::get(r)? {
            0 => Endpoint::Coordinator,
            v => Endpoint::Site(
                u32::try_from(v - 1)
                    .map_err(|_| FrameError::corrupt(format!("endpoint {v} exceeds u32")))?,
            ),
        })
    }
}

/// The handshake, both directions: the magic, then a version.
type Handshake = (Vec<u8>, u16);

/// The reason of a `WORKER_ERR` frame.
fn worker_err_reason(payload: &[u8]) -> String {
    Reader::exact(payload, "WORKER_ERR", String::get).unwrap_or_else(|_| "unreadable reason".into())
}

// ---- the worker loop ---------------------------------------------------

/// Why [`run_worker`] returned.
#[derive(Debug, PartialEq, Eq)]
pub enum WorkerExit {
    /// The coordinator asked the process to exit (`WORKER_SHUTDOWN`).
    Shutdown,
    /// The coordinator hung up; the worker can accept a new one.
    Disconnected,
}

/// Serves one coordinator connection: handshake, session bootstrap,
/// then site frames until shutdown or disconnect. Handler panics are
/// caught and surfaced as `SITE_ERR` frames — a bad query must not
/// kill the worker process.
pub fn run_worker(conn: TcpStream, host: &mut dyn WorkerHost) -> Result<WorkerExit, FrameError> {
    conn.set_nodelay(true).map_err(FrameError::Io)?;
    let mut rd = BufReader::new(conn.try_clone().map_err(FrameError::Io)?);
    let mut wr = conn;

    // Handshake: the coordinator speaks first.
    match wire::read_frame(&mut rd)? {
        Some((FT_WORKER_HELLO, payload)) => {
            let (magic, theirs) = Reader::exact(&payload, "handshake", Handshake::get)?;
            if magic != SOCKET_MAGIC {
                return Err(FrameError::corrupt("bad handshake magic"));
            }
            let reply: Handshake = (magic, theirs.min(SOCKET_VERSION));
            wire::write_frame(&mut wr, FT_WORKER_HELLO, &encode(&reply)).map_err(FrameError::Io)?;
        }
        Some((ty, _)) => {
            return Err(FrameError::corrupt(format!(
                "expected WORKER_HELLO, got frame type {ty:#x}"
            )));
        }
        None => return Ok(WorkerExit::Disconnected),
    }

    // Site state of the (single) active run, keyed by run id so stale
    // frames from an aborted run are ignored rather than misdelivered.
    let mut runs: HashMap<u64, HashMap<u32, Box<dyn ErasedSite>>> = HashMap::new();

    // A handler's outbox goes back as a SITE_OUT, its failure as a
    // SITE_ERR.
    let reply = |wr: &mut TcpStream, run: u64, site: u32, outcome: Result<RawOutbox, String>| {
        match outcome {
            Ok(out) => wire::write_frame(wr, FT_SITE_OUT, &encode(&SiteOut { run, site, out })),
            Err(reason) => {
                wire::write_frame(wr, FT_SITE_ERR, &encode(&SiteErr { run, site, reason }))
            }
        }
        .map_err(FrameError::Io)
    };

    loop {
        let Some((ty, payload)) = wire::read_frame(&mut rd)? else {
            return Ok(WorkerExit::Disconnected);
        };
        match ty {
            FT_WORKER_LOAD => {
                // A (re-)bootstrap invalidates any lingering run state.
                runs.clear();
                match host.load(&payload) {
                    Ok(()) => wire::write_frame(&mut wr, FT_WORKER_OK, &[]),
                    Err(reason) => wire::write_frame(&mut wr, FT_WORKER_ERR, &encode(&reason)),
                }
                .map_err(FrameError::Io)?;
            }
            FT_SITE_HELLO => {
                let hello = Reader::exact(&payload, "SITE_HELLO", SiteHello::get)?;
                // One active run per worker: a new hello supersedes
                // everything older (an aborted run's state included).
                runs.clear();
                let mut sites: HashMap<u32, Box<dyn ErasedSite>> = HashMap::new();
                let mut failed: Vec<(u32, String)> = Vec::new();
                let mut order = Vec::new();
                for (site, spec) in hello.hosted {
                    match host.build_site(site, hello.num_sites, &spec) {
                        Ok(logic) => {
                            sites.insert(site, logic);
                            order.push(site);
                        }
                        Err(reason) => failed.push((site, reason)),
                    }
                }
                let run = hello.run;
                runs.insert(run, sites);
                for (site, reason) in failed {
                    reply(&mut wr, run, site, Err(reason))?;
                }
                let run_sites = runs.get_mut(&run).expect("just inserted");
                for site in order {
                    let logic = run_sites.get_mut(&site).expect("just built");
                    let outcome = catch_unwind(AssertUnwindSafe(|| logic.on_start()))
                        .unwrap_or_else(|panic| Err(panic_reason(&*panic)));
                    reply(&mut wr, run, site, outcome)?;
                }
            }
            FT_SITE_MSG => {
                let m = Reader::exact(&payload, "SITE_MSG", SiteMsg::get)?;
                let Some(sites) = runs.get_mut(&m.run) else {
                    continue; // stale frame of an aborted run
                };
                let outcome = match sites.get_mut(&m.site) {
                    Some(logic) => {
                        catch_unwind(AssertUnwindSafe(|| logic.on_message(m.from, &m.msg)))
                            .unwrap_or_else(|panic| Err(panic_reason(&*panic)))
                    }
                    None => Err("message for a site this worker does not host".into()),
                };
                reply(&mut wr, m.run, m.site, outcome)?;
            }
            FT_SITE_DONE => {
                let run = Reader::exact(&payload, "SITE_DONE", u64::get)?;
                runs.remove(&run);
            }
            FT_WORKER_SHUTDOWN => {
                let _ = wire::write_frame(&mut wr, FT_WORKER_OK, &[]);
                return Ok(WorkerExit::Shutdown);
            }
            other => {
                return Err(FrameError::corrupt(format!(
                    "unexpected frame type {other:#x} on a worker connection"
                )));
            }
        }
    }
}

/// Accept loop of a worker process: serves coordinator connections one
/// at a time (each with a fresh host from `host_factory`) until a
/// coordinator sends `WORKER_SHUTDOWN`.
pub fn serve_worker_listener<H, F>(
    listener: &TcpListener,
    mut host_factory: F,
) -> std::io::Result<()>
where
    H: WorkerHost,
    F: FnMut() -> H,
{
    for conn in listener.incoming() {
        let conn = conn?;
        let mut host = host_factory();
        match run_worker(conn, &mut host) {
            Ok(WorkerExit::Shutdown) => return Ok(()),
            Ok(WorkerExit::Disconnected) => continue,
            Err(e) => {
                // A corrupt coordinator must not kill the worker; log
                // and accept the next connection.
                eprintln!("worker: coordinator connection failed: {e}");
                continue;
            }
        }
    }
    Ok(())
}

// ---- the cluster -------------------------------------------------------

/// Where the worker processes come from.
pub enum WorkerMode {
    /// Spawn `count` local worker processes (`program args...`), each
    /// of which must print "`listening on <addr>`" once bound.
    SpawnLocal {
        /// The worker executable.
        program: PathBuf,
        /// Its arguments (e.g. `["worker", "--listen", "127.0.0.1:0"]`).
        args: Vec<String>,
        /// How many processes to spawn.
        count: usize,
    },
    /// Attach to already-running workers (`dgsd --worker`) at these
    /// `host:port` addresses.
    Attach {
        /// Worker addresses.
        addrs: Vec<String>,
    },
}

/// Configuration of a [`SocketCluster`].
pub struct SocketConfig {
    /// Worker bootstrap mode.
    pub mode: WorkerMode,
    /// Coordinator-side bound on worker silence: if messages are in
    /// flight and **no** worker frame arrives within this window, the
    /// run fails with [`ExecError::Timeout`] instead of hanging on a
    /// silent peer.
    pub site_timeout: Duration,
    /// Optional adversarial transport.
    pub delivery: Option<DeliveryPlan>,
}

impl SocketConfig {
    /// Spawn-local configuration with the default 30 s site timeout.
    pub fn spawn_local(program: impl Into<PathBuf>, args: Vec<String>, count: usize) -> Self {
        SocketConfig {
            mode: WorkerMode::SpawnLocal {
                program: program.into(),
                args,
                count,
            },
            site_timeout: Duration::from_secs(30),
            delivery: None,
        }
    }

    /// Attach configuration with the default 30 s site timeout.
    pub fn attach(addrs: Vec<String>) -> Self {
        SocketConfig {
            mode: WorkerMode::Attach { addrs },
            site_timeout: Duration::from_secs(30),
            delivery: None,
        }
    }

    /// Overrides the per-site silence bound.
    pub fn site_timeout(mut self, timeout: Duration) -> Self {
        self.site_timeout = timeout;
        self
    }

    /// Applies `plan` to every run's site-bound data frames.
    pub fn delivery(mut self, plan: DeliveryPlan) -> Self {
        self.delivery = Some(plan);
        self
    }
}

enum WorkerEvent {
    Frame(u8, Vec<u8>),
    Closed(String),
}

struct WorkerLink {
    stream: TcpStream,
    addr: String,
    sites: Vec<u32>,
    dead: Option<String>,
}

/// A site-bound frame the plan holds back: `(worker index, SITE_MSG
/// payload)`.
type HeldFrame = (usize, Vec<u8>);

/// One run's transport state.
struct Run {
    id: u64,
    /// Handlers owed: one per hosted site at `SITE_HELLO` and per
    /// forwarded `SITE_MSG`, released by the `SITE_OUT` answering it.
    inflight: usize,
}

struct ClusterInner {
    links: Vec<WorkerLink>,
    children: Vec<Child>,
    events: crossbeam::channel::Receiver<(usize, WorkerEvent)>,
    num_sites: usize,
    next_run: u64,
    timeout: Duration,
    delivery: Option<DeliveryPlan>,
    /// Spawn-local clusters own their workers' lifecycle and ask them
    /// to exit on shutdown; attached workers are externally managed
    /// and stay up for the next coordinator.
    owns_workers: bool,
    shut_down: bool,
}

/// A bootstrapped set of worker processes hosting the sites of one
/// fragmentation, plus the coordinator-side router — the socket
/// executor's persistent half. Built once per session
/// (`SimEngineBuilder::build_socket` in `dgs-core`), reused by every
/// run; runs are serialized internally, so a shared reference is
/// enough.
///
/// Dropping a **spawn-local** cluster asks every spawned worker to
/// exit and reaps the child processes (kill after a grace period) —
/// no leaked processes or sockets. Dropping an **attach** cluster
/// only closes its connections: the externally managed workers stay
/// up and accept the next coordinator.
pub struct SocketCluster {
    inner: Mutex<ClusterInner>,
}

impl std::fmt::Debug for SocketCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SocketCluster")
            .field("workers", &inner.links.len())
            .field("num_sites", &inner.num_sites)
            .finish_non_exhaustive()
    }
}

impl SocketCluster {
    /// Spawns (or attaches to) the workers, performs the handshake and
    /// ships the session bootstrap blob to each.
    ///
    /// `bootstrap` is opaque to this layer — the worker's
    /// [`WorkerHost::load`] interprets it (graph + fragmentation for
    /// the engine protocols). Sites are placed round-robin:
    /// site `i` lives on worker `i % workers`.
    pub fn start(
        cfg: SocketConfig,
        bootstrap: &[u8],
        num_sites: usize,
    ) -> Result<SocketCluster, ExecError> {
        let transport = |e: std::io::Error, what: &str| ExecError::Transport {
            detail: format!("{what}: {e}"),
        };
        let mut children = Vec::new();
        let owns_workers = matches!(cfg.mode, WorkerMode::SpawnLocal { .. });
        let addrs: Vec<String> = match cfg.mode {
            WorkerMode::Attach { addrs } => addrs,
            WorkerMode::SpawnLocal {
                program,
                args,
                count,
            } => {
                let mut addrs = Vec::with_capacity(count);
                for _ in 0..count {
                    let mut child = Command::new(&program)
                        .args(&args)
                        .stdout(Stdio::piped())
                        .stderr(Stdio::inherit())
                        .spawn()
                        .map_err(|e| ExecError::Transport {
                            detail: format!("cannot spawn worker {}: {e}", program.display()),
                        })?;
                    let stdout = child.stdout.take().expect("stdout piped");
                    let mut lines = BufReader::new(stdout);
                    let mut addr = None;
                    let mut line = String::new();
                    // The worker prints its announce line first; a few
                    // lines of slack tolerate harness noise.
                    for _ in 0..32 {
                        line.clear();
                        match lines.read_line(&mut line) {
                            Ok(0) => break,
                            Ok(_) => {
                                if let Some(pos) = line.find(ANNOUNCE_MARKER) {
                                    addr =
                                        Some(line[pos + ANNOUNCE_MARKER.len()..].trim().to_owned());
                                    break;
                                }
                            }
                            Err(_) => break,
                        }
                    }
                    let Some(addr) = addr else {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(ExecError::Transport {
                            detail: format!(
                                "worker {} exited without announcing \"{ANNOUNCE_MARKER}<addr>\"",
                                program.display()
                            ),
                        });
                    };
                    // Keep draining the pipe so the worker never blocks
                    // on a full stdout.
                    std::thread::spawn(move || {
                        let mut sink = std::io::sink();
                        let _ = std::io::copy(&mut lines, &mut sink);
                    });
                    children.push(child);
                    addrs.push(addr);
                }
                addrs
            }
        };
        if addrs.is_empty() && num_sites > 0 {
            return Err(ExecError::Unsupported {
                detail: format!("{num_sites} sites need at least one worker process"),
            });
        }

        let (tx, rx) = crossbeam::channel::unbounded();
        let mut links = Vec::with_capacity(addrs.len());
        for (idx, addr) in addrs.iter().enumerate() {
            // The worker may still be binding; retry briefly.
            let deadline = Instant::now() + Duration::from_secs(5);
            let stream = loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(e) if Instant::now() < deadline => {
                        let _ = e;
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => {
                        return Err(transport(e, &format!("cannot connect to worker {addr}")))
                    }
                }
            };
            stream
                .set_nodelay(true)
                .map_err(|e| transport(e, "set_nodelay"))?;
            let mut wr = stream
                .try_clone()
                .map_err(|e| transport(e, "clone stream"))?;
            let mut rd = stream
                .try_clone()
                .map_err(|e| transport(e, "clone stream"))?;

            // Handshake.
            let hello: Handshake = (SOCKET_MAGIC.to_vec(), SOCKET_VERSION);
            wire::write_frame(&mut wr, FT_WORKER_HELLO, &encode(&hello))
                .map_err(|e| transport(e, &format!("handshake with worker {addr}")))?;
            match wire::read_frame(&mut rd) {
                Ok(Some((FT_WORKER_HELLO, payload))) => {
                    let theirs = Reader::exact(&payload, "handshake", Handshake::get);
                    if !theirs.is_ok_and(|(magic, _)| magic == SOCKET_MAGIC) {
                        return Err(ExecError::Transport {
                            detail: format!("worker {addr} answered a bad handshake"),
                        });
                    }
                }
                other => {
                    return Err(ExecError::Transport {
                        detail: format!("worker {addr} did not answer the handshake: {other:?}"),
                    });
                }
            }

            // Session bootstrap.
            wire::write_frame(&mut wr, FT_WORKER_LOAD, bootstrap)
                .map_err(|e| transport(e, &format!("bootstrap of worker {addr}")))?;
            match wire::read_frame(&mut rd) {
                Ok(Some((FT_WORKER_OK, _))) => {}
                Ok(Some((FT_WORKER_ERR, payload))) => {
                    let reason = worker_err_reason(&payload);
                    return Err(ExecError::Transport {
                        detail: format!("worker {addr} rejected the session bootstrap: {reason}"),
                    });
                }
                other => {
                    return Err(ExecError::Transport {
                        detail: format!(
                            "worker {addr} did not acknowledge the bootstrap: {other:?}"
                        ),
                    });
                }
            }

            // From here on, the worker talks asynchronously.
            let tx = tx.clone();
            std::thread::spawn(move || loop {
                match wire::read_frame(&mut rd) {
                    Ok(Some((ty, payload))) => {
                        if tx.send((idx, WorkerEvent::Frame(ty, payload))).is_err() {
                            break;
                        }
                    }
                    Ok(None) => {
                        let _ = tx.send((idx, WorkerEvent::Closed("connection closed".into())));
                        break;
                    }
                    Err(e) => {
                        let _ = tx.send((idx, WorkerEvent::Closed(e.to_string())));
                        break;
                    }
                }
            });

            links.push(WorkerLink {
                stream: wr,
                addr: addr.clone(),
                sites: Vec::new(),
                dead: None,
            });
        }
        drop(tx);

        for site in 0..num_sites {
            let w = site % links.len().max(1);
            links[w].sites.push(site as u32);
        }

        Ok(SocketCluster {
            inner: Mutex::new(ClusterInner {
                links,
                children,
                events: rx,
                num_sites,
                next_run: 1,
                timeout: cfg.site_timeout,
                delivery: cfg.delivery,
                owns_workers,
                shut_down: false,
            }),
        })
    }

    /// Number of worker processes.
    pub fn num_workers(&self) -> usize {
        self.inner.lock().links.len()
    }

    /// Number of sites the cluster was bootstrapped for.
    pub fn num_sites(&self) -> usize {
        self.inner.lock().num_sites
    }

    /// Worker addresses, in placement order.
    pub fn worker_addrs(&self) -> Vec<String> {
        self.inner
            .lock()
            .links
            .iter()
            .map(|l| l.addr.clone())
            .collect()
    }

    /// OS pids of the locally spawned workers (empty in attach mode).
    pub fn worker_pids(&self) -> Vec<u32> {
        self.inner.lock().children.iter().map(Child::id).collect()
    }

    /// Runs one protocol to completion across the worker processes;
    /// see [`crate::try_run`]. Runs are serialized on the cluster.
    ///
    /// The returned [`RunOutcome::sites`] are the **unstarted local
    /// twins** of the remote sites (their state lives in the worker
    /// processes); the coordinator and the metrics are authoritative.
    pub fn run<M, C, S>(&self, coordinator: C, sites: Vec<S>) -> Result<RunOutcome<C, S>, ExecError>
    where
        M: SocketMsg,
        C: CoordinatorLogic<M>,
        S: SiteLogic<M> + RemoteSpec,
    {
        let mut inner = self.inner.lock();
        inner.run(coordinator, sites)
    }

    /// Re-ships the session bootstrap to every worker — the engine
    /// calls this after a graph delta so later runs execute against
    /// the mutated graph, not the one shipped at cluster start.
    pub fn rebootstrap(&self, bootstrap: &[u8]) -> Result<(), ExecError> {
        self.inner.lock().rebootstrap(bootstrap)
    }

    /// Tears the cluster down: spawn-local workers are asked to exit
    /// and reaped (kill after a grace period); attached workers just
    /// lose this coordinator's connection and keep serving others.
    /// Called automatically on drop.
    pub fn shutdown(&self) {
        self.inner.lock().shutdown();
    }
}

impl ClusterInner {
    fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        for link in &mut self.links {
            if self.owns_workers {
                let _ = wire::write_frame(&mut link.stream, FT_WORKER_SHUTDOWN, &[]);
            }
            let _ = link.stream.shutdown(std::net::Shutdown::Both);
        }
        // Reap: grace period, then kill — zero leaked processes.
        let deadline = Instant::now() + Duration::from_secs(2);
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
        }
    }

    /// See [`SocketCluster::rebootstrap`]: sends `WORKER_LOAD` to all
    /// workers and awaits one acknowledgement each over the event
    /// channel (stale frames of aborted runs are discarded).
    fn rebootstrap(&mut self, bootstrap: &[u8]) -> Result<(), ExecError> {
        for (w, link) in self.links.iter().enumerate() {
            if let Some(reason) = &link.dead {
                let reason = reason.clone();
                return Err(self.site_failed(w, reason));
            }
        }
        for w in 0..self.links.len() {
            self.write_worker(w, FT_WORKER_LOAD, bootstrap)?;
        }
        let mut pending = vec![true; self.links.len()];
        while pending.iter().any(|&p| p) {
            match self.events.recv_timeout(self.timeout) {
                Ok((w, WorkerEvent::Frame(FT_WORKER_OK, _))) => pending[w] = false,
                Ok((w, WorkerEvent::Frame(FT_WORKER_ERR, payload))) => {
                    let reason = worker_err_reason(&payload);
                    return Err(ExecError::Transport {
                        detail: format!(
                            "worker {} rejected the session re-bootstrap: {reason}",
                            self.links[w].addr
                        ),
                    });
                }
                // Stale frames of a previously aborted run.
                Ok((_, WorkerEvent::Frame(FT_SITE_OUT | FT_SITE_ERR, _))) => continue,
                Ok((w, WorkerEvent::Closed(reason))) => {
                    self.links[w].dead = Some(reason.clone());
                    return Err(self.site_failed(w, reason));
                }
                Ok((_, WorkerEvent::Frame(ty, _))) => {
                    return Err(ExecError::Transport {
                        detail: format!("unexpected frame type {ty:#x} during re-bootstrap"),
                    });
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    return Err(ExecError::Timeout {
                        millis: self.timeout.as_millis() as u64,
                        detail: "no worker acknowledged the session re-bootstrap".into(),
                    });
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    return Err(ExecError::Transport {
                        detail: "all worker connections are gone".into(),
                    });
                }
            }
        }
        Ok(())
    }

    fn site_failed(&self, worker: usize, reason: String) -> ExecError {
        let site = self.links[worker].sites.first().copied().unwrap_or(0);
        ExecError::SiteFailed {
            site,
            reason: format!("worker {} ({reason})", self.links[worker].addr),
        }
    }

    fn run<M, C, S>(&mut self, coordinator: C, sites: Vec<S>) -> Result<RunOutcome<C, S>, ExecError>
    where
        M: SocketMsg,
        C: CoordinatorLogic<M>,
        S: SiteLogic<M> + RemoteSpec,
    {
        let n = sites.len();
        if n != self.num_sites {
            return Err(ExecError::Unsupported {
                detail: format!(
                    "run has {n} sites but the cluster was bootstrapped for {}",
                    self.num_sites
                ),
            });
        }
        for (w, link) in self.links.iter().enumerate() {
            if let Some(reason) = &link.dead {
                let reason = reason.clone();
                return Err(self.site_failed(w, reason));
            }
        }
        // Specs first: an unremotable protocol must fail before any
        // frame is sent.
        let mut specs = Vec::with_capacity(n);
        for s in &sites {
            specs.push(
                s.remote_spec()
                    .map_err(|detail| ExecError::Unsupported { detail })?,
            );
        }

        let mut run = Run {
            id: self.next_run,
            inflight: 0,
        };
        self.next_run += 1;
        let mut driver = RunDriver::new(coordinator, n, self.delivery);
        let start = driver.start();

        // Per-run site bootstrap: every hosted site's `on_start` will
        // answer with one SITE_OUT.
        for w in 0..self.links.len() {
            if self.links[w].sites.is_empty() {
                continue;
            }
            let hello = SiteHello {
                run: run.id,
                num_sites: n,
                hosted: (self.links[w].sites.iter())
                    .map(|&site| (site, specs[site as usize].clone()))
                    .collect(),
            };
            run.inflight += hello.hosted.len();
            self.write_worker(w, FT_SITE_HELLO, &encode(&hello))?;
        }

        // The coordinator runs in this process; its sends are routed
        // like any other — through `route_send`.
        self.flush_coordinator(&mut run, &mut driver, start)?;
        loop {
            if run.inflight == 0 {
                match driver.quiescent()? {
                    Barrier::Release(held) => {
                        for (w, frame) in held {
                            self.forward(&mut run, w, &frame)?;
                        }
                    }
                    Barrier::Fired { done, out } => {
                        self.flush_coordinator(&mut run, &mut driver, out)?;
                        if done {
                            break;
                        }
                    }
                }
                continue;
            }
            match self.events.recv_timeout(self.timeout) {
                Ok((w, ev)) => self.handle_event(&mut run, w, ev, &mut driver)?,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    return Err(ExecError::Timeout {
                        millis: self.timeout.as_millis() as u64,
                        detail: format!(
                            "{} message(s) in flight but no worker frame arrived \
                             within the per-site timeout",
                            run.inflight
                        ),
                    });
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    return Err(ExecError::Transport {
                        detail: "all worker connections are gone".into(),
                    });
                }
            }
        }

        // Tell the workers to drop the run's state.
        for w in 0..self.links.len() {
            if !self.links[w].sites.is_empty() {
                self.write_worker(w, FT_SITE_DONE, &encode(&run.id))?;
            }
        }
        Ok(driver.finish(sites))
    }

    fn write_worker(&mut self, w: usize, ty: u8, payload: &[u8]) -> Result<(), ExecError> {
        if let Err(e) = wire::write_frame(&mut self.links[w].stream, ty, payload) {
            let reason = format!("write failed: {e}");
            self.links[w].dead = Some(reason.clone());
            return Err(self.site_failed(w, reason));
        }
        Ok(())
    }

    /// Sends one `SITE_MSG` frame to worker `w`: a handler owed.
    fn forward(&mut self, run: &mut Run, w: usize, frame: &[u8]) -> Result<(), ExecError> {
        run.inflight += 1;
        self.write_worker(w, FT_SITE_MSG, frame)
    }

    /// Routes one logical send. Coordinator-bound messages are decoded
    /// and queued for local delivery by the caller; site-bound
    /// messages become `SITE_MSG` frames, sent or held as the plan
    /// decides.
    fn route_send<M: SocketMsg, C>(
        &mut self,
        run: &mut Run,
        driver: &mut RunDriver<C, HeldFrame>,
        from: Endpoint,
        send: RawSend,
        to_coordinator: &mut VecDeque<(Endpoint, M)>,
    ) -> Result<(), ExecError> {
        let RawSend {
            to,
            class,
            wire_bytes,
            payload,
        } = send;
        let verdict = driver.send(from, to, class, wire_bytes);
        match to {
            Endpoint::Coordinator => {
                let msg = decode_msg(&payload).map_err(|e| ExecError::Transport {
                    detail: format!("cannot decode a coordinator-bound message: {e}"),
                })?;
                to_coordinator.push_back((from, msg));
                Ok(())
            }
            Endpoint::Site(site) => {
                let w = (site as usize) % self.links.len().max(1);
                let frame = encode(&SiteMsg {
                    run: run.id,
                    site,
                    from,
                    class,
                    msg: payload,
                });
                match driver.admit(verdict, (w, frame)) {
                    Some((w, frame)) => self.forward(run, w, &frame),
                    None => Ok(()),
                }
            }
        }
    }

    /// Flushes a coordinator outbox: accounts its ops, encodes and
    /// routes its sends, then drains any coordinator-bound messages
    /// the routing produced (none today — coordinators cannot
    /// self-send — but the queue keeps the shape uniform).
    fn flush_coordinator<M: SocketMsg, C>(
        &mut self,
        run: &mut Run,
        driver: &mut RunDriver<C, HeldFrame>,
        out: Outbox<M>,
    ) -> Result<(), ExecError> {
        driver.record_ops(Endpoint::Coordinator, out.ops);
        let mut local: VecDeque<(Endpoint, M)> = VecDeque::new();
        for (to, class, msg) in out.sends {
            let mut payload = Vec::new();
            msg.encode(&mut payload)
                .map_err(|detail| ExecError::Unsupported { detail })?;
            let send = RawSend {
                to,
                class,
                wire_bytes: msg.wire_size(),
                payload,
            };
            let from = Endpoint::Coordinator;
            self.route_send(run, driver, from, send, &mut local)?;
        }
        debug_assert!(local.is_empty(), "coordinator cannot message itself");
        Ok(())
    }

    fn handle_event<M: SocketMsg, C: CoordinatorLogic<M>>(
        &mut self,
        run: &mut Run,
        worker: usize,
        ev: WorkerEvent,
        driver: &mut RunDriver<C, HeldFrame>,
    ) -> Result<(), ExecError> {
        let n = self.num_sites;
        match ev {
            WorkerEvent::Closed(reason) => {
                self.links[worker].dead = Some(reason.clone());
                Err(self.site_failed(worker, format!("worker process disconnected: {reason}")))
            }
            WorkerEvent::Frame(FT_SITE_OUT, payload) => {
                let frame = Reader::exact(&payload, "SITE_OUT", SiteOut::get).map_err(|e| {
                    ExecError::Transport {
                        detail: format!("bad SITE_OUT frame: {e}"),
                    }
                })?;
                if frame.run != run.id {
                    return Ok(()); // stale frame of an aborted run
                }
                let site = frame.site;
                if site as usize >= n {
                    return Err(ExecError::Transport {
                        detail: format!("SITE_OUT names site {site} of a {n}-site run"),
                    });
                }
                let from = Endpoint::Site(site);
                driver.record_ops(from, frame.out.ops);
                let mut to_coord: VecDeque<(Endpoint, M)> = VecDeque::new();
                for send in frame.out.sends {
                    self.route_send(run, driver, from, send, &mut to_coord)?;
                }
                // The handler whose outbox this was is now complete.
                run.inflight -= 1;
                // Deliver coordinator-bound messages synchronously; the
                // coordinator's own sends route like everyone else's.
                while let Some((from, msg)) = to_coord.pop_front() {
                    let out = driver.deliver(from, msg);
                    self.flush_coordinator(run, driver, out)?;
                }
                Ok(())
            }
            WorkerEvent::Frame(FT_SITE_ERR, payload) => {
                let err = Reader::exact(&payload, "SITE_ERR", SiteErr::get).map_err(|e| {
                    ExecError::Transport {
                        detail: format!("bad SITE_ERR frame: {e}"),
                    }
                })?;
                if err.run != run.id {
                    return Ok(());
                }
                Err(ExecError::SiteFailed {
                    site: err.site,
                    reason: err.reason,
                })
            }
            WorkerEvent::Frame(ty, _) => Err(ExecError::Transport {
                detail: format!("unexpected frame type {ty:#x} from worker"),
            }),
        }
    }
}

impl Drop for SocketCluster {
    fn drop(&mut self) {
        self.inner.lock().shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scatter-gather over a real socket pair, with the worker loop
    /// hosted on a thread of this process — the executor semantics
    /// without multi-process scaffolding (the engine-level tests and
    /// `tests/executors.rs` cover real processes).
    struct Scatter {
        sum: u64,
        replies: usize,
    }
    #[derive(Clone)]
    struct AddSite {
        idx: u64,
    }

    impl CoordinatorLogic<u64> for Scatter {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            for i in 0..out.num_sites() {
                out.send(Endpoint::Site(i as u32), 100);
            }
        }
        fn on_message(&mut self, _from: Endpoint, msg: u64, _out: &mut Outbox<u64>) {
            self.sum += msg;
            self.replies += 1;
        }
        fn on_quiescent(&mut self, _out: &mut Outbox<u64>) -> bool {
            true
        }
    }
    impl SiteLogic<u64> for AddSite {
        fn on_start(&mut self, _out: &mut Outbox<u64>) {}
        fn on_message(&mut self, _from: Endpoint, msg: u64, out: &mut Outbox<u64>) {
            out.charge_ops(3);
            out.send(Endpoint::Coordinator, msg + self.idx);
        }
    }
    impl RemoteSpec for AddSite {
        fn remote_spec(&self) -> Result<Vec<u8>, String> {
            Ok(encode(&self.idx))
        }
    }

    struct AddHost;
    impl WorkerHost for AddHost {
        fn load(&mut self, _blob: &[u8]) -> Result<(), String> {
            Ok(())
        }
        fn build_site(
            &self,
            site: u32,
            num_sites: usize,
            spec: &[u8],
        ) -> Result<Box<dyn ErasedSite>, String> {
            let mut r = Reader::new(spec);
            let idx = r.varint("idx").map_err(|e| e.to_string())?;
            Ok(erase_site::<u64, _>(AddSite { idx }, site, num_sites))
        }
    }

    /// `unwrap_err` without requiring `Debug` on the outcome.
    fn expect_err<C, S>(r: Result<RunOutcome<C, S>, ExecError>) -> ExecError {
        match r {
            Err(e) => e,
            Ok(_) => panic!("expected the run to fail"),
        }
    }

    fn local_worker() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let _ = serve_worker_listener(&listener, || AddHost);
        });
        addr
    }

    #[test]
    fn scatter_gather_over_sockets() {
        let addrs = vec![local_worker(), local_worker()];
        let cluster = SocketCluster::start(SocketConfig::attach(addrs), b"", 8).unwrap();
        let sites: Vec<AddSite> = (0..8).map(|i| AddSite { idx: i }).collect();
        let outcome = cluster.run(Scatter { sum: 0, replies: 0 }, sites).unwrap();
        assert_eq!(outcome.coordinator.replies, 8);
        assert_eq!(outcome.coordinator.sum, 8 * 100 + (0..8).sum::<u64>());
        assert_eq!(outcome.metrics.data_messages, 16);
        assert_eq!(outcome.metrics.total_ops, 24);
        assert_eq!(outcome.metrics.quiescence_rounds, 1);
        // Per-site accounting flowed back over the wire.
        assert_eq!(outcome.metrics.site_ops, vec![3; 8]);
        assert_eq!(outcome.metrics.site_msgs, vec![1; 8]);
        cluster.shutdown();
    }

    /// Under a delivery plan every site-bound data message may be
    /// dropped-then-retried, duplicated, delayed or reordered; an idempotent
    /// protocol (set union, like the simulation algorithms) must still
    /// converge to the same answer, and at-least-once delivery means
    /// every site is reached.
    struct SetUnion {
        seen: u64,
    }
    impl CoordinatorLogic<u64> for SetUnion {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            for i in 0..out.num_sites() {
                out.send(Endpoint::Site(i as u32), i as u64);
            }
        }
        fn on_message(&mut self, _from: Endpoint, msg: u64, _out: &mut Outbox<u64>) {
            self.seen |= 1 << msg; // idempotent under duplication
        }
        fn on_quiescent(&mut self, _out: &mut Outbox<u64>) -> bool {
            true
        }
    }

    #[test]
    fn runs_are_reusable_and_delivery_plans_preserve_answers() {
        let addrs = vec![local_worker()];
        let cfg = SocketConfig::attach(addrs).delivery(DeliveryPlan::heavy(7));
        let cluster = SocketCluster::start(cfg, b"", 4).unwrap();
        for round in 0..3 {
            let sites: Vec<AddSite> = (0..4).map(|i| AddSite { idx: i }).collect();
            let outcome = cluster.run(SetUnion { seen: 0 }, sites).unwrap();
            // idx i receives i and replies i + i = 2i; bits 0,2,4,6.
            assert_eq!(outcome.coordinator.seen, 0b0101_0101, "round {round}");
            // At-least-once: every site replied at least once.
            assert!(outcome.metrics.data_messages >= 8, "round {round}");
        }
    }

    fn scatter_sites() -> Vec<AddSite> {
        (0..8).map(|i| AddSite { idx: i }).collect()
    }

    /// A run's verdicts depend on the plan and the run alone, never on
    /// how many runs the cluster served before.
    #[test]
    fn repeated_runs_replay_one_delivery_schedule() {
        let dup_counts = |cluster: &SocketCluster| {
            let scatter = Scatter { sum: 0, replies: 0 };
            let m = cluster.run(scatter, scatter_sites()).unwrap().metrics;
            (m.duplicated_messages, m.duplicated_bytes)
        };
        let start = || {
            let cfg = SocketConfig::attach(vec![local_worker()]).delivery(DeliveryPlan::heavy(7));
            SocketCluster::start(cfg, b"", 8).unwrap()
        };
        let cluster = start();
        let first = dup_counts(&cluster);
        for run in 1..5 {
            assert_eq!(dup_counts(&cluster), first, "run {run}");
        }
        assert_eq!(dup_counts(&start()), first, "fresh cluster");
    }

    /// Scatter's outboxes do not depend on arrival order, so under one
    /// plan the virtual, the threaded and the socket executor meet the
    /// same verdicts and record the same traffic.
    #[test]
    fn every_executor_applies_one_plan_alike() {
        let addrs = vec![local_worker(), local_worker()];
        let mut duplicated = 0;
        for seed in 0..4 {
            let plan = DeliveryPlan::heavy(seed);
            let cfg = SocketConfig::attach(addrs.clone()).delivery(plan);
            let cluster = SocketCluster::start(cfg, b"", 8).unwrap();
            let sock = cluster
                .run(Scatter { sum: 0, replies: 0 }, scatter_sites())
                .unwrap();
            let virt = crate::VirtualExecutor::new(crate::CostModel::default())
                .with_delivery(plan)
                .run(Scatter { sum: 0, replies: 0 }, scatter_sites());
            let threaded = crate::ThreadedExecutor::new()
                .with_delivery(plan)
                .run(Scatter { sum: 0, replies: 0 }, scatter_sites());
            let counts = |o: &RunOutcome<Scatter, AddSite>| {
                let m = &o.metrics;
                let c = &o.coordinator;
                (
                    m.data_messages,
                    m.duplicated_messages,
                    m.duplicated_bytes,
                    c.replies,
                    c.sum,
                )
            };
            assert_eq!(counts(&sock), counts(&virt), "seed {seed}");
            assert_eq!(counts(&threaded), counts(&virt), "seed {seed}");
            duplicated += virt.metrics.duplicated_messages;
        }
        assert!(duplicated > 0, "the plans duplicated nothing");
    }

    /// One of each site frame, byte for byte: what a worker answers to
    /// hand-built coordinator frames, and what a coordinator sends to a
    /// stub worker that answers by hand.
    #[test]
    fn site_frame_bytes_are_pinned() {
        let hello = b"\x04DGSP\x01\x00";
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            run_worker(conn, &mut AddHost).unwrap()
        });
        let conn = TcpStream::connect(addr).unwrap();
        let mut rd = BufReader::new(conn.try_clone().unwrap());
        let mut wr = conn;
        let mut send = |ty: u8, payload: &[u8]| wire::write_frame(&mut wr, ty, payload).unwrap();
        let mut recv = || wire::read_frame(&mut rd).unwrap().unwrap();
        send(FT_WORKER_HELLO, hello);
        assert_eq!(recv(), (FT_WORKER_HELLO, hello.to_vec()));
        send(FT_WORKER_LOAD, b"");
        assert_eq!(recv(), (FT_WORKER_OK, vec![]));
        // Run 7 of 2 sites, hosting site 1 (spec: idx 5); its start
        // handler sends nothing.
        send(FT_SITE_HELLO, &[7, 2, 1, 1, 1, 5]);
        assert_eq!(recv(), (FT_SITE_OUT, vec![7, 1, 0, 0]));
        // 200 from site 0, control class: 3 ops, and 205 to the
        // coordinator, data class, logical size 8.
        send(FT_SITE_MSG, &[7, 1, 1, 1, 2, 0xc8, 0x01]);
        let out = vec![7, 1, 3, 1, 0, 0, 8, 2, 0xcd, 0x01];
        assert_eq!(recv(), (FT_SITE_OUT, out));
        // A message for a site this worker does not host.
        send(FT_SITE_MSG, &[7, 0, 0, 0, 1, 1]);
        let reason = b"message for a site this worker does not host";
        let err = [&[7, 0, reason.len() as u8][..], reason].concat();
        assert_eq!(recv(), (FT_SITE_ERR, err));
        send(FT_SITE_DONE, &[7]);
        send(FT_WORKER_SHUTDOWN, b"");
        assert_eq!(recv(), (FT_WORKER_OK, vec![]));
        assert_eq!(worker.join().unwrap(), WorkerExit::Shutdown);

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stub = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut rd = BufReader::new(conn.try_clone().unwrap());
            let mut wr = conn;
            let mut seen = Vec::new();
            let replies: [(u8, &[u8]); 4] = [
                (FT_WORKER_HELLO, hello),
                (FT_WORKER_OK, b""),
                (FT_SITE_OUT, &[1, 0, 0, 0]),
                (FT_SITE_OUT, &[1, 0, 3, 1, 0, 0, 8, 1, 100]),
            ];
            for (ty, payload) in replies {
                seen.push(wire::read_frame(&mut rd).unwrap().unwrap());
                wire::write_frame(&mut wr, ty, payload).unwrap();
            }
            seen.push(wire::read_frame(&mut rd).unwrap().unwrap());
            seen
        });
        let cluster = SocketCluster::start(SocketConfig::attach(vec![addr]), b"boot", 1).unwrap();
        let scatter = Scatter { sum: 0, replies: 0 };
        let outcome = cluster.run(scatter, vec![AddSite { idx: 9 }]).unwrap();
        assert_eq!(
            (outcome.coordinator.sum, outcome.coordinator.replies),
            (100, 1)
        );
        let sent = vec![
            (FT_WORKER_HELLO, hello.to_vec()),
            (FT_WORKER_LOAD, b"boot".to_vec()),
            // Run 1 of 1 site, hosting site 0 (spec: idx 9).
            (FT_SITE_HELLO, vec![1, 1, 1, 0, 1, 9]),
            // 100 to site 0 from the coordinator, data class.
            (FT_SITE_MSG, vec![1, 0, 0, 0, 1, 100]),
            (FT_SITE_DONE, vec![1]),
        ];
        assert_eq!(stub.join().unwrap(), sent);
    }

    /// A stub worker: it acknowledges the handshake and the bootstrap,
    /// answers the frames it reads next with `replies`, one each, then
    /// swallows everything else.
    fn scripted_worker(replies: Vec<(u8, Vec<u8>)>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut rd = BufReader::new(conn.try_clone().unwrap());
            let mut wr = conn;
            let (ty, hello) = wire::read_frame(&mut rd).unwrap().unwrap();
            assert_eq!(ty, FT_WORKER_HELLO);
            let ack = [(FT_WORKER_HELLO, hello), (FT_WORKER_OK, vec![])];
            for (ty, payload) in ack.into_iter().chain(replies) {
                wire::write_frame(&mut wr, ty, &payload).unwrap();
                if wire::read_frame(&mut rd).is_err() {
                    return;
                }
            }
            while let Ok(Some(_)) = wire::read_frame(&mut rd) {}
        });
        addr
    }

    #[test]
    fn stalled_protocol_is_a_typed_error() {
        struct Stall;
        impl CoordinatorLogic<u64> for Stall {
            fn on_start(&mut self, _out: &mut Outbox<u64>) {}
            fn on_message(&mut self, _f: Endpoint, _m: u64, _o: &mut Outbox<u64>) {}
            fn on_quiescent(&mut self, _out: &mut Outbox<u64>) -> bool {
                false
            }
        }
        let addrs = vec![local_worker(), local_worker()];
        let cluster = SocketCluster::start(SocketConfig::attach(addrs), b"", 2).unwrap();
        let sites: Vec<AddSite> = (0..2).map(|i| AddSite { idx: i }).collect();
        let err = expect_err(cluster.run(Stall, sites));
        assert!(matches!(err, ExecError::Stalled), "{err:?}");
    }

    #[test]
    fn silent_worker_times_out_instead_of_hanging() {
        let addr = scripted_worker(vec![]);
        let cfg = SocketConfig::attach(vec![addr]).site_timeout(Duration::from_millis(200));
        let cluster = SocketCluster::start(cfg, b"", 2).unwrap();
        let sites: Vec<AddSite> = (0..2).map(|i| AddSite { idx: i }).collect();
        let err = expect_err(cluster.run(Scatter { sum: 0, replies: 0 }, sites));
        assert!(matches!(err, ExecError::Timeout { .. }), "{err:?}");
    }

    /// A site id past `u32::MAX` is a corrupt frame, not site
    /// `id mod 2^32` — which would pass the range check and be
    /// credited with another site's outbox.
    #[test]
    fn site_out_naming_a_site_past_u32_is_a_transport_error() {
        let mut out = vec![1];
        wire::put_varint(&mut out, 1 << 32 | 1);
        out.extend([0, 0]);
        let addr = scripted_worker(vec![(FT_SITE_OUT, out)]);
        let cfg = SocketConfig::attach(vec![addr]).site_timeout(Duration::from_millis(500));
        let cluster = SocketCluster::start(cfg, b"", 2).unwrap();
        let sites: Vec<AddSite> = (0..2).map(|i| AddSite { idx: i }).collect();
        let err = expect_err(cluster.run(Scatter { sum: 0, replies: 0 }, sites));
        assert!(matches!(err, ExecError::Transport { .. }), "{err:?}");
    }

    /// The coordinator decodes a message bound for it as exactly as a
    /// worker decodes one bound for a site: trailing bytes are refused.
    #[test]
    fn coordinator_bound_messages_with_trailing_bytes_are_refused() {
        let addr = scripted_worker(vec![
            (FT_SITE_OUT, vec![1, 0, 0, 0]),
            // 100 to the coordinator, then one byte too many.
            (FT_SITE_OUT, vec![1, 0, 3, 1, 0, 0, 8, 2, 100, 0]),
        ]);
        let cfg = SocketConfig::attach(vec![addr]).site_timeout(Duration::from_millis(500));
        let cluster = SocketCluster::start(cfg, b"", 1).unwrap();
        let err = expect_err(cluster.run(Scatter { sum: 0, replies: 0 }, vec![AddSite { idx: 0 }]));
        assert!(matches!(err, ExecError::Transport { .. }), "{err:?}");
    }

    #[test]
    fn dead_worker_is_a_typed_site_failure() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut rd = BufReader::new(conn.try_clone().unwrap());
            let mut wr = conn;
            let (_, payload) = wire::read_frame(&mut rd).unwrap().unwrap();
            wire::write_frame(&mut wr, FT_WORKER_HELLO, &payload).unwrap();
            let _ = wire::read_frame(&mut rd).unwrap();
            wire::write_frame(&mut wr, FT_WORKER_OK, &[]).unwrap();
            // Die right after the bootstrap: the connection drops.
            drop(wr);
        });
        let cfg = SocketConfig::attach(vec![addr]).site_timeout(Duration::from_secs(5));
        let cluster = SocketCluster::start(cfg, b"", 3).unwrap();
        let sites: Vec<AddSite> = (0..3).map(|i| AddSite { idx: i }).collect();
        let err = expect_err(cluster.run(Scatter { sum: 0, replies: 0 }, sites));
        assert!(matches!(err, ExecError::SiteFailed { .. }), "{err:?}");
        // The cluster stays typed-dead: the next run fails fast, too.
        let sites: Vec<AddSite> = (0..3).map(|i| AddSite { idx: i }).collect();
        let err = expect_err(cluster.run(Scatter { sum: 0, replies: 0 }, sites));
        assert!(matches!(err, ExecError::SiteFailed { .. }), "{err:?}");
    }

    #[test]
    fn worker_panic_surfaces_as_site_err_frame() {
        #[derive(Clone)]
        struct Bomb;
        impl SiteLogic<u64> for Bomb {
            fn on_start(&mut self, _out: &mut Outbox<u64>) {}
            fn on_message(&mut self, _f: Endpoint, _m: u64, _o: &mut Outbox<u64>) {
                panic!("boom at the remote site");
            }
        }
        impl RemoteSpec for Bomb {
            fn remote_spec(&self) -> Result<Vec<u8>, String> {
                Ok(Vec::new())
            }
        }
        struct BombHost;
        impl WorkerHost for BombHost {
            fn load(&mut self, _blob: &[u8]) -> Result<(), String> {
                Ok(())
            }
            fn build_site(
                &self,
                site: u32,
                num_sites: usize,
                _spec: &[u8],
            ) -> Result<Box<dyn ErasedSite>, String> {
                Ok(erase_site::<u64, _>(Bomb, site, num_sites))
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let _ = serve_worker_listener(&listener, || BombHost);
        });
        let cluster = SocketCluster::start(SocketConfig::attach(vec![addr]), b"", 2).unwrap();
        let err = expect_err(cluster.run(Scatter { sum: 0, replies: 0 }, vec![Bomb, Bomb]));
        match err {
            ExecError::SiteFailed { reason, .. } => {
                assert_eq!(reason, "site handler panicked: boom at the remote site");
            }
            other => panic!("expected SiteFailed, got {other:?}"),
        }
    }

    #[test]
    fn unremotable_protocols_are_gated_before_any_frame() {
        #[derive(Clone)]
        struct Opaque;
        impl SiteLogic<u64> for Opaque {
            fn on_start(&mut self, _out: &mut Outbox<u64>) {}
            fn on_message(&mut self, _f: Endpoint, _m: u64, _o: &mut Outbox<u64>) {}
        }
        impl RemoteSpec for Opaque {
            fn remote_spec(&self) -> Result<Vec<u8>, String> {
                Err("this protocol is not socket-remotable".into())
            }
        }
        let addrs = vec![local_worker()];
        let cluster = SocketCluster::start(SocketConfig::attach(addrs), b"", 1).unwrap();
        let err = expect_err(cluster.run(Scatter { sum: 0, replies: 0 }, vec![Opaque]));
        assert!(matches!(err, ExecError::Unsupported { .. }), "{err:?}");
    }
}
