//! The coordinator side: [`SocketCluster`] spawns or attaches to the
//! workers, bootstraps them, and routes every run through itself.
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

use super::frame::*;
use crate::delivery::DeliveryPlan;
use crate::driver::{Barrier, RunDriver};
use crate::message::Endpoint;
use crate::site::{CoordinatorLogic, Outbox, SiteLogic};
use crate::wire::{self, encode, Reader, Wire};
use crate::{ExecError, RunOutcome};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A site logic that a worker process can reconstruct from an opaque
/// spec blob (see `dgs-core`'s `remote` module for the engine specs).
pub trait RemoteSpec {
    /// The per-site bootstrap spec, or `Err` when this protocol cannot
    /// run remotely (e.g. its state cannot be rebuilt worker-side).
    fn remote_spec(&self) -> Result<Vec<u8>, String>;
}

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

impl WorkerLink {
    /// Connects to worker `idx` at `addr` and performs the handshake;
    /// from then on a thread forwards the worker's frames to `events`.
    fn connect(
        idx: usize,
        addr: String,
        events: crossbeam::channel::Sender<(usize, WorkerEvent)>,
    ) -> Result<WorkerLink, ExecError> {
        let transport = |e: std::io::Error, what: &str| ExecError::Transport {
            detail: format!("{what}: {e}"),
        };
        // The worker may still be binding; retry briefly.
        let deadline = Instant::now() + Duration::from_secs(5);
        let stream = loop {
            match TcpStream::connect(&addr) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(transport(e, &format!("cannot connect to worker {addr}"))),
            }
        };
        stream
            .set_nodelay(true)
            .map_err(|e| transport(e, "set_nodelay"))?;
        let mut rd = stream
            .try_clone()
            .map_err(|e| transport(e, "clone stream"))?;
        let mut link = WorkerLink {
            stream,
            addr,
            sites: Vec::new(),
            dead: None,
        };
        let hello: Handshake = (SOCKET_MAGIC.to_vec(), SOCKET_VERSION);
        let addr = &link.addr;
        wire::write_frame(&mut link.stream, FT_WORKER_HELLO, &encode(&hello))
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
        // From here on, the worker talks asynchronously.
        std::thread::spawn(move || loop {
            let closed = match wire::read_frame(&mut rd) {
                Ok(Some((ty, payload))) => {
                    match events.send((idx, WorkerEvent::Frame(ty, payload))) {
                        Ok(()) => continue,
                        Err(_) => break,
                    }
                }
                Ok(None) => "connection closed".to_owned(),
                Err(e) => e.to_string(),
            };
            let _ = events.send((idx, WorkerEvent::Closed(closed)));
            break;
        });
        Ok(link)
    }
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
    /// site `i` lives on worker `i % workers`. On any error every
    /// worker spawned so far is killed and reaped.
    ///
    /// [`WorkerHost::load`]: super::WorkerHost::load
    pub fn start(
        cfg: SocketConfig,
        bootstrap: &[u8],
        num_sites: usize,
    ) -> Result<SocketCluster, ExecError> {
        let (tx, events) = crossbeam::channel::unbounded();
        let cluster = SocketCluster {
            inner: Mutex::new(ClusterInner {
                links: Vec::new(),
                children: Vec::new(),
                events,
                num_sites,
                next_run: 1,
                timeout: cfg.site_timeout,
                delivery: cfg.delivery,
                owns_workers: matches!(cfg.mode, WorkerMode::SpawnLocal { .. }),
                shut_down: false,
            }),
        };
        // An early return drops `cluster`, whose shutdown reaps what
        // `spawn` started.
        let mut inner = cluster.inner.lock();
        let addrs = inner.spawn(cfg.mode)?;
        if addrs.is_empty() && num_sites > 0 {
            return Err(ExecError::Unsupported {
                detail: format!("{num_sites} sites need at least one worker process"),
            });
        }
        for (idx, addr) in addrs.into_iter().enumerate() {
            let link = WorkerLink::connect(idx, addr, tx.clone())?;
            inner.links.push(link);
        }
        drop(tx);
        for site in 0..num_sites {
            let w = site % inner.links.len().max(1);
            inner.links[w].sites.push(site as u32);
        }
        inner.load(bootstrap)?;
        drop(inner);
        Ok(cluster)
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
        self.inner.lock().load(bootstrap)
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
    /// The workers' addresses: `mode`'s own, or those the spawned
    /// processes announce. A spawned process joins `children` before
    /// it announces, so a failed start reaps it too.
    fn spawn(&mut self, mode: WorkerMode) -> Result<Vec<String>, ExecError> {
        let (program, args, count) = match mode {
            WorkerMode::Attach { addrs } => return Ok(addrs),
            WorkerMode::SpawnLocal {
                program,
                args,
                count,
            } => (program, args, count),
        };
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
            let mut lines = BufReader::new(child.stdout.take().expect("stdout piped"));
            self.children.push(child);
            // The worker prints its announce line first; a few lines
            // of slack tolerate harness noise.
            let mut line = String::new();
            let addr = (0..32).find_map(|_| {
                line.clear();
                match lines.read_line(&mut line) {
                    Ok(0) | Err(_) => Some(None),
                    Ok(_) => (line.find(ANNOUNCE_MARKER))
                        .map(|pos| Some(line[pos + ANNOUNCE_MARKER.len()..].trim().to_owned())),
                }
            });
            let Some(Some(addr)) = addr else {
                return Err(ExecError::Transport {
                    detail: format!(
                        "worker {} exited without announcing \"{ANNOUNCE_MARKER}<addr>\"",
                        program.display()
                    ),
                });
            };
            // Keep draining the pipe so the worker never blocks on a
            // full stdout.
            std::thread::spawn(move || std::io::copy(&mut lines, &mut std::io::sink()));
            addrs.push(addr);
        }
        Ok(addrs)
    }

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

    /// Ships the session bootstrap, at start and on
    /// [`SocketCluster::rebootstrap`]: sends `WORKER_LOAD` to all
    /// workers and awaits one acknowledgement each over the event
    /// channel (stale frames of aborted runs are discarded).
    fn load(&mut self, bootstrap: &[u8]) -> Result<(), ExecError> {
        self.check_alive()?;
        for w in 0..self.links.len() {
            self.write_worker(w, FT_WORKER_LOAD, bootstrap)?;
        }
        let mut pending = vec![true; self.links.len()];
        while pending.iter().any(|&p| p) {
            let waiting = || "no worker acknowledged the session bootstrap".into();
            match self.next_event(waiting)? {
                (w, WorkerEvent::Frame(FT_WORKER_OK, _)) => pending[w] = false,
                (w, WorkerEvent::Frame(FT_WORKER_ERR, payload)) => {
                    let reason = worker_err_reason(&payload);
                    return Err(ExecError::Transport {
                        detail: format!(
                            "worker {} rejected the session bootstrap: {reason}",
                            self.links[w].addr
                        ),
                    });
                }
                // Stale frames of a previously aborted run.
                (_, WorkerEvent::Frame(FT_SITE_OUT | FT_SITE_ERR, _)) => continue,
                (w, WorkerEvent::Closed(reason)) => {
                    self.links[w].dead = Some(reason.clone());
                    return Err(self.site_failed(w, reason));
                }
                (_, WorkerEvent::Frame(ty, _)) => {
                    return Err(ExecError::Transport {
                        detail: format!("unexpected frame type {ty:#x} during the bootstrap"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Fails with the first dead worker, as a site failure.
    fn check_alive(&self) -> Result<(), ExecError> {
        match self.links.iter().position(|l| l.dead.is_some()) {
            Some(w) => Err(self.site_failed(w, self.links[w].dead.clone().unwrap_or_default())),
            None => Ok(()),
        }
    }

    /// The next worker event; on the timeout, `waiting` says what for.
    fn next_event(
        &self,
        waiting: impl FnOnce() -> String,
    ) -> Result<(usize, WorkerEvent), ExecError> {
        use crossbeam::channel::RecvTimeoutError;
        self.events.recv_timeout(self.timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => ExecError::Timeout {
                millis: self.timeout.as_millis() as u64,
                detail: waiting(),
            },
            RecvTimeoutError::Disconnected => ExecError::Transport {
                detail: "all worker connections are gone".into(),
            },
        })
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
        self.check_alive()?;
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
            let inflight = run.inflight;
            let (w, ev) = self.next_event(|| {
                format!(
                    "{inflight} message(s) in flight but no worker frame arrived \
                     within the per-site timeout"
                )
            })?;
            self.handle_event(&mut run, w, ev, &mut driver)?;
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
    use crate::socket::{
        erase_site, run_worker, serve_worker_listener, ErasedSite, WorkerExit, WorkerHost,
    };
    use std::net::TcpListener;

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
        let ack = (FT_WORKER_OK, vec![]);
        scripted_endpoint(1, std::iter::once(ack).chain(replies).collect())
    }

    /// A stub endpoint taking `connections` coordinator connections:
    /// each has its handshake answered, then the frames read after it
    /// answered with `replies`, one each.
    fn scripted_endpoint(connections: usize, replies: Vec<(u8, Vec<u8>)>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for conn in listener.incoming().take(connections) {
                let conn = conn.unwrap();
                let replies = replies.clone();
                std::thread::spawn(move || {
                    let mut rd = BufReader::new(conn.try_clone().unwrap());
                    let mut wr = conn;
                    let (ty, hello) = wire::read_frame(&mut rd).unwrap().unwrap();
                    assert_eq!(ty, FT_WORKER_HELLO);
                    let ack = (FT_WORKER_HELLO, hello);
                    for (ty, payload) in std::iter::once(ack).chain(replies) {
                        wire::write_frame(&mut wr, ty, &payload).unwrap();
                        if wire::read_frame(&mut rd).is_err() {
                            return;
                        }
                    }
                    while let Ok(Some(_)) = wire::read_frame(&mut rd) {}
                });
            }
        });
        addr
    }

    fn rejection() -> (u8, Vec<u8>) {
        (FT_WORKER_ERR, encode(&"no graph here".to_owned()))
    }

    /// The reason a rejected bootstrap fails with.
    fn rejected(err: ExecError) -> String {
        match err {
            ExecError::Transport { detail } => detail,
            other => panic!("expected a transport error, got {other:?}"),
        }
    }

    /// A worker that refuses the bootstrap fails `start` and
    /// `rebootstrap` alike, naming itself and its reason.
    #[test]
    fn a_rejected_bootstrap_is_a_typed_error_naming_the_worker() {
        let addr = scripted_endpoint(1, vec![rejection()]);
        let Err(err) = SocketCluster::start(SocketConfig::attach(vec![addr.clone()]), b"", 2)
        else {
            panic!("the bootstrap was rejected");
        };
        let want = format!("worker {addr} rejected the session bootstrap: no graph here");
        assert_eq!(rejected(err), want);

        let addr = scripted_worker(vec![rejection()]);
        let cfg = SocketConfig::attach(vec![addr.clone()]).site_timeout(Duration::from_secs(5));
        let cluster = SocketCluster::start(cfg, b"", 2).unwrap();
        let err = cluster.rebootstrap(b"next").unwrap_err();
        let want = format!("worker {addr} rejected the session bootstrap: no graph here");
        assert_eq!(rejected(err), want);
    }

    /// A spawn-local cluster whose bootstrap is rejected leaves none of
    /// the processes it spawned running. The stand-in workers record
    /// their pids, announce an endpoint that rejects the bootstrap and
    /// would otherwise stay up for a minute.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_start_reaps_every_spawned_worker() {
        let addr = scripted_endpoint(2, vec![rejection()]);
        let pid_file = std::env::temp_dir().join(format!("dgs-reap-{}", std::process::id()));
        let _ = std::fs::remove_file(&pid_file);
        let script = format!(
            "echo $$ >> {}; echo '{ANNOUNCE_MARKER}{addr}'; exec sleep 60",
            pid_file.display()
        );
        let cfg = SocketConfig::spawn_local("/bin/sh", vec!["-c".into(), script], 2);
        let Err(err) = SocketCluster::start(cfg, b"", 2) else {
            panic!("the bootstrap was rejected");
        };
        assert!(rejected(err).starts_with(&format!("worker {addr} rejected")));
        let pids = std::fs::read_to_string(&pid_file).unwrap();
        std::fs::remove_file(&pid_file).unwrap();
        assert_eq!(pids.lines().count(), 2, "{pids}");
        for pid in pids.lines() {
            let alive = std::path::Path::new(&format!("/proc/{pid}")).exists();
            assert!(!alive, "spawned worker {pid} is still running");
        }
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
