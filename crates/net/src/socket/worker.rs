//! The worker side: [`run_worker`] serves one coordinator connection,
//! [`serve_worker_listener`] accepts them one at a time, and a
//! [`WorkerHost`] turns spec blobs into type-erased [`ErasedSite`]s,
//! so one worker binary serves every protocol. Handler panics become
//! `SITE_ERR` frames, never a dead worker.

use super::frame::*;
use crate::message::Endpoint;
use crate::panic_reason;
use crate::site::{Outbox, SiteLogic};
use crate::wire::{self, encode, FrameError, Reader, Wire};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};

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
