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
//! [`crate::WireSize`] exactly as under the other executors, so `RunMetrics`
//! are comparable across all three.
//!
//! ## Generic dispatch
//!
//! The executor is generic over the protocol: messages implement
//! [`SocketMsg`] (a byte codec on top of [`crate::wire`]) and site
//! logics implement [`RemoteSpec`] (an opaque per-site bootstrap blob
//! from which the worker process reconstructs the logic — pattern,
//! engine configuration, query mode). The worker side is type-erased
//! (`worker.rs`); the frames are `frame.rs`'s and the coordinator,
//! with its fault rules, is `coordinator.rs`'s.

mod coordinator;
mod frame;
mod worker;

pub use coordinator::{RemoteSpec, SocketCluster, SocketConfig, WorkerMode};
pub use frame::{
    RawOutbox, RawSend, SocketMsg, ANNOUNCE_MARKER, FT_SITE_DONE, FT_SITE_ERR, FT_SITE_HELLO,
    FT_SITE_MSG, FT_SITE_OUT, FT_WORKER_ERR, FT_WORKER_HELLO, FT_WORKER_LOAD, FT_WORKER_OK,
    FT_WORKER_SHUTDOWN, SOCKET_MAGIC, SOCKET_VERSION,
};
pub use worker::{
    erase_site, run_worker, serve_worker_listener, ErasedSite, WorkerExit, WorkerHost,
};
