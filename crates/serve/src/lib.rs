//! # dgs-serve
//!
//! The network serving layer of dgs: everything the in-process
//! [`SimEngine`](dgs_core::SimEngine) session offers —
//! `query`/`query_batch` with plans and metrics, `apply_delta`,
//! cache stats, named sessions — carried over a
//! hand-rolled, versioned, length-prefixed binary wire protocol on
//! plain `std` TCP or Unix-domain sockets. No async runtime, no
//! serialization crates: frames are `[u32 LE length][u8 type]
//! [payload]` and payloads are varints, fixed little-endian integers
//! and length-prefixed strings (see `docs/PROTOCOL.md`).
//!
//! The pieces, bottom-up:
//!
//! | module | contents |
//! |--------|----------|
//! | [`wire`] | framing + primitive codecs; bounds-checked [`wire::Reader`] |
//! | [`proto`] | [`Request`]/[`Response`] frames, [`Answer`], version handshake |
//! | [`transport`] | [`ServeAddr`] (`tcp:`/`unix:` spellings), stream + listener |
//! | [`poll`] | the `poll(2)` readiness shim + self-pipe waker (std only) |
//! | [`session`] | [`SessionManager`]: named sessions, one per connection route; the one session recipe ([`SessionOptions::engine_builder`]) |
//! | [`server`] | [`Server`]: readiness-loop daemon core (event thread + worker pool) with pipelining, admission control and drain shutdown |
//! | [`client`] | [`DgsClient`]: the typed client — blocking calls or pipelined submit/await |
//! | [`load`] | [`run_load`]: open-/closed-loop traffic generation |
//! | [`flags`] | the `--key value` parser `dgsd`, `dgsload` and `dgsq` share |
//!
//! Queries never block behind a writer: every engine is
//! snapshot-isolated (reads run against an immutable, atomically
//! swapped generation snapshot), and a daemon hosts many engines as
//! named **sessions** — `SESSION_CREATE`/`SESSION_DROP` manage them,
//! and `SESSION_ROUTE` points a connection at one. Sites distribute a
//! graph; sessions only keep graphs apart, so every answer is one
//! session's.
//!
//! Two binaries ship with the crate: **`dgsd`**, the daemon, and
//! **`dgsload`**, the traffic generator (throughput + p50/p95/p99
//! from [`dgs_net::LatencyHistogram`]). `dgsq --remote <addr>`
//! drives any daemon from the existing CLI.
//!
//! ## In-process quickstart
//!
//! ```
//! use dgs_serve::{DgsClient, Server, ServerConfig, ServeAddr, WireAlgorithm};
//! use dgs_core::SimEngine;
//! use dgs_graph::generate::social::fig1;
//! use dgs_partition::Fragmentation;
//! use std::sync::Arc;
//!
//! // Build a session and serve it on an ephemeral port.
//! let w = fig1();
//! let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
//! let engine = SimEngine::builder(&w.graph, frag).build();
//! let server = Server::bind(
//!     &ServeAddr::parse("127.0.0.1:0").unwrap(),
//!     engine,
//!     ServerConfig::default(),
//! )
//! .unwrap();
//! let handle = server.spawn();
//!
//! // Remote answers equal in-process answers.
//! let mut client = DgsClient::connect(handle.addr()).unwrap();
//! let answer = client.query(&w.pattern, WireAlgorithm::Auto).unwrap();
//! assert!(answer.is_match);
//! assert_eq!(answer.relation().len(), 11);
//!
//! drop(client);
//! handle.shutdown().unwrap();
//! ```

pub mod client;
pub mod error;
pub mod flags;
pub mod load;
pub mod poll;
pub mod proto;
pub mod server;
pub mod session;
pub mod subscribe;
pub mod transport;
pub mod wire;

pub use client::{DgsClient, SubscriptionEvent};
pub use error::{ErrorCode, ServeError};
pub use load::{
    mixed_pattern_pool, run_conn_sweep, run_load, run_subscribe, ConnSweepConfig, ConnSweepStep,
    LoadConfig, LoadMode, LoadReport, SubscribeConfig, SubscribeReport,
};
pub use proto::{
    Answer, DeltaSummary, GraphInfo, MatchDiff, Request, Response, SessionInfo, SessionOptions,
    SubEventKind, WireAlgorithm, WireCacheStats, WireMetrics, WirePartitioner, WireTrace,
    WIRE_MAGIC, WIRE_VERSION,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use session::{SessionManager, DEFAULT_SESSION};
pub use transport::{Conn, Listener, ServeAddr};
