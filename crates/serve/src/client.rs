//! The typed remote client: one connection speaking the frame
//! protocol, with a method per request — and a **pipelined**
//! submit/await API that keeps many requests in flight on the one
//! connection.
//!
//! ```no_run
//! use dgs_serve::{DgsClient, ServeAddr};
//!
//! let addr = ServeAddr::parse("127.0.0.1:7311").unwrap();
//! let mut client = DgsClient::connect(&addr).unwrap();
//! let info = client.graph_info().unwrap();
//! println!("serving |V| = {}, |E| = {}", info.nodes, info.edges);
//!
//! // Pipelined: submit a window, then await in any order.
//! let ids: Vec<_> = (0..16)
//!     .map(|_| client.submit(&dgs_serve::Request::Ping).unwrap())
//!     .collect();
//! for id in ids {
//!     client.await_response(id).unwrap();
//! }
//! ```

use crate::error::{ErrorCode, ServeError};
use crate::proto::{
    frame, Answer, DeltaSummary, GraphInfo, MatchDiff, Request, Response, SessionInfo,
    SessionOptions, SubEventKind, WireAlgorithm, WireCacheStats, WireMetrics, WireTrace,
    WIRE_MAGIC, WIRE_VERSION,
};
use crate::transport::{Conn, ServeAddr};
use crate::wire::{put_varint, split_request_id, write_frame, FrameReader, CONN_LEVEL_ID};
use dgs_core::GraphDelta;
use dgs_graph::{Graph, Pattern};
use dgs_net::MetricsSnapshot;
use std::collections::{HashMap, HashSet, VecDeque};

/// One push from a live subscription: a match-set diff, or
/// a typed lifecycle event ending the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubscriptionEvent {
    /// The subscribed pattern's match set changed: `added`/`removed`
    /// `(query node, data node)` pairs, tagged with the generation the
    /// stream is now at.
    Diff(MatchDiff),
    /// The subscription ended (overflow, the session was dropped, or
    /// the server is draining). No further frames follow for this
    /// `sub_id`.
    Event {
        /// Which subscription.
        sub_id: u64,
        /// Why it ended.
        kind: SubEventKind,
    },
}

/// A connected client session.
pub struct DgsClient {
    conn: Conn,
    /// Resumable reader: a timeout mid-frame keeps the partial bytes
    /// buffered instead of desyncing the stream.
    reader: FrameReader,
    /// The next request id to assign (ids start at 1 — the server
    /// reserves 0 for connection-level frames).
    next_id: u64,
    /// Ids submitted but not yet awaited.
    outstanding: HashSet<u64>,
    /// Responses that arrived while awaiting a different id.
    stash: HashMap<u64, Response>,
    /// Subscription pushes (id-0 `MATCH_DIFF`/`SUB_EVENT` frames) that
    /// arrived while awaiting a response; drained by
    /// [`DgsClient::poll_event`]/[`DgsClient::next_event`].
    events: VecDeque<SubscriptionEvent>,
    /// Encoded submits not yet handed to the kernel: a pipelined
    /// burst goes out as one write when an await needs the wire (or
    /// the buffer passes [`SUBMIT_FLUSH_BYTES`]), not one syscall per
    /// request.
    wbuf: Vec<u8>,
}

/// Pending submits flush to the socket once the batch buffer reaches
/// this size, even before any await.
const SUBMIT_FLUSH_BYTES: usize = 64 * 1024;

impl DgsClient {
    /// Dials `addr` and performs the version handshake. A server at
    /// capacity answers the handshake with a typed `Busy` rejection
    /// ([`ServeError::is_busy`]); a server that welcomes at any
    /// version but [`WIRE_VERSION`] is
    /// [`ServeError::UnsupportedVersion`].
    pub fn connect(addr: &ServeAddr) -> Result<DgsClient, ServeError> {
        let mut conn = Conn::connect(addr)?;
        let _ = conn.set_nodelay();
        let mut hello = Vec::with_capacity(5);
        hello.extend_from_slice(&WIRE_MAGIC);
        hello.push(WIRE_VERSION);
        write_frame(&mut conn, frame::HELLO, &hello)?;
        let mut reader = FrameReader::new();
        let Some((ty, payload)) = reader.read_frame(&mut conn)? else {
            return Err(ServeError::corrupt("server closed during handshake"));
        };
        match ty {
            frame::WELCOME => {
                // Tolerate trailing bytes after the version — a
                // future server's extensions, same stance the server
                // takes on HELLO.
                if payload.len() < 5 || payload[..4] != WIRE_MAGIC {
                    return Err(ServeError::corrupt("malformed WELCOME"));
                }
                let version = payload[4];
                if version != WIRE_VERSION {
                    return Err(ServeError::UnsupportedVersion {
                        ours: WIRE_VERSION,
                        theirs: version,
                    });
                }
                Ok(DgsClient {
                    conn,
                    reader,
                    next_id: 1,
                    outstanding: HashSet::new(),
                    stash: HashMap::new(),
                    events: VecDeque::new(),
                    wbuf: Vec::new(),
                })
            }
            frame::ERROR => match Response::decode(ty, &payload)? {
                Response::Error { code, message } => Err(ServeError::Remote { code, message }),
                _ => unreachable!("ERROR frames decode to Response::Error"),
            },
            other => Err(ServeError::corrupt(format!(
                "expected WELCOME, got frame {other:#04x}"
            ))),
        }
    }

    /// Parses and dials an address spelling (`host:port`,
    /// `tcp:host:port` or `unix:/path`).
    pub fn connect_str(addr: &str) -> Result<DgsClient, ServeError> {
        let addr = ServeAddr::parse(addr)
            .ok_or_else(|| ServeError::corrupt(format!("unparseable address '{addr}'")))?;
        DgsClient::connect(&addr)
    }

    /// Bounds how long a blocking read may wait (`None` = forever).
    /// A timed-out [`DgsClient::next_event`] surfaces as
    /// [`ServeError::Io`] with kind `WouldBlock`/`TimedOut`; the
    /// resumable frame reader keeps any partial bytes, so the
    /// connection stays usable afterwards — this is how a subscriber
    /// polls a stream that may have gone quiet.
    pub fn set_read_timeout(&self, d: Option<std::time::Duration>) -> std::io::Result<()> {
        self.conn.set_read_timeout(d)
    }

    /// Requests submitted but not yet awaited.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// **Pipelined** submit: encodes the request under
    /// a fresh id and returns immediately — the server may answer
    /// this and other submitted requests in any order; collect each
    /// with [`DgsClient::await_response`]. Submits are batched: the
    /// bytes reach the kernel at the next `await_response` (which
    /// always flushes first) or once the batch passes 64 KiB, so a
    /// burst of submits costs one syscall. A submit never awaited
    /// *and* never followed by an await may therefore never be sent.
    pub fn submit(&mut self, req: &Request) -> Result<u64, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        // Encode straight into the batch buffer: the frame reaches
        // the kernel at the next await (or when the buffer fills),
        // so a burst of submits costs one syscall, not one each.
        let start = self.wbuf.len();
        self.wbuf.extend_from_slice(&[0, 0, 0, 0, 0]);
        put_varint(&mut self.wbuf, id);
        let ty = req.encode_into(&mut self.wbuf);
        let len = (self.wbuf.len() - start - 5) as u32;
        self.wbuf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.wbuf[start + 4] = ty;
        self.outstanding.insert(id);
        if self.wbuf.len() >= SUBMIT_FLUSH_BYTES {
            self.flush_submits()?;
        }
        Ok(id)
    }

    /// Hands every batched submit to the kernel.
    fn flush_submits(&mut self) -> Result<(), ServeError> {
        if !self.wbuf.is_empty() {
            std::io::Write::write_all(&mut self.conn, &self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Blocks for the response to a submitted `id`, reading (and
    /// stashing) other responses that arrive first. Server `ERROR`
    /// frames for this id become [`ServeError::Remote`]; a response
    /// carrying an id this client never submitted is a protocol
    /// violation and surfaces as a typed corrupt error.
    pub fn await_response(&mut self, id: u64) -> Result<Response, ServeError> {
        if !self.outstanding.contains(&id) && !self.stash.contains_key(&id) {
            return Err(ServeError::corrupt(format!(
                "request id {id} was never submitted (or already awaited)"
            )));
        }
        self.flush_submits()?;
        loop {
            if let Some(resp) = self.stash.remove(&id) {
                self.outstanding.remove(&id);
                return match resp {
                    Response::Error { code, message } => Err(ServeError::Remote { code, message }),
                    resp => Ok(resp),
                };
            }
            let Some((ty, payload)) = self.reader.read_frame(&mut self.conn)? else {
                return Err(ServeError::corrupt("server closed mid-request"));
            };
            let (got, body) = split_request_id(&payload)?;
            if got != CONN_LEVEL_ID && !self.outstanding.contains(&got) {
                return Err(ServeError::corrupt(format!(
                    "server answered unknown request id {got}"
                )));
            }
            let resp = Response::decode(ty, body)?;
            if got == CONN_LEVEL_ID {
                // A connection-level frame (id 0). Subscription pushes
                // interleave with pipelined responses by design: queue
                // them for `poll_event`/`next_event` and keep waiting
                // for the awaited id. Anything else — a drain notice,
                // typically — surfaces on whatever await is active.
                match resp {
                    Response::MatchDiff(diff) => {
                        self.events.push_back(SubscriptionEvent::Diff(diff));
                        continue;
                    }
                    Response::SubEvent { sub_id, kind } => {
                        self.events
                            .push_back(SubscriptionEvent::Event { sub_id, kind });
                        continue;
                    }
                    _ => {}
                }
                self.outstanding.remove(&id);
                return match resp {
                    Response::Error { code, message } => Err(ServeError::Remote { code, message }),
                    resp => Ok(resp),
                };
            }
            self.stash.insert(got, resp);
        }
    }

    /// One request/response exchange — submit + await of one id;
    /// server `ERROR` frames become [`ServeError::Remote`].
    pub fn request(&mut self, req: &Request) -> Result<Response, ServeError> {
        let id = self.submit(req)?;
        self.await_response(id)
    }

    fn unexpected<T>(what: &str) -> Result<T, ServeError> {
        Err(ServeError::corrupt(format!(
            "server answered with the wrong frame for {what}"
        )))
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Self::unexpected("PING"),
        }
    }

    /// The loaded graph and fragmentation summary.
    pub fn graph_info(&mut self) -> Result<GraphInfo, ServeError> {
        match self.request(&Request::GraphInfo)? {
            Response::GraphInfo(info) => Ok(info),
            _ => Self::unexpected("GRAPH_INFO"),
        }
    }

    /// A data-selecting query; the answer carries the full relation.
    pub fn query(&mut self, q: &Pattern, algorithm: WireAlgorithm) -> Result<Answer, ServeError> {
        match self.request(&Request::Query {
            pattern: q.clone(),
            algorithm,
            boolean: false,
        })? {
            Response::Answer(a) => Ok(a),
            _ => Self::unexpected("QUERY"),
        }
    }

    /// A Boolean query (`rows` comes back empty; read `is_match`).
    pub fn query_boolean(
        &mut self,
        q: &Pattern,
        algorithm: WireAlgorithm,
    ) -> Result<Answer, ServeError> {
        match self.request(&Request::Query {
            pattern: q.clone(),
            algorithm,
            boolean: true,
        })? {
            Response::Answer(a) => Ok(a),
            _ => Self::unexpected("QUERY (boolean)"),
        }
    }

    /// A batched query; per-item outcomes in input order plus batch
    /// totals.
    #[allow(clippy::type_complexity)]
    pub fn query_batch(
        &mut self,
        patterns: &[Pattern],
        algorithm: WireAlgorithm,
    ) -> Result<(Vec<Result<Answer, (ErrorCode, String)>>, WireMetrics), ServeError> {
        match self.request(&Request::QueryBatch {
            patterns: patterns.to_vec(),
            algorithm,
        })? {
            Response::BatchAnswer { items, total } => Ok((items, total)),
            _ => Self::unexpected("QUERY_BATCH"),
        }
    }

    /// Absorbs a batch of edge updates into the served session.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<DeltaSummary, ServeError> {
        match self.request(&Request::ApplyDelta {
            insert_edges: delta
                .insert_edges
                .iter()
                .map(|&(u, v)| (u.0, v.0))
                .collect(),
            delete_edges: delta
                .delete_edges
                .iter()
                .map(|&(u, v)| (u.0, v.0))
                .collect(),
        })? {
            Response::DeltaApplied(d) => Ok(d),
            _ => Self::unexpected("APPLY_DELTA"),
        }
    }

    /// Counters of the server-side pattern-result cache (`None` when
    /// disabled).
    pub fn cache_stats(&mut self) -> Result<Option<WireCacheStats>, ServeError> {
        match self.request(&Request::CacheStats)? {
            Response::CacheStats(s) => Ok(s),
            _ => Self::unexpected("CACHE_STATS"),
        }
    }

    /// Creates (or replaces) a named session on the server.
    pub fn session_create(
        &mut self,
        name: &str,
        graph: &Graph,
        options: &SessionOptions,
    ) -> Result<SessionInfo, ServeError> {
        match self.request(&Request::SessionCreate {
            name: name.to_owned(),
            graph: graph.clone(),
            options: options.clone(),
        })? {
            Response::SessionCreated(info) => Ok(info),
            _ => Self::unexpected("SESSION_CREATE"),
        }
    }

    /// Every session the server hosts, sorted by name.
    pub fn session_list(&mut self) -> Result<Vec<SessionInfo>, ServeError> {
        match self.request(&Request::SessionList)? {
            Response::Sessions(infos) => Ok(infos),
            _ => Self::unexpected("SESSION_LIST"),
        }
    }

    /// Drops a named session ([`ErrorCode::NoSuchSession`] when the
    /// server does not host it).
    pub fn session_drop(&mut self, name: &str) -> Result<(), ServeError> {
        match self.request(&Request::SessionDrop {
            name: name.to_owned(),
        })? {
            Response::SessionDropped => Ok(()),
            _ => Self::unexpected("SESSION_DROP"),
        }
    }

    /// Points this connection's later requests at the named session
    /// ([`ErrorCode::NoSuchSession`] when the server does not host it).
    pub fn session_route(&mut self, name: &str) -> Result<(), ServeError> {
        match self.request(&Request::SessionRoute {
            name: name.to_owned(),
        })? {
            Response::SessionRouted => Ok(()),
            _ => Self::unexpected("SESSION_ROUTE"),
        }
    }

    /// Registers a live subscription on the routed session.
    /// Returns `(sub_id, generation, rows)`: the subscription id, the
    /// generation label of the snapshot, and the pattern's current
    /// match rows (one sorted node list per query node). From then on
    /// the server pushes [`SubscriptionEvent`]s as deltas apply —
    /// collect them with [`DgsClient::poll_event`] /
    /// [`DgsClient::next_event`]; applying each diff to the snapshot
    /// reproduces every generation's exact match set.
    #[allow(clippy::type_complexity)]
    pub fn subscribe(
        &mut self,
        q: &Pattern,
        algorithm: WireAlgorithm,
    ) -> Result<(u64, u64, Vec<Vec<u32>>), ServeError> {
        match self.request(&Request::Subscribe {
            pattern: q.clone(),
            algorithm,
        })? {
            Response::Subscribed {
                sub_id,
                generation,
                rows,
            } => Ok((sub_id, generation, rows)),
            _ => Self::unexpected("SUBSCRIBE"),
        }
    }

    /// A snapshot of the server's metrics registry. Empty
    /// when the server runs with metrics disabled.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ServeError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(snap) => Ok(snap),
            _ => Self::unexpected("METRICS"),
        }
    }

    /// The server's slow-query log, newest first. Empty
    /// unless the server runs with `--slow-ms` and something tripped
    /// it.
    pub fn trace(&mut self) -> Result<Vec<WireTrace>, ServeError> {
        match self.request(&Request::Trace)? {
            Response::Trace(traces) => Ok(traces),
            _ => Self::unexpected("TRACE"),
        }
    }

    /// Tears down a subscription. Diffs already pushed may still be
    /// queued locally (or in flight) and remain readable; no new ones
    /// follow the acknowledgement.
    pub fn unsubscribe(&mut self, sub_id: u64) -> Result<(), ServeError> {
        match self.request(&Request::Unsubscribe { sub_id })? {
            Response::Unsubscribed => Ok(()),
            _ => Self::unexpected("UNSUBSCRIBE"),
        }
    }

    /// Pops the next already-received subscription push, if any.
    /// Never touches the socket — pushes land in this queue while
    /// responses are awaited.
    pub fn poll_event(&mut self) -> Option<SubscriptionEvent> {
        self.events.pop_front()
    }

    /// Blocks for the next subscription push, reading frames until
    /// one arrives. Responses to outstanding pipelined requests that
    /// arrive first are stashed for their `await_response`; an id-0
    /// error (a drain notice) surfaces as [`ServeError::Remote`].
    pub fn next_event(&mut self) -> Result<SubscriptionEvent, ServeError> {
        self.flush_submits()?;
        loop {
            if let Some(ev) = self.events.pop_front() {
                return Ok(ev);
            }
            let Some((ty, payload)) = self.reader.read_frame(&mut self.conn)? else {
                return Err(ServeError::corrupt("server closed mid-stream"));
            };
            let (got, body) = split_request_id(&payload)?;
            if got != CONN_LEVEL_ID && !self.outstanding.contains(&got) {
                return Err(ServeError::corrupt(format!(
                    "server answered unknown request id {got}"
                )));
            }
            let resp = Response::decode(ty, body)?;
            if got == CONN_LEVEL_ID {
                match resp {
                    Response::MatchDiff(diff) => {
                        self.events.push_back(SubscriptionEvent::Diff(diff));
                    }
                    Response::SubEvent { sub_id, kind } => {
                        self.events
                            .push_back(SubscriptionEvent::Event { sub_id, kind });
                    }
                    Response::Error { code, message } => {
                        return Err(ServeError::Remote { code, message });
                    }
                    other => {
                        return Err(ServeError::corrupt(format!(
                            "unexpected connection-level frame while waiting for a push: {other:?}"
                        )));
                    }
                }
            } else {
                self.stash.insert(got, resp);
            }
        }
    }

    /// Stops the daemon (admin). The connection is spent afterwards.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Self::unexpected("SHUTDOWN"),
        }
    }
}
