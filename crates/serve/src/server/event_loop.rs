//! The event thread: it owns every socket — accepts, reads request
//! frames into per-connection buffers, hands complete requests to the
//! worker pool, and flushes the encoded responses and subscription
//! pushes the workers hand back.

use super::metrics_http::{accept_metrics, service_metrics_conn, MetricsConn};
use super::{Job, Shared};
use crate::error::{ErrorCode, ServeError};
use crate::poll::{PollSet, WakePipe};
use crate::proto::{frame, Response, WIRE_MAGIC, WIRE_VERSION};
use crate::session::DEFAULT_SESSION;
use crate::transport::{Conn, Listener};
use crate::wire::{encode_frame_into, split_request_id, FrameBuffer, CONN_LEVEL_ID};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a fresh connection may sit before completing the
/// handshake (slow-loris guard; pre-handshake sockets hold no route
/// or session state, so cutting them is free).
pub(super) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

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
    /// The session this connection's requests run against.
    route: Arc<Mutex<String>>,
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
            route: Arc::new(Mutex::new(DEFAULT_SESSION.to_owned())),
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

pub(super) fn event_loop(
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
