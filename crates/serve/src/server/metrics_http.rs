//! The Prometheus text endpoint: plain-HTTP scrape connections the
//! event loop polls beside the protocol sockets.

use super::event_loop::HANDSHAKE_TIMEOUT;
use super::{refresh_gauges, Shared};
use crate::transport::{Conn, Listener};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::time::Instant;

/// One plain-HTTP scrape connection on the metrics endpoint: read
/// until the header terminator (or EOF), write one `text/plain`
/// exposition, close. No keep-alive — scrapers open a fresh
/// connection per scrape, and a half-open peer is cut at `deadline`.
pub(super) struct MetricsConn {
    pub(super) conn: Conn,
    rbuf: Vec<u8>,
    pub(super) out: Vec<u8>,
    pub(super) out_pos: usize,
    pub(super) deadline: Instant,
    pub(super) responded: bool,
}

/// Accepts pending scrape connections on the metrics listener.
pub(super) fn accept_metrics(
    listener: &Listener,
    mconns: &mut HashMap<u64, MetricsConn>,
    next: &mut u64,
) {
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
pub(super) fn service_metrics_conn(
    m: &mut MetricsConn,
    shared: &Shared,
    readable: bool,
) -> Result<(), ()> {
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
