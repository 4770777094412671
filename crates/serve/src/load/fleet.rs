//! The request fleet: `clients` connections issuing queries, deltas
//! or pings, merged into one [`LoadReport`].
//!
//! * **Closed loop** — each of `clients` threads keeps exactly one
//!   request outstanding: send, await, repeat. Throughput is whatever
//!   the server sustains; latency is the server's service time plus
//!   one round trip.
//! * **Open loop** — requests are launched on a fixed schedule
//!   (`rate` per second across the fleet) regardless of completions,
//!   the way real user traffic arrives; when the server falls behind,
//!   queueing delay shows up in the tail percentiles rather than
//!   being hidden by the clients slowing down.

use super::{fold, mixed_pattern_pool, splitmix64, ClientOutcome};
use crate::client::DgsClient;
use crate::error::ServeError;
use crate::proto::{Request, WireAlgorithm};
use crate::transport::ServeAddr;
use dgs_graph::Pattern;
use dgs_net::LatencyHistogram;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How the generator paces requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoadMode {
    /// One outstanding request per client.
    Closed,
    /// Fleet-wide fixed arrival rate, requests per second.
    Open {
        /// Aggregate target arrival rate (req/s) across all clients.
        rate: f64,
    },
}

/// Traffic-generator configuration.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// The daemon to hammer.
    pub addr: ServeAddr,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Pacing discipline.
    pub mode: LoadMode,
    /// Every `n`-th request is an `APPLY_DELTA` instead of a query
    /// (`0` = queries only). Deltas alternate inserting and deleting
    /// a pseudo-random edge, so the graph stays near its base shape.
    pub delta_every: usize,
    /// Patterns per `QUERY_BATCH` request (`1` = plain `QUERY`).
    pub batch_size: usize,
    /// Seed for pattern selection and delta endpoints.
    pub seed: u64,
    /// The query pool, cycled per request. When empty, [`run_load`]
    /// generates a mixed pool from the daemon's graph info.
    pub patterns: Vec<Pattern>,
    /// The named session to hammer (`None` = the server default).
    /// Every client issues a `SESSION_ROUTE` right after connecting.
    pub session: Option<String>,
    /// Requests each client keeps in flight on its one connection
    /// (`1` = blocking round trips). Closed-loop throughput scales
    /// with the window because the server overlaps service time with
    /// the round trip.
    pub pipeline: usize,
    /// Issue `PING`s instead of queries — the pure protocol
    /// microbenchmark: with near-zero execution cost per request,
    /// throughput measures framing, syscalls, and scheduling, which
    /// is exactly what pipelining amortizes. (`delta_every` still
    /// applies; `batch_size` and `patterns` are ignored.)
    pub pings: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: ServeAddr::Tcp("127.0.0.1:7311".into()),
            clients: 8,
            requests_per_client: 50,
            mode: LoadMode::Closed,
            delta_every: 0,
            batch_size: 1,
            seed: 1,
            patterns: Vec::new(),
            session: None,
            pipeline: 1,
            pings: false,
        }
    }
}

/// Fleet-wide outcome of one load run.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that failed (transport errors and server-signalled
    /// errors alike). A correct serving setup reports **zero**.
    pub errors: u64,
    /// Wall-clock span of the run.
    pub elapsed: Duration,
    /// Per-request latency across the whole fleet (nanoseconds).
    pub histogram: LatencyHistogram,
    /// Sum of `cache_hits` over all answers.
    pub cache_hits: u64,
    /// Clients that could not even connect (counted in `errors` too).
    pub failed_connects: u64,
}

impl LoadReport {
    /// Completed requests per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }
}

/// Runs the configured load and merges the per-client reports.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, ServeError> {
    let probe_info = {
        let mut probe = DgsClient::connect(&cfg.addr)?;
        if let Some(session) = &cfg.session {
            probe.session_route(session)?;
        }
        probe.graph_info()?
    };
    let nodes = probe_info.nodes.max(1);
    let patterns = if cfg.patterns.is_empty() {
        // Derive a mixed pool from the served graph's label universe.
        let labels = (probe_info.label_bound.max(1) as usize).min(64);
        mixed_pattern_pool(12, labels, cfg.seed)
    } else {
        cfg.patterns.clone()
    };

    let start = Instant::now();
    let mut reports: Vec<ClientOutcome> = Vec::with_capacity(cfg.clients);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(cfg.clients);
        for c in 0..cfg.clients {
            let patterns = &patterns;
            handles.push(s.spawn(move || run_client(cfg, c, patterns, nodes, start)));
        }
        for h in handles {
            reports.push(h.join().expect("load client thread panicked"));
        }
    });
    let elapsed = start.elapsed();

    let mut out = LoadReport {
        completed: 0,
        errors: 0,
        elapsed,
        histogram: LatencyHistogram::new(),
        cache_hits: 0,
        failed_connects: 0,
    };
    for r in reports {
        out.completed += r.completed;
        out.errors += r.errors;
        out.cache_hits += r.cache_hits;
        out.failed_connects += u64::from(r.failed_connect);
        out.histogram.merge(&r.histogram);
    }
    Ok(out)
}

fn run_client(
    cfg: &LoadConfig,
    client_idx: usize,
    patterns: &[Pattern],
    nodes: u64,
    fleet_start: Instant,
) -> ClientOutcome {
    let mut out = ClientOutcome::default();
    let mut client = match DgsClient::connect(&cfg.addr) {
        Ok(c) => c,
        Err(_) => {
            // A client that cannot connect fails its whole quota.
            out.failed_connect = true;
            out.errors = cfg.requests_per_client as u64;
            return out;
        }
    };
    if let Some(session) = &cfg.session {
        // A client that cannot reach its session fails its quota the
        // same way (every request would hit NoSuchSession anyway).
        if client.session_route(session).is_err() {
            out.failed_connect = true;
            out.errors = cfg.requests_per_client as u64;
            return out;
        }
    }
    let mut rng = cfg
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(client_idx as u64 + 1);
    let batch = cfg.batch_size.max(1);
    let depth = cfg.pipeline.max(1);
    // The pipeline window: submitted requests awaiting their answers,
    // oldest first (awaited in submit order — the server may finish
    // them in any order, the client stash reorders).
    let mut window: VecDeque<(u64, Instant)> = VecDeque::with_capacity(depth);

    for i in 0..cfg.requests_per_client {
        let scheduled = if let LoadMode::Open { rate } = cfg.mode {
            // Fleet-wide schedule: this client owns arrival slots
            // client_idx, client_idx + clients, ... at 1/rate spacing.
            let slot = (i * cfg.clients + client_idx) as f64;
            let due = fleet_start + Duration::from_secs_f64(slot / rate.max(1e-9));
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            Some(due)
        } else {
            None
        };
        let is_delta = cfg.delta_every > 0 && i % cfg.delta_every == cfg.delta_every - 1;
        let req = if is_delta {
            // Alternate inserting and deleting one pseudo-random edge;
            // already-satisfied ops are "ignored", never errors.
            let u = (splitmix64(&mut rng) % nodes) as u32;
            let v = (splitmix64(&mut rng) % nodes) as u32;
            if splitmix64(&mut rng).is_multiple_of(2) {
                Request::ApplyDelta {
                    insert_edges: vec![(u, v)],
                    delete_edges: Vec::new(),
                }
            } else {
                Request::ApplyDelta {
                    insert_edges: Vec::new(),
                    delete_edges: vec![(u, v)],
                }
            }
        } else if cfg.pings {
            Request::Ping
        } else if batch > 1 {
            Request::QueryBatch {
                patterns: (0..batch)
                    .map(|_| patterns[(splitmix64(&mut rng) as usize) % patterns.len()].clone())
                    .collect(),
                algorithm: WireAlgorithm::Auto,
            }
        } else {
            Request::Query {
                pattern: patterns[(splitmix64(&mut rng) as usize) % patterns.len()].clone(),
                algorithm: WireAlgorithm::Auto,
                boolean: false,
            }
        };
        // Open-loop latency is measured from the *scheduled* arrival,
        // not the actual send: when the server falls behind and sends
        // go out late, the wait-behind-schedule is queueing delay and
        // must land in the tail percentiles (avoiding coordinated
        // omission). Closed loop measures from the send.
        let sent = scheduled.unwrap_or_else(Instant::now);
        match client.submit(&req) {
            Ok(id) => window.push_back((id, sent)),
            Err(_) => out.errors += 1,
        }
        while window.len() >= depth {
            let (id, sent) = window.pop_front().expect("window nonempty");
            let result = client.await_response(id);
            fold(result, sent, &mut out);
        }
    }
    // Drain the tail of the window.
    while let Some((id, sent)) = window.pop_front() {
        let result = client.await_response(id);
        fold(result, sent, &mut out);
    }
    out
}
