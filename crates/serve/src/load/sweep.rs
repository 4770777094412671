//! The connection-count sweep: connections held open against latency
//! at a constant arrival rate.

use super::{fold, ClientOutcome};
use crate::client::DgsClient;
use crate::error::ServeError;
use crate::proto::Request;
use crate::transport::ServeAddr;
use dgs_net::LatencyHistogram;
use std::time::{Duration, Instant};

/// Configuration of [`run_conn_sweep`]: the open-loop
/// connections-vs-latency experiment.
#[derive(Clone, Debug)]
pub struct ConnSweepConfig {
    /// The daemon to sweep (its `--max-conns` must admit the largest
    /// step).
    pub addr: ServeAddr,
    /// Connection counts to hold open, one step each (e.g.
    /// `[1, 10, 100, 1000, 10000]`).
    pub steps: Vec<usize>,
    /// Fleet-wide open-loop arrival rate (req/s) at every step — held
    /// **constant** across steps, so a p99 that climbs with the
    /// connection count is pure per-connection overhead in the
    /// serving core, not extra load.
    pub rate: f64,
    /// Requests issued per step (across the whole fleet).
    pub requests_per_step: usize,
    /// How many of a step's connections actively send (the rest sit
    /// idle, which is the point: idle connections must cost buffers,
    /// not threads or latency). Also bounds the sender thread count.
    pub active_senders: usize,
}

impl Default for ConnSweepConfig {
    fn default() -> Self {
        ConnSweepConfig {
            addr: ServeAddr::Tcp("127.0.0.1:7311".into()),
            steps: vec![1, 10, 100, 1000, 10_000],
            rate: 2000.0,
            requests_per_step: 4000,
            active_senders: 64,
        }
    }
}

/// One step of a connection-count sweep: the server held
/// `connections` concurrent connections while a bounded subset drove
/// open-loop traffic.
#[derive(Clone, Debug, PartialEq)]
pub struct ConnSweepStep {
    /// Concurrent connections held open during this step.
    pub connections: u64,
    /// Completed requests per second over the step.
    pub throughput: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests (or connects) that failed.
    pub errors: u64,
}

/// Runs the sweep: per step, hold `n` connections open, drive the
/// same open-loop `PING` schedule through a bounded subset of them,
/// and record throughput and p99, one [`ConnSweepStep`] per count.
/// `PING` isolates the serving core — readiness loop, framing,
/// dispatch — from query cost.
pub fn run_conn_sweep(cfg: &ConnSweepConfig) -> Result<Vec<ConnSweepStep>, ServeError> {
    cfg.steps.iter().map(|&n| run_sweep_step(cfg, n)).collect()
}

fn run_sweep_step(cfg: &ConnSweepConfig, n: usize) -> Result<ConnSweepStep, ServeError> {
    let n = n.max(1);
    // Open and hold every connection first; a failed connect is a
    // step error the gate must see, not a silent shrink of the fleet.
    let mut clients = Vec::with_capacity(n);
    let mut connect_errors = 0u64;
    for _ in 0..n {
        match DgsClient::connect(&cfg.addr) {
            Ok(c) => clients.push(c),
            Err(_) => connect_errors += 1,
        }
    }
    let senders = clients.len().min(cfg.active_senders.max(1));
    let quota_total = cfg.requests_per_step.max(1);
    let start = Instant::now();
    let mut outcomes: Vec<ClientOutcome> = Vec::with_capacity(senders);
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(senders);
        // Senders take the *front* of the fleet; the rest stay
        // connected and silent for the whole step.
        for (j, client) in clients.iter_mut().take(senders).enumerate() {
            let rate = cfg.rate;
            handles.push(s.spawn(move || {
                let mut out = ClientOutcome::default();
                // Fleet-wide schedule: sender j owns arrival slots
                // j, j + senders, ... at 1/rate spacing.
                let mut i = j;
                while i < quota_total {
                    let due = start + Duration::from_secs_f64(i as f64 / rate.max(1e-9));
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    fold(client.request(&Request::Ping), due, &mut out);
                    i += senders;
                }
                out
            }));
        }
        for h in handles {
            outcomes.push(h.join().expect("sweep sender thread panicked"));
        }
    });
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);

    let mut completed = 0u64;
    let mut errors = connect_errors;
    let mut histogram = LatencyHistogram::new();
    for out in &outcomes {
        completed += out.completed;
        errors += out.errors;
        histogram.merge(&out.histogram);
    }
    Ok(ConnSweepStep {
        connections: n as u64,
        throughput: completed as f64 / elapsed,
        p99_us: histogram.p99() as f64 / 1000.0,
        completed,
        errors,
    })
}
