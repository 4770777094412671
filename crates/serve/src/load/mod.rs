//! The traffic-generator library behind `dgsload` (and the CI smoke
//! job): open- and closed-loop request streams against a running
//! daemon, with per-client latency recorded into the shared
//! [`LatencyHistogram`] and merged into one fleet-wide report. A run
//! is a smoke check — were all requests served, and correctly — not a
//! measurement: the repository's benchmark is `perf/`.
//!
//! The request fleet (`fleet.rs`), the connection-count sweep
//! (`sweep.rs`) and the subscriber churn (`churn.rs`) share the
//! pattern pool, the per-client randomness and the outcome fold here.

mod churn;
mod fleet;
mod sweep;

pub use churn::{run_subscribe, SubscribeConfig, SubscribeReport};
pub use fleet::{run_load, LoadConfig, LoadMode, LoadReport};
pub use sweep::{run_conn_sweep, ConnSweepConfig, ConnSweepStep};

use crate::error::ServeError;
use crate::proto::Response;
use dgs_graph::{generate::patterns, Pattern};
use dgs_net::LatencyHistogram;
use std::time::Instant;

/// splitmix64: cheap deterministic per-client randomness (no shared
/// RNG on the hot path).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A mixed pattern pool sized for cache overlap: cyclic, DAG and
/// path shapes over `labels` labels, drawn from `pool` seeds.
pub fn mixed_pattern_pool(pool: usize, labels: usize, seed: u64) -> Vec<Pattern> {
    (0..pool)
        .map(|i| {
            let s = seed.wrapping_add((i / 3) as u64);
            match i % 3 {
                0 => patterns::random_cyclic(3, 6, labels, 900 + s),
                1 => patterns::random_dag_with_depth(4, 6, 2, labels, 900 + s),
                _ => patterns::random_cyclic(4, 8, labels, 950 + s),
            }
        })
        .collect()
}

/// What one sending client brings home.
#[derive(Default)]
struct ClientOutcome {
    completed: u64,
    errors: u64,
    cache_hits: u64,
    histogram: LatencyHistogram,
    failed_connect: bool,
}

/// Folds one response (pipelined or blocking) into the outcome.
fn fold(result: Result<Response, ServeError>, sent: Instant, out: &mut ClientOutcome) {
    match result {
        Err(_) => out.errors += 1,
        Ok(resp) => {
            // A per-item engine error inside an otherwise-delivered
            // batch counts as an errored request.
            let hits = match &resp {
                Response::Answer(a) => Some(a.metrics.cache_hits),
                Response::BatchAnswer { items, total } => {
                    if items.iter().any(|item| item.is_err()) {
                        None
                    } else {
                        Some(total.cache_hits)
                    }
                }
                _ => Some(0),
            };
            match hits {
                None => out.errors += 1,
                Some(hits) => {
                    out.histogram.record_duration(sent.elapsed());
                    out.cache_hits += hits;
                    out.completed += 1;
                }
            }
        }
    }
}
