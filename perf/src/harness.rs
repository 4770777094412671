//! What the four workloads share: the run configuration, what a run
//! hands back, answer digests, and small timing helpers.

use crate::names::Values;
use crate::stats;
use crate::trace::Tracer;
use dgs::graph::io;
use dgs::prelude::*;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Cfg {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Tiny inputs that still walk every code path.
    pub quick: bool,
    /// Compare every cold answer to the oracle, not one in four.
    pub check_all: bool,
    /// How many times to set up at least (see [`set_up_repeatedly`]);
    /// the last set-up is the one measured on.
    pub setups: usize,
    pub out_dir: PathBuf,
}

/// What one pass over a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// One entry per set-up.
    pub setup_s: Vec<f64>,
    /// Latency of every measured op, in op order per load thread.
    pub lat_ms: Vec<f64>,
    /// [`steady_ops_per_s`] of the window.
    pub ops_per_s: f64,
    /// The paper's DS and PT, from [`Exact::finish`].
    pub ds_kb_per_query: f64,
    pub pt_virtual_ms_per_query: f64,
    pub attempted: u64,
    /// Ops that returned an error or a wrong answer, plus failed checks.
    pub failed: u64,
    /// Per-layer metrics this pass measured.
    pub layers: Values,
    /// Lines for the human reader: input sizes, realised shares.
    pub facts: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, what: impl AsRef<str>) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("FAILED: {}", what.as_ref());
        }
    }

    /// Adds a later pass over the same workload: its samples and
    /// counts join this one's; its layers, facts and exact counts
    /// (the same for every pass of one seed) replace them.
    pub fn absorb(&mut self, later: Outcome) {
        self.ds_kb_per_query = later.ds_kb_per_query;
        self.pt_virtual_ms_per_query = later.pt_virtual_ms_per_query;
        self.setup_s.extend(later.setup_s);
        self.lat_ms.extend(later.lat_ms);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.layers = later.layers;
        self.facts = later.facts;
    }

    pub fn sorted_latencies(&self) -> Vec<f64> {
        let mut v = self.lat_ms.clone();
        stats::sort(&mut v);
        v
    }
}

/// Where one set-up's time went (summed over a workload's sessions).
#[derive(Default)]
pub struct Pieces {
    pub generate: Duration,
    pub partition: Duration,
    pub engine: Duration,
    pub bind: Duration,
    pub warmup: Duration,
}

impl Pieces {
    pub fn record(&self, v: &mut Values) {
        v.set("graph.generate_s", self.generate.as_secs_f64());
        v.set("partition.build_ms", ms(self.partition));
        v.set("core.engine_build_ms", ms(self.engine));
        v.set("serve.bind_ms", ms(self.bind));
        v.set("harness.warmup_ms", ms(self.warmup));
    }
}

/// How long a run that sets up more than once keeps doing so: a set-up
/// of tens of milliseconds is mostly thread start-up and page faults,
/// and its median over five repeats spread by a quarter between runs.
const SETUP_BUDGET: Duration = Duration::from_secs(2);
const MAX_SETUPS: usize = 40;

/// Sets up `cfg.setups` times — and, if that is more than once, again
/// until [`SETUP_BUDGET`] is spent or [`MAX_SETUPS`] are done — timing
/// each and tearing the previous one down first; hands back the last,
/// which the run measures on.
pub fn set_up_repeatedly<T>(
    cfg: &Cfg,
    out: &mut Outcome,
    mut set_up: impl FnMut(&mut Outcome) -> T,
    mut tear_down: impl FnMut(T, &mut Outcome),
) -> T {
    let started = Instant::now();
    let mut last = None;
    let mut done = 0;
    while done < cfg.setups.max(1)
        || (cfg.setups > 1 && done < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        if let Some(prev) = last.take() {
            tear_down(prev, out);
        }
        let (built, t) = timed(|| set_up(out));
        out.setup_s.push(t.as_secs_f64());
        last = Some(built);
        done += 1;
    }
    last.expect("at least one set-up")
}

/// One load thread's ops, binned into one-second slices of the window
/// by the time they completed.
pub struct Slices {
    started: Instant,
    /// Ops completed and time blocked, per slice.
    bins: Vec<(u64, Duration)>,
}

impl Slices {
    /// Starts the window now.
    pub fn start() -> Self {
        Slices {
            started: Instant::now(),
            bins: Vec::new(),
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Counts an op that just completed after blocking its caller for `latency`.
    pub fn record(&mut self, latency: Duration) {
        let slice = self.started.elapsed().as_secs() as usize;
        if self.bins.len() <= slice {
            self.bins.resize(slice + 1, (0, Duration::ZERO));
        }
        self.bins[slice].0 += 1;
        self.bins[slice].1 += latency;
    }
}

/// Ops per second of blocking time, summed over the load threads, in
/// the median one-second slice of the window. A closed-loop caller's
/// rate is the inverse of its mean latency, and a mean follows every
/// stall of a shared host; the median slice does not. Windows shorter
/// than a slice fall back to the whole window.
pub fn steady_ops_per_s(threads: &[Slices], window: Duration) -> f64 {
    let rate = |ops: u64, busy: Duration| {
        if busy.is_zero() {
            0.0
        } else {
            ops as f64 / busy.as_secs_f64()
        }
    };
    let full = window.as_secs() as usize;
    let per_slice: Vec<f64> = (0..full)
        .map(|k| {
            threads
                .iter()
                .map(|t| t.bins.get(k).map_or(0.0, |&(ops, busy)| rate(ops, busy)))
                .sum()
        })
        .collect();
    if per_slice.is_empty() {
        threads
            .iter()
            .map(|t| {
                let (ops, busy) = t
                    .bins
                    .iter()
                    .fold((0, Duration::ZERO), |(n, b), &(ops, busy)| {
                        (n + ops, b + busy)
                    });
                rate(ops, busy)
            })
            .sum()
    } else {
        stats::median(&per_slice)
    }
}

/// The counters of cold evaluations that one seed fixes: sums over a
/// fixed number of queries, so that the means do not depend on how
/// many ops a window fits.
#[derive(Default)]
pub struct Exact {
    queries: u64,
    data_bytes: u64,
    virtual_ns: u64,
    data_msgs: u64,
    control_msgs: u64,
    rounds: u64,
    max_site_msgs: u64,
    max_site_ops_share: f64,
    ds_over_ef_vq: f64,
}

impl Exact {
    /// Counts one cold evaluation of `q` over a fragmentation with
    /// `ef` crossing edges.
    pub fn record(&mut self, report: &RunReport, ef: usize, q: &Pattern) {
        let m = &report.metrics;
        self.queries += 1;
        self.data_bytes += m.data_bytes;
        self.virtual_ns += m.virtual_time_ns;
        self.data_msgs += m.data_messages;
        self.control_msgs += m.control_messages;
        self.rounds += m.quiescence_rounds;
        self.max_site_msgs += m.site_msgs.iter().copied().max().unwrap_or(0);
        let site_ops: u64 = m.site_ops.iter().sum();
        if site_ops > 0 {
            self.max_site_ops_share +=
                m.site_ops.iter().copied().max().unwrap_or(0) as f64 / site_ops as f64;
        }
        self.ds_over_ef_vq += m.data_bytes as f64 / (ef.max(1) * q.node_count()) as f64;
    }

    /// The means per query: DS and PT into `out`'s end-to-end fields,
    /// the rest into the `net.*` layer metrics.
    pub fn finish(&self, out: &mut Outcome, v: &mut Values) {
        let n = self.queries.max(1) as f64;
        out.ds_kb_per_query = self.data_bytes as f64 / 1024.0 / n;
        out.pt_virtual_ms_per_query = self.virtual_ns as f64 / 1e6 / n;
        v.set("net.data_msgs", self.data_msgs as f64 / n);
        v.set("net.control_msgs", self.control_msgs as f64 / n);
        v.set("net.rounds", self.rounds as f64 / n);
        v.set("net.max_site_msgs", self.max_site_msgs as f64 / n);
        v.set("net.max_site_ops_share", self.max_site_ops_share / n);
        v.set("net.ds_over_ef_vq", self.ds_over_ef_vq / n);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f`, returning its result and how long it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Median per-call time of `f` over `samples` batches of `reps` calls,
/// for calls too short to time one by one.
pub fn median_call_us(samples: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            us(t.elapsed()) / reps as f64
        })
        .collect();
    stats::median(&per_call)
}

/// `SimEngine::pattern_canon` and `SimEngine::plan` of `q`, in µs per call.
pub fn canon_and_plan_us(engine: &SimEngine, q: &Pattern) -> (f64, f64) {
    use std::hint::black_box;
    let canon = median_call_us(5, 32, || {
        black_box(SimEngine::pattern_canon(black_box(q)));
    });
    let plan = median_call_us(5, 32, || {
        black_box(engine.plan(black_box(q)).is_ok());
    });
    (canon, plan)
}

/// Times `io::read_graph_binary` of `graph`'s own encoding, in ms.
pub fn decode_binary_ms(graph: &Graph, tr: &mut Tracer, out: &mut Outcome) -> f64 {
    let mut bytes = Vec::new();
    io::write_graph_binary(graph, &mut bytes).expect("writing to memory");
    let (back, t) = timed(|| tr.span("graph.decode_binary", || io::read_graph_binary(&bytes[..])));
    if back.ok().as_ref() != Some(graph) {
        out.fail("the binary graph encoding did not round-trip");
    }
    ms(t)
}

/// Size and FNV-1a hash of a relation, so that a run can keep one
/// small record per answer and still compare each to the oracle later.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub pairs: u32,
    pub hash: u64,
}

pub fn digest(rel: &MatchRelation) -> Digest {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u32| {
        for b in word.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for u in 0..rel.query_nodes() {
        let row = rel.matches_of(QNodeId(u as u16));
        eat(row.len() as u32);
        for v in row {
            eat(v.0);
        }
    }
    Digest {
        pairs: rel.len() as u32,
        hash,
    }
}

/// Match rows as they travel on the wire, from a relation.
pub fn rows_of(rel: &MatchRelation) -> Vec<Vec<u32>> {
    (0..rel.query_nodes())
        .map(|u| {
            rel.matches_of(QNodeId(u as u16))
                .iter()
                .map(|v| v.0)
                .collect()
        })
        .collect()
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where
/// `/proc` does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_tells_relations_apart() {
        let rel = |rows: Vec<Vec<u32>>| {
            MatchRelation::from_lists(
                rows.into_iter()
                    .map(|r| r.into_iter().map(NodeId).collect())
                    .collect(),
            )
        };
        let a = rel(vec![vec![1, 2], vec![3]]);
        assert_eq!(digest(&a), digest(&rel(vec![vec![1, 2], vec![3]])));
        assert_eq!(digest(&a).pairs, 3);
        // same pairs flattened, different rows
        assert_ne!(digest(&a), digest(&rel(vec![vec![1], vec![2, 3]])));
        assert_ne!(digest(&a), digest(&rel(vec![vec![1, 2], vec![4]])));
        assert_eq!(rows_of(&a), vec![vec![1, 2], vec![3]]);
    }

    #[test]
    fn throughput_is_the_median_slice_summed_over_threads() {
        let thread = |bins: &[(u64, u64)]| Slices {
            started: Instant::now(),
            bins: bins
                .iter()
                .map(|&(ops, busy_ms)| (ops, Duration::from_millis(busy_ms)))
                .collect(),
        };
        // slices of 100, 50 (a stall) and 100 ops/s on one thread ...
        let a = thread(&[(100, 1000), (50, 1000), (100, 1000), (7, 10)]);
        assert_eq!(steady_ops_per_s(&[a], Duration::from_secs_f64(3.2)), 100.0);
        // ... and two threads add up slice by slice
        let a = thread(&[(100, 1000), (50, 1000), (100, 1000)]);
        let b = thread(&[(10, 1000), (10, 500), (30, 1000)]);
        assert_eq!(steady_ops_per_s(&[a, b], Duration::from_secs(3)), 110.0);
        // shorter than a slice: the whole window
        let c = thread(&[(30, 500)]);
        assert_eq!(steady_ops_per_s(&[c], Duration::from_millis(600)), 60.0);
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
