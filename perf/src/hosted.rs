//! What `served-hot` and `churn-subscribed` share: a community graph
//! hosted by an in-process [`Server`] on a Unix socket, and patterns
//! picked so that every one of them matches.

use crate::harness::{ms, rows_of, timed, us, Cfg, Exact, Outcome, Pieces};
use crate::inputs::{self, stream, Placed};
use crate::names::Values;
use crate::stats;
use crate::trace::Tracer;
use dgs::net::LogLevel;
use dgs::prelude::*;
use dgs::serve::ServerHandle;
use std::sync::Arc;

pub struct Sizes {
    pub nodes: usize,
    pub edges: usize,
    pub sites: usize,
    pub vf: f64,
    pub labels: usize,
    /// Pattern edges beyond one per node.
    pub extra: usize,
}

/// A community graph of `nodes` nodes at the paper's 1:5 node-to-edge
/// ratio; `|Σ|` tuned so that about half of the cyclic patterns match.
pub fn sizes(quick: bool, nodes: usize) -> Sizes {
    if quick {
        Sizes {
            nodes: 1_500,
            edges: 7_500,
            sites: 4,
            vf: 0.25,
            labels: 3,
            extra: 1,
        }
    } else {
        Sizes {
            nodes,
            edges: 5 * nodes,
            sites: 8,
            vf: 0.25,
            labels: 6,
            extra: 1,
        }
    }
}

/// A pattern with its oracle answer.
pub struct Chosen {
    pub pattern: Pattern,
    /// `hhk_simulation`'s relation, as wire rows.
    pub rows: Vec<Vec<u32>>,
}

/// The first `count` patterns of `stream` that match `graph`, each
/// with the centralized oracle's answer. This is input generation, not
/// set-up: it runs before the server exists and outside `setup_s`.
/// Matching patterns only, because an answer's size — what a served
/// query or a maintained entry costs — is near `|Vq|·|V|/|Σ|` for them
/// and anything from 0 up for the rest, which no pool of this size
/// averages out across seeds.
pub fn choose_matching(
    graph: &Graph,
    cfg: &Cfg,
    sz: &Sizes,
    stream: u64,
    count: usize,
    layers: &mut Values,
) -> Vec<Chosen> {
    let mut chosen = Vec::with_capacity(count);
    let mut hhk_ms = Vec::new();
    let mut tried = 0u64;
    while chosen.len() < count {
        assert!(
            tried < 64 * count as u64 + 64,
            "no matching patterns: retune |Σ|"
        );
        let pattern = inputs::cyclic_pattern(cfg.seed, stream, tried, sz.labels, sz.extra);
        tried += 1;
        let (oracle, t) = timed(|| hhk_simulation(&pattern, graph));
        hhk_ms.push(ms(t));
        if oracle.matches() {
            chosen.push(Chosen {
                pattern,
                rows: rows_of(&oracle.relation),
            });
        }
    }
    let pairs: Vec<f64> = chosen
        .iter()
        .map(|c| c.rows.iter().map(Vec::len).sum::<usize>() as f64)
        .collect();
    layers.set("sim.hhk_ms_per_query", stats::mean(&hhk_ms));
    layers.set("sim.match_share", count as f64 / tried as f64);
    layers.set("sim.pairs_per_answer", stats::mean(&pairs));
    chosen
}

/// A running server over the workload graph.
pub struct Hosted {
    pub placed: Placed,
    /// The fragmentation as built, before any delta.
    pub frag: Arc<Fragmentation>,
    pub handle: ServerHandle,
}

/// Generates, fragments, builds the engine and binds the server: the
/// part of set-up both served workloads share.
pub fn host(
    cfg: &Cfg,
    sz: &Sizes,
    tag: &str,
    tr: &mut Tracer,
) -> std::io::Result<(Hosted, Pieces)> {
    let mut p = Pieces::default();
    let (placed, t) = timed(|| {
        tr.span("graph.generate", || {
            inputs::community_graph(sz.nodes, sz.edges, sz.sites, sz.vf, sz.labels, cfg.seed)
        })
    });
    p.generate = t;
    let (frag, t) = timed(|| {
        tr.span("partition.build", || {
            Arc::new(Fragmentation::build(
                &placed.graph,
                &placed.assignment,
                placed.sites,
            ))
        })
    });
    p.partition = t;
    let (engine, t) = timed(|| {
        tr.span("core.engine_build", || {
            SimEngine::builder(&placed.graph, Arc::clone(&frag)).build()
        })
    });
    p.engine = t;
    // A relative path keeps the socket inside the checkout and under
    // the 108-byte limit wherever the checkout is.
    let path = cfg
        .out_dir
        .join(format!("{tag}-{}.sock", std::process::id()));
    let addr = ServeAddr::Unix(path);
    let config = ServerConfig {
        // The server's own per-request trace ring, in the traced pass only.
        slow_ms: tr.is_on().then_some(0),
        // ... whose every entry would otherwise also be a stderr line.
        log_level: if tr.is_on() {
            LogLevel::Error
        } else {
            LogLevel::Warn
        },
        ..ServerConfig::default()
    };
    let (handle, t) = timed(|| {
        tr.span("serve.bind", || {
            Server::bind(&addr, engine, config).map(Server::spawn)
        })
    });
    p.bind = t;
    Ok((
        Hosted {
            placed,
            frag,
            handle: handle?,
        },
        p,
    ))
}

/// What a cache miss ships on this server: the first `count` patterns
/// of their own stream, evaluated on the server's engine in process
/// with the cache bypassed (an explicit engine neither consults nor
/// fills it), so that the served workloads report the paper's DS and
/// PT for their graph too. Untimed, before the window, outside
/// `setup_s`.
pub fn cold_counts(
    h: &Hosted,
    cfg: &Cfg,
    sz: &Sizes,
    tr: &mut Tracer,
    out: &mut Outcome,
    v: &mut Values,
) {
    let count = if cfg.quick { 8 } else { 1024 };
    let span = tr.begin("harness.cold_counts");
    let engine = h.handle.engine();
    let mut exact = Exact::default();
    for i in 0..count {
        let q = inputs::cyclic_pattern(cfg.seed, stream::COUNTED, i, sz.labels, sz.extra);
        match engine.query_with(&Algorithm::Dgpms, &q) {
            Ok(report) => exact.record(&report, h.frag.ef(), &q),
            Err(e) => out.fail(format!("cold evaluation {i}: {e}")),
        }
    }
    tr.end(span);
    exact.finish(out, v);
}

/// Stops the server and joins it; the caller has dropped its clients.
pub fn shut_down(h: Hosted, out: &mut Outcome) {
    if let Err(e) = h.handle.shutdown() {
        out.fail(format!("server shutdown: {e}"));
    }
}

/// The per-layer metrics every hosted workload reports the same way.
pub fn common_layers(h: &Hosted, p: &Pieces, v: &mut Values) {
    p.record(v);
    v.set(
        "partition.vf_share",
        h.frag.vf() as f64 / h.placed.graph.node_count() as f64,
    );
    v.set("partition.ef_edges", h.frag.ef() as f64);
}

pub fn describe(h: &Hosted) -> String {
    let g = &h.placed.graph;
    format!(
        "|V| = {}, |E| = {}, {} sites, |Vf|/|V| = {:.3}, |Ef| = {}, served on {}",
        g.node_count(),
        g.edge_count(),
        h.placed.sites,
        h.frag.vf() as f64 / g.node_count() as f64,
        h.frag.ef(),
        h.handle.addr()
    )
}

/// Median PING round trip in µs.
pub fn ping_rtt_us(
    client: &mut DgsClient,
    pings: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> f64 {
    let span = tr.begin("serve.ping");
    let rtts: Vec<f64> = (0..pings)
        .map(|_| {
            let (r, t) = timed(|| client.ping());
            if r.is_err() {
                out.fail("PING failed");
            }
            us(t)
        })
        .collect();
    tr.end(span);
    stats::median(&rtts)
}

/// Medians of the server's own trace ring, over the entries `keep`
/// selects, into the `serve.trace_*` metrics; returns the total's median.
pub fn trace_ring(
    client: &mut DgsClient,
    keep: impl Fn(&dgs::serve::WireTrace) -> bool,
    v: &mut Values,
    out: &mut Outcome,
) -> f64 {
    let entries = match client.trace() {
        Ok(entries) => entries,
        Err(e) => {
            out.fail(format!("TRACE failed: {e}"));
            return 0.0;
        }
    };
    let kept: Vec<_> = entries.iter().filter(|t| keep(t)).collect();
    if kept.is_empty() {
        out.fail("the server's trace ring holds none of the workload's requests");
        return 0.0;
    }
    let med = |f: &dyn Fn(&dgs::serve::WireTrace) -> u64| {
        stats::median(&kept.iter().map(|t| f(t) as f64 / 1e3).collect::<Vec<_>>())
    };
    v.set("serve.trace_queue_us", med(&|t| t.queue_ns));
    v.set("serve.trace_exec_us", med(&|t| t.exec_ns));
    v.set("serve.trace_encode_us", med(&|t| t.encode_ns));
    let total = med(&|t| t.total_ns);
    v.set("serve.trace_total_us", total);
    total
}
