//! `served-hot`: clients of a long-lived daemon re-asking popular
//! patterns. Two blocking connections, closed loop, against a pool
//! that fits the result cache and was asked once before timing starts:
//! every answer is a cache hit, so framing, the event thread, the
//! worker hand-off, canonicalisation and answer encoding do the work
//! and the simulation kernels do none.

use crate::harness::{self, ms, timed, us, Cfg, Outcome, Slices};
use crate::hosted::{self, Chosen, Hosted};
use crate::inputs::{self, stream};
use crate::names::Values;
use crate::rng::{derive, Rng};
use crate::stats;
use crate::trace::Tracer;
use dgs::prelude::*;
use dgs::serve::{Answer, Request, Response};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Two load threads: the sandbox has two cores, and the server's own
/// threads need one of them.
const CONNECTIONS: usize = 2;

struct Pooled {
    pattern: Pattern,
    /// The oracle's rows in this pattern's numbering.
    rows: Vec<Vec<u32>>,
    /// The server's warm answer (checked equal to `rows`).
    answer: Option<Answer>,
}

/// `base` patterns plus one renumbered isomorphic copy of each: twice
/// the requests, the same cache entries — canonicalisation has to find
/// them.
fn pool_of(chosen: Vec<Chosen>, seed: u64) -> Vec<Pooled> {
    let mut pool = Vec::with_capacity(2 * chosen.len());
    for (i, c) in chosen.into_iter().enumerate() {
        let (copy, new_of) =
            inputs::renumbered(&c.pattern, derive(seed, stream::RENUMBER, i as u64));
        let mut rows = vec![Vec::new(); c.rows.len()];
        for (old, row) in c.rows.iter().enumerate() {
            rows[new_of[old] as usize] = row.clone();
        }
        pool.push(Pooled {
            pattern: c.pattern,
            rows: c.rows,
            answer: None,
        });
        pool.push(Pooled {
            pattern: copy,
            rows,
            answer: None,
        });
    }
    pool
}

/// Whether `answer` is the cache-served, message-free, correct answer.
fn served_from_cache(answer: &Answer, want: &[Vec<u32>]) -> bool {
    answer.metrics.cache_hits == 1
        && answer.metrics.data_messages == 0
        && answer.metrics.control_messages == 0
        && answer.is_match
        && answer.rows == want
}

struct Up {
    hosted: Hosted,
    pieces: harness::Pieces,
    clients: Vec<DgsClient>,
}

fn set_up(
    cfg: &Cfg,
    sz: &hosted::Sizes,
    pool: &mut [Pooled],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Up {
    let root = tr.begin("setup");
    let (hosted, pieces) = hosted::host(cfg, sz, "hot", tr).expect("binding the server");
    let clients: Vec<DgsClient> = (0..CONNECTIONS)
        .map(|_| DgsClient::connect(hosted.handle.addr()).expect("connecting"))
        .collect();
    let mut up = Up {
        hosted,
        pieces,
        clients,
    };
    // Pre-warm: ask the whole pool once. The first of each isomorphic
    // pair evaluates and stores; the second must already hit.
    let (_, t) = timed(|| {
        tr.span("harness.warmup", || {
            for (i, p) in pool.iter_mut().enumerate() {
                match up.clients[0].query(&p.pattern, WireAlgorithm::Auto) {
                    Ok(a) => {
                        if a.rows != p.rows || !a.is_match {
                            out.fail(format!(
                                "pool entry {i}: the warm answer differs from hhk_simulation"
                            ));
                        }
                        if i % 2 == 1 && a.metrics.cache_hits != 1 {
                            out.fail(format!(
                                "pool entry {i}: an isomorphic copy missed the cache"
                            ));
                        }
                        p.answer = Some(a);
                    }
                    Err(e) => out.fail(format!("pool entry {i}: {e}")),
                }
            }
        })
    });
    up.pieces.warmup = t;
    tr.end(root);
    up
}

fn tear_down(up: Up, out: &mut Outcome) {
    drop(up.clients);
    hosted::shut_down(up.hosted, out);
}

/// One load thread's share of the window.
struct Load {
    lat_ms: Vec<f64>,
    slices: Slices,
    failed: Vec<String>,
    tracer: Tracer,
}

fn load(
    client: &mut DgsClient,
    pool: &[Pooled],
    seed: u64,
    thread: u64,
    window: Duration,
    mut tracer: Tracer,
) -> Load {
    let mut rng = Rng::new(derive(seed, stream::MEASURED, thread));
    // Reserved once: regrowing in the window would copy megabytes and
    // put a step into `peak_rss_mb` wherever the op count crosses a
    // power of two.
    let mut lat_ms = Vec::with_capacity(1 << 20);
    let mut failed = Vec::new();
    let mut slices = Slices::start();
    let mut n = 0u64;
    while slices.elapsed() < window {
        let p = &pool[rng.below(pool.len())];
        n += 1;
        tracer.set_op(n * CONNECTIONS as u64 + thread);
        let op = tracer.begin("op");
        let call = tracer.begin("serve.client.query");
        let (answer, t) = timed(|| client.query(&p.pattern, WireAlgorithm::Auto));
        tracer.end(call);
        let check = tracer.begin("harness.check");
        lat_ms.push(ms(t));
        slices.record(t);
        match answer {
            Ok(a) if served_from_cache(&a, &p.rows) => {}
            Ok(_) => failed.push(format!("op {n}: not the cache-served oracle answer")),
            Err(e) => failed.push(format!("op {n}: {e}")),
        }
        tracer.end(check);
        tracer.end(op);
    }
    Load {
        lat_ms,
        slices,
        failed,
        tracer,
    }
}

pub fn run(cfg: &Cfg, tr: &mut Tracer, layers: bool) -> Outcome {
    let sz = hosted::sizes(cfg.quick, 30_000);
    // Half of the default cache's 128 entries. An answer's size sets
    // what a hit costs, and the mean size of fewer patterns than this
    // differs by a tenth from seed to seed.
    let base = if cfg.quick { 4 } else { 64 };
    let mut out = Outcome::default();
    tr.set_op(0);

    // Inputs first: the pool and its oracle answers need only the graph.
    let graph =
        inputs::community_graph(sz.nodes, sz.edges, sz.sites, sz.vf, sz.labels, cfg.seed).graph;
    let mut values = Values::default();
    let chosen = tr.span("harness.choose_pool", || {
        hosted::choose_matching(&graph, cfg, &sz, stream::MEASURED, base, &mut values)
    });
    drop(graph);
    let mut pool = pool_of(chosen, cfg.seed);

    let mut up = harness::set_up_repeatedly(
        cfg,
        &mut out,
        |out| set_up(cfg, &sz, &mut pool, tr, out),
        tear_down,
    );
    out.facts.push(hosted::describe(&up.hosted));
    hosted::cold_counts(&up.hosted, cfg, &sz, tr, &mut out, &mut values);
    let before = up.clients[0].cache_stats().ok().flatten();

    // The measured window: each connection is a closed loop.
    let window = Duration::from_secs_f64(cfg.seconds);
    let loads: Vec<Load> = std::thread::scope(|s| {
        let pool = &pool;
        let handles: Vec<_> = up
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let tracer = tr.fork();
                s.spawn(move || load(client, pool, cfg.seed, i as u64, window, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load thread panicked"))
            .collect()
    });
    let after = up.clients[0].cache_stats().ok().flatten();
    // Before anything else floods the server's ring of recent requests.
    let ring_total_us = if layers {
        hosted::trace_ring(
            &mut up.clients[0],
            |t| !t.algorithm.is_empty(),
            &mut values,
            &mut out,
        )
    } else {
        0.0
    };
    let mut slices = Vec::new();
    for l in loads {
        out.attempted += l.lat_ms.len() as u64;
        out.lat_ms.extend(l.lat_ms);
        slices.push(l.slices);
        for f in l.failed {
            out.fail(f);
        }
        tr.absorb(l.tracer);
    }
    out.ops_per_s = harness::steady_ops_per_s(&slices, window);
    tr.set_op(0);

    let pairs: usize = pool
        .iter()
        .map(|p| p.rows.iter().map(Vec::len).sum::<usize>())
        .sum();
    out.facts.push(format!(
        "pool of {} patterns over {} cache entries, {:.0} pairs per answer; {CONNECTIONS} connections, {} queries, all checked against the oracle's rows",
        pool.len(),
        pool.len() / 2,
        pairs as f64 / pool.len() as f64,
        out.lat_ms.len()
    ));
    hosted::common_layers(&up.hosted, &up.pieces, &mut values);
    match (before, after) {
        (Some(b), Some(a)) => {
            let (hits, misses) = (a.hits - b.hits, a.misses - b.misses);
            values.set(
                "core.cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            values.set("core.cache_evictions", (a.evictions - b.evictions) as f64);
        }
        _ => out.fail("CACHE_STATS failed"),
    }

    if layers {
        let lat = out.sorted_latencies();
        values.set(
            "serve.client_self_us",
            stats::percentile(&lat, 0.50) * 1e3 - ring_total_us,
        );
        if stats::resolves(lat.len(), 0.99) {
            values.set("serve.query_p99_ms", stats::percentile(&lat, 0.99));
        }
        per_layer(cfg, &mut up, &pool, tr, &mut values, &mut out);
    }
    tear_down(up, &mut out);
    out.layers = values;
    out
}

fn per_layer(
    cfg: &Cfg,
    up: &mut Up,
    pool: &[Pooled],
    tr: &mut Tracer,
    v: &mut Values,
    out: &mut Outcome,
) {
    let root = tr.begin("layers");
    let client = &mut up.clients[0];
    v.set(
        "serve.ping_rtt_us",
        hosted::ping_rtt_us(client, if cfg.quick { 200 } else { 2_000 }, tr, out),
    );

    // The codecs, on the workload's own frames.
    let (mut req_enc, mut req_dec, mut ans_enc, mut ans_dec) = (vec![], vec![], vec![], vec![]);
    let (mut bytes, mut pairs) = (0usize, 0usize);
    let codecs = tr.begin("serve.codecs");
    for p in pool {
        let Some(answer) = &p.answer else { continue };
        let request = Request::Query {
            pattern: p.pattern.clone(),
            algorithm: WireAlgorithm::Auto,
            boolean: false,
        };
        let mut buf = Vec::new();
        let ty = request.encode_into(&mut buf);
        req_enc.push(harness::median_call_us(5, 64, || {
            buf.clear();
            std::hint::black_box(request.encode_into(&mut buf));
        }));
        req_dec.push(harness::median_call_us(5, 64, || {
            std::hint::black_box(Request::decode(ty, std::hint::black_box(&buf)).is_ok());
        }));
        let response = Response::Answer(answer.clone());
        let mut buf = Vec::new();
        let ty = response.encode_into(&mut buf);
        bytes += buf.len();
        pairs += answer.answer_pairs();
        ans_enc.push(harness::median_call_us(3, 4, || {
            buf.clear();
            std::hint::black_box(response.encode_into(&mut buf));
        }));
        ans_dec.push(harness::median_call_us(3, 4, || {
            std::hint::black_box(Response::decode(ty, std::hint::black_box(&buf)).is_ok());
        }));
        if Response::decode(ty, &buf).ok() != Some(response) {
            out.fail("an answer frame did not round-trip");
        }
    }
    tr.end(codecs);
    v.set("serve.request_encode_us", stats::median(&req_enc));
    v.set("serve.request_decode_us", stats::median(&req_dec));
    v.set("serve.answer_encode_us", stats::median(&ans_enc));
    v.set("serve.answer_decode_us", stats::median(&ans_dec));
    v.set("serve.answer_bytes", bytes as f64 / pool.len() as f64);
    v.set("serve.bytes_per_pair", bytes as f64 / pairs.max(1) as f64);

    // One connection with 16 requests in flight: the queue and worker
    // pool two lock-step clients cannot load.
    let span = tr.begin("serve.pipelined");
    let mut rng = Rng::new(derive(cfg.seed, stream::MEASURED, 99));
    let mut submit = |client: &mut DgsClient| {
        let p = &pool[rng.below(pool.len())];
        client.submit(&Request::Query {
            pattern: p.pattern.clone(),
            algorithm: WireAlgorithm::Auto,
            boolean: false,
        })
    };
    let mut in_flight = VecDeque::new();
    let window = Duration::from_secs_f64(if cfg.quick { 0.1 } else { 1.0 });
    let started = Instant::now();
    let mut done = 0u64;
    loop {
        let refill = started.elapsed() < window;
        while refill && in_flight.len() < 16 {
            match submit(client) {
                Ok(id) => in_flight.push_back(id),
                Err(e) => {
                    out.fail(format!("pipelined submit: {e}"));
                    break;
                }
            }
        }
        let Some(id) = in_flight.pop_front() else {
            break;
        };
        match client.await_response(id) {
            Ok(Response::Answer(a)) if a.metrics.cache_hits == 1 => done += 1,
            Ok(_) => out.fail("pipelined query: not a cache-served answer"),
            Err(e) => out.fail(format!("pipelined query: {e}")),
        }
    }
    v.set(
        "serve.pipelined_qps_d16",
        done as f64 / started.elapsed().as_secs_f64(),
    );
    tr.end(span);

    // The in-process pieces of a hit, on the server's own engine.
    let engine = up.hosted.handle.engine();
    let (mut canon, mut plan, mut hit) = (vec![], vec![], vec![]);
    let span = tr.begin("core.pieces");
    for p in pool {
        let (c, pl) = harness::canon_and_plan_us(&engine, &p.pattern);
        canon.push(c);
        plan.push(pl);
        let (r, t) = timed(|| engine.query(&p.pattern));
        match r {
            Ok(r) if r.metrics.cache_hits == 1 => hit.push(us(t)),
            _ => out.fail("an in-process query of a pooled pattern missed the cache"),
        }
    }
    tr.end(span);
    v.set("core.canon_us", stats::median(&canon));
    v.set("core.plan_us", stats::median(&plan));
    if !hit.is_empty() {
        v.set("core.cache_hit_us", stats::median(&hit));
    }
    v.set(
        "graph.decode_binary_ms",
        harness::decode_binary_ms(&up.hosted.placed.graph, tr, out),
    );
    tr.end(root);
}
