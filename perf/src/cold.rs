//! `cold-cyclic` and `cold-acyclic`: a library caller evaluating new
//! patterns on a fragmented graph, in process, one blocking caller.
//!
//! Every pattern is asked once, so every query misses the result
//! cache, is planned, and runs a distributed engine under the default
//! (virtual) executor; with more distinct patterns than the cache
//! holds, the LRU evicts. `serve` does no work here.

use crate::harness::{self, digest, ms, timed, Cfg, Digest, Exact, Outcome, Pieces, Slices};
use crate::inputs::{self, stream, Placed};
use crate::names::Values;
use crate::stats;
use crate::trace::Tracer;
use dgs::prelude::*;
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One session: a community graph and cyclic patterns (`dGPMs`).
    Cyclic,
    /// Two sessions, both asked by every op: a citation DAG with DAG
    /// patterns (`dGPMd`) and a partitioned tree (`dGPMt`).
    Acyclic,
}

#[derive(Clone, Copy)]
enum Family {
    Cyclic,
    Dag,
}

/// A graph size with the patterns asked of it: `extra` pattern edges
/// beyond the minimum that keeps the pattern connected.
#[derive(Clone, Copy)]
struct Spec {
    family: Family,
    nodes: usize,
    edges: usize,
    labels: usize,
    extra: usize,
}

impl Spec {
    fn pattern(self, seed: u64, stream: u64, i: u64) -> Pattern {
        match self.family {
            Family::Cyclic => inputs::cyclic_pattern(seed, stream, i, self.labels, self.extra),
            Family::Dag => inputs::dag_pattern(seed, stream, i, self.labels, self.extra),
        }
    }
}

/// Input sizes. The graphs are the paper's shapes at a hundredth of
/// its sizes: on the shared host this runs on, the larger the working
/// set, the more a neighbour's memory traffic moves the numbers (the
/// same queries at |V| = 100 000 spread twice as wide between runs as
/// at 30 000). `|Σ|` and pattern density are tuned so that roughly
/// 30–70 % of the patterns match: with the paper's `|Σ| = 15` and
/// dense patterns none match, refinement exits early and the run
/// measures nothing.
struct Sizes {
    sites: usize,
    /// Fragments asked of `tree_partition`. Asked for 8, it cuts a
    /// random recursive tree of 60 000 nodes into 4 to 7 fragments of
    /// 3 000 to 30 000 nodes, and what a query costs follows the
    /// largest: between seeds the tree session's latency then spreads
    /// by a fifth. Asked for 32, it gives 19 to 23 of 2 000 to 7 000.
    tree_sites: usize,
    vf: f64,
    cyclic: Spec,
    dag: Spec,
    tree: Spec,
    warmup: u64,
    /// Ops whose exact counters (DS, PT, messages, rounds) are averaged;
    /// a fixed prefix of the pattern stream, so the means repeat exactly
    /// however many ops the window fits. Long enough that the means
    /// differ by a percent or two between seeds, not by ten.
    exact_prefix: usize,
    /// Patterns per session the per-layer calls are timed on.
    sample: usize,
}

fn sizes(quick: bool) -> Sizes {
    let spec = |family, nodes, edges, labels, extra| Spec {
        family,
        nodes,
        edges,
        labels,
        extra,
    };
    if quick {
        Sizes {
            sites: 4,
            tree_sites: 8,
            vf: 0.25,
            cyclic: spec(Family::Cyclic, 1_500, 7_500, 3, 1),
            dag: spec(Family::Dag, 2_000, 4_300, 4, 1),
            tree: spec(Family::Dag, 2_000, 1_999, 3, 0),
            warmup: 2,
            exact_prefix: 8,
            sample: 3,
        }
    } else {
        Sizes {
            sites: 8,
            tree_sites: 32,
            vf: 0.25,
            cyclic: spec(Family::Cyclic, 30_000, 150_000, 6, 1),
            dag: spec(Family::Dag, 60_000, 128_000, 12, 1),
            tree: spec(Family::Dag, 60_000, 59_999, 8, 0),
            warmup: 32,
            exact_prefix: 1024,
            sample: 16,
        }
    }
}

/// One in-process session and the patterns asked of it.
struct Leg {
    placed: Placed,
    frag: Arc<Fragmentation>,
    engine: SimEngine,
    spec: Spec,
    /// The engine `Algorithm::Auto` must plan here.
    planned: &'static str,
    explicit: Algorithm,
}

fn build_leg(
    tr: &mut Tracer,
    pieces: &mut Pieces,
    make: impl FnOnce() -> Placed,
    spec: Spec,
    planned: &'static str,
    explicit: Algorithm,
) -> Leg {
    let (placed, t) = timed(|| tr.span("graph.generate", make));
    pieces.generate += t;
    let (frag, t) = timed(|| {
        tr.span("partition.build", || {
            Arc::new(Fragmentation::build(
                &placed.graph,
                &placed.assignment,
                placed.sites,
            ))
        })
    });
    pieces.partition += t;
    let (engine, t) = timed(|| {
        tr.span("core.engine_build", || {
            SimEngine::builder(&placed.graph, Arc::clone(&frag)).build()
        })
    });
    pieces.engine += t;
    Leg {
        placed,
        frag,
        engine,
        spec,
        planned,
        explicit,
    }
}

fn set_up(kind: Kind, cfg: &Cfg, tr: &mut Tracer, out: &mut Outcome) -> (Vec<Leg>, Pieces) {
    let sz = sizes(cfg.quick);
    let seed = cfg.seed;
    let mut pieces = Pieces::default();
    let root = tr.begin("setup");
    let (vf, sites) = (sz.vf, sz.sites);
    let legs = match kind {
        Kind::Cyclic => {
            let c = sz.cyclic;
            let make = || inputs::community_graph(c.nodes, c.edges, sites, vf, c.labels, seed);
            vec![build_leg(
                tr,
                &mut pieces,
                make,
                c,
                "dGPMs",
                Algorithm::Dgpms,
            )]
        }
        Kind::Acyclic => {
            let (d, t) = (sz.dag, sz.tree);
            let dag = || inputs::citation_dag(d.nodes, d.edges, sites, vf, d.labels, seed);
            let tree = || inputs::partitioned_tree(t.nodes, sz.tree_sites, t.labels, seed);
            vec![
                build_leg(tr, &mut pieces, dag, d, "dGPMd", Algorithm::Dgpmd),
                build_leg(tr, &mut pieces, tree, t, "dGPMt", Algorithm::Dgpmt),
            ]
        }
    };
    let (_, t) = timed(|| {
        tr.span("harness.warmup", || {
            for i in 0..sz.warmup {
                for leg in &legs {
                    if leg
                        .engine
                        .query(&leg.spec.pattern(seed, stream::WARMUP, i))
                        .is_err()
                    {
                        out.fail("warm-up query returned an error");
                    }
                }
            }
        })
    });
    pieces.warmup = t;
    tr.end(root);
    (legs, pieces)
}

/// What the run keeps of one answered query.
struct Answered {
    digest: Digest,
    is_match: bool,
}

pub fn run(kind: Kind, cfg: &Cfg, tr: &mut Tracer, layers: bool) -> Outcome {
    let sz = sizes(cfg.quick);
    let mut out = Outcome::default();
    tr.set_op(0);

    let (legs, pieces) = harness::set_up_repeatedly(
        cfg,
        &mut out,
        |out| set_up(kind, cfg, tr, out),
        |built, _| drop(built),
    );
    let before: Vec<CacheStats> = legs
        .iter()
        .map(|l| l.engine.cache_stats().expect("the cache is on by default"))
        .collect();

    // The measured window: one caller, each pattern asked once. An op
    // asks every session its next pattern, so on `cold-acyclic` it is a
    // `dGPMd` query followed by a `dGPMt` query and its latency is
    // their sum: a median over alternating single queries would sit in
    // the gap between the two engines' costs and jump whenever one of
    // them moved.
    let mut answered: Vec<Option<Answered>> = Vec::new();
    let mut exact = Exact::default();
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut slices = Slices::start();
    let mut ask =
        |i: usize, timed_op: bool, out: &mut Outcome, tr: &mut Tracer, slices: &mut Slices| {
            tr.set_op(i as u64 + 1);
            let op = tr.begin("op");
            let mut latency = Duration::ZERO;
            for leg in &legs {
                let q = tr.span("harness.make_pattern", || {
                    leg.spec.pattern(cfg.seed, stream::MEASURED, i as u64)
                });
                let call = tr.begin("core.query");
                let (result, t) = timed(|| leg.engine.query(&q));
                tr.end(call);
                latency += t;
                let record = tr.begin("harness.record");
                match result {
                    Ok(report) => {
                        if report.algorithm != leg.planned {
                            out.fail(format!(
                                "op {i}: planned {}, expected {}",
                                report.algorithm, leg.planned
                            ));
                        }
                        if i < sz.exact_prefix {
                            exact.record(&report, leg.frag.ef(), &q);
                        }
                        answered.push(Some(Answered {
                            digest: digest(&report.relation),
                            is_match: report.is_match,
                        }));
                    }
                    Err(e) => {
                        out.fail(format!("op {i}, {}: {e}", leg.planned));
                        answered.push(None);
                    }
                }
                tr.end(record);
            }
            if timed_op {
                out.lat_ms.push(ms(latency));
                slices.record(latency);
                out.attempted += 1;
            }
            tr.end(op);
        };
    let mut i = 0;
    while slices.elapsed() < window {
        ask(i, true, &mut out, tr, &mut slices);
        i += 1;
    }
    let measured = i;
    // Complete the exact prefix, untimed, if the window was too short for it.
    while i < sz.exact_prefix {
        ask(i, false, &mut out, tr, &mut slices);
        i += 1;
    }
    out.ops_per_s = harness::steady_ops_per_s(&[slices], window);
    tr.set_op(0);

    // Untimed: compare answers to the centralized oracle. `answered`
    // holds one entry per query, an op's sessions side by side.
    let step = if cfg.check_all { 1 } else { 4 };
    let mut hhk_ms = Vec::new();
    let check = tr.begin("harness.check");
    for (k, got) in answered.iter().enumerate() {
        let (i, leg) = (k / legs.len(), &legs[k % legs.len()]);
        let Some(got) = got else { continue };
        if i % step != 0 {
            continue;
        }
        let q = leg.spec.pattern(cfg.seed, stream::MEASURED, i as u64);
        let (oracle, t) = timed(|| tr.span("sim.hhk", || hhk_simulation(&q, &leg.placed.graph)));
        hhk_ms.push(ms(t));
        if digest(&oracle.relation) != got.digest || oracle.matches() != got.is_match {
            out.fail(format!(
                "op {i}, {}: answer differs from hhk_simulation",
                leg.planned
            ));
        }
    }
    tr.end(check);

    let matching: Vec<&Answered> = answered.iter().flatten().filter(|a| a.is_match).collect();
    let match_share = matching.len() as f64 / answered.len().max(1) as f64;
    let pairs_per_answer = stats::mean(
        &matching
            .iter()
            .map(|a| f64::from(a.digest.pairs))
            .collect::<Vec<_>>(),
    );
    for leg in &legs {
        out.facts.push(format!(
            "{}: |V| = {}, |E| = {}, {} sites, |Vf|/|V| = {:.3}, |Ef| = {}",
            leg.planned,
            leg.placed.graph.node_count(),
            leg.placed.graph.edge_count(),
            leg.placed.sites,
            leg.frag.vf() as f64 / leg.placed.graph.node_count() as f64,
            leg.frag.ef()
        ));
    }
    out.facts.push(format!(
        "{measured} ops of {} measured, {} answers checked against hhk_simulation; {:.1} % of patterns match, {:.0} pairs per matching answer",
        if legs.len() == 1 {
            "one query".to_owned()
        } else {
            format!("{} queries, one per session", legs.len())
        },
        hhk_ms.len(),
        100.0 * match_share,
        pairs_per_answer
    ));

    let mut v = Values::default();
    let nodes: usize = legs.iter().map(|l| l.placed.graph.node_count()).sum();
    pieces.record(&mut v);
    v.set(
        "partition.vf_share",
        legs.iter().map(|l| l.frag.vf()).sum::<usize>() as f64 / nodes as f64,
    );
    v.set(
        "partition.ef_edges",
        legs.iter().map(|l| l.frag.ef()).sum::<usize>() as f64,
    );
    v.set("sim.hhk_ms_per_query", stats::mean(&hhk_ms));
    v.set("sim.match_share", match_share);
    v.set("sim.pairs_per_answer", pairs_per_answer);
    let (mut hits, mut misses, mut evictions) = (0, 0, 0);
    for (leg, b) in legs.iter().zip(&before) {
        let a = leg
            .engine
            .cache_stats()
            .expect("the cache is on by default");
        hits += a.hits - b.hits;
        misses += a.misses - b.misses;
        evictions += a.evictions - b.evictions;
    }
    v.set(
        "core.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.set("core.cache_evictions", evictions as f64);
    exact.finish(&mut out, &mut v);
    out.layers = v;

    if layers {
        let more = per_layer(cfg, &legs, sz.sample, tr, &mut out);
        out.layers.extend(more);
    }
    out
}

/// One explicit-engine run (the cache is bypassed), in ms.
fn exec_ms(
    tr: &mut Tracer,
    out: &mut Outcome,
    name: &'static str,
    engine: &SimEngine,
    algorithm: &Algorithm,
    q: &Pattern,
) -> f64 {
    let (r, t) = timed(|| tr.span(name, || engine.query_with(algorithm, q)));
    if r.is_err() {
        out.fail(format!("{name} returned an error"));
    }
    ms(t)
}

/// The per-layer calls, timed from outside on a fixed sample of the
/// measured patterns (so the numbers belong to the same inputs).
fn per_layer(cfg: &Cfg, legs: &[Leg], sample: usize, tr: &mut Tracer, out: &mut Outcome) -> Values {
    let mut v = Values::default();
    let root = tr.begin("layers");
    let (mut canon, mut plan, mut hit, mut hhk, mut planned, mut dgpm, mut single, mut threaded) = (
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![],
    );
    let mut decode_ms = 0.0;
    for leg in legs {
        let patterns: Vec<Pattern> = (0..sample as u64)
            .map(|i| leg.spec.pattern(cfg.seed, stream::MEASURED, i))
            .collect();
        let mut leg_planned = Vec::new();
        for q in &patterns {
            let (c, p) = tr.span("core.canon_and_plan", || {
                harness::canon_and_plan_us(&leg.engine, q)
            });
            canon.push(c);
            plan.push(p);
            leg_planned.push(exec_ms(
                tr,
                out,
                "core.exec_planned",
                &leg.engine,
                &leg.explicit,
                q,
            ));
            dgpm.push(exec_ms(
                tr,
                out,
                "core.exec_dgpm",
                &leg.engine,
                &Algorithm::dgpm(),
                q,
            ));
            hhk.push(ms(timed(|| {
                tr.span("sim.hhk", || hhk_simulation(q, &leg.placed.graph))
            })
            .1));
            // The first call stores the answer (unless the window left
            // it cached); the second is the in-process hit.
            let _ = leg.engine.query(q);
            let (again, t) = timed(|| tr.span("core.cache_hit", || leg.engine.query(q)));
            match again {
                Ok(r) if r.metrics.cache_hits == 1 => hit.push(harness::us(t)),
                _ => out.fail("a repeated query was not served by the cache"),
            }
        }
        let metric = match leg.planned {
            "dGPMs" => "core.dgpms_exec_ms",
            "dGPMd" => "core.dgpmd_exec_ms",
            _ => "core.dgpmt_exec_ms",
        };
        v.set(metric, stats::median(&leg_planned));
        planned.extend(leg_planned);

        let one_worker = SimEngine::builder(&leg.placed.graph, Arc::clone(&leg.frag))
            .batch_workers(1)
            .build();
        let real_threads = SimEngine::builder(&leg.placed.graph, Arc::clone(&leg.frag))
            .executor(ExecutorKind::Threaded)
            .build();
        for (i, q) in patterns.iter().enumerate() {
            single.push(exec_ms(
                tr,
                out,
                "core.exec_one_worker",
                &one_worker,
                &leg.explicit,
                q,
            ));
            if i < sample.div_ceil(2) {
                threaded.push(exec_ms(
                    tr,
                    out,
                    "net.exec_threaded",
                    &real_threads,
                    &leg.explicit,
                    q,
                ));
            }
        }

        decode_ms += harness::decode_binary_ms(&leg.placed.graph, tr, out);
    }
    tr.end(root);
    v.set("core.canon_us", stats::median(&canon));
    v.set("core.plan_us", stats::median(&plan));
    if !hit.is_empty() {
        v.set("core.cache_hit_us", stats::median(&hit));
    }
    v.set("core.dgpm_exec_ms", stats::median(&dgpm));
    v.set(
        "core.exec_over_hhk",
        stats::median(&planned) / stats::median(&hhk),
    );
    v.set(
        "core.intra_speedup",
        stats::median(&single) / stats::median(&planned),
    );
    v.set("net.threaded_exec_ms", stats::median(&threaded));
    v.set("graph.decode_binary_ms", decode_ms);
    v
}
