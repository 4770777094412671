//! `churn-subscribed`: writers and subscribers on a changing graph.
//! One connection subscribes to 16 matching patterns (16 maintained
//! cache entries); another applies delta batches in a closed loop,
//! each deleting 10 edges and inserting 10 — half of those recurrent
//! (an earlier deletion coming back), half fresh — so that revocation
//! and resurrection both fire. A subscriber thread timestamps every
//! `MATCH_DIFF`. Here the cache is a *write* path and the kernel runs
//! *incrementally*.

use crate::harness::{self, ms, rows_of, timed, Cfg, Outcome, Slices};
use crate::hosted::{self, Chosen, Hosted};
use crate::inputs::{self, stream, Churn};
use crate::names::Values;
use crate::stats;
use crate::trace::Tracer;
use dgs::partition::EdgeOp;
use dgs::prelude::*;
use dgs::serve::{MatchDiff, Request, Response, SubEventKind, SubscriptionEvent};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Sizes {
    subscriptions: usize,
    /// Deletions per batch, and as many insertions.
    half_batch: usize,
    /// Batches whose exact counters are averaged (completed untimed
    /// when the window fits fewer).
    exact_prefix: usize,
    /// Batches replayed in process and on a bare fragmentation.
    replayed: usize,
    /// Points in the window where maintained = fresh = oracle is checked.
    checkpoints: usize,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            subscriptions: 4,
            half_batch: 3,
            exact_prefix: 6,
            replayed: 3,
            checkpoints: 2,
        }
    } else {
        Sizes {
            subscriptions: 16,
            half_batch: 10,
            exact_prefix: 32,
            replayed: 16,
            checkpoints: 4,
        }
    }
}

/// The graph as the batches so far left it, built by the benchmark
/// itself: the oracle must not depend on the engine's own mirror.
fn graph_now(initial: &Graph, churn: &Churn) -> Graph {
    let mut b = GraphBuilder::with_capacity(initial.node_count(), initial.edge_count());
    for v in initial.nodes() {
        b.add_node(initial.label(v));
    }
    for &(u, v) in churn.present() {
        b.add_edge(NodeId(u), NodeId(v));
    }
    b.build()
}

/// Applies one pushed diff to subscription rows kept sorted.
fn apply_diff(rows: &mut [Vec<u32>], diff: &MatchDiff) -> Result<(), String> {
    for &(q, v) in &diff.removed {
        let row = rows
            .get_mut(q as usize)
            .ok_or("diff names a query node out of range")?;
        match row.binary_search(&v) {
            Ok(at) => {
                row.remove(at);
            }
            Err(_) => return Err(format!("diff removes ({q}, {v}), which was not a match")),
        }
    }
    for &(q, v) in &diff.added {
        let row = rows
            .get_mut(q as usize)
            .ok_or("diff names a query node out of range")?;
        match row.binary_search(&v) {
            Ok(_) => return Err(format!("diff adds ({q}, {v}), which was a match already")),
            Err(at) => row.insert(at, v),
        }
    }
    Ok(())
}

/// A diff as the subscriber thread received it.
struct Pushed {
    at: Instant,
    diff: MatchDiff,
}

struct Subscriber {
    client: DgsClient,
    pushed: Vec<Pushed>,
    overflows: u64,
    errors: Vec<String>,
}

/// Reads pushes until told to stop, then drains what is still queued:
/// the diffs of a delta are queued before its `DELTA_APPLIED` leaves,
/// so a PING sent after the writer's last acknowledgement comes back
/// behind all of them.
fn subscribe_loop(client: DgsClient, stop: &AtomicBool) -> Subscriber {
    // The timeout is what lets the loop notice `stop` on a quiet stream.
    let _ = client.set_read_timeout(Some(Duration::from_millis(20)));
    let mut s = Subscriber {
        client,
        pushed: Vec::new(),
        overflows: 0,
        errors: Vec::new(),
    };
    let take = |s: &mut Subscriber, ev: SubscriptionEvent| match ev {
        SubscriptionEvent::Diff(diff) => s.pushed.push(Pushed {
            at: Instant::now(),
            diff,
        }),
        SubscriptionEvent::Event { sub_id, kind } => {
            if kind == SubEventKind::Overflow {
                s.overflows += 1;
            }
            s.errors
                .push(format!("subscription {sub_id} ended: {kind:?}"));
        }
    };
    while !stop.load(Ordering::SeqCst) {
        match s.client.next_event() {
            Ok(ev) => take(&mut s, ev),
            Err(ServeError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => {
                s.errors.push(format!("subscriber: {e}"));
                return s;
            }
        }
    }
    let _ = s.client.set_read_timeout(None);
    if let Err(e) = s.client.ping() {
        s.errors.push(format!("subscriber drain: {e}"));
    }
    while let Some(ev) = s.client.poll_event() {
        take(&mut s, ev);
    }
    s
}

struct Up {
    hosted: Hosted,
    pieces: harness::Pieces,
    writer: DgsClient,
    subscriber: DgsClient,
    /// Subscription id of each chosen pattern.
    sub_ids: Vec<u64>,
}

fn set_up(
    cfg: &Cfg,
    sz: &hosted::Sizes,
    chosen: &[Chosen],
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Up {
    let root = tr.begin("setup");
    let (hosted, mut pieces) = hosted::host(cfg, sz, "churn", tr).expect("binding the server");
    let writer = DgsClient::connect(hosted.handle.addr()).expect("connecting");
    let mut subscriber = DgsClient::connect(hosted.handle.addr()).expect("connecting");
    // Subscribing evaluates each pattern cold and leaves it cached and
    // maintained: this workload's warm-up.
    let (sub_ids, warmup) = timed(|| {
        tr.span("harness.warmup", || {
            chosen
                .iter()
                .enumerate()
                .map(
                    |(i, c)| match subscriber.subscribe(&c.pattern, WireAlgorithm::Auto) {
                        Ok((sub_id, _, rows)) => {
                            if rows != c.rows {
                                out.fail(format!(
                                    "subscription {i}: the snapshot differs from hhk_simulation"
                                ));
                            }
                            sub_id
                        }
                        Err(e) => {
                            out.fail(format!("subscription {i}: {e}"));
                            u64::MAX
                        }
                    },
                )
                .collect()
        })
    });
    pieces.warmup = warmup;
    tr.end(root);
    Up {
        hosted,
        pieces,
        writer,
        subscriber,
        sub_ids,
    }
}

fn tear_down(up: Up, out: &mut Outcome) {
    drop((up.writer, up.subscriber));
    hosted::shut_down(up.hosted, out);
}

/// Fresh answers to every subscribed pattern at one generation.
struct Checkpoint {
    generation: u64,
    fresh: Vec<Vec<Vec<u32>>>,
}

/// Asks every subscribed pattern afresh and compares each answer to
/// the oracle on the benchmark's own copy of the graph.
fn checkpoint(
    writer: &mut DgsClient,
    chosen: &[Chosen],
    graph: &Graph,
    generation: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Checkpoint {
    let span = tr.begin("harness.checkpoint");
    let fresh = chosen
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let rows = match writer.query(&c.pattern, WireAlgorithm::Auto) {
                Ok(a) => a.rows,
                Err(e) => {
                    out.fail(format!("generation {generation}, pattern {i}: {e}"));
                    Vec::new()
                }
            };
            if rows != rows_of(&hhk_simulation(&c.pattern, graph).relation) {
                out.fail(format!("generation {generation}, pattern {i}: fresh answer differs from hhk_simulation"));
            }
            rows
        })
        .collect();
    tr.end(span);
    Checkpoint { generation, fresh }
}

pub fn run(cfg: &Cfg, tr: &mut Tracer, layers: bool) -> Outcome {
    // Maintenance costs about 5 µs per node per entry per batch here; a
    // graph of this size fits some 450 batches into a 20 s window, enough
    // for a 95th percentile with ten samples beyond it.
    let hsz = hosted::sizes(cfg.quick, 8_000);
    let sz = sizes(cfg.quick);
    let mut out = Outcome::default();
    let mut values = Values::default();
    tr.set_op(0);

    let initial = inputs::community_graph(
        hsz.nodes, hsz.edges, hsz.sites, hsz.vf, hsz.labels, cfg.seed,
    )
    .graph;
    let chosen = tr.span("harness.choose_patterns", || {
        hosted::choose_matching(
            &initial,
            cfg,
            &hsz,
            stream::MEASURED,
            sz.subscriptions,
            &mut values,
        )
    });

    let up = harness::set_up_repeatedly(
        cfg,
        &mut out,
        |out| set_up(cfg, &hsz, &chosen, tr, out),
        tear_down,
    );
    let Up {
        hosted,
        pieces,
        mut writer,
        subscriber,
        sub_ids,
    } = up;
    out.facts.push(hosted::describe(&hosted));
    hosted::cold_counts(&hosted, cfg, &hsz, tr, &mut out, &mut values);
    let before = writer.cache_stats().ok().flatten();

    // The measured window.
    let mut churn = Churn::new(&initial, sz.half_batch, cfg.seed);
    let stop = AtomicBool::new(false);
    let window = Duration::from_secs_f64(cfg.seconds);
    let mut sent: HashMap<u64, Instant> = HashMap::new();
    let mut summaries = Vec::new();
    let mut checkpoints = Vec::new();
    let mut slices = Slices::start();
    let mut last_generation = 0;
    let sub = std::thread::scope(|s| {
        let reader = s.spawn(|| subscribe_loop(subscriber, &stop));
        let mut batch = 0u64;
        loop {
            let in_window = slices.elapsed() < window;
            if !in_window && summaries.len() >= sz.exact_prefix {
                break;
            }
            batch += 1;
            tr.set_op(batch);
            let op = tr.begin("op");
            let delta = tr.span("harness.make_batch", || churn.next_batch());
            let call = tr.begin("serve.client.apply_delta");
            let at = Instant::now();
            let result = writer.apply_delta(&delta);
            let t = at.elapsed();
            tr.end(call);
            if in_window {
                out.lat_ms.push(ms(t));
                out.attempted += 1;
                slices.record(t);
            }
            match result {
                Ok(d) => {
                    sent.insert(d.generation, at);
                    last_generation = d.generation;
                    let n = sz.half_batch as u64;
                    if (d.inserted, d.deleted, d.ignored) != (n, n, 0) {
                        out.fail(format!(
                            "batch {batch}: applied {}+{} ops, ignored {}",
                            d.inserted, d.deleted, d.ignored
                        ));
                    }
                    if d.maintained_entries != sz.subscriptions as u64 || d.invalidated_entries != 0
                    {
                        out.fail(format!(
                            "batch {batch}: {} entries maintained, {} invalidated",
                            d.maintained_entries, d.invalidated_entries
                        ));
                    }
                    summaries.push(d);
                }
                Err(e) => out.fail(format!("batch {batch}: {e}")),
            }
            tr.end(op);
            // Untimed, between ops: maintained = fresh = oracle, now.
            let due = (checkpoints.len() + 1) as f64 / (sz.checkpoints + 1) as f64;
            if checkpoints.len() < sz.checkpoints
                && slices.elapsed().as_secs_f64() >= due * cfg.seconds
            {
                tr.set_op(0);
                let graph = graph_now(&initial, &churn);
                checkpoints.push(checkpoint(
                    &mut writer,
                    &chosen,
                    &graph,
                    last_generation,
                    tr,
                    &mut out,
                ));
            }
        }
        tr.set_op(0);
        let graph = graph_now(&initial, &churn);
        checkpoints.push(checkpoint(
            &mut writer,
            &chosen,
            &graph,
            last_generation,
            tr,
            &mut out,
        ));
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("the subscriber thread panicked")
    });
    out.ops_per_s = harness::steady_ops_per_s(&[slices], window);
    let after = writer.cache_stats().ok().flatten();
    let ring_total_us = if layers {
        let delta_ty = Request::ApplyDelta {
            insert_edges: Vec::new(),
            delete_edges: Vec::new(),
        }
        .encode_into(&mut Vec::new());
        hosted::trace_ring(&mut writer, |t| t.ty == delta_ty, &mut values, &mut out)
    } else {
        0.0
    };
    for e in &sub.errors {
        out.fail(e);
    }

    // Untimed: snapshot + replayed diffs = fresh query, at every checkpoint.
    let replay = tr.begin("harness.replay");
    let mut rows: HashMap<u64, Vec<Vec<u32>>> = sub_ids
        .iter()
        .zip(&chosen)
        .map(|(&id, c)| (id, c.rows.clone()))
        .collect();
    let mut next = 0;
    let mut lag_ms = Vec::new();
    for cp in &checkpoints {
        while next < sub.pushed.len() && sub.pushed[next].diff.generation <= cp.generation {
            let p = &sub.pushed[next];
            next += 1;
            match (rows.get_mut(&p.diff.sub_id), sent.get(&p.diff.generation)) {
                (Some(r), Some(&at)) => {
                    lag_ms.push(ms(p.at.saturating_duration_since(at)));
                    if let Err(e) = apply_diff(r, &p.diff) {
                        out.fail(format!("generation {}: {e}", p.diff.generation));
                    }
                }
                _ => out.fail("a diff for an unknown subscription or generation"),
            }
        }
        for ((id, fresh), i) in sub_ids.iter().zip(&cp.fresh).zip(0..) {
            if rows.get(id) != Some(fresh) {
                out.fail(format!(
                    "generation {}, pattern {i}: snapshot + diffs differs from the fresh answer",
                    cp.generation
                ));
            }
        }
    }
    if next != sub.pushed.len() {
        out.fail("diffs arrived for a generation past the last batch");
    }
    tr.end(replay);

    out.facts.push(format!(
        "{} subscriptions, {} batches of {}+{} edge ops timed ({} applied); {} diffs pushed, replayed and compared to fresh answers and hhk_simulation at {} generations",
        sz.subscriptions,
        out.lat_ms.len(),
        sz.half_batch,
        sz.half_batch,
        summaries.len(),
        sub.pushed.len(),
        checkpoints.len()
    ));
    hosted::common_layers(&hosted, &pieces, &mut values);
    let prefix = &summaries[..sz.exact_prefix.min(summaries.len())];
    let mean_of = |f: &dyn Fn(&dgs::serve::DeltaSummary) -> u64| {
        stats::mean(&prefix.iter().map(|d| f(d) as f64).collect::<Vec<_>>())
    };
    values.set("core.revoked_pairs", mean_of(&|d| d.revoked_pairs));
    values.set("core.resurrected_pairs", mean_of(&|d| d.resurrected_pairs));
    values.set(
        "core.maintained_entries",
        mean_of(&|d| d.maintained_entries),
    );
    values.set(
        "core.invalidated_entries",
        summaries.iter().map(|d| d.invalidated_entries).sum::<u64>() as f64,
    );
    values.set("serve.diffs_pushed", sub.pushed.len() as f64);
    values.set("serve.sub_overflows", sub.overflows as f64);
    if !lag_ms.is_empty() {
        stats::sort(&mut lag_ms);
        values.set("serve.diff_lag_p50_ms", stats::percentile(&lag_ms, 0.50));
        values.set("serve.diff_lag_p95_ms", stats::percentile(&lag_ms, 0.95));
    }
    if let (Some(b), Some(a)) = (before, after) {
        let (hits, misses) = (a.hits - b.hits, a.misses - b.misses);
        values.set(
            "core.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        values.set("core.cache_evictions", (a.evictions - b.evictions) as f64);
    }

    if layers {
        let rtt_p50_ms = stats::percentile(&out.sorted_latencies(), 0.50);
        values.set("serve.client_self_us", rtt_p50_ms * 1e3 - ring_total_us);
        let prefix_generation = prefix.last().map_or(0, |d| d.generation);
        let diffs: Vec<&MatchDiff> = sub
            .pushed
            .iter()
            .map(|p| &p.diff)
            .filter(|d| d.generation <= prefix_generation)
            .collect();
        let inproc_ms = per_layer(
            cfg,
            &sz,
            &hosted,
            &chosen,
            &diffs,
            &mut writer,
            tr,
            &mut values,
            &mut out,
        );
        values.set("serve.delta_rtt_over_inproc", rtt_p50_ms / inproc_ms);
    }
    drop((writer, sub.client));
    hosted::shut_down(hosted, &mut out);
    out.layers = values;
    out
}

/// Times the layers under `APPLY_DELTA` on the same batches: the
/// engine in process, the bare fragmentation, and the codecs. Returns
/// the in-process median per batch in ms.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    cfg: &Cfg,
    sz: &Sizes,
    hosted: &Hosted,
    chosen: &[Chosen],
    diffs: &[&MatchDiff],
    writer: &mut DgsClient,
    tr: &mut Tracer,
    v: &mut Values,
    out: &mut Outcome,
) -> f64 {
    let root = tr.begin("layers");
    let initial = &hosted.placed.graph;
    v.set(
        "serve.ping_rtt_us",
        hosted::ping_rtt_us(writer, if cfg.quick { 200 } else { 2_000 }, tr, out),
    );

    // The same first batches against an engine of our own holding the
    // same entries, and against a clone of the fragmentation alone.
    let engine = SimEngine::builder(initial, Arc::clone(&hosted.frag)).build();
    for c in chosen {
        if engine.query(&c.pattern).is_err() {
            out.fail("in-process replica: query failed");
        }
    }
    let mut frag = (*hosted.frag).clone();
    let mut churn = Churn::new(initial, sz.half_batch, cfg.seed);
    let (mut apply_ms, mut frag_us, mut req_enc, mut req_dec) = (vec![], vec![], vec![], vec![]);
    let mut entries = 0usize;
    for _ in 0..sz.replayed {
        let delta = churn.next_batch();
        let (report, t) = timed(|| tr.span("core.apply_delta", || engine.apply_delta(&delta)));
        apply_ms.push(ms(t));
        match report {
            Ok(r) => entries += r.maintained_entries,
            Err(e) => out.fail(format!("in-process replica: {e}")),
        }
        // Deletions first, as the engine composes a mixed batch.
        let ops: Vec<EdgeOp> = delta
            .delete_edges
            .iter()
            .map(|&(u, v)| EdgeOp::Delete(u, v))
            .chain(
                delta
                    .insert_edges
                    .iter()
                    .map(|&(u, v)| EdgeOp::Insert(u, v)),
            )
            .collect();
        let (_, t) = timed(|| tr.span("partition.apply_delta", || frag.apply_delta(&ops)));
        frag_us.push(harness::us(t));

        let raw = |es: &[(NodeId, NodeId)]| es.iter().map(|&(u, v)| (u.0, v.0)).collect();
        let request = Request::ApplyDelta {
            insert_edges: raw(&delta.insert_edges),
            delete_edges: raw(&delta.delete_edges),
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
    }
    let inproc_ms = stats::median(&apply_ms);
    v.set("core.delta_apply_ms", inproc_ms);
    v.set(
        "core.delta_ms_per_entry",
        inproc_ms * sz.replayed as f64 / entries.max(1) as f64,
    );
    v.set("partition.apply_delta_us", stats::median(&frag_us));
    v.set("serve.request_encode_us", stats::median(&req_enc));
    v.set("serve.request_decode_us", stats::median(&req_dec));

    // This workload's answers are its pushed diffs (those of the exact
    // prefix of batches, so that the byte counts repeat).
    let (mut enc, mut dec) = (vec![], vec![]);
    let (mut bytes, mut pairs) = (0usize, 0usize);
    for &diff in diffs {
        let response = Response::MatchDiff(diff.clone());
        let mut buf = Vec::new();
        let ty = response.encode_into(&mut buf);
        bytes += buf.len();
        pairs += diff.added.len() + diff.removed.len();
        enc.push(harness::median_call_us(3, 16, || {
            buf.clear();
            std::hint::black_box(response.encode_into(&mut buf));
        }));
        dec.push(harness::median_call_us(3, 16, || {
            std::hint::black_box(Response::decode(ty, std::hint::black_box(&buf)).is_ok());
        }));
    }
    if !enc.is_empty() {
        v.set("serve.answer_encode_us", stats::median(&enc));
        v.set("serve.answer_decode_us", stats::median(&dec));
        v.set("serve.answer_bytes", bytes as f64 / enc.len() as f64);
        v.set("serve.bytes_per_pair", bytes as f64 / pairs.max(1) as f64);
    }
    v.set(
        "graph.decode_binary_ms",
        harness::decode_binary_ms(initial, tr, out),
    );
    tr.end(root);
    inproc_ms
}
