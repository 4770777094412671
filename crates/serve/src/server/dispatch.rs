//! The worker pool: decode a request, run it against the routed
//! session(s), encode the response and hand it back to the event
//! thread.

use super::{elapsed_ns, frame_name, refresh_gauges, Completion, Shared, SLOW_LOG_CAP};
use crate::error::ErrorCode;
use crate::proto::{
    rows_of, Answer, DeltaSummary, GraphInfo, Request, Response, SessionOptions, WireCacheStats,
    WireCompression, WireMetrics, WireTrace,
};
use crate::session::{merge_answers, merge_metrics, session_info, Route};
use crate::wire::encode_frame_into;
use dgs_core::{Algorithm, BooleanReport, DgsError, GraphDelta, SimEngine};
use dgs_graph::{Graph, NodeId, Pattern};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// What `execute` learned about a request, threaded back to the
/// worker loop for the slow-query log.
#[derive(Default)]
struct TraceCapture {
    session: String,
    algorithm: String,
    plan: String,
    site_ops: Vec<u64>,
    site_msgs: Vec<u64>,
    generation: u64,
}

/// Records what the slow-query log wants from a completed run.
fn note_trace(trace: &mut TraceCapture, session: &str, report: &BooleanReport) {
    trace.session = session.to_owned();
    trace.algorithm = report.algorithm.to_owned();
    trace.plan = report.plan.to_string();
    trace.site_ops = report.metrics.site_ops.clone();
    trace.site_msgs = report.metrics.site_msgs.clone();
}

/// Pulls jobs until the queue closes: decode, execute, encode the
/// response into a pooled frame buffer, hand it back, wake the
/// poller. A panicking request (a shard bug, a pathological pattern)
/// becomes a typed `Internal` error instead of a dead worker.
pub(super) fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.jobs.pop() {
        let queue_ns = elapsed_ns(job.enqueued);
        shared.obs.queue_depth.dec();
        shared.obs.worker_wait_ns.record(queue_ns);
        let exec_start = Instant::now();
        let mut trace = TraceCapture::default();
        let (resp, wants_shutdown) = match Request::decode(job.ty, &job.body) {
            Ok(req) => {
                let wants_shutdown = matches!(req, Request::Shutdown);
                let resp = catch_unwind(AssertUnwindSafe(|| {
                    execute(&req, shared, &job.route, job.conn_id, &mut trace)
                }))
                .unwrap_or_else(|_| Response::Error {
                    code: ErrorCode::Internal,
                    message: "request execution panicked on the server".into(),
                });
                (resp, wants_shutdown)
            }
            // Frames are length-delimited, so the stream is still in
            // sync: report and keep serving.
            Err(e) => (
                Response::Error {
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                },
                false,
            ),
        };
        let exec_ns = elapsed_ns(exec_start);
        let encode_start = Instant::now();
        let mut buf = shared.pool.get();
        let id = Some(job.request_id);
        if encode_frame_into(&mut buf, id, |b| resp.encode_into(b)).is_err() {
            // The answer outgrew MAX_FRAME; the error that replaces it
            // cannot (it is a short string).
            let resp = Response::Error {
                code: ErrorCode::Internal,
                message: "response exceeded the maximum frame size".into(),
            };
            encode_frame_into(&mut buf, id, |b| resp.encode_into(b))
                .expect("error frame fits MAX_FRAME");
        }
        let encode_ns = elapsed_ns(encode_start);
        let total_ns = queue_ns.saturating_add(exec_ns).saturating_add(encode_ns);
        shared.obs.requests_total.inc();
        shared.obs.request_histo(job.ty).record(total_ns);
        if shared.slow_ns.is_some_and(|ns| total_ns >= ns) {
            shared.obs.slow_queries.inc();
            shared.log.warn(
                "slow",
                &format!(
                    "{} took {:.1} ms (queue {:.1} ms, exec {:.1} ms) on conn {}",
                    frame_name(job.ty),
                    total_ns as f64 / 1e6,
                    queue_ns as f64 / 1e6,
                    exec_ns as f64 / 1e6,
                    job.conn_id
                ),
            );
            let mut slow = shared.slow_log.lock();
            if slow.len() == SLOW_LOG_CAP {
                slow.pop_front();
            }
            slow.push_back(WireTrace {
                conn_id: job.conn_id,
                request_id: job.request_id,
                ty: job.ty,
                session: trace.session,
                queue_ns,
                exec_ns,
                encode_ns,
                total_ns,
                algorithm: trace.algorithm,
                plan: trace.plan,
                site_ops: trace.site_ops,
                site_msgs: trace.site_msgs,
                generation: trace.generation,
            });
        }
        shared.served.fetch_add(1, Ordering::SeqCst);
        shared.completions.lock().push(Completion {
            conn_id: job.conn_id,
            frame: buf,
            release_barrier: job.release_barrier,
            wants_shutdown,
        });
        shared.wake.wake();
    }
}

// ---- request execution ------------------------------------------------

fn dgs_error(e: &DgsError) -> Response {
    Response::Error {
        code: ErrorCode::of_dgs(e),
        message: e.to_string(),
    }
}

fn no_such_session(name: &str) -> Response {
    Response::Error {
        code: ErrorCode::NoSuchSession,
        message: format!("no session named {name:?} is hosted"),
    }
}

fn single_target_only(what: &str, n: usize) -> Response {
    Response::Error {
        code: ErrorCode::Unsupported,
        message: format!(
            "{what} needs a single-session route, but this connection is routed to {n} sessions; \
             SESSION_ROUTE to one session first"
        ),
    }
}

/// Resolves a route snapshot, mapping a missing session to its typed
/// error (boxed: the happy path should not pay for the error
/// variant's size).
#[allow(clippy::type_complexity)]
fn resolve(shared: &Shared, route: &Route) -> Result<Vec<(String, Arc<SimEngine>)>, Box<Response>> {
    match shared.sessions.resolve(route) {
        Ok(engines) if engines.is_empty() => Err(Box::new(Response::Error {
            code: ErrorCode::NoSuchSession,
            message: "no sessions are hosted (all were dropped)".into(),
        })),
        Ok(engines) => Ok(engines),
        Err(name) => Err(Box::new(no_such_session(&name))),
    }
}

/// The one session a request that needs a single target is routed to,
/// or the typed refusal naming `what` asked.
fn single_target(
    shared: &Shared,
    route: &Mutex<Route>,
    what: &str,
) -> Result<(String, Arc<SimEngine>), Box<Response>> {
    let mut engines = resolve(shared, &route.lock().clone())?;
    if engines.len() > 1 {
        return Err(Box::new(single_target_only(what, engines.len())));
    }
    Ok(engines.pop().expect("resolve answers at least one session"))
}

/// Runs `f` once per routed shard concurrently. A shard error — or a
/// shard *panic*, which must answer a typed error rather than kill
/// the connection — wins over the other shards' answers.
fn fan_out<T, F>(engines: &[(String, Arc<SimEngine>)], f: F) -> Result<Vec<T>, Box<Response>>
where
    T: Send,
    F: Fn(&SimEngine) -> Result<T, DgsError> + Sync,
{
    let joined: Vec<std::thread::Result<Result<T, DgsError>>> = std::thread::scope(|s| {
        let handles: Vec<_> = engines
            .iter()
            .map(|(_, engine)| s.spawn(|| f(engine)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut out = Vec::with_capacity(joined.len());
    for (result, (name, _)) in joined.into_iter().zip(engines) {
        match result {
            Ok(Ok(v)) => out.push(v),
            Ok(Err(e)) => return Err(Box::new(dgs_error(&e))),
            Err(_) => {
                return Err(Box::new(Response::Error {
                    code: ErrorCode::Internal,
                    message: format!("shard query panicked in session {name:?}"),
                }));
            }
        }
    }
    Ok(out)
}

/// Runs one data-selecting query on every routed shard concurrently
/// and merges the relations (see [`crate::session::merge_answers`]).
fn fan_out_query(
    engines: &[(String, Arc<SimEngine>)],
    algo: &Algorithm,
    pattern: &Pattern,
) -> Response {
    match fan_out(engines, |engine| {
        engine.query_with(algo, pattern).map(|r| Answer::of_run(&r))
    }) {
        Ok(parts) => Response::Answer(merge_answers(&parts)),
        Err(resp) => *resp,
    }
}

/// Runs a batch on every routed shard concurrently and merges
/// item-wise; a shard error on an item wins over other shards'
/// answers for it (partial unions would be silently wrong).
fn fan_out_batch(
    engines: &[(String, Arc<SimEngine>)],
    algo: &Algorithm,
    patterns: &[Pattern],
) -> Response {
    let shard_batches = match fan_out(
        engines,
        |engine| Ok(engine.query_batch_with(algo, patterns)),
    ) {
        Ok(batches) => batches,
        Err(resp) => return *resp,
    };
    let mut total = WireMetrics::default();
    for batch in &shard_batches {
        merge_metrics(&mut total, &WireMetrics::of_run(&batch.total));
    }
    let items = (0..patterns.len())
        .map(|i| {
            let mut parts = Vec::with_capacity(shard_batches.len());
            for batch in &shard_batches {
                match &batch.reports[i] {
                    Ok(report) => parts.push(Answer::of_run(report)),
                    Err(e) => return Err((ErrorCode::of_dgs(e), e.to_string())),
                }
            }
            Ok(merge_answers(&parts))
        })
        .collect();
    Response::BatchAnswer { items, total }
}

/// Queues subscription push activity for the event loop: remembers
/// which connections gained frames and wakes the poller.
fn note_sub_dirty(shared: &Shared, dirty: Vec<u64>) {
    if dirty.is_empty() {
        return;
    }
    shared.sub_dirty.lock().extend(dirty);
    shared.wake.wake();
}

/// Runs one request against the routed session(s). `route` is the
/// connection's shared route cell; barrier dispatch in the event loop
/// guarantees `SESSION_ROUTE` never executes concurrently with other
/// requests on the same connection. `conn_id` identifies the
/// connection for subscription ownership. `trace` collects
/// plan/per-site details for the slow-query log.
fn execute(
    req: &Request,
    shared: &Shared,
    route: &Mutex<Route>,
    conn_id: u64,
    trace: &mut TraceCapture,
) -> Response {
    // A refusal met while routing is as much the answer as `Ok` is.
    try_execute(req, shared, route, conn_id, trace).unwrap_or_else(|refusal| *refusal)
}

fn try_execute(
    req: &Request,
    shared: &Shared,
    route: &Mutex<Route>,
    conn_id: u64,
    trace: &mut TraceCapture,
) -> Result<Response, Box<Response>> {
    Ok(match req {
        Request::Ping => Response::Pong,
        Request::GraphInfo => {
            let (_, engine) = single_target(shared, route, "GRAPH_INFO")?;
            let g = engine.graph();
            let frag = engine.fragmentation();
            Response::GraphInfo(GraphInfo {
                nodes: g.node_count() as u64,
                edges: g.edge_count() as u64,
                sites: frag.num_sites() as u16,
                vf: frag.vf() as u64,
                ef: frag.ef() as u64,
                label_bound: g.label_bound() as u64,
                generation: engine.generation(),
            })
        }
        Request::Query {
            pattern,
            algorithm,
            boolean,
        } => {
            let engines = resolve(shared, &route.lock().clone())?;
            let algo = algorithm.to_algorithm();
            if engines.len() > 1 {
                // Fan-out runs data-selecting even for Boolean
                // queries: is_match must come from the *merged*
                // relation's totality — OR-ing per-shard flags would
                // claim matches no union supports per query node.
                let mut resp = fan_out_query(&engines, &algo, pattern);
                if let (true, Response::Answer(answer)) = (*boolean, &mut resp) {
                    answer.rows = Vec::new();
                }
                return Ok(resp);
            }
            let (name, engine) = &engines[0];
            trace.generation = engine.generation();
            let answered = if *boolean {
                let report = engine.query_boolean_with(&algo, pattern);
                report.map(|report| (Vec::new(), report))
            } else {
                let report = engine.query_with(&algo, pattern);
                report.map(|report| (rows_of(&report.relation), report.into()))
            };
            match answered {
                Ok((rows, report)) => {
                    note_trace(trace, name, &report);
                    Response::Answer(Answer::of_report(rows, &report))
                }
                Err(e) => dgs_error(&e),
            }
        }
        Request::QueryBatch {
            patterns,
            algorithm,
        } => {
            let engines = resolve(shared, &route.lock().clone())?;
            let algo = algorithm.to_algorithm();
            if engines.len() > 1 {
                return Ok(fan_out_batch(&engines, &algo, patterns));
            }
            let batch = engines[0].1.query_batch_with(&algo, patterns);
            trace.session = engines[0].0.clone();
            trace.generation = engines[0].1.generation();
            trace.site_ops = batch.total.site_ops.clone();
            trace.site_msgs = batch.total.site_msgs.clone();
            let items = batch
                .reports
                .iter()
                .map(|r| match r {
                    Ok(report) => Ok(Answer::of_run(report)),
                    Err(e) => Err((ErrorCode::of_dgs(e), e.to_string())),
                })
                .collect();
            Response::BatchAnswer {
                items,
                total: WireMetrics::of_run(&batch.total),
            }
        }
        Request::ApplyDelta {
            insert_edges,
            delete_edges,
        } => {
            let (name, engine) = single_target(shared, route, "APPLY_DELTA")?;
            let delta = GraphDelta {
                insert_edges: insert_edges
                    .iter()
                    .map(|&(u, v)| (NodeId(u), NodeId(v)))
                    .collect(),
                delete_edges: delete_edges
                    .iter()
                    .map(|&(u, v)| (NodeId(u), NodeId(v)))
                    .collect(),
            };
            // No lock: the engine serializes writers internally and
            // queries keep running against the published snapshot
            // while the next generation is built.
            match engine.apply_delta(&delta) {
                Ok(report) => {
                    shared.obs.deltas_applied.inc();
                    shared
                        .obs
                        .delta_maintained
                        .add(report.maintained_entries as u64);
                    trace.generation = report.generation;
                    // Feed the digest to live subscriptions before
                    // answering: the diff frames queue behind this
                    // response in the connection's write order.
                    let dirty = shared.subs.on_delta(&name, &engine, &report);
                    note_sub_dirty(shared, dirty);
                    trace.session = name;
                    Response::DeltaApplied(DeltaSummary::of_report(&report))
                }
                Err(e) => dgs_error(&e),
            }
        }
        Request::CacheStats => {
            let (_, engine) = single_target(shared, route, "CACHE_STATS")?;
            Response::CacheStats(engine.cache_stats().as_ref().map(WireCacheStats::of_stats))
        }
        Request::CompressionInfo => {
            let (_, engine) = single_target(shared, route, "COMPRESSION_INFO")?;
            Response::CompressionInfo(WireCompression::of_engine(&engine))
        }
        Request::LoadGraph { graph, options } => {
            let name = match &*route.lock() {
                Route::Single(name) => name.clone(),
                // The error names the *route's* target count, not the
                // server-wide session count — Route::All resolves at
                // request time, so only it consults the registry.
                Route::Many(names) => {
                    return Err(Box::new(single_target_only("LOAD_GRAPH", names.len())));
                }
                Route::All => {
                    let hosted = shared.sessions.len();
                    return Err(Box::new(single_target_only("LOAD_GRAPH", hosted)));
                }
            };
            host_session(shared, &name, graph, options)?;
            Response::Loaded {
                nodes: graph.node_count() as u64,
                edges: graph.edge_count() as u64,
                sites: options.sites,
            }
        }
        Request::SessionCreate {
            name,
            graph,
            options,
        } => {
            let engine = host_session(shared, name, graph, options)?;
            Response::SessionCreated(session_info(name, &engine))
        }
        Request::SessionList => Response::Sessions(shared.sessions.infos()),
        Request::SessionDrop { name } => {
            if shared.sessions.remove(name) {
                // Every subscription on the dropped session ends with
                // a typed SUB_EVENT(session_dropped) push.
                note_sub_dirty(shared, shared.subs.drop_session(name));
                Response::SessionDropped
            } else {
                no_such_session(name)
            }
        }
        Request::SessionRoute { sessions } => {
            let new_route = Route::of_names(sessions.clone());
            // Named routes are validated now (typed error instead of a
            // silently broken connection); Route::All re-resolves on
            // every request by design.
            match shared.sessions.resolve(&new_route) {
                Ok(engines) => {
                    let n = engines.len() as u64;
                    *route.lock() = new_route;
                    Response::SessionRouted { sessions: n }
                }
                Err(name) => no_such_session(&name),
            }
        }
        Request::Subscribe { pattern, algorithm } => {
            let (name, engine) = single_target(shared, route, "SUBSCRIBE")?;
            match shared
                .subs
                .subscribe(conn_id, &name, &engine, pattern, *algorithm)
            {
                Ok((sub_id, generation, rows)) => Response::Subscribed {
                    sub_id,
                    generation,
                    rows,
                },
                Err(e) => dgs_error(&e),
            }
        }
        Request::Unsubscribe { sub_id } => {
            if shared.subs.unsubscribe(conn_id, *sub_id) {
                Response::Unsubscribed
            } else {
                Response::Error {
                    code: ErrorCode::NoSuchSubscription,
                    message: format!("this connection holds no subscription with id {sub_id}"),
                }
            }
        }
        Request::Metrics => {
            refresh_gauges(shared);
            Response::Metrics(shared.registry.snapshot())
        }
        Request::Trace => {
            // Newest first: the request someone is chasing is almost
            // always the latest one.
            Response::Trace(shared.slow_log.lock().iter().rev().cloned().collect())
        }
        Request::Shutdown => Response::ShuttingDown,
    })
}

/// Builds a session by the one recipe
/// ([`SessionOptions::engine_builder`]) and hosts it as `name`: built
/// off-path, only the map swap is synchronized. The subscriptions of a
/// session it replaces refer to the old engine's state and end with a
/// typed event rather than stream diffs against a graph the
/// subscriber never saw.
fn host_session(
    shared: &Shared,
    name: &str,
    graph: &Graph,
    options: &SessionOptions,
) -> Result<Arc<SimEngine>, Box<Response>> {
    let builder = options.engine_builder(graph).map_err(|message| {
        Box::new(Response::Error {
            code: ErrorCode::Malformed,
            message,
        })
    })?;
    let engine = shared.sessions.insert(name, builder.build());
    note_sub_dirty(shared, shared.subs.drop_session(name));
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::generate::social::fig1;
    use dgs_partition::Fragmentation;

    fn shard_engines(n: usize) -> Vec<(String, Arc<SimEngine>)> {
        (0..n)
            .map(|i| {
                let w = fig1();
                let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
                (
                    format!("shard{i}"),
                    Arc::new(SimEngine::builder(&w.graph, frag).build()),
                )
            })
            .collect()
    }

    #[test]
    fn fan_out_answers_a_typed_error_when_a_shard_panics() {
        let engines = shard_engines(3);
        let mut calls = 0usize;
        let calls_ptr = std::sync::atomic::AtomicUsize::new(0);
        let result: Result<Vec<u32>, Box<Response>> = fan_out(&engines, |_| {
            if calls_ptr.fetch_add(1, Ordering::SeqCst) == 1 {
                panic!("injected shard failure");
            }
            Ok(7)
        });
        calls += calls_ptr.load(Ordering::SeqCst);
        assert!(calls >= 2);
        match result {
            Err(resp) => match *resp {
                Response::Error { code, message } => {
                    assert_eq!(code, ErrorCode::Internal);
                    assert!(message.contains("panicked"), "{message}");
                    assert!(message.contains("shard"), "names the session: {message}");
                }
                other => panic!("expected Response::Error, got {other:?}"),
            },
            Ok(_) => panic!("a panicking shard must not produce an answer"),
        }
    }

    #[test]
    fn fan_out_typed_dgs_errors_win_over_panics_only_when_first() {
        let engines = shard_engines(2);
        let result: Result<Vec<u32>, Box<Response>> = fan_out(&engines, |_| {
            Err(DgsError::Unsupported {
                algorithm: "injected",
                reason: "test".into(),
            })
        });
        match result {
            Err(resp) => match *resp {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::Unsupported),
                other => panic!("expected Response::Error, got {other:?}"),
            },
            Ok(_) => panic!("shard errors must propagate"),
        }
    }

    #[test]
    fn fan_out_collects_per_shard_values_in_engine_order() {
        let engines = shard_engines(3);
        let idx = std::sync::atomic::AtomicUsize::new(0);
        let got: Vec<usize> =
            fan_out(&engines, |_| Ok(idx.fetch_add(1, Ordering::SeqCst))).unwrap();
        assert_eq!(got.len(), 3);
    }
}
