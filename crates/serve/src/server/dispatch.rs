//! The worker pool: decode a request, run it against the routed
//! session, encode the response and hand it back to the event thread.

use super::{elapsed_ns, frame_name, refresh_gauges, Completion, Shared, SLOW_LOG_CAP};
use crate::error::ErrorCode;
use crate::proto::{
    rows_of, Answer, DeltaSummary, GraphInfo, Request, Response, SessionOptions, WireCacheStats,
    WireMetrics, WireTrace,
};
use crate::session::session_info;
use crate::wire::encode_frame_into;
use dgs_core::{BooleanReport, DgsError, GraphDelta, SimEngine};
use dgs_graph::{Graph, NodeId};
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
fn note_trace(trace: &mut TraceCapture, session: String, report: &BooleanReport) {
    trace.session = session;
    trace.algorithm = report.algorithm.to_owned();
    trace.plan = report.plan.to_string();
    trace.site_ops = report.metrics.site_ops.clone();
    trace.site_msgs = report.metrics.site_msgs.clone();
    trace.generation = report.generation;
}

/// Pulls jobs until the queue closes: decode, execute, encode the
/// response into a pooled frame buffer, hand it back, wake the
/// poller. A panicking request (an engine bug, a pathological pattern)
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

/// The session this connection is routed to, or the typed refusal
/// when it was dropped after routing (boxed: the happy path should not
/// pay for the error variant's size).
fn routed_session(
    shared: &Shared,
    route: &Mutex<String>,
) -> Result<(String, Arc<SimEngine>), Box<Response>> {
    let name = route.lock().clone();
    match shared.sessions.get(&name) {
        Some(engine) => Ok((name, engine)),
        None => Err(Box::new(no_such_session(&name))),
    }
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

/// Runs one request against the routed session. `route` is the
/// connection's shared route cell, the routed session's name; barrier
/// dispatch in the event loop guarantees `SESSION_ROUTE` never
/// executes concurrently with other requests on the same connection.
/// `conn_id` identifies the connection for subscription ownership.
/// `trace` collects plan/per-site details for the slow-query log.
fn execute(
    req: &Request,
    shared: &Shared,
    route: &Mutex<String>,
    conn_id: u64,
    trace: &mut TraceCapture,
) -> Response {
    // A refusal met while routing is as much the answer as `Ok` is.
    try_execute(req, shared, route, conn_id, trace).unwrap_or_else(|refusal| *refusal)
}

fn try_execute(
    req: &Request,
    shared: &Shared,
    route: &Mutex<String>,
    conn_id: u64,
    trace: &mut TraceCapture,
) -> Result<Response, Box<Response>> {
    Ok(match req {
        Request::Ping => Response::Pong,
        Request::GraphInfo => {
            let (_, engine) = routed_session(shared, route)?;
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
            let (name, engine) = routed_session(shared, route)?;
            let algo = algorithm.to_algorithm();
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
            let (name, engine) = routed_session(shared, route)?;
            let batch = engine.query_batch_with(&algorithm.to_algorithm(), patterns);
            trace.session = name;
            trace.generation = batch.generation;
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
            let (name, engine) = routed_session(shared, route)?;
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
            let (_, engine) = routed_session(shared, route)?;
            Response::CacheStats(engine.cache_stats().as_ref().map(WireCacheStats::of_stats))
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
        Request::SessionRoute { name } => {
            // Validated now: a typed error instead of a silently
            // broken connection.
            if shared.sessions.get(name).is_none() {
                return Ok(no_such_session(name));
            }
            name.clone_into(&mut route.lock());
            Response::SessionRouted
        }
        Request::Subscribe { pattern, algorithm } => {
            let (name, engine) = routed_session(shared, route)?;
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
