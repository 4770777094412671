//! `dgsq query`: one query stream — a single query, a Boolean one or a
//! batch passed `--repeat` times, then the `--updates` replay — run on
//! a session built here or, with `--remote`, on a daemon's. Both
//! answer in the wire types of `dgs-serve`, so one printer serves
//! both; what has no wire field (the affected area, the maintenance
//! traffic, the notes on answers served from a maintained entry)
//! prints only for a local session.
//!
//! **Socket executor**: `--executor socket` runs the query's dGPM
//! protocol across real OS processes. By default `dgsq` spawns
//! `--workers N` copies of itself in `dgsq worker` mode (each hosting
//! `sites/N` sites) and tears them down afterwards; `--attach
//! HOST:PORT,...` connects to already-running workers (`dgsd --worker`)
//! instead. Message and visit metrics flow back over the wire into
//! the same report shape as the in-process executors.
//!
//! `--updates OPS.txt` replays a dynamic-graph workload after the
//! initial pass: the file holds `- u v` (delete edge) and `+ u v`
//! (insert edge) lines, `#` comments, and blank lines as **batch
//! separators**. Each batch is absorbed via `SimEngine::apply_delta`
//! (locally or over the wire) — deletions and insertions alike keep
//! the cached answers current through distributed incremental
//! maintenance — and the pattern stream is re-run after every batch
//! so the cache-hit and maintenance accounting (pairs revoked,
//! resurrected, and affected) is visible.

use crate::flags::*;
use dgs::core::{Algorithm, GraphDelta, SimEngine};
use dgs::graph::{NodeId, Pattern};
use dgs::net::{ExecutorKind, SocketConfig};
use dgs::serve::{
    Answer, DeltaSummary, DgsClient, WireAlgorithm, WireCacheStats, WireCompression, WireMetrics,
};

/// Where the stream runs.
enum Target {
    Local(SimEngine, Algorithm),
    Remote(DgsClient, WireAlgorithm),
}

impl Target {
    fn query(&mut self, q: &Pattern, boolean: bool) -> Answer {
        match self {
            Target::Local(engine, algo) if boolean => {
                Answer::of_report(Vec::new(), &or_fail(engine.query_boolean_with(algo, q)))
            }
            Target::Local(engine, algo) => Answer::of_run(&or_fail(engine.query_with(algo, q))),
            Target::Remote(client, algo) if boolean => or_fail(client.query_boolean(q, *algo)),
            Target::Remote(client, algo) => or_fail(client.query(q, *algo)),
        }
    }

    /// A batch's answers and totals, and a note on each answer served
    /// from a delta-maintained entry.
    fn query_batch(
        &mut self,
        qs: &[Pattern],
    ) -> (Vec<Result<Answer, String>>, WireMetrics, Vec<String>) {
        match self {
            Target::Local(engine, algo) => {
                let batch = engine.query_batch_with(algo, qs);
                let mut notes = Vec::new();
                let items = (batch.reports.iter().enumerate()).map(|(qi, r)| {
                    let r = r.as_ref().map_err(ToString::to_string)?;
                    if let Some(note) = &r.plan.incremental {
                        notes.push(format!(
                            "    [{qi}] served from the delta-maintained entry \
                             ({} deletions over {} runs, |Q(G)| = {} pairs)",
                            note.deletions_absorbed,
                            note.maintenance_runs,
                            r.answer().len()
                        ));
                    }
                    Ok(Answer::of_run(r))
                });
                (items.collect(), WireMetrics::of_run(&batch.total), notes)
            }
            Target::Remote(client, algo) => {
                let (items, total) = or_fail(client.query_batch(qs, *algo));
                let items = items.into_iter().map(|r| r.map_err(|(_, e)| e));
                (items.collect(), total, Vec::new())
            }
        }
    }

    /// A batch's summary, and the end of its maintenance line: the
    /// affected area and the traffic, which only a local session knows.
    fn apply_delta(&mut self, delta: &GraphDelta) -> (DeltaSummary, String) {
        match self {
            Target::Local(engine, _) => {
                let r = or_fail(engine.apply_delta(delta));
                let traffic = format!(
                    " affected {} pairs, {} data msgs ({} B) of maintenance traffic",
                    r.affected_pairs(),
                    r.metrics.data_messages,
                    r.metrics.data_bytes
                );
                (DeltaSummary::of_report(&r), traffic)
            }
            Target::Remote(client, _) => (or_fail(client.apply_delta(delta)), " pairs".into()),
        }
    }

    fn cache_stats(&mut self) -> Option<WireCacheStats> {
        match self {
            Target::Local(engine, _) => engine.cache_stats().as_ref().map(WireCacheStats::of_stats),
            Target::Remote(client, _) => client.cache_stats().ok().flatten(),
        }
    }
}

pub fn cmd_query(flags: &Flags) {
    let pattern_arg = get(flags, "pattern").unwrap_or_else(|| fail("--pattern required"));
    let qs: Vec<Pattern> = pattern_arg.split(',').map(load_pattern).collect();
    let shapes: Vec<String> = (qs.iter())
        .map(|q| format!("({},{})", q.node_count(), q.edge_count()))
        .collect();
    let shapes = shapes.join(" ");
    let mut target = if flags.contains_key("remote") {
        remote(flags, &shapes)
    } else {
        local(flags, &shapes)
    };
    let repeat: usize = num(flags, "repeat", 1);
    if flags.contains_key("boolean") {
        reject(
            flags,
            "updates",
            "needs data-selecting queries (drop --boolean)",
        );
        let [q] = qs.as_slice() else {
            fail("--boolean takes a single pattern")
        };
        let a = target.query(q, true);
        println!("plan: {}", a.plan);
        println!(
            "{}: match = {}   PT = {:.3} ms  DS = {:.3} KB",
            a.algorithm,
            a.is_match,
            a.metrics.virtual_time_ms(),
            a.metrics.data_kb()
        );
        return;
    }
    if let ([q], 1) = (qs.as_slice(), repeat) {
        let a = target.query(q, false);
        println!("plan: {}", a.plan);
        println!(
            "{}: match = {}  |Q(G)| = {} pairs   PT = {:.3} ms  DS = {:.3} KB  ({} data msgs, {} ops)",
            a.algorithm,
            a.is_match,
            a.answer_pairs(),
            a.metrics.virtual_time_ms(),
            a.metrics.data_kb(),
            a.metrics.data_messages,
            a.metrics.total_ops
        );
        if flags.contains_key("matches") {
            let rel = a.relation();
            for u in q.nodes() {
                print_matches(u, if a.is_match { rel.matches_of(u) } else { &[] });
            }
        }
    } else {
        // Stream mode: the batch (possibly re-submitted --repeat times)
        // runs through the worker pool and the pattern-result cache.
        for pass in 0..repeat {
            let (items, total, _) = target.query_batch(&qs);
            for (i, r) in items.iter().enumerate().filter(|_| pass == 0) {
                match r {
                    Ok(a) => println!(
                        "  [{i}] {}: match = {}  |Q(G)| = {} pairs  ({} data msgs)",
                        a.algorithm,
                        a.is_match,
                        a.answer_pairs(),
                        a.metrics.data_messages
                    ),
                    Err(e) => println!("  [{i}] error: {e}"),
                }
            }
            println!(
                "pass {}: {}/{} answered  PT = {:.3} ms  DS = {:.3} KB  ({} control msgs, {} cache hits)",
                pass + 1,
                items.iter().filter(|r| r.is_ok()).count(),
                qs.len(),
                total.virtual_time_ms(),
                total.data_kb(),
                total.control_messages,
                total.cache_hits
            );
        }
        if let Some(stats) = target.cache_stats() {
            print_cache(&stats);
        }
    }
    if let Some(path) = get(flags, "updates") {
        replay_updates(&mut target, &qs, path);
    }
}

/// `query --remote`: the daemon's session, which was configured when
/// `dgsd` started.
fn remote(flags: &Flags, shapes: &str) -> Target {
    let local_only =
        "graph sites partition executor seed cache compress compress-threshold parallel";
    reject_local_only(flags, local_only);
    let algo = wire_algorithm(flags);
    let mut client = connect_routed(flags);
    let info = or_fail(client.graph_info());
    println!(
        "remote graph |V|={} |E|={}  fragmentation |F|={} |Vf|={} |Ef|={}  queries: {shapes}",
        info.nodes, info.edges, info.sites, info.vf, info.ef,
    );
    Target::Remote(client, algo)
}

/// A session built here: the fragmented graph is loaded once, and
/// queries reuse the cached structural facts (and, with --compress,
/// the quotient Gc).
fn local(flags: &Flags, shapes: &str) -> Target {
    reject_session_without_remote(flags);
    let g = load_graph(get(flags, "graph").unwrap_or_else(|| fail("--graph required")));
    let algo = wire_algorithm(flags).to_algorithm();
    let executor = get(flags, "executor").unwrap_or("virtual");
    if !matches!(executor, "virtual" | "threaded" | "socket") {
        fail(&format!("unknown executor '{executor}'"));
    }
    if executor != "socket" && (flags.contains_key("workers") || flags.contains_key("attach")) {
        fail("--workers/--attach only apply with --executor socket");
    }
    let options = session_options(flags);
    let k = options.sites;
    let mut builder = options.engine_builder(&g).unwrap_or_else(|e| fail(&e));
    match executor {
        "virtual" => builder = builder.executor(ExecutorKind::Virtual),
        "threaded" => builder = builder.executor(ExecutorKind::Threaded),
        _ => {} // socket: set by build_socket below
    }
    if flags.contains_key("parallel") {
        builder = builder.batch_workers(num(flags, "parallel", 0));
    }
    let engine = if executor == "socket" {
        let cfg = if let Some(attach) = get(flags, "attach") {
            SocketConfig::attach(attach.split(',').map(str::to_owned).collect())
        } else {
            let exe = std::env::current_exe()
                .unwrap_or_else(|e| fail(&format!("cannot locate my own executable: {e}")));
            SocketConfig::spawn_local(exe, vec!["worker".into()], num(flags, "workers", 2))
        };
        let engine = builder
            .build_socket(cfg)
            .unwrap_or_else(|e| fail(&format!("socket cluster bootstrap failed: {e}")));
        let cluster = engine
            .socket_cluster()
            .expect("socket session has a cluster");
        println!(
            "socket executor: {k} sites across {} worker process(es) at {}",
            cluster.num_workers(),
            cluster.worker_addrs().join(", ")
        );
        engine
    } else {
        builder.build()
    };
    let frag = engine.fragmentation();
    println!(
        "graph |V|={} |E|={}  fragmentation |F|={k} |Vf|={} |Ef|={}  queries: {shapes}",
        g.node_count(),
        g.edge_count(),
        frag.vf(),
        frag.ef(),
    );
    if let Some(c) = WireCompression::of_engine(&engine) {
        println!("compression: {}", gc_summary(&c));
    }
    Target::Local(engine, algo)
}

/// Replays update batches against the session, re-running the query
/// stream after each batch so the maintenance behaviour is visible.
fn replay_updates(target: &mut Target, qs: &[Pattern], path: &str) {
    let batches = load_updates(path);
    if batches.is_empty() {
        fail(&format!("{path}: no update ops found"));
    }
    for (i, delta) in batches.iter().enumerate() {
        let (d, traffic) = target.apply_delta(delta);
        println!(
            "delta[{i}]: +{} -{} edges ({} ignored)  crossing +{}/-{}  virtuals +{}/-{}  gen {}",
            d.inserted,
            d.deleted,
            d.ignored,
            d.crossing_inserted,
            d.crossing_deleted,
            d.virtuals_created,
            d.virtuals_retired,
            d.generation
        );
        if d.maintained_entries > 0 {
            let entries = if d.maintained_entries == 1 {
                "entry"
            } else {
                "entries"
            };
            println!(
                "  maintained {} cached {entries} incrementally: revoked {} resurrected {}{traffic}",
                d.maintained_entries, d.revoked_pairs, d.resurrected_pairs
            );
        }
        let (items, total, notes) = target.query_batch(qs);
        println!(
            "  re-query: {}/{} answered  PT = {:.3} ms  DS = {:.3} KB  ({} cache hits)",
            items.iter().filter(|r| r.is_ok()).count(),
            qs.len(),
            total.virtual_time_ms(),
            total.data_kb(),
            total.cache_hits
        );
        for note in notes {
            println!("{note}");
        }
    }
    if let Some(stats) = target.cache_stats() {
        println!(
            "cache after updates: {} entries, generation {}  ({} hits, {} misses, {} evictions)",
            stats.entries, stats.generation, stats.hits, stats.misses, stats.evictions
        );
    }
}

/// Parses an update-ops file: `+ u v` / `- u v` lines, `#` comments,
/// blank lines as batch separators.
fn load_updates(path: &str) -> Vec<GraphDelta> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    let mut batches = Vec::new();
    let mut current = GraphDelta::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.starts_with('#') {
            continue;
        }
        if line.is_empty() {
            if !current.is_empty() {
                batches.push(std::mem::take(&mut current));
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let (op, u, v) = (parts.next(), parts.next(), parts.next());
        let bad = || {
            fail(&format!(
                "{path}:{}: expected '+ u v' or '- u v'",
                lineno + 1
            ))
        };
        let (Some(op), Some(u), Some(v)) = (op, u, v) else {
            bad()
        };
        if parts.next().is_some() {
            // A line with extra tokens describes something this replay
            // cannot faithfully run — reject instead of guessing.
            bad()
        }
        let u = NodeId(u.parse().unwrap_or_else(|_| bad()));
        let v = NodeId(v.parse().unwrap_or_else(|_| bad()));
        match op {
            "+" => current.insert_edges.push((u, v)),
            "-" => current.delete_edges.push((u, v)),
            _ => bad(),
        }
    }
    if !current.is_empty() {
        batches.push(current);
    }
    batches
}
