//! `dgsq` — command-line front end for distributed graph simulation.
//!
//! ```text
//! dgsq generate --family web|citation|tree|community|rmat --nodes N [--edges M] [--labels L] [--seed S]
//!               (--out FILE | --remote ADDR [--sites K] [--partition P])
//! dgsq query    --graph FILE --pattern FILE[,FILE...] [--algorithm auto|NAME] [--sites K]
//!               [--partition hash|bfs|ldg|tree] [--executor virtual|threaded]
//!               [--seed S] [--boolean] [--matches]
//!               [--cache N] [--compress simeq|bisim] [--compress-threshold X]
//!               [--parallel W] [--repeat R] [--updates OPS.txt]
//! dgsq query    --remote ADDR --pattern FILE[,FILE...] [--algorithm NAME] [--boolean]
//!               [--matches] [--repeat R] [--updates OPS.txt]
//! dgsq convert  --in FILE --out FILE --format text|binary
//! dgsq compress --graph FILE [--method simeq|bisim] [--out FILE]   (or --remote ADDR)
//! dgsq stats    --graph FILE                                       (or --remote ADDR)
//! dgsq session  --remote ADDR [--create NAME --graph FILE [--sites K] ...| --drop NAME]
//! dgsq subscribe PATTERN --remote ADDR [--session NAME] [--count N] [--algorithm NAME]
//! dgsq shutdown --remote ADDR
//! dgsq worker   [--listen HOST:PORT]
//! ```
//!
//! Unknown or misspelled `--flags` are rejected against a
//! per-subcommand allowlist (exit status 2, offending flag named) —
//! they used to be collected and silently ignored.
//!
//! **Remote mode**: `--remote ADDR` (`tcp:host:port`, bare
//! `host:port`, or `unix:/path.sock`) points any subcommand at a
//! running `dgsd` daemon instead of doing the work in-process:
//! `query` sends patterns (and `--updates` batches) to the daemon's
//! shared session, `generate` loads the generated graph into the
//! daemon as a fresh session, `compress` reports the daemon session's
//! compressed leg, `stats` prints the served graph/fragmentation
//! summary, and `shutdown` stops the daemon.
//!
//! **Sessions**: a daemon hosts named sessions. `dgsq session` lists,
//! creates (`--create NAME --graph FILE`, with the same
//! sites/partition/cache/compress options as `generate --remote`) and
//! drops them; `--session NAME` on `query`/`stats`/`compress` routes
//! the connection at that session instead of `"default"`, and on
//! `generate --remote` loads the generated graph **as** that named
//! session (creating or replacing it).
//!
//! Graphs and patterns load in either the line-oriented text format
//! of `dgs_graph::io` or its binary twin (magic `DGSB`); `dgsq
//! convert` translates between the two. Binary is the format `dgsd`
//! cold-loads big graphs from.
//!
//! **Socket executor**: `--executor socket` runs the query's dGPM
//! protocol across real OS processes. By default `dgsq` spawns
//! `--workers N` copies of itself in `dgsq worker` mode (each hosting
//! `sites/N` sites) and tears them down afterwards; `--attach
//! HOST:PORT,...` connects to already-running workers (`dgsd --worker`)
//! instead. Message and visit metrics flow back over the wire into
//! the same report shape as the in-process executors.
//!
//! **Live subscriptions**: `dgsq subscribe PATTERN --remote
//! ADDR` registers the pattern with the daemon and prints the initial
//! match snapshot, then streams `MATCH_DIFF` pushes — the
//! `(query node, data node)` pairs that entered or left the match set
//! as other connections apply deltas — until `--count N` diffs have
//! arrived (then it unsubscribes cleanly) or the server ends the
//! stream with a typed event (overflow, session dropped, draining).
//! The pattern file is positional, but `--pattern FILE` works too.
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

use dgs::core::{Algorithm, GraphDelta, SimEngine};
use dgs::graph::{io, Graph, NodeId, Pattern};
use dgs::net::{ExecutorKind, SocketConfig};
use dgs::serve::{DgsClient, ServeAddr, SessionOptions, WireAlgorithm, SIMEQ_MAX_NODES};
use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::process::exit;

fn fail(msg: &str) -> ! {
    eprintln!("dgsq: {msg}");
    exit(2);
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         dgsq generate --family web|citation|tree|community|rmat --nodes N [--edges M] [--labels L] [--seed S]\n           \
         (--out FILE | --remote ADDR [--sites K] [--partition P])\n  \
         dgsq query --graph FILE --pattern FILE[,FILE...] [--algorithm auto|dgpm|dgpm-nopt|dgpms|dgpmd|dgpmt|match|dishhk|dmes]\n             \
         [--sites K] [--partition hash|bfs|ldg|tree] [--executor virtual|threaded|socket] [--seed S] [--boolean] [--matches]\n             [--workers N | --attach HOST:PORT,...]\n             \
         [--cache N] [--compress simeq|bisim] [--compress-threshold X] [--parallel W] [--repeat R] [--updates OPS.txt]\n  \
         dgsq query --remote ADDR --pattern FILE[,FILE...] [--algorithm NAME] [--boolean] [--matches] [--repeat R] [--updates OPS.txt]\n  \
         dgsq convert --in FILE --out FILE --format text|binary\n  \
         dgsq compress --graph FILE [--method simeq|bisim] [--out FILE]  |  dgsq compress --remote ADDR\n  \
         dgsq stats --graph FILE  |  dgsq stats --remote ADDR [--metrics]\n  \
         dgsq trace --remote ADDR   (dump the daemon's slow-query log)\n  \
         dgsq session --remote ADDR [--create NAME --graph FILE [--sites K] [--partition P] ... | --drop NAME]\n  \
         dgsq subscribe PATTERN --remote ADDR [--session NAME] [--count N] [--algorithm NAME]\n  \
         dgsq shutdown --remote ADDR\n  \
         dgsq worker [--listen HOST:PORT]   (socket-executor worker process)"
    );
    exit(2);
}

/// The flags each subcommand accepts. Anything else is a hard error —
/// a misspelled flag must never be silently ignored.
fn allowed_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "generate" => &[
            "family",
            "nodes",
            "edges",
            "labels",
            "seed",
            "out",
            "remote",
            "sites",
            "partition",
            "cache",
            "compress",
            "compress-threshold",
            "session",
        ],
        "query" => &[
            "graph",
            "pattern",
            "algorithm",
            "sites",
            "partition",
            "executor",
            "seed",
            "boolean",
            "matches",
            "cache",
            "compress",
            "compress-threshold",
            "parallel",
            "repeat",
            "updates",
            "remote",
            "workers",
            "attach",
            "session",
        ],
        "convert" => &["in", "out", "format"],
        "worker" => &["listen"],
        "compress" => &["graph", "method", "out", "remote", "session"],
        "stats" => &["graph", "remote", "session", "metrics"],
        "trace" => &["remote"],
        "session" => &[
            "remote",
            "create",
            "drop",
            "graph",
            "sites",
            "partition",
            "seed",
            "cache",
            "compress",
            "compress-threshold",
        ],
        "subscribe" => &["remote", "pattern", "session", "count", "algorithm"],
        "shutdown" => &["remote"],
        _ => &[],
    }
}

/// Parses `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .unwrap_or_else(|| fail(&format!("expected a --flag, got '{}'", args[i])));
        // Boolean flags take no value.
        if matches!(key, "boolean" | "matches" | "metrics") {
            flags.insert(key.to_owned(), "true".to_owned());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| fail(&format!("--{key} requires a value")));
        flags.insert(key.to_owned(), value.clone());
        i += 2;
    }
    flags
}

/// Rejects flags outside the subcommand's allowlist, naming the
/// offender (and the nearest valid spelling when one is close).
fn validate_flags(cmd: &str, flags: &HashMap<String, String>) {
    let allowed = allowed_flags(cmd);
    for key in flags.keys() {
        if !allowed.contains(&key.as_str()) {
            let hint = allowed
                .iter()
                .filter(|a| edit_distance(key, a) <= 2)
                .min_by_key(|a| edit_distance(key, a))
                .map(|a| format!(" (did you mean --{a}?)"))
                .unwrap_or_default();
            fail(&format!(
                "unknown flag --{key} for '{cmd}'{hint}; allowed: {}",
                allowed
                    .iter()
                    .map(|f| format!("--{f}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
    }
}

/// Plain Levenshtein distance, small inputs only (flag names).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Option<&'a str> {
    flags.get(key).map(String::as_str)
}

fn num<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(&format!("--{key}: cannot parse '{v}'"))),
    }
}

fn load_graph(path: &str) -> Graph {
    let f = File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    io::read_graph_auto(BufReader::new(f)).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

fn load_pattern(path: &str) -> Pattern {
    let f = File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    io::read_pattern_auto(BufReader::new(f)).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

fn connect(flags: &HashMap<String, String>) -> DgsClient {
    let addr = get(flags, "remote").expect("caller checked --remote");
    let addr =
        ServeAddr::parse(addr).unwrap_or_else(|| fail(&format!("unparseable --remote '{addr}'")));
    DgsClient::connect(&addr).unwrap_or_else(|e| fail(&format!("cannot reach {addr}: {e}")))
}

/// Connects and, with `--session NAME`, routes the connection at that
/// named daemon session (a missing session fails typed, here).
fn connect_routed(flags: &HashMap<String, String>) -> DgsClient {
    let mut client = connect(flags);
    if let Some(name) = get(flags, "session") {
        client
            .session_route(&[name])
            .unwrap_or_else(|e| fail(&e.to_string()));
    }
    client
}

/// Rejects `--session` on a local invocation (it names a daemon
/// session, so it only means something with `--remote`).
fn reject_session_without_remote(flags: &HashMap<String, String>) {
    if flags.contains_key("session") {
        fail("--session only applies with --remote (it names a daemon session)");
    }
}

/// The session-build options shared by `query`, `generate --remote`
/// and `session --create`.
fn session_options(flags: &HashMap<String, String>) -> SessionOptions {
    SessionOptions::from_flags(flags).unwrap_or_else(|e| fail(&e))
}

/// Rejects session-building flags that have no effect against a
/// daemon (its session was configured at `dgsd` startup).
fn reject_local_only(flags: &HashMap<String, String>, local_only: &[&str]) {
    for key in local_only {
        if flags.contains_key(*key) {
            fail(&format!(
                "--{key} has no effect with --remote: the daemon's session was \
                 configured when dgsd started"
            ));
        }
    }
}

fn wire_algorithm(flags: &HashMap<String, String>) -> WireAlgorithm {
    let name = get(flags, "algorithm").unwrap_or("auto");
    WireAlgorithm::parse(name).unwrap_or_else(|| fail(&format!("unknown algorithm '{name}'")))
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

/// Replays update batches against the session, re-running the query
/// stream after each batch so the maintenance behaviour is visible.
fn replay_updates(engine: &SimEngine, algo: &Algorithm, qs: &[Pattern], path: &str) {
    let batches = load_updates(path);
    if batches.is_empty() {
        fail(&format!("{path}: no update ops found"));
    }
    for (i, delta) in batches.iter().enumerate() {
        let report = engine
            .apply_delta(delta)
            .unwrap_or_else(|e| fail(&e.to_string()));
        println!(
            "delta[{i}]: +{} -{} edges ({} ignored)  crossing +{}/-{}  virtuals +{}/-{}  gen {}",
            report.inserted,
            report.deleted,
            report.ignored,
            report.crossing_inserted,
            report.crossing_deleted,
            report.virtuals_created,
            report.virtuals_retired,
            report.generation
        );
        if report.maintained_entries > 0 {
            println!(
                "  maintained {} cached entr{} incrementally: revoked {} resurrected {} \
                 affected {} pairs, {} data msgs ({} B) of maintenance traffic",
                report.maintained_entries,
                if report.maintained_entries == 1 {
                    "y"
                } else {
                    "ies"
                },
                report.revoked_pairs,
                report.resurrected_pairs,
                report.affected_pairs(),
                report.metrics.data_messages,
                report.metrics.data_bytes
            );
        }
        let batch = engine.query_batch_with(algo, qs);
        println!(
            "  re-query: {}/{} answered  PT = {:.3} ms  DS = {:.3} KB  ({} cache hits)",
            batch.succeeded(),
            qs.len(),
            batch.total.virtual_time_ms(),
            batch.total.data_kb(),
            batch.total.cache_hits
        );
        for (qi, r) in batch.reports.iter().enumerate() {
            if let Ok(r) = r {
                if let Some(note) = &r.plan.incremental {
                    println!(
                        "    [{qi}] served from the delta-maintained entry \
                         ({} deletions over {} runs, |Q(G)| = {} pairs)",
                        note.deletions_absorbed,
                        note.maintenance_runs,
                        r.answer().len()
                    );
                }
            }
        }
    }
    if let Some(stats) = engine.cache_stats() {
        println!(
            "cache after updates: {} entries, generation {}  ({} hits, {} misses, {} evictions)",
            stats.entries, stats.generation, stats.hits, stats.misses, stats.evictions
        );
    }
}

/// The remote twin of [`replay_updates`]: ships each batch as an
/// `APPLY_DELTA` frame and re-runs the query stream over the wire.
fn replay_updates_remote(client: &mut DgsClient, algo: WireAlgorithm, qs: &[Pattern], path: &str) {
    let batches = load_updates(path);
    if batches.is_empty() {
        fail(&format!("{path}: no update ops found"));
    }
    for (i, delta) in batches.iter().enumerate() {
        let report = client
            .apply_delta(delta)
            .unwrap_or_else(|e| fail(&e.to_string()));
        println!(
            "delta[{i}]: +{} -{} edges ({} ignored)  crossing +{}/-{}  virtuals +{}/-{}  gen {}",
            report.inserted,
            report.deleted,
            report.ignored,
            report.crossing_inserted,
            report.crossing_deleted,
            report.virtuals_created,
            report.virtuals_retired,
            report.generation
        );
        if report.maintained_entries > 0 {
            println!(
                "  maintained {} cached entries incrementally: revoked {} resurrected {} pairs",
                report.maintained_entries, report.revoked_pairs, report.resurrected_pairs
            );
        }
        let (items, total) = client
            .query_batch(qs, algo)
            .unwrap_or_else(|e| fail(&e.to_string()));
        let ok = items.iter().filter(|r| r.is_ok()).count();
        println!(
            "  re-query: {ok}/{} answered  PT = {:.3} ms  DS = {:.3} KB  ({} cache hits)",
            qs.len(),
            total.virtual_time_ms(),
            total.data_kb(),
            total.cache_hits
        );
    }
    if let Ok(Some(stats)) = client.cache_stats() {
        println!(
            "cache after updates: {} entries, generation {}  ({} hits, {} misses, {} evictions)",
            stats.entries, stats.generation, stats.hits, stats.misses, stats.evictions
        );
    }
}

fn cmd_generate(flags: &HashMap<String, String>) {
    use dgs::graph::generate::{dag, random, tree};
    let family = get(flags, "family").unwrap_or_else(|| fail("--family required"));
    let n: usize = num(flags, "nodes", 10_000);
    let m: usize = num(flags, "edges", 5 * n);
    let labels: usize = num(flags, "labels", 15);
    let seed: u64 = num(flags, "seed", 1);
    let out = get(flags, "out");
    let remote = get(flags, "remote");
    if out.is_none() && remote.is_none() {
        fail("--out FILE or --remote ADDR required");
    }
    if remote.is_none() {
        for key in [
            "sites",
            "partition",
            "cache",
            "compress",
            "compress-threshold",
            "session",
        ] {
            if flags.contains_key(key) {
                fail(&format!(
                    "--{key} only applies with --remote (it configures the daemon's new session)"
                ));
            }
        }
    }
    let g = match family {
        "web" => random::web_like(n, m, labels, seed),
        "citation" => dag::citation_like(n, m, labels, seed),
        "tree" => tree::random_tree(n, labels, seed),
        "community" => random::community(n, m, 8, 0.05, labels, seed),
        "rmat" => {
            let scale = (n.max(2) as f64).log2().ceil() as u32;
            dgs::graph::generate::rmat::rmat(
                scale,
                m,
                labels,
                dgs::graph::generate::rmat::RmatParams::graph500(),
                seed,
            )
        }
        other => fail(&format!("unknown family '{other}'")),
    };
    if let Some(out) = out {
        let f = File::create(out).unwrap_or_else(|e| fail(&format!("cannot create {out}: {e}")));
        let w = std::io::BufWriter::new(f);
        let res = if out.ends_with(".bin") {
            io::write_graph_binary(&g, w)
        } else {
            io::write_graph(&g, w)
        };
        res.unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
        println!(
            "wrote {family} graph: {} nodes, {} edges -> {out}",
            g.node_count(),
            g.edge_count()
        );
    }
    if remote.is_some() {
        let mut client = connect(flags);
        let options = session_options(flags);
        if let Some(name) = get(flags, "session") {
            // Load as (create or replace) a named session instead of
            // swapping the daemon's default one.
            let info = client
                .session_create(name, &g, &options)
                .unwrap_or_else(|e| fail(&e.to_string()));
            println!(
                "loaded {family} graph into daemon session '{}': {} nodes, {} edges over {} sites",
                info.name, info.nodes, info.edges, info.sites
            );
        } else {
            let (nodes, edges, sites) = client
                .load_graph(&g, &options)
                .unwrap_or_else(|e| fail(&e.to_string()));
            println!(
                "loaded {family} graph into daemon: {nodes} nodes, {edges} edges over {sites} sites"
            );
        }
    }
}

/// `query --remote`: the whole stream — single queries, batches,
/// `--repeat` passes and `--updates` replays — served by the daemon.
fn cmd_query_remote(flags: &HashMap<String, String>, qs: &[Pattern]) {
    reject_local_only(
        flags,
        &[
            "graph",
            "sites",
            "partition",
            "executor",
            "seed",
            "cache",
            "compress",
            "compress-threshold",
            "parallel",
        ],
    );
    let algo = wire_algorithm(flags);
    let mut client = connect_routed(flags);
    let info = client.graph_info().unwrap_or_else(|e| fail(&e.to_string()));
    println!(
        "remote graph |V|={} |E|={}  fragmentation |F|={} |Vf|={} |Ef|={}  queries: {}",
        info.nodes,
        info.edges,
        info.sites,
        info.vf,
        info.ef,
        qs.iter()
            .map(|q| format!("({},{})", q.node_count(), q.edge_count()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let repeat: usize = num(flags, "repeat", 1);
    if flags.contains_key("boolean") && flags.contains_key("updates") {
        fail("--updates needs data-selecting queries (drop --boolean)");
    }
    if flags.contains_key("boolean") {
        let q = match qs {
            [q] => q,
            _ => fail("--boolean takes a single pattern"),
        };
        let a = client
            .query_boolean(q, algo)
            .unwrap_or_else(|e| fail(&e.to_string()));
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
    if qs.len() == 1 && repeat == 1 {
        let a = client
            .query(&qs[0], algo)
            .unwrap_or_else(|e| fail(&e.to_string()));
        println!("plan: {}", a.plan);
        println!(
            "{}: match = {}  |Q(G)| = {} pairs   PT = {:.3} ms  DS = {:.3} KB  ({} data msgs)",
            a.algorithm,
            a.is_match,
            a.answer_pairs(),
            a.metrics.virtual_time_ms(),
            a.metrics.data_kb(),
            a.metrics.data_messages
        );
        if flags.contains_key("matches") {
            let rel = a.relation();
            for u in qs[0].nodes() {
                let matches = if a.is_match { rel.matches_of(u) } else { &[] };
                let shown: Vec<String> = matches.iter().take(20).map(|v| v.to_string()).collect();
                let ellipsis = if matches.len() > 20 { ", ..." } else { "" };
                println!(
                    "  u{u}: {} matches [{}{}]",
                    matches.len(),
                    shown.join(", "),
                    ellipsis
                );
            }
        }
        if let Some(path) = get(flags, "updates") {
            replay_updates_remote(&mut client, algo, qs, path);
        }
        return;
    }
    for pass in 0..repeat {
        let (items, total) = client
            .query_batch(qs, algo)
            .unwrap_or_else(|e| fail(&e.to_string()));
        if pass == 0 {
            for (i, r) in items.iter().enumerate() {
                match r {
                    Ok(a) => println!(
                        "  [{i}] {}: match = {}  |Q(G)| = {} pairs  ({} data msgs)",
                        a.algorithm,
                        a.is_match,
                        a.answer_pairs(),
                        a.metrics.data_messages
                    ),
                    Err((_, e)) => println!("  [{i}] error: {e}"),
                }
            }
        }
        let ok = items.iter().filter(|r| r.is_ok()).count();
        println!(
            "pass {}: {ok}/{} answered  PT = {:.3} ms  DS = {:.3} KB  ({} control msgs, {} cache hits)",
            pass + 1,
            qs.len(),
            total.virtual_time_ms(),
            total.data_kb(),
            total.control_messages,
            total.cache_hits
        );
    }
    if let Ok(Some(stats)) = client.cache_stats() {
        println!(
            "cache: {} entries / capacity {}  {} hits, {} misses, {} evictions",
            stats.entries, stats.capacity, stats.hits, stats.misses, stats.evictions
        );
    }
    if let Some(path) = get(flags, "updates") {
        replay_updates_remote(&mut client, algo, qs, path);
    }
}

fn cmd_query(flags: &HashMap<String, String>) {
    let pattern_arg = get(flags, "pattern").unwrap_or_else(|| fail("--pattern required"));
    let qs: Vec<Pattern> = pattern_arg.split(',').map(load_pattern).collect();
    if flags.contains_key("remote") {
        cmd_query_remote(flags, &qs);
        return;
    }
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
    // Load the fragmented graph into a session once; queries reuse the
    // cached structural facts (and, with --compress, the quotient Gc).
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
        "graph |V|={} |E|={}  fragmentation |F|={k} |Vf|={} |Ef|={}  queries: {}",
        g.node_count(),
        g.edge_count(),
        frag.vf(),
        frag.ef(),
        qs.iter()
            .map(|q| format!("({},{})", q.node_count(), q.edge_count()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if let Some(note) = engine.compression_note() {
        println!(
            "compression: Gc has {} classes via {} (ratio {:.3}, {})",
            note.classes,
            note.method,
            note.ratio,
            if engine.compression_active() {
                "active — Auto answers on Gc"
            } else {
                "above threshold — answering on G"
            }
        );
    }

    let repeat: usize = num(flags, "repeat", 1);
    if flags.contains_key("boolean") && flags.contains_key("updates") {
        fail("--updates needs data-selecting queries (drop --boolean)");
    }
    if flags.contains_key("boolean") {
        let q = match qs.as_slice() {
            [q] => q,
            _ => fail("--boolean takes a single pattern"),
        };
        let report = engine
            .query_boolean_with(&algo, q)
            .unwrap_or_else(|e| fail(&e.to_string()));
        println!("plan: {}", report.plan);
        println!(
            "{}: match = {}   PT = {:.3} ms  DS = {:.3} KB",
            report.algorithm,
            report.is_match,
            report.metrics.virtual_time_ms(),
            report.metrics.data_kb()
        );
        return;
    }

    if qs.len() == 1 && repeat == 1 {
        let q = &qs[0];
        let report = engine
            .query_with(&algo, q)
            .unwrap_or_else(|e| fail(&e.to_string()));
        println!("plan: {}", report.plan);
        println!(
            "{}: match = {}  |Q(G)| = {} pairs   PT = {:.3} ms  DS = {:.3} KB  ({} data msgs, {} ops)",
            report.algorithm,
            report.is_match,
            report.answer().len(),
            report.metrics.virtual_time_ms(),
            report.metrics.data_kb(),
            report.metrics.data_messages,
            report.metrics.total_ops
        );
        if flags.contains_key("matches") {
            for u in q.nodes() {
                let matches = report.answer().matches_of(u);
                let shown: Vec<String> = matches.iter().take(20).map(|v| v.to_string()).collect();
                let ellipsis = if matches.len() > 20 { ", ..." } else { "" };
                println!(
                    "  u{u}: {} matches [{}{}]",
                    matches.len(),
                    shown.join(", "),
                    ellipsis
                );
            }
        }
        if let Some(path) = get(flags, "updates") {
            replay_updates(&engine, &algo, &qs, path);
        }
        return;
    }

    // Stream mode: the batch (possibly re-submitted --repeat times)
    // runs through the worker pool and the pattern-result cache.
    for pass in 0..repeat {
        let batch = engine.query_batch_with(&algo, &qs);
        if pass == 0 {
            for (i, r) in batch.reports.iter().enumerate() {
                match r {
                    Ok(r) => println!(
                        "  [{i}] {}: match = {}  |Q(G)| = {} pairs  ({} data msgs)",
                        r.algorithm,
                        r.is_match,
                        r.answer().len(),
                        r.metrics.data_messages
                    ),
                    Err(e) => println!("  [{i}] error: {e}"),
                }
            }
        }
        println!(
            "pass {}: {}/{} answered  PT = {:.3} ms  DS = {:.3} KB  ({} control msgs, {} cache hits)",
            pass + 1,
            batch.succeeded(),
            qs.len(),
            batch.total.virtual_time_ms(),
            batch.total.data_kb(),
            batch.total.control_messages,
            batch.total.cache_hits
        );
    }
    if let Some(stats) = engine.cache_stats() {
        println!(
            "cache: {} entries / capacity {}  {} hits, {} misses, {} evictions",
            stats.entries, stats.capacity, stats.hits, stats.misses, stats.evictions
        );
    }
    if let Some(path) = get(flags, "updates") {
        replay_updates(&engine, &algo, &qs, path);
    }
}

/// `dgsq convert`: translate a graph or pattern file between the text
/// and binary formats (the object kind is sniffed from the input).
fn cmd_convert(flags: &HashMap<String, String>) {
    let input = get(flags, "in").unwrap_or_else(|| fail("--in required"));
    let output = get(flags, "out").unwrap_or_else(|| fail("--out required"));
    let format = get(flags, "format").unwrap_or_else(|| fail("--format text|binary required"));
    if format != "text" && format != "binary" {
        fail(&format!("unknown format '{format}' (text|binary)"));
    }
    let bytes = std::fs::read(input).unwrap_or_else(|e| fail(&format!("cannot open {input}: {e}")));
    // Sniff the object kind: binary files carry it in the header, text
    // files in the first non-comment line.
    let is_pattern = if io::looks_binary(&bytes) {
        bytes.get(5) == Some(&b'Q')
    } else {
        String::from_utf8_lossy(&bytes)
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with('#'))
            .is_some_and(|l| l.starts_with("pattern"))
    };
    let f = File::create(output).unwrap_or_else(|e| fail(&format!("cannot create {output}: {e}")));
    let w = std::io::BufWriter::new(f);
    let (kind, nodes, edges) = if is_pattern {
        let q =
            io::read_pattern_auto(&bytes[..]).unwrap_or_else(|e| fail(&format!("{input}: {e}")));
        let res = if format == "binary" {
            io::write_pattern_binary(&q, w)
        } else {
            io::write_pattern(&q, w)
        };
        res.unwrap_or_else(|e| fail(&format!("write {output}: {e}")));
        ("pattern", q.node_count(), q.edge_count())
    } else {
        let g = io::read_graph_auto(&bytes[..]).unwrap_or_else(|e| fail(&format!("{input}: {e}")));
        let res = if format == "binary" {
            io::write_graph_binary(&g, w)
        } else {
            io::write_graph(&g, w)
        };
        res.unwrap_or_else(|e| fail(&format!("write {output}: {e}")));
        ("graph", g.node_count(), g.edge_count())
    };
    println!("converted {kind} ({nodes} nodes, {edges} edges): {input} -> {output} [{format}]");
}

fn cmd_compress(flags: &HashMap<String, String>) {
    use dgs::sim::{compress_bisim, compress_simeq};
    if flags.contains_key("remote") {
        reject_local_only(flags, &["graph", "method", "out"]);
        let mut client = connect_routed(flags);
        match client
            .compression_info()
            .unwrap_or_else(|e| fail(&e.to_string()))
        {
            None => println!("daemon session was built without compression"),
            Some(c) => println!(
                "daemon session: Gc has {} classes via {} (ratio {:.3}, {})",
                c.classes,
                c.method,
                c.ratio,
                if c.active {
                    "active — Auto answers on Gc"
                } else {
                    "above threshold — answering on G"
                }
            ),
        }
        return;
    }
    reject_session_without_remote(flags);
    let path = get(flags, "graph").unwrap_or_else(|| fail("--graph required"));
    let g = load_graph(path);
    let method = get(flags, "method").unwrap_or("bisim");
    let c = match method {
        "simeq" => {
            if g.node_count() > SIMEQ_MAX_NODES {
                fail("simeq compression holds an O(|V|^2) table; use --method bisim for graphs this large");
            }
            compress_simeq(&g)
        }
        "bisim" => compress_bisim(&g),
        other => fail(&format!("unknown method '{other}'")),
    };
    println!(
        "{method}: |G| = {} -> |Gc| = {} ({:.1}% of original; {} classes)",
        g.size(),
        c.graph.size(),
        100.0 * c.ratio(g.size()),
        c.class_count()
    );
    if let Some(out) = get(flags, "out") {
        let f = File::create(out).unwrap_or_else(|e| fail(&format!("cannot create {out}: {e}")));
        io::write_graph(&c.graph, std::io::BufWriter::new(f))
            .unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
        println!("wrote quotient graph -> {out}");
    }
}

fn cmd_stats(flags: &HashMap<String, String>) {
    use dgs::graph::GraphStats;
    if flags.contains_key("remote") {
        reject_local_only(flags, &["graph"]);
        let mut client = connect_routed(flags);
        if flags.contains_key("metrics") {
            let snap = client.metrics().unwrap_or_else(|e| fail(&e.to_string()));
            println!("server metrics (snapshot v{}):", snap.version);
            for (name, v) in &snap.counters {
                println!("  {name} = {v}");
            }
            for (name, v) in &snap.gauges {
                println!("  {name} = {v}");
            }
            for h in &snap.histograms {
                println!(
                    "  {}: count {}  min {}  p50 {}  p95 {}  p99 {}  max {}",
                    h.name, h.count, h.min, h.p50, h.p95, h.p99, h.max
                );
            }
            if snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty() {
                println!("  (empty — the daemon runs with --metrics off)");
            }
            return;
        }
        let info = client.graph_info().unwrap_or_else(|e| fail(&e.to_string()));
        println!(
            "remote session: |V| = {}, |E| = {}, {} labels, generation {}",
            info.nodes, info.edges, info.label_bound, info.generation
        );
        println!(
            "fragmentation: |F| = {}, |Vf| = {}, |Ef| = {}",
            info.sites, info.vf, info.ef
        );
        match client.cache_stats() {
            Ok(Some(s)) => println!(
                "cache: {} entries / capacity {}  {} hits, {} misses, {} evictions",
                s.entries, s.capacity, s.hits, s.misses, s.evictions
            ),
            Ok(None) => println!("cache: disabled"),
            Err(e) => fail(&e.to_string()),
        }
        return;
    }
    if flags.contains_key("metrics") {
        fail("--metrics needs --remote ADDR (metrics live in the daemon)");
    }
    reject_session_without_remote(flags);
    let path = get(flags, "graph").unwrap_or_else(|| fail("--graph required"));
    let g = load_graph(path);
    println!("graph {path}");
    println!("{}", GraphStats::compute(&g));
    println!(
        "top-1% hubs carry {:.1}% of edges",
        100.0 * GraphStats::top1pct_edge_share(&g)
    );
}

/// `dgsq trace`: dump the daemon's slow-query ring, newest first,
/// with the plan explanation and per-site work attached to each
/// entry.
fn cmd_trace(flags: &HashMap<String, String>) {
    if !flags.contains_key("remote") {
        fail("--remote ADDR required");
    }
    let mut client = connect(flags);
    let traces = client.trace().unwrap_or_else(|e| fail(&e.to_string()));
    if traces.is_empty() {
        println!("slow-query log is empty (is the daemon running with --slow-ms?)");
        return;
    }
    println!("{} slow request(s), newest first:", traces.len());
    for t in &traces {
        println!(
            "conn {} request {} frame 0x{:02x}  session '{}'  generation {}",
            t.conn_id, t.request_id, t.ty, t.session, t.generation
        );
        println!(
            "  total {:.3} ms = queue {:.3} + exec {:.3} + encode {:.3}",
            t.total_ns as f64 / 1e6,
            t.queue_ns as f64 / 1e6,
            t.exec_ns as f64 / 1e6,
            t.encode_ns as f64 / 1e6
        );
        if !t.algorithm.is_empty() {
            println!("  algorithm {}", t.algorithm);
        }
        if !t.plan.is_empty() {
            println!("  plan: {}", t.plan);
        }
        if !t.site_ops.is_empty() {
            let ops: Vec<String> = t.site_ops.iter().map(u64::to_string).collect();
            let msgs: Vec<String> = t.site_msgs.iter().map(u64::to_string).collect();
            println!(
                "  site ops [{}]  site msgs [{}]",
                ops.join(", "),
                msgs.join(", ")
            );
        }
    }
}

/// `dgsq session`: manage a daemon's named sessions. With no action
/// flag the hosted sessions are listed; `--create NAME --graph FILE`
/// builds and hosts (or replaces) one with the `generate --remote`
/// option set; `--drop NAME` removes one.
fn cmd_session(flags: &HashMap<String, String>) {
    if !flags.contains_key("remote") {
        fail("--remote ADDR required");
    }
    if flags.contains_key("create") && flags.contains_key("drop") {
        fail("--create and --drop are mutually exclusive");
    }
    let mut client = connect(flags);
    if let Some(name) = get(flags, "drop") {
        client
            .session_drop(name)
            .unwrap_or_else(|e| fail(&e.to_string()));
        println!("dropped session '{name}'");
        return;
    }
    if let Some(name) = get(flags, "create") {
        let path =
            get(flags, "graph").unwrap_or_else(|| fail("--graph FILE required with --create"));
        let g = load_graph(path);
        let options = session_options(flags);
        let info = client
            .session_create(name, &g, &options)
            .unwrap_or_else(|e| fail(&e.to_string()));
        println!(
            "created session '{}': |V| = {}, |E| = {} over {} sites (generation {})",
            info.name, info.nodes, info.edges, info.sites, info.generation
        );
        return;
    }
    for key in [
        "graph",
        "sites",
        "partition",
        "seed",
        "cache",
        "compress",
        "compress-threshold",
    ] {
        if flags.contains_key(key) {
            fail(&format!("--{key} only applies with --create"));
        }
    }
    let infos = client
        .session_list()
        .unwrap_or_else(|e| fail(&e.to_string()));
    println!("{} session(s) hosted:", infos.len());
    for s in infos {
        println!(
            "  {:<16} |V| = {:<9} |E| = {:<9} sites = {:<3} generation = {}",
            s.name, s.nodes, s.edges, s.sites, s.generation
        );
    }
}

/// `dgsq subscribe`: register a live match subscription and
/// stream diffs to stdout as other connections mutate the graph. The
/// local row mirror is kept current so the running pair count printed
/// with each diff is truthful, not just a delta tally.
fn cmd_subscribe(flags: &HashMap<String, String>) {
    use dgs::serve::SubscriptionEvent;
    if !flags.contains_key("remote") {
        fail("--remote ADDR required (subscriptions live on a dgsd daemon)");
    }
    let path = get(flags, "pattern")
        .unwrap_or_else(|| fail("PATTERN file required (positional or --pattern FILE)"));
    let q = load_pattern(path);
    let count: usize = num(flags, "count", 0);
    let algo = wire_algorithm(flags);
    let mut client = connect_routed(flags);
    let (sub_id, generation, mut rows) = client
        .subscribe(&q, algo)
        .unwrap_or_else(|e| fail(&e.to_string()));
    let pairs: usize = rows.iter().map(Vec::len).sum();
    println!("subscription #{sub_id} at generation {generation}: snapshot has {pairs} (query node, data node) pairs");
    for (u, col) in rows.iter().enumerate() {
        let shown: Vec<String> = col.iter().take(20).map(u32::to_string).collect();
        let ellipsis = if col.len() > 20 { ", ..." } else { "" };
        println!(
            "  u{u}: {} matches [{}{}]",
            col.len(),
            shown.join(", "),
            ellipsis
        );
    }
    let mut diffs = 0usize;
    loop {
        match client.next_event() {
            Ok(SubscriptionEvent::Diff(diff)) => {
                if diff.sub_id != sub_id {
                    continue;
                }
                for &(var, node) in &diff.removed {
                    let col = &mut rows[var as usize];
                    if let Ok(i) = col.binary_search(&node) {
                        col.remove(i);
                    }
                }
                for &(var, node) in &diff.added {
                    let col = &mut rows[var as usize];
                    if let Err(i) = col.binary_search(&node) {
                        col.insert(i, node);
                    }
                }
                let pairs: usize = rows.iter().map(Vec::len).sum();
                println!(
                    "diff @ generation {}: +{} -{} (match set now {pairs} pairs)",
                    diff.generation,
                    diff.added.len(),
                    diff.removed.len()
                );
                let detail = |sign: char, changes: &[(u16, u32)]| {
                    for &(var, node) in changes.iter().take(10) {
                        println!("  {sign} (u{var}, {node})");
                    }
                    if changes.len() > 10 {
                        println!("  {sign} ... {} more", changes.len() - 10);
                    }
                };
                detail('+', &diff.added);
                detail('-', &diff.removed);
                diffs += 1;
                if count != 0 && diffs >= count {
                    client
                        .unsubscribe(sub_id)
                        .unwrap_or_else(|e| fail(&e.to_string()));
                    println!("unsubscribed after {diffs} diff(s)");
                    return;
                }
            }
            Ok(SubscriptionEvent::Event { kind, .. }) => {
                println!("subscription ended by the server: {kind:?}");
                return;
            }
            Err(e) => fail(&e.to_string()),
        }
    }
}

fn cmd_shutdown(flags: &HashMap<String, String>) {
    if !flags.contains_key("remote") {
        fail("--remote ADDR required");
    }
    let client = connect(flags);
    client.shutdown().unwrap_or_else(|e| fail(&e.to_string()));
    println!("daemon acknowledged shutdown");
}

/// `dgsq worker`: one socket-executor worker process. Binds a TCP
/// listener (ephemeral port by default), announces it on stdout —
/// `dgsq --executor socket` parses the "listening on" line — and
/// serves coordinators until one sends a shutdown.
fn cmd_worker(flags: &HashMap<String, String>) {
    let listen = get(flags, "listen").unwrap_or("127.0.0.1:0");
    if let Err(e) = dgs::core::remote::run_worker_cli("dgsq-worker", listen) {
        fail(&format!("worker failed: {e}"));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        usage();
    }
    // Reject an unknown command before flag validation — otherwise a
    // typo'd command reports a misleading "unknown flag ... allowed:"
    // message with an empty allowlist.
    if !matches!(
        cmd.as_str(),
        "generate"
            | "query"
            | "convert"
            | "compress"
            | "stats"
            | "trace"
            | "session"
            | "subscribe"
            | "shutdown"
            | "worker"
    ) {
        fail(&format!("unknown command '{cmd}'"));
    }
    // `subscribe` takes its pattern file positionally (`dgsq subscribe
    // q.pat --remote ...`); fold it into the flag map before the
    // allowlist check so both spellings validate identically.
    let mut rest: Vec<String> = rest.to_vec();
    if cmd == "subscribe" {
        if let Some(first) = rest.first() {
            if !first.starts_with("--") {
                let positional = rest.remove(0);
                rest.insert(0, "--pattern".to_owned());
                rest.insert(1, positional);
            }
        }
    }
    let flags = parse_flags(&rest);
    validate_flags(cmd, &flags);
    match cmd.as_str() {
        "generate" => cmd_generate(&flags),
        "query" => cmd_query(&flags),
        "convert" => cmd_convert(&flags),
        "compress" => cmd_compress(&flags),
        "stats" => cmd_stats(&flags),
        "trace" => cmd_trace(&flags),
        "session" => cmd_session(&flags),
        "subscribe" => cmd_subscribe(&flags),
        "shutdown" => cmd_shutdown(&flags),
        "worker" => cmd_worker(&flags),
        _ => unreachable!("command validated above"),
    }
}
