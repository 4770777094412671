//! `dgsd` — the dgs serving daemon.
//!
//! ```text
//! dgsd --listen ADDR --graph FILE [--sites K] [--partition hash|bfs|ldg|tree]
//!      [--seed S] [--cache N] [--max-conns N]
//!      [--sessions NAME=FILE[,NAME=FILE...]] [--grace MS] [--workers N]
//! ```
//!
//! The daemon runs one event thread multiplexing every connection
//! over nonblocking sockets plus `--workers` request-execution
//! threads (default 0 = derived from the host's parallelism), so
//! `--max-conns` bounds admission, not the thread count.
//!
//! **Worker mode** (`dgsd --worker [--listen HOST:PORT]`) turns the
//! process into a socket-executor worker instead of a serving daemon:
//! it hosts one or more sites of a remote coordinator's runs
//! (`dgsq query --executor socket --attach ...`, or
//! `SimEngineBuilder::build_socket` attaching to its address). The
//! worker announces `listening on <addr>` on stdout once bound and
//! exits when a coordinator sends a shutdown. See the "Site frames"
//! section of `docs/PROTOCOL.md`.
//!
//! `ADDR` is `tcp:host:port`, bare `host:port`, or `unix:/path.sock`.
//! The graph file may be text or binary (`dgsq convert`); binary is
//! the format to cold-load big RMAT graphs from. The session is built
//! once at startup exactly like `SimEngine::builder` in-process —
//! structural facts, pattern-result cache —
//! and then served to every connection as the `"default"` session.
//! `--sessions` hosts additional named sessions (each built from its
//! own graph file with the same sites/partition/cache options);
//! clients pick one with `SESSION_ROUTE` (`dgsq --session NAME`,
//! `dgsload --session NAME`) or create/drop more at runtime. Stop the
//! daemon with `dgsq shutdown --remote ADDR` — in-flight requests
//! drain for up to `--grace` milliseconds (default 5000) before
//! stragglers are cut — or SIGKILL; a stale Unix socket file is
//! reclaimed on the next start.

use dgs_core::SimEngine;
use dgs_graph::io as gio;
use dgs_net::LogLevel;
use dgs_serve::flags::{self, num, Flags};
use dgs_serve::{ServeAddr, Server, ServerConfig, SessionOptions};
use std::fs::File;
use std::io::BufReader;
use std::process::exit;

fn fail(msg: &str) -> ! {
    eprintln!("dgsd: {msg}");
    exit(2);
}

fn or_fail<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| fail(&e))
}

const ALLOWED: &[&str] = &[
    "listen",
    "graph",
    "sites",
    "partition",
    "seed",
    "cache",
    "max-conns",
    "sessions",
    "grace",
    "workers",
    "metrics",
    "metrics-addr",
    "slow-ms",
    "log-level",
];

fn usage() -> ! {
    eprintln!(
        "usage:\n  dgsd --listen tcp:HOST:PORT|unix:/PATH.sock --graph FILE\n       \
         [--sites K] [--partition hash|bfs|ldg|tree] [--seed S]\n       \
         [--cache N] [--max-conns N]\n       \
         [--sessions NAME=FILE[,NAME=FILE...]] [--grace MS] [--workers N]\n       \
         [--metrics on|off] [--metrics-addr tcp:HOST:PORT] [--slow-ms MS]\n       \
         [--log-level error|warn|info|debug]\n  \
         dgsd --worker [--listen HOST:PORT]   (socket-executor worker process)"
    );
    exit(2);
}

/// `dgsd --worker`: host sites of a remote coordinator's runs (the
/// bind/announce/serve loop is shared with `dgsq worker`).
fn run_worker(flags: &Flags) -> ! {
    let listen = flags
        .get("listen")
        .map(String::as_str)
        .unwrap_or("127.0.0.1:0");
    if let Err(e) = dgs_core::remote::run_worker_cli("dgsd-worker", listen) {
        fail(&format!("worker failed: {e}"));
    }
    println!("dgsd-worker: shut down cleanly");
    exit(0);
}

/// Loads a graph file and builds one serving session from the shared
/// CLI options (partitioner, cache).
fn build_engine(graph_path: &str, options: &SessionOptions) -> (dgs_graph::Graph, SimEngine) {
    let f =
        File::open(graph_path).unwrap_or_else(|e| fail(&format!("cannot open {graph_path}: {e}")));
    let g = gio::read_graph_auto(BufReader::new(f))
        .unwrap_or_else(|e| fail(&format!("{graph_path}: {e}")));
    let builder = options
        .engine_builder(&g)
        .unwrap_or_else(|e| fail(&format!("{graph_path}: {e}")));
    let engine = builder.build();
    (g, engine)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        usage();
    }
    if let Some(pos) = args.iter().position(|a| a == "--worker") {
        args.remove(pos);
        let flags = or_fail(flags::parse(&args, ALLOWED, &[]));
        for key in flags.keys() {
            if key != "listen" {
                fail(&format!("--{key} does not apply in --worker mode"));
            }
        }
        run_worker(&flags);
    }
    let flags = or_fail(flags::parse(&args, ALLOWED, &[]));
    let listen = flags
        .get("listen")
        .unwrap_or_else(|| fail("--listen required"));
    let addr = ServeAddr::parse(listen)
        .unwrap_or_else(|| fail(&format!("unparseable --listen address '{listen}'")));
    let graph_path = flags
        .get("graph")
        .unwrap_or_else(|| fail("--graph required"));

    let options = or_fail(SessionOptions::from_flags(&flags));
    let (g, engine) = build_engine(graph_path, &options);
    let k = options.sites;

    let metrics_enabled = match flags.get("metrics").map(String::as_str) {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => fail(&format!("--metrics takes on|off, got '{other}'")),
    };
    let metrics_addr = flags.get("metrics-addr").map(|s| {
        ServeAddr::parse(s)
            .unwrap_or_else(|| fail(&format!("unparseable --metrics-addr address '{s}'")))
    });
    let log_level = match flags.get("log-level") {
        None => LogLevel::Warn,
        Some(s) => LogLevel::parse(s).unwrap_or_else(|| {
            fail(&format!(
                "--log-level takes error|warn|info|debug, got '{s}'"
            ))
        }),
    };
    let cfg = ServerConfig {
        max_connections: or_fail(num(&flags, "max-conns", 64)),
        drain_grace: std::time::Duration::from_millis(or_fail(num(&flags, "grace", 5000))),
        worker_threads: or_fail(num(&flags, "workers", 0)),
        metrics_enabled,
        metrics_addr,
        // `--slow-ms 0` traces every request; omitting the flag
        // leaves capture off.
        slow_ms: flags
            .contains_key("slow-ms")
            .then(|| or_fail(num(&flags, "slow-ms", 0))),
        log_level,
        ..ServerConfig::default()
    };
    let server = Server::bind(&addr, engine, cfg)
        .unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));

    // Additional named sessions, each from its own graph file but
    // sharing the partition/cache options.
    if let Some(spec) = flags.get("sessions") {
        let sessions = server.sessions();
        for entry in spec.split(',') {
            let (name, path) = entry
                .split_once('=')
                .unwrap_or_else(|| fail(&format!("--sessions: '{entry}' is not NAME=FILE")));
            if name.is_empty() || name == "default" {
                fail(&format!(
                    "--sessions: '{name}' is not a usable session name"
                ));
            }
            let (sg, sengine) = build_engine(path, &options);
            sessions.insert(name, sengine);
            println!(
                "dgsd: session '{name}' <- {path} (|V| = {}, |E| = {})",
                sg.node_count(),
                sg.edge_count()
            );
        }
    }

    println!(
        "dgsd: serving {graph_path} (|V| = {}, |E| = {}, {k} sites) on {}",
        g.node_count(),
        g.edge_count(),
        server.local_addr()
    );
    if let Some(maddr) = server.metrics_addr() {
        println!("dgsd: metrics exposition on {maddr}");
    }
    if let Err(e) = server.run() {
        fail(&format!("server failed: {e}"));
    }
    println!("dgsd: shut down cleanly");
}
