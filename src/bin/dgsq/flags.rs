//! Flag handling and what every subcommand shares: loading files,
//! reaching a daemon, failing with a named error.
//!
//! Flags are parsed by `dgs::serve::flags` against a per-subcommand
//! allowlist: an unknown or misspelled `--flag` exits with status 2,
//! naming the offender.

use dgs::graph::{io, Graph, Pattern};
pub use dgs::serve::flags::{num, Flags};
use dgs::serve::{DgsClient, ServeAddr, SessionOptions, WireAlgorithm, WireCacheStats};
use std::fmt::Display;
use std::fs::File;
use std::io::BufReader;

pub fn fail(msg: &str) -> ! {
    eprintln!("dgsq: {msg}");
    std::process::exit(2);
}

/// The value of `r`, or the exit naming its error.
pub fn or_fail<T, E: Display>(r: Result<T, E>) -> T {
    r.unwrap_or_else(|e| fail(&e.to_string()))
}

/// The flags each subcommand accepts, space-separated; `None` for an
/// unknown subcommand. Anything else is a hard error — a misspelled
/// flag must never be silently ignored.
pub fn allowed_flags(cmd: &str) -> Option<&'static str> {
    Some(match cmd {
        "generate" => "family nodes edges labels seed out remote sites partition cache session",
        "query" => {
            "graph pattern algorithm sites partition executor seed boolean matches cache \
             parallel repeat updates remote workers attach session"
        }
        "convert" => "in out format",
        "worker" => "listen",
        "compress" => "graph method out",
        "stats" => "graph remote session metrics",
        "trace" | "shutdown" => "remote",
        "session" => "remote create drop graph sites partition seed cache",
        "subscribe" => "remote pattern session count algorithm",
        _ => return None,
    })
}

pub fn get<'a>(flags: &'a Flags, key: &str) -> Option<&'a str> {
    flags.get(key).map(String::as_str)
}

/// Fails naming the first of `keys` (space-separated) that `flags`
/// holds, as `--key {why}`.
pub fn reject(flags: &Flags, keys: &str, why: &str) {
    if let Some(key) = keys.split_whitespace().find(|k| flags.contains_key(*k)) {
        fail(&format!("--{key} {why}"));
    }
}

pub fn load_graph(path: &str) -> Graph {
    let f = File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    io::read_graph_auto(BufReader::new(f)).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

pub fn load_pattern(path: &str) -> Pattern {
    let f = File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    io::read_pattern_auto(BufReader::new(f)).unwrap_or_else(|e| fail(&format!("{path}: {e}")))
}

pub fn connect(flags: &Flags) -> DgsClient {
    let addr = get(flags, "remote").unwrap_or_else(|| fail("--remote ADDR required"));
    let addr =
        ServeAddr::parse(addr).unwrap_or_else(|| fail(&format!("unparseable --remote '{addr}'")));
    DgsClient::connect(&addr).unwrap_or_else(|e| fail(&format!("cannot reach {addr}: {e}")))
}

/// Connects and, with `--session NAME`, routes the connection at that
/// named daemon session (a missing session fails typed, here).
pub fn connect_routed(flags: &Flags) -> DgsClient {
    let mut client = connect(flags);
    if let Some(name) = get(flags, "session") {
        or_fail(client.session_route(name));
    }
    client
}

/// Rejects `--session` on a local invocation (it names a daemon
/// session, so it only means something with `--remote`).
pub fn reject_session_without_remote(flags: &Flags) {
    reject(
        flags,
        "session",
        "only applies with --remote (it names a daemon session)",
    );
}

/// Rejects session-building flags that have no effect against a
/// daemon (its session was configured at `dgsd` startup).
pub fn reject_local_only(flags: &Flags, local_only: &str) {
    let why = "has no effect with --remote: the daemon's session was configured when dgsd started";
    reject(flags, local_only, why);
}

/// The session-build options shared by `query`, `generate --remote`
/// and `session --create`.
pub fn session_options(flags: &Flags) -> SessionOptions {
    SessionOptions::from_flags(flags).unwrap_or_else(|e| fail(&e))
}

pub fn wire_algorithm(flags: &Flags) -> WireAlgorithm {
    let name = get(flags, "algorithm").unwrap_or("auto");
    WireAlgorithm::parse(name).unwrap_or_else(|| fail(&format!("unknown algorithm '{name}'")))
}

pub fn print_cache(s: &WireCacheStats) {
    println!(
        "cache: {} entries / capacity {}  {} hits, {} misses, {} evictions",
        s.entries, s.capacity, s.hits, s.misses, s.evictions
    );
}

/// One query node's matches, the first 20 shown.
pub fn print_matches<T: Display>(u: impl Display, matches: &[T]) {
    let shown: Vec<String> = matches.iter().take(20).map(T::to_string).collect();
    let ellipsis = if matches.len() > 20 { ", ..." } else { "" };
    println!(
        "  u{u}: {} matches [{}{}]",
        matches.len(),
        shown.join(", "),
        ellipsis
    );
}
