//! Flag handling and what every subcommand shares: loading files,
//! reaching a daemon, failing with a named error.
//!
//! Unknown or misspelled `--flags` are rejected against a
//! per-subcommand allowlist (exit status 2, offending flag named) —
//! they used to be collected and silently ignored.

use dgs::graph::{io, Graph, Pattern};
use dgs::serve::{
    DgsClient, ServeAddr, SessionOptions, WireAlgorithm, WireCacheStats, WireCompression,
};
use std::collections::HashMap;
use std::fmt::Display;
use std::fs::File;
use std::io::BufReader;

/// `--key value` pairs after the subcommand.
pub type Flags = HashMap<String, String>;

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
        "generate" => {
            "family nodes edges labels seed out remote sites partition cache compress \
             compress-threshold session"
        }
        "query" => {
            "graph pattern algorithm sites partition executor seed boolean matches cache \
             compress compress-threshold parallel repeat updates remote workers attach session"
        }
        "convert" => "in out format",
        "worker" => "listen",
        "compress" => "graph method out remote session",
        "stats" => "graph remote session metrics",
        "trace" | "shutdown" => "remote",
        "session" => {
            "remote create drop graph sites partition seed cache compress compress-threshold"
        }
        "subscribe" => "remote pattern session count algorithm",
        _ => return None,
    })
}

/// Parses `--key value` pairs after the subcommand.
pub fn parse_flags(args: &[String]) -> Flags {
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
pub fn validate_flags(cmd: &str, flags: &Flags) {
    let allowed: Vec<&str> = allowed_flags(cmd)
        .unwrap_or("")
        .split_whitespace()
        .collect();
    for key in flags.keys() {
        if !allowed.contains(&key.as_str()) {
            let hint = allowed
                .iter()
                .filter(|a| edit_distance(key, a) <= 2)
                .min_by_key(|a| edit_distance(key, a))
                .map(|a| format!(" (did you mean --{a}?)"))
                .unwrap_or_default();
            let allowed: Vec<String> = allowed.iter().map(|f| format!("--{f}")).collect();
            fail(&format!(
                "unknown flag --{key} for '{cmd}'{hint}; allowed: {}",
                allowed.join(" ")
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

pub fn get<'a>(flags: &'a Flags, key: &str) -> Option<&'a str> {
    flags.get(key).map(String::as_str)
}

pub fn num<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(&format!("--{key}: cannot parse '{v}'"))),
    }
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
        or_fail(client.session_route(&[name]));
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

/// A compressed leg, active or not.
pub fn gc_summary(c: &WireCompression) -> String {
    let state = if c.active {
        "active — Auto answers on Gc"
    } else {
        "above threshold — answering on G"
    };
    let (classes, method, ratio) = (c.classes, &c.method, c.ratio);
    format!("Gc has {classes} classes via {method} (ratio {ratio:.3}, {state})")
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
