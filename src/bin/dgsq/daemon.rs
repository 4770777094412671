//! The daemon's own commands: `trace`, `session`, `subscribe` and
//! `shutdown`.
//!
//! **Sessions**: a daemon hosts named sessions. `dgsq session` lists,
//! creates (`--create NAME --graph FILE`, with the same
//! sites/partition/cache options as `generate --remote`) and drops
//! them; `--session NAME` on `query`/`stats` routes
//! the connection at that session instead of `"default"`, and on
//! `generate --remote` loads the generated graph **as** that named
//! session (creating or replacing it).
//!
//! **Live subscriptions**: `dgsq subscribe PATTERN --remote
//! ADDR` registers the pattern with the daemon and prints the initial
//! match snapshot, then streams `MATCH_DIFF` pushes — the
//! `(query node, data node)` pairs that entered or left the match set
//! as other connections apply deltas — until `--count N` diffs have
//! arrived (then it unsubscribes cleanly) or the server ends the
//! stream with a typed event (overflow, session dropped, draining).
//! The pattern file is positional, but `--pattern FILE` works too.

use crate::flags::*;

/// `dgsq trace`: dump the daemon's slow-query ring, newest first,
/// with the plan explanation and per-site work attached to each
/// entry.
pub fn cmd_trace(flags: &Flags) {
    let mut client = connect(flags);
    let traces = or_fail(client.trace());
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
pub fn cmd_session(flags: &Flags) {
    if flags.contains_key("create") && flags.contains_key("drop") {
        fail("--create and --drop are mutually exclusive");
    }
    let mut client = connect(flags);
    if let Some(name) = get(flags, "drop") {
        or_fail(client.session_drop(name));
        println!("dropped session '{name}'");
        return;
    }
    if let Some(name) = get(flags, "create") {
        let path =
            get(flags, "graph").unwrap_or_else(|| fail("--graph FILE required with --create"));
        let g = load_graph(path);
        let options = session_options(flags);
        let info = or_fail(client.session_create(name, &g, &options));
        println!(
            "created session '{}': |V| = {}, |E| = {} over {} sites (generation {})",
            info.name, info.nodes, info.edges, info.sites, info.generation
        );
        return;
    }
    reject(
        flags,
        "graph sites partition seed cache",
        "only applies with --create",
    );
    let infos = or_fail(client.session_list());
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
pub fn cmd_subscribe(flags: &Flags) {
    use dgs::serve::SubscriptionEvent;
    if !flags.contains_key("remote") {
        fail("--remote ADDR required (subscriptions live on a dgsd daemon)");
    }
    let path = get(flags, "pattern")
        .unwrap_or_else(|| fail("PATTERN file required (positional or --pattern FILE)"));
    let q = load_pattern(path);
    let count: usize = or_fail(num(flags, "count", 0));
    let algo = wire_algorithm(flags);
    let mut client = connect_routed(flags);
    let (sub_id, generation, mut rows) = or_fail(client.subscribe(&q, algo));
    let pairs: usize = rows.iter().map(Vec::len).sum();
    println!("subscription #{sub_id} at generation {generation}: snapshot has {pairs} (query node, data node) pairs");
    for (u, col) in rows.iter().enumerate() {
        print_matches(u, col);
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
                    or_fail(client.unsubscribe(sub_id));
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

pub fn cmd_shutdown(flags: &Flags) {
    let client = connect(flags);
    or_fail(client.shutdown());
    println!("daemon acknowledged shutdown");
}
