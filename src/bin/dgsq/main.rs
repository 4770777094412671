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
//! **Remote mode**: `--remote ADDR` (`tcp:host:port`, bare
//! `host:port`, or `unix:/path.sock`) points any subcommand at a
//! running `dgsd` daemon instead of doing the work in-process:
//! `query` sends patterns (and `--updates` batches) to the daemon's
//! shared session, `generate` loads the generated graph into the
//! daemon as a fresh session, `compress` reports the daemon session's
//! compressed leg, `stats` prints the served graph/fragmentation
//! summary, and `shutdown` stops the daemon.
//!
//! Flags are `flags.rs`'s; `query` is `query.rs`'s, the graph-file
//! commands are `files.rs`'s and the daemon's own `daemon.rs`'s.

mod daemon;
mod files;
mod flags;
mod query;

use flags::{allowed_flags, fail, get, parse_flags, validate_flags, Flags};

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
    std::process::exit(2);
}

/// `dgsq worker`: one socket-executor worker process. Binds a TCP
/// listener (ephemeral port by default), announces it on stdout —
/// `dgsq --executor socket` parses the "listening on" line — and
/// serves coordinators until one sends a shutdown.
fn cmd_worker(flags: &Flags) {
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
    if allowed_flags(cmd).is_none() {
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
        "generate" => files::cmd_generate(&flags),
        "query" => query::cmd_query(&flags),
        "convert" => files::cmd_convert(&flags),
        "compress" => files::cmd_compress(&flags),
        "stats" => files::cmd_stats(&flags),
        "trace" => daemon::cmd_trace(&flags),
        "session" => daemon::cmd_session(&flags),
        "subscribe" => daemon::cmd_subscribe(&flags),
        "shutdown" => daemon::cmd_shutdown(&flags),
        "worker" => cmd_worker(&flags),
        _ => unreachable!("command validated above"),
    }
}
