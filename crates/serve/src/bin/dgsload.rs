//! `dgsload` — open- and closed-loop traffic generator for `dgsd`.
//!
//! ```text
//! dgsload --addr ADDR [--clients N] [--requests R] [--mode closed|open]
//!         [--rate RPS] [--batch B] [--deltas EVERY] [--pattern FILE[,FILE...]]
//!         [--seed S]
//! ```
//!
//! Closed loop (default): each client keeps one request outstanding —
//! the classic saturation benchmark. Open loop: requests launch on a
//! fixed fleet-wide schedule of `--rate` per second, so server
//! slowdowns surface as queueing delay in the tail percentiles
//! instead of being absorbed by the clients.
//!
//! The report prints completed/errored counts, throughput, and
//! p50/p95/p99/max latency from the merged per-client
//! `LatencyHistogram`s. Exit status is nonzero when any request
//! errored, which is what the CI smoke job asserts on.
//!
//! `--session NAME` routes every client at a named server session,
//! and `--pipeline D` keeps `D` requests in flight per connection.
//! `--ping 1` swaps queries for `PING`s — the pure
//! protocol microbenchmark the CI pipelining gate measures.
//!
//! `dgsload` generates load and checks that it was served; it is not
//! the benchmark. Timings that are compared across commits come from
//! `perf/` (see `perf/README.md` and `BENCHMARK.json`).
//!
//! **Sweep mode** (`--sweep N1,N2,...`) replaces the load run with
//! the open-loop connection-count sweep: per step it holds that many
//! connections open, drives a constant-rate `PING` schedule through
//! at most `--senders` of them, and reports throughput + p99.
//!
//! **Subscribe mode** (`--subscribe 1`) runs the live-subscription
//! churn experiment instead: `--sessions` sessions are created, each
//! with `--subscribers` subscribers holding open `MATCH_DIFF` streams,
//! and a writer storms the first session with `--batches`
//! delta batches of `--ops` edge ops. Each subscriber reconstructs
//! the match set from its diffs and checks it against a final
//! re-query, so the run is self-verifying; the report is diff count
//! plus delivery-latency percentiles.

use dgs_graph::io as gio;
use dgs_serve::flags::{self, num, Flags};
use dgs_serve::{
    run_conn_sweep, run_load, run_subscribe, ConnSweepConfig, LoadConfig, LoadMode, ServeAddr,
    SubscribeConfig,
};
use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::process::exit;

fn fail(msg: &str) -> ! {
    eprintln!("dgsload: {msg}");
    exit(2);
}

fn or_fail<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| fail(&e))
}

const ALLOWED: &[&str] = &[
    "addr",
    "clients",
    "requests",
    "mode",
    "rate",
    "batch",
    "deltas",
    "pattern",
    "seed",
    "session",
    "pipeline",
    "sweep",
    "senders",
    "ping",
    "subscribe",
    "sessions",
    "subscribers",
    "nodes",
    "batches",
    "ops",
];

fn usage() -> ! {
    eprintln!(
        "usage:\n  dgsload --addr tcp:HOST:PORT|unix:/PATH.sock [--clients N] [--requests R]\n          \
         [--mode closed|open] [--rate RPS] [--batch B] [--deltas EVERY]\n          \
         [--pattern FILE[,FILE...]] [--seed S] [--session NAME] [--pipeline D]\n          \
         [--ping 1]\n  \
         dgsload --addr ADDR --sweep N1,N2,... [--rate RPS] [--requests R] [--senders N]\n          \
         (connection-count sweep)\n  \
         dgsload --addr ADDR --subscribe 1 [--sessions N] [--subscribers N] [--nodes N]\n          \
         [--batches N] [--ops N] [--seed S]\n          \
         (live-subscription churn: writer storms one session, subscribers verify the diff stream)"
    );
    exit(2);
}

/// `dgsload --subscribe`: the live-subscription churn run.
fn run_subscribe_mode(flags: &Flags, addr: ServeAddr) -> ! {
    let cfg = SubscribeConfig {
        addr,
        sessions: or_fail(num(flags, "sessions", 2)),
        subscribers: or_fail(num(flags, "subscribers", 2)),
        nodes: or_fail(num(flags, "nodes", 600)),
        batches: or_fail(num(flags, "batches", 40)),
        ops_per_batch: or_fail(num(flags, "ops", 20)),
        seed: or_fail(num(flags, "seed", 7)),
    };
    if cfg.sessions == 0 || cfg.subscribers == 0 || cfg.batches == 0 {
        fail("--sessions, --subscribers and --batches must be >= 1");
    }
    println!(
        "dgsload: subscription churn — {} sessions x {} subscribers, {} batches x {} ops \
         storming churn-0",
        cfg.sessions, cfg.subscribers, cfg.batches, cfg.ops_per_batch
    );
    let report = run_subscribe(&cfg).unwrap_or_else(|e| fail(&e.to_string()));
    let h = &report.histogram;
    println!(
        "  {} diffs delivered over {} batches in {:.2} s  ({} errors)",
        report.diffs,
        report.batches,
        report.elapsed.as_secs_f64(),
        report.errors
    );
    println!(
        "  diff latency: p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
        ms(h.p50()),
        ms(h.p95()),
        ms(h.p99()),
        ms(h.max())
    );
    if report.errors > 0 {
        eprintln!("dgsload: {} subscription errors", report.errors);
        exit(1);
    }
    exit(0);
}

/// `dgsload --sweep`: the connection-count sweep.
fn run_sweep_mode(flags: &Flags, addr: ServeAddr, spec: &str) -> ! {
    let steps: Vec<usize> = spec
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| fail(&format!("--sweep: '{s}' is not a connection count")))
        })
        .collect();
    if steps.is_empty() || steps.contains(&0) {
        fail("--sweep needs a comma-separated list of counts >= 1");
    }
    let cfg = ConnSweepConfig {
        addr,
        steps,
        rate: or_fail(num(flags, "rate", 2000.0)),
        requests_per_step: or_fail(num(flags, "requests", 4000)),
        active_senders: or_fail(num(flags, "senders", 64)),
    };
    if cfg.rate <= 0.0 {
        fail("--rate must be positive");
    }
    println!(
        "dgsload: connection sweep over {:?} ({:.0} req/s open loop, {} requests/step, <= {} senders)",
        cfg.steps, cfg.rate, cfg.requests_per_step, cfg.active_senders
    );
    let steps = run_conn_sweep(&cfg).unwrap_or_else(|e| fail(&e.to_string()));
    let mut errored = false;
    for s in &steps {
        println!(
            "  {:>6} conns: {:>8.1} req/s  p99 {:>9.1} us  ({} completed, {} errors)",
            s.connections, s.throughput, s.p99_us, s.completed, s.errors
        );
        errored |= s.errors > 0;
    }
    if errored {
        eprintln!("dgsload: sweep steps reported errors");
        exit(1);
    }
    exit(0);
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    flags::parse(args, ALLOWED, &[])
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1.0e6
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        usage();
    }
    let flags = parse_flags(&args).unwrap_or_else(|e| fail(&e));
    let addr_s = flags.get("addr").unwrap_or_else(|| fail("--addr required"));
    let addr =
        ServeAddr::parse(addr_s).unwrap_or_else(|| fail(&format!("unparseable --addr '{addr_s}'")));
    if let Some(spec) = flags.get("sweep") {
        run_sweep_mode(&flags, addr, spec);
    }
    if or_fail(num::<usize>(&flags, "subscribe", 0)) != 0 {
        run_subscribe_mode(&flags, addr);
    }
    let mode = match flags.get("mode").map(String::as_str).unwrap_or("closed") {
        "closed" => LoadMode::Closed,
        "open" => {
            let rate: f64 = or_fail(num(&flags, "rate", 100.0));
            if rate <= 0.0 {
                fail("--rate must be positive in open mode");
            }
            LoadMode::Open { rate }
        }
        other => fail(&format!("unknown mode '{other}'")),
    };
    let patterns = match flags.get("pattern") {
        None => Vec::new(),
        Some(arg) => arg
            .split(',')
            .map(|path| {
                let f =
                    File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
                gio::read_pattern_auto(BufReader::new(f))
                    .unwrap_or_else(|e| fail(&format!("{path}: {e}")))
            })
            .collect(),
    };

    let cfg = LoadConfig {
        addr,
        clients: or_fail(num(&flags, "clients", 8)),
        requests_per_client: or_fail(num(&flags, "requests", 50)),
        mode,
        delta_every: or_fail(num(&flags, "deltas", 0)),
        batch_size: or_fail(num(&flags, "batch", 1)),
        seed: or_fail(num(&flags, "seed", 1)),
        patterns,
        session: flags.get("session").cloned(),
        pipeline: or_fail(num(&flags, "pipeline", 1)),
        pings: or_fail(num::<usize>(&flags, "ping", 0)) != 0,
    };
    if cfg.clients == 0 || cfg.requests_per_client == 0 {
        fail("--clients and --requests must be >= 1");
    }
    if cfg.pipeline == 0 {
        fail("--pipeline must be >= 1");
    }
    println!(
        "dgsload: {} clients x {} requests, {} mode{}{}{}{} -> {}",
        cfg.clients,
        cfg.requests_per_client,
        match cfg.mode {
            LoadMode::Closed => "closed-loop".to_owned(),
            LoadMode::Open { rate } => format!("open-loop ({rate:.0} req/s)"),
        },
        if cfg.delta_every > 0 {
            format!(", delta every {} requests", cfg.delta_every)
        } else {
            String::new()
        },
        match &cfg.session {
            Some(name) => format!(", session '{name}'"),
            None => String::new(),
        },
        if cfg.pipeline > 1 {
            format!(", pipeline depth {}", cfg.pipeline)
        } else {
            String::new()
        },
        if cfg.pings { ", pings" } else { "" },
        addr_s
    );

    let report = run_load(&cfg).unwrap_or_else(|e| fail(&e.to_string()));
    let h = &report.histogram;
    println!(
        "  completed {} / errored {}  in {:.2} s  ({:.1} req/s)",
        report.completed,
        report.errors,
        report.elapsed.as_secs_f64(),
        report.throughput()
    );
    println!(
        "  latency: p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  max {:.3} ms  (mean {:.3} ms)",
        ms(h.p50()),
        ms(h.p95()),
        ms(h.p99()),
        ms(h.max()),
        h.mean() / 1.0e6
    );
    println!("  cache hits: {}", report.cache_hits);
    if report.failed_connects > 0 {
        println!("  failed connects: {}", report.failed_connects);
    }

    if report.errors > 0 {
        eprintln!("dgsload: {} requests errored", report.errors);
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HashMap<String, String>, String> {
        parse_flags(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_outside_the_allowed_set_are_refused() {
        assert_eq!(ALLOWED.len(), 20);
        let ok = parse(&["--addr", "unix:/tmp/x.sock", "--clients", "2"]).unwrap();
        assert_eq!(ok["clients"], "2");
        // The snapshot/baseline flags went with the gate stack they fed.
        for gone in [
            "json",
            "baseline",
            "obs-on",
            "obs-off",
            "max-overhead",
            "nope",
        ] {
            let err =
                parse(&["--addr", "unix:/tmp/x.sock", &format!("--{gone}"), "x"]).unwrap_err();
            assert!(err.contains(&format!("unknown flag --{gone}")), "{err}");
        }
        assert!(parse(&["addr"]).unwrap_err().contains("expected a --flag"));
        assert!(parse(&["--addr"]).unwrap_err().contains("requires a value"));
    }
}
