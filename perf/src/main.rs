//! The repository's benchmark. One command per workload prints every
//! metric with its unit, checks the answers it timed, and exits
//! nonzero on any failed check; see `perf/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload cold-cyclic --seed 1 --seconds 10 --trace 0
//! ```

mod aa;
mod churn;
mod cold;
mod harness;
mod hosted;
mod inputs;
mod json;
mod names;
mod rng;
mod served;
mod stats;
mod trace;

use harness::{Cfg, Outcome};
use names::{Metric, Values, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "\
usage: dgs-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1]
                [--quick] [--check-all] [--out DIR]
       dgs-perf --aa [--seconds S] [--quick]

  --workload   cold-cyclic | cold-acyclic | served-hot | churn-subscribed
  --seed       derives graph, patterns and deltas (default 1)
  --seconds    length of the measured window (default: BENCHMARK.json's run_seconds)
  --trace 1    the traced run: per-layer metrics and perf/out/trace-<workload>.json
  --quick      tiny inputs that still walk every code path
  --check-all  compare every cold answer to the oracle, not one in four
  --out        where the span file and the socket go (default perf/out)
  --aa         run every workload as two interleaved sets of ten runs and compare them
";

struct Args {
    workload: Option<String>,
    cfg: Cfg,
    seconds_given: bool,
    trace: bool,
    aa: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        cfg: Cfg {
            seed: 1,
            seconds: f64::from(names::RUN_SECONDS),
            quick: false,
            check_all: false,
            setups: 5,
            out_dir: PathBuf::from("perf/out"),
        },
        seconds_given: false,
        trace: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.cfg.seconds = s;
                args.seconds_given = true;
            }
            "--out" => args.cfg.out_dir = PathBuf::from(value("a directory")?),
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.cfg.quick = true,
            "--check-all" => args.cfg.check_all = true,
            "--aa" => args.aa = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.cfg.quick && !args.seconds_given {
        args.cfg.seconds = 1.0;
    }
    if !args.aa {
        match &args.workload {
            None => return Err("--workload is required".into()),
            Some(w) if !WORKLOADS.iter().any(|k| k.name == w) => {
                return Err(format!("unknown workload {w}"));
            }
            Some(_) => {}
        }
    }
    Ok(Some(args))
}

fn run_workload(name: &str, cfg: &Cfg, tr: &mut Tracer, layers: bool) -> Outcome {
    match name {
        "cold-cyclic" => cold::run(cold::Kind::Cyclic, cfg, tr, layers),
        "cold-acyclic" => cold::run(cold::Kind::Acyclic, cfg, tr, layers),
        "served-hot" => served::run(cfg, tr, layers),
        "churn-subscribed" => churn::run(cfg, tr, layers),
        other => unreachable!("workload {other} passed validation"),
    }
}

/// The end-to-end metrics of one untraced pass.
fn end_to_end(out: &Outcome) -> Values {
    let lat = out.sorted_latencies();
    let mut v = Values::default();
    v.set("setup_s", stats::median(&out.setup_s));
    v.set("ops_per_s", out.ops_per_s);
    v.set("op_p50_ms", stats::percentile(&lat, 0.50));
    v.set("ds_kb_per_query", out.ds_kb_per_query);
    v.set("pt_virtual_ms_per_query", out.pt_virtual_ms_per_query);
    v.set("peak_rss_mb", harness::peak_rss_mb());
    v
}

fn print_metrics(title: &str, defs: &[Metric], values: &Values) {
    println!("{title}");
    for m in defs {
        let value = values.get(m.name).unwrap_or(0.0);
        println!(
            "  {:<30} {:>16.6} {:<6} ({} is better) {}",
            m.name,
            value,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
}

/// The machine-readable last line.
fn result_line(defs: &[Metric], values: &Values, attempted: u64, failed: u64) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                values.get(m.name).unwrap_or(0.0),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dgs-perf: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.aa {
        return aa::run(
            args.seconds_given.then_some(args.cfg.seconds),
            args.cfg.quick,
        );
    }
    let name = args.workload.as_deref().expect("validated by parse_args");
    let cfg = args.cfg;
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!("dgs-perf: cannot create {}: {e}", cfg.out_dir.display());
        return ExitCode::from(2);
    }
    let why = WORKLOADS.iter().find(|w| w.name == name).map(|w| w.why);
    println!("workload {name}: {}", why.expect("validated by parse_args"));
    println!(
        "seed {}  window {} s  tracing {}  {} hardware threads{}",
        cfg.seed,
        cfg.seconds,
        if args.trace { "on" } else { "off" },
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg.quick { "  (quick inputs)" } else { "" },
    );

    let epoch = Instant::now();
    let (values, defs, attempted, failed): (Values, &[Metric], u64, u64) = if !args.trace {
        let out = run_workload(name, &cfg, &mut Tracer::new(false, epoch), false);
        for fact in &out.facts {
            println!("  {fact}");
        }
        println!(
            "  {} ops timed; 95th percentile {:.6} ms (not gated: see harness.op_p95_ms); set-ups took {:.4?} s",
            out.lat_ms.len(),
            stats::percentile(&out.sorted_latencies(), 0.95),
            out.setup_s
        );
        (end_to_end(&out), &END_TO_END, out.attempted, out.failed)
    } else {
        // Four passes over a quarter of the window each, alternating
        // tracing off and on (spans here, the server's own trace ring
        // there): the host's speed drifts by several percent within a
        // minute, and alternating keeps that out of the difference
        // between the two modes, which is the tracing overhead. The
        // last pass also times each layer's public calls, and its
        // spans are the ones written out.
        let quarter = Cfg {
            seconds: cfg.seconds / 4.0,
            setups: 1,
            ..cfg.clone()
        };
        let mut plain = run_workload(name, &quarter, &mut Tracer::new(false, epoch), false);
        let mut traced = run_workload(name, &quarter, &mut Tracer::new(true, epoch), false);
        let again = run_workload(name, &quarter, &mut Tracer::new(false, epoch), false);
        let mut tracer = Tracer::new(true, epoch);
        let last = run_workload(name, &quarter, &mut tracer, true);
        plain.absorb(again);
        traced.absorb(last);
        for fact in &traced.facts {
            println!("  {fact}");
        }
        let p50 = |o: &Outcome| stats::percentile(&o.sorted_latencies(), 0.50);
        let overhead = 100.0 * (p50(&traced) / p50(&plain) - 1.0);
        let untraced = plain.sorted_latencies();
        let mut values = traced.layers;
        values.set("harness.trace_overhead_pct", overhead);
        if stats::resolves(untraced.len(), 0.95) {
            values.set("harness.op_p95_ms", stats::percentile(&untraced, 0.95));
        }
        let path = cfg.out_dir.join(format!("trace-{name}.json"));
        match std::fs::write(&path, trace::to_json(name, cfg.seed, tracer.spans())) {
            Ok(()) => println!(
                "  {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("dgs-perf: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        println!("spans by name (self = duration minus what child spans cover)");
        println!(
            "  {:<26} {:>8} {:>12} {:>12} {:>12}",
            "name", "count", "total ms", "self ms", "p50 us"
        );
        for row in trace::summarize(tracer.spans()) {
            println!(
                "  {:<26} {:>8} {:>12.3} {:>12.3} {:>12.3}",
                row.name, row.count, row.total_ms, row.self_ms, row.p50_us
            );
        }
        (
            values,
            &PER_LAYER,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
        )
    };
    print_metrics(
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        defs,
        &values,
    );
    println!("{}", result_line(defs, &values, attempted.max(1), failed));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("dgs-perf: {failed} of {attempted} ops failed or answered wrongly");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, seed: u64, trace: bool) -> (Values, Outcome) {
        // Under the package's ignored `out/`, and short enough for a
        // Unix socket path.
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!(
            "out/test-{}-{workload}-{seed}-{}",
            std::process::id(),
            u8::from(trace)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = Cfg {
            seed,
            seconds: 0.3,
            quick: true,
            check_all: true,
            setups: 1,
            out_dir: dir.clone(),
        };
        let mut tr = Tracer::new(trace, Instant::now());
        let mut out = run_workload(workload, &cfg, &mut tr, trace);
        let _ = std::fs::remove_dir_all(dir);
        assert_eq!(out.failed, 0, "{workload} seed {seed}");
        assert!(out.attempted >= 1 && !out.lat_ms.is_empty());
        assert_eq!(trace, !tr.spans().is_empty());
        (std::mem::take(&mut out.layers), out)
    }

    /// The per-layer metrics that are counts of the inputs or of the
    /// protocol, not timings: one seed gives one value.
    const EXACT: [&str; 11] = [
        "partition.vf_share",
        "partition.ef_edges",
        "net.data_msgs",
        "net.control_msgs",
        "net.rounds",
        "net.max_site_ops_share",
        "net.max_site_msgs",
        "net.ds_over_ef_vq",
        "serve.answer_bytes",
        "serve.bytes_per_pair",
        "core.maintained_entries",
    ];

    #[test]
    fn every_workload_runs_quick_and_repeats_its_exact_counts() {
        for w in &WORKLOADS {
            let (a, out) = quick(w.name, 11, true);
            let (b, again) = quick(w.name, 11, true);
            let (c, _) = quick(w.name, 12, true);
            for name in EXACT {
                assert_eq!(a.get(name), b.get(name), "{}: {name}", w.name);
            }
            assert_eq!(out.ds_kb_per_query, again.ds_kb_per_query, "{}", w.name);
            // PT repeats to about six digits only: dGPMt's coordinator
            // charges an op count that depends on hash iteration order
            // (seen as 1154 vs. 1158 coordinator ops for one query).
            let (pt, pt_again) = (out.pt_virtual_ms_per_query, again.pt_virtual_ms_per_query);
            assert!((pt - pt_again).abs() <= 1e-4 * pt, "{}: PT", w.name);
            assert!(
                EXACT.iter().any(|n| a.get(n) != c.get(n)),
                "{}: another seed gave the same counts",
                w.name
            );
            let e2e = end_to_end(&out);
            for m in &END_TO_END {
                assert!(
                    e2e.get(m.name).is_some_and(|x| x > 0.0),
                    "{}: {}",
                    w.name,
                    m.name
                );
            }
        }
    }

    #[test]
    fn untraced_pass_records_no_spans_and_result_line_parses() {
        let (_, out) = quick("cold-cyclic", 3, false);
        let line = result_line(&END_TO_END, &end_to_end(&out), out.attempted, out.failed);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(true));
        for m in &END_TO_END {
            let got = v.get("metrics").and_then(|x| x.get(m.name)).unwrap();
            assert_eq!(got.get("unit"), Some(&json::Value::Str(m.unit.into())));
            assert!(got.get("value").and_then(json::Value::as_f64).unwrap() > 0.0);
        }
    }
}
