//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation section.
//!
//! ```text
//! experiments [--scale F] [--queries N] [--seed S] [--out DIR] [--plots] [IDS...]
//!
//!   IDS:  all (default) | exp1 | exp2 | exp3 |
//!         fig6a..fig6p (a pair id runs its sweep once) |
//!         table1 | imp-rt | imp-ds | tree | abl-push | abl-incr |
//!         abl-scc | abl-straggler | abl-faults | abl-compress
//! ```
//!
//! Results print as paper-style tables and are also written as CSVs
//! under `--out` (default `results/`). Everything here is virtual
//! time under the paper's cost model; wall-clock measurement is
//! `perf/`'s job (`perf/README.md`).

use dgs_bench::figures::{self, Sweep};
use dgs_bench::{print_sweep, write_csv, Workloads};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

struct Args {
    workloads: Workloads,
    out: PathBuf,
    ids: BTreeSet<String>,
    plots: bool,
}

/// Every id the harness knows.
const IDS: &[&str] = &[
    "all",
    "exp1",
    "exp2",
    "exp3",
    "fig6a",
    "fig6b",
    "fig6c",
    "fig6d",
    "fig6e",
    "fig6f",
    "fig6g",
    "fig6h",
    "fig6i",
    "fig6j",
    "fig6k",
    "fig6l",
    "fig6m",
    "fig6n",
    "fig6o",
    "fig6p",
    "table1",
    "imp-rt",
    "imp-ds",
    "tree",
    "abl-push",
    "abl-incr",
    "abl-scc",
    "abl-straggler",
    "abl-faults",
    "abl-compress",
];

/// Parses the command line (without the program name). An id the
/// harness does not know is an error: it would select no sweep, and
/// the run would print nothing and report success.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workloads = Workloads::default();
    let mut out = PathBuf::from("results");
    let mut ids = BTreeSet::new();
    let mut plots = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                workloads.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale requires a number");
            }
            "--queries" => {
                workloads.queries = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--queries requires a count");
            }
            "--seed" => {
                workloads.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed requires a number");
            }
            "--out" => {
                out = PathBuf::from(args.next().expect("--out requires a path"));
            }
            "--plots" => {
                plots = true;
            }
            "--help" | "-h" => {
                println!(
                    "experiments [--scale F] [--queries N] [--seed S] [--out DIR] [--plots] [IDS...]\n\
                     ids: {}",
                    IDS.join(" ")
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => panic!("unknown flag {other}"),
            id => {
                let id = id.to_ascii_lowercase();
                if !IDS.contains(&id.as_str()) {
                    return Err(format!(
                        "unknown experiment id `{id}`; valid ids: {}",
                        IDS.join(" ")
                    ));
                }
                ids.insert(id);
            }
        }
    }
    if ids.is_empty() {
        ids.insert("all".into());
    }
    Ok(Args {
        workloads,
        out,
        ids,
        plots,
    })
}

/// Maps a requested id to the sweeps it needs. Pair figures (6a/6b,
/// ...) share one sweep, so requesting either runs it once.
fn wanted(ids: &BTreeSet<String>, keys: &[&str]) -> bool {
    ids.contains("all") || keys.iter().any(|k| ids.contains(*k))
}

fn emit(args: &Args, sweep: &Sweep) {
    emit_with(sweep, &args.out, args.plots);
}

fn emit_with(sweep: &Sweep, out: &std::path::Path, plots: bool) {
    print_sweep(sweep);
    if plots {
        print!(
            "{}",
            dgs_bench::render_plot(sweep, dgs_bench::plot::Metric::Pt)
        );
        print!(
            "{}",
            dgs_bench::render_plot(sweep, dgs_bench::plot::Metric::Ds)
        );
    }
    println!();
    if let Err(e) = write_csv(sweep, out) {
        eprintln!("warning: could not write CSVs for {}: {e}", sweep.id_pt);
    }
}

fn run_table1(w: &Workloads) {
    use dgs_core::{Algorithm, SimEngine};
    use dgs_graph::generate::tree as gen_tree;
    use dgs_graph::{Graph, Pattern};
    use dgs_partition::{tree_partition, Fragmentation, SiteId};

    let mut measured = Vec::new();
    // One session per workload graph: every algorithm and query below
    // shares that session's fragmentation and planner facts.
    let session = |g: &Graph, assign: &[SiteId]| {
        let frag = Arc::new(Fragmentation::build(g, assign, 8));
        SimEngine::builder(g, frag).build()
    };
    let mean_point = |engine: &SimEngine, algo: &Algorithm, queries: &[Pattern]| {
        let (mut pt, mut ds) = (0.0, 0.0);
        for r in engine.query_batch_with(algo, queries).reports {
            let r = r.expect("table-1 workload is valid");
            pt += r.metrics.virtual_time_ms();
            ds += r.metrics.data_kb();
        }
        let n = queries.len() as f64;
        (pt / n, ds / n)
    };

    // dGPM + baselines on the web workload.
    let (g, assign) = w.web_graph(8, 0.25);
    let web = session(&g, &assign);
    let queries = w.cyclic_queries(5, 10);
    for algo in [
        Algorithm::dgpm(),
        Algorithm::DisHhk,
        Algorithm::DMes,
        Algorithm::MatchCentral,
    ] {
        let (pt, ds) = mean_point(&web, &algo, &queries);
        measured.push((algo.name().to_owned(), pt, ds));
    }

    // dGPMd on the citation workload.
    let (g, assign) = w.citation_graph(8, 0.25);
    let queries = w.dag_queries(9, 13, 4);
    let (pt, ds) = mean_point(&session(&g, &assign), &Algorithm::Dgpmd, &queries);
    measured.push(("dGPMd".to_owned(), pt, ds));

    // dGPMt on a tree workload.
    let tn = ((20_000.0 * w.scale) as usize).max(64);
    let g = gen_tree::random_tree_with_chain_bias(tn, 15, 0.3, w.seed + 3);
    let assign = tree_partition(&g, 8);
    let queries = w.dag_queries(5, 7, 3);
    let (pt, ds) = mean_point(&session(&g, &assign), &Algorithm::Dgpmt, &queries);
    measured.push(("dGPMt".to_owned(), pt, ds));

    print!("{}", dgs_bench::report::render_table1(&measured));
    println!();
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(2);
    });
    let w = &args.workloads;
    println!(
        "# dgs experiments — scale {} (paper sizes / 100 × scale), {} queries per point, seed {}\n",
        w.scale, w.queries, w.seed
    );

    if wanted(&args.ids, &["table1"]) {
        run_table1(w);
    }
    if wanted(&args.ids, &["exp1", "fig6a", "fig6b"]) {
        emit(&args, &figures::exp_dgpm_vary_f(w));
    }
    if wanted(&args.ids, &["exp1", "fig6c", "fig6d"]) {
        emit(&args, &figures::exp_dgpm_vary_q(w));
    }
    if wanted(&args.ids, &["exp1", "fig6e", "fig6f"]) {
        emit(&args, &figures::exp_dgpm_vary_vf(w));
    }
    if wanted(&args.ids, &["exp2", "fig6g", "fig6h"]) {
        emit(&args, &figures::exp_dgpmd_vary_d(w));
    }
    if wanted(&args.ids, &["exp2", "fig6i", "fig6j"]) {
        emit(&args, &figures::exp_dgpmd_vary_f(w));
    }
    if wanted(&args.ids, &["exp2", "fig6k", "fig6l"]) {
        emit(&args, &figures::exp_dgpmd_vary_vf(w));
    }
    if wanted(&args.ids, &["exp3", "fig6m", "fig6n"]) {
        emit(&args, &figures::exp_syn_vary_f(w));
    }
    if wanted(&args.ids, &["exp3", "fig6o", "fig6p"]) {
        emit(&args, &figures::exp_syn_vary_g(w));
    }
    if wanted(&args.ids, &["imp-rt"]) {
        emit(&args, &figures::exp_impossibility_rt(w));
    }
    if wanted(&args.ids, &["imp-ds"]) {
        emit(&args, &figures::exp_impossibility_ds(w));
    }
    if wanted(&args.ids, &["tree"]) {
        emit(&args, &figures::exp_tree(w));
    }
    if wanted(&args.ids, &["abl-push"]) {
        emit(&args, &figures::exp_ablation_push(w));
        emit(&args, &figures::exp_ablation_push_ring(w));
    }
    if wanted(&args.ids, &["abl-incr"]) {
        emit(&args, &figures::exp_ablation_incremental(w));
    }
    if wanted(&args.ids, &["abl-scc"]) {
        emit(&args, &figures::exp_ablation_scc(w));
    }
    if wanted(&args.ids, &["abl-straggler"]) {
        emit(&args, &figures::exp_ablation_straggler(w));
    }
    if wanted(&args.ids, &["abl-faults"]) {
        emit(&args, &figures::exp_ablation_faults(w));
    }
    if wanted(&args.ids, &["abl-compress"]) {
        let rows = dgs_bench::compress_exp::run(w);
        print!("{}", dgs_bench::compress_exp::render(&rows));
        println!();
        if let Err(e) = dgs_bench::compress_exp::write_csv(&rows, &args.out) {
            eprintln!("warning: could not write abl-compress.csv: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn unknown_ids_are_rejected_with_the_valid_ones_listed() {
        let err = parse(&["table1", "serving"])
            .err()
            .expect("`serving` is no id");
        assert!(err.contains("`serving`"), "{err}");
        for id in IDS {
            assert!(err.contains(id), "{err} does not list {id}");
        }
        let ok = parse(&["--scale", "0.01", "Fig6A", "abl-compress"]).unwrap();
        assert_eq!(
            ok.ids.into_iter().collect::<Vec<_>>(),
            ["abl-compress", "fig6a"]
        );
        assert!(parse(&[]).unwrap().ids.contains("all"));
    }
}
