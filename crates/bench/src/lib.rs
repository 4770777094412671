//! # dgs-bench
//!
//! The experiment harness that regenerates every table and figure of
//! the paper's evaluation (§6) — Fig. 6(a)–(p), Table 1, the
//! impossibility-theorem workloads of Fig. 2, the tree bounds of
//! Corollary 4, and the design-choice ablations called out in
//! DESIGN.md — in **virtual time**, under the paper's cost model.
//!
//! `cargo run -p dgs-bench --release --bin experiments -- all` prints
//! paper-style series for every experiment and writes CSVs.
//!
//! This crate reproduces the paper's curves; it is not the
//! repository's benchmark. Wall-clock numbers that are compared
//! across commits come from `perf/` (`perf/README.md`,
//! `BENCHMARK.json`).
//!
//! Workload scales default to 1/100 of the paper's dataset sizes so
//! the whole suite completes in minutes; pass `--scale` to grow them
//! (see EXPERIMENTS.md for the fidelity discussion).

pub mod compress_exp;
pub mod figures;
pub mod plot;
pub mod report;
pub mod workloads;

pub use compress_exp::CompressionRow;
pub use figures::{Sweep, SweepSeries};
pub use plot::render_plot;
pub use report::{print_sweep, write_csv};
pub use workloads::Workloads;
