//! `--aa`: the benchmark measuring itself. Every workload is run as
//! two sets of ten runs of this one binary. Both sets use the same ten
//! seeds and their runs alternate, so neither the inputs nor the host's
//! drift can tell the sets apart: what is left is the noise a later
//! comparison of two commits has to beat. For every end-to-end metric
//! each set's spread (interquartile distance over the median) and the
//! distance between the two medians, whichever is the larger, must stay
//! within the metric's bound. A benchmark that fails this cannot tell a
//! regression from its own noise.

use crate::json::{self, Value};
use crate::names::{END_TO_END, WORKLOADS};
use crate::stats;
use std::process::{Command, ExitCode};

fn one_run(workload: &str, seed: u64, seconds: Option<f64>, quick: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        "0",
    ]);
    if let Some(s) = seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let v = json::parse(last)?;
    if v.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: not correct"));
    }
    Ok(v)
}

/// Runs per set, each with another seed: what the ten-pair rule for
/// comparing two commits uses too.
const RUNS: u64 = 10;

pub fn run(seconds: Option<f64>, quick: bool) -> ExitCode {
    println!(
        "| workload | metric | bound | set A median [q1, q3] | spread A | set B median [q1, q3] | spread B | medians apart | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut bad = 0;
    for w in &WORKLOADS {
        // sets[set][metric] = one value per run
        let mut sets = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        for seed in 1..=RUNS {
            // Which set runs first alternates.
            for set in [seed % 2, (seed + 1) % 2] {
                let v = match one_run(w.name, seed, seconds, quick) {
                    Ok(v) => v,
                    Err(e) => {
                        eprintln!("dgs-perf --aa: {e}");
                        return ExitCode::from(1);
                    }
                };
                for (m, slot) in END_TO_END.iter().zip(sets[set as usize].iter_mut()) {
                    let x = v
                        .get("metrics")
                        .and_then(|ms| ms.get(m.name))
                        .and_then(|x| x.get("value"))
                        .and_then(Value::as_f64);
                    slot.extend(x);
                }
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][i], &sets[1][i]);
            let ([a1, a2, a3], [b1, b2, b3]) = (stats::quartiles(a), stats::quartiles(b));
            let apart = (a2 / b2).max(b2 / a2) - 1.0;
            let ok = stats::spread(a) <= m.bound && stats::spread(b) <= m.bound && apart <= m.bound;
            bad += usize::from(!ok);
            println!(
                "| {} | {} | {:.0} % | {:.4} [{:.4}, {:.4}] | {:.1} % | {:.4} [{:.4}, {:.4}] | {:.1} % | {:.1} % | {} |",
                w.name,
                m.name,
                100.0 * m.bound,
                a2,
                a1,
                a3,
                100.0 * stats::spread(a),
                b2,
                b1,
                b3,
                100.0 * stats::spread(b),
                100.0 * apart,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "dgs-perf --aa: {bad} (workload, metric) pairs spread or disagree by more than their bound"
        );
        ExitCode::from(1)
    }
}
