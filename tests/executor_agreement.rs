//! Executor confluence: graph simulation is a monotone fixpoint, so
//! the threaded cluster (real concurrency, nondeterministic
//! interleavings) and the virtual-time simulator (deterministic) must
//! produce identical answers — and the virtual executor must be
//! bit-reproducible.

use dgs::graph::generate::{patterns, random, tree};
use dgs::prelude::*;
use std::sync::Arc;

fn workload(seed: u64) -> (Graph, Pattern, Arc<Fragmentation>) {
    let g = random::uniform(250, 900, 5, seed);
    let q = patterns::random_cyclic(4, 8, 5, seed + 13);
    let assign = hash_partition(g.node_count(), 6, seed);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 6));
    (g, q, frag)
}

#[test]
fn threaded_and_virtual_agree_on_answers() {
    for seed in 0..8 {
        let (g, q, frag) = workload(seed);
        for algo in [
            Algorithm::dgpm(),
            Algorithm::dgpm_nopt(),
            Algorithm::Dgpms,
            Algorithm::DMes,
            Algorithm::DisHhk,
            Algorithm::MatchCentral,
        ] {
            let virt = SimEngine::builder(&g, Arc::clone(&frag))
                .build()
                .query_with(&algo, &q)
                .unwrap();
            let thr = SimEngine::builder(&g, Arc::clone(&frag))
                .executor(ExecutorKind::Threaded)
                .build()
                .query_with(&algo, &q)
                .unwrap();
            assert_eq!(
                virt.relation, thr.relation,
                "seed {seed}, {}",
                virt.algorithm
            );
        }
    }
}

#[test]
fn virtual_executor_is_deterministic_end_to_end() {
    let (g, q, frag) = workload(3);
    // The tree case: a bushy single-label chain cut into many small
    // fragments, so that dGPMt's coordinator solves a system of a few
    // hundred root equations in which falsity travels up to 8 steps.
    // Its op count (hence PT) once followed the hash order of the
    // map that held the equations.
    let t = tree::random_tree_with_chain_bias(200, 1, 0.9, 3);
    let tq = patterns::path_pattern(8, &[Label(0)]);
    let tfrag = Arc::new(Fragmentation::build(&t, &tree_partition(&t, 64), 64));
    for (g, frag, algo, q) in [
        (&g, &frag, Algorithm::dgpm(), &q),
        (&t, &tfrag, Algorithm::Dgpmt, &tq),
    ] {
        // Every run builds its own engine: nothing may depend on
        // per-instance state such as a hasher seed.
        let run = || {
            let r = SimEngine::builder(g, Arc::clone(frag))
                .build()
                .query_with(&algo, q)
                .unwrap();
            assert_eq!(r.algorithm, algo.name());
            (
                r.relation.clone(),
                r.metrics.virtual_time_ns,
                r.metrics.data_bytes,
                r.metrics.data_messages,
                r.metrics.total_ops,
            )
        };
        let first = run();
        for _ in 0..7 {
            assert_eq!(run(), first, "{}", algo.name());
        }
    }
}

#[test]
fn threaded_runs_tolerate_repeated_execution() {
    // Message interleavings differ between runs; the answer may not.
    let (g, q, frag) = workload(5);
    let first = SimEngine::builder(&g, Arc::clone(&frag))
        .executor(ExecutorKind::Threaded)
        .build()
        .query_with(&Algorithm::dgpm(), &q)
        .unwrap();
    for _ in 0..3 {
        let again = SimEngine::builder(&g, Arc::clone(&frag))
            .executor(ExecutorKind::Threaded)
            .build()
            .query_with(&Algorithm::dgpm(), &q)
            .unwrap();
        assert_eq!(first.relation, again.relation);
    }
}

#[test]
fn wall_clock_is_recorded_by_both_executors() {
    let (g, q, frag) = workload(1);
    let virt = SimEngine::builder(&g, Arc::clone(&frag))
        .build()
        .query_with(&Algorithm::dgpm(), &q)
        .unwrap();
    let thr = SimEngine::builder(&g, frag)
        .executor(ExecutorKind::Threaded)
        .build()
        .query_with(&Algorithm::dgpm(), &q)
        .unwrap();
    assert!(virt.metrics.wall_time.as_nanos() > 0);
    assert!(thr.metrics.wall_time.as_nanos() > 0);
    assert!(virt.metrics.virtual_time_ns > 0);
    assert_eq!(thr.metrics.virtual_time_ns, 0); // wall-clock mode
}
