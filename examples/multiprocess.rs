//! Truly distributed execution: the coordinator and the worker sites
//! run in **separate OS processes**, connected by TCP sockets.
//!
//! ```text
//! cargo run --example multiprocess
//! ```
//!
//! The example re-spawns itself twice with `--worker` (each copy hosts
//! half the sites), bootstraps the cluster with the graph + the
//! fragmentation, runs the same queries under the in-process virtual
//! executor and the socket executor, and shows that the answers — and
//! the shipped-variable accounting — agree. A second socket session
//! runs under a heavy `DeliveryPlan` (drop-then-retry, duplication,
//! reordering) and the answers still agree: the protocol's data messages are
//! idempotent, so at-least-once delivery is safe.
//!
//! In production the workers are `dgsd --worker` processes on other
//! machines and the coordinator attaches by address; see the README's
//! "Truly distributed execution" walkthrough.

use dgs::graph::generate::{patterns, random};
use dgs::net::{DeliveryPlan, SocketConfig};
use dgs::prelude::*;
use std::sync::Arc;

fn main() {
    // Worker mode: host sites for a coordinator, then exit.
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        dgs::core::remote::run_worker_cli("multiprocess-worker", "127.0.0.1:0")
            .expect("worker loop");
        return;
    }

    let me = std::env::current_exe().expect("own executable");
    let spawn = || SocketConfig::spawn_local(me.clone(), vec!["--worker".into()], 2);

    // A cyclic web-like graph over 4 sites.
    let g = random::web_like(2_000, 8_000, 6, 7);
    let assign = hash_partition(g.node_count(), 4, 7);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 4));
    println!(
        "graph |V|={} |E|={}  fragmentation |F|=4 |Vf|={} |Ef|={}",
        g.node_count(),
        g.edge_count(),
        frag.vf(),
        frag.ef()
    );

    let virt = SimEngine::builder(&g, Arc::clone(&frag))
        .cache_capacity(0)
        .build();
    let sock = SimEngine::builder(&g, Arc::clone(&frag))
        .cache_capacity(0)
        .build_socket(spawn())
        .expect("socket cluster");
    {
        let cluster = sock.socket_cluster().expect("socket session");
        println!(
            "spawned {} worker processes: {}",
            cluster.num_workers(),
            cluster.worker_addrs().join(", ")
        );
    }

    for seed in 0..3 {
        let q = patterns::random_cyclic(3, 6, 6, 100 + seed);
        let a = virt.query(&q).expect("virtual");
        let b = sock.query(&q).expect("socket");
        assert_eq!(a.relation, b.relation, "executors disagree!");
        println!(
            "query {seed} ({}): |Q(G)| = {:>4} pairs  virtual: {} data msgs / {} B   \
             socket: {} data msgs / {} B (across real processes)",
            a.algorithm,
            a.answer().len(),
            a.metrics.data_messages,
            a.metrics.data_bytes,
            b.metrics.data_messages,
            b.metrics.data_bytes,
        );
    }
    drop(sock); // shuts the workers down and reaps them

    // Same again, through an adversarial transport.
    let chaotic = SimEngine::builder(&g, frag)
        .cache_capacity(0)
        .build_socket(spawn().delivery(DeliveryPlan::heavy(13)))
        .expect("chaotic cluster");
    let mut dups = 0;
    for seed in 0..3 {
        let q = patterns::random_cyclic(3, 6, 6, 100 + seed);
        let a = virt.query(&q).expect("virtual");
        let b = chaotic.query(&q).expect("chaotic socket");
        assert_eq!(
            a.relation, b.relation,
            "the delivery plan changed an answer!"
        );
        dups += b.metrics.duplicated_messages;
    }
    println!(
        "delivery plan (20% drop-then-retry, 20% duplicate, 30% reorder): \
         all answers identical, {dups} duplicate deliveries absorbed"
    );
    println!("ok");
}
