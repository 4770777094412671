//! Cross-executor conformance and delivery-plan harness.
//!
//! The three executors — deterministic virtual time, real threads, and
//! real OS processes over sockets — must be interchangeable: identical
//! relations (byte-for-byte, the `MatchRelation` representation is
//! canonical sorted lists) and message metrics within documented
//! bounds.
//!
//! ## Documented metric bounds
//!
//! Graph simulation is a monotone fixpoint, so the *set* of shipped
//! falsified variables is executor-invariant; only **batch
//! boundaries** of the asynchronous data phases depend on message
//! interleaving. Hence, across executors:
//!
//! * relations: exactly equal (and equal to the centralized oracle);
//! * `result_messages`: exactly equal — per-site result collection is
//!   one message per site;
//! * `control_messages`: exactly equal for the round-deterministic
//!   protocols (`dGPMt` has no rounds; `dGPMd` — the rank-scheduled
//!   engine on a DAG pattern, where no delivery can falsify a
//!   current-stratum variable and `MoreWork` is never raised — runs
//!   exactly `max_rank + 1` rank rounds). On a cyclic pattern `dGPMs`
//!   repeats a stratum iff some site flags `MoreWork`, and that flag
//!   is **timing-sensitive**: a
//!   `Batch` arriving before the site's own `StartRound` is buffered
//!   silently and shipped by that `StartRound` (one round *earlier*
//!   than the virtual schedule), suppressing the flag. Control counts
//!   therefore agree within `|F| · (1 + |Δrounds|)` — one possible
//!   flag per site per round plus `|F|` `StartRound`s per
//!   added/removed repeat round;
//! * shipped **variables**: exactly equal, recovered from the data
//!   metrics as `(data_bytes − header·data_messages) / 6` where the
//!   per-message header is 5 bytes for `dGPMd` and `dGPMs` alike
//!   (one `Batch` message: 1 tag + 4 vec-length), and each shipped
//!   `Var` is 6 bytes;
//! * `dGPMt` is fully deterministic (one `RootEquations` per site, one
//!   `SolvedFalse` per site): all data metrics exactly equal;
//! * per-site sent-message counts (`site_msgs`): every site sends at
//!   least its result message, and counts differ from the virtual
//!   executor's only by data-batch splitting — bounded by the total
//!   shipped variable count.

use dgs::core::remote::CoreWorkerHost;
use dgs::graph::generate::{dag, patterns, random, tree};
use dgs::net::socket::{run_worker, ErasedSite, WorkerHost};
use dgs::net::{DeliveryPlan, ExecutorKind, RunMetrics, SocketConfig};
use dgs::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Spawn-local worker processes: the test binary spawns `dgsq worker`
/// copies (cargo builds the bin for integration tests).
fn spawn_cfg(workers: usize) -> SocketConfig {
    SocketConfig::spawn_local(env!("CARGO_BIN_EXE_dgsq"), vec!["worker".into()], workers)
        .site_timeout(Duration::from_secs(60))
}

struct Trio {
    virt: SimEngine,
    thr: SimEngine,
    sock: SimEngine,
}

fn trio(g: &Graph, assign: &[usize], k: usize) -> Trio {
    let frag = Arc::new(Fragmentation::build(g, assign, k));
    // Cache off: conformance compares protocol metrics, so every query
    // must actually run the protocol.
    let virt = SimEngine::builder(g, Arc::clone(&frag))
        .executor(ExecutorKind::Virtual)
        .cache_capacity(0)
        .build();
    let thr = SimEngine::builder(g, Arc::clone(&frag))
        .executor(ExecutorKind::Threaded)
        .cache_capacity(0)
        .build();
    let sock = SimEngine::builder(g, frag)
        .cache_capacity(0)
        .build_socket(spawn_cfg(2))
        .expect("socket cluster bootstrap");
    Trio { virt, thr, sock }
}

/// Recovers the shipped-variable count from batched data metrics.
fn shipped_vars(m: &RunMetrics, header: u64) -> u64 {
    assert!(m.data_bytes >= header * m.data_messages, "{m:?}");
    (m.data_bytes - header * m.data_messages) / 6
}

/// The cross-executor assertions; `data_header` is `None` for fully
/// deterministic protocols (exact data equality) and `Some(bytes)`
/// for asynchronous ones (shipped-variable equality).
fn assert_conformance(
    g: &Graph,
    q: &Pattern,
    algo: &Algorithm,
    t: &Trio,
    data_header: Option<u64>,
    control_exact: bool,
) {
    let rv = t.virt.query_with(algo, q).expect("virtual run");
    let rt = t.thr.query_with(algo, q).expect("threaded run");
    let rs = t.sock.query_with(algo, q).expect("socket run");

    // Relations: byte-for-byte identical, and equal to the oracle.
    let oracle = hhk_simulation(q, g).relation;
    assert_eq!(rv.relation, oracle, "virtual vs oracle");
    assert_eq!(rt.relation, oracle, "threaded vs oracle");
    assert_eq!(rs.relation, oracle, "socket vs oracle");
    assert_eq!(rv.algorithm, rs.algorithm);

    // Result collection is one message per site: deterministic.
    let k = rv.metrics.site_msgs.len() as u64;
    for (name, r) in [("threaded", &rt), ("socket", &rs)] {
        assert_eq!(
            r.metrics.result_messages, rv.metrics.result_messages,
            "{name} result messages"
        );
        assert_eq!(
            r.metrics.result_bytes, rv.metrics.result_bytes,
            "{name} result bytes"
        );
        if control_exact {
            assert_eq!(
                r.metrics.control_messages, rv.metrics.control_messages,
                "{name} control messages"
            );
        } else {
            // dGPMs: MoreWork flags (≤ 1 per site per round) and repeat
            // rounds (|F| StartRounds each) are timing-sensitive.
            let round_diff = r
                .metrics
                .quiescence_rounds
                .abs_diff(rv.metrics.quiescence_rounds);
            let slack = k * (1 + round_diff);
            assert!(
                r.metrics
                    .control_messages
                    .abs_diff(rv.metrics.control_messages)
                    <= slack,
                "{name} control messages: {} vs virtual {} (slack {slack})",
                r.metrics.control_messages,
                rv.metrics.control_messages
            );
        }
    }

    match data_header {
        // Asynchronous data phase: batch boundaries may differ, the
        // shipped variable multiset may not.
        Some(header) => {
            let vars = shipped_vars(&rv.metrics, header);
            for (name, r) in [("threaded", &rt), ("socket", &rs)] {
                assert_eq!(
                    shipped_vars(&r.metrics, header),
                    vars,
                    "{name} shipped variables"
                );
            }
        }
        // Fully deterministic protocol: exact data equality.
        None => {
            for (name, r) in [("threaded", &rt), ("socket", &rs)] {
                assert_eq!(r.metrics.data_messages, rv.metrics.data_messages, "{name}");
                assert_eq!(r.metrics.data_bytes, rv.metrics.data_bytes, "{name}");
            }
        }
    }

    // Per-site sent-message counts: every site answers the gather, and
    // counts differ from virtual only by data-batch splitting.
    let mut slack: u64 = match data_header {
        Some(h) => shipped_vars(&rv.metrics, h),
        None => 0,
    };
    if !control_exact {
        // Timing-sensitive MoreWork flags: at most one per round.
        slack += rv
            .metrics
            .quiescence_rounds
            .max(rt.metrics.quiescence_rounds)
            .max(rs.metrics.quiescence_rounds);
    }
    for (name, r) in [("threaded", &rt), ("socket", &rs)] {
        assert_eq!(r.metrics.site_msgs.len(), rv.metrics.site_msgs.len());
        for (i, (&got, &base)) in r
            .metrics
            .site_msgs
            .iter()
            .zip(&rv.metrics.site_msgs)
            .enumerate()
        {
            assert!(got >= 1, "{name}: site {i} sent nothing");
            assert!(
                got.abs_diff(base) <= slack,
                "{name}: site {i} sent {got} msgs vs virtual {base} (slack {slack})"
            );
        }
    }

    // The socket run's per-site visit accounting flowed back over the
    // wire: charged ops are execution-order-independent totals.
    assert_eq!(rs.metrics.total_ops, rv.metrics.total_ops, "socket ops");
    assert_eq!(rs.metrics.site_ops, rv.metrics.site_ops, "socket site ops");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(34))]

    /// Trees (connected fragments) under dGPMt: fully deterministic
    /// protocol, exact metric equality across all three executors.
    #[test]
    fn conformance_on_trees(
        n in 20usize..90,
        k in 2usize..5,
        seed in any::<u64>(),
    ) {
        let g = tree::random_tree(n, 4, seed);
        let assign = tree_partition(&g, k);
        let t = trio(&g, &assign, k);
        let q = patterns::random_dag_with_depth(3, 4, 2, 4, seed ^ 0x9a);
        assert_conformance(&g, &q, &Algorithm::Dgpmt, &t, None, true);
    }

    /// DAG graphs under dGPMd: rank-round batching, shipped-variable
    /// equality.
    #[test]
    fn conformance_on_dags(
        n in 30usize..120,
        k in 2usize..5,
        seed in any::<u64>(),
    ) {
        let g = dag::citation_like(n, 3 * n, 5, seed);
        let assign = hash_partition(g.node_count(), k, seed);
        let t = trio(&g, &assign, k);
        let q = patterns::random_dag_with_depth(3, 5, 2, 5, seed ^ 0x37);
        // Header 5 = 9 − 4: the rank field left with the `dGPMd` fork.
        assert_conformance(&g, &q, &Algorithm::Dgpmd, &t, Some(5), true);
    }

    /// Cyclic graphs and patterns under dGPMs: stratum-round batching,
    /// shipped-variable equality.
    #[test]
    fn conformance_on_cyclic(
        n in 30usize..120,
        k in 2usize..5,
        seed in any::<u64>(),
    ) {
        let g = random::uniform(n, 4 * n, 5, seed);
        let assign = hash_partition(g.node_count(), k, seed);
        let t = trio(&g, &assign, k);
        let q = patterns::random_cyclic(3, 6, 5, seed ^ 0x5c);
        assert_conformance(&g, &q, &Algorithm::Dgpms, &t, Some(5), false);
    }
}

/// `Auto` end-to-end on a socket session: the planner, the session
/// surface and the remote execution compose.
#[test]
fn auto_on_socket_agrees_with_oracle() {
    let g = random::uniform(150, 600, 5, 42);
    let assign = hash_partition(g.node_count(), 4, 42);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 4));
    let engine = SimEngine::builder(&g, frag)
        .build_socket(spawn_cfg(3))
        .unwrap();
    for seed in 0..5 {
        let q = patterns::random_cyclic(3, 6, 5, 420 + seed);
        let report = engine.query(&q).unwrap();
        assert_eq!(
            report.relation,
            hhk_simulation(&q, &g).relation,
            "seed {seed}"
        );
        assert!(report.plan.auto);
    }
    // Cache semantics hold on socket sessions too: an isomorphic
    // resubmission is served with zero messages.
    let q = patterns::random_cyclic(3, 6, 5, 420);
    let warm = engine.query(&q).unwrap();
    assert_eq!(warm.metrics.cache_hits, 1);
    assert_eq!(warm.metrics.data_messages, 0);
}

/// Boolean and batch query surfaces work over the socket executor.
#[test]
fn boolean_and_batch_on_socket() {
    let g = random::uniform(100, 400, 4, 77);
    let assign = hash_partition(g.node_count(), 3, 77);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
    let engine = SimEngine::builder(&g, Arc::clone(&frag))
        .cache_capacity(0)
        .build_socket(spawn_cfg(2))
        .unwrap();
    let oracle_engine = SimEngine::builder(&g, frag).cache_capacity(0).build();
    let qs: Vec<Pattern> = (0..4)
        .map(|i| patterns::random_cyclic(3, 6, 4, 770 + i))
        .collect();
    let batch = engine.query_batch(&qs);
    assert_eq!(batch.succeeded(), 4);
    for (r, q) in batch.reports.iter().zip(&qs) {
        let r = r.as_ref().unwrap();
        assert_eq!(r.relation, oracle_engine.query(q).unwrap().relation);
    }
    let b = engine.query_boolean(&qs[0]).unwrap();
    assert_eq!(b.is_match, batch.reports[0].as_ref().unwrap().is_match);
}

/// Regression: a graph delta on a socket session must re-bootstrap
/// the worker processes — without it, post-delta queries silently ran
/// against the stale pre-delta graph the workers loaded at cluster
/// start.
#[test]
fn delta_rebootstraps_socket_workers() {
    let g = random::uniform(100, 400, 4, 67);
    let assign = hash_partition(g.node_count(), 3, 67);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
    let engine = SimEngine::builder(&g, frag)
        .cache_capacity(0)
        .build_socket(spawn_cfg(2))
        .unwrap();
    let q = patterns::random_cyclic(3, 6, 4, 67);
    assert_eq!(
        engine.query(&q).unwrap().relation,
        hhk_simulation(&q, &g).relation
    );

    // Insert fresh edges (insertions invalidate and re-plan, so the
    // follow-up query really runs the protocol — on the workers).
    let mut inserts = Vec::new();
    'outer: for u in g.nodes() {
        for v in g.nodes() {
            if u != v && !g.has_edge(u, v) {
                inserts.push((u, v));
                if inserts.len() == 10 {
                    break 'outer;
                }
            }
        }
    }
    let report = engine
        .apply_delta(&GraphDelta::insertions(inserts))
        .unwrap();
    assert_eq!(report.inserted, 10);
    let after = engine.query(&q).unwrap();
    assert!(after.metrics.cache_hits == 0, "must re-run the protocol");
    assert_eq!(
        after.relation,
        hhk_simulation(&q, &engine.graph()).relation,
        "socket workers answered on the stale pre-delta graph"
    );

    // Deletions too (maintenance runs in-process, but an explicit
    // engine request executes on the re-bootstrapped workers).
    let dels: Vec<_> = engine.graph().edges().take(12).collect();
    engine.apply_delta(&GraphDelta::deletions(dels)).unwrap();
    let again = engine.query_with(&Algorithm::Dgpms, &q).unwrap();
    assert_eq!(again.relation, hhk_simulation(&q, &engine.graph()).relation);
}

/// A heavy delivery plan — drop-then-retry + duplication +
/// delay/reorder — on the real socket transport must not change any answer — the protocol's data
/// messages are idempotent (at-least-once safe), which this proves
/// over an actual TCP transport rather than the virtual-time model.
#[test]
fn chaos_transport_preserves_answers_over_real_sockets() {
    let g = random::uniform(120, 500, 4, 9);
    let assign = hash_partition(g.node_count(), 4, 9);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 4));
    let oracle_engine = SimEngine::builder(&g, Arc::clone(&frag))
        .cache_capacity(0)
        .build();
    let mut total_data = 0u64;
    let mut total_dup = 0u64;
    for plan_seed in 0..3u64 {
        let cfg = spawn_cfg(2).delivery(DeliveryPlan::heavy(plan_seed));
        let engine = SimEngine::builder(&g, Arc::clone(&frag))
            .cache_capacity(0)
            .build_socket(cfg)
            .unwrap();
        for qseed in 0..4 {
            let q = patterns::random_cyclic(3, 6, 4, 90 + qseed);
            let chaotic = engine.query(&q).unwrap();
            let clean = oracle_engine.query(&q).unwrap();
            assert_eq!(
                chaotic.relation, clean.relation,
                "plan seed {plan_seed}, query seed {qseed}"
            );
            total_data += chaotic.metrics.data_messages;
            total_dup += chaotic.metrics.duplicated_messages;
        }
    }
    // The plan really fired: with hundreds of data messages at a
    // 20% duplicate rate, retransmissions must have been recorded.
    assert!(total_data > 0, "workload shipped no data at all");
    assert!(
        total_dup > 0,
        "the heavy plan duplicated nothing across {total_data} data messages"
    );
}

/// A killed worker process yields a typed `DgsError::SiteFailed` —
/// not a hang, not a panic — and the session object stays usable.
#[test]
fn killed_worker_is_a_typed_error() {
    let g = random::uniform(80, 320, 4, 13);
    let assign = hash_partition(g.node_count(), 3, 13);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
    let engine = SimEngine::builder(&g, frag)
        .cache_capacity(0)
        .build_socket(spawn_cfg(2).site_timeout(Duration::from_secs(10)))
        .unwrap();
    let q = patterns::random_cyclic(3, 5, 4, 13);
    engine.query(&q).expect("healthy cluster answers"); // healthy first

    // kill -9 one worker.
    let pids = engine.socket_cluster().unwrap().worker_pids();
    assert_eq!(pids.len(), 2);
    let status = std::process::Command::new("kill")
        .args(["-9", &pids[0].to_string()])
        .status()
        .expect("kill spawns");
    assert!(status.success());
    // Give the OS a moment to tear the connection down.
    std::thread::sleep(Duration::from_millis(100));

    let err = engine.query(&q).unwrap_err();
    assert!(
        matches!(err, DgsError::SiteFailed { .. }),
        "expected SiteFailed, got {err}"
    );
    // And it keeps failing typed (no hang) rather than poisoning.
    let err = engine.query(&q).unwrap_err();
    assert!(matches!(err, DgsError::SiteFailed { .. }), "{err}");
}

/// Regression: a delta that fails — here because re-shipping the graph
/// meets a dead worker — must be a no-op. It used to run maintenance
/// first, which left every counter state one batch ahead of the rows
/// it belongs to and orphan rows under a generation that was never
/// published. A batch a live worker fails leaves the session usable:
/// it costs the next batch one copy of the fragmentation, and the
/// batches after it are exact.
#[test]
fn failed_delta_on_socket_session_is_a_noop() {
    let g = random::uniform(80, 320, 4, 13);
    let assign = hash_partition(g.node_count(), 3, 13);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
    let engine = SimEngine::builder(&g, frag)
        .build_socket(spawn_cfg(2).site_timeout(Duration::from_secs(10)))
        .unwrap();
    let q = patterns::random_cyclic(3, 5, 4, 13);
    let warm = engine.query(&q).expect("healthy cluster answers");
    let generation = engine.generation();
    let entries = engine.cache_stats().unwrap().entries;
    assert_eq!(entries, 1);

    let pids = engine.socket_cluster().unwrap().worker_pids();
    let status = std::process::Command::new("kill")
        .args(["-9", &pids[0].to_string()])
        .status()
        .expect("kill spawns");
    assert!(status.success());
    std::thread::sleep(Duration::from_millis(100));

    let dels: Vec<_> = g.edges().take(8).collect();
    let err = engine
        .apply_delta(&GraphDelta::deletions(dels))
        .unwrap_err();
    assert!(matches!(err, DgsError::SiteFailed { .. }), "{err}");
    assert_eq!(engine.generation(), generation);
    assert_eq!(engine.cache_stats().unwrap().entries, entries);
    let again = engine.query(&q).expect("the cached answer needs no worker");
    assert_eq!(again.metrics.cache_hits, 1);
    assert_eq!(again.relation, warm.relation);

    // A live worker that rejects one bootstrap fails a batch the same
    // way, after the batch has taken the retired generation it replays
    // onto. The session stays usable: the next batch pays the one copy
    // that costs, the one after replays again, and both are exact.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let reject = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&reject);
    let worker = std::thread::spawn(move || {
        let (conn, _) = listener.accept().unwrap();
        let mut host = RejectingHost {
            host: CoreWorkerHost::new(),
            reject: flag,
        };
        run_worker(conn, &mut host)
    });
    let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
    let engine = SimEngine::builder(&g, frag)
        .build_socket(SocketConfig::attach(vec![addr]))
        .unwrap();
    engine.query(&q).unwrap();
    let dels: Vec<_> = g.edges().skip(8).take(16).collect();
    let without = |gone: &[(NodeId, NodeId)]| {
        let mut b = GraphBuilder::new();
        for v in g.nodes() {
            b.add_node(g.label(v));
        }
        for (u, v) in g.edges().filter(|e| !gone.contains(e)) {
            b.add_edge(u, v);
        }
        b.build()
    };
    let exact_after = |batches: usize| {
        engine
            .apply_delta(&GraphDelta::deletions(
                dels[4 * (batches - 1)..4 * batches].to_vec(),
            ))
            .unwrap();
        let oracle = hhk_simulation(&q, &without(&dels[..4 * batches])).relation;
        assert_eq!(engine.query(&q).unwrap().relation, oracle);
        let cold = engine.query_with(&Algorithm::Dgpms, &q).unwrap();
        assert_eq!(
            cold.relation, oracle,
            "the workers run the replayed generation"
        );
        engine.stats().generations_copied()
    };
    exact_after(1);
    let copied = exact_after(2);
    let generation = engine.generation();
    reject.store(true, Ordering::SeqCst);
    let err = engine
        .apply_delta(&GraphDelta::deletions(dels[8..12].to_vec()))
        .unwrap_err();
    assert!(
        err.to_string().contains("rejected the session bootstrap"),
        "{err}"
    );
    assert_eq!(engine.generation(), generation);
    assert_eq!(engine.stats().generations_copied(), copied, "it replayed");
    assert_eq!(exact_after(3), copied + 1, "no retired generation left");
    assert_eq!(exact_after(4), copied + 1, "replay resumes");
    drop(engine);
    assert!(worker.join().unwrap().is_ok());
}

/// A worker that loads bootstraps as a real one does, except the one
/// after `reject` is set, which it refuses.
struct RejectingHost {
    host: CoreWorkerHost,
    reject: Arc<AtomicBool>,
}

impl WorkerHost for RejectingHost {
    fn load(&mut self, blob: &[u8]) -> Result<(), String> {
        if self.reject.swap(false, Ordering::SeqCst) {
            return Err("refused".into());
        }
        self.host.load(blob)
    }

    fn build_site(
        &self,
        site: u32,
        num_sites: usize,
        spec: &[u8],
    ) -> Result<Box<dyn ErasedSite>, String> {
        self.host.build_site(site, num_sites, spec)
    }
}

/// Attach mode: workers started independently (here: `dgsq worker`
/// processes we spawn by hand, in production `dgsd --worker`) can be
/// attached to by address.
#[test]
fn attach_mode_runs_against_external_workers() {
    use std::io::BufRead;
    let mut workers = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..2 {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_dgsq"))
            .args(["worker", "--listen", "127.0.0.1:0"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let stdout = child.stdout.take().unwrap();
        let mut lines = std::io::BufReader::new(stdout).lines();
        let line = lines.next().unwrap().unwrap();
        let addr = line
            .split("listening on ")
            .nth(1)
            .expect("announce line")
            .trim()
            .to_owned();
        addrs.push(addr);
        workers.push(child);
    }
    let g = random::uniform(90, 360, 4, 21);
    let assign = hash_partition(g.node_count(), 3, 21);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
    let q = patterns::random_cyclic(3, 6, 4, 21);
    let oracle = hhk_simulation(&q, &g).relation;
    let engine = SimEngine::builder(&g, Arc::clone(&frag))
        .cache_capacity(0)
        .build_socket(SocketConfig::attach(addrs.clone()))
        .unwrap();
    assert_eq!(engine.query(&q).unwrap().relation, oracle);
    drop(engine);
    // Attached workers are externally managed: dropping the session
    // closes its connections but leaves them up for the next
    // coordinator (the two-terminal dgsd --worker flow).
    let engine2 = SimEngine::builder(&g, frag)
        .cache_capacity(0)
        .build_socket(SocketConfig::attach(addrs))
        .unwrap();
    assert_eq!(engine2.query(&q).unwrap().relation, oracle);
    drop(engine2);
    for mut w in workers {
        assert!(
            w.try_wait().unwrap().is_none(),
            "attached worker exited on coordinator drop"
        );
        w.kill().unwrap();
        w.wait().unwrap();
    }
}

/// Regression (threaded executor): a panicking site handler surfaces
/// as `DgsError::SiteFailed` naming the site instead of poisoning the
/// run ambiguously. The trigger is real: the Boolean gather path's
/// 64-node presence-bitmask limit is an `assert!` inside the site
/// handler.
#[test]
fn threaded_site_panic_is_typed_site_failed() {
    let g = random::uniform(80, 300, 3, 31);
    let assign = hash_partition(g.node_count(), 3, 31);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
    let engine = SimEngine::builder(&g, frag)
        .executor(ExecutorKind::Threaded)
        .cache_capacity(0)
        .build();
    // 65 query nodes: every site's Boolean gather handler panics on
    // the presence-bitmask limit.
    let mut pb = PatternBuilder::new();
    let nodes: Vec<QNodeId> = (0..65).map(|i| pb.add_node(Label(i % 3))).collect();
    for w in nodes.windows(2) {
        pb.add_edge(w[0], w[1]);
    }
    let q = pb.build();
    let err = engine
        .query_boolean_with(&Algorithm::dgpm_incremental_only(), &q)
        .unwrap_err();
    match err {
        DgsError::SiteFailed { reason, .. } => {
            assert!(reason.contains("presence bitmask"), "{reason}");
        }
        other => panic!("expected SiteFailed, got {other}"),
    }
    // The session survives the failed run.
    let ok = patterns::random_cyclic(3, 5, 3, 31);
    assert!(engine.query(&ok).is_ok());
}

/// The baselines are gated, not broken: a socket session reports a
/// typed `Unsupported` error before any frame is sent.
#[test]
fn baselines_are_gated_on_socket_sessions() {
    let g = random::uniform(60, 240, 4, 55);
    let assign = hash_partition(g.node_count(), 2, 55);
    let frag = Arc::new(Fragmentation::build(&g, &assign, 2));
    let engine = SimEngine::builder(&g, frag)
        .cache_capacity(0)
        .build_socket(spawn_cfg(1))
        .unwrap();
    let q = patterns::random_cyclic(3, 5, 4, 55);
    for algo in [Algorithm::MatchCentral, Algorithm::DisHhk, Algorithm::DMes] {
        let err = engine.query_with(&algo, &q).unwrap_err();
        assert!(
            matches!(err, DgsError::Unsupported { .. }),
            "{}: {err}",
            algo.name()
        );
    }
    // The dGPM family still runs on the same session.
    assert!(engine.query_with(&Algorithm::dgpm(), &q).is_ok());
}

/// `dgsq query --executor socket` works end-to-end: the CLI spawns
/// its own workers, answers, and tears everything down.
#[test]
fn dgsq_socket_executor_end_to_end() {
    use std::io::Write as _;
    let dir = std::env::temp_dir().join(format!("dgs-exec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gpath = dir.join("g.txt");
    let qpath = dir.join("q.txt");
    let g = random::uniform(200, 800, 5, 3);
    let q = patterns::random_cyclic(3, 6, 5, 3);
    dgs::graph::io::write_graph(&g, std::fs::File::create(&gpath).unwrap()).unwrap();
    dgs::graph::io::write_pattern(&q, std::fs::File::create(&qpath).unwrap()).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dgsq"))
        .args([
            "query",
            "--graph",
            gpath.to_str().unwrap(),
            "--pattern",
            qpath.to_str().unwrap(),
            "--sites",
            "3",
            "--executor",
            "socket",
            "--workers",
            "2",
        ])
        .output()
        .unwrap();
    std::io::stderr().write_all(&out.stderr).unwrap();
    assert!(out.status.success(), "dgsq exited {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("socket executor: 3 sites across 2 worker"),
        "{stdout}"
    );
    assert!(stdout.contains("match = "), "{stdout}");

    // Same answer as the in-process run.
    let expected = {
        let assign = hash_partition(g.node_count(), 3, 1);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
        let engine = SimEngine::builder(&g, frag).build();
        engine.query(&q).unwrap().is_match
    };
    assert!(stdout.contains(&format!("match = {expected}")), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Intra-query parallelism conformance: a single query with the full
/// intra-query worker budget must be **byte-identical** to the fully
/// sequential run — same relation, same plan choice, same virtual
/// metrics (only `wall_time` is real time) — and equal to the
/// centralized oracle, on every engine and under every executor.
#[test]
fn intra_query_parallelism_is_bit_identical() {
    let g = random::uniform(600, 2_400, 5, 77);
    let q = patterns::random_cyclic(4, 8, 5, 78);
    let k = 6;
    let assign = hash_partition(g.node_count(), k, 77);
    let frag = Arc::new(Fragmentation::build(&g, &assign, k));
    let oracle = hhk_simulation(&q, &g);

    let build = |workers: usize, kind: ExecutorKind| {
        SimEngine::builder(&g, Arc::clone(&frag))
            .executor(kind)
            .cache_capacity(0)
            .batch_workers(workers)
            .build()
    };
    let seq = build(1, ExecutorKind::Virtual);
    for workers in [2, k, 32] {
        let par = build(workers, ExecutorKind::Virtual);
        for algo in [
            Algorithm::dgpm(),
            Algorithm::dgpm_nopt(),
            Algorithm::Dgpmd,
            Algorithm::Dgpms,
            Algorithm::Dgpmt,
            Algorithm::MatchCentral,
            Algorithm::DisHhk,
            Algorithm::DMes,
            Algorithm::Auto,
        ] {
            let (a, b) = match (seq.query_with(&algo, &q), par.query_with(&algo, &q)) {
                (Ok(a), Ok(b)) => (a, b),
                // Structure-gated engines reject this workload the
                // same way on both paths.
                (Err(ea), Err(eb)) => {
                    assert_eq!(format!("{ea}"), format!("{eb}"));
                    continue;
                }
                (a, b) => panic!("diverging outcomes: {:?} vs {:?}", a.is_err(), b.is_err()),
            };
            assert_eq!(a.relation, oracle.relation, "{}", a.algorithm);
            assert_eq!(a.relation, b.relation, "{}", a.algorithm);
            assert_eq!(a.algorithm, b.algorithm);
            let mut ma = a.metrics.clone();
            let mut mb = b.metrics.clone();
            ma.wall_time = Duration::ZERO;
            mb.wall_time = Duration::ZERO;
            assert_eq!(
                ma, mb,
                "virtual metrics must be bit-identical ({})",
                a.algorithm
            );
        }
    }

    // The threaded and socket executors are already per-site parallel;
    // the worker budget must not change their answers either.
    let thr = build(k, ExecutorKind::Threaded);
    let report = thr.query_with(&Algorithm::dgpm(), &q).unwrap();
    assert_eq!(report.relation, oracle.relation);
    let sock = SimEngine::builder(&g, Arc::clone(&frag))
        .cache_capacity(0)
        .batch_workers(k)
        .build_socket(spawn_cfg(2))
        .expect("socket cluster bootstrap");
    let report = sock.query_with(&Algorithm::dgpm(), &q).unwrap();
    assert_eq!(report.relation, oracle.relation);
}

/// A batch's one maintenance run agrees across executors: a virtual
/// and a threaded session given the same multi-entry batches report
/// the same per-entry diffs, pair counts and maintenance data
/// messages, in the same four rounds — so the threaded session spawns
/// one thread set per batch, not one per entry. Every crossing edge
/// points from site 0 to site 1, so only site 1 ships falsifications,
/// marks and candidacy rows, each from a handler the coordinator's
/// barriers start: how many data messages a batch takes does not
/// depend on thread timing.
#[test]
fn maintenance_runs_agree_across_executors() {
    let (n, half) = (160, 80);
    let site = |v: NodeId| usize::from(v.index() >= half);
    let base = random::uniform(n, 5 * n, 3, 5);
    let mut b = GraphBuilder::new();
    for v in base.nodes() {
        b.add_node(base.label(v));
    }
    let forward = |&(u, v): &(NodeId, NodeId)| u != v && site(u) <= site(v);
    for (u, v) in base.edges().filter(forward) {
        b.add_edge(u, v);
    }
    let g = b.build();
    let assign: Vec<usize> = g.nodes().map(site).collect();
    let mut keys = std::collections::HashSet::new();
    let qs: Vec<Pattern> = (0..)
        .map(|i| patterns::random_cyclic(3 + (i % 3) as usize, 4 + (i % 3) as usize, 3, i))
        .filter(|q| hhk_simulation(q, &g).matches() && keys.insert(SimEngine::pattern_canon(q).0))
        .take(8)
        .collect();
    let [virt, thr] = [ExecutorKind::Virtual, ExecutorKind::Threaded].map(|kind| {
        let frag = Arc::new(Fragmentation::build(&g, &assign, 2));
        let engine = SimEngine::builder(&g, frag).executor(kind).build();
        for q in &qs {
            engine.query(q).unwrap();
        }
        engine
    });

    let mut present: Vec<(NodeId, NodeId)> = g.edges().collect();
    let mut rng = 5u64;
    let mut next = |bound: usize| {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        (rng >> 33) as usize % bound
    };
    let (mut moved, mut data) = (0, 0);
    for batch in 0..6 {
        let mut delta = GraphDelta::default();
        while delta.insert_edges.len() < 6 {
            let e = (NodeId(next(n) as u32), NodeId(next(n) as u32));
            if forward(&e) && !present.contains(&e) && !delta.insert_edges.contains(&e) {
                delta.insert_edges.push(e);
            }
        }
        for _ in 0..6 {
            delta
                .delete_edges
                .push(present.swap_remove(next(present.len())));
        }
        present.extend(&delta.insert_edges);
        let (rv, rt) = (
            virt.apply_delta(&delta).unwrap(),
            thr.apply_delta(&delta).unwrap(),
        );
        assert_eq!(rv.maintained_entries, qs.len());
        assert_eq!(rt.maintained_entries, qs.len());
        assert_eq!(rv.maintained_diffs, rt.maintained_diffs, "batch {batch}");
        assert_eq!(
            (rv.revoked_pairs, rv.resurrected_pairs),
            (rt.revoked_pairs, rt.resurrected_pairs),
            "batch {batch}"
        );
        assert_eq!(
            rv.metrics.data_messages, rt.metrics.data_messages,
            "batch {batch}"
        );
        assert_eq!(rv.metrics.quiescence_rounds, 4, "batch {batch}");
        assert_eq!(rt.metrics.quiescence_rounds, 4, "batch {batch}");
        moved += rv.revoked_pairs + rv.resurrected_pairs;
        data += rv.metrics.data_messages;
    }
    assert!(
        moved > 0 && data > 0,
        "{moved} pairs moved, {data} data messages"
    );
    let now = virt.graph();
    for q in &qs {
        let oracle = hhk_simulation(q, &now).relation;
        assert_eq!(virt.query(q).unwrap().relation, oracle);
        assert_eq!(thr.query(q).unwrap().relation, oracle);
    }
}
