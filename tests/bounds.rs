//! Empirical checks of the paper's performance bounds (Theorems 2, 3
//! and Corollary 4): the data-shipment guarantees are inequalities we
//! can verify exactly, message by message.

use dgs::graph::generate::{dag, patterns, random, tree};
use dgs::prelude::*;
use std::sync::Arc;

/// A `Falsified` message costs 5 bytes of framing plus 6 bytes per
/// shipped variable (see `dgs_core::dgpm::DgpmMsg`).
fn shipped_vars(metrics: &RunMetrics) -> u64 {
    (metrics.data_bytes - 5 * metrics.data_messages) / 6
}

/// Theorem 2: dGPM (without push) ships at most one falsification per
/// (crossing edge, query node) pair — `O(|Ef||Vq|)`.
#[test]
fn dgpm_shipment_bounded_by_ef_times_vq() {
    for seed in 0..8 {
        let g = random::uniform(300, 1_200, 4, seed);
        let q = patterns::random_cyclic(4, 8, 4, seed + 3);
        let k = 5;
        let assign = hash_partition(g.node_count(), k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let report = SimEngine::builder(&g, Arc::clone(&frag))
            .build()
            .query_with(&Algorithm::dgpm_incremental_only(), &q)
            .unwrap();
        let bound = (frag.ef() * q.node_count()) as u64;
        assert!(
            shipped_vars(&report.metrics) <= bound,
            "seed {seed}: shipped {} > |Ef||Vq| = {bound}",
            shipped_vars(&report.metrics)
        );
    }
}

/// Theorem 3: dGPMd sends at most one batch per ordered site pair per
/// rank round, and its shipment stays within the dGPM bound.
#[test]
fn dgpmd_message_and_shipment_bounds() {
    for seed in 0..6 {
        let g = dag::citation_like(400, 1_100, 5, seed);
        let d = 4;
        let q = patterns::random_dag_with_depth(7, 11, d, 5, seed + 31);
        let k = 5;
        let assign = hash_partition(g.node_count(), k, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let report = SimEngine::builder(&g, frag)
            .build()
            .query_with(&Algorithm::Dgpmd, &q)
            .unwrap();
        let max_batches = ((d + 1) * k * (k - 1)) as u64;
        assert!(
            report.metrics.data_messages <= max_batches,
            "seed {seed}: {} messages > {max_batches}",
            report.metrics.data_messages
        );
    }
}

/// Corollary 4: dGPMt's shipment is O(|Q||F|) — growing the tree by
/// 16× with fixed |F| leaves DS essentially unchanged, and the
/// absolute volume stays tiny.
#[test]
fn dgpmt_shipment_independent_of_graph_size() {
    let q = patterns::path_pattern(3, &[Label(0), Label(1), Label(2)]);
    let k = 6;
    let ds_of = |n: usize| {
        let g = tree::random_tree_with_chain_bias(n, 4, 0.4, 5);
        let assign = tree_partition(&g, k);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let report = SimEngine::builder(&g, frag)
            .build()
            .query_with(&Algorithm::Dgpmt, &q)
            .unwrap();
        report.metrics.data_bytes
    };
    let small = ds_of(500);
    let large = ds_of(8_000);
    assert!(
        large <= small.max(1) * 4,
        "tree DS grew with |G|: {small} -> {large}"
    );
    // Absolute sanity: a handful of equations and assignments, KBs at
    // most.
    assert!(large < 16 * 1024);
}

/// The dGPM response-time bound is partition bounded, not a function
/// of |G|: on community graphs with *fixed* crossing structure,
/// growing |G| grows PT at most linearly through |Fm| (never through
/// global coordination rounds).
#[test]
fn dgpm_rounds_do_not_grow_with_graph_size() {
    let q = patterns::random_cyclic(4, 8, 6, 11);
    let rounds_of = |n: usize| {
        let g = random::community(n, 4 * n, 4, 0.05, 6, 11);
        let assign = random::community_assignment(n, 4);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 4));
        let report = SimEngine::builder(&g, frag)
            .build()
            .query_with(&Algorithm::dgpm_incremental_only(), &q)
            .unwrap();
        report.metrics.quiescence_rounds
    };
    // Quiescence rounds (fixpoint + gather) are workload-shape, not
    // size, dependent.
    assert_eq!(rounds_of(500), rounds_of(4_000));
}

/// dMes ships at least an order of magnitude more data than dGPM on
/// workloads with real falsification traffic — the Fig. 6(b) gap.
#[test]
fn dmes_ships_more_than_dgpm() {
    let mut gaps = Vec::new();
    for seed in 0..5 {
        let g = random::uniform(400, 1_600, 4, seed + 60);
        let q = patterns::random_cyclic(4, 8, 4, seed + 61);
        let assign = hash_partition(g.node_count(), 6, seed);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 6));
        let engine = SimEngine::builder(&g, frag).build();
        let dgpm = engine
            .query_with(&Algorithm::dgpm_incremental_only(), &q)
            .unwrap();
        let dmes = engine.query_with(&Algorithm::DMes, &q).unwrap();
        assert_eq!(dgpm.relation, dmes.relation);
        gaps.push(dmes.metrics.data_bytes as f64 / dgpm.metrics.data_bytes.max(1) as f64);
    }
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
    assert!(
        mean_gap > 10.0,
        "dMes should ship far more than dGPM, got mean ratio {mean_gap:.1} ({gaps:?})"
    );
}

/// Match ships the entire graph; dGPM ships orders of magnitude less
/// — in the paper's regime, i.e. a partition with |Ef| ≪ |E| (the
/// paper refines random partitions down to |Vf| = 25%; here the
/// community structure plays that role).
#[test]
fn match_ships_the_graph_dgpm_does_not() {
    let k = 8;
    let g = random::community(5_000, 20_000, k, 0.02, 5, 77);
    let q = patterns::random_cyclic(5, 10, 5, 78);
    let assign = random::community_assignment(g.node_count(), k);
    let frag = Arc::new(Fragmentation::build(&g, &assign, k));
    let engine = SimEngine::builder(&g, Arc::clone(&frag)).build();
    let m = engine.query_with(&Algorithm::MatchCentral, &q).unwrap();
    let d = engine
        .query_with(&Algorithm::dgpm_incremental_only(), &q)
        .unwrap();
    assert_eq!(m.relation, d.relation);
    // Match's DS ≈ serialized |G| (6 bytes/node + 8 bytes/edge).
    assert!(m.metrics.data_bytes as usize >= 6 * g.node_count() + 8 * g.edge_count());
    assert!(
        d.metrics.data_bytes * 10 < m.metrics.data_bytes,
        "dGPM {} vs Match {}",
        d.metrics.data_bytes,
        m.metrics.data_bytes
    );
    // And dGPM respects its Theorem 2 bound on this workload too.
    assert!(shipped_vars(&d.metrics) <= (frag.ef() * q.node_count()) as u64);
}

/// What an engine ships is a function of the fixpoint, not of how a
/// site seeds its counters or finds a subscriber list: on fixed inputs
/// the shipment counters equal the constants recorded on the commit
/// before tally seeding and the index-carrying ship path (PR 15), and
/// the charged work is strictly below that commit's. `dGPMt` is the
/// exception on work, by arithmetic: a fragment of a tree has
/// `|Ei| < |Vi| + |Fi.O|`, so `|Ei| + ne·|Vi|` seeding steps are more
/// than the `ne·|Ei|` bit tests they replace — by exactly the sum
/// asserted below.
#[test]
fn shipment_counts_are_pinned() {
    let k = 4;
    let cyc_g = random::uniform(300, 1_200, 4, 2);
    let cyc_q = patterns::random_cyclic(4, 8, 4, 5);
    let dag_g = dag::citation_like(400, 1_100, 5, 1);
    let dag_q = patterns::random_dag_with_depth(6, 9, 3, 5, 32);
    let tree_g = tree::random_tree_with_chain_bias(400, 4, 0.4, 5);
    let tree_q = patterns::path_pattern(3, &[Label(0), Label(1), Label(2)]);
    let hashed = |g: &Graph| {
        let assign = hash_partition(g.node_count(), k, 7);
        Arc::new(Fragmentation::build(g, &assign, k))
    };
    let tree_frag = Arc::new(Fragmentation::build(
        &tree_g,
        &tree_partition(&tree_g, k),
        k,
    ));
    let ne = tree_q.edges().count();
    let tree_seeding_delta: usize = (tree_frag.fragments().iter())
        .map(|f| f.n_edges() + ne * f.n_local() - ne * f.n_edges())
        .sum();

    // (data_bytes, data_messages, control_messages, quiescence_rounds,
    //  site_msgs, the parent commit's total_ops)
    type Pinned = (u64, u64, u64, u64, [u64; 4], u64);
    let cases: [(&Graph, Arc<Fragmentation>, &Pattern, Algorithm, Pinned); 4] = [
        (
            &cyc_g,
            hashed(&cyc_g),
            &cyc_q,
            Algorithm::Dgpms,
            (3_620, 46, 36, 6, [16, 15, 15, 16], 12_221),
        ),
        (
            &dag_g,
            hashed(&dag_g),
            &dag_q,
            Algorithm::Dgpmd,
            // 2_382 − 4 × 36: a `dGPMd` batch is a `dGPMs` `Batch`, whose
            // header no longer carries the 4-byte rank the receiver
            // discarded (9 → 5 bytes on each of the 36 data messages).
            (2_238, 36, 24, 6, [10, 10, 10, 10], 12_890),
        ),
        (
            &tree_g,
            tree_frag,
            &tree_q,
            Algorithm::Dgpmt,
            (56, 2, 8, 3, [2, 1, 1, 1], 2_523),
        ),
        (
            &cyc_g,
            hashed(&cyc_g),
            &cyc_q,
            Algorithm::dgpm(),
            (3_870, 96, 8, 2, [29, 25, 23, 23], 13_083),
        ),
    ];
    for (g, frag, q, algorithm, (bytes, msgs, control, rounds, site_msgs, parent_ops)) in cases {
        let report = SimEngine::builder(g, frag)
            .build()
            .query_with(&algorithm, q)
            .unwrap();
        let (name, m) = (report.algorithm, &report.metrics);
        assert_eq!(m.data_bytes, bytes, "{name}: data_bytes");
        assert_eq!(m.data_messages, msgs, "{name}: data_messages");
        assert_eq!(m.control_messages, control, "{name}: control_messages");
        assert_eq!(m.quiescence_rounds, rounds, "{name}: quiescence_rounds");
        assert_eq!(m.site_msgs, site_msgs, "{name}: site_msgs");
        if matches!(algorithm, Algorithm::Dgpmt) {
            let expected = parent_ops + tree_seeding_delta as u64;
            assert_eq!(m.total_ops, expected, "{name}: total_ops");
        } else {
            assert!(m.total_ops < parent_ops, "{name}: {} ops", m.total_ops);
        }
    }
}

/// `dGPMd` is `dGPMs` on a DAG pattern: one engine under two names, so
/// on the DAG inputs of [`shipment_counts_are_pinned`] the two runs
/// cost the same in every metric — bytes and virtual time included —
/// and differ only in the name the report carries (and with it the
/// Theorem 3 bound).
#[test]
fn dgpmd_is_dgpms_on_dag_patterns() {
    let k = 4;
    let g = dag::citation_like(400, 1_100, 5, 1);
    let q = patterns::random_dag_with_depth(6, 9, 3, 5, 32);
    let assign = hash_partition(g.node_count(), k, 7);
    let engine = SimEngine::builder(&g, Arc::new(Fragmentation::build(&g, &assign, k))).build();
    let d = engine.query_with(&Algorithm::Dgpmd, &q).unwrap();
    let s = engine.query_with(&Algorithm::Dgpms, &q).unwrap();
    assert_eq!((d.algorithm, s.algorithm), ("dGPMd", "dGPMs"));
    assert_eq!(d.relation, s.relation);
    let timeless = |m: &RunMetrics| RunMetrics {
        wall_time: std::time::Duration::ZERO,
        ..m.clone()
    };
    assert_eq!(timeless(&d.metrics), timeless(&s.metrics));
    assert_eq!(d.metrics.data_bytes, 2_238);
    assert!(d.metrics.virtual_time_ns > 0);
}
