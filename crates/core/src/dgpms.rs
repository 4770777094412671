//! The rank-scheduled engine: `dGPMd` (§5.1, Theorem 3) on DAG
//! patterns and `dGPMs`, its SCC-stratified generalization, on
//! **cyclic** ones — one site logic, one coordinator, one message set.
//!
//! For a DAG pattern, the rank `r(u)` (0 for sinks, else
//! `1 + max r(child)`) stratifies the Boolean variables: `X(u,v)`
//! depends only on variables of strictly smaller rank. `dGPMd`
//! therefore proceeds in `d + 1` synchronized rounds: in round `r`
//! every site ships *one batched message per destination* containing
//! all falsified in-node variables of rank ≤ `r` not yet sent, so each
//! site pair exchanges at most `d + 1` messages total (Example 10's
//! 6-vs-12 message count). Falsifications are still computed eagerly
//! and incrementally — only the *shipping* is scheduled by rank, which
//! is sufficient because a rank-`r` variable is fully determined once
//! all rounds `< r` have been delivered. Response time: `d + 1` rounds
//! of local evaluation + `O(|Q||F|)` assembly =
//! `O(d(|Vq|+|Vm|)(|Eq|+|Em|) + |Q||F|)`; for fixed `|F|` this is
//! parallel scalable in response time. Data shipment stays
//! `O(|Ef||Vq|)`. (When `G` is a DAG and every node of a cyclic `Q`
//! reaches a cycle the answer is ∅ without any distributed work — a
//! cycle cannot simulate into a DAG; [`crate::SimEngine`]
//! short-circuits that case.)
//!
//! The paper stops there; its related work notes that \[25\] evaluates
//! queries per strongly connected component. This module combines the
//! two ideas, an extension in the spirit of the paper's §7 "full
//! treatment" call:
//!
//! * Condense `Q` into its SCC DAG (Tarjan) and rank the components
//!   (`0` for sink components, else `1 + max(child component rank)`).
//!   Variables `X(u,v)` with `u` in a rank-`r` component depend only
//!   on variables of components of rank `≤ r` — with *intra*-component
//!   (cyclic) dependencies confined to the same rank.
//! * Ship falsifications in **stratum rounds**: at stratum `r`, every
//!   site ships all buffered falsifications of rank `≤ r`, one batch
//!   per destination. Because a cyclic stratum can ping-pong
//!   falsifications around a cross-fragment cycle, a stratum *repeats*
//!   until no delivery of a round falsified a current-stratum variable
//!   anywhere — the paper's changed-flag protocol, applied per
//!   stratum: a site raises a 1-byte `MoreWork` flag to `Sc` at most
//!   once per round.
//!
//! On a DAG pattern every component is a singleton and the component
//! ranks *are* the topological ranks (`scc_ranks_equal_topo_ranks_on_dags`),
//! so a delivery can only falsify variables of a strictly higher rank:
//! no site ever raises `MoreWork`, the coordinator advances one
//! stratum per quiescence, and the schedule is exactly `dGPMd`'s
//! `d + 1` rounds — no confirmation round, no extra message
//! (`rounds_track_pattern_depth_not_graph`). That is why the engine
//! runs `Algorithm::Dgpmd` on this module: the name carries Theorem 3's
//! bound, the code is shared. On a cyclic pattern the engine trades
//! the fully asynchronous flow of `dGPM` for per-round batching: at
//! most one data message per ordered site pair per round, which on
//! latency-bound networks (where per-message overhead dominates) cuts
//! the message count the way Example 10 does for DAGs.
//!
//! Bounds: data shipment stays `O(|Ef||Vq|)` (each in-node variable
//! still ships at most once per subscriber). Response time is
//! `O((d_c + ρ)(|Vq|+|Vm|)(|Eq|+|Em|) + |Q||F|)` where `d_c` is the
//! condensation diameter and `ρ` the total number of repeat rounds
//! (`ρ = 0` and `d_c = d` on a DAG pattern — Theorem 3's bound);
//! `ρ ≤ |Vf||Vq|` in the worst case (one falsification per round), so
//! the partition-bounded guarantee of Theorem 2 is preserved.

use crate::local_eval::{Falsified, LocalEval};
use crate::vars::{AnswerBuilder, MatchLists, SiteBatches, Var};
use dgs_graph::algo::{strongly_connected_components, PatternView};
use dgs_graph::Pattern;
use dgs_net::{CoordinatorLogic, Endpoint, Outbox, SiteLogic, WireSize};
use dgs_partition::{Fragmentation, SiteId};
use dgs_sim::MatchRelation;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-query-node stratum ranks from the SCC condensation of `q`.
/// Returns `(rank per query node, max rank)`.
pub fn scc_ranks(q: &Pattern) -> (Vec<u32>, u32) {
    let (comp_of, nc) = strongly_connected_components(&PatternView(q));
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); nc];
    for (u, c) in q.edges() {
        let (cu, cc) = (comp_of[u.index()], comp_of[c.index()]);
        if cu != cc {
            children[cu as usize].push(cc);
        }
    }
    // Memoized rank over the condensation DAG (iterative DFS).
    let mut rank = vec![u32::MAX; nc];
    for start in 0..nc as u32 {
        if rank[start as usize] != u32::MAX {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        while let Some(&mut (comp, ref mut next)) = stack.last_mut() {
            if rank[comp as usize] != u32::MAX {
                stack.pop();
                continue;
            }
            if *next < children[comp as usize].len() {
                let child = children[comp as usize][*next];
                *next += 1;
                if rank[child as usize] == u32::MAX {
                    stack.push((child, 0));
                }
            } else {
                rank[comp as usize] = children[comp as usize]
                    .iter()
                    .map(|&c| rank[c as usize] + 1)
                    .max()
                    .unwrap_or(0);
                stack.pop();
            }
        }
    }
    let node_ranks: Vec<u32> = (0..q.node_count())
        .map(|u| rank[comp_of[u] as usize])
        .collect();
    let max = node_ranks.iter().copied().max().unwrap_or(0);
    (node_ranks, max)
}

/// Messages of the `dGPMs` protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DgpmsMsg {
    /// Batched falsified in-node variables for one stratum round
    /// (data).
    Batch(Vec<Var>),
    /// Begin a shipping round at stratum `rank` (control).
    StartRound(u32),
    /// "A delivery just falsified in-node variables of the current
    /// stratum at my site" — the per-stratum changed flag (control;
    /// site → coordinator; at most one per site per round). The
    /// coordinator repeats the stratum iff it saw one.
    MoreWork,
    /// Result collection request (control).
    GatherRequest,
    /// Local matches (result).
    LocalMatches(MatchLists),
}

impl WireSize for DgpmsMsg {
    fn wire_size(&self) -> usize {
        1 + match self {
            DgpmsMsg::Batch(vars) => vars.wire_size(),
            DgpmsMsg::StartRound(_) => 4,
            DgpmsMsg::MoreWork => 0,
            DgpmsMsg::GatherRequest => 0,
            DgpmsMsg::LocalMatches(m) => m.wire_size(),
        }
    }
}

/// Site logic of `dGPMs`.
pub struct DgpmsSite {
    site: SiteId,
    frag: Arc<Fragmentation>,
    q: Arc<Pattern>,
    /// Stratum rank per query node (one computation per query, shared
    /// by the sites [`build`] makes).
    ranks: Arc<[u32]>,
    eval: Option<LocalEval>,
    /// Falsifications awaiting their stratum, keyed by rank.
    buffered: BTreeMap<u32, Vec<Falsified>>,
    /// The stratum of the last `StartRound` seen.
    current_stratum: u32,
    /// Whether a `MoreWork` flag was already sent this round.
    more_sent: bool,
}

impl DgpmsSite {
    /// Creates the site logic (any pattern, cyclic or not).
    pub fn new(site: SiteId, frag: Arc<Fragmentation>, q: Arc<Pattern>) -> Self {
        let ranks = scc_ranks(&q).0.into();
        Self::with_ranks(site, frag, q, ranks)
    }

    /// [`Self::new`] with `scc_ranks(&q).0` already computed.
    pub fn with_ranks(
        site: SiteId,
        frag: Arc<Fragmentation>,
        q: Arc<Pattern>,
        ranks: Arc<[u32]>,
    ) -> Self {
        DgpmsSite {
            site,
            frag,
            q,
            ranks,
            eval: None,
            buffered: BTreeMap::new(),
            current_stratum: 0,
            more_sent: false,
        }
    }

    /// Buffers falsifications by rank; flags the coordinator once per
    /// round when a delivery creates current-stratum work (which means
    /// the stratum has not converged).
    fn buffer(&mut self, vars: Vec<Falsified>, flag: Option<&mut Outbox<DgpmsMsg>>) {
        let mut more = false;
        for (var, pos) in vars {
            let r = self.ranks[var.q as usize];
            more |= r <= self.current_stratum;
            self.buffered.entry(r).or_default().push((var, pos));
        }
        if let Some(out) = flag {
            if more && !self.more_sent {
                self.more_sent = true;
                out.send_control(Endpoint::Coordinator, DgpmsMsg::MoreWork);
            }
        }
    }

    /// Ships buffered falsifications of rank ≤ `rank`, one batch per
    /// destination ([`SiteBatches`]: the carried in-node position names
    /// the subscriber list, nothing is looked up).
    fn ship_round(&mut self, rank: u32, out: &mut Outbox<DgpmsMsg>) {
        let f = self.frag.fragment(self.site);
        let mut batches = SiteBatches::new(out.num_sites());
        while let Some(released) = self.buffered.first_entry().filter(|e| *e.key() <= rank) {
            for (var, pos) in released.remove() {
                batches.push(var, f.in_node_subscribers(pos as usize));
            }
        }
        for (s, vars) in batches.into_batches() {
            out.send(Endpoint::Site(s as u32), DgpmsMsg::Batch(vars));
        }
    }
}

impl dgs_net::RemoteSpec for DgpmsSite {
    /// Engine tag + the pattern; the worker rebuilds this site against
    /// its bootstrapped fragmentation (`dgs_core::remote`).
    fn remote_spec(&self) -> Result<Vec<u8>, String> {
        Ok(crate::remote::spec_dgpms(&self.q))
    }
}

impl SiteLogic<DgpmsMsg> for DgpmsSite {
    fn on_start(&mut self, out: &mut Outbox<DgpmsMsg>) {
        let (mut eval, falsified) =
            LocalEval::new(Arc::clone(&self.frag), self.site, Arc::clone(&self.q));
        out.charge_ops(eval.take_ops());
        self.eval = Some(eval);
        // Initial falsifications are shipped by the first round; no
        // flag needed (every stratum always gets at least one round).
        self.buffer(falsified, None);
    }

    fn on_message(&mut self, _from: Endpoint, msg: DgpmsMsg, out: &mut Outbox<DgpmsMsg>) {
        match msg {
            DgpmsMsg::StartRound(r) => {
                self.current_stratum = r;
                self.more_sent = false;
                self.ship_round(r, out);
            }
            DgpmsMsg::Batch(vars) => {
                let eval = self.eval.as_mut().expect("eval initialized");
                let newly = eval.apply_virtual_falsifications(&vars);
                out.charge_ops(eval.take_ops());
                self.buffer(newly, Some(out));
            }
            DgpmsMsg::GatherRequest => {
                debug_assert!(
                    self.buffered.is_empty(),
                    "gather with unshipped falsifications"
                );
                let eval = self.eval.as_mut().expect("eval initialized");
                let lists = MatchLists(eval.local_match_lists());
                out.charge_ops(eval.take_ops());
                out.send_result(Endpoint::Coordinator, DgpmsMsg::LocalMatches(lists));
            }
            DgpmsMsg::MoreWork | DgpmsMsg::LocalMatches(_) => {
                unreachable!("coordinator-only messages")
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Running shipping rounds at this stratum.
    Stratum(u32),
    Gathering,
    Done,
}

/// Coordinator logic of `dGPMs`: drives stratum rounds, repeating each
/// stratum until a round ships nothing, then gathers.
pub struct DgpmsCoordinator {
    nq: usize,
    max_rank: u32,
    phase: Phase,
    any_shipped: bool,
    /// Shipping rounds run at the current stratum so far.
    rounds_in_stratum: u64,
    builder: Option<AnswerBuilder>,
    /// Total shipping rounds driven (analysis).
    pub rounds: u64,
    /// Repeat rounds beyond the first, per stratum (analysis: all
    /// zeros on a DAG pattern).
    pub repeats: Vec<u64>,
    /// The assembled relation (after the run).
    pub answer: Option<MatchRelation>,
}

impl DgpmsCoordinator {
    /// Creates the coordinator for a pattern of `nq` nodes whose
    /// largest stratum rank ([`scc_ranks`]) is `max_rank`.
    pub fn new(nq: usize, max_rank: u32) -> Self {
        DgpmsCoordinator {
            nq,
            max_rank,
            phase: Phase::Stratum(0),
            any_shipped: false,
            rounds_in_stratum: 0,
            builder: Some(AnswerBuilder::new(nq)),
            rounds: 0,
            repeats: vec![0; max_rank as usize + 1],
            answer: None,
        }
    }
}

impl CoordinatorLogic<DgpmsMsg> for DgpmsCoordinator {
    fn on_start(&mut self, _out: &mut Outbox<DgpmsMsg>) {}

    fn on_message(&mut self, _from: Endpoint, msg: DgpmsMsg, out: &mut Outbox<DgpmsMsg>) {
        match msg {
            DgpmsMsg::MoreWork => {
                self.any_shipped = true;
            }
            DgpmsMsg::LocalMatches(lists) => {
                let ops = self
                    .builder
                    .as_mut()
                    .expect("gathering phase")
                    .merge(&lists);
                out.charge_ops(ops);
            }
            _ => unreachable!("site-only messages"),
        }
    }

    fn on_quiescent(&mut self, out: &mut Outbox<DgpmsMsg>) -> bool {
        if out.num_sites() == 0 {
            self.answer = Some(self.builder.take().unwrap().finish());
            self.phase = Phase::Done;
            return true;
        }
        match self.phase {
            Phase::Stratum(r) => {
                let more = std::mem::take(&mut self.any_shipped);
                if self.rounds_in_stratum > 0 && more {
                    // Some delivery of the completed round falsified
                    // current-stratum variables: they are buffered and
                    // must ship, so the stratum repeats.
                    self.repeats[r as usize] += 1;
                } else if self.rounds_in_stratum > 0 {
                    // Quiet round: the stratum has converged.
                    if r < self.max_rank {
                        self.phase = Phase::Stratum(r + 1);
                        self.rounds_in_stratum = 0;
                    } else {
                        self.phase = Phase::Gathering;
                        for i in 0..out.num_sites() {
                            out.send_control(Endpoint::Site(i as u32), DgpmsMsg::GatherRequest);
                        }
                        return false;
                    }
                }
                let r = match self.phase {
                    Phase::Stratum(r) => r,
                    _ => unreachable!(),
                };
                self.rounds += 1;
                self.rounds_in_stratum += 1;
                for i in 0..out.num_sites() {
                    out.send_control(Endpoint::Site(i as u32), DgpmsMsg::StartRound(r));
                }
                false
            }
            Phase::Gathering => {
                out.charge_ops((self.nq * out.num_sites()) as u64);
                self.answer = Some(self.builder.take().unwrap().finish());
                self.phase = Phase::Done;
                true
            }
            Phase::Done => true,
        }
    }
}

/// Builds the full actor set for a `dGPMs` run; the ranks are computed
/// once and shared.
pub fn build(frag: &Arc<Fragmentation>, q: &Arc<Pattern>) -> (DgpmsCoordinator, Vec<DgpmsSite>) {
    let (ranks, max_rank) = scc_ranks(q);
    let ranks: Arc<[u32]> = ranks.into();
    let sites = (0..frag.num_sites())
        .map(|s| DgpmsSite::with_ranks(s, Arc::clone(frag), Arc::clone(q), Arc::clone(&ranks)))
        .collect();
    (DgpmsCoordinator::new(q.node_count(), max_rank), sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::generate::{dag, patterns, random, social};
    use dgs_net::{CostModel, ExecutorKind};
    use dgs_partition::hash_partition;
    use dgs_sim::hhk_simulation;

    fn run_case(
        g: &dgs_graph::Graph,
        q: &Arc<Pattern>,
        k: usize,
        seed: u64,
    ) -> (MatchRelation, dgs_net::RunMetrics, DgpmsCoordinator) {
        let assign = hash_partition(g.node_count(), k, seed);
        let frag = Arc::new(Fragmentation::build(g, &assign, k));
        let (coord, sites) = build(&frag, q);
        let outcome = dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, sites);
        let answer = outcome.coordinator.answer.clone().unwrap();
        (answer, outcome.metrics, outcome.coordinator)
    }

    #[test]
    fn scc_ranks_equal_topo_ranks_on_dags() {
        use dgs_graph::algo::pattern_topo_ranks;
        for seed in 0..10 {
            let q = patterns::random_dag_with_depth(6, 9, 4, 4, seed);
            let (scc, max) = scc_ranks(&q);
            let topo = pattern_topo_ranks(&q).unwrap();
            assert_eq!(scc, topo, "seed {seed}");
            assert_eq!(max, topo.iter().copied().max().unwrap());
        }
    }

    #[test]
    fn scc_ranks_collapse_cycles() {
        // YB -> {F, YF} with the cycle F -> SP -> YF -> F (Fig. 1):
        // the cycle is one rank-0 component, YB is rank 1.
        let w = social::fig1();
        let (ranks, max) = scc_ranks(&w.pattern);
        assert_eq!(max, 1);
        assert_eq!(ranks[w.qnode("YB").index()], 1);
        for name in ["F", "YF", "SP"] {
            assert_eq!(ranks[w.qnode(name).index()], 0, "{name}");
        }
    }

    /// Cyclic patterns (`dGPMs`), and DAG patterns (`dGPMd`) on a DAG
    /// graph and on a cyclic one.
    #[test]
    fn cyclic_and_dag_queries_match_oracle() {
        for seed in 0..10 {
            let cases = [
                (
                    random::uniform(250, 900, 4, seed),
                    patterns::random_cyclic(4, 8, 4, seed + 13),
                ),
                (
                    dag::citation_like(300, 900, 5, seed),
                    patterns::random_dag_with_depth(5, 8, 3, 5, seed + 50),
                ),
                (
                    random::uniform(250, 900, 5, seed),
                    patterns::random_dag_with_depth(5, 8, 4, 5, seed + 9),
                ),
            ];
            for (case, (g, q)) in cases.into_iter().enumerate() {
                let q = Arc::new(q);
                let (got, _, _) = run_case(&g, &q, 4, seed);
                let oracle = hhk_simulation(&q, &g).relation;
                assert_eq!(got, oracle, "seed {seed} case {case}");
            }
        }
    }

    #[test]
    fn fig1_matches_oracle() {
        let w = social::fig1();
        let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
        let q = Arc::new(w.pattern.clone());
        let (coord, sites) = build(&frag, &q);
        let outcome = dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, sites);
        let oracle = hhk_simulation(&w.pattern, &w.graph).relation;
        assert_eq!(outcome.coordinator.answer.unwrap(), oracle);
    }

    #[test]
    fn dag_patterns_never_repeat_strata() {
        let g = dag::citation_like(300, 900, 5, 2);
        let q = Arc::new(patterns::random_dag_with_depth(5, 8, 3, 5, 21));
        let (got, _, coord) = run_case(&g, &q, 4, 2);
        assert_eq!(got, hhk_simulation(&q, &g).relation);
        assert!(
            coord.repeats.iter().all(|&x| x == 0),
            "repeats {:?}",
            coord.repeats
        );
    }

    /// Theorem 3: on a DAG pattern of depth `d` the schedule is exactly
    /// `d + 1` shipping rounds, whatever the graph — the property that
    /// lets `dGPMd` run on this engine.
    #[test]
    fn rounds_track_pattern_depth_not_graph() {
        let g = dag::citation_like(400, 1_200, 6, 3);
        for d in 2..=6 {
            let q = Arc::new(patterns::random_dag_with_depth(8, 12, d, 6, 77));
            let (_, _, coord) = run_case(&g, &q, 4, 3);
            assert_eq!(coord.rounds as usize, d + 1);
        }
    }

    #[test]
    fn at_most_one_batch_per_site_pair_per_rank() {
        let g = dag::citation_like(300, 900, 4, 1);
        let q = Arc::new(patterns::random_dag_with_depth(6, 9, 4, 4, 5));
        let k = 5;
        let (_, metrics, _) = run_case(&g, &q, k, 1);
        // 5 rank rounds × at most k(k-1) pairs.
        assert!(metrics.data_messages <= 5 * (k * (k - 1)) as u64);
    }

    #[test]
    fn batching_bounds_messages_per_round() {
        let g = random::uniform(300, 1_100, 4, 5);
        let q = Arc::new(patterns::random_cyclic(4, 8, 4, 5));
        let k = 5;
        let (_, metrics, coord) = run_case(&g, &q, k, 5);
        // ≤ one data message per ordered site pair per shipping round.
        assert!(
            metrics.data_messages <= coord.rounds * (k * (k - 1)) as u64,
            "{} messages in {} rounds",
            metrics.data_messages,
            coord.rounds
        );
    }

    #[test]
    fn threaded_agrees_with_virtual() {
        let cases = [
            (
                3,
                random::uniform(200, 700, 4, 3),
                patterns::random_cyclic(4, 7, 4, 33),
            ),
            (
                2,
                dag::citation_like(200, 600, 4, 2),
                patterns::random_dag_with_depth(5, 8, 3, 4, 2),
            ),
        ];
        for (seed, g, q) in cases {
            let q = Arc::new(q);
            let assign = hash_partition(200, 3, seed);
            let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
            let run = |kind| {
                let (coord, sites) = build(&frag, &q);
                dgs_net::run(kind, &CostModel::default(), coord, sites)
                    .coordinator
                    .answer
                    .unwrap()
            };
            assert_eq!(run(ExecutorKind::Virtual), run(ExecutorKind::Threaded));
        }
    }

    #[test]
    fn shipment_stays_within_the_partition_bound() {
        // DS ≤ |Ef||Vq| variables (each 6 bytes on the wire) plus
        // 5-byte batch headers.
        let g = random::uniform(400, 1_500, 4, 9);
        let q = Arc::new(patterns::random_cyclic(5, 9, 4, 9));
        let k = 4;
        let assign = hash_partition(400, k, 9);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        let (coord, sites) = build(&frag, &q);
        let outcome = dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, sites);
        let m = outcome.metrics;
        let shipped_vars = (m.data_bytes - 5 * m.data_messages) / 6;
        let bound = (frag.ef() * q.node_count()) as u64;
        assert!(
            shipped_vars <= bound,
            "{shipped_vars} variables > |Ef||Vq| = {bound}"
        );
    }
}
