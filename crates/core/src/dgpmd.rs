//! `dGPMd`: rank-scheduled distributed simulation for DAG patterns or
//! DAG graphs (§5.1, Theorem 3).
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
//! all rounds `< r` have been delivered.
//!
//! Response time: `d + 1` rounds of local evaluation +
//! `O(|Q||F|)` assembly = `O(d(|Vq|+|Vm|)(|Eq|+|Em|) + |Q||F|)`; for
//! fixed `|F|` this is parallel scalable in response time. Data
//! shipment stays `O(|Ef||Vq|)`.
//!
//! When `G` is a DAG and `Q` is cyclic the answer is ∅ without any
//! distributed work (a cycle cannot simulate into a DAG); the
//! [`crate::api`] layer short-circuits that case.

use crate::local_eval::{Falsified, LocalEval};
use crate::vars::{AnswerBuilder, MatchLists, SiteBatches, Var};
use dgs_graph::algo::pattern_topo_ranks;
use dgs_graph::Pattern;
use dgs_net::{CoordinatorLogic, Endpoint, Outbox, SiteLogic, WireSize};
use dgs_partition::{Fragmentation, SiteId};
use dgs_sim::MatchRelation;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Messages of the `dGPMd` protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DgpmdMsg {
    /// Batched falsified in-node variables for one rank round (data).
    RankBatch {
        /// The round that released this batch.
        rank: u32,
        /// The falsified variables.
        vars: Vec<Var>,
    },
    /// Begin rank round `r` (control; coordinator → sites).
    StartRank(u32),
    /// Result collection request (control).
    GatherRequest,
    /// Local matches (result).
    LocalMatches(MatchLists),
}

impl WireSize for DgpmdMsg {
    fn wire_size(&self) -> usize {
        1 + match self {
            DgpmdMsg::RankBatch { vars, .. } => 4 + vars.wire_size(),
            DgpmdMsg::StartRank(_) => 4,
            DgpmdMsg::GatherRequest => 0,
            DgpmdMsg::LocalMatches(m) => m.wire_size(),
        }
    }
}

/// Site logic of `dGPMd`.
pub struct DgpmdSite {
    site: SiteId,
    frag: Arc<Fragmentation>,
    q: Arc<Pattern>,
    /// `r(u)` per query node (one computation per query, shared by the
    /// sites [`build`] makes).
    ranks: Arc<[u32]>,
    eval: Option<LocalEval>,
    /// Outgoing falsifications awaiting their rank round, keyed by
    /// rank.
    buffered: BTreeMap<u32, Vec<Falsified>>,
}

impl DgpmdSite {
    /// Creates the site logic.
    ///
    /// # Panics
    /// Panics if the pattern is cyclic (use `dGPM`, or the api layer's
    /// DAG-graph short-circuit).
    pub fn new(site: SiteId, frag: Arc<Fragmentation>, q: Arc<Pattern>) -> Self {
        let ranks = pattern_topo_ranks(&q).expect("dGPMd requires a DAG pattern");
        Self::with_ranks(site, frag, q, ranks.into())
    }

    /// [`Self::new`] with `pattern_topo_ranks(&q)` already computed.
    pub fn with_ranks(
        site: SiteId,
        frag: Arc<Fragmentation>,
        q: Arc<Pattern>,
        ranks: Arc<[u32]>,
    ) -> Self {
        DgpmdSite {
            site,
            frag,
            q,
            ranks,
            eval: None,
            buffered: BTreeMap::new(),
        }
    }

    fn buffer(&mut self, vars: Vec<Falsified>) {
        for (var, pos) in vars {
            let r = self.ranks[var.q as usize];
            self.buffered.entry(r).or_default().push((var, pos));
        }
    }

    /// Ships all buffered falsifications of rank ≤ `rank`, one batch
    /// per destination site ([`SiteBatches`]: the carried in-node
    /// position names the subscriber list, nothing is looked up).
    fn ship_up_to(&mut self, rank: u32, out: &mut Outbox<DgpmdMsg>) {
        let f = self.frag.fragment(self.site);
        let mut batches = SiteBatches::new(out.num_sites());
        while let Some(released) = self.buffered.first_entry().filter(|e| *e.key() <= rank) {
            for (var, pos) in released.remove() {
                batches.push(var, f.in_node_subscribers(pos as usize));
            }
        }
        for (s, vars) in batches.into_batches() {
            out.send(Endpoint::Site(s as u32), DgpmdMsg::RankBatch { rank, vars });
        }
    }
}

impl dgs_net::RemoteSpec for DgpmdSite {
    /// Engine tag + the pattern; the worker rebuilds this site against
    /// its bootstrapped fragmentation (`dgs_core::remote`).
    fn remote_spec(&self) -> Result<Vec<u8>, String> {
        Ok(crate::remote::spec_dgpmd(&self.q))
    }
}

impl SiteLogic<DgpmdMsg> for DgpmdSite {
    fn on_start(&mut self, out: &mut Outbox<DgpmdMsg>) {
        let (mut eval, falsified) =
            LocalEval::new(Arc::clone(&self.frag), self.site, Arc::clone(&self.q));
        out.charge_ops(eval.take_ops());
        self.eval = Some(eval);
        self.buffer(falsified);
    }

    fn on_message(&mut self, _from: Endpoint, msg: DgpmdMsg, out: &mut Outbox<DgpmdMsg>) {
        match msg {
            DgpmdMsg::StartRank(r) => {
                self.ship_up_to(r, out);
            }
            DgpmdMsg::RankBatch { vars, .. } => {
                let eval = self.eval.as_mut().expect("eval initialized");
                let newly = eval.apply_virtual_falsifications(&vars);
                out.charge_ops(eval.take_ops());
                self.buffer(newly);
            }
            DgpmdMsg::GatherRequest => {
                let eval = self.eval.as_mut().expect("eval initialized");
                let lists = MatchLists(eval.local_match_lists());
                out.charge_ops(eval.take_ops());
                out.send_result(Endpoint::Coordinator, DgpmdMsg::LocalMatches(lists));
            }
            DgpmdMsg::LocalMatches(_) => unreachable!("sites never receive matches"),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Ranks(u32),
    Gathering,
    Done,
}

/// Coordinator logic of `dGPMd`: drives the `d + 1` rank rounds, then
/// gathers.
pub struct DgpmdCoordinator {
    nq: usize,
    max_rank: u32,
    phase: Phase,
    builder: Option<AnswerBuilder>,
    /// Rank rounds driven (analysis).
    pub rounds: u64,
    /// The assembled relation (after the run).
    pub answer: Option<MatchRelation>,
}

impl DgpmdCoordinator {
    /// Creates the coordinator for a pattern of `nq` nodes whose
    /// largest topological rank is `max_rank`.
    pub fn new(nq: usize, max_rank: u32) -> Self {
        DgpmdCoordinator {
            nq,
            max_rank,
            phase: Phase::Ranks(0),
            builder: Some(AnswerBuilder::new(nq)),
            rounds: 0,
            answer: None,
        }
    }
}

impl CoordinatorLogic<DgpmdMsg> for DgpmdCoordinator {
    fn on_start(&mut self, _out: &mut Outbox<DgpmdMsg>) {}

    fn on_message(&mut self, _from: Endpoint, msg: DgpmdMsg, out: &mut Outbox<DgpmdMsg>) {
        if let DgpmdMsg::LocalMatches(lists) = msg {
            let ops = self
                .builder
                .as_mut()
                .expect("gathering phase")
                .merge(&lists);
            out.charge_ops(ops);
        }
    }

    fn on_quiescent(&mut self, out: &mut Outbox<DgpmdMsg>) -> bool {
        if out.num_sites() == 0 {
            self.answer = Some(self.builder.take().unwrap().finish());
            self.phase = Phase::Done;
            return true;
        }
        match self.phase {
            Phase::Ranks(r) => {
                self.rounds += 1;
                for i in 0..out.num_sites() {
                    out.send_control(Endpoint::Site(i as u32), DgpmdMsg::StartRank(r));
                }
                self.phase = if r >= self.max_rank {
                    Phase::Gathering
                } else {
                    Phase::Ranks(r + 1)
                };
                false
            }
            Phase::Gathering => {
                for i in 0..out.num_sites() {
                    out.send_control(Endpoint::Site(i as u32), DgpmdMsg::GatherRequest);
                }
                self.phase = Phase::Done;
                false
            }
            Phase::Done => {
                out.charge_ops((self.nq * out.num_sites()) as u64);
                if let Some(b) = self.builder.take() {
                    self.answer = Some(b.finish());
                }
                true
            }
        }
    }
}

/// Builds the full actor set for a `dGPMd` run; the ranks are computed
/// once and shared.
pub fn build(frag: &Arc<Fragmentation>, q: &Arc<Pattern>) -> (DgpmdCoordinator, Vec<DgpmdSite>) {
    let ranks: Arc<[u32]> = pattern_topo_ranks(q)
        .expect("dGPMd requires a DAG pattern")
        .into();
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    let sites = (0..frag.num_sites())
        .map(|s| DgpmdSite::with_ranks(s, Arc::clone(frag), Arc::clone(q), Arc::clone(&ranks)))
        .collect();
    (DgpmdCoordinator::new(q.node_count(), max_rank), sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::generate::{dag, patterns};
    use dgs_net::{CostModel, ExecutorKind};
    use dgs_partition::hash_partition;
    use dgs_sim::hhk_simulation;

    fn run_case(
        g: &dgs_graph::Graph,
        q: &Arc<Pattern>,
        k: usize,
        seed: u64,
    ) -> (MatchRelation, dgs_net::RunMetrics, u64) {
        let assign = hash_partition(g.node_count(), k, seed);
        let frag = Arc::new(Fragmentation::build(g, &assign, k));
        let (coord, sites) = build(&frag, q);
        let outcome = dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, sites);
        (
            outcome.coordinator.answer.unwrap(),
            outcome.metrics,
            outcome.coordinator.rounds,
        )
    }

    #[test]
    fn dag_query_on_dag_graph_matches_oracle() {
        for seed in 0..10 {
            let g = dag::citation_like(300, 900, 5, seed);
            let q = Arc::new(patterns::random_dag_with_depth(5, 8, 3, 5, seed + 50));
            let (got, _, _) = run_case(&g, &q, 4, seed);
            let oracle = hhk_simulation(&q, &g).relation;
            assert_eq!(got, oracle, "seed {seed}");
        }
    }

    #[test]
    fn dag_query_on_cyclic_graph_matches_oracle() {
        use dgs_graph::generate::random;
        for seed in 0..10 {
            let g = random::uniform(250, 900, 5, seed);
            let q = Arc::new(patterns::random_dag_with_depth(5, 8, 4, 5, seed + 9));
            let (got, _, _) = run_case(&g, &q, 4, seed);
            let oracle = hhk_simulation(&q, &g).relation;
            assert_eq!(got, oracle, "seed {seed}");
        }
    }

    #[test]
    fn rounds_track_pattern_depth_not_graph() {
        let g = dag::citation_like(400, 1_200, 6, 3);
        for d in 2..=6 {
            let q = Arc::new(patterns::random_dag_with_depth(8, 12, d, 6, 77));
            let (_, _, rounds) = run_case(&g, &q, 4, 3);
            // d+1 rank rounds + gather + final.
            assert_eq!(rounds as usize, d + 1);
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
    fn threaded_agrees() {
        let g = dag::citation_like(200, 600, 4, 2);
        let q = Arc::new(patterns::random_dag_with_depth(5, 8, 3, 4, 2));
        let assign = hash_partition(200, 3, 2);
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

    #[test]
    #[should_panic(expected = "DAG pattern")]
    fn cyclic_pattern_rejected() {
        let g = dag::citation_like(20, 40, 4, 0);
        let frag = Arc::new(Fragmentation::build(&g, &hash_partition(20, 2, 0), 2));
        let _ = build(&frag, &Arc::new(patterns::random_cyclic(4, 8, 4, 0)));
    }
}
