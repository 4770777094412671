//! `dGPMt`: two-round distributed simulation on trees (§5.2,
//! Corollary 4).
//!
//! When `G` is a tree and every fragment is a connected subtree, each
//! fragment has at most one in-node — its root — and every virtual
//! node is the root of a child fragment. The protocol needs only two
//! rounds of coordinator communication:
//!
//! 1. every site runs `lEval` and ships the Boolean *equations* of its
//!    root's vector (over its virtual variables) to the coordinator —
//!    total shipment `O(|Q||F|)`, independent of `|G|`: this is the
//!    parallel scalability in data shipment that Theorem 1 rules out
//!    for general graphs;
//! 2. the coordinator solves the equation system bottom-up over the
//!    fragment tree in `O(|Q||F|)` (the expressions are acyclic
//!    because tree edges only point to descendants) and returns the
//!    falsified virtual variables to each parent site; sites finish
//!    their local matching and the usual gather assembles `Q(G)`.
//!
//! The equation-size bound relies on the tree shape: the expansion of
//! `X(u, root)` visits each (query node, fragment node) pair at most
//! once (clean memoization, no cycles), and after normalization the
//! shipped vector references each child-fragment root at most once per
//! query node.

use crate::boolexpr::EquationSystem;
use crate::local_eval::LocalEval;
use crate::push::{Expander, PushedEq};
use crate::vars::{AnswerBuilder, MatchLists, SiteBatches, Var};
use dgs_graph::Pattern;
use dgs_net::{CoordinatorLogic, Endpoint, Outbox, SiteLogic, WireSize};
use dgs_partition::{Fragmentation, SiteId};
use dgs_sim::MatchRelation;
use std::sync::Arc;

/// Messages of the `dGPMt` protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DgpmtMsg {
    /// The root vector equations of one fragment (data; site → Sc).
    RootEquations(Vec<PushedEq>),
    /// Falsified virtual variables of the receiving site, as solved by
    /// the coordinator (data; Sc → site).
    SolvedFalse(Vec<Var>),
    /// Result collection request (control).
    GatherRequest,
    /// Local matches (result).
    LocalMatches(MatchLists),
}

impl WireSize for DgpmtMsg {
    fn wire_size(&self) -> usize {
        1 + match self {
            DgpmtMsg::RootEquations(eqs) => 4 + eqs.iter().map(WireSize::wire_size).sum::<usize>(),
            DgpmtMsg::SolvedFalse(vars) => vars.wire_size(),
            DgpmtMsg::GatherRequest => 0,
            DgpmtMsg::LocalMatches(m) => m.wire_size(),
        }
    }
}

/// Site logic of `dGPMt`.
pub struct DgpmtSite {
    site: SiteId,
    frag: Arc<Fragmentation>,
    q: Arc<Pattern>,
    eval: Option<LocalEval>,
}

impl DgpmtSite {
    /// Creates the site logic.
    pub fn new(site: SiteId, frag: Arc<Fragmentation>, q: Arc<Pattern>) -> Self {
        DgpmtSite {
            site,
            frag,
            q,
            eval: None,
        }
    }
}

impl dgs_net::RemoteSpec for DgpmtSite {
    /// Engine tag + the pattern; the worker rebuilds this site against
    /// its bootstrapped fragmentation (`dgs_core::remote`).
    fn remote_spec(&self) -> Result<Vec<u8>, String> {
        Ok(crate::remote::spec_dgpmt(&self.q))
    }
}

impl SiteLogic<DgpmtMsg> for DgpmtSite {
    fn on_start(&mut self, out: &mut Outbox<DgpmtMsg>) {
        let (mut eval, _falsified) =
            LocalEval::new(Arc::clone(&self.frag), self.site, Arc::clone(&self.q));
        let f = self.frag.fragment(self.site);
        debug_assert!(
            f.in_nodes().len() <= 1,
            "dGPMt requires connected subtree fragments (≤1 in-node)"
        );
        if let Some(&root) = f.in_nodes().first() {
            // Expansion on a tree is cycle-free and fully memoized;
            // the budget is a safety net, not a tuning knob.
            let budget = 16 * self.q.size() * (f.size() + 4);
            let mut ex = Expander::new(&eval, budget);
            let mut eqs = Vec::with_capacity(self.q.node_count());
            for u in 0..self.q.node_count() as u16 {
                let expr = ex.extract(u, root).expect("tree expansion within budget");
                eqs.push(PushedEq {
                    var: Var {
                        q: u,
                        node: f.global_id(root).0,
                    },
                    expr,
                });
            }
            let spent = (budget as i64 - ex.budget_left()).max(0) as u64;
            eval.charge(spent);
            out.send(Endpoint::Coordinator, DgpmtMsg::RootEquations(eqs));
        }
        out.charge_ops(eval.take_ops());
        self.eval = Some(eval);
    }

    fn on_message(&mut self, _from: Endpoint, msg: DgpmtMsg, out: &mut Outbox<DgpmtMsg>) {
        match msg {
            DgpmtMsg::SolvedFalse(vars) => {
                let eval = self.eval.as_mut().expect("eval initialized");
                // No further routing: the coordinator's solution is
                // already global.
                let _ = eval.apply_virtual_falsifications(&vars);
                out.charge_ops(eval.take_ops());
            }
            DgpmtMsg::GatherRequest => {
                let eval = self.eval.as_mut().expect("eval initialized");
                let lists = MatchLists(eval.local_match_lists());
                out.charge_ops(eval.take_ops());
                out.send_result(Endpoint::Coordinator, DgpmtMsg::LocalMatches(lists));
            }
            DgpmtMsg::RootEquations(_) | DgpmtMsg::LocalMatches(_) => {
                unreachable!("coordinator-only messages")
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Collecting,
    Distributing,
    Gathering,
    Done,
}

/// Coordinator logic of `dGPMt`: solves the root-vector equation
/// system and distributes the falsified assignments.
pub struct DgpmtCoordinator {
    frag: Arc<Fragmentation>,
    nq: usize,
    phase: Phase,
    system: EquationSystem,
    builder: Option<AnswerBuilder>,
    /// The assembled relation (after the run).
    pub answer: Option<MatchRelation>,
}

impl DgpmtCoordinator {
    /// Creates the coordinator.
    pub fn new(frag: Arc<Fragmentation>, nq: usize) -> Self {
        DgpmtCoordinator {
            frag,
            nq,
            phase: Phase::Collecting,
            system: EquationSystem::new(),
            builder: Some(AnswerBuilder::new(nq)),
            answer: None,
        }
    }
}

impl CoordinatorLogic<DgpmtMsg> for DgpmtCoordinator {
    fn on_start(&mut self, _out: &mut Outbox<DgpmtMsg>) {}

    fn on_message(&mut self, _from: Endpoint, msg: DgpmtMsg, out: &mut Outbox<DgpmtMsg>) {
        match msg {
            DgpmtMsg::RootEquations(eqs) => {
                out.charge_ops(eqs.iter().map(|e| e.expr.size() as u64).sum());
                for PushedEq { var, expr } in eqs {
                    self.system.insert(var, expr);
                }
            }
            DgpmtMsg::LocalMatches(lists) => {
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

    fn on_quiescent(&mut self, out: &mut Outbox<DgpmtMsg>) -> bool {
        match self.phase {
            Phase::Collecting => {
                if out.num_sites() == 0 {
                    self.answer = Some(self.builder.take().unwrap().finish());
                    self.phase = Phase::Done;
                    return true;
                }
                // Solve the Boolean equation system (all variables are
                // fragment-root variables; free variables default to
                // the optimistic true, which only arises for vacuous
                // references).
                let (values, ops) = self.system.solve_gfp(|_| None);
                out.charge_ops(ops);
                // Route each falsified root variable to the sites
                // holding that root as a virtual node (its parent
                // fragment).
                let mut batches = SiteBatches::new(out.num_sites());
                for (&var, &val) in &values {
                    if val {
                        continue;
                    }
                    let owner = self.frag.owner(var.node_id());
                    let f = self.frag.fragment(owner);
                    let idx = f.index_of(var.node_id()).expect("root is local to owner");
                    let pos = f.in_node_pos(idx).expect("root is an in-node");
                    batches.push(var, f.in_node_subscribers(pos));
                }
                let mut sent = false;
                for (s, mut vars) in batches.into_batches() {
                    sent = true;
                    vars.sort_unstable();
                    out.send(Endpoint::Site(s as u32), DgpmtMsg::SolvedFalse(vars));
                }
                if !sent {
                    // Nothing falsified (e.g. a single fragment, or an
                    // all-true system): skip straight to the gather
                    // round — returning false with an empty outbox
                    // would stall the executor.
                    for i in 0..out.num_sites() {
                        out.send_control(Endpoint::Site(i as u32), DgpmtMsg::GatherRequest);
                    }
                    self.phase = Phase::Gathering;
                    return false;
                }
                self.phase = Phase::Distributing;
                false
            }
            Phase::Distributing => {
                for i in 0..out.num_sites() {
                    out.send_control(Endpoint::Site(i as u32), DgpmtMsg::GatherRequest);
                }
                self.phase = Phase::Gathering;
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

/// Builds the full actor set for a `dGPMt` run.
pub fn build(frag: &Arc<Fragmentation>, q: &Arc<Pattern>) -> (DgpmtCoordinator, Vec<DgpmtSite>) {
    let sites = (0..frag.num_sites())
        .map(|s| DgpmtSite::new(s, Arc::clone(frag), Arc::clone(q)))
        .collect();
    (
        DgpmtCoordinator::new(Arc::clone(frag), q.node_count()),
        sites,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::generate::{patterns, tree};
    use dgs_graph::Label;
    use dgs_net::{CostModel, ExecutorKind};
    use dgs_partition::tree_partition;
    use dgs_sim::hhk_simulation;

    fn run_tree(
        n: usize,
        k: usize,
        q: &Arc<Pattern>,
        seed: u64,
    ) -> (MatchRelation, dgs_net::RunMetrics) {
        let g = tree::random_tree_with_chain_bias(n, 4, 0.5, seed);
        let assign = tree_partition(&g, k);
        let frag = Arc::new(Fragmentation::build(&g, &assign, k));
        for f in frag.fragments() {
            assert!(f.in_nodes().len() <= 1);
        }
        let (coord, sites) = build(&frag, q);
        let outcome = dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, sites);
        let oracle = hhk_simulation(q, &g).relation;
        assert_eq!(outcome.coordinator.answer.as_ref().unwrap(), &oracle);
        (outcome.coordinator.answer.unwrap(), outcome.metrics)
    }

    #[test]
    fn path_queries_on_trees_match_oracle() {
        for seed in 0..8 {
            let q = Arc::new(patterns::path_pattern(3, &[Label(0), Label(1), Label(2)]));
            let _ = run_tree(300, 6, &q, seed);
        }
    }

    #[test]
    fn dag_queries_on_trees_match_oracle() {
        for seed in 0..8 {
            let q = Arc::new(patterns::random_dag_with_depth(5, 7, 3, 4, seed + 30));
            let _ = run_tree(400, 8, &q, seed);
        }
    }

    #[test]
    fn cyclic_query_on_tree_is_empty() {
        let q = Arc::new(patterns::random_cyclic(4, 6, 4, 3));
        let (rel, _) = run_tree(200, 5, &q, 3);
        assert!(!rel.is_total());
    }

    #[test]
    fn shipment_is_o_q_f_not_o_g() {
        // Corollary 4: DS is O(|Q||F|). Growing |G| 8× with fixed |F|
        // must not grow data shipment proportionally.
        let q = Arc::new(patterns::path_pattern(2, &[Label(0), Label(1)]));
        let (_, small) = run_tree(250, 5, &q, 7);
        let (_, large) = run_tree(2_000, 5, &q, 7);
        assert!(
            (large.data_bytes as f64) < (small.data_bytes as f64) * 4.0,
            "DS grew with |G|: {} -> {}",
            small.data_bytes,
            large.data_bytes
        );
    }

    #[test]
    fn two_data_rounds_only() {
        let q = Arc::new(patterns::path_pattern(2, &[Label(0), Label(1)]));
        let g = tree::random_tree(300, 4, 11);
        let assign = tree_partition(&g, 6);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 6));
        let (coord, sites) = build(&frag, &q);
        let outcome = dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, sites);
        // Data messages: ≤ one RootEquations per non-root fragment +
        // ≤ one SolvedFalse per fragment.
        assert!(outcome.metrics.data_messages <= 2 * 6);
        // Quiescence rounds: collect, distribute, gather (+ final).
        assert!(outcome.metrics.quiescence_rounds <= 4);
    }

    #[test]
    fn threaded_agrees() {
        let q = Arc::new(patterns::random_dag_with_depth(4, 5, 2, 4, 1));
        let g = tree::random_tree(250, 4, 13);
        let assign = tree_partition(&g, 5);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 5));
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
