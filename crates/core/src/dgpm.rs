//! `dGPM`: the partition-bounded distributed simulation algorithm
//! (§4, Theorem 2), plus its unoptimized variant `dGPMNOpt` (§4.2).
//!
//! Protocol (Fig. 3 of the paper):
//!
//! 1. **Partial evaluation** — every site runs `lEval`
//!    ([`crate::local_eval::LocalEval`]) on its fragment in parallel,
//!    treating virtual-node variables optimistically as `true`.
//! 2. **Asynchronous message passing** — whenever an in-node variable
//!    `X(u,v)` is falsified, the site ships it to the sites holding
//!    `v` as a virtual node (the local dependency graph annotation —
//!    [`dgs_partition::Fragment::in_node_subscribers`]). Each received
//!    falsification triggers incremental re-evaluation. Because each
//!    crossing edge ships each query node's falsification at most
//!    once, total data shipment is `O(|Ef||Vq|)`.
//! 3. **Assembly** — at the fixpoint (runtime quiescence, idealizing
//!    the paper's changed-flag protocol) the coordinator collects
//!    local matches and unions them; if some query node has no match
//!    anywhere, the answer is `∅`.
//!
//! With [`DgpmConfig::push_threshold`] set, sites additionally run the
//! push operation of §4.2 ([`crate::push`]) after their initial
//! evaluation. With [`DgpmConfig::incremental`] off (`dGPMNOpt`), every
//! incoming batch triggers a from-scratch re-evaluation of the whole
//! fragment instead of `O(|AFF|)` incremental propagation — same
//! answers and shipment, far more local work (the paper measures dGPM
//! ~20× faster).

use crate::local_eval::{Falsified, LocalEval};
use crate::push::{plan_push, ExtraSubscribers, InlinedEquations, PushedEq};
use crate::vars::{AnswerBuilder, MatchLists, SiteBatches, Var};
use dgs_graph::Pattern;
use dgs_net::{CoordinatorLogic, Endpoint, Outbox, SiteLogic, WireSize};
use dgs_partition::{Fragmentation, SiteId};
use dgs_sim::matchset::MatchSet;
use dgs_sim::MatchRelation;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Messages of the `dGPM` protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DgpmMsg {
    /// Falsified Boolean variables of in-nodes (data; site → site).
    Falsified(Vec<Var>),
    /// Pushed in-node equations (data; site → parent site).
    PushEqs(Vec<PushedEq>),
    /// Rewiring: "also ship falsifications of these variables of yours
    /// to site `forward_to`" (data; pushing site → third-party site).
    Subscribe {
        /// In-node variables of the receiver.
        vars: Vec<Var>,
        /// The site to additionally notify.
        forward_to: u32,
    },
    /// Result collection request (control; coordinator → sites).
    GatherRequest,
    /// Local matches (result; site → coordinator).
    LocalMatches(MatchLists),
    /// Boolean-query result: a bitmask of query nodes with at least
    /// one local match (result; site → coordinator). For Boolean
    /// patterns `Sc` "simply checks whether each node of Q has a match
    /// in any local site" (§4.1), so `O(|F|)` bytes of result traffic
    /// suffice instead of shipping match lists.
    Presence(u64),
}

impl WireSize for DgpmMsg {
    fn wire_size(&self) -> usize {
        1 + match self {
            DgpmMsg::Falsified(vars) => vars.wire_size(),
            DgpmMsg::PushEqs(eqs) => 4 + eqs.iter().map(WireSize::wire_size).sum::<usize>(),
            DgpmMsg::Subscribe { vars, .. } => vars.wire_size() + 4,
            DgpmMsg::GatherRequest => 0,
            DgpmMsg::LocalMatches(m) => m.wire_size(),
            DgpmMsg::Presence(_) => 8,
        }
    }
}

/// What the final gather collects (§2.1's two query types).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Data-selecting query: ship full local match lists.
    #[default]
    DataSelecting,
    /// Boolean query: ship per-query-node presence bits only.
    Boolean,
}

/// Configuration of the `dGPM` family.
#[derive(Clone, Debug, PartialEq)]
pub struct DgpmConfig {
    /// Incremental local evaluation (§4.2 optimization 1). Off =
    /// `dGPMNOpt`: recompute the local fixpoint from scratch per batch.
    pub incremental: bool,
    /// Push threshold θ (§4.2 optimization 2); `None` disables pushes.
    /// The paper fixes θ = 0.2 in its experiments.
    pub push_threshold: Option<f64>,
    /// Size budget (expression nodes) for symbolic equation extraction;
    /// an overflowing extraction skips the push.
    pub push_size_cap: usize,
}

impl Default for DgpmConfig {
    fn default() -> Self {
        DgpmConfig {
            incremental: true,
            push_threshold: Some(0.2),
            push_size_cap: 4096,
        }
    }
}

impl DgpmConfig {
    /// The paper's `dGPM` (both optimizations on, θ = 0.2).
    pub fn optimized() -> Self {
        Self::default()
    }

    /// The paper's `dGPMNOpt` (no incremental evaluation, no push).
    pub fn no_opt() -> Self {
        DgpmConfig {
            incremental: false,
            push_threshold: None,
            push_size_cap: 0,
        }
    }

    /// `dGPM` without push only (ablation).
    pub fn incremental_only() -> Self {
        DgpmConfig {
            incremental: true,
            push_threshold: None,
            push_size_cap: 0,
        }
    }
}

/// Site logic of `dGPM`.
pub struct DgpmSite {
    site: SiteId,
    frag: Arc<Fragmentation>,
    q: Arc<Pattern>,
    cfg: DgpmConfig,
    eval: Option<LocalEval>,
    /// Falsified virtual variables received so far (drives the
    /// from-scratch rebuilds of `dGPMNOpt`).
    known_false_virtuals: HashSet<Var>,
    /// In-node falsifications already shipped (idempotence for the
    /// from-scratch path): one bit per `(query var, local index)`.
    sent: MatchSet,
    /// Push state: equations inlined *at* this site.
    inlined: InlinedEquations,
    /// Push state: extra subscribers registered at this site.
    extra_subs: ExtraSubscribers,
    pushed: bool,
    mode: QueryMode,
}

impl DgpmSite {
    /// Creates the site logic for `site` of `frag`.
    pub fn new(site: SiteId, frag: Arc<Fragmentation>, q: Arc<Pattern>, cfg: DgpmConfig) -> Self {
        Self::with_mode(site, frag, q, cfg, QueryMode::DataSelecting)
    }

    /// Creates the site logic with an explicit query mode.
    pub fn with_mode(
        site: SiteId,
        frag: Arc<Fragmentation>,
        q: Arc<Pattern>,
        cfg: DgpmConfig,
        mode: QueryMode,
    ) -> Self {
        let sent = MatchSet::new(q.node_count(), frag.fragment(site).n_total());
        DgpmSite {
            site,
            frag,
            q,
            cfg,
            eval: None,
            known_false_virtuals: HashSet::new(),
            sent,
            inlined: InlinedEquations::new(),
            extra_subs: ExtraSubscribers::new(),
            pushed: false,
            mode,
        }
    }

    /// Routes in-node falsifications not yet shipped to their
    /// subscriber sites (plus any dynamically registered extras),
    /// batched per destination ([`SiteBatches`]; the carried in-node
    /// position keys both the `sent` bit and the subscriber list).
    fn route_falsifications(&mut self, vars: Vec<Falsified>, out: &mut Outbox<DgpmMsg>) {
        let f = self.frag.fragment(self.site);
        let mut batches = SiteBatches::new(out.num_sites());
        for (var, pos) in vars {
            if self.sent.insert(var.q as usize, f.in_nodes()[pos as usize]) {
                batches.push(var, f.in_node_subscribers(pos as usize));
                batches.push(var, self.extra_subs.of(var));
            }
        }
        for (s, vars) in batches.into_batches() {
            out.send(Endpoint::Site(s as u32), DgpmMsg::Falsified(vars));
        }
    }

    /// Applies received falsifications through the configured
    /// evaluation mode, returning newly falsified in-node variables.
    fn apply_falsifications(&mut self, vars: &[Var]) -> Vec<Falsified> {
        // Feed inlined equations first: foreign variables may resolve
        // pushed equations into local virtual falsifications.
        let mut all: Vec<Var> = vars.to_vec();
        all.extend(self.inlined.apply_false(vars));
        for v in &all {
            self.known_false_virtuals.insert(*v);
        }
        if self.cfg.incremental {
            self.eval
                .as_mut()
                .expect("eval initialized in on_start")
                .apply_virtual_falsifications(&all)
        } else {
            // dGPMNOpt: rebuild the whole local state from scratch.
            let (eval, falsified) = LocalEval::new_with_pinned(
                Arc::clone(&self.frag),
                self.site,
                Arc::clone(&self.q),
                &self.known_false_virtuals,
            );
            self.eval = Some(eval);
            falsified
        }
    }

    /// Runs the push decision once, after the initial evaluation.
    fn maybe_push(&mut self, out: &mut Outbox<DgpmMsg>) {
        let Some(theta) = self.cfg.push_threshold else {
            return;
        };
        if self.pushed {
            return;
        }
        self.pushed = true;
        let eval = self.eval.as_mut().expect("eval initialized");
        let Some(plan) = plan_push(eval, theta, self.cfg.push_size_cap) else {
            return;
        };
        let f = self.frag.fragment(self.site);
        // Group equations by parent (subscriber) site.
        let mut per_parent: BTreeMap<SiteId, Vec<PushedEq>> = BTreeMap::new();
        for eq in plan.equations {
            let idx = f.index_of(eq.var.node_id()).expect("in-node var");
            let pos = f.in_node_pos(idx).expect("in-node var");
            for &parent in f.in_node_subscribers(pos) {
                per_parent.entry(parent).or_default().push(eq.clone());
            }
        }
        for (parent, eqs) in per_parent {
            // Rewiring: each referenced virtual variable's owner must
            // also notify the parent directly.
            let mut per_owner: BTreeMap<SiteId, Vec<Var>> = BTreeMap::new();
            for eq in &eqs {
                for var in eq.expr.vars() {
                    let owner = self.frag.owner(var.node_id());
                    if owner != parent {
                        let entry = per_owner.entry(owner).or_default();
                        if !entry.contains(&var) {
                            entry.push(var);
                        }
                    }
                }
            }
            for (owner, vars) in per_owner {
                out.send(
                    Endpoint::Site(owner as u32),
                    DgpmMsg::Subscribe {
                        vars,
                        forward_to: parent as u32,
                    },
                );
            }
            out.send(Endpoint::Site(parent as u32), DgpmMsg::PushEqs(eqs));
        }
    }

    fn charge_eval_ops(&mut self, out: &mut Outbox<DgpmMsg>) {
        if let Some(ev) = self.eval.as_mut() {
            out.charge_ops(ev.take_ops());
        }
    }
}

impl SiteLogic<DgpmMsg> for DgpmSite {
    fn on_start(&mut self, out: &mut Outbox<DgpmMsg>) {
        let (eval, falsified) =
            LocalEval::new(Arc::clone(&self.frag), self.site, Arc::clone(&self.q));
        self.eval = Some(eval);
        self.route_falsifications(falsified, out);
        self.maybe_push(out);
        self.charge_eval_ops(out);
    }

    fn on_message(&mut self, from: Endpoint, msg: DgpmMsg, out: &mut Outbox<DgpmMsg>) {
        match msg {
            DgpmMsg::Falsified(vars) => {
                let newly = self.apply_falsifications(&vars);
                self.route_falsifications(newly, out);
            }
            DgpmMsg::PushEqs(eqs) => {
                out.charge_ops(eqs.iter().map(|e| e.expr.size() as u64).sum());
                let immediately_false = self.inlined.add(eqs);
                let newly = self.apply_falsifications(&immediately_false);
                self.route_falsifications(newly, out);
            }
            DgpmMsg::Subscribe { vars, forward_to } => {
                out.charge_ops(vars.len() as u64);
                let f = self.frag.fragment(self.site);
                let eval = self.eval.as_ref().expect("eval initialized");
                let mut already_false = Vec::new();
                for var in vars {
                    let Some(idx) = f.index_of(var.node_id()) else {
                        continue;
                    };
                    if eval.is_candidate(var.q, idx) {
                        self.extra_subs.register(var, forward_to as usize);
                    } else {
                        // Falsified before the subscription arrived:
                        // forward immediately or the parent never learns.
                        already_false.push(var);
                    }
                }
                if !already_false.is_empty() {
                    out.send(
                        Endpoint::Site(forward_to),
                        DgpmMsg::Falsified(already_false),
                    );
                }
            }
            DgpmMsg::GatherRequest => {
                debug_assert_eq!(from, Endpoint::Coordinator);
                let eval = self.eval.as_mut().expect("eval initialized");
                match self.mode {
                    QueryMode::DataSelecting => {
                        let lists = MatchLists(eval.local_match_lists());
                        out.send_result(Endpoint::Coordinator, DgpmMsg::LocalMatches(lists));
                    }
                    QueryMode::Boolean => {
                        assert!(self.q.node_count() <= 64, "presence bitmask limit");
                        let mut bits = 0u64;
                        for (q, l) in eval.local_match_lists() {
                            if !l.is_empty() {
                                bits |= 1 << q;
                            }
                        }
                        out.send_result(Endpoint::Coordinator, DgpmMsg::Presence(bits));
                    }
                }
            }
            DgpmMsg::LocalMatches(_) | DgpmMsg::Presence(_) => {
                unreachable!("sites never receive results")
            }
        }
        self.charge_eval_ops(out);
    }
}

impl dgs_net::RemoteSpec for DgpmSite {
    /// Engine tag + configuration + query mode + the pattern; the
    /// worker rebuilds this site against its bootstrapped
    /// fragmentation (`dgs_core::remote`).
    fn remote_spec(&self) -> Result<Vec<u8>, String> {
        Ok(crate::remote::spec_dgpm(&self.q, &self.cfg, self.mode))
    }
}

/// Coordinator phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Fixpoint,
    Gathering,
    Done,
}

/// Coordinator logic of `dGPM`: idles through the fixpoint, then
/// gathers and assembles `Q(G)`.
pub struct DgpmCoordinator {
    nq: usize,
    phase: Phase,
    builder: Option<AnswerBuilder>,
    presence: u64,
    mode: QueryMode,
    /// The assembled maximum relation (after a data-selecting run).
    pub answer: Option<MatchRelation>,
    /// The Boolean answer (after a Boolean run).
    pub boolean: Option<bool>,
}

impl DgpmCoordinator {
    /// Creates the coordinator for a pattern with `nq` query nodes.
    pub fn new(nq: usize) -> Self {
        Self::with_mode(nq, QueryMode::DataSelecting)
    }

    /// Creates the coordinator with an explicit query mode.
    pub fn with_mode(nq: usize, mode: QueryMode) -> Self {
        DgpmCoordinator {
            nq,
            phase: Phase::Fixpoint,
            builder: Some(AnswerBuilder::new(nq)),
            presence: 0,
            mode,
            answer: None,
            boolean: None,
        }
    }

    /// The final relation.
    ///
    /// # Panics
    /// Panics if the run has not completed.
    pub fn relation(&self) -> &MatchRelation {
        self.answer.as_ref().expect("run not finished")
    }

    fn finish(&mut self) {
        match self.mode {
            QueryMode::DataSelecting => {
                self.answer = Some(self.builder.take().unwrap().finish());
            }
            QueryMode::Boolean => {
                let all = if self.nq == 0 {
                    false
                } else if self.nq == 64 {
                    self.presence == u64::MAX
                } else {
                    self.presence == (1u64 << self.nq) - 1
                };
                self.boolean = Some(all);
            }
        }
    }
}

impl CoordinatorLogic<DgpmMsg> for DgpmCoordinator {
    fn on_start(&mut self, _out: &mut Outbox<DgpmMsg>) {}

    fn on_message(&mut self, _from: Endpoint, msg: DgpmMsg, out: &mut Outbox<DgpmMsg>) {
        match msg {
            DgpmMsg::LocalMatches(lists) => {
                let ops = self
                    .builder
                    .as_mut()
                    .expect("gathering phase")
                    .merge(&lists);
                out.charge_ops(ops);
            }
            DgpmMsg::Presence(bits) => {
                out.charge_ops(1);
                self.presence |= bits;
            }
            _ => unreachable!("site-only messages"),
        }
    }

    fn on_quiescent(&mut self, out: &mut Outbox<DgpmMsg>) -> bool {
        match self.phase {
            Phase::Fixpoint => {
                for i in 0..out.num_sites() {
                    out.send_control(Endpoint::Site(i as u32), DgpmMsg::GatherRequest);
                }
                self.phase = Phase::Gathering;
                // Degenerate case: zero sites.
                if out.num_sites() == 0 {
                    self.finish();
                    self.phase = Phase::Done;
                    return true;
                }
                false
            }
            Phase::Gathering => {
                // Final check: O(|Vq||F|) merge + totality test.
                out.charge_ops((self.nq * out.num_sites()) as u64);
                self.finish();
                self.phase = Phase::Done;
                true
            }
            Phase::Done => true,
        }
    }
}

/// Builds the full actor set for a data-selecting `dGPM` run.
pub fn build(
    frag: &Arc<Fragmentation>,
    q: &Arc<Pattern>,
    cfg: DgpmConfig,
) -> (DgpmCoordinator, Vec<DgpmSite>) {
    build_with_mode(frag, q, cfg, QueryMode::DataSelecting)
}

/// Builds the full actor set with an explicit query mode.
pub fn build_with_mode(
    frag: &Arc<Fragmentation>,
    q: &Arc<Pattern>,
    cfg: DgpmConfig,
    mode: QueryMode,
) -> (DgpmCoordinator, Vec<DgpmSite>) {
    let sites = (0..frag.num_sites())
        .map(|s| DgpmSite::with_mode(s, Arc::clone(frag), Arc::clone(q), cfg.clone(), mode))
        .collect();
    (DgpmCoordinator::with_mode(q.node_count(), mode), sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::generate::social::fig1;
    use dgs_net::{CostModel, ExecutorKind};
    use dgs_sim::hhk_simulation;

    fn run_fig1(cfg: DgpmConfig, kind: ExecutorKind) -> MatchRelation {
        let w = fig1();
        let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
        let q = Arc::new(w.pattern.clone());
        let (coord, sites) = build(&frag, &q, cfg);
        let outcome = dgs_net::run(kind, &CostModel::default(), coord, sites);
        outcome.coordinator.answer.unwrap()
    }

    #[test]
    fn fig1_all_configs_match_oracle() {
        let w = fig1();
        let oracle = hhk_simulation(&w.pattern, &w.graph).relation;
        for cfg in [
            DgpmConfig::optimized(),
            DgpmConfig::no_opt(),
            DgpmConfig::incremental_only(),
        ] {
            let got = run_fig1(cfg.clone(), ExecutorKind::Virtual);
            assert_eq!(got, oracle, "cfg {cfg:?}");
        }
    }

    #[test]
    fn fig1_threaded_matches_virtual() {
        let a = run_fig1(DgpmConfig::optimized(), ExecutorKind::Threaded);
        let b = run_fig1(DgpmConfig::optimized(), ExecutorKind::Virtual);
        assert_eq!(a, b);
    }

    #[test]
    fn fig1_expected_matches() {
        let w = fig1();
        let got = run_fig1(DgpmConfig::optimized(), ExecutorKind::Virtual);
        let mut pairs: Vec<_> = got.iter().collect();
        let mut expected = w.expected_matches();
        pairs.sort();
        expected.sort();
        assert_eq!(pairs, expected);
        assert!(got.is_total());
    }

    #[test]
    fn no_false_shipment_on_fig1() {
        // In Fig. 1 every in-node variable stays true (Example 7: "no
        // variable is updated to false"), so dGPM without push ships
        // nothing at all during the fixpoint.
        let w = fig1();
        let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
        let q = Arc::new(w.pattern.clone());
        let (coord, sites) = build(&frag, &q, DgpmConfig::incremental_only());
        let outcome = dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, sites);
        assert_eq!(outcome.metrics.data_messages, 0);
        assert_eq!(outcome.metrics.data_bytes, 0);
        // Results and control still flow.
        assert_eq!(outcome.metrics.control_messages, 3);
        assert_eq!(outcome.metrics.result_messages, 3);
    }

    #[test]
    fn broken_fig1_ships_falsifications() {
        // Remove the edge (f2, sp1) as in Example 8: X(F, f2) falls at
        // F2 and must be shipped to F1, cascading around the cycle.
        let w = fig1();
        let mut gb = dgs_graph::GraphBuilder::new();
        for v in w.graph.nodes() {
            gb.add_node(w.graph.label(v));
        }
        for (a, b) in w.graph.edges() {
            if !(a == w.node("f2") && b == w.node("sp1")) {
                gb.add_edge(a, b);
            }
        }
        let g = gb.build();
        let frag = Arc::new(Fragmentation::build(&g, &w.assignment, 3));
        let q = Arc::new(w.pattern.clone());
        let (coord, sites) = build(&frag, &q, DgpmConfig::incremental_only());
        let outcome = dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, sites);
        assert!(outcome.metrics.data_messages > 0);
        let oracle = hhk_simulation(&q, &g).relation;
        assert_eq!(outcome.coordinator.answer.unwrap(), oracle);
    }

    #[test]
    fn nopt_does_more_work_but_ships_the_same() {
        use dgs_graph::generate::{patterns, random};
        use dgs_partition::hash_partition;
        let g = random::uniform(400, 1_600, 6, 5);
        let q = Arc::new(patterns::random_cyclic(4, 8, 6, 5));
        let assign = hash_partition(400, 4, 5);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 4));

        let run = |cfg: DgpmConfig| {
            let (coord, sites) = build(&frag, &q, cfg);
            dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, sites)
        };
        let opt = run(DgpmConfig::incremental_only());
        let nopt = run(DgpmConfig::no_opt());
        assert_eq!(
            opt.coordinator.answer.unwrap(),
            nopt.coordinator.answer.unwrap()
        );
        // Identical shipment of variables (the paper shows one DS line
        // for both). Batch *boundaries* depend on timing, so compare
        // the shipped variable count: a Falsified message costs
        // 5 bytes of header plus 6 bytes per variable.
        let vars_of = |m: &dgs_net::RunMetrics| (m.data_bytes - 5 * m.data_messages) / 6;
        assert_eq!(vars_of(&opt.metrics), vars_of(&nopt.metrics));
        // ...but from-scratch recomputation costs far more local work
        // whenever any message flowed.
        if opt.metrics.data_messages > 0 {
            assert!(nopt.metrics.total_ops > opt.metrics.total_ops);
        }
    }
}
