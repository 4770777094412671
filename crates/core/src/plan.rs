//! The auto-planner: cached structural facts plus the decision rule
//! that picks the cheapest applicable engine for each query.
//!
//! The paper's specialized algorithms trade generality for better
//! bounds — `dGPMt` (§5.2) needs a tree graph cut into connected
//! fragments, `dGPMd` (§5.1) needs a DAG pattern or a DAG graph —
//! and a session engine should make that choice, not the caller.
//! [`GraphFacts`] is computed **once** per [`crate::SimEngine`] (the
//! graph-side checks are linear but touch the whole graph);
//! [`PatternFacts`] is computed per query (linear in `|Q|`, which the
//! paper assumes small). [`Planner::plan`] combines the two into an
//! [`EngineChoice`] with a human-readable [`PlanExplanation`].

use crate::dgpm::DgpmConfig;
use crate::engine::Algorithm;
use crate::error::DgsError;
use dgs_graph::algo::{strongly_connected_components, PatternView};
use dgs_graph::generate::tree::is_rooted_tree;
use dgs_graph::{Graph, Pattern};
use dgs_partition::Fragmentation;

/// Structural facts about the loaded graph + fragmentation, computed
/// once at engine build time and reused by every query.
#[derive(Clone, Debug)]
pub struct GraphFacts {
    /// `|V|`.
    pub node_count: usize,
    /// `|E|`.
    pub edge_count: usize,
    /// Whether the data graph is acyclic (enables the `dGPMd`
    /// cyclic-pattern short-circuit, §5.1).
    pub is_dag: bool,
    /// Whether the data graph is a rooted tree (Corollary 4 scope).
    pub is_rooted_tree: bool,
    /// Whether every fragment has at most one in-node — for tree
    /// graphs this is the "connected subtree fragments" precondition
    /// of `dGPMt` (§5.2).
    pub fragments_connected: bool,
    /// Number of strongly connected components.
    pub scc_count: usize,
    /// `|F|`.
    pub num_sites: usize,
}

impl GraphFacts {
    /// Computes all facts in `O(|V| + |E|)` — one Tarjan pass, with
    /// DAG-ness derived from the condensation (all SCCs trivial, no
    /// self-loop) instead of a second pass.
    pub fn compute(graph: &Graph, frag: &Fragmentation) -> Self {
        let (_, scc_count) = strongly_connected_components(graph);
        let is_dag = scc_count == graph.node_count()
            && graph.nodes().all(|v| !graph.successors(v).contains(&v));
        GraphFacts {
            node_count: graph.node_count(),
            edge_count: graph.edge_count(),
            is_dag,
            is_rooted_tree: is_rooted_tree(graph),
            fragments_connected: frag.fragments().iter().all(|f| f.in_nodes().len() <= 1),
            scc_count,
            num_sites: frag.num_sites(),
        }
    }
}

/// Structural facts about one query pattern.
#[derive(Clone, Debug)]
pub struct PatternFacts {
    /// `|Vq|`.
    pub node_count: usize,
    /// `|Eq|`.
    pub edge_count: usize,
    /// Whether the pattern is acyclic (enables `dGPMd`'s rank
    /// scheduling directly on `Q`).
    pub is_dag: bool,
    /// Number of SCCs of the pattern — the number of strata `dGPMs`
    /// will schedule.
    pub scc_count: usize,
    /// Whether every pattern node reaches a cycle of `Q`, which makes
    /// `∅` the maximum simulation on an acyclic graph.
    pub(crate) empty_rows_are_fixpoint: bool,
}

impl PatternFacts {
    /// Computes the per-query facts in `O(|Vq| + |Eq|)` — one Tarjan
    /// pass, DAG-ness derived from it as in [`GraphFacts::compute`] —
    /// and, for a cyclic pattern, which nodes reach a cycle.
    pub fn compute(q: &Pattern) -> Self {
        let (_, scc_count) = strongly_connected_components(&PatternView(q));
        let is_dag = scc_count == q.node_count() && q.nodes().all(|u| !q.children(u).contains(&u));
        PatternFacts {
            node_count: q.node_count(),
            edge_count: q.edge_count(),
            is_dag,
            scc_count,
            empty_rows_are_fixpoint: !is_dag && empty_rows_are_fixpoint(q),
        }
    }
}

/// Whether the all-empty relation is the **maximum simulation
/// fixpoint** of `q` on an acyclic graph — true exactly when every
/// pattern node can reach a cycle of `Q`.
///
/// A node that cannot (a childless sink, or an ancestor whose only
/// descendants are such sinks) keeps its label-compatible matches in
/// the true fixpoint on *any* graph; for those patterns `∅` is only
/// the answer convention, not the fixpoint, so the planner runs them
/// rather than short-circuiting to `trivial-∅`.
pub(crate) fn empty_rows_are_fixpoint(q: &Pattern) -> bool {
    // Iteratively trim nodes whose successors are all trimmed
    // (childless sinks first); survivors are exactly the nodes that
    // can reach a cycle.
    let n = q.node_count();
    let mut trimmed = vec![false; n];
    loop {
        let mut changed = false;
        for u in q.nodes() {
            if !trimmed[u.0 as usize] && q.children(u).iter().all(|c| trimmed[c.0 as usize]) {
                trimmed[u.0 as usize] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    trimmed.iter().all(|t| !t)
}

/// The engine a query resolved to — what runs. An [`Algorithm`] is
/// what a caller may ask for; this is that minus `Auto`, plus the
/// short-circuit only planning can reach.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineChoice {
    /// Two-round tree algorithm (§5.2).
    Dgpmt,
    /// Rank-batched DAG algorithm (§5.1): the rank-scheduled engine
    /// on a DAG pattern, `d + 1` rounds (Theorem 3).
    Dgpmd,
    /// The same engine on a cyclic pattern: SCC-stratified batching.
    Dgpms,
    /// Fully asynchronous partition-bounded `dGPM` (§4). Only an
    /// explicit request runs it: the planner's own choices win on
    /// their bounds and on wall time.
    Dgpm(DgpmConfig),
    /// `Match`: ship everything to one site (§3.1).
    MatchCentral,
    /// `disHHK` \[25\].
    DisHhk,
    /// `dMes`: vertex-centric supersteps (§6 / \[14\]).
    DMes,
    /// A cyclic pattern on an acyclic graph can never match: answer
    /// `∅` without any distributed work (§5.1's observation).
    TriviallyEmpty,
}

impl EngineChoice {
    /// Display name matching the paper's legends: the one table behind
    /// [`Algorithm::name`], every report's and plan's `algorithm`, and
    /// the engine named in a [`DgsError`].
    pub fn name(&self) -> &'static str {
        match self {
            Self::Dgpmt => "dGPMt",
            Self::Dgpmd => "dGPMd",
            Self::Dgpms => "dGPMs",
            Self::Dgpm(cfg) if !cfg.incremental => "dGPMNOpt",
            Self::Dgpm(cfg) if cfg.push_threshold.is_none() => "dGPM-nopush",
            Self::Dgpm(_) => "dGPM",
            Self::MatchCentral => "Match",
            Self::DisHhk => "disHHK",
            Self::DMes => "dMes",
            Self::TriviallyEmpty => "trivial-∅",
        }
    }

    /// The engine an explicit request names, preconditions not yet
    /// checked; `None` for [`Algorithm::Auto`].
    pub(crate) fn requested_by(algorithm: &Algorithm) -> Option<Self> {
        Some(match algorithm {
            Algorithm::Auto => return None,
            Algorithm::Dgpm(cfg) => Self::Dgpm(cfg.clone()),
            Algorithm::Dgpmd => Self::Dgpmd,
            Algorithm::Dgpms => Self::Dgpms,
            Algorithm::Dgpmt => Self::Dgpmt,
            Algorithm::MatchCentral => Self::MatchCentral,
            Algorithm::DisHhk => Self::DisHhk,
            Algorithm::DMes => Self::DMes,
        })
    }
}

/// The planner: a pure decision rule over cached facts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Planner;

/// The incremental leg of a plan: the answer was **maintained** under
/// edge deletions and insertions by the distributed counter update
/// (the paper's incremental `lEval`, §4.2, run site-by-site with
/// falsifications — and, for insertions, affected-area resurrections —
/// exchanged like dGPM data messages) instead of being re-evaluated
/// from scratch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrementalNote {
    /// Edge deletions absorbed since the entry was computed.
    pub deletions_absorbed: u64,
    /// Edge insertions absorbed since the entry was computed.
    pub insertions_absorbed: u64,
    /// Distributed maintenance runs that kept the entry current.
    pub maintenance_runs: u64,
}

/// How a query was planned, recorded in every report.
#[derive(Clone, Debug)]
pub struct PlanExplanation {
    /// Display name of the engine that (would) run.
    pub algorithm: &'static str,
    /// `true` when the planner chose; `false` when the caller forced
    /// an engine.
    pub auto: bool,
    /// The facts that drove the decision, in decision order.
    pub reasons: Vec<String>,
    /// Present when the answer was maintained incrementally under
    /// edge deletions rather than re-evaluated.
    pub incremental: Option<IncrementalNote>,
}

impl PlanExplanation {
    /// An explanation for an explicitly requested engine.
    pub fn forced(algorithm: &'static str) -> Self {
        PlanExplanation {
            algorithm,
            auto: false,
            reasons: vec!["engine requested explicitly by the caller".into()],
            incremental: None,
        }
    }
}

impl std::fmt::Display for PlanExplanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}",
            self.algorithm,
            if self.auto { "auto" } else { "forced" },
        )?;
        if let Some(i) = &self.incremental {
            write!(
                f,
                ", incremental: {} deletions + {} insertions over {} maintenance runs",
                i.deletions_absorbed, i.insertions_absorbed, i.maintenance_runs
            )?;
        }
        write!(f, "): {}", self.reasons.join("; "))
    }
}

impl Planner {
    /// Resolves a query against the cached facts.
    ///
    /// Decision order (most specialized bound first):
    /// 1. cyclic `Q` on an acyclic `G` → trivially empty, no
    ///    distributed work, when every node of `Q` reaches a cycle —
    ///    then `∅` is the maximum relation; otherwise `dGPMs`, since
    ///    the nodes that reach no cycle keep their matches;
    /// 2. tree `G` with connected fragments → `dGPMt` (DS `O(|Q||F|)`,
    ///    parallel scalable in shipment, Corollary 4);
    /// 3. DAG `Q` → `dGPMd` (rank-batched, `d + 1` shipping rounds,
    ///    Theorem 3);
    /// 4. otherwise → `dGPMs` (the same rank-scheduled engine over
    ///    the SCC condensation of `Q`).
    ///
    /// Every choice computes the maximum relation, so a planned answer
    /// can be cached, maintained and merged as the fixpoint.
    pub fn plan(
        &self,
        g: &GraphFacts,
        q: &PatternFacts,
    ) -> Result<(EngineChoice, PlanExplanation), DgsError> {
        self.validate_pattern(q)?;
        let mut reasons = Vec::new();
        let choice = if !q.is_dag && g.is_dag && q.empty_rows_are_fixpoint {
            reasons.push(format!(
                "pattern is cyclic ({} SCCs over {} nodes) but the graph is acyclic — \
                 a cycle of Q can only be simulated by a cycle of G, and every node \
                 of Q reaches one, so Q(G) = ∅",
                q.scc_count, q.node_count
            ));
            EngineChoice::TriviallyEmpty
        } else if !q.is_dag && g.is_dag {
            reasons.push(
                "pattern is cyclic but the graph is acyclic — the cycle of Q matches \
                 nothing, yet some node of Q reaches no cycle and keeps its matches, \
                 so the relation is computed rather than short-circuited to ∅"
                    .into(),
            );
            EngineChoice::Dgpms
        } else if g.is_rooted_tree && g.fragments_connected {
            reasons.push("graph is a rooted tree".into());
            reasons.push(format!(
                "all {} fragments are connected subtrees (≤ 1 in-node each)",
                g.num_sites
            ));
            EngineChoice::Dgpmt
        } else if q.is_dag {
            if g.is_rooted_tree {
                reasons.push(
                    "graph is a rooted tree but some fragment is disconnected, \
                     so dGPMt's two-round bound does not apply"
                        .into(),
                );
            }
            reasons.push("pattern is a DAG — rank scheduling applies (Theorem 3)".into());
            EngineChoice::Dgpmd
        } else {
            reasons.push(format!(
                "pattern and graph are both cyclic (pattern: {} SCCs, graph: {} SCCs) — \
                 only the partition-bounded engines apply (Theorem 2)",
                q.scc_count, g.scc_count
            ));
            EngineChoice::Dgpms
        };
        let plan = PlanExplanation {
            algorithm: choice.name(),
            auto: true,
            reasons,
            incremental: None,
        };
        Ok((choice, plan))
    }

    /// The pattern checks every engine shares, independent of any
    /// structural precondition.
    pub fn validate_pattern(&self, q: &PatternFacts) -> Result<(), DgsError> {
        if q.node_count == 0 {
            return Err(DgsError::InvalidPattern {
                reason: "pattern has no nodes".into(),
            });
        }
        Ok(())
    }

    /// Checks an explicitly requested engine against the facts,
    /// returning the precondition violation if any.
    pub fn check_explicit(
        &self,
        choice: &EngineChoice,
        g: &GraphFacts,
        q: &PatternFacts,
    ) -> Result<(), DgsError> {
        self.validate_pattern(q)?;
        let unsupported = |reason: &str| {
            Err(DgsError::Unsupported {
                algorithm: choice.name(),
                reason: reason.into(),
            })
        };
        match choice {
            EngineChoice::Dgpmt if !g.is_rooted_tree => {
                unsupported("dGPMt requires a rooted tree graph")
            }
            EngineChoice::Dgpmt if !g.fragments_connected => unsupported(
                "dGPMt requires connected fragments (some fragment has more than one in-node)",
            ),
            EngineChoice::Dgpmd if !q.is_dag && !g.is_dag => {
                unsupported("dGPMd requires a DAG pattern or a DAG graph")
            }
            _ => Ok(()),
        }
    }

    /// Resolves an explicit request: the engine checked against the
    /// facts, or `trivial-∅` where the request is for an engine that
    /// only schedules DAG patterns and the pattern is cyclic — on the
    /// acyclic graph both are for, that cannot match (§5.1).
    pub(crate) fn plan_explicit(
        &self,
        choice: EngineChoice,
        g: &GraphFacts,
        q: &PatternFacts,
    ) -> Result<(EngineChoice, PlanExplanation), DgsError> {
        self.check_explicit(&choice, g, q)?;
        let acyclic = match choice {
            EngineChoice::Dgpmt => Some("a tree"),
            EngineChoice::Dgpmd if g.is_dag => Some("an acyclic graph"),
            _ => None,
        };
        let Some(on) = acyclic.filter(|_| !q.is_dag) else {
            let plan = PlanExplanation::forced(choice.name());
            return Ok((choice, plan));
        };
        let mut plan = PlanExplanation::forced(EngineChoice::TriviallyEmpty.name());
        plan.reasons.push(format!(
            "{} requested with a cyclic pattern on {on}: Q(G) = ∅",
            choice.name()
        ));
        Ok((EngineChoice::TriviallyEmpty, plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::generate::{dag, patterns, random, tree};
    use dgs_partition::{hash_partition, tree_partition};

    fn facts_for(g: &Graph, k: usize, seed: u64) -> GraphFacts {
        let assign = hash_partition(g.node_count(), k, seed);
        let frag = Fragmentation::build(g, &assign, k);
        GraphFacts::compute(g, &frag)
    }

    #[test]
    fn tree_with_connected_fragments_plans_dgpmt() {
        let g = tree::random_tree(120, 4, 1);
        let assign = tree_partition(&g, 4);
        let frag = Fragmentation::build(&g, &assign, 4);
        let gf = GraphFacts::compute(&g, &frag);
        assert!(gf.is_dag && gf.is_rooted_tree && gf.fragments_connected);
        let qf = PatternFacts::compute(&patterns::path_pattern(
            3,
            &[
                dgs_graph::Label(0),
                dgs_graph::Label(1),
                dgs_graph::Label(2),
            ],
        ));
        let (choice, plan) = Planner.plan(&gf, &qf).unwrap();
        assert_eq!(choice, EngineChoice::Dgpmt);
        assert!(plan.auto);
        assert_eq!(plan.algorithm, "dGPMt");
        assert!(plan.to_string().contains("rooted tree"));
    }

    #[test]
    fn tree_with_hash_fragments_falls_back_to_dgpmd() {
        let g = tree::random_tree(200, 4, 2);
        let gf = facts_for(&g, 4, 2);
        assert!(gf.is_rooted_tree);
        // A hash partition of a 200-node tree virtually never yields
        // connected fragments.
        assert!(!gf.fragments_connected);
        let qf = PatternFacts::compute(&patterns::random_dag_with_depth(3, 4, 2, 4, 2));
        let (choice, _) = Planner.plan(&gf, &qf).unwrap();
        assert_eq!(choice, EngineChoice::Dgpmd);
    }

    /// `u0 → u1 → u2 → u0`, plus a sink `u2 → u3` when `sink`.
    fn ring(sink: bool) -> Pattern {
        let mut b = dgs_graph::PatternBuilder::new();
        let u: Vec<_> = (0..3).map(|i| b.add_node(dgs_graph::Label(i))).collect();
        for i in 0..3 {
            b.add_edge(u[i], u[(i + 1) % 3]);
        }
        if sink {
            let s = b.add_node(dgs_graph::Label(3));
            b.add_edge(u[2], s);
        }
        b.build()
    }

    #[test]
    fn dag_graph_cyclic_pattern_is_trivially_empty() {
        let g = dag::citation_like(100, 250, 4, 3);
        let gf = facts_for(&g, 3, 3);
        assert!(gf.is_dag && !gf.is_rooted_tree);
        let q = ring(false);
        assert!(empty_rows_are_fixpoint(&q));
        let qf = PatternFacts::compute(&q);
        assert!(!qf.is_dag);
        let (choice, plan) = Planner.plan(&gf, &qf).unwrap();
        assert_eq!(choice, EngineChoice::TriviallyEmpty);
        assert!(plan.reasons[0].contains("cyclic"));
    }

    #[test]
    fn dag_graph_cyclic_pattern_with_a_sink_runs() {
        let g = dag::citation_like(100, 250, 4, 3);
        let gf = facts_for(&g, 3, 3);
        let q = ring(true);
        assert!(!empty_rows_are_fixpoint(&q));
        let (choice, plan) = Planner.plan(&gf, &PatternFacts::compute(&q)).unwrap();
        assert_eq!(choice, EngineChoice::Dgpms);
        assert!(plan.reasons[0].contains("reaches no cycle"));
    }

    #[test]
    fn doubly_cyclic_plans_dgpms() {
        let g = random::uniform(80, 300, 4, 4);
        let gf = facts_for(&g, 3, 4);
        assert!(!gf.is_dag);
        let qf = PatternFacts::compute(&patterns::random_cyclic(3, 5, 4, 4));
        let (choice, _) = Planner.plan(&gf, &qf).unwrap();
        assert_eq!(choice, EngineChoice::Dgpms);
    }

    #[test]
    fn empty_pattern_is_invalid() {
        let g = random::uniform(10, 20, 2, 5);
        let gf = facts_for(&g, 2, 5);
        let qf = PatternFacts::compute(&dgs_graph::PatternBuilder::new().build());
        assert!(matches!(
            Planner.plan(&gf, &qf),
            Err(DgsError::InvalidPattern { .. })
        ));
    }

    #[test]
    fn explicit_checks_mirror_the_old_asserts() {
        let g = random::uniform(50, 200, 4, 6);
        let gf = facts_for(&g, 2, 6);
        let qf = PatternFacts::compute(&patterns::random_cyclic(3, 5, 4, 6));
        let p = Planner;
        assert!(matches!(
            p.check_explicit(&EngineChoice::Dgpmd, &gf, &qf),
            Err(DgsError::Unsupported {
                algorithm: "dGPMd",
                ..
            })
        ));
        assert!(matches!(
            p.check_explicit(&EngineChoice::Dgpmt, &gf, &qf),
            Err(DgsError::Unsupported {
                algorithm: "dGPMt",
                ..
            })
        ));
        assert!(p.check_explicit(&EngineChoice::Dgpms, &gf, &qf).is_ok());
        let dgpm = EngineChoice::requested_by(&Algorithm::dgpm()).unwrap();
        assert!(p.check_explicit(&dgpm, &gf, &qf).is_ok());
    }
}
