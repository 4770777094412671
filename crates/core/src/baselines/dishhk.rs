//! `disHHK`: reconstruction of the distributed simulation algorithm of
//! \[Ma, Cao, Huai & Wo, WWW'12\] (\[25\] in the paper).
//!
//! "Subgraphs from different sites are collected to a single site to
//! form a directly query-able graph, where matches can be determined."
//! Each site ships the subgraph induced by its *candidate* nodes
//! (nodes whose label occurs in the query — the only pruning that is
//! sound without cross-site information); the coordinator assembles
//! these into one graph and runs centralized HHK. Per Table 1 its data
//! shipment is `O(|G| + 4|Vf| + |F||Q|)` and its response time
//! `O((|Vq|+|V|)(|Eq|+|E|))` — both functions of the whole graph,
//! which is exactly what the paper's figures show against `dGPM`.
//!
//! The original implementation is unavailable; this reconstruction
//! follows the paper's description and matches the stated bounds: it
//! ships every candidate node and edge once, so its DS grows with `|G|`
//! where `dGPM`'s is bounded by `|Ef||Vq|`.

use crate::vars::WireSubgraph;
use dgs_graph::{GraphBuilder, Label, NodeId, Pattern};
use dgs_net::{CoordinatorLogic, Endpoint, Outbox, SiteLogic, WireSize};
use dgs_partition::{Fragmentation, SiteId};
use dgs_sim::{hhk_simulation, MatchRelation};
use std::collections::HashMap;
use std::sync::Arc;

/// Messages of the `disHHK` protocol.
#[derive(Clone, Debug)]
pub enum DishhkMsg {
    /// The candidate-induced subgraph of one site (data).
    Candidates(WireSubgraph),
}

impl WireSize for DishhkMsg {
    fn wire_size(&self) -> usize {
        let DishhkMsg::Candidates(sg) = self;
        1 + sg.wire_size()
    }
}

/// Site logic: filter by query labels, ship the induced subgraph.
pub struct DishhkSite {
    site: SiteId,
    frag: Arc<Fragmentation>,
    q: Arc<Pattern>,
}

impl DishhkSite {
    /// Creates the site logic.
    pub fn new(site: SiteId, frag: Arc<Fragmentation>, q: Arc<Pattern>) -> Self {
        DishhkSite { site, frag, q }
    }
}

impl dgs_net::RemoteSpec for DishhkSite {
    /// The disHHK baseline ships state that is not worth a wire
    /// format; it stays in-process, and the socket executor reports a
    /// typed `Unsupported` error instead of running it.
    fn remote_spec(&self) -> Result<Vec<u8>, String> {
        Err(
            "the disHHK baseline is not socket-remotable; use the virtual or threaded executor"
                .to_owned(),
        )
    }
}

impl SiteLogic<DishhkMsg> for DishhkSite {
    fn on_start(&mut self, out: &mut Outbox<DishhkMsg>) {
        let f = self.frag.fragment(self.site);
        let query_labels: Vec<bool> = {
            let bound = self
                .q
                .labels()
                .iter()
                .map(|l| l.index() + 1)
                .max()
                .unwrap_or(0);
            let mut v = vec![false; bound];
            for l in self.q.labels() {
                v[l.index()] = true;
            }
            v
        };
        let is_cand = |label: Label| -> bool {
            label.index() < query_labels.len() && query_labels[label.index()]
        };

        let mut sg = WireSubgraph::default();
        let mut ops = 0u64;
        for idx in f.local_indices() {
            ops += 1;
            if !is_cand(f.label(idx)) {
                continue;
            }
            sg.nodes.push((f.global_id(idx).0, f.label(idx).0));
            for &t in f.successors(idx) {
                ops += 1;
                // Candidate targets only; both endpoints' labels are
                // locally known (virtual labels are stored in Fi).
                if is_cand(f.label(t)) {
                    sg.edges.push((f.global_id(idx).0, f.global_id(t).0));
                }
            }
        }
        out.charge_ops(ops);
        out.send(Endpoint::Coordinator, DishhkMsg::Candidates(sg));
    }

    fn on_message(&mut self, _from: Endpoint, _msg: DishhkMsg, _out: &mut Outbox<DishhkMsg>) {
        unreachable!("disHHK sites receive nothing");
    }
}

/// Coordinator: assemble the candidate graph (sparse ids → dense) and
/// run HHK.
pub struct DishhkCoordinator {
    q: Arc<Pattern>,
    nodes: Vec<(u32, u16)>,
    edges: Vec<(u32, u32)>,
    /// The final relation over *global* node ids (after the run).
    pub answer: Option<MatchRelation>,
    /// Total query-node count (for empty-graph edge cases).
    nq: usize,
}

impl DishhkCoordinator {
    /// Creates the coordinator.
    pub fn new(q: Arc<Pattern>) -> Self {
        let nq = q.node_count();
        DishhkCoordinator {
            q,
            nodes: Vec::new(),
            edges: Vec::new(),
            answer: None,
            nq,
        }
    }
}

impl CoordinatorLogic<DishhkMsg> for DishhkCoordinator {
    fn on_start(&mut self, _out: &mut Outbox<DishhkMsg>) {}

    fn on_message(&mut self, _from: Endpoint, msg: DishhkMsg, out: &mut Outbox<DishhkMsg>) {
        let DishhkMsg::Candidates(sg) = msg;
        out.charge_ops((sg.nodes.len() + sg.edges.len()) as u64);
        self.nodes.extend(sg.nodes);
        self.edges.extend(sg.edges);
    }

    fn on_quiescent(&mut self, out: &mut Outbox<DishhkMsg>) -> bool {
        // Dense remap of the sparse candidate ids.
        let mut dense: HashMap<u32, u32> = HashMap::with_capacity(self.nodes.len());
        let mut b = GraphBuilder::with_capacity(self.nodes.len(), self.edges.len());
        let mut back = Vec::with_capacity(self.nodes.len());
        for &(id, l) in &self.nodes {
            dense.insert(id, back.len() as u32);
            back.push(id);
            b.add_node(Label(l));
        }
        for &(u, v) in &self.edges {
            // Both endpoints are candidates, hence present.
            b.add_edge(NodeId(dense[&u]), NodeId(dense[&v]));
        }
        let g = b.build();
        out.charge_ops(g.size() as u64);
        let result = hhk_simulation(&self.q, &g);
        out.charge_ops(result.ops);
        // Map back to global ids.
        let lists: Vec<Vec<NodeId>> = (0..self.nq)
            .map(|u| {
                result
                    .relation
                    .matches_of(dgs_graph::QNodeId(u as u16))
                    .iter()
                    .map(|&v| NodeId(back[v.index()]))
                    .collect()
            })
            .collect();
        self.answer = Some(MatchRelation::from_lists(lists));
        true
    }
}

/// Builds the full actor set for a `disHHK` run.
pub fn build(frag: &Arc<Fragmentation>, q: &Arc<Pattern>) -> (DishhkCoordinator, Vec<DishhkSite>) {
    let sites = (0..frag.num_sites())
        .map(|s| DishhkSite::new(s, Arc::clone(frag), Arc::clone(q)))
        .collect();
    (DishhkCoordinator::new(Arc::clone(q)), sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::generate::social::fig1;
    use dgs_graph::generate::{patterns, random};
    use dgs_net::{CostModel, ExecutorKind};
    use dgs_partition::hash_partition;

    #[test]
    fn dishhk_equals_oracle_on_fig1() {
        let w = fig1();
        let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
        let q = Arc::new(w.pattern.clone());
        let (coord, sites) = build(&frag, &q);
        let outcome = dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, sites);
        let oracle = hhk_simulation(&w.pattern, &w.graph).relation;
        assert_eq!(outcome.coordinator.answer.unwrap(), oracle);
    }

    #[test]
    fn dishhk_prunes_by_label_but_still_ships_plenty() {
        // With 3 of 8 labels in the query, shipment is a constant
        // fraction of |G| — orders above dGPM, below Match.
        let g = random::uniform(500, 2_000, 8, 3);
        let q = Arc::new(patterns::random_cyclic(3, 5, 3, 3));
        let assign = hash_partition(500, 4, 3);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 4));

        let (coord, sites) = build(&frag, &q);
        let dishhk = dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, sites);
        let (mcoord, msites) = crate::baselines::match_central::build(&frag, &q);
        let full = dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), mcoord, msites);
        assert!(dishhk.metrics.data_bytes < full.metrics.data_bytes);
        assert!(dishhk.metrics.data_bytes > full.metrics.data_bytes / 100);
        // Answers agree with each other and the oracle.
        let oracle = hhk_simulation(&q, &g).relation;
        assert_eq!(dishhk.coordinator.answer.unwrap(), oracle);
        assert_eq!(full.coordinator.answer.unwrap(), oracle);
    }

    #[test]
    fn random_inputs_match_oracle() {
        for seed in 0..10 {
            let g = random::uniform(200, 700, 5, seed);
            let q = Arc::new(patterns::random_cyclic(4, 7, 5, seed + 100));
            let assign = hash_partition(200, 3, seed);
            let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
            let (coord, sites) = build(&frag, &q);
            let outcome = dgs_net::run(ExecutorKind::Virtual, &CostModel::default(), coord, sites);
            let oracle = hhk_simulation(&q, &g).relation;
            assert_eq!(outcome.coordinator.answer.unwrap(), oracle, "seed {seed}");
        }
    }
}
