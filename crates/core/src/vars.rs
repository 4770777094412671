//! Boolean variables `X(u,v)` and shared wire types.

use dgs_graph::{NodeId, QNodeId};
use dgs_net::WireSize;
use dgs_partition::SiteId;

/// The Boolean variable `X(u,v)`: "does data node `v` match query node
/// `u`?" (§4.1). Variables refer to nodes by *global* id so they are
/// meaningful across sites.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Var {
    /// The query node `u`.
    pub q: u16,
    /// The data node `v` (global id).
    pub node: u32,
}

impl Var {
    /// Builds a variable from typed ids.
    pub fn new(q: QNodeId, node: NodeId) -> Self {
        Var {
            q: q.0,
            node: node.0,
        }
    }

    /// The query node as a typed id.
    pub fn qnode(self) -> QNodeId {
        QNodeId(self.q)
    }

    /// The data node as a typed id.
    pub fn node_id(self) -> NodeId {
        NodeId(self.node)
    }
}

impl WireSize for Var {
    fn wire_size(&self) -> usize {
        2 + 4
    }
}

impl std::fmt::Display for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "X(u{},v{})", self.q, self.node)
    }
}

/// Per-query-node match lists shipped to the coordinator during result
/// collection (`Result`-class messages).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MatchLists(pub Vec<(u16, Vec<u32>)>);

impl WireSize for MatchLists {
    fn wire_size(&self) -> usize {
        4 + self
            .0
            .iter()
            .map(|(_, l)| 2 + 4 + 4 * l.len())
            .sum::<usize>()
    }
}

/// A shipped subgraph: `(node, label)` pairs plus edges over global
/// ids. Used by the `Match` and `disHHK` baselines.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct WireSubgraph {
    /// Nodes as `(global id, label)`.
    pub nodes: Vec<(u32, u16)>,
    /// Edges over global ids.
    pub edges: Vec<(u32, u32)>,
}

impl WireSize for WireSubgraph {
    fn wire_size(&self) -> usize {
        8 + 6 * self.nodes.len() + 8 * self.edges.len()
    }
}

/// Variables batched per destination site — the one routing path of
/// the `dGPM*` engines (delta maintenance batches the same way, grouped
/// by entry: `delta::EntryBatches`). A variable goes to
/// every site of a subscriber list, once per site; batches come out in
/// ascending site order with the empty ones skipped (the order message
/// sequence numbers, and so virtual time, are assigned in).
pub(crate) struct SiteBatches(Vec<Vec<Var>>);

impl SiteBatches {
    /// No batches yet, for a cluster of `num_sites`.
    pub(crate) fn new(num_sites: usize) -> Self {
        SiteBatches(vec![Vec::new(); num_sites])
    }

    /// Adds `var` to the batch of each site in `to`. Calls for one
    /// variable are consecutive, so a site named twice (a subscriber
    /// that also registered as an extra) still gets it once.
    pub(crate) fn push(&mut self, var: Var, to: &[SiteId]) {
        for &s in to {
            if self.0[s].last() != Some(&var) {
                self.0[s].push(var);
            }
        }
    }

    /// The non-empty batches, ascending by site.
    pub(crate) fn into_batches(self) -> impl Iterator<Item = (SiteId, Vec<Var>)> {
        let batches = self.0.into_iter().enumerate();
        batches.filter(|(_, vars)| !vars.is_empty())
    }
}

/// Accumulates per-site [`MatchLists`] into the final
/// [`dgs_sim::MatchRelation`]
/// at the coordinator (Phase 3 of the framework, Fig. 3).
#[derive(Clone, Debug)]
pub struct AnswerBuilder {
    lists: Vec<Vec<u32>>,
}

impl AnswerBuilder {
    /// Starts an empty answer over `nq` query nodes.
    pub fn new(nq: usize) -> Self {
        AnswerBuilder {
            lists: vec![Vec::new(); nq],
        }
    }

    /// Merges one site's local matches; returns the merge cost in
    /// basic operations.
    pub fn merge(&mut self, m: &MatchLists) -> u64 {
        let mut ops = 0;
        for (q, l) in &m.0 {
            ops += l.len() as u64 + 1;
            self.lists[*q as usize].extend_from_slice(l);
        }
        ops
    }

    /// Finalizes into the maximum match relation. Each site's list is
    /// ascending (locals are numbered in global order) and sites are
    /// disjoint, so a row merged from contiguous ranges is already
    /// strictly increasing and stands; any other row is rebuilt from a
    /// bitset over its `[min, max]` instead of sorted.
    pub fn finish(self) -> dgs_sim::MatchRelation {
        let rows = self.lists.into_iter().map(|l| {
            let l = if l.windows(2).all(|w| w[0] < w[1]) {
                l
            } else {
                ascending(&l)
            };
            l.into_iter().map(NodeId).collect()
        });
        dgs_sim::MatchRelation::from_sorted_lists(rows.collect())
    }
}

/// The distinct ids of a non-empty list, ascending.
fn ascending(ids: &[u32]) -> Vec<u32> {
    let lo = ids.iter().copied().min().unwrap_or(0);
    let hi = ids.iter().copied().max().unwrap_or(0);
    let mut bits = dgs_sim::MatchSet::new(1, (hi - lo) as usize + 1);
    for &v in ids {
        bits.set(0, v - lo);
    }
    bits.iter_row(0).map(|o| lo + o).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_builder_merges_sites() {
        let mut b = AnswerBuilder::new(2);
        b.merge(&MatchLists(vec![(0, vec![1]), (1, vec![2, 3])]));
        b.merge(&MatchLists(vec![(0, vec![4]), (1, vec![])]));
        let r = b.finish();
        assert_eq!(r.matches_of(QNodeId(0)), &[NodeId(1), NodeId(4)]);
        assert_eq!(r.matches_of(QNodeId(1)), &[NodeId(2), NodeId(3)]);
        assert!(r.is_total());
    }

    #[test]
    fn finish_equals_sorting_every_row() {
        // Per site, per query node: the lists `merge` sees.
        let interleaved = vec![vec![1, 5, 9, 13], vec![2, 6, 10], vec![0, 3, 7, 200]];
        let contiguous = vec![vec![0, 1, 2], vec![3, 4], vec![7, 9]];
        let single_site = vec![vec![4, 8, 15, 16, 23, 42]];
        let duplicates = vec![vec![3, 5], vec![5, 9], vec![3, 3, 11]];
        let empty: Vec<Vec<u32>> = vec![vec![], vec![], vec![]];
        for (name, sites) in [
            ("interleaved", interleaved),
            ("contiguous", contiguous),
            ("single site", single_site),
            ("duplicates", duplicates),
            ("empty", empty),
        ] {
            let mut b = AnswerBuilder::new(2);
            // Row 0 takes the lists in site order, row 1 reversed.
            for l in &sites {
                b.merge(&MatchLists(vec![(0, l.clone())]));
            }
            for l in sites.iter().rev() {
                b.merge(&MatchLists(vec![(1, l.clone())]));
            }
            let all: Vec<NodeId> = sites.iter().flatten().map(|&v| NodeId(v)).collect();
            let want = dgs_sim::MatchRelation::from_lists(vec![all.clone(), all]);
            assert_eq!(b.finish(), want, "{name}");
        }
    }

    #[test]
    fn site_batches_ascend_skip_empties_and_ship_once_per_site() {
        let (a, b, c) = (
            Var { q: 0, node: 7 },
            Var { q: 1, node: 7 },
            Var { q: 0, node: 9 },
        );
        let mut batches = SiteBatches::new(5);
        batches.push(a, &[3, 1]); // two subscribers: both batches, once
        batches.push(b, &[3]);
        batches.push(b, &[3, 4]); // an extra naming a subscriber again
        batches.push(c, &[]);
        let got: Vec<_> = batches.into_batches().collect();
        assert_eq!(
            got,
            vec![(1, vec![a]), (3, vec![a, b]), (4, vec![b])],
            "ascending sites, sites 0 and 2 never named"
        );
        assert_eq!(SiteBatches::new(3).into_batches().count(), 0);
    }

    #[test]
    fn var_roundtrip() {
        let v = Var::new(QNodeId(3), NodeId(42));
        assert_eq!(v.qnode(), QNodeId(3));
        assert_eq!(v.node_id(), NodeId(42));
        assert_eq!(v.wire_size(), 6);
        assert_eq!(v.to_string(), "X(u3,v42)");
    }

    #[test]
    fn match_lists_wire_size() {
        let m = MatchLists(vec![(0, vec![1, 2, 3]), (1, vec![])]);
        assert_eq!(m.wire_size(), 4 + (2 + 4 + 12) + (2 + 4));
    }

    #[test]
    fn subgraph_wire_size() {
        let s = WireSubgraph {
            nodes: vec![(0, 1), (1, 1)],
            edges: vec![(0, 1)],
        };
        assert_eq!(s.wire_size(), 8 + 12 + 8);
    }
}
