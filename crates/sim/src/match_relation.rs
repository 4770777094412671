//! The simulation match relation `Q(G)`.

use dgs_graph::{NodeId, Pattern, QNodeId};
use std::fmt;

/// The maximum relation `R ⊆ Vq × V` satisfying the simulation child
/// condition, stored as one sorted match list per query node.
///
/// Note the paper's convention: if some query node has *no* match, `G`
/// does not match `Q` and the data-selecting answer `Q(G)` is the
/// empty set — use [`SimResult::answer`] for that semantics;
/// `MatchRelation` itself keeps the per-node maximum relation, which is
/// the more useful object for testing and for the distributed
/// algorithms' intermediate states.
#[derive(Clone, PartialEq, Eq)]
pub struct MatchRelation {
    matches: Vec<Vec<NodeId>>,
}

impl MatchRelation {
    /// Creates a relation from per-query-node match lists (sorted
    /// internally).
    pub fn from_lists(mut matches: Vec<Vec<NodeId>>) -> Self {
        for l in &mut matches {
            l.sort_unstable();
            l.dedup();
        }
        MatchRelation { matches }
    }

    /// Creates a relation from lists that are already sorted and free
    /// of duplicates — rows copied out of another relation — without
    /// [`Self::from_lists`]' per-list sort. Debug builds check that
    /// every list is strictly increasing.
    pub fn from_sorted_lists(matches: Vec<Vec<NodeId>>) -> Self {
        debug_assert!(
            matches.iter().all(|l| l.windows(2).all(|w| w[0] < w[1])),
            "from_sorted_lists: a list is not strictly increasing"
        );
        MatchRelation { matches }
    }

    /// An empty relation over `nq` query nodes.
    pub fn empty(nq: usize) -> Self {
        MatchRelation {
            matches: vec![Vec::new(); nq],
        }
    }

    /// Number of query nodes.
    pub fn query_nodes(&self) -> usize {
        self.matches.len()
    }

    /// The sorted matches of query node `u`.
    pub fn matches_of(&self, u: QNodeId) -> &[NodeId] {
        &self.matches[u.index()]
    }

    /// True iff `(u, v)` is in the relation.
    pub fn contains(&self, u: QNodeId, v: NodeId) -> bool {
        self.matches[u.index()].binary_search(&v).is_ok()
    }

    /// True iff every query node has at least one match, i.e. `G`
    /// matches `Q` (condition (1)).
    pub fn is_total(&self) -> bool {
        !self.matches.is_empty() && self.matches.iter().all(|l| !l.is_empty())
    }

    /// Total number of `(u, v)` pairs.
    pub fn len(&self) -> usize {
        self.matches.iter().map(Vec::len).sum()
    }

    /// True iff the relation has no pairs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates all pairs `(u, v)` in query-node order.
    pub fn iter(&self) -> impl Iterator<Item = (QNodeId, NodeId)> + '_ {
        self.matches
            .iter()
            .enumerate()
            .flat_map(|(u, l)| l.iter().map(move |&v| (QNodeId(u as u16), v)))
    }

    /// Checks that this relation is a valid simulation of `q` in the
    /// graph described by `succ` (label check is the caller's job):
    /// every pair must have all its query edges witnessed. Used by
    /// property tests for *soundness*.
    pub fn respects_child_condition(
        &self,
        q: &Pattern,
        succ: impl Fn(NodeId) -> Vec<NodeId>,
    ) -> bool {
        for (u, v) in self.iter() {
            for &uc in q.children(u) {
                let ok = succ(v).iter().any(|&vc| self.contains(uc, vc));
                if !ok {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Debug for MatchRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MatchRelation{{")?;
        for (u, l) in self.matches.iter().enumerate() {
            if u > 0 {
                write!(f, ", ")?;
            }
            write!(f, "u{u}: {} matches", l.len())?;
        }
        write!(f, "}}")
    }
}

/// Result of a (centralized or distributed) simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// The maximum relation under the child condition.
    pub relation: MatchRelation,
    /// Basic-operation count of the computation (for the virtual-time
    /// cost model; see `dgs-net::cost`).
    pub ops: u64,
}

impl SimResult {
    /// True iff `G` matches `Q` (Boolean query answer).
    pub fn matches(&self) -> bool {
        self.relation.is_total()
    }

    /// The data-selecting answer with the paper's convention:
    /// `Q(G)` if `G` matches `Q`, the empty relation otherwise.
    pub fn answer(&self) -> MatchRelation {
        if self.matches() {
            self.relation.clone()
        } else {
            MatchRelation::empty(self.relation.query_nodes())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lists_sorts_and_dedups() {
        let r = MatchRelation::from_lists(vec![vec![NodeId(3), NodeId(1), NodeId(3)]]);
        assert_eq!(r.matches_of(QNodeId(0)), &[NodeId(1), NodeId(3)]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn from_sorted_lists_equals_from_lists_on_sorted_input() {
        let lists = vec![vec![NodeId(1), NodeId(3)], vec![], vec![NodeId(0)]];
        assert_eq!(
            MatchRelation::from_sorted_lists(lists.clone()),
            MatchRelation::from_lists(lists)
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly increasing")]
    fn from_sorted_lists_rejects_a_duplicate_in_debug() {
        MatchRelation::from_sorted_lists(vec![vec![NodeId(2), NodeId(2)]]);
    }

    #[test]
    fn totality() {
        let r = MatchRelation::from_lists(vec![vec![NodeId(0)], vec![NodeId(1)]]);
        assert!(r.is_total());
        let r2 = MatchRelation::from_lists(vec![vec![NodeId(0)], vec![]]);
        assert!(!r2.is_total());
        assert!(!MatchRelation::empty(0).is_total());
    }

    #[test]
    fn contains_and_iter() {
        let r = MatchRelation::from_lists(vec![vec![NodeId(5)], vec![NodeId(2), NodeId(7)]]);
        assert!(r.contains(QNodeId(0), NodeId(5)));
        assert!(!r.contains(QNodeId(0), NodeId(2)));
        let pairs: Vec<_> = r.iter().collect();
        assert_eq!(
            pairs,
            vec![
                (QNodeId(0), NodeId(5)),
                (QNodeId(1), NodeId(2)),
                (QNodeId(1), NodeId(7)),
            ]
        );
    }

    #[test]
    fn answer_applies_empty_convention() {
        let total = SimResult {
            relation: MatchRelation::from_lists(vec![vec![NodeId(0)]]),
            ops: 0,
        };
        assert!(total.matches());
        assert_eq!(total.answer().len(), 1);

        let partial = SimResult {
            relation: MatchRelation::from_lists(vec![vec![NodeId(0)], vec![]]),
            ops: 0,
        };
        assert!(!partial.matches());
        assert_eq!(partial.answer().len(), 0);
        assert_eq!(partial.answer().query_nodes(), 2);
    }

    #[test]
    fn child_condition_checker() {
        use dgs_graph::{Label, PatternBuilder};
        let mut qb = PatternBuilder::new();
        let a = qb.add_node(Label(0));
        let b = qb.add_node(Label(1));
        qb.add_edge(a, b);
        let q = qb.build();
        // Graph: 0 -> 1.
        let succ = |v: NodeId| {
            if v == NodeId(0) {
                vec![NodeId(1)]
            } else {
                vec![]
            }
        };
        let good = MatchRelation::from_lists(vec![vec![NodeId(0)], vec![NodeId(1)]]);
        assert!(good.respects_child_condition(&q, succ));
        let bad = MatchRelation::from_lists(vec![vec![NodeId(1)], vec![NodeId(1)]]);
        assert!(!bad.respects_child_condition(&q, succ));
    }
}
