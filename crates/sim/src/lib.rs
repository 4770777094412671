//! # dgs-sim
//!
//! Centralized graph simulation — the reference implementation the
//! distributed algorithms are verified against, and the engine behind
//! the `Match` and `disHHK` baselines.
//!
//! Graph simulation (§2.1 of the paper, after [Henzinger, Henzinger &
//! Kopke, FOCS'95]): `G` matches `Q` iff there is a binary relation
//! `R ⊆ Vq × V` such that (1) every query node has a match and (2) for
//! every `(u, v) ∈ R`, `fv(u) = L(v)` and every query edge `(u, u')`
//! is witnessed by some edge `(v, v')` with `(u', v') ∈ R`. If `G`
//! matches `Q` there is a unique *maximum* such relation `Q(G)`,
//! computable in `O((|Vq| + |V|)(|Eq| + |E|))` time.
//!
//! * [`naive::naive_simulation`] — textbook fixpoint, quadratic, used
//!   as a cross-check in tests;
//! * [`hhk::hhk_simulation`] — counter-based worklist algorithm with
//!   the optimal bound;
//! * [`MatchRelation`] — the result type (maximum relation under
//!   condition (2); [`MatchRelation::is_total`] tells whether `G`
//!   matches `Q`, and [`SimResult::answer`] applies the paper's
//!   `Q(G) = ∅` convention when it does not).
//!
//! The quotient compression behind the engine's compressed leg rests
//! on [`preorder::SimPreorder`] (the simulation preorder of `G` over
//! itself) and [`bisim::bisimulation_partition`] (the \[6\]
//! equivalence); [`compress`] answers any pattern on the quotient
//! graph, exactly.

pub mod bisim;
pub mod boolean;
pub mod compress;
pub mod hhk;
pub mod match_relation;
pub mod matchset;
pub mod naive;
pub mod preorder;

pub use bisim::{bisimulation_partition, BisimPartition};
pub use boolean::boolean_matches;
pub use compress::{compress_bisim, compress_simeq, CompressedGraph};
pub use hhk::hhk_simulation;
pub use match_relation::{MatchRelation, SimResult};
pub use matchset::{MatchSet, SetBits};
pub use naive::naive_simulation;
pub use preorder::SimPreorder;
