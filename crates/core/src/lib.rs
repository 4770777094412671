//! # dgs-core
//!
//! The distributed graph simulation algorithms of Fan, Wang, Wu & Deng,
//! *"Distributed Graph Simulation: Impossibility and Possibility"*,
//! PVLDB 7(12), 2014 — plus the baselines the paper compares against.
//!
//! Given a pattern `Q` and a graph `G` fragmented over sites
//! (`dgs-partition`), these engines compute `Q(G)` with message passing
//! over the `dgs-net` runtime:
//!
//! | engine | paper | guarantee |
//! |--------|-------|-----------|
//! | [`dgpm`] (`dGPM`) | §4, Thm 2 | partition bounded: PT `O(|Vf||Vq|(|Vq|+|Vm|)(|Eq|+|Em|))`, DS `O(|Ef||Vq|)` |
//! | [`dgpm`] (`dGPMNOpt`) | §4.2 | dGPM without incremental evaluation / push |
//! | [`dgpms`] (`dGPMd`, `dGPMs`) | §5.1, Thm 3 + extension | one rank-scheduled engine over the SCC condensation of `Q`, ≤ 1 data message per site pair per round, DS `O(|Ef||Vq|)`. Named `dGPMd` on a DAG `Q` (or DAG `G`), where the strata are the topological ranks: `d + 1` rounds, PT `O(d(|Vq|+|Vm|)(|Eq|+|Em|) + |Q||F|)`, parallel scalable in PT for fixed `|F|`. Named `dGPMs` on a *cyclic* `Q`, where a stratum repeats until its changed flag stays down: PT `O((d_c + ρ)(|Vq|+|Vm|)(|Eq|+|Em|) + |Q||F|)` |
//! | [`dgpmt`] (`dGPMt`) | §5.2, Cor 4 | trees: PT `O(|Q||Fm| + |Q||F|)`, DS `O(|Q||F|)`; parallel scalable in DS |
//! | [`baselines::match_central`] (`Match`) | §3.1 | naive: ship everything, centralized HHK |
//! | [`baselines::dishhk`] (`disHHK`) | \[25\] | ship candidate subgraphs to one site |
//! | [`baselines::dmes`] (`dMes`) | §6 / \[14\] | vertex-centric supersteps (Pregel-style) |
//!
//! ## The session API
//!
//! The entry point is [`SimEngine`]: built **once** over a loaded
//! graph + fragmentation, it caches the structural facts the
//! [`plan::Planner`] needs (DAG-ness, rooted-tree check, fragment
//! connectivity, the SCC condensation) and then serves many queries.
//! [`Algorithm::Auto`] lets the planner pick the engine with the best
//! applicable bound, with the decision recorded in
//! [`RunReport::plan`]:
//!
//! ```
//! use dgs_core::SimEngine;
//! use dgs_graph::generate::social::fig1;
//! use dgs_partition::Fragmentation;
//! use std::sync::Arc;
//!
//! let w = fig1();
//! let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
//! let engine = SimEngine::builder(&w.graph, frag).build();
//!
//! let report = engine.query(&w.pattern).unwrap();
//! assert!(report.is_match);
//! assert_eq!(report.answer().len(), 11);
//! ```
//!
//! Queries return [`Result<RunReport, DgsError>`](DgsError) — the
//! query path never panics — and [`SimEngine::query_batch`] amortizes
//! the per-query broadcast across a whole batch.
//!
//! Sessions are mutable: [`SimEngine::apply_delta`] absorbs batched
//! edge updates ([`delta::GraphDelta`]) with the fragmentation
//! maintained in place and cached answers kept current, under
//! deletions and insertions alike, by the distributed incremental
//! update of [`delta`].
//!
//! The building blocks are public too: [`local_eval::LocalEval`] is the
//! paper's `lEval` (optimistic counter-based local fixpoint with
//! incremental falsification), [`boolexpr`] is the Boolean
//! equation machinery behind partial answers, the push operation and
//! the tree algorithm, and [`vars::Var`] is the Boolean variable
//! `X(u,v)`.

pub mod baselines;
pub mod boolexpr;
mod cache;
pub mod delta;
pub mod dgpm;
pub mod dgpms;
pub mod dgpmt;
pub mod engine;
pub mod error;
pub mod local_eval;
/// Flat bitset candidate sets shared by the centralized and
/// distributed kernels (re-exported from `dgs-sim`, where the
/// centralized HHK kernel lives).
pub use dgs_sim::matchset;
pub mod plan;
pub mod push;
pub mod remote;
pub mod vars;

pub use cache::CacheStats;
pub use delta::{DeltaReport, GraphDelta, UpdateMsg};
pub use engine::{
    Algorithm, BatchReport, BooleanReport, EngineStats, RunReport, SimEngine, SimEngineBuilder,
};
pub use error::DgsError;
pub use plan::{EngineChoice, GraphFacts, IncrementalNote, PatternFacts, PlanExplanation, Planner};
pub use vars::Var;
