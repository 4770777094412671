//! # dgs — Distributed Graph Simulation
//!
//! A full implementation of **Fan, Wang, Wu & Deng, "Distributed Graph
//! Simulation: Impossibility and Possibility", PVLDB 7(12), 2014**:
//! graph pattern matching by graph simulation over fragmented,
//! distributed graphs, with the paper's partition-bounded algorithm
//! `dGPM`, the DAG algorithm `dGPMd` (with `dGPMs`, the same
//! rank-scheduled engine on cyclic patterns), the tree algorithm
//! `dGPMt`, and the `Match`/`disHHK`/`dMes` baselines — all runnable on a real
//! threaded cluster or a deterministic virtual-time cluster simulator.
//!
//! ## Quickstart
//!
//! Load the graph once into a [`SimEngine`] session, then serve
//! queries; [`Algorithm::Auto`] lets the planner pick the engine with
//! the best applicable bound:
//!
//! ```
//! use dgs::prelude::*;
//! use std::sync::Arc;
//!
//! // The paper's Fig. 1 social network, distributed over 3 sites.
//! let w = dgs::graph::generate::social::fig1();
//! let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
//!
//! // Build the session once: structural facts (DAG-ness, tree check,
//! // fragment connectivity, SCC condensation) are computed here, not
//! // per query.
//! let engine = SimEngine::builder(&w.graph, frag).build();
//!
//! // Query. The planner picks dGPM-family engines by precondition
//! // and records why in `report.plan`.
//! let report = engine.query(&w.pattern).unwrap();
//! assert!(report.is_match);
//! println!("plan: {}", report.plan);
//!
//! // The answer equals the centralized oracle.
//! let oracle = hhk_simulation(&w.pattern, &w.graph);
//! assert_eq!(report.relation, oracle.relation);
//!
//! // ... and ships data bounded by O(|Ef||Vq|), not O(|G|).
//! println!("PT = {:.2} ms, DS = {:.2} KB",
//!     report.metrics.virtual_time_ms(), report.metrics.data_kb());
//! ```
//!
//! Batches amortize the per-query broadcast:
//!
//! ```
//! # use dgs::prelude::*;
//! # use std::sync::Arc;
//! # let w = dgs::graph::generate::social::fig1();
//! # let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
//! # let engine = SimEngine::builder(&w.graph, frag).build();
//! let batch = engine.query_batch(&[w.pattern.clone(), w.pattern.clone()]);
//! assert_eq!(batch.succeeded(), 2);
//! ```
//!
//! ## Crate map
//!
//! | facade module | crate | contents |
//! |---------------|-------|----------|
//! | [`graph`] | `dgs-graph` | graphs, patterns, generators, graph algorithms |
//! | [`partition`] | `dgs-partition` | fragments, partitioners, crossing-edge refinement |
//! | [`sim`] | `dgs-sim` | centralized simulation (naive + HHK oracle, quotient compression) |
//! | [`net`] | `dgs-net` | threaded & virtual-time cluster executors, PT/DS metrics |
//! | [`core`] | `dgs-core` | `SimEngine`, `dGPM`, `dGPMd`/`dGPMs` (one engine), `dGPMt`, baselines |
//! | [`serve`] | `dgs-serve` | wire protocol, `dgsd` daemon core, remote client, load generation |

pub use dgs_core as core;
pub use dgs_graph as graph;
pub use dgs_net as net;
pub use dgs_partition as partition;
pub use dgs_serve as serve;
pub use dgs_sim as sim;

/// The names most programs need.
pub mod prelude {
    pub use dgs_core::{
        Algorithm, BatchReport, BooleanReport, CacheStats, DeltaReport, DgsError, GraphDelta,
        GraphFacts, IncrementalNote, PatternFacts, PlanExplanation, Planner, RunReport, SimEngine,
        UpdateMsg, Var,
    };
    pub use dgs_graph::{Graph, GraphBuilder, Label, NodeId, Pattern, PatternBuilder, QNodeId};
    pub use dgs_net::{CostModel, ExecutorKind, LatencyHistogram, RunMetrics};
    pub use dgs_partition::{
        bfs_partition, hash_partition, ldg_partition, tree_partition, Fragmentation,
        FragmentationStats,
    };
    pub use dgs_serve::{
        DgsClient, ServeAddr, ServeError, Server, ServerConfig, SessionOptions, WireAlgorithm,
    };
    pub use dgs_sim::{
        boolean_matches, compress_bisim, compress_simeq, hhk_simulation, naive_simulation,
        CompressedGraph, MatchRelation, MatchSet, SimPreorder,
    };
}

pub use prelude::*;
