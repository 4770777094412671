//! # dgs-partition
//!
//! Graph fragmentation for distributed graph simulation (§2.2 of Fan
//! et al., VLDB 2014).
//!
//! A fragmentation `F` of `G = (V, E, L)` is `(F1, ..., Fn)` where each
//! fragment `Fi = (Vi ∪ Fi.O, Ei, Li)`:
//!
//! * `(V1, ..., Vn)` partitions `V` (the *local* nodes);
//! * `Fi.O` is the set of **virtual nodes**: nodes in other fragments
//!   that are the target of a **crossing edge** from `Vi`;
//! * `Fi.I` is the set of **in-nodes**: local nodes with an incoming
//!   crossing edge (they are virtual nodes of other fragments);
//! * `Ei` holds edges between local nodes plus the crossing edges from
//!   local nodes to virtual nodes.
//!
//! [`Fragmentation::build`] materializes this from any site assignment;
//! [`partitioner`] provides random/hash, BFS-clustered and
//! swap-refined assignments (the paper post-processes random partitions
//! with the swap heuristic of \[27\] to control `|Vf|`/`|Ef|`), and
//! [`tree`] carves a rooted tree into connected subtrees (required by
//! `dGPMt`, Corollary 4).

pub mod fragment;
mod label_index;
pub mod partitioner;
mod span_lists;
pub mod stats;
pub mod streaming;
pub mod tree;

pub use fragment::{EdgeOp, FragDeltaStats, Fragment, Fragmentation, SiteId};
pub use partitioner::{bfs_partition, hash_partition, refine_toward_ratio, RefineObjective};
pub use span_lists::SpanLists;
pub use stats::FragmentationStats;
pub use streaming::ldg_partition;
pub use tree::tree_partition;
