//! What a generation is: the immutable [`GenSnapshot`] every query
//! runs against.

use crate::plan::GraphFacts;
use dgs_graph::Graph;
use dgs_partition::Fragmentation;
use std::sync::{Arc, OnceLock};

/// One immutable **generation** of a session: the fragmentation, the
/// graph mirror and the planner facts as of one graph generation.
/// Queries load the current snapshot once (a single `Arc` clone under
/// a short mutex) and run entirely against it;
/// [`SimEngine::apply_delta`](super::SimEngine::apply_delta) builds
/// the *next* snapshot off the read path and publishes it with one
/// pointer swap — so a writer can never block or tear a reader, and
/// every answer is computed at exactly one generation.
///
/// The graph mirror and facts stay **lazy** inside the snapshot: a
/// delta leaves them empty and the first reader that wants one builds
/// it, once, for all of the snapshot's readers — so a delete-heavy
/// stream served from maintained cache entries still never pays their
/// `O(|G|)` cost.
#[derive(Debug)]
pub(super) struct GenSnapshot {
    pub(super) generation: u64,
    pub(super) frag: Arc<Fragmentation>,
    /// The graph at this generation, once somebody has asked for it:
    /// derived from `frag`, which already is the graph, so a delta
    /// leaves no op log behind for it.
    pub(super) graph: OnceLock<Arc<Graph>>,
    pub(super) facts: OnceLock<Arc<GraphFacts>>,
}

impl GenSnapshot {
    /// This generation's graph (the loaded graph plus every delta
    /// absorbed up to this generation), rebuilt from the fragmentation
    /// on first use after a delta.
    pub(super) fn graph(&self) -> Arc<Graph> {
        Arc::clone(self.graph.get_or_init(|| Arc::new(self.frag.to_graph())))
    }

    /// The planner facts at this generation, recomputed on first use
    /// after a delta.
    pub(super) fn facts(&self) -> Arc<GraphFacts> {
        let compute = || Arc::new(GraphFacts::compute(&self.graph(), &self.frag));
        Arc::clone(self.facts.get_or_init(compute))
    }

    /// Prefixes a canonical pattern encoding with this snapshot's
    /// generation. Entries computed before a delta live under an older
    /// generation and can never be served again from a newer snapshot,
    /// nor can a reader still on an older snapshot hit a newer one's.
    pub(super) fn gen_key(&self, canon_key: &[u32]) -> Vec<u32> {
        let mut key = Vec::with_capacity(2 + canon_key.len());
        key.push(self.generation as u32);
        key.push((self.generation >> 32) as u32);
        key.extend_from_slice(canon_key);
        key
    }
}
