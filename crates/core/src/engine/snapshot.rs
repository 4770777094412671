//! What a generation is: the immutable [`GenSnapshot`] every query
//! runs against.

use crate::cache::PatternCache;
use crate::plan::GraphFacts;
use dgs_graph::Graph;
use dgs_partition::Fragmentation;
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};

/// One immutable **generation** of a session: the fragmentation, the
/// graph mirror, the planner facts and the cached answers as of one
/// graph generation.
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
///
/// The snapshot also holds its generation's answers, keyed by the
/// canonical pattern alone: an answer's generation is the snapshot
/// that holds it. A reader still on an older snapshot hits and stores
/// that generation's answers only, and a newer reader never sees them.
#[derive(Debug)]
pub(super) struct GenSnapshot {
    pub(super) generation: u64,
    pub(super) frag: Arc<Fragmentation>,
    /// The graph at this generation, once somebody has asked for it:
    /// derived from `frag`, which already is the graph, so a delta
    /// leaves no op log behind for it.
    pub(super) graph: OnceLock<Arc<Graph>>,
    pub(super) facts: OnceLock<Arc<GraphFacts>>,
    /// The pattern-result cache of this generation; `None` when the
    /// session's cache is off.
    pub(super) cache: Option<Mutex<PatternCache>>,
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

    /// An empty cache of this generation's capacity, for the next one.
    pub(super) fn successor_cache(&self) -> Option<Mutex<PatternCache>> {
        let capacity = self.cache.as_ref()?.lock().capacity();
        Some(Mutex::new(PatternCache::new(capacity)))
    }
}
