//! What a generation is: the immutable [`GenSnapshot`] every query
//! runs against, and the compressed leg that may ride on it.

use super::CompressionMethod;
use crate::plan::{CompressedNote, GraphFacts};
use dgs_graph::Graph;
use dgs_partition::Fragmentation;
use dgs_sim::{compress_bisim, compress_simeq, CompressedGraph};
use std::sync::{Arc, OnceLock};

/// Builds the compressed leg for the current graph (session build
/// time, and lazily again in each generation a delta produces).
pub(super) fn build_leg(
    graph: &Graph,
    frag: &Arc<Fragmentation>,
    method: CompressionMethod,
    threshold: f64,
) -> Arc<CompressedLeg> {
    let c = match method {
        CompressionMethod::SimEq => compress_simeq(graph),
        CompressionMethod::Bisim => compress_bisim(graph),
    };
    let ratio = c.ratio(graph.size());
    // Each class lives at the site owning its first member, so the
    // quotient keeps the original placement's locality and the same
    // number of sites.
    let assign: Vec<usize> = c.members.iter().map(|m| frag.owner(m[0])).collect();
    let cfrag = Arc::new(Fragmentation::build(&c.graph, &assign, frag.num_sites()));
    let cfacts = Arc::new(GraphFacts::compute(&c.graph, &cfrag));
    Arc::new(CompressedLeg {
        active: ratio <= threshold,
        graph: c,
        frag: cfrag,
        facts: cfacts,
        ratio,
        threshold,
        method,
    })
}

/// The compressed leg of a session: `Gc`, its fragmentation and the
/// structural facts the planner needs to pick an engine on it.
#[derive(Debug)]
pub(super) struct CompressedLeg {
    pub(super) graph: CompressedGraph,
    pub(super) frag: Arc<Fragmentation>,
    pub(super) facts: Arc<GraphFacts>,
    ratio: f64,
    threshold: f64,
    method: CompressionMethod,
    /// `ratio <= threshold`: whether `Auto` queries answer on `Gc`.
    pub(super) active: bool,
}

impl CompressedLeg {
    pub(super) fn note(&self) -> CompressedNote {
        CompressedNote {
            ratio: self.ratio,
            classes: self.graph.class_count(),
            method: self.method.name(),
        }
    }

    /// The plan reason an `Auto` query carries while this leg exists:
    /// why it answers on `Gc`, or why it does not.
    pub(super) fn reason(&self) -> String {
        let (classes, method) = (self.graph.class_count(), self.method.name());
        if self.active {
            format!(
                "answering on Gc ({classes} classes via {method}): ratio {:.2} clears \
                 threshold {:.2}; relation decompressed to G node ids",
                self.ratio, self.threshold
            )
        } else {
            format!(
                "compressed leg built ({classes} classes via {method}) but ratio {:.2} \
                 exceeds threshold {:.2} — answering on G",
                self.ratio, self.threshold
            )
        }
    }
}

/// One immutable **generation** of a session: the fragmentation, the
/// graph mirror, the planner facts and the compressed leg as of one
/// graph generation. Queries load the current snapshot once (a single
/// `Arc` clone under a short mutex) and run entirely against it;
/// [`SimEngine::apply_delta`](super::SimEngine::apply_delta) builds
/// the *next* snapshot off the read path and publishes it with one
/// pointer swap — so a writer can never block or tear a reader, and
/// every answer is computed at exactly one generation.
///
/// The graph mirror, facts and compressed leg stay **lazy** inside the
/// snapshot: a delta leaves them empty and the first reader that wants
/// one builds it, once, for all of the snapshot's readers — so a
/// delete-heavy stream served from maintained cache entries still
/// never pays their `O(|G|)` cost.
#[derive(Debug)]
pub(super) struct GenSnapshot {
    pub(super) generation: u64,
    pub(super) frag: Arc<Fragmentation>,
    /// The graph at this generation, once somebody has asked for it:
    /// derived from `frag`, which already is the graph, so a delta
    /// leaves no op log behind for it.
    pub(super) graph: OnceLock<Arc<Graph>>,
    pub(super) facts: OnceLock<Arc<GraphFacts>>,
    pub(super) compressed: OnceLock<Arc<CompressedLeg>>,
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

    /// The compressed leg at this generation under the session's
    /// `(method, threshold)`, rebuilt on first use after a delta.
    /// `None` when compression is off.
    pub(super) fn compressed_leg(
        &self,
        compression: Option<(CompressionMethod, f64)>,
    ) -> Option<Arc<CompressedLeg>> {
        let (method, threshold) = compression?;
        let build = || build_leg(&self.graph(), &self.frag, method, threshold);
        Some(Arc::clone(self.compressed.get_or_init(build)))
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
