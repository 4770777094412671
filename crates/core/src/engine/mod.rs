//! `SimEngine`: the session-oriented query API.
//!
//! A `SimEngine` is **built once** over a loaded graph +
//! fragmentation — paying for the planner's structural facts
//! (DAG-ness, rooted-tree check, fragment connectivity, SCC
//! condensation) a single time — and then serves many queries:
//!
//! ```
//! use dgs_core::{Algorithm, SimEngine};
//! use dgs_graph::generate::social::fig1;
//! use dgs_partition::Fragmentation;
//! use std::sync::Arc;
//!
//! let w = fig1();
//! let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
//! let engine = SimEngine::builder(&w.graph, frag).build();
//!
//! // The planner picks an applicable engine and explains itself.
//! let report = engine.query(&w.pattern).unwrap();
//! assert!(report.is_match);
//! assert_eq!(report.answer().len(), 11);
//! println!("plan: {}", report.plan);
//! ```
//!
//! Queries return `Result<_, DgsError>` — the query path never
//! panics. Batches ([`SimEngine::query_batch`]) amortize the query
//! broadcast: one posting of the whole batch to each site instead of
//! one per query.
//!
//! ## One request, one path
//!
//! Every request takes the same steps, each written once (in
//! `query.rs`): **probe** the pattern-result cache (`Auto` only);
//! **plan** once on the snapshot's facts, the same call that answers
//! [`SimEngine::plan`], so a dry run cannot disagree with a real one;
//! **run** the chosen engine on the snapshot's fragmentation;
//! **charge** the query broadcast; **store** the relation.
//! [`SimEngine::query_with`] is that sequence and
//! [`SimEngine::query_boolean_with`] is `query_with` without the rows. [`SimEngine::query_batch_with`]
//! runs plan → run per miss on a worker pool, between one probe pass
//! and one store pass, and charges one broadcast for the batch.
//!
//! ## Serving mode
//!
//! `SimEngine` is `Send + Sync`: one engine can be shared across
//! threads and serve concurrent traffic. Two serving features stack
//! on the session:
//!
//! * **Parallel batches** — [`SimEngine::query_batch`] fans the batch
//!   out over a scoped worker pool (`min(cores, batch_len)` workers by
//!   default, [`SimEngineBuilder::batch_workers`] to override) and
//!   merges per-query metrics in input order, so batch reports are
//!   identical regardless of scheduling.
//! * **Pattern-result cache** — [`Algorithm::Auto`] answers are cached
//!   under a canonical pattern form (label-preserving renumbering, so
//!   isomorphic re-submissions hit). A hit records
//!   `metrics.cache_hits = 1` and **zero** messages. See
//!   [`SimEngineBuilder::cache_capacity`].
//!
//! The engine plans and runs on the fragmented `G` itself. The §7
//! compress-then-distribute pipeline is offline: build the quotient
//! with `dgs_sim::compress_bisim` (or `compress_simeq`), open a plain
//! session on `CompressedGraph::graph`, and map its relation back to
//! `G` with `CompressedGraph::expand`.
//!
//! ## Dynamic graphs
//!
//! Sessions are **mutable**: [`SimEngine::apply_delta`] absorbs a
//! [`GraphDelta`](crate::delta::GraphDelta) batch in place. The fragmentation is maintained
//! incrementally (virtual nodes and in-node subscriptions included),
//! and every batch — deletions, insertions or both — keeps cached
//! answers current through the distributed incremental update of
//! [`crate::delta`] (the plan then carries
//! [`PlanExplanation::incremental`]). Generation-tagged cache keys
//! make stale hits impossible; the structural facts refresh lazily.
//!
//! ## Snapshot isolation
//!
//! The read path is **snapshot-isolated**: every query loads the
//! current immutable generation snapshot (fragmentation + graph
//! mirror + planner facts) with a single `Arc` clone
//! and runs entirely against it, while `apply_delta` builds the next
//! generation off the read path and publishes it with one pointer
//! swap. Queries therefore never block behind a writer, and every
//! answer is computed at exactly one generation — a concurrent delta
//! can never tear a reader — which it names in
//! [`RunReport::generation`]. `apply_delta` and
//! [`SimEngine::cache_invalidate_all`] take `&self`; concurrent
//! writers serialize against each other only, so a session's
//! generations are one line: each writer publishes its predecessor's
//! generation plus one.

mod maintain;
mod query;
mod snapshot;
mod tests;

use crate::cache::{self, CacheStats, PatternCache};
use crate::dgpm::DgpmConfig;
use crate::error::DgsError;
use crate::plan::{EngineChoice, GraphFacts, PlanExplanation};
use dgs_graph::{Graph, Pattern};
use dgs_net::{CostModel, ExecutorKind, RunMetrics, SocketCluster, SocketConfig};
use dgs_partition::Fragmentation;
use dgs_sim::MatchRelation;
use maintain::WriterState;
use parking_lot::Mutex;
use snapshot::GenSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Which engine to run.
#[derive(Clone, Debug)]
pub enum Algorithm {
    /// Let the planner pick from the cached structural facts.
    Auto,
    /// `dGPM` with the given configuration (§4).
    Dgpm(DgpmConfig),
    /// `dGPMd` for DAG patterns or DAG graphs (§5.1): the
    /// rank-scheduled engine of [`crate::dgpms`] under the name that
    /// carries Theorem 3's `d + 1`-round bound.
    Dgpmd,
    /// `dGPMs`: the same engine on arbitrary (cyclic) patterns,
    /// stratified by the SCC condensation — this repository's
    /// extension of `dGPMd`.
    Dgpms,
    /// `dGPMt` for trees with connected fragments (§5.2).
    Dgpmt,
    /// `Match`: ship everything to one site (§3.1).
    MatchCentral,
    /// `disHHK` \[25\].
    DisHhk,
    /// `dMes`: vertex-centric supersteps (§6 / \[14\]).
    DMes,
}

impl Algorithm {
    /// The paper's `dGPM` (incremental + push, θ = 0.2).
    pub fn dgpm() -> Self {
        Algorithm::Dgpm(DgpmConfig::optimized())
    }

    /// The paper's `dGPMNOpt`.
    pub fn dgpm_nopt() -> Self {
        Algorithm::Dgpm(DgpmConfig::no_opt())
    }

    /// `dGPM` with incremental evaluation but no push (ablation).
    pub fn dgpm_incremental_only() -> Self {
        Algorithm::Dgpm(DgpmConfig::incremental_only())
    }

    /// Short display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        EngineChoice::requested_by(self).map_or("Auto", |engine| engine.name())
    }
}

/// Result of one data-selecting query.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The maximum relation under the child condition — on every
    /// [`Algorithm::Auto`] answer. An explicit `dGPMd`/`dGPMt` request
    /// for a cyclic pattern on an acyclic graph answers `trivial-∅`,
    /// the paper's `∅` convention, instead.
    pub relation: MatchRelation,
    /// The Boolean query answer (`relation.is_total()`).
    pub is_match: bool,
    /// PT/DS metrics of the run.
    pub metrics: RunMetrics,
    /// Display name of the engine that ran.
    pub algorithm: &'static str,
    /// How the engine was chosen.
    pub plan: PlanExplanation,
    /// The generation of the snapshot the answer was computed at (or,
    /// for a cache hit, served from).
    pub generation: u64,
    /// `∅`-of-`|Vq|` storage for [`answer`](Self::answer) when the
    /// query does not match; `None` when `answer` can alias
    /// `relation`.
    empty: Option<MatchRelation>,
}

impl RunReport {
    pub(crate) fn assemble(
        relation: MatchRelation,
        metrics: RunMetrics,
        algorithm: &'static str,
        plan: PlanExplanation,
        generation: u64,
    ) -> Self {
        let is_match = relation.is_total();
        let empty = if is_match || relation.is_empty() {
            None
        } else {
            Some(MatchRelation::empty(relation.query_nodes()))
        };
        RunReport {
            relation,
            is_match,
            metrics,
            algorithm,
            plan,
            generation,
            empty,
        }
    }

    /// `Q(G)` with the paper's convention: the full relation on a
    /// match, `∅` when some query node has no match. A borrow — the
    /// relation is never cloned.
    pub fn answer(&self) -> &MatchRelation {
        self.empty.as_ref().unwrap_or(&self.relation)
    }
}

/// Result of one Boolean query (§2.1).
#[derive(Clone, Debug)]
pub struct BooleanReport {
    /// Whether `G` matches `Q`.
    pub is_match: bool,
    /// PT/DS metrics of the run.
    pub metrics: RunMetrics,
    /// Display name of the engine that ran.
    pub algorithm: &'static str,
    /// How the engine was chosen.
    pub plan: PlanExplanation,
    /// The generation of the snapshot the answer was computed at (or,
    /// for a cache hit, served from).
    pub generation: u64,
}

impl From<RunReport> for BooleanReport {
    /// The Boolean query is the data-selecting one without its rows
    /// (§2.1).
    fn from(report: RunReport) -> Self {
        BooleanReport {
            is_match: report.is_match,
            metrics: report.metrics,
            algorithm: report.algorithm,
            plan: report.plan,
            generation: report.generation,
        }
    }
}

/// Result of a [`SimEngine::query_batch`] run.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-query outcomes, in input order. Each successful report
    /// carries its own engine-run metrics (without the broadcast,
    /// which the batch amortizes).
    pub reports: Vec<Result<RunReport, DgsError>>,
    /// Aggregate metrics: the sum of all per-query runs plus **one**
    /// batched query broadcast (`|F|` control messages carrying every
    /// pattern), instead of one broadcast per query.
    pub total: RunMetrics,
    /// The generation of the one snapshot the whole batch ran against.
    pub generation: u64,
}

impl BatchReport {
    /// Number of queries that were answered.
    pub fn succeeded(&self) -> usize {
        self.reports.iter().filter(|r| r.is_ok()).count()
    }
}

/// Default capacity of the pattern-result cache.
const DEFAULT_CACHE_CAPACITY: usize = 128;

/// Builder for [`SimEngine`]; see [`SimEngine::builder`].
pub struct SimEngineBuilder<'g> {
    graph: &'g Graph,
    frag: Arc<Fragmentation>,
    executor: ExecutorKind,
    cost: CostModel,
    cache_capacity: usize,
    batch_workers: usize,
}

impl SimEngineBuilder<'_> {
    /// Which executor drives the protocols (default: deterministic
    /// virtual time).
    pub fn executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// The virtual-time cost model (default: EC2-like).
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Capacity of the pattern-result cache in entries (LRU; default
    /// 128). `0` disables the cache: every query runs the distributed
    /// protocol, which is what metric-sensitive experiments want.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Worker threads used by [`SimEngine::query_batch`]
    /// (`0` = auto: one per available core, capped at the batch
    /// length). `1` forces the sequential path; results are identical
    /// either way, batches are merely wall-clock faster with more
    /// workers.
    pub fn batch_workers(mut self, workers: usize) -> Self {
        self.batch_workers = workers;
        self
    }

    /// Computes the structural facts and finalizes the engine. This is
    /// the once-per-session cost: `O(|V| + |E|)` for DAG-ness, the
    /// rooted-tree check, fragment connectivity and the SCC
    /// condensation. The engine keeps its own copy of the graph so the
    /// session can absorb [`SimEngine::apply_delta`] batches later.
    pub fn build(self) -> SimEngine {
        self.build_with_cluster(None)
    }

    /// Builds the engine **and** bootstraps a socket cluster for it:
    /// worker processes are spawned (or attached to), handshaken, and
    /// loaded with the session's graph + fragmentation, and the
    /// executor is set to [`ExecutorKind::Socket`] — `Auto` and
    /// explicit dGPM-family queries then run across real OS processes,
    /// with the per-site message/visit metrics flowing back over the
    /// wire into the same [`RunReport`] shape as the in-process
    /// executors.
    ///
    /// In-process fallbacks (documented, not silent): the distributed
    /// maintenance runs of [`SimEngine::apply_delta`] use the virtual
    /// executor (their per-site counter states must come back into the
    /// session) — and every delta re-ships the session bootstrap so
    /// later socket runs execute against the mutated graph. The
    /// `Match`/`disHHK`/`dMes` baselines are not socket-remotable and
    /// report a typed [`DgsError::Unsupported`].
    pub fn build_socket(mut self, cfg: SocketConfig) -> Result<SimEngine, DgsError> {
        self.executor = ExecutorKind::Socket;
        let bootstrap = crate::remote::encode_bootstrap(self.graph, &self.frag);
        let cluster = SocketCluster::start(cfg, &bootstrap, self.frag.num_sites())
            .map_err(|e| DgsError::from_exec("socket-cluster", e))?;
        Ok(self.build_with_cluster(Some(Arc::new(cluster))))
    }

    fn build_with_cluster(self, cluster: Option<Arc<SocketCluster>>) -> SimEngine {
        let facts = GraphFacts::compute(self.graph, &self.frag);
        let snapshot = GenSnapshot {
            generation: 0,
            frag: self.frag,
            graph: OnceLock::from(Arc::new(self.graph.clone())),
            facts: OnceLock::from(Arc::new(facts)),
        };
        SimEngine {
            snap: Mutex::new(Arc::new(snapshot)),
            executor: self.executor,
            cost: self.cost,
            cache: (self.cache_capacity > 0)
                .then(|| Mutex::new(PatternCache::new(self.cache_capacity))),
            batch_workers: match self.batch_workers {
                0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
                n => n,
            },
            writer: Mutex::new(WriterState::default()),
            cluster,
            cluster_gen: AtomicU64::new(0),
            stats: EngineStats::default(),
        }
    }
}

/// Cumulative serving counters of one engine (one cell per hosted
/// session, however many threads serve it). The serving layer scrapes
/// these into its per-session metrics; the engine itself only ever
/// increments.
#[derive(Debug, Default)]
pub struct EngineStats {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    deltas: AtomicU64,
    generations_copied: AtomicU64,
}

impl EngineStats {
    /// Queries answered (Boolean and batched queries included; a batch
    /// of `n` patterns counts `n`).
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Queries answered from the pattern-result cache without a
    /// protocol run.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Delta batches applied (validation failures excluded).
    pub fn deltas(&self) -> u64 {
        self.deltas.load(Ordering::Relaxed)
    }

    /// Delta batches whose next generation started from a clone of the
    /// current fragmentation rather than from the retired generation
    /// replayed forward: the first batches of a session, a batch after
    /// somebody held the retired generation across the swap, a batch
    /// after a failed one. A steady churn copies none; one that keeps
    /// copying pays `O(|G|)` a batch.
    pub fn generations_copied(&self) -> u64 {
        self.generations_copied.load(Ordering::Relaxed)
    }

    fn add_queries(&self, n: u64) {
        self.queries.fetch_add(n, Ordering::Relaxed);
    }

    fn add_cache_hits(&self, n: u64) {
        self.cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    fn add_deltas(&self, n: u64) {
        self.deltas.fetch_add(n, Ordering::Relaxed);
    }

    fn add_generations_copied(&self, n: u64) {
        self.generations_copied.fetch_add(n, Ordering::Relaxed);
    }
}

/// A planned, cached, mutable query session over one fragmented graph.
/// [`SimEngine::apply_delta`] keeps the cached answers current instead
/// of dropping them. Every delta moves the session to the next graph
/// **generation**; cache entries are keyed under the generation they
/// were computed at, so a reader still on an older snapshot can never
/// be served a newer generation's answer, nor a newer reader an older
/// one.
#[derive(Debug)]
pub struct SimEngine {
    /// The current generation snapshot. The mutex is held only long
    /// enough to clone or swap the `Arc` — readers never hold it
    /// while running a query, and writers never hold it while
    /// building the next generation.
    snap: Mutex<Arc<GenSnapshot>>,
    executor: ExecutorKind,
    cost: CostModel,
    cache: Option<Mutex<PatternCache>>,
    /// Worker threads for batches and intra-query legs: the builder's
    /// count, or one per available core, resolved once at build.
    batch_workers: usize,
    /// Writer state: serializes [`Self::apply_delta`] /
    /// [`Self::cache_invalidate_all`] against each other (never
    /// against readers) and holds what the session carries from one
    /// batch to the next.
    writer: Mutex<WriterState>,
    /// The socket cluster backing [`ExecutorKind::Socket`] sessions
    /// ([`SimEngineBuilder::build_socket`]; runs are serialized on the
    /// cluster).
    cluster: Option<Arc<SocketCluster>>,
    /// The generation the cluster was last bootstrapped with. Socket
    /// dispatch requires an exact match, so a query whose snapshot a
    /// concurrent delta has already re-shipped (or not yet re-shipped)
    /// falls back to the in-process virtual executor instead of
    /// computing on the wrong worker graph.
    cluster_gen: AtomicU64,
    /// Cumulative serving counters.
    stats: EngineStats,
}

/// Compile-time proof that the session engine can be shared across
/// serving threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimEngine>();
};

impl SimEngine {
    /// Starts building an engine over `graph` fragmented as `frag`.
    /// The graph is only read during [`SimEngineBuilder::build`] (for
    /// the structural facts); the engine itself holds the
    /// fragmentation.
    pub fn builder(graph: &Graph, frag: Arc<Fragmentation>) -> SimEngineBuilder<'_> {
        SimEngineBuilder {
            graph,
            frag,
            executor: ExecutorKind::Virtual,
            cost: CostModel::default(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            batch_workers: 0,
        }
    }

    /// The current generation snapshot: one `Arc` clone under a mutex
    /// held for just that clone. Every query loads the snapshot
    /// exactly once and runs entirely against it.
    fn snapshot(&self) -> Arc<GenSnapshot> {
        Arc::clone(&self.snap.lock())
    }

    /// The cached structural facts the planner uses, recomputed
    /// lazily after an [`Self::apply_delta`] batch (queries served
    /// from maintained cache entries never pay for them).
    pub fn facts(&self) -> Arc<GraphFacts> {
        self.snapshot().facts()
    }

    /// The fragmentation of the current generation snapshot.
    pub fn fragmentation(&self) -> Arc<Fragmentation> {
        Arc::clone(&self.snapshot().frag)
    }

    /// The engine's current graph (the loaded graph plus every applied
    /// delta), derived from the fragmentation on first use after a
    /// delta.
    pub fn graph(&self) -> Arc<Graph> {
        self.snapshot().graph()
    }

    /// The session's current graph generation: advanced by one by
    /// every [`Self::apply_delta`] that changes the graph and by every
    /// [`Self::cache_invalidate_all`].
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// Cumulative serving counters of the session.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The canonical cache key of `q` plus the canonical position of
    /// every original query node (`pos_of[u]` is where node `u`
    /// landed). [`crate::delta::MaintainedDiff`] tags entries with
    /// exactly this key and speaks canonical positions, so consumers
    /// of [`DeltaReport::maintained_diffs`](crate::DeltaReport::maintained_diffs) (live match subscriptions)
    /// use this to translate per-entry diffs back into a submitted
    /// pattern's numbering.
    pub fn pattern_canon(q: &Pattern) -> (Vec<u32>, Vec<u16>) {
        let canon = cache::canonicalize(q);
        (canon.key, canon.pos_of)
    }

    /// Counters of the pattern-result cache; `None` when the cache is
    /// disabled. `generation` reports the session's current graph
    /// generation so operators can observe invalidation churn.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| {
            let mut stats = c.lock().stats();
            stats.generation = self.generation();
            stats
        })
    }

    /// The socket cluster backing this session, when built with
    /// [`SimEngineBuilder::build_socket`].
    pub fn socket_cluster(&self) -> Option<&Arc<SocketCluster>> {
        self.cluster.as_ref()
    }
}
