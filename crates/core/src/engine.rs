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
//! ## Serving mode
//!
//! `SimEngine` is `Send + Sync`: one engine can be shared across
//! threads (or cloned — clones share the same cache) and serve
//! concurrent traffic. Three serving features stack on the session:
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
//!   [`SimEngineBuilder::cache`] / [`SimEngineBuilder::cache_capacity`].
//! * **Compression-backed plans** — [`SimEngineBuilder::compress`]
//!   builds the query-preserving quotient `Gc` (Fan et al., SIGMOD'12)
//!   at session build time; when its ratio clears
//!   [`SimEngineBuilder::compression_threshold`], `Auto` queries run on
//!   `Gc` and the relation is decompressed back to `G`'s node ids,
//!   with the leg recorded in [`PlanExplanation::compressed`].
//!
//! ## Dynamic graphs
//!
//! Sessions are **mutable**: [`SimEngine::apply_delta`] absorbs a
//! [`GraphDelta`] batch in place. The fragmentation is maintained
//! incrementally (virtual nodes and in-node subscriptions included),
//! and every batch — deletions, insertions or both — keeps cached
//! answers current through the distributed incremental update of
//! [`crate::delta`] (the plan then carries
//! [`PlanExplanation::incremental`]). Generation-tagged cache keys
//! make stale hits impossible; the structural facts and the compressed
//! leg refresh lazily.
//!
//! ## Snapshot isolation
//!
//! The read path is **snapshot-isolated**: every query loads the
//! current immutable generation snapshot (fragmentation + graph
//! mirror + planner facts + compressed leg) with a single `Arc` clone
//! and runs entirely against it, while `apply_delta` builds the next
//! generation off the read path and publishes it with one pointer
//! swap. Queries therefore never block behind a writer, and every
//! answer is computed at exactly one generation — a concurrent delta
//! can never tear a reader. `apply_delta` and
//! [`SimEngine::cache_invalidate_all`] take `&self`; concurrent
//! writers serialize against each other only.

use crate::cache::{self, CacheStats, CachedResult, CanonicalPattern, PatternCache};
use crate::delta::{self, DeltaReport, DeltaSiteState, GraphDelta, PatternTables};
use crate::dgpm::{self, DgpmConfig, QueryMode};
use crate::error::DgsError;
use crate::plan::{
    CompressedNote, EngineChoice, GraphFacts, IncrementalNote, PatternFacts, PlanExplanation,
    Planner,
};
use crate::{baselines, dgpms, dgpmt};
use dgs_graph::{Graph, Pattern};
use dgs_net::{
    CoordinatorLogic, CostModel, ExecutorKind, RemoteSpec, RunMetrics, RunOutcome,
    SiteDeltaMetrics, SiteLogic, SocketCluster, SocketConfig, SocketMsg,
};
use dgs_partition::{EdgeOp, Fragmentation, SpanLists};
use dgs_sim::{compress_bisim, compress_simeq, CompressedGraph, MatchRelation};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

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
        match self {
            Algorithm::Auto => "Auto",
            Algorithm::Dgpm(cfg) => dgpm_display_name(cfg),
            Algorithm::Dgpmd => EngineChoice::Dgpmd.name(),
            Algorithm::Dgpms => EngineChoice::Dgpms.name(),
            Algorithm::Dgpmt => EngineChoice::Dgpmt.name(),
            Algorithm::MatchCentral => "Match",
            Algorithm::DisHhk => "disHHK",
            Algorithm::DMes => "dMes",
        }
    }
}

/// The one display-name table for `dGPM` configuration variants,
/// shared by [`Algorithm::name`] and the resolved-engine names.
fn dgpm_display_name(cfg: &DgpmConfig) -> &'static str {
    if !cfg.incremental {
        "dGPMNOpt"
    } else if cfg.push_threshold.is_none() {
        "dGPM-nopush"
    } else {
        "dGPM"
    }
}

/// Result of one data-selecting query.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The maximum relation under the child condition.
    pub relation: MatchRelation,
    /// The Boolean query answer (`relation.is_total()`).
    pub is_match: bool,
    /// PT/DS metrics of the run.
    pub metrics: RunMetrics,
    /// Display name of the engine that ran.
    pub algorithm: &'static str,
    /// How the engine was chosen.
    pub plan: PlanExplanation,
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
}

impl BatchReport {
    /// Number of queries that were answered.
    pub fn succeeded(&self) -> usize {
        self.reports.iter().filter(|r| r.is_ok()).count()
    }
}

/// Which node equivalence backs the compressed leg of a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompressionMethod {
    /// Simulation equivalence — maximal merging, exact for every
    /// simulation pattern, but `O(|V||E|)` time and `O(|V|²)` space to
    /// build (see `dgs_sim::preorder`). The right choice for graphs up
    /// to a few tens of thousands of nodes.
    SimEq,
    /// Bisimulation — near-linear build, merges a subset of what
    /// simulation equivalence merges; the practical preprocessing for
    /// big graphs.
    Bisim,
}

impl CompressionMethod {
    /// Short display name (`simeq` / `bisim`).
    pub fn name(self) -> &'static str {
        match self {
            CompressionMethod::SimEq => "simeq",
            CompressionMethod::Bisim => "bisim",
        }
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
    compression: Option<CompressionMethod>,
    compression_threshold: f64,
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

    /// Kill-switch for the pattern-result cache (default: **on** with
    /// capacity 128). With the cache off, every query runs the
    /// distributed protocol, which is what metric-sensitive
    /// experiments want.
    pub fn cache(mut self, enabled: bool) -> Self {
        if enabled {
            if self.cache_capacity == 0 {
                self.cache_capacity = DEFAULT_CACHE_CAPACITY;
            }
        } else {
            self.cache_capacity = 0;
        }
        self
    }

    /// Capacity of the pattern-result cache in entries (LRU;
    /// `0` disables the cache entirely).
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

    /// Builds the query-preserving compressed graph `Gc` at session
    /// build time (default: off). [`Algorithm::Auto`] queries then run
    /// on `Gc` whenever its compression ratio clears
    /// [`Self::compression_threshold`], and the relation is
    /// decompressed back to `G`'s node ids — exact for every
    /// simulation pattern (see `dgs_sim::compress`).
    pub fn compress(mut self, method: CompressionMethod) -> Self {
        self.compression = Some(method);
        self
    }

    /// Maximum `|Gc| / |G|` ratio at which the planner answers on the
    /// compressed graph (default `0.5`); above it the leg is kept for
    /// inspection but queries run on `G`. Set to `1.0` to always use
    /// `Gc` when compression is enabled.
    pub fn compression_threshold(mut self, threshold: f64) -> Self {
        self.compression_threshold = threshold;
        self
    }

    /// Computes the structural facts and finalizes the engine. This is
    /// the once-per-session cost: `O(|V| + |E|)` for DAG-ness, the
    /// rooted-tree check, fragment connectivity and the SCC
    /// condensation — plus, when [`Self::compress`] is on, the quotient
    /// graph `Gc` and its fragmentation. The engine keeps its own copy
    /// of the graph so the session can absorb
    /// [`SimEngine::apply_delta`] batches later.
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
    /// In-process fallbacks (documented, not silent): the compressed
    /// leg's quotient graph `Gc` is never shipped to the workers, so
    /// compressed-leg runs use the virtual executor, as do the
    /// distributed maintenance runs of [`SimEngine::apply_delta`]
    /// (their per-site counter states must come back into the
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
        let leg = self
            .compression
            .map(|method| build_leg(self.graph, &self.frag, method, self.compression_threshold));
        let snapshot = GenSnapshot {
            generation: 0,
            frag: self.frag,
            graph: Mutex::new(Some(Arc::new(self.graph.clone()))),
            facts: Mutex::new(FactsState {
                facts: Arc::new(facts),
                dirty: false,
            }),
            compressed: Mutex::new(CompressedState {
                method: self.compression,
                threshold: self.compression_threshold,
                leg,
                dirty: false,
            }),
        };
        SimEngine {
            snap: Mutex::new(Arc::new(snapshot)),
            executor: self.executor,
            cost: self.cost,
            cache: (self.cache_capacity > 0)
                .then(|| Arc::new(Mutex::new(PatternCache::new(self.cache_capacity)))),
            batch_workers: self.batch_workers,
            writer: Mutex::new(WriterState::default()),
            gen_alloc: Arc::new(AtomicU64::new(1)),
            cluster,
            cluster_gen: Arc::new(AtomicU64::new(0)),
            stats: Arc::new(EngineStats::default()),
        }
    }
}

/// Builds the compressed leg for the current graph (session build
/// time, and lazily again after a delta marks the leg dirty).
fn build_leg(
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
    let cfacts = GraphFacts::compute(&c.graph, &cfrag);
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
struct CompressedLeg {
    graph: CompressedGraph,
    frag: Arc<Fragmentation>,
    facts: GraphFacts,
    ratio: f64,
    threshold: f64,
    method: CompressionMethod,
    /// `ratio <= threshold`: whether `Auto` queries answer on `Gc`.
    active: bool,
}

impl CompressedLeg {
    fn note(&self) -> CompressedNote {
        CompressedNote {
            ratio: self.ratio,
            classes: self.graph.class_count(),
            method: self.method.name(),
        }
    }
}

/// The session's compression configuration plus its (lazily rebuilt)
/// leg. A graph delta marks the leg **dirty**; the next query that
/// wants it rebuilds the quotient from the current graph.
#[derive(Clone, Debug)]
struct CompressedState {
    method: Option<CompressionMethod>,
    threshold: f64,
    leg: Option<Arc<CompressedLeg>>,
    dirty: bool,
}

/// Persistent maintenance state of one cached entry: the per-site HHK
/// counter states, the pattern's tables (built once, shared by the
/// sites of every run) and the cumulative incremental-leg accounting.
#[derive(Debug)]
struct MaintainedStates {
    tables: Arc<PatternTables>,
    sites: Vec<DeltaSiteState>,
    note: IncrementalNote,
}

/// What [`SimEngine::apply_delta`] carries from one batch to the next
/// under the writer lock; readers and engine clones see none of it.
#[derive(Debug, Default)]
struct WriterState {
    /// Maintenance states of the delta-maintained cache entries, keyed
    /// by canonical pattern encoding (without the generation prefix —
    /// the map itself is always current).
    entries: HashMap<Vec<u32>, MaintainedStates>,
    /// The last retired generation's fragmentation, if the swap found
    /// nobody else holding it: the next generation's buffers.
    spare: Option<Fragmentation>,
    /// The session's one reverse adjacency per site, equal to the
    /// current snapshot's whenever it is `Some`: the maintenance runs
    /// of a batch take turns with it ([`delta::build_maintenance`]).
    pred: Option<Vec<SpanLists<u32>>>,
}

/// The planner's structural facts, recomputed lazily after a delta
/// (cache-served queries never consult them).
#[derive(Clone, Debug)]
struct FactsState {
    facts: Arc<GraphFacts>,
    dirty: bool,
}

/// One immutable **generation** of a session: the fragmentation, the
/// graph mirror, the planner facts and the compressed leg as of one
/// graph generation. Queries load the current snapshot once (a single
/// `Arc` clone under a short mutex) and run entirely against it;
/// [`SimEngine::apply_delta`] builds the *next* snapshot off the read
/// path and publishes it with one pointer swap — so a writer can never
/// block or tear a reader, and every answer is computed at exactly one
/// generation.
///
/// The graph mirror, facts and compressed leg stay **lazy** inside the
/// snapshot (interior mutexes guard one-shot rebuilds shared by the
/// snapshot's readers): a delete-heavy stream served from maintained
/// cache entries still never pays their `O(|G|)` cost.
#[derive(Debug)]
struct GenSnapshot {
    generation: u64,
    frag: Arc<Fragmentation>,
    /// The graph at this generation, once somebody has asked for it:
    /// derived from `frag`, which already is the graph, so a delta
    /// leaves no op log behind for it.
    graph: Mutex<Option<Arc<Graph>>>,
    facts: Mutex<FactsState>,
    compressed: Mutex<CompressedState>,
}

impl GenSnapshot {
    /// This generation's graph (the loaded graph plus every delta
    /// absorbed up to this generation), rebuilt from the fragmentation
    /// on first use after a delta.
    fn graph(&self) -> Arc<Graph> {
        let mut graph = self.graph.lock();
        Arc::clone(graph.get_or_insert_with(|| Arc::new(self.frag.to_graph())))
    }

    /// The planner facts at this generation, rebuilt on first use
    /// after a delta marked them dirty.
    fn facts(&self) -> Arc<GraphFacts> {
        let mut state = self.facts.lock();
        if state.dirty {
            state.facts = Arc::new(GraphFacts::compute(&self.graph(), &self.frag));
            state.dirty = false;
        }
        Arc::clone(&state.facts)
    }

    /// The compressed leg at this generation, rebuilding it first when
    /// a delta marked it dirty. `None` when compression is off.
    fn compressed_leg(&self) -> Option<Arc<CompressedLeg>> {
        let mut state = self.compressed.lock();
        let method = state.method?;
        if state.dirty || state.leg.is_none() {
            state.leg = Some(build_leg(
                &self.graph(),
                &self.frag,
                method,
                state.threshold,
            ));
            state.dirty = false;
        }
        state.leg.clone()
    }

    /// Prefixes a canonical pattern encoding with this snapshot's
    /// generation. Entries computed before a delta live under an older
    /// generation and can never be served again from a newer snapshot
    /// — the stale-hit guarantee clones rely on while sharing one
    /// cache.
    fn gen_key(&self, canon_key: &[u32]) -> Vec<u32> {
        let mut key = Vec::with_capacity(2 + canon_key.len());
        key.push(self.generation as u32);
        key.push((self.generation >> 32) as u32);
        key.extend_from_slice(canon_key);
        key
    }
}

/// An engine the planner resolved a query to (explicit choices
/// included, so the run path is uniform).
enum Resolved {
    Dgpm(DgpmConfig),
    Dgpmd,
    Dgpms,
    Dgpmt,
    MatchCentral,
    DisHhk,
    DMes,
    /// Answer `∅` with no distributed work (§5.1's cyclic-pattern
    /// short-circuit).
    TriviallyEmpty,
}

impl Resolved {
    fn name(&self) -> &'static str {
        match self {
            Resolved::Dgpm(cfg) => dgpm_display_name(cfg),
            Resolved::Dgpmd => EngineChoice::Dgpmd.name(),
            Resolved::Dgpms => EngineChoice::Dgpms.name(),
            Resolved::Dgpmt => EngineChoice::Dgpmt.name(),
            Resolved::MatchCentral => Algorithm::MatchCentral.name(),
            Resolved::DisHhk => Algorithm::DisHhk.name(),
            Resolved::DMes => Algorithm::DMes.name(),
            Resolved::TriviallyEmpty => EngineChoice::TriviallyEmpty.name(),
        }
    }
}

/// A session over one fragmented graph: build once, query many times,
/// from many threads — `SimEngine` is `Send + Sync`, and clones share
/// the same pattern-result cache.
///
/// Sessions are **mutable**: [`SimEngine::apply_delta`] absorbs a
/// batch of edge updates in place. Deletions drive distributed
/// incremental maintenance of the cached answers; insertions
/// Cumulative serving counters of one engine, shared by clones (one
/// cell per hosted session no matter how many handles serve it). The
/// serving layer scrapes these into its per-session metrics; the
/// engine itself only ever increments.
#[derive(Debug, Default)]
pub struct EngineStats {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    deltas: AtomicU64,
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

    fn add_queries(&self, n: u64) {
        self.queries.fetch_add(n, Ordering::Relaxed);
    }

    fn add_cache_hits(&self, n: u64) {
        self.cache_hits.fetch_add(n, Ordering::Relaxed);
    }

    fn add_deltas(&self, n: u64) {
        self.deltas.fetch_add(n, Ordering::Relaxed);
    }
}

/// A planned, cached, mutable query session over one fragmented graph.
/// Clones share the result cache; [`SimEngine::apply_delta`] keeps the
/// cached answers current instead of dropping them. Every
/// delta moves the session to a fresh graph **generation**; cache
/// entries are keyed under the generation they were computed at, so a
/// stale hit is impossible even though clones share the cache.
#[derive(Debug)]
pub struct SimEngine {
    /// The current generation snapshot. The mutex is held only long
    /// enough to clone or swap the `Arc` — readers never hold it
    /// while running a query, and writers never hold it while
    /// building the next generation.
    snap: Mutex<Arc<GenSnapshot>>,
    executor: ExecutorKind,
    cost: CostModel,
    cache: Option<Arc<Mutex<PatternCache>>>,
    /// `0` = auto (one worker per available core).
    batch_workers: usize,
    /// Writer state: serializes [`Self::apply_delta`] /
    /// [`Self::cache_invalidate_all`] against each other (never
    /// against readers) and holds what this handle carries from one
    /// batch to the next.
    writer: Mutex<WriterState>,
    /// Allocator of globally fresh generations, shared by clones so
    /// two diverging handles can never collide on a generation.
    gen_alloc: Arc<AtomicU64>,
    /// The socket cluster backing [`ExecutorKind::Socket`] sessions
    /// ([`SimEngineBuilder::build_socket`]); clones share it (runs are
    /// serialized on the cluster).
    cluster: Option<Arc<SocketCluster>>,
    /// The generation the shared cluster was last bootstrapped with.
    /// Socket dispatch requires an exact match, so a query whose
    /// snapshot a concurrent delta has already re-shipped (or not yet
    /// re-shipped) falls back to the in-process virtual executor
    /// instead of computing on the wrong worker graph.
    cluster_gen: Arc<AtomicU64>,
    /// Cumulative serving counters, shared by clones.
    stats: Arc<EngineStats>,
}

impl Clone for SimEngine {
    /// Clones share the pattern-result cache, the generation allocator
    /// and the (immutable) current snapshot; maintenance states are
    /// **not** carried over (the clone rebuilds them from cached rows
    /// at its next delta), and each handle publishes its own future
    /// snapshots — a delta applied through one handle is invisible to
    /// the other.
    fn clone(&self) -> Self {
        SimEngine {
            snap: Mutex::new(self.snapshot()),
            executor: self.executor,
            cost: self.cost.clone(),
            cache: self.cache.clone(),
            batch_workers: self.batch_workers,
            writer: Mutex::new(WriterState::default()),
            gen_alloc: Arc::clone(&self.gen_alloc),
            cluster: self.cluster.clone(),
            cluster_gen: Arc::clone(&self.cluster_gen),
            stats: Arc::clone(&self.stats),
        }
    }
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
            compression: None,
            compression_threshold: 0.5,
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

    /// This handle's graph generation: bumped by every
    /// [`Self::apply_delta`] and [`Self::cache_invalidate_all`].
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// Cumulative serving counters, shared with every clone of this
    /// handle.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The canonical cache key of `q` plus the canonical position of
    /// every original query node (`pos_of[u]` is where node `u`
    /// landed). [`crate::delta::MaintainedDiff`] tags entries with
    /// exactly this key and speaks canonical positions, so consumers
    /// of [`DeltaReport::maintained_diffs`] (live match subscriptions)
    /// use this to translate per-entry diffs back into a submitted
    /// pattern's numbering.
    pub fn pattern_canon(q: &Pattern) -> (Vec<u32>, Vec<u16>) {
        let canon = cache::canonicalize(q);
        (canon.key, canon.pos_of)
    }

    /// Counters of the pattern-result cache; `None` when the cache is
    /// disabled. `generation` reports this handle's current graph
    /// generation so operators can observe invalidation churn.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| {
            let mut stats = c.lock().stats();
            stats.generation = self.generation();
            stats
        })
    }

    /// Drops every pattern-result cache entry **of this handle** (its
    /// current generation) and moves it to a fresh generation, so
    /// nothing computed before this call can be served from the cache
    /// again. Entries stored by diverged clones under their own
    /// generations are untouched — each handle can only ever see its
    /// own generation's entries.
    ///
    /// Like [`Self::apply_delta`] this is a *writer*: it publishes a
    /// fresh snapshot and never blocks in-flight queries, which keep
    /// answering (and hitting the cache) at the generation they
    /// loaded.
    pub fn cache_invalidate_all(&self) {
        let mut writer = self.writer.lock();
        let snap = self.snapshot();
        if let Some(cache) = &self.cache {
            cache.lock().remove_with_prefix(&snap.gen_key(&[]));
        }
        writer.entries.clear();
        let next = GenSnapshot {
            generation: self.gen_alloc.fetch_add(1, Ordering::SeqCst),
            frag: Arc::clone(&snap.frag),
            graph: Mutex::new(snap.graph.lock().clone()),
            facts: Mutex::new(snap.facts.lock().clone()),
            compressed: Mutex::new(snap.compressed.lock().clone()),
        };
        *self.snap.lock() = Arc::new(next);
    }

    /// The compressed leg built for the session, if any (lazily
    /// rebuilt after graph deltas).
    pub fn compression_note(&self) -> Option<CompressedNote> {
        self.snapshot().compressed_leg().map(|leg| leg.note())
    }

    /// Whether [`Algorithm::Auto`] queries currently answer on `Gc`
    /// (a leg was built and its ratio cleared the threshold).
    pub fn compression_active(&self) -> bool {
        self.snapshot()
            .compressed_leg()
            .is_some_and(|leg| leg.active)
    }

    /// Plans `q` without running it: which engine would serve it, and
    /// why.
    pub fn plan(&self, q: &Pattern) -> Result<PlanExplanation, DgsError> {
        let qf = PatternFacts::compute(q);
        Planner
            .plan(&self.snapshot().facts(), &qf)
            .map(|(_, plan)| plan)
    }

    /// Runs `q` with the planner-chosen engine.
    pub fn query(&self, q: &Pattern) -> Result<RunReport, DgsError> {
        self.query_with(&Algorithm::Auto, q)
    }

    /// Runs `q` with an explicit engine (checked, not asserted).
    ///
    /// [`Algorithm::Auto`] queries consult the pattern-result cache
    /// first: a hit is served without any protocol run
    /// (`metrics.cache_hits = 1`, zero messages). Explicit engine
    /// requests always run — callers asking for a specific engine are
    /// measuring it.
    pub fn query_with(&self, algorithm: &Algorithm, q: &Pattern) -> Result<RunReport, DgsError> {
        self.stats.add_queries(1);
        let snap = self.snapshot();
        let (canon, hit) = self.cache_lookup(&snap, algorithm, q);
        if let (Some(canon), Some(cached)) = (&canon, hit) {
            self.stats.add_cache_hits(1);
            return Ok(Self::report_from_cache(q, canon, &cached));
        }
        // A single query gets the whole worker budget for intra-query
        // (per-fragment) parallelism.
        let intra = self.effective_workers(snap.frag.num_sites());
        let mut report = self.run_one(&snap, algorithm, q, intra)?;
        Self::charge_broadcast(&mut report.metrics, &snap.frag, std::iter::once(q));
        if let Some(canon) = canon {
            self.cache_store(&snap, canon, &report);
        }
        Ok(report)
    }

    /// Runs a Boolean query (§2.1) with the planner-chosen engine.
    ///
    /// For the `dGPM` family this uses the dedicated Boolean gather
    /// path (`O(|F|)` bytes of result traffic, §4.1); other engines
    /// run normally and reduce their relation.
    pub fn query_boolean(&self, q: &Pattern) -> Result<BooleanReport, DgsError> {
        self.query_boolean_with(&Algorithm::Auto, q)
    }

    /// Boolean query with an explicit engine.
    ///
    /// [`Algorithm::Auto`] consults the pattern-result cache. The
    /// plain Boolean gather path doesn't materialize a relation, so it
    /// reads the cache without storing; the compressed-leg path runs
    /// data-selecting on `Gc` anyway, so its relation **is** stored —
    /// follow-up queries of either kind become hits.
    pub fn query_boolean_with(
        &self,
        algorithm: &Algorithm,
        q: &Pattern,
    ) -> Result<BooleanReport, DgsError> {
        self.stats.add_queries(1);
        let snap = self.snapshot();
        let (canon, hit) = self.cache_lookup(&snap, algorithm, q);
        if let (Some(canon), Some(cached)) = (&canon, hit) {
            self.stats.add_cache_hits(1);
            let report = Self::report_from_cache(q, canon, &cached);
            return Ok(BooleanReport {
                is_match: report.is_match,
                metrics: report.metrics,
                algorithm: report.algorithm,
                plan: report.plan,
            });
        }
        let intra = self.effective_workers(snap.frag.num_sites());
        if self.uses_compressed(&snap, algorithm) {
            let mut report = self.run_one(&snap, algorithm, q, intra)?;
            Self::charge_broadcast(&mut report.metrics, &snap.frag, std::iter::once(q));
            if let Some(canon) = canon {
                self.cache_store(&snap, canon, &report);
            }
            return Ok(BooleanReport {
                is_match: report.is_match,
                metrics: report.metrics,
                algorithm: report.algorithm,
                plan: report.plan,
            });
        }
        let (resolved, plan) = self.resolve(&snap, algorithm, q)?;
        let qa = Arc::new(q.clone());
        let (is_match, mut metrics) = match &resolved {
            Resolved::TriviallyEmpty => (false, RunMetrics::default()),
            Resolved::Dgpm(cfg) => {
                let (coord, sites) =
                    dgpm::build_with_mode(&snap.frag, &qa, cfg.clone(), QueryMode::Boolean);
                let o = self.drive(&snap, &snap.frag, resolved.name(), intra, coord, sites)?;
                let b = o
                    .coordinator
                    .boolean
                    .ok_or_else(|| DgsError::ExecutorFailed {
                        algorithm: resolved.name(),
                        reason: "coordinator finished without a Boolean verdict".into(),
                    })?;
                (b, o.metrics)
            }
            other => {
                let (relation, metrics) =
                    self.run_resolved(&snap, &snap.frag, other, &qa, intra)?;
                (relation.is_total(), metrics)
            }
        };
        // Same uniform accounting as `query` — the Boolean path used
        // to skip the query broadcast.
        Self::charge_broadcast(&mut metrics, &snap.frag, std::iter::once(q));
        Ok(BooleanReport {
            is_match,
            metrics,
            algorithm: resolved.name(),
            plan,
        })
    }

    /// Runs many queries against the session, amortizing the query
    /// broadcast: the whole batch is posted to each site once (`|F|`
    /// control messages total), instead of `|F|` per query. Per-query
    /// reports keep their own engine-run metrics; `total` adds the
    /// batched broadcast.
    ///
    /// The batch executes across a scoped worker pool
    /// (`min(available cores, batch length)` workers unless
    /// [`SimEngineBuilder::batch_workers`] overrides it). Results are
    /// **scheduling-independent**: the cache is probed sequentially up
    /// front against the batch-start state, each virtual-time run is
    /// deterministic in itself, and metrics are merged in input order
    /// — so a 1-worker and an N-worker run of the same batch report
    /// the same answers, plans and shipment metrics.
    pub fn query_batch(&self, patterns: &[Pattern]) -> BatchReport {
        self.query_batch_with(&Algorithm::Auto, patterns)
    }

    /// Batched run with an explicit engine; see [`Self::query_batch`].
    pub fn query_batch_with(&self, algorithm: &Algorithm, patterns: &[Pattern]) -> BatchReport {
        let n = patterns.len();
        self.stats.add_queries(n as u64);
        let mut slots: Vec<Option<Result<RunReport, DgsError>>> = (0..n).map(|_| None).collect();

        // The whole batch runs against one generation snapshot: a
        // concurrent delta cannot make two queries of the same batch
        // observe different graphs.
        let snap = self.snapshot();

        // Phase 1 — sequential cache probe against the batch-start
        // cache state (deterministic regardless of worker count).
        // Duplicate patterns within one batch all miss together and
        // all run: hits are defined by the state when the batch
        // arrived, not by intra-batch scheduling.
        let mut canons: Vec<Option<CanonicalPattern>> = Vec::with_capacity(n);
        for (i, q) in patterns.iter().enumerate() {
            let (canon, hit) = self.cache_lookup(&snap, algorithm, q);
            if let (Some(canon), Some(cached)) = (&canon, hit) {
                self.stats.add_cache_hits(1);
                slots[i] = Some(Ok(Self::report_from_cache(q, canon, &cached)));
            }
            canons.push(canon);
        }

        // Phase 2 — run the misses on the worker pool.
        let worklist: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_none())
            .map(|(i, _)| i)
            .collect();
        let workers = self.effective_workers(worklist.len());
        // Inside a batch the pool is spent *across* entries; each run
        // keeps `intra = 1` so the two levels never oversubscribe and
        // a 1-worker batch stays the fully sequential baseline.
        if workers <= 1 {
            for &i in &worklist {
                slots[i] = Some(self.run_one(&snap, algorithm, &patterns[i], 1));
            }
        } else {
            let next = AtomicUsize::new(0);
            let (tx, rx) = crossbeam::channel::unbounded();
            let worklist_ref = &worklist;
            let next_ref = &next;
            let snap_ref = &snap;
            crossbeam::thread::scope(|scope| {
                for _ in 0..workers {
                    let tx = tx.clone();
                    scope.spawn(move |_| loop {
                        let slot = next_ref.fetch_add(1, Ordering::Relaxed);
                        if slot >= worklist_ref.len() {
                            break;
                        }
                        let i = worklist_ref[slot];
                        let report = self.run_one(snap_ref, algorithm, &patterns[i], 1);
                        if tx.send((i, report)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                while let Ok((i, report)) = rx.recv() {
                    slots[i] = Some(report);
                }
            })
            .expect("batch worker pool");
        }

        // Phase 3 — populate the cache in input order (identical to
        // what a single worker would have inserted).
        for &i in &worklist {
            if let (Some(Some(Ok(report))), Some(canon)) = (slots.get(i), canons[i].take()) {
                self.cache_store(&snap, canon, report);
            }
        }

        // Phase 4 — order-stable aggregation: per-query metrics merge
        // in input order, then one broadcast posting exactly the
        // patterns that ran a protocol (cache hits ship nothing).
        let reports: Vec<Result<RunReport, DgsError>> = slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect();
        let mut total = RunMetrics::default();
        for r in reports.iter().flatten() {
            total.merge(&r.metrics);
        }
        let posted: Vec<&Pattern> = worklist
            .iter()
            .filter(|&&i| reports[i].is_ok())
            .map(|&i| &patterns[i])
            .collect();
        if !posted.is_empty() {
            Self::charge_broadcast(&mut total, &snap.frag, posted);
        }
        BatchReport { reports, total }
    }

    /// Resolves the batch worker count: the builder override, or one
    /// worker per available core, never more than there is work.
    fn effective_workers(&self, work: usize) -> usize {
        let configured = if self.batch_workers > 0 {
            self.batch_workers
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        };
        configured.min(work).max(1)
    }

    /// Absorbs a batch of edge updates into the session **in place**:
    /// no re-partitioning, no session rebuild, no wholesale cache
    /// flush.
    ///
    /// * The fragmentation is maintained incrementally
    ///   ([`Fragmentation::apply_delta`]): each op routes to the
    ///   fragment owning its source node, virtual nodes are
    ///   created/retired and in-node subscriptions added/dropped as
    ///   crossing edges appear and disappear.
    /// * **Every non-empty batch** keeps the cached answers *valid*:
    ///   each current-generation cache entry is promoted to
    ///   distributed incremental maintenance and re-stored under the
    ///   fresh generation with [`PlanExplanation::incremental`]
    ///   recording the leg. A follow-up query is a cache hit: zero
    ///   full re-evaluations.
    ///   - *Deletions* shrink the relation: each site replays the HHK
    ///     counter update on its fragment ([`delta::DeltaSiteState`])
    ///     and ships in-node falsifications to its subscribers exactly
    ///     like dGPM data messages, and the revoked pairs leave the
    ///     stored rows. A deletion-only batch runs just this phase.
    ///   - *Insertions* grow it: the sites mark the affected area
    ///     `AFF` — the label-compatible, currently *false* pairs that
    ///     are backward-reachable, through pairs of the same kind,
    ///     from the source of an inserted edge — flip exactly those
    ///     pairs to true, and refine downward from the ones that lack
    ///     support, with everything outside `AFF` frozen; survivors
    ///     rejoin the stored rows. Cost follows `|AFF|`
    ///     ([`SiteDeltaMetrics::affected_pairs`]), not the graph. An
    ///     insertion-only batch passes through an empty deletion
    ///     phase; a mixed batch composes both (deletions first, on the
    ///     pre-insertion adjacency).
    ///
    /// The exact per-entry diffs land in
    /// [`DeltaReport::maintained_diffs`] — the feed a live match
    /// subscription pushes. The one exception to "everything
    /// maintains": a `trivial-∅` entry whose pattern has nodes that
    /// cannot reach a cycle of `Q`. Its stored `∅` rows are the
    /// answer convention, **not** the maximum fixpoint (sink-reaching
    /// nodes keep label-compatible matches on any graph), so an
    /// insertion batch — which may close a graph cycle — has no
    /// valid baseline to repair from. Such entries are dropped and
    /// counted in [`DeltaReport::invalidated_entries`]; the next
    /// query re-evaluates under fresh facts (and a live subscription
    /// falls back to re-query + set-diff, staying exact).
    ///
    /// The compressed leg, if configured, is marked dirty and lazily
    /// rebuilt by the next query that wants it.
    ///
    /// Ops already satisfied (inserting a present edge, deleting an
    /// absent one) are skipped and counted in
    /// [`DeltaReport::ignored`], which makes re-applying a delta a
    /// no-op. An edge listed for both insertion and deletion, or one
    /// referencing a node outside the graph, is
    /// [`DgsError::InvalidDelta`].
    ///
    /// Deltas take `&self`: the next generation snapshot is built
    /// entirely **off the read path** and published with a single
    /// pointer swap, so in-flight queries keep answering at the
    /// generation they loaded and never block behind this writer.
    /// Concurrent writers on the same handle serialize against each
    /// other. Its fragmentation is a copy of the current one, written
    /// over the generation the last swap retired (**recycled**) when
    /// nobody else — a reader, an engine clone, a caller of
    /// [`Self::fragmentation`] — still held that, and cloned afresh
    /// when somebody did. The graph mirror is derived lazily from it;
    /// maintained entries share one reverse adjacency per site,
    /// rewound between their runs.
    ///
    /// # Errors
    /// [`DgsError::InvalidDelta`] as above; on a socket session, the
    /// executor's error when re-shipping the graph to the workers
    /// fails. Either way the call is a no-op: the generation, every
    /// cached answer and the maintenance states behind them are what
    /// they were, so the batch can be retried.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<DeltaReport, DgsError> {
        // One writer at a time; readers keep serving the current
        // snapshot untouched while this builds the next one.
        let mut writer = self.writer.lock();
        let snap = self.snapshot();
        // Validate and normalize the batch. Presence checks go through
        // the fragmentation (`O(log deg)` per op), so a delta never
        // forces the graph mirror to materialize.
        let n = snap.frag.assignment().len() as u32;
        for &(u, v) in delta.insert_edges.iter().chain(&delta.delete_edges) {
            if u.0 >= n || v.0 >= n {
                return Err(DgsError::InvalidDelta {
                    reason: format!("edge ({u}, {v}) references a node outside the {n}-node graph"),
                });
            }
        }
        let mut inserts = delta.insert_edges.clone();
        inserts.sort_unstable();
        inserts.dedup();
        let mut deletes = delta.delete_edges.clone();
        deletes.sort_unstable();
        deletes.dedup();
        if let Some(&(u, v)) = inserts.iter().find(|e| deletes.binary_search(e).is_ok()) {
            return Err(DgsError::InvalidDelta {
                reason: format!("edge ({u}, {v}) is listed for both insertion and deletion"),
            });
        }
        let listed = inserts.len() + deletes.len();
        inserts.retain(|&(u, v)| !snap.frag.has_edge(u, v));
        deletes.retain(|&(u, v)| snap.frag.has_edge(u, v));

        let mut report = DeltaReport {
            inserted: inserts.len(),
            deleted: deletes.len(),
            ignored: listed - inserts.len() - deletes.len(),
            crossing_inserted: 0,
            crossing_deleted: 0,
            virtuals_created: 0,
            virtuals_retired: 0,
            maintained_entries: 0,
            invalidated_entries: 0,
            revoked_pairs: 0,
            resurrected_pairs: 0,
            generation: snap.generation,
            prev_generation: snap.generation,
            metrics: RunMetrics::default(),
            per_site: (0..snap.frag.num_sites())
                .map(|site| SiteDeltaMetrics {
                    site,
                    ..SiteDeltaMetrics::default()
                })
                .collect(),
            maintained_diffs: Vec::new(),
        };
        if inserts.is_empty() && deletes.is_empty() {
            // Everything was already satisfied: the graph is unchanged,
            // so the generation — and every cached answer — stays
            // valid.
            self.stats.add_deltas(1);
            return Ok(report);
        }
        let old_prefix = snap.gen_key(&[]);

        // Promote current-generation cache entries to maintenance —
        // every batch shape is maintainable — building missing
        // per-site counter states from the *pre-delta* fragments and
        // the cached rows.
        let mut promoted: Vec<(Vec<u32>, Arc<CachedResult>)> = Vec::new();
        if let Some(cache) = &self.cache {
            let entries = cache.lock().entries_with_prefix(&old_prefix);
            let live: HashSet<&[u32]> = entries.iter().map(|(k, _)| &k[2..]).collect();
            // States whose entry the LRU evicted have no rows left
            // to maintain.
            writer.entries.retain(|k, _| live.contains(k.as_slice()));
            for (key, entry) in entries {
                let canon_key = key[2..].to_vec();
                // A `trivial-∅` entry stores the answer *convention*,
                // not the maximum fixpoint. When every pattern node
                // reaches a cycle of `Q` the two coincide (the
                // fixpoint on an acyclic graph is genuinely empty)
                // and the entry maintains like any other; otherwise
                // sink-reaching nodes keep label-compatible matches
                // the `∅` rows never held, so insertions — which may
                // close a graph cycle — have no valid baseline to
                // repair from. Drop the entry and let the next query
                // re-evaluate under fresh facts.
                if !inserts.is_empty()
                    && entry.algorithm == EngineChoice::TriviallyEmpty.name()
                    && !crate::plan::empty_rows_are_fixpoint(&cache::decode_pattern(&canon_key))
                {
                    writer.entries.remove(&canon_key);
                    report.invalidated_entries += 1;
                    continue;
                }
                if !writer.entries.contains_key(&canon_key) {
                    let pattern = cache::decode_pattern(&canon_key);
                    let sites = (0..snap.frag.num_sites())
                        .map(|s| {
                            DeltaSiteState::from_relation(&snap.frag, s, &pattern, &entry.rows)
                        })
                        .collect();
                    writer.entries.insert(
                        canon_key.clone(),
                        MaintainedStates {
                            tables: Arc::new(PatternTables::new(&pattern)),
                            sites,
                            note: IncrementalNote::default(),
                        },
                    );
                }
                promoted.push((canon_key, entry));
            }
        }

        // Build the **next generation** entirely off the read path: a
        // copy of the fragmentation with the ops applied — written
        // over the last retired generation's buffers if the swap found
        // them unshared, a deep clone (`clone_from` into an empty
        // one) if not — no graph mirror, dirty facts and a dirty
        // compressed leg (all rebuilt lazily: a delete-heavy stream
        // served from maintained entries never pays their `O(|G|)`).
        let ops: Vec<EdgeOp> = inserts
            .iter()
            .map(|&(u, v)| EdgeOp::Insert(u, v))
            .chain(deletes.iter().map(|&(u, v)| EdgeOp::Delete(u, v)))
            .collect();
        let mut next_frag = writer.spare.take().unwrap_or_default();
        next_frag.clone_from(&snap.frag);
        let frag_stats = next_frag.apply_delta(&ops);
        let next_frag = Arc::new(next_frag);
        report.crossing_inserted = frag_stats.crossing_inserts;
        report.crossing_deleted = frag_stats.crossing_deletes;
        report.virtuals_created = frag_stats.virtuals_created;
        report.virtuals_retired = frag_stats.virtuals_retired;
        let generation = self.gen_alloc.fetch_add(1, Ordering::SeqCst);
        report.generation = generation;
        let next = Arc::new(GenSnapshot {
            generation,
            frag: Arc::clone(&next_frag),
            graph: Mutex::new(None),
            facts: Mutex::new(FactsState {
                facts: Arc::clone(&snap.facts.lock().facts),
                dirty: true,
            }),
            compressed: Mutex::new(CompressedState {
                dirty: true,
                ..snap.compressed.lock().clone()
            }),
        });

        // A socket session's workers were bootstrapped with the
        // pre-delta graph: re-ship the session so later runs execute
        // against the mutated graph (this derives the graph mirror —
        // delta batches on socket sessions pay the reship).
        // This is the only step that can fail after validation, so it
        // runs before maintenance advances a counter state or stores
        // a row: a failed delta is a no-op. The cluster
        // generation flips **before** the snapshot publishes: in the
        // window between the two, queries still on the old snapshot
        // fall back to the in-process executor instead of running on
        // the freshly re-shipped worker graph.
        if let Some(cluster) = &self.cluster {
            let blob = crate::remote::encode_bootstrap(&next.graph(), &next_frag);
            cluster
                .rebootstrap(&blob)
                .map_err(|e| DgsError::from_exec("socket-cluster", e))?;
            self.cluster_gen.store(generation, Ordering::SeqCst);
        }

        // Distributed incremental maintenance per cached entry:
        // revoking the falsified pairs from the stored rows and
        // re-inserting the resurrected ones keeps every entry exact,
        // whatever the batch shape. The runs take turns with the
        // session's one reverse adjacency and leave it post-delta,
        // where the next batch needs it — unless this batch maintains
        // nothing and moves the graph without it.
        let mut pred = writer.pred.take().filter(|_| !promoted.is_empty());
        for (canon_key, entry) in promoted {
            let states = writer.entries.remove(&canon_key).expect("promoted above");
            let lists = pred.unwrap_or_else(|| snap.frag.reverse_adjacency());
            let (coord, sites) = delta::build_maintenance(
                &next_frag,
                &states.tables,
                states.sites,
                lists,
                &deletes,
                &inserts,
            );
            // Maintenance stays in-process even on socket sessions:
            // the per-site counter states must come back into the
            // session, and remote state does not.
            let kind = match self.executor {
                ExecutorKind::Socket => ExecutorKind::Virtual,
                k => k,
            };
            let o = dgs_net::run(kind, &self.cost, coord, sites);
            let mut rows = entry.rows.clone();
            for var in &o.coordinator.revoked {
                let row = &mut rows[var.q as usize];
                if let Ok(pos) = row.binary_search(&var.node_id()) {
                    row.remove(pos);
                }
            }
            for var in &o.coordinator.resurrected {
                let row = &mut rows[var.q as usize];
                if let Err(pos) = row.binary_search(&var.node_id()) {
                    row.insert(pos, var.node_id());
                }
            }
            report.revoked_pairs += o.coordinator.revoked.len() as u64;
            report.resurrected_pairs += o.coordinator.resurrected.len() as u64;
            report.maintained_diffs.push(delta::MaintainedDiff {
                canon_key: canon_key.clone(),
                revoked: o.coordinator.revoked,
                resurrected: o.coordinator.resurrected,
            });
            report.metrics.merge(&o.metrics);
            let (sites_back, lists_back) = o
                .sites
                .into_iter()
                .map(|site| {
                    report.per_site[site.stats().site].merge(site.stats());
                    site.into_parts()
                })
                .unzip();
            pred = Some(lists_back);
            let note = IncrementalNote {
                deletions_absorbed: states.note.deletions_absorbed + deletes.len() as u64,
                insertions_absorbed: states.note.insertions_absorbed + inserts.len() as u64,
                maintenance_runs: states.note.maintenance_runs + 1,
            };
            let mut plan = entry.plan.clone();
            if plan.incremental.is_none() {
                plan.reasons.push(
                    "maintained under edge updates by the distributed incremental \
                     update (no full re-evaluation)"
                        .into(),
                );
            }
            plan.incremental = Some(note);
            if let Some(cache) = &self.cache {
                cache.lock().insert(
                    next.gen_key(&canon_key),
                    Arc::new(CachedResult {
                        rows,
                        algorithm: entry.algorithm,
                        plan,
                    }),
                );
            }
            writer.entries.insert(
                canon_key,
                MaintainedStates {
                    tables: states.tables,
                    sites: sites_back,
                    note,
                },
            );
            report.maintained_entries += 1;
        }
        writer.pred = pred;

        // Publish: a single pointer swap makes the next generation the
        // one every subsequent query loads. The one it retires becomes
        // the next batch's buffers if this handle was the last on it.
        let retired = std::mem::replace(&mut *self.snap.lock(), next);
        drop(snap);
        writer.spare = Arc::into_inner(retired).and_then(|snap| Arc::into_inner(snap.frag));
        self.stats.add_deltas(1);
        Ok(report)
    }

    /// Resolves `algorithm` for `q`: the planner decides for
    /// [`Algorithm::Auto`]; explicit requests are checked against the
    /// cached facts (the old API `assert!`ed these).
    fn resolve(
        &self,
        snap: &GenSnapshot,
        algorithm: &Algorithm,
        q: &Pattern,
    ) -> Result<(Resolved, PlanExplanation), DgsError> {
        let qf = PatternFacts::compute(q);
        let facts = snap.facts();
        match algorithm {
            Algorithm::Auto => {
                let (choice, plan) = Planner.plan(&facts, &qf)?;
                Ok((Self::resolved_from_choice(choice), plan))
            }
            Algorithm::Dgpm(cfg) => {
                Planner.validate_pattern(&qf)?;
                let r = Resolved::Dgpm(cfg.clone());
                let plan = PlanExplanation::forced(r.name());
                Ok((r, plan))
            }
            Algorithm::Dgpmd => {
                if !qf.is_dag && facts.is_dag {
                    // §5.1: a cyclic pattern on a DAG graph can never
                    // match — no distributed work needed.
                    let mut plan = PlanExplanation::forced("trivial-∅");
                    plan.reasons.push(
                        "dGPMd requested with a cyclic pattern on an acyclic graph: Q(G) = ∅"
                            .into(),
                    );
                    return Ok((Resolved::TriviallyEmpty, plan));
                }
                Planner.check_explicit(EngineChoice::Dgpmd, &facts, &qf)?;
                Ok((Resolved::Dgpmd, PlanExplanation::forced("dGPMd")))
            }
            Algorithm::Dgpms => {
                Planner.check_explicit(EngineChoice::Dgpms, &facts, &qf)?;
                Ok((Resolved::Dgpms, PlanExplanation::forced("dGPMs")))
            }
            Algorithm::Dgpmt => {
                Planner.check_explicit(EngineChoice::Dgpmt, &facts, &qf)?;
                if !qf.is_dag {
                    // Tree graphs are acyclic, so a cyclic pattern is
                    // trivially unmatched (and the tree protocol only
                    // schedules DAG patterns).
                    let mut plan = PlanExplanation::forced("trivial-∅");
                    plan.reasons
                        .push("dGPMt requested with a cyclic pattern on a tree: Q(G) = ∅".into());
                    return Ok((Resolved::TriviallyEmpty, plan));
                }
                Ok((Resolved::Dgpmt, PlanExplanation::forced("dGPMt")))
            }
            Algorithm::MatchCentral => {
                Planner.validate_pattern(&qf)?;
                Ok((Resolved::MatchCentral, PlanExplanation::forced("Match")))
            }
            Algorithm::DisHhk => {
                Planner.validate_pattern(&qf)?;
                Ok((Resolved::DisHhk, PlanExplanation::forced("disHHK")))
            }
            Algorithm::DMes => {
                Planner.validate_pattern(&qf)?;
                Ok((Resolved::DMes, PlanExplanation::forced("dMes")))
            }
        }
    }

    /// The uniform mapping from a planner choice to a runnable engine.
    fn resolved_from_choice(choice: EngineChoice) -> Resolved {
        match choice {
            EngineChoice::Dgpmt => Resolved::Dgpmt,
            EngineChoice::Dgpmd => Resolved::Dgpmd,
            EngineChoice::Dgpms => Resolved::Dgpms,
            EngineChoice::Dgpm => Resolved::Dgpm(DgpmConfig::optimized()),
            EngineChoice::TriviallyEmpty => Resolved::TriviallyEmpty,
        }
    }

    /// Whether this query will be answered on the compressed leg.
    fn uses_compressed(&self, snap: &GenSnapshot, algorithm: &Algorithm) -> bool {
        matches!(algorithm, Algorithm::Auto) && snap.compressed_leg().is_some_and(|leg| leg.active)
    }

    /// Resolves and runs one query without the broadcast charge (the
    /// caller accounts it: per-query for [`Self::query_with`], once
    /// per batch for [`Self::query_batch_with`]). `Auto` queries route
    /// to the compressed leg when it is active.
    fn run_one(
        &self,
        snap: &GenSnapshot,
        algorithm: &Algorithm,
        q: &Pattern,
        intra: usize,
    ) -> Result<RunReport, DgsError> {
        let leg = if matches!(algorithm, Algorithm::Auto) {
            snap.compressed_leg()
        } else {
            None
        };
        if let Some(leg) = leg.as_ref().filter(|leg| leg.active) {
            let qf = PatternFacts::compute(q);
            let (choice, mut plan) = Planner.plan(&leg.facts, &qf)?;
            plan.compressed = Some(leg.note());
            plan.reasons.push(format!(
                "answering on Gc ({} classes via {}): ratio {:.2} clears threshold {:.2}; \
                 relation decompressed to G node ids",
                leg.graph.class_count(),
                leg.method.name(),
                leg.ratio,
                leg.threshold
            ));
            let resolved = Self::resolved_from_choice(choice);
            let qa = Arc::new(q.clone());
            let (class_relation, metrics) =
                self.run_resolved(snap, &leg.frag, &resolved, &qa, intra)?;
            let relation = leg.graph.expand(&class_relation);
            return Ok(RunReport::assemble(
                relation,
                metrics,
                resolved.name(),
                plan,
            ));
        }
        let (resolved, mut plan) = self.resolve(snap, algorithm, q)?;
        if let Some(leg) = leg.filter(|leg| !leg.active) {
            plan.reasons.push(format!(
                "compressed leg built ({} classes via {}) but ratio {:.2} exceeds \
                 threshold {:.2} — answering on G",
                leg.graph.class_count(),
                leg.method.name(),
                leg.ratio,
                leg.threshold
            ));
        }
        let qa = Arc::new(q.clone());
        let (relation, metrics) = self.run_resolved(snap, &snap.frag, &resolved, &qa, intra)?;
        Ok(RunReport::assemble(
            relation,
            metrics,
            resolved.name(),
            plan,
        ))
    }

    /// Canonicalizes `q` and probes the cache at `snap`'s generation.
    /// Returns `(None, None)` when caching does not apply (explicit
    /// engine, or cache off).
    fn cache_lookup(
        &self,
        snap: &GenSnapshot,
        algorithm: &Algorithm,
        q: &Pattern,
    ) -> (Option<CanonicalPattern>, Option<Arc<CachedResult>>) {
        if !matches!(algorithm, Algorithm::Auto) {
            return (None, None);
        }
        let Some(cache) = &self.cache else {
            return (None, None);
        };
        let canon = cache::canonicalize(q);
        let hit = cache.lock().get(&snap.gen_key(&canon.key));
        (Some(canon), hit)
    }

    /// Re-expresses a cached canonical answer in the submitted
    /// pattern's numbering. The hit ships nothing: fresh metrics with
    /// `cache_hits = 1` and zero messages.
    fn report_from_cache(
        q: &Pattern,
        canon: &CanonicalPattern,
        cached: &CachedResult,
    ) -> RunReport {
        let rows: Vec<Vec<dgs_graph::NodeId>> = q
            .nodes()
            .map(|u| cached.rows[canon.pos_of[u.index()] as usize].clone())
            .collect();
        let mut plan = cached.plan.clone();
        plan.reasons
            .push("served from the pattern-result cache (no protocol run)".into());
        RunReport::assemble(
            MatchRelation::from_lists(rows),
            RunMetrics {
                cache_hits: 1,
                ..RunMetrics::default()
            },
            cached.algorithm,
            plan,
        )
    }

    /// Stores a freshly computed answer under its canonical key at
    /// `snap`'s generation, rows permuted into canonical node order.
    fn cache_store(&self, snap: &GenSnapshot, canon: CanonicalPattern, report: &RunReport) {
        let Some(cache) = &self.cache else {
            return;
        };
        let rows: Vec<Vec<dgs_graph::NodeId>> = canon
            .node_at()
            .iter()
            .map(|&u| report.relation.matches_of(dgs_graph::QNodeId(u)).to_vec())
            .collect();
        cache.lock().insert(
            snap.gen_key(&canon.key),
            Arc::new(CachedResult {
                rows,
                algorithm: report.algorithm,
                plan: report.plan.clone(),
            }),
        );
    }

    /// The socket cluster backing this session, when built with
    /// [`SimEngineBuilder::build_socket`].
    pub fn socket_cluster(&self) -> Option<&Arc<SocketCluster>> {
        self.cluster.as_ref()
    }

    /// Runs one protocol under the session's executor, with typed
    /// errors. Socket sessions dispatch to the bootstrapped cluster —
    /// but only for the snapshot's session fragmentation at the
    /// generation the cluster was last bootstrapped with: the
    /// compressed leg's `Gc` was never shipped to the workers, and a
    /// snapshot a concurrent delta has already (or not yet) re-shipped
    /// must not run on the wrong worker graph — both fall back to the
    /// in-process virtual executor.
    /// `intra` is the intra-query worker budget: the virtual
    /// executor's Phase-1 site evaluations fan out over up to that
    /// many threads ([`dgs_net::try_run_pooled`]); reports stay
    /// bit-identical to an `intra = 1` run. The threaded and socket
    /// executors are inherently per-site parallel and ignore it.
    fn drive<M, C, S>(
        &self,
        snap: &GenSnapshot,
        frag: &Arc<Fragmentation>,
        algorithm: &'static str,
        intra: usize,
        coordinator: C,
        sites: Vec<S>,
    ) -> Result<RunOutcome<C, S>, DgsError>
    where
        M: SocketMsg,
        C: CoordinatorLogic<M> + Send,
        S: SiteLogic<M> + RemoteSpec + Send,
    {
        let dispatchable = Arc::ptr_eq(frag, &snap.frag)
            && self.cluster_gen.load(Ordering::SeqCst) == snap.generation;
        let (kind, cluster) = match (self.executor, &self.cluster) {
            (ExecutorKind::Socket, Some(cl)) if dispatchable => (ExecutorKind::Socket, Some(&**cl)),
            (ExecutorKind::Socket, _) => (ExecutorKind::Virtual, None),
            (kind, _) => (kind, None),
        };
        dgs_net::try_run_pooled(kind, &self.cost, cluster, intra, coordinator, sites)
            .map_err(|e| DgsError::from_exec(algorithm, e))
    }

    /// Runs a resolved engine on `frag` and returns
    /// `(relation, metrics)`.
    fn run_resolved(
        &self,
        snap: &GenSnapshot,
        frag: &Arc<Fragmentation>,
        resolved: &Resolved,
        q: &Arc<Pattern>,
        intra: usize,
    ) -> Result<(MatchRelation, RunMetrics), DgsError> {
        // One shape per engine: build the actors, run them, take the
        // coordinator's answer.
        macro_rules! drive {
            ($build:expr) => {{
                let (coord, sites) = $build;
                let o = self.drive(snap, frag, resolved.name(), intra, coord, sites)?;
                let answer = o
                    .coordinator
                    .answer
                    .ok_or_else(|| DgsError::ExecutorFailed {
                        algorithm: resolved.name(),
                        reason: "coordinator finished without an answer".into(),
                    })?;
                Ok((answer, o.metrics))
            }};
        }
        match resolved {
            Resolved::TriviallyEmpty => {
                Ok((MatchRelation::empty(q.node_count()), RunMetrics::default()))
            }
            Resolved::Dgpm(cfg) => drive!(dgpm::build(frag, q, cfg.clone())),
            // One engine, two names: `dGPMd` is `dGPMs` on a DAG
            // pattern (the name carries Theorem 3's bound).
            Resolved::Dgpmd | Resolved::Dgpms => drive!(dgpms::build(frag, q)),
            Resolved::Dgpmt => drive!(dgpmt::build(frag, q)),
            Resolved::MatchCentral => drive!(baselines::match_central::build(frag, q)),
            Resolved::DisHhk => drive!(baselines::dishhk::build(frag, q)),
            Resolved::DMes => drive!(baselines::dmes::build(frag, q)),
        }
    }

    /// Accounts the query broadcast (Sc posts the patterns to each
    /// site): `|F|` control messages of `Σ ~|Qi|` bytes each. Applied
    /// uniformly to **every** query path — data-selecting, Boolean,
    /// and trivially-empty runs alike (the old API skipped it on the
    /// latter two).
    fn charge_broadcast<'a>(
        metrics: &mut RunMetrics,
        frag: &Fragmentation,
        patterns: impl IntoIterator<Item = &'a Pattern>,
    ) {
        let q_bytes: usize = patterns
            .into_iter()
            .map(|q| 8 + 3 * q.node_count() + 4 * q.edge_count())
            .sum();
        metrics.control_messages += frag.num_sites() as u64;
        metrics.control_bytes += (frag.num_sites() * q_bytes) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::generate::social::fig1;
    use dgs_graph::generate::{dag, patterns, random, tree};
    use dgs_partition::{hash_partition, tree_partition};
    use dgs_sim::hhk_simulation;

    fn engine_for(g: &Graph, k: usize, seed: u64) -> SimEngine {
        let assign = hash_partition(g.node_count(), k, seed);
        let frag = Arc::new(Fragmentation::build(g, &assign, k));
        SimEngine::builder(g, frag).build()
    }

    #[test]
    fn auto_picks_dgpmt_on_trees_and_agrees_with_oracle() {
        let g = tree::random_tree(200, 4, 4);
        let assign = tree_partition(&g, 4);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 4));
        let engine = SimEngine::builder(&g, frag).build();
        let q = patterns::path_pattern(2, &[dgs_graph::Label(0), dgs_graph::Label(1)]);
        let report = engine.query(&q).unwrap();
        assert_eq!(report.algorithm, "dGPMt");
        assert!(report.plan.auto);
        assert_eq!(report.relation, hhk_simulation(&q, &g).relation);
    }

    #[test]
    fn auto_picks_dgpmd_on_dags_and_agrees_with_oracle() {
        let g = dag::citation_like(300, 700, 5, 7);
        let engine = engine_for(&g, 3, 7);
        let q = patterns::random_dag_with_depth(4, 6, 2, 5, 7);
        let report = engine.query(&q).unwrap();
        assert_eq!(report.algorithm, "dGPMd");
        assert_eq!(report.relation, hhk_simulation(&q, &g).relation);
    }

    #[test]
    fn auto_handles_cyclic_workloads_and_agrees_with_oracle() {
        let g = random::uniform(120, 500, 4, 8);
        let engine = engine_for(&g, 3, 8);
        let q = patterns::random_cyclic(3, 6, 4, 8);
        let report = engine.query(&q).unwrap();
        assert_eq!(report.algorithm, "dGPMs");
        assert_eq!(report.relation, hhk_simulation(&q, &g).relation);
    }

    #[test]
    fn auto_short_circuits_cyclic_pattern_on_dag() {
        let g = dag::citation_like(100, 250, 4, 1);
        let engine = engine_for(&g, 3, 1);
        let q = patterns::random_cyclic(3, 5, 4, 1);
        let report = engine.query(&q).unwrap();
        assert_eq!(report.algorithm, "trivial-∅");
        // Asking for dGPMd by name takes the same short-circuit.
        let forced = engine.query_with(&Algorithm::Dgpmd, &q).unwrap();
        for report in [report, forced] {
            assert!(!report.is_match);
            assert!(report.answer().is_empty());
            assert_eq!(report.metrics.data_bytes, 0);
            // The uniform broadcast accounting still posts Q to the sites.
            assert_eq!(report.metrics.control_messages, 3);
        }
    }

    #[test]
    fn absent_label_gives_the_empty_answer() {
        // A pattern whose label does not occur: relation is empty,
        // is_match false, answer empty.
        let g = random::uniform(60, 200, 3, 5);
        let engine = engine_for(&g, 2, 5);
        let mut qb = dgs_graph::PatternBuilder::new();
        qb.add_node(dgs_graph::Label(9));
        let report = engine.query_with(&Algorithm::dgpm(), &qb.build()).unwrap();
        assert!(!report.is_match);
        assert!(report.relation.is_empty());
        assert!(report.answer().is_empty());
    }

    #[test]
    fn names() {
        assert_eq!(Algorithm::Auto.name(), "Auto");
        assert_eq!(Algorithm::dgpm().name(), "dGPM");
        assert_eq!(Algorithm::dgpm_nopt().name(), "dGPMNOpt");
        assert_eq!(Algorithm::dgpm_incremental_only().name(), "dGPM-nopush");
        assert_eq!(Algorithm::Dgpmd.name(), "dGPMd");
        assert_eq!(Algorithm::Dgpms.name(), "dGPMs");
        assert_eq!(Algorithm::Dgpmt.name(), "dGPMt");
        assert_eq!(Algorithm::MatchCentral.name(), "Match");
        assert_eq!(Algorithm::DisHhk.name(), "disHHK");
        assert_eq!(Algorithm::DMes.name(), "dMes");
    }

    #[test]
    fn explicit_engines_error_instead_of_panicking() {
        let g = random::uniform(50, 200, 4, 2);
        let engine = engine_for(&g, 2, 2);
        let q = patterns::random_cyclic(3, 5, 4, 2);
        assert!(matches!(
            engine.query_with(&Algorithm::Dgpmd, &q),
            Err(DgsError::Unsupported {
                algorithm: "dGPMd",
                ..
            })
        ));
        assert!(matches!(
            engine.query_with(&Algorithm::Dgpmt, &q),
            Err(DgsError::Unsupported {
                algorithm: "dGPMt",
                ..
            })
        ));
        // The engine session stays usable after a bad query.
        assert!(engine.query(&q).is_ok());
    }

    #[test]
    fn answer_borrows_instead_of_cloning() {
        let w = fig1();
        let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
        let engine = SimEngine::builder(&w.graph, frag).build();
        let report = engine.query(&w.pattern).unwrap();
        assert!(report.is_match);
        // On a match the answer aliases the relation.
        assert!(std::ptr::eq(report.answer(), &report.relation));
        assert_eq!(report.answer().len(), 11);
    }

    #[test]
    fn boolean_charges_broadcast_uniformly() {
        let w = fig1();
        let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
        let engine = SimEngine::builder(&w.graph, frag).build();
        let q = &w.pattern;
        let b = engine
            .query_boolean_with(&Algorithm::dgpm_incremental_only(), q)
            .unwrap();
        assert!(b.is_match);
        // The Boolean path used to skip the |F|-message broadcast the
        // data-selecting path charges; both paths now include it.
        let broadcast_bytes = (3 * (8 + 3 * q.node_count() + 4 * q.edge_count())) as u64;
        assert!(b.metrics.control_messages >= 3);
        assert!(b.metrics.control_bytes >= broadcast_bytes);
        let full = engine
            .query_with(&Algorithm::dgpm_incremental_only(), q)
            .unwrap();
        // Gather (3) + broadcast (3).
        assert_eq!(full.metrics.control_messages, 6);
        assert!(full.metrics.control_bytes >= broadcast_bytes);
    }

    #[test]
    fn batch_amortizes_the_broadcast() {
        let g = random::uniform(150, 600, 4, 9);
        // Cache off: this test measures the protocol broadcast, and
        // re-queries each pattern individually after the batch.
        let assign = hash_partition(g.node_count(), 5, 9);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 5));
        let engine = SimEngine::builder(&g, frag).cache(false).build();
        let patterns: Vec<Pattern> = (0..10)
            .map(|i| patterns::random_cyclic(3, 6, 4, 100 + i))
            .collect();
        let batch = engine.query_batch(&patterns);
        assert_eq!(batch.reports.len(), 10);
        assert_eq!(batch.succeeded(), 10);
        for r in &batch.reports {
            let r = r.as_ref().unwrap();
            // Per-query metrics are present and broadcast-free.
            assert!(r.metrics.total_ops > 0);
        }
        // One broadcast for the whole batch...
        let singles: u64 = patterns
            .iter()
            .map(|q| engine.query(q).unwrap().metrics.control_messages)
            .sum();
        // ... so total control messages are |F| * (B - 1) lower than
        // B separate queries.
        assert_eq!(
            batch.total.control_messages,
            singles - 5 * (patterns.len() as u64 - 1)
        );
        // Same answers either way.
        for (r, q) in batch.reports.iter().zip(&patterns) {
            assert_eq!(
                r.as_ref().unwrap().relation,
                engine.query(q).unwrap().relation
            );
        }
    }

    #[test]
    fn batch_isolates_failures() {
        let g = random::uniform(60, 240, 4, 10);
        let engine = engine_for(&g, 2, 10);
        let good = patterns::random_cyclic(3, 5, 4, 10);
        let bad = dgs_graph::PatternBuilder::new().build();
        let batch = engine.query_batch_with(&Algorithm::Auto, &[good.clone(), bad, good]);
        assert_eq!(batch.succeeded(), 2);
        assert!(matches!(
            batch.reports[1],
            Err(DgsError::InvalidPattern { .. })
        ));
    }

    #[test]
    fn threaded_executor_through_the_builder() {
        let w = fig1();
        let frag = Arc::new(Fragmentation::build(&w.graph, &w.assignment, 3));
        let engine = SimEngine::builder(&w.graph, frag)
            .executor(ExecutorKind::Threaded)
            .build();
        let report = engine.query(&w.pattern).unwrap();
        assert!(report.is_match);
    }

    #[test]
    fn repeat_query_hits_the_cache_with_zero_messages() {
        let g = random::uniform(100, 400, 4, 21);
        let engine = engine_for(&g, 3, 21);
        let q = patterns::random_cyclic(3, 6, 4, 21);
        let cold = engine.query(&q).unwrap();
        assert_eq!(cold.metrics.cache_hits, 0);
        assert!(cold.metrics.control_messages > 0);
        let warm = engine.query(&q).unwrap();
        assert_eq!(warm.metrics.cache_hits, 1);
        assert_eq!(warm.metrics.data_messages, 0);
        assert_eq!(warm.metrics.control_messages, 0);
        assert_eq!(warm.metrics.result_messages, 0);
        assert_eq!(warm.metrics.data_bytes, 0);
        assert_eq!(warm.relation, cold.relation);
        assert_eq!(warm.algorithm, cold.algorithm);
        assert!(warm.plan.to_string().contains("cache"));
        let stats = engine.cache_stats().unwrap();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn explicit_engines_bypass_the_cache() {
        let g = random::uniform(80, 320, 4, 22);
        let engine = engine_for(&g, 3, 22);
        let q = patterns::random_cyclic(3, 6, 4, 22);
        for _ in 0..2 {
            let r = engine.query_with(&Algorithm::Dgpms, &q).unwrap();
            assert_eq!(r.metrics.cache_hits, 0);
            assert!(r.metrics.control_messages > 0);
        }
        assert_eq!(engine.cache_stats().unwrap().entries, 0);
    }

    #[test]
    fn boolean_queries_read_the_cache() {
        let g = random::uniform(90, 360, 4, 23);
        let engine = engine_for(&g, 3, 23);
        let q = patterns::random_cyclic(3, 6, 4, 23);
        let full = engine.query(&q).unwrap();
        let b = engine.query_boolean(&q).unwrap();
        assert_eq!(b.is_match, full.is_match);
        assert_eq!(b.metrics.cache_hits, 1);
        assert_eq!(b.metrics.control_messages, 0);
    }

    #[test]
    fn compressed_boolean_run_warms_the_cache() {
        let g = random::uniform(90, 360, 4, 29);
        let assign = hash_partition(g.node_count(), 3, 29);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
        let engine = SimEngine::builder(&g, frag)
            .compress(CompressionMethod::SimEq)
            .compression_threshold(1.0)
            .build();
        let q = patterns::random_cyclic(3, 6, 4, 29);
        // The compressed leg answers Boolean queries via the
        // data-selecting run, so the relation is cached...
        let b = engine.query_boolean(&q).unwrap();
        assert_eq!(b.metrics.cache_hits, 0);
        // ...and the follow-up data-selecting query is a hit.
        let warm = engine.query(&q).unwrap();
        assert_eq!(warm.metrics.cache_hits, 1);
        assert_eq!(warm.is_match, b.is_match);
    }

    #[test]
    fn clones_share_the_cache() {
        let g = random::uniform(70, 280, 4, 24);
        let engine = engine_for(&g, 3, 24);
        let q = patterns::random_cyclic(3, 6, 4, 24);
        engine.query(&q).unwrap();
        let clone = engine.clone();
        let warm = clone.query(&q).unwrap();
        assert_eq!(warm.metrics.cache_hits, 1);
    }

    #[test]
    fn compressed_leg_answers_exactly_and_is_explained() {
        let g = random::uniform(120, 480, 3, 25);
        let assign = hash_partition(g.node_count(), 3, 25);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
        let engine = SimEngine::builder(&g, Arc::clone(&frag))
            .compress(CompressionMethod::SimEq)
            .compression_threshold(1.0)
            .cache(false)
            .build();
        assert!(engine.compression_active());
        let plain = SimEngine::builder(&g, frag).cache(false).build();
        for seed in 0..4 {
            let q = patterns::random_cyclic(3, 6, 3, 250 + seed);
            let on_gc = engine.query(&q).unwrap();
            let on_g = plain.query(&q).unwrap();
            assert_eq!(on_gc.relation, on_g.relation, "seed {seed}");
            let note = on_gc
                .plan
                .compressed
                .as_ref()
                .expect("compressed leg noted");
            assert!(note.ratio <= 1.0);
            assert!(on_gc.plan.to_string().contains("Gc"));
        }
    }

    #[test]
    fn compression_threshold_gates_the_leg() {
        // A graph with almost no simulation-equivalent redundancy:
        // the ratio stays near 1, far above a strict threshold.
        let g = random::uniform(100, 400, 4, 26);
        let assign = hash_partition(g.node_count(), 3, 26);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
        let engine = SimEngine::builder(&g, frag)
            .compress(CompressionMethod::SimEq)
            .compression_threshold(0.01)
            .cache(false)
            .build();
        assert!(!engine.compression_active());
        assert!(engine.compression_note().is_some());
        let q = patterns::random_cyclic(3, 6, 4, 26);
        let r = engine.query(&q).unwrap();
        assert!(r.plan.compressed.is_none());
        assert!(r.plan.to_string().contains("exceeds"));
    }

    #[test]
    fn parallel_batch_matches_single_worker() {
        let g = random::uniform(120, 480, 4, 27);
        let assign = hash_partition(g.node_count(), 4, 27);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 4));
        let seq = SimEngine::builder(&g, Arc::clone(&frag))
            .batch_workers(1)
            .build();
        let par = SimEngine::builder(&g, frag).batch_workers(4).build();
        let mut qs: Vec<Pattern> = (0..8)
            .map(|i| patterns::random_cyclic(3, 6, 4, 270 + i))
            .collect();
        qs.push(dgs_graph::PatternBuilder::new().build()); // an Err entry
        let a = seq.query_batch(&qs);
        let b = par.query_batch(&qs);
        assert_eq!(a.succeeded(), b.succeeded());
        for (x, y) in a.reports.iter().zip(&b.reports) {
            match (x, y) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.relation, y.relation);
                    assert_eq!(x.algorithm, y.algorithm);
                    assert_eq!(x.plan.to_string(), y.plan.to_string());
                    assert_eq!(x.metrics.data_messages, y.metrics.data_messages);
                    assert_eq!(x.metrics.control_messages, y.metrics.control_messages);
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                _ => panic!("parallel and sequential batches disagree on success"),
            }
        }
        assert_eq!(a.total.data_messages, b.total.data_messages);
        assert_eq!(a.total.control_messages, b.total.control_messages);
        assert_eq!(a.total.cache_hits, b.total.cache_hits);
    }

    #[test]
    fn batch_serves_prewarmed_patterns_from_cache() {
        let g = random::uniform(100, 400, 4, 28);
        let engine = engine_for(&g, 3, 28);
        let q0 = patterns::random_cyclic(3, 6, 4, 280);
        let q1 = patterns::random_cyclic(3, 6, 4, 281);
        engine.query(&q0).unwrap(); // warm q0
        let batch = engine.query_batch(&[q0.clone(), q1.clone()]);
        assert_eq!(batch.succeeded(), 2);
        assert_eq!(batch.reports[0].as_ref().unwrap().metrics.cache_hits, 1);
        assert_eq!(batch.reports[1].as_ref().unwrap().metrics.cache_hits, 0);
        assert_eq!(batch.total.cache_hits, 1);
        // The hit contributes nothing; the total is q1's own run plus
        // one broadcast posting only the pattern that ran (|F| = 3
        // control messages carrying q1's bytes).
        let run = &batch.reports[1].as_ref().unwrap().metrics;
        let broadcast_bytes = (3 * (8 + 3 * q1.node_count() + 4 * q1.edge_count())) as u64;
        assert_eq!(batch.total.control_messages, run.control_messages + 3);
        assert_eq!(
            batch.total.control_bytes,
            run.control_bytes + broadcast_bytes
        );
        assert_eq!(batch.total.data_messages, run.data_messages);
    }

    #[test]
    fn delete_delta_maintains_cache_with_zero_reevaluations() {
        let g = random::uniform(120, 480, 4, 31);
        let assign = hash_partition(g.node_count(), 3, 31);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
        let engine = SimEngine::builder(&g, frag).build();
        let q = patterns::random_cyclic(3, 6, 4, 31);
        let cold = engine.query(&q).unwrap();
        assert_eq!(cold.metrics.cache_hits, 0);

        let deletions: Vec<(dgs_graph::NodeId, dgs_graph::NodeId)> = g.edges().take(15).collect();
        let report = engine
            .apply_delta(&GraphDelta::deletions(deletions.iter().copied()))
            .unwrap();
        assert_eq!(report.deleted, 15);
        assert_eq!(report.maintained_entries, 1);
        assert_eq!(report.invalidated_entries, 0);
        assert!(report.generation > 0);

        // The follow-up query is served from the maintained entry:
        // zero protocol work, with the incremental leg in the plan.
        let warm = engine.query(&q).unwrap();
        assert_eq!(warm.metrics.cache_hits, 1);
        assert_eq!(warm.metrics.data_messages, 0);
        assert_eq!(warm.metrics.control_messages, 0);
        let note = warm.plan.incremental.expect("incremental leg recorded");
        assert_eq!(note.deletions_absorbed, 15);
        assert_eq!(note.maintenance_runs, 1);
        assert!(warm.plan.to_string().contains("incremental"));

        // And the maintained answer is exact.
        let mut b = dgs_graph::GraphBuilder::new();
        for v in g.nodes() {
            b.add_node(g.label(v));
        }
        for (u, v) in g.edges() {
            if !deletions.contains(&(u, v)) {
                b.add_edge(u, v);
            }
        }
        let g2 = b.build();
        assert_eq!(warm.relation, hhk_simulation(&q, &g2).relation);
        assert_eq!(engine.graph().edge_count(), g2.edge_count());
    }

    #[test]
    fn insert_delta_maintains_even_the_empty_shortcircuit() {
        // A DAG graph: the cyclic pattern short-circuits to ∅ ...
        let g = dag::citation_like(80, 200, 4, 32);
        let assign = hash_partition(g.node_count(), 3, 32);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
        let engine = SimEngine::builder(&g, frag).build();
        let q = patterns::random_cyclic(3, 5, 4, 32);
        let cold = engine.query(&q).unwrap();
        assert_eq!(cold.algorithm, "trivial-∅");

        // ... until insertions close a cycle. The cached ∅ entry is
        // *maintained*, not invalidated: insertion-side refinement
        // resurrects whatever the back edges revive, and the facts
        // still recompute (the planner would no longer short-circuit a
        // fresh query).
        let mut back_edges = Vec::new();
        for v in g.nodes() {
            for &w in g.successors(v) {
                if !g.has_edge(w, v) && w != v {
                    back_edges.push((w, v));
                }
            }
        }
        back_edges.truncate(5);
        let report = engine
            .apply_delta(&GraphDelta::insertions(back_edges))
            .unwrap();
        assert_eq!(report.inserted, 5);
        assert_eq!(report.maintained_entries, 1);
        assert_eq!(report.invalidated_entries, 0);
        assert_eq!(report.maintained_diffs.len(), 1);
        assert!(!engine.facts().is_dag);

        let warm = engine.query(&q).unwrap();
        assert_eq!(warm.metrics.cache_hits, 1, "maintained entry hit");
        assert_eq!(warm.metrics.data_messages, 0);
        let note = warm.plan.incremental.expect("incremental leg recorded");
        assert_eq!(note.insertions_absorbed, 5);
        assert_eq!(note.deletions_absorbed, 0);
        assert_eq!(note.maintenance_runs, 1);
        assert_eq!(warm.relation, hhk_simulation(&q, &engine.graph()).relation);
        // The resurrected pairs reported in the diff are exactly the
        // relation's pairs (the entry started empty).
        let diff = &report.maintained_diffs[0];
        assert!(diff.revoked.is_empty());
        assert_eq!(
            diff.resurrected.len() as u64,
            report.resurrected_pairs,
            "single entry accounts for all resurrections"
        );
    }

    #[test]
    fn insert_delta_invalidates_empty_shortcircuit_with_sink_nodes() {
        use dgs_graph::Label;
        // A cyclic pattern with a childless sink: u0 ⇄ u1 plus
        // u0 → u2. On any graph the true fixpoint keeps u2's
        // label-compatible matches, so the `trivial-∅` entry's rows
        // are the answer convention, NOT the fixpoint — maintaining
        // them through a cycle-closing insertion would resurrect only
        // the affected area and leave the entry neither ∅ nor exact.
        let mut qb = dgs_graph::PatternBuilder::new();
        let u0 = qb.add_node(Label(0));
        let u1 = qb.add_node(Label(0));
        let u2 = qb.add_node(Label(0));
        qb.add_edge(u0, u1);
        qb.add_edge(u1, u0);
        qb.add_edge(u0, u2);
        let q = qb.build();
        assert!(!crate::plan::empty_rows_are_fixpoint(&q));

        // Acyclic path v0 → v1 → v2 plus two leaf nodes, all label 0.
        let mut b = dgs_graph::GraphBuilder::new();
        let vs: Vec<_> = (0..5).map(|_| b.add_node(Label(0))).collect();
        b.add_edge(vs[0], vs[1]);
        b.add_edge(vs[1], vs[2]);
        let g = b.build();
        let assign = hash_partition(g.node_count(), 2, 7);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 2));
        let engine = SimEngine::builder(&g, frag).build();
        let cold = engine.query(&q).unwrap();
        assert_eq!(cold.algorithm, "trivial-∅");

        // Deletion-only batches keep maintaining: the graph stays
        // acyclic, ∅ stays the answer, nothing can resurrect.
        let del = engine
            .apply_delta(&GraphDelta::deletions([(vs[1], vs[2])]))
            .unwrap();
        assert_eq!(del.maintained_entries, 1);
        assert_eq!(del.invalidated_entries, 0);
        let back = engine
            .apply_delta(&GraphDelta::insertions([(vs[1], vs[2])]))
            .unwrap();

        // An insertion batch drops the entry instead of repairing it
        // from the unsound ∅ baseline.
        assert_eq!(back.maintained_entries, 0);
        assert_eq!(back.invalidated_entries, 1);
        assert!(back.maintained_diffs.is_empty());

        // The follow-up query re-evaluates fresh (no stale cache
        // hit); the graph is still acyclic, so the planner
        // short-circuits again and the ∅ *convention* is the answer.
        let warm = engine.query(&q).unwrap();
        assert_eq!(warm.metrics.cache_hits, 0, "entry was dropped");
        assert_eq!(warm.algorithm, "trivial-∅");
        assert!(!warm.is_match);

        let closed = engine
            .apply_delta(&GraphDelta::insertions([(vs[2], vs[0])]))
            .unwrap();
        assert_eq!(closed.invalidated_entries, 1);
        assert!(!engine.facts().is_dag);
        let cyclic = engine.query(&q).unwrap();
        let oracle = hhk_simulation(&q, &engine.graph());
        assert_eq!(cyclic.relation, oracle.relation);
        // The cycle v0→v1→v2→v0 now carries u0/u1; u2 matches every
        // label-0 node, leaves included.
        assert_eq!(cyclic.relation.matches_of(u0), &vs[..3]);
        assert_eq!(cyclic.relation.matches_of(u2), &vs[..]);
    }

    #[test]
    fn delta_validation_and_noop_semantics() {
        let g = random::uniform(40, 160, 4, 33);
        let assign = hash_partition(g.node_count(), 2, 33);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 2));
        let engine = SimEngine::builder(&g, frag).build();

        // Out-of-range endpoint.
        let bad = GraphDelta::deletions([(dgs_graph::NodeId(0), dgs_graph::NodeId(999))]);
        assert!(matches!(
            engine.apply_delta(&bad),
            Err(DgsError::InvalidDelta { .. })
        ));
        // Same edge on both sides.
        let (u, v) = g.edges().next().unwrap();
        let both = GraphDelta {
            insert_edges: vec![(u, v)],
            delete_edges: vec![(u, v)],
        };
        assert!(matches!(
            engine.apply_delta(&both),
            Err(DgsError::InvalidDelta { .. })
        ));

        // Already-satisfied ops are skipped; re-applying a delta is a
        // no-op that keeps the generation (and the cache) valid.
        let gen0 = engine.generation();
        let delta = GraphDelta::deletions([(u, v)]);
        let first = engine.apply_delta(&delta).unwrap();
        assert_eq!(first.deleted, 1);
        assert_ne!(engine.generation(), gen0);
        let gen1 = engine.generation();
        let second = engine.apply_delta(&delta).unwrap();
        assert_eq!(second.deleted, 0);
        assert_eq!(second.ignored, 1);
        assert_eq!(engine.generation(), gen1);
    }

    #[test]
    fn cache_invalidate_all_moves_to_a_fresh_generation() {
        let g = random::uniform(80, 320, 4, 34);
        let engine = engine_for(&g, 3, 34);
        let q = patterns::random_cyclic(3, 6, 4, 34);
        engine.query(&q).unwrap();
        assert_eq!(engine.query(&q).unwrap().metrics.cache_hits, 1);
        let gen_before = engine.cache_stats().unwrap().generation;
        engine.cache_invalidate_all();
        let stats = engine.cache_stats().unwrap();
        assert!(stats.generation > gen_before);
        assert_eq!(stats.entries, 0);
        // Nothing cached survives: the re-query runs the protocol.
        assert_eq!(engine.query(&q).unwrap().metrics.cache_hits, 0);
    }

    #[test]
    fn clones_never_see_another_handles_generations() {
        let g = random::uniform(90, 360, 4, 35);
        let assign = hash_partition(g.node_count(), 3, 35);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
        let engine = SimEngine::builder(&g, frag).build();
        let clone = engine.clone();
        let q = patterns::random_cyclic(3, 6, 4, 35);
        engine.query(&q).unwrap();
        // Clone shares the cache and the generation, so it hits...
        assert_eq!(clone.query(&q).unwrap().metrics.cache_hits, 1);
        // ...until the original diverges by applying a delta.
        let dels: Vec<_> = g.edges().take(8).collect();
        engine.apply_delta(&GraphDelta::deletions(dels)).unwrap();
        // The clone still answers on *its* (unmutated) graph...
        let clone_hit = clone.query(&q).unwrap();
        assert_eq!(clone_hit.metrics.cache_hits, 1);
        assert_eq!(clone_hit.relation, hhk_simulation(&q, &g).relation);
        // ...and the mutated handle serves the maintained answer.
        let warm = engine.query(&q).unwrap();
        assert_eq!(warm.metrics.cache_hits, 1);
        assert_eq!(warm.relation, hhk_simulation(&q, &engine.graph()).relation);
    }

    #[test]
    fn compressed_leg_is_rebuilt_lazily_after_delta() {
        let g = random::uniform(100, 400, 3, 36);
        let assign = hash_partition(g.node_count(), 3, 36);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
        let engine = SimEngine::builder(&g, frag)
            .compress(CompressionMethod::SimEq)
            .compression_threshold(1.0)
            .cache(false)
            .build();
        assert!(engine.compression_active());
        let dels: Vec<_> = g.edges().take(20).collect();
        engine.apply_delta(&GraphDelta::deletions(dels)).unwrap();
        // The rebuilt leg answers exactly on the mutated graph.
        let q = patterns::random_cyclic(3, 6, 3, 36);
        let r = engine.query(&q).unwrap();
        assert!(r.plan.compressed.is_some());
        assert_eq!(r.relation, hhk_simulation(&q, &engine.graph()).relation);
    }

    #[test]
    fn plan_is_a_dry_run() {
        let g = tree::random_tree(80, 3, 11);
        let assign = tree_partition(&g, 3);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 3));
        let engine = SimEngine::builder(&g, frag).build();
        let q = patterns::path_pattern(2, &[dgs_graph::Label(0), dgs_graph::Label(1)]);
        let plan = engine.plan(&q).unwrap();
        assert_eq!(plan.algorithm, "dGPMt");
        assert!(plan.to_string().contains("auto"));
    }
}
