//! How a request is answered: probe → plan → run → charge → store,
//! each step written once and shared by the single-query, Boolean,
//! batch and dry-run entry points.

use super::snapshot::GenSnapshot;
use super::{Algorithm, BatchReport, BooleanReport, RunReport, SimEngine};
use crate::cache::{self, CachedResult, CanonicalPattern};
use crate::dgpm::{self, QueryMode};
use crate::error::DgsError;
use crate::plan::{EngineChoice, PatternFacts, PlanExplanation, Planner};
use crate::{baselines, dgpms, dgpmt};
use dgs_graph::Pattern;
use dgs_net::{
    CoordinatorLogic, ExecutorKind, RemoteSpec, RunMetrics, RunOutcome, SiteLogic, SocketMsg,
};
use dgs_partition::Fragmentation;
use dgs_sim::MatchRelation;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

impl SimEngine {
    /// Plans `q` without running it: which engine would serve it and
    /// why — the plan [`Self::query`] would run with, because it is the
    /// same call.
    pub fn plan(&self, q: &Pattern) -> Result<PlanExplanation, DgsError> {
        let (_, plan) = self.plan_for(&self.snapshot(), &Algorithm::Auto, q)?;
        Ok(plan)
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
            return Ok(Self::report_from_cache(&snap, q, canon, &cached));
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

    /// Runs a Boolean query (§2.1) with the planner-chosen engine: the
    /// query without its rows, cached like one.
    pub fn query_boolean(&self, q: &Pattern) -> Result<BooleanReport, DgsError> {
        self.query_boolean_with(&Algorithm::Auto, q)
    }

    /// Boolean query with an explicit engine.
    ///
    /// A Boolean query is [`Self::query_with`] without the rows —
    /// same cache probe, same run, same broadcast charge, and an
    /// [`Algorithm::Auto`] answer is stored, so a follow-up query of
    /// either kind is a hit. The one engine with a cheaper way to
    /// answer it is an explicit [`Algorithm::Dgpm`]: each site ships
    /// a flag instead of its matches, `O(|F|)` bytes of result traffic
    /// (§4.1) — and explicit engines bypass the cache, so there is
    /// no relation anybody waits for.
    pub fn query_boolean_with(
        &self,
        algorithm: &Algorithm,
        q: &Pattern,
    ) -> Result<BooleanReport, DgsError> {
        let Algorithm::Dgpm(cfg) = algorithm else {
            return self.query_with(algorithm, q).map(BooleanReport::from);
        };
        self.stats.add_queries(1);
        let snap = self.snapshot();
        let (engine, plan) = self.plan_for(&snap, algorithm, q)?;
        let intra = self.effective_workers(snap.frag.num_sites());
        let qa = Arc::new(q.clone());
        let (coord, sites) =
            dgpm::build_with_mode(&snap.frag, &qa, cfg.clone(), QueryMode::Boolean);
        let o = self.drive(&snap, engine.name(), intra, coord, sites)?;
        let is_match = o
            .coordinator
            .boolean
            .ok_or_else(|| DgsError::ExecutorFailed {
                algorithm: engine.name(),
                reason: "coordinator finished without a Boolean verdict".into(),
            })?;
        let mut metrics = o.metrics;
        Self::charge_broadcast(&mut metrics, &snap.frag, std::iter::once(q));
        Ok(BooleanReport {
            is_match,
            metrics,
            algorithm: engine.name(),
            plan,
            generation: snap.generation,
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
    /// [`batch_workers`](super::SimEngineBuilder::batch_workers) overrides it). Results are
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
                slots[i] = Some(Ok(Self::report_from_cache(&snap, q, canon, &cached)));
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
        BatchReport {
            reports,
            total,
            generation: snap.generation,
        }
    }

    /// The worker count resolved at build, never more than there is
    /// work.
    fn effective_workers(&self, work: usize) -> usize {
        self.batch_workers.min(work).max(1)
    }

    /// The planning stage, the only one that calls the planner: the
    /// engine that runs and why. An explicit request is checked
    /// against the snapshot's facts; an `Auto` one is planned on them.
    fn plan_for(
        &self,
        snap: &GenSnapshot,
        algorithm: &Algorithm,
        q: &Pattern,
    ) -> Result<(EngineChoice, PlanExplanation), DgsError> {
        let qf = PatternFacts::compute(q);
        match EngineChoice::requested_by(algorithm) {
            Some(requested) => Planner.plan_explicit(requested, &snap.facts(), &qf),
            None => Planner.plan(&snap.facts(), &qf),
        }
    }

    /// Plans and runs one query without the broadcast charge (the
    /// caller accounts it: per-query for [`Self::query_with`], once
    /// per batch for [`Self::query_batch_with`]).
    pub(super) fn run_one(
        &self,
        snap: &GenSnapshot,
        algorithm: &Algorithm,
        q: &Pattern,
        intra: usize,
    ) -> Result<RunReport, DgsError> {
        let (engine, plan) = self.plan_for(snap, algorithm, q)?;
        let qa = Arc::new(q.clone());
        let (relation, metrics) = self.run_resolved(snap, &engine, &qa, intra)?;
        Ok(RunReport::assemble(
            relation,
            metrics,
            engine.name(),
            plan,
            snap.generation,
        ))
    }

    /// Canonicalizes `q` and probes `snap`'s cache, counting the hit
    /// or miss. Returns `(None, None)` when caching does not apply
    /// (explicit engine, or cache off).
    pub(super) fn cache_lookup(
        &self,
        snap: &GenSnapshot,
        algorithm: &Algorithm,
        q: &Pattern,
    ) -> (Option<CanonicalPattern>, Option<Arc<CachedResult>>) {
        let (Algorithm::Auto, Some(cache)) = (algorithm, &snap.cache) else {
            return (None, None);
        };
        let canon = cache::canonicalize(q);
        let hit = cache.lock().get(&canon.key);
        match hit {
            Some(_) => self.stats.add_cache_hits(1),
            None => self.stats.add_cache_misses(1),
        }
        (Some(canon), hit)
    }

    /// Re-expresses a cached canonical answer in the submitted
    /// pattern's numbering. The hit ships nothing: fresh metrics with
    /// `cache_hits = 1` and zero messages. The cached rows were copied
    /// out of a [`MatchRelation`], so they are sorted and distinct
    /// already.
    fn report_from_cache(
        snap: &GenSnapshot,
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
            MatchRelation::from_sorted_lists(rows),
            RunMetrics {
                cache_hits: 1,
                ..RunMetrics::default()
            },
            cached.algorithm,
            plan,
            snap.generation,
        )
    }

    /// Stores a freshly computed answer in `snap`'s cache under its
    /// canonical key, rows permuted into canonical node order.
    pub(super) fn cache_store(
        &self,
        snap: &GenSnapshot,
        canon: CanonicalPattern,
        report: &RunReport,
    ) {
        let Some(cache) = &snap.cache else {
            return;
        };
        let rows: Vec<Vec<dgs_graph::NodeId>> = canon
            .node_at()
            .iter()
            .map(|&u| report.relation.matches_of(dgs_graph::QNodeId(u)).to_vec())
            .collect();
        let evicted = cache.lock().insert(
            canon.key,
            Arc::new(CachedResult {
                rows: Arc::new(rows),
                algorithm: report.algorithm,
                plan: report.plan.clone(),
            }),
        );
        self.stats.add_cache_evictions(evicted);
    }

    /// Runs one protocol on the snapshot's fragmentation under the
    /// session's executor, with typed errors. Socket sessions dispatch
    /// to the bootstrapped cluster — but only at the generation the
    /// cluster was last bootstrapped with: a snapshot a concurrent
    /// delta has already (or not yet) re-shipped must not run on the
    /// wrong worker graph, so it falls back to the in-process virtual
    /// executor.
    /// `intra` is the intra-query worker budget: the virtual
    /// executor's Phase-1 site evaluations fan out over up to that
    /// many threads ([`dgs_net::try_run`]); reports stay
    /// bit-identical to an `intra = 1` run. The threaded and socket
    /// executors are inherently per-site parallel and ignore it.
    fn drive<M, C, S>(
        &self,
        snap: &GenSnapshot,
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
        let dispatchable = self.cluster_gen.load(Ordering::SeqCst) == snap.generation;
        let (kind, cluster) = match (self.executor, &self.cluster) {
            (ExecutorKind::Socket, Some(cl)) if dispatchable => (ExecutorKind::Socket, Some(&**cl)),
            (ExecutorKind::Socket, _) => (ExecutorKind::Virtual, None),
            (kind, _) => (kind, None),
        };
        dgs_net::try_run(kind, &self.cost, cluster, intra, coordinator, sites)
            .map_err(|e| DgsError::from_exec(algorithm, e))
    }

    /// Runs a resolved engine on the snapshot's fragmentation and
    /// returns `(relation, metrics)`.
    fn run_resolved(
        &self,
        snap: &GenSnapshot,
        engine: &EngineChoice,
        q: &Arc<Pattern>,
        intra: usize,
    ) -> Result<(MatchRelation, RunMetrics), DgsError> {
        use EngineChoice::*;
        let frag = &snap.frag;
        // One shape per engine: build the actors, run them, take the
        // coordinator's answer.
        macro_rules! drive {
            ($build:expr) => {{
                let (coord, sites) = $build;
                let o = self.drive(snap, engine.name(), intra, coord, sites)?;
                let answer = o
                    .coordinator
                    .answer
                    .ok_or_else(|| DgsError::ExecutorFailed {
                        algorithm: engine.name(),
                        reason: "coordinator finished without an answer".into(),
                    })?;
                Ok((answer, o.metrics))
            }};
        }
        match engine {
            TriviallyEmpty => Ok((MatchRelation::empty(q.node_count()), RunMetrics::default())),
            Dgpm(cfg) => drive!(dgpm::build(frag, q, cfg.clone())),
            // One engine, two names: `dGPMd` is `dGPMs` on a DAG
            // pattern (the name carries Theorem 3's bound).
            Dgpmd | Dgpms => drive!(dgpms::build(frag, q)),
            Dgpmt => drive!(dgpmt::build(frag, q)),
            MatchCentral => drive!(baselines::match_central::build(frag, q)),
            DisHhk => drive!(baselines::dishhk::build(frag, q)),
            DMes => drive!(baselines::dmes::build(frag, q)),
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
