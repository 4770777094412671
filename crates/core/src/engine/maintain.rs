//! How a generation is replaced: [`SimEngine::apply_delta`] and
//! [`SimEngine::cache_invalidate_all`], and what a session carries
//! from one batch to the next.

use super::snapshot::GenSnapshot;
use super::SimEngine;
use crate::cache::{self, CachedResult};
use crate::delta::{self, DeltaReport, DeltaSiteState, GraphDelta};
use crate::error::DgsError;
use crate::plan::IncrementalNote;
use dgs_graph::Pattern;
use dgs_net::{ExecutorKind, RunMetrics, SiteDeltaMetrics};
use dgs_partition::{EdgeOp, Fragmentation, SpanLists};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

/// Persistent maintenance state of one cached entry: the per-site
/// `lEval` states, the pattern (decoded once, shared by the sites of
/// every run) and the cumulative incremental-leg accounting.
#[derive(Debug)]
struct MaintainedStates {
    pattern: Arc<Pattern>,
    sites: Vec<DeltaSiteState>,
    note: IncrementalNote,
}

/// What [`SimEngine::apply_delta`] carries from one batch to the next
/// under the writer lock; readers see none of it.
#[derive(Debug, Default)]
pub(super) struct WriterState {
    /// Maintenance states of the delta-maintained cache entries, keyed
    /// by canonical pattern encoding (without the generation prefix —
    /// the map itself is always current).
    entries: HashMap<Vec<u32>, MaintainedStates>,
    /// The last retired generation's fragmentation, if the swap found
    /// nobody else holding it, and the ops of the batch that retired
    /// it: replayed, they bring it to the current generation, the
    /// start of the next.
    spare: Option<(Fragmentation, Vec<EdgeOp>)>,
    /// The session's one reverse adjacency per site, equal to the
    /// current snapshot's whenever it is `Some`: each batch's one
    /// maintenance run edits it in place for every entry
    /// ([`delta::build_maintenance`]), and the batch then compacts it
    /// by `SpanLists::compact`'s rule, so it stays at most twice its
    /// items however long the churn.
    pred: Option<Vec<SpanLists<u32>>>,
}

impl SimEngine {
    /// Drops every pattern-result cache entry of the current
    /// generation and moves the session to the next generation, so
    /// nothing computed before this call can be served from the cache
    /// again.
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
            generation: snap.generation + 1,
            frag: Arc::clone(&snap.frag),
            graph: snap.graph.clone(),
            facts: snap.facts.clone(),
        };
        *self.snap.lock() = Arc::new(next);
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
    ///   fresh generation with [`PlanExplanation::incremental`](crate::PlanExplanation::incremental)
    ///   recording the leg. A follow-up query is a cache hit: zero
    ///   full re-evaluations. Promotion runs `lEval` on each pre-delta
    ///   fragment with the virtual pairs the cached rows exclude
    ///   pinned false; each site keeps the state it leaves
    ///   ([`delta::DeltaSiteState`]) from batch to batch.
    ///   - *Deletions* shrink the relation: each site runs `lEval`'s
    ///     cascade on that state and ships in-node falsifications to
    ///     its subscribers exactly like dGPM data messages, and the
    ///     revoked pairs leave the stored rows. A deletion-only batch
    ///     runs just this phase.
    ///   - *Insertions* grow it: the sites mark the affected area
    ///     `AFF` — the label-compatible, currently *false* pairs that
    ///     are backward-reachable, through pairs of the same kind,
    ///     from the source of an inserted edge — flip exactly those
    ///     pairs to true, recount them, and refine downward from the
    ///     ones that lack support, with everything outside `AFF`
    ///     frozen; survivors rejoin the stored rows. Cost follows `|AFF|`
    ///     ([`SiteDeltaMetrics::affected_pairs`]), not the graph. An
    ///     insertion-only batch passes through an empty deletion
    ///     phase; a mixed batch composes both (deletions first, on the
    ///     pre-insertion adjacency).
    ///
    /// The exact per-entry diffs land in
    /// [`DeltaReport::maintained_diffs`] — the feed a live match
    /// subscription pushes. Every entry maintains: the planner only
    /// short-circuits to `trivial-∅` where `∅` is the maximum
    /// relation, so no cached row is an answer convention.
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
    /// Concurrent writers on the session serialize against each
    /// other, so each publishes the generation after its predecessor's.
    /// Its fragmentation is the generation the last swap retired
    /// (**recycled**), brought forward by replaying the batch that
    /// retired it and then taking this one, when nobody else — a
    /// reader, a caller of [`Self::fragmentation`], the `Arc` passed to
    /// [`Self::builder`] — still held that; a batch then costs its own
    /// change and the one before, not `|G|`. When somebody did, the
    /// current fragmentation is cloned afresh
    /// ([`EngineStats::generations_copied`](super::EngineStats::generations_copied)).
    /// The graph mirror is derived lazily from it.
    /// Every maintained entry is kept in **one** maintenance run per
    /// batch — 4 quiescence rounds, 2 without insertions, whatever the
    /// number of entries — over the session's one reverse adjacency
    /// per site, which the run edits once per edge and nothing rewinds.
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
        // per-site states by running `lEval` on the *pre-delta*
        // fragments with the cached rows pinned.
        let mut promoted: Vec<(Vec<u32>, Arc<CachedResult>)> = Vec::new();
        if let Some(cache) = &self.cache {
            let entries = cache.lock().entries_with_prefix(&old_prefix);
            let live: HashSet<&[u32]> = entries.iter().map(|(k, _)| &k[2..]).collect();
            // States whose entry the LRU evicted have no rows left
            // to maintain.
            writer.entries.retain(|k, _| live.contains(k.as_slice()));
            // Only `Auto` answers are cached, and the planner answers
            // every one with the maximum relation: each entry is a
            // valid baseline for either direction of repair.
            for (key, entry) in entries {
                let canon_key = key[2..].to_vec();
                if !writer.entries.contains_key(&canon_key) {
                    let pattern = Arc::new(cache::decode_pattern(&canon_key));
                    let sites = (0..snap.frag.num_sites())
                        .map(|s| DeltaSiteState::promote(&snap.frag, s, &pattern, &entry.rows))
                        .collect();
                    writer.entries.insert(
                        canon_key.clone(),
                        MaintainedStates {
                            pattern,
                            sites,
                            note: IncrementalNote::default(),
                        },
                    );
                }
                promoted.push((canon_key, entry));
            }
        }

        // Build the **next generation** entirely off the read path: the
        // fragmentation with the ops applied — no graph mirror and no
        // facts (both rebuilt lazily: a delete-heavy stream served from
        // maintained entries never pays their `O(|G|)`). It is the
        // spare brought to the current generation by the batch it missed
        // or, without one — the first batches, a retired generation
        // somebody held, a failed batch that took it — a clone of the
        // current one; either way compacted in place as a clone would
        // be.
        let ops: Vec<EdgeOp> = inserts
            .iter()
            .map(|&(u, v)| EdgeOp::Insert(u, v))
            .chain(deletes.iter().map(|&(u, v)| EdgeOp::Delete(u, v)))
            .collect();
        let mut next_frag = match writer.spare.take() {
            Some((mut spare, behind)) => {
                spare.apply_delta(&behind);
                spare
            }
            None => {
                self.stats.add_generations_copied(1);
                Fragmentation::clone(&snap.frag)
            }
        };
        let frag_stats = next_frag.apply_delta(&ops);
        next_frag.compact();
        let next_frag = Arc::new(next_frag);
        report.crossing_inserted = frag_stats.crossing_inserts;
        report.crossing_deleted = frag_stats.crossing_deletes;
        report.virtuals_created = frag_stats.virtuals_created;
        report.virtuals_retired = frag_stats.virtuals_retired;
        // The writer lock makes `snap` the newest generation: the next
        // one is simply its successor.
        let generation = snap.generation + 1;
        report.generation = generation;
        let next = Arc::new(GenSnapshot {
            generation,
            frag: Arc::clone(&next_frag),
            graph: OnceLock::new(),
            facts: OnceLock::new(),
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

        // Distributed incremental maintenance of every cached entry in
        // one run: revoking the falsified pairs from the stored rows and
        // re-inserting the resurrected ones keeps every entry exact,
        // whatever the batch shape. The run starts from the session's
        // one reverse adjacency, pre-delta, and leaves it post-delta,
        // where the next batch needs it — unless this batch maintains
        // nothing and moves the graph without it.
        if promoted.is_empty() {
            writer.pred = None;
        } else {
            let pred = writer.pred.take();
            let pred = pred.unwrap_or_else(|| snap.frag.reverse_adjacency());
            let entries = (promoted.iter())
                .map(|(canon_key, _)| {
                    let states = writer.entries.get_mut(canon_key).expect("promoted above");
                    (
                        Arc::clone(&states.pattern),
                        std::mem::take(&mut states.sites),
                    )
                })
                .collect();
            let (coord, sites) =
                delta::build_maintenance(&next_frag, entries, pred, &deletes, &inserts);
            // Maintenance stays in-process even on socket sessions:
            // the per-site counter states must come back into the
            // session, and remote state does not.
            let kind = match self.executor {
                ExecutorKind::Socket => ExecutorKind::Virtual,
                k => k,
            };
            let o = dgs_net::run(kind, &self.cost, coord, sites);
            report.metrics = o.metrics;
            let (mut pred, mut by_entry) = (Vec::new(), vec![Vec::new(); promoted.len()]);
            for site in o.sites {
                report.per_site[site.stats().site].merge(site.stats());
                let (states, mut lists) = site.into_parts();
                for (sites, st) in by_entry.iter_mut().zip(states) {
                    sites.push(st);
                }
                lists.compact();
                pred.push(lists);
            }
            writer.pred = Some(pred);
            let diffs = o
                .coordinator
                .revoked
                .into_iter()
                .zip(o.coordinator.resurrected);
            let results = by_entry.into_iter().zip(diffs);
            for ((canon_key, entry), (sites, (revoked, resurrected))) in
                promoted.into_iter().zip(results)
            {
                // An entry the batch left alone shares its rows with the
                // generation before.
                let mut rows = Arc::clone(&entry.rows);
                if !revoked.is_empty() || !resurrected.is_empty() {
                    let rows = Arc::make_mut(&mut rows);
                    for var in &revoked {
                        let row = &mut rows[var.q as usize];
                        if let Ok(pos) = row.binary_search(&var.node_id()) {
                            row.remove(pos);
                        }
                    }
                    for var in &resurrected {
                        let row = &mut rows[var.q as usize];
                        if let Err(pos) = row.binary_search(&var.node_id()) {
                            row.insert(pos, var.node_id());
                        }
                    }
                }
                report.revoked_pairs += revoked.len() as u64;
                report.resurrected_pairs += resurrected.len() as u64;
                let states = writer.entries.get_mut(&canon_key).expect("promoted above");
                states.sites = sites;
                let note = &mut states.note;
                note.deletions_absorbed += deletes.len() as u64;
                note.insertions_absorbed += inserts.len() as u64;
                note.maintenance_runs += 1;
                let mut plan = entry.plan.clone();
                if plan.incremental.is_none() {
                    plan.reasons.push(
                        "maintained under edge updates by the distributed incremental \
                         update (no full re-evaluation)"
                            .into(),
                    );
                }
                plan.incremental = Some(*note);
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
                report.maintained_diffs.push(delta::MaintainedDiff {
                    canon_key,
                    revoked,
                    resurrected,
                });
                report.maintained_entries += 1;
            }
        }

        // Publish: a single pointer swap makes the next generation the
        // one every subsequent query loads. The one it retires, with
        // this batch's ops, starts the next batch if nobody else holds
        // it.
        let retired = std::mem::replace(&mut *self.snap.lock(), next);
        drop(snap);
        let retired = Arc::into_inner(retired).and_then(|snap| Arc::into_inner(snap.frag));
        writer.spare = retired.map(|frag| (frag, ops));
        self.stats.add_deltas(1);
        Ok(report)
    }
}
