//! Named sessions and shard routing.
//!
//! A daemon hosts a set of named [`SimEngine`] sessions behind a
//! [`SessionManager`]. Each connection carries a [`Route`] (default:
//! the `"default"` session); `SESSION_ROUTE` points it at another
//! session or fans queries out across several. The manager itself is
//! a plain name → `Arc<SimEngine>` map behind a mutex held only for
//! lookups and swaps — never across a query or a delta. The engines
//! are snapshot-isolated internally, so handing out `Arc` clones is
//! all the concurrency control the serve path needs: queries run
//! against whatever generation snapshot is published, writers build
//! the next generation off the read path.
//!
//! ## Fan-out semantics
//!
//! A fan-out route treats its sessions as **shards of one logical
//! graph** (disjoint node-id spaces or not — the merge is a plain
//! union). Graph simulation is preserved under disjoint union: the
//! maximum simulation of `Q` in `G₁ ⊎ G₂` is exactly the union of the
//! per-component maximum simulations, so merging per-shard relations
//! row-wise (sorted union per query node) reproduces the whole-graph
//! answer — provided each shard reports its maximum simulation, which
//! every `Auto` answer is. An explicit `dGPMd`/`dGPMt` request for a
//! cyclic pattern answers an acyclic shard with the `∅` convention
//! instead, so its union keeps only the other shards' matches.
//! `is_match` is recomputed from the *merged* rows — a query
//! node matchless on every shard is matchless overall — which is why
//! Boolean fan-out queries run data-selecting per shard first: OR-ing
//! per-shard `is_match` flags would wrongly claim a match that no
//! single shard (and no union) supports per query node. Metrics are
//! summed; the answer is labelled `fanout(k)` over the shard count.

use crate::flags::{num, Flags};
use crate::proto::{Answer, SessionInfo, SessionOptions, WireMetrics, WirePartitioner};
use dgs_core::{SimEngine, SimEngineBuilder};
use dgs_graph::Graph;
use dgs_partition::{bfs_partition, hash_partition, ldg_partition, tree_partition, Fragmentation};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The session every connection starts routed to.
pub const DEFAULT_SESSION: &str = "default";

/// Where a connection's requests go.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// All requests hit this one session (admin frames included).
    Single(String),
    /// Queries fan out across these sessions; admin/write frames are
    /// refused (they need a single target).
    Many(Vec<String>),
    /// Queries fan out across every hosted session, resolved at
    /// request time.
    All,
}

impl Default for Route {
    fn default() -> Self {
        Route::Single(DEFAULT_SESSION.to_owned())
    }
}

impl Route {
    /// The wire form (`SESSION_ROUTE`'s name list) of this route.
    pub fn of_names(names: Vec<String>) -> Route {
        match names.len() {
            0 => Route::All,
            1 => Route::Single(names.into_iter().next().unwrap()),
            _ => Route::Many(names),
        }
    }
}

/// The one session recipe: `dgsd` and `dgsq` read the options off
/// their flags, `LOAD_GRAPH`/`SESSION_CREATE` off the wire, and all of
/// them build the session the same way.
impl SessionOptions {
    /// The options spelled by `--sites K --partition hash|bfs|ldg|tree
    /// --seed S --cache N` (keys without the dashes); an absent flag
    /// keeps its default.
    pub fn from_flags(flags: &Flags) -> Result<SessionOptions, String> {
        let default = SessionOptions::default();
        Ok(SessionOptions {
            sites: num(flags, "sites", default.sites)?,
            partitioner: match flags.get("partition") {
                None => default.partitioner,
                Some(name) => WirePartitioner::parse(name)
                    .ok_or_else(|| format!("unknown partitioner '{name}'"))?,
            },
            seed: num(flags, "seed", default.seed)?,
            cache_capacity: num(flags, "cache", default.cache_capacity)?,
        })
    }

    /// Partitions `graph`, fragments it and returns the builder of a
    /// session over it with these options applied — or the reason the
    /// request cannot be served: no site or no node. The caller adds
    /// what only it knows (an executor, a socket cluster) and builds.
    pub fn engine_builder<'g>(&self, graph: &'g Graph) -> Result<SimEngineBuilder<'g>, String> {
        let (n, k) = (graph.node_count(), usize::from(self.sites));
        if k == 0 {
            return Err("sites must be >= 1".into());
        }
        if n == 0 {
            return Err("graph has no nodes".into());
        }
        let assignment = match self.partitioner {
            WirePartitioner::Hash => hash_partition(n, k, self.seed),
            WirePartitioner::Bfs => bfs_partition(graph, k, self.seed),
            WirePartitioner::Ldg => ldg_partition(graph, k, 0.1, self.seed),
            WirePartitioner::Tree => tree_partition(graph, k),
        };
        let frag = Arc::new(Fragmentation::build(graph, &assignment, k));
        Ok(SimEngine::builder(graph, frag).cache_capacity(self.cache_capacity as usize))
    }
}

/// The named-session registry one daemon serves.
pub struct SessionManager {
    sessions: Mutex<BTreeMap<String, Arc<SimEngine>>>,
}

impl SessionManager {
    /// A manager hosting `engine` as the `"default"` session.
    pub fn new(engine: SimEngine) -> SessionManager {
        let mut map = BTreeMap::new();
        map.insert(DEFAULT_SESSION.to_owned(), Arc::new(engine));
        SessionManager {
            sessions: Mutex::new(map),
        }
    }

    /// The named session, if hosted.
    pub fn get(&self, name: &str) -> Option<Arc<SimEngine>> {
        self.sessions.lock().get(name).cloned()
    }

    /// Hosts (or replaces) `name`. The engine is built by the caller
    /// off the lock; only the map swap happens under it.
    pub fn insert(&self, name: &str, engine: SimEngine) -> Arc<SimEngine> {
        let engine = Arc::new(engine);
        self.sessions
            .lock()
            .insert(name.to_owned(), Arc::clone(&engine));
        engine
    }

    /// Drops `name`; `false` when it was not hosted. In-flight
    /// queries holding the `Arc` finish against their snapshot.
    pub fn remove(&self, name: &str) -> bool {
        self.sessions.lock().remove(name).is_some()
    }

    /// Number of hosted sessions.
    pub fn len(&self) -> usize {
        self.sessions.lock().len()
    }

    /// True when no session is hosted (every one was dropped).
    pub fn is_empty(&self) -> bool {
        self.sessions.lock().is_empty()
    }

    /// Every hosted session, sorted by name.
    pub fn list(&self) -> Vec<(String, Arc<SimEngine>)> {
        self.sessions
            .lock()
            .iter()
            .map(|(n, e)| (n.clone(), Arc::clone(e)))
            .collect()
    }

    /// The engines a route resolves to right now, sorted by name.
    /// `Err` names the first missing session.
    pub fn resolve(&self, route: &Route) -> Result<Vec<(String, Arc<SimEngine>)>, String> {
        match route {
            Route::Single(name) => match self.get(name) {
                Some(e) => Ok(vec![(name.clone(), e)]),
                None => Err(name.clone()),
            },
            Route::Many(names) => {
                let map = self.sessions.lock();
                let mut out = Vec::with_capacity(names.len());
                for name in names {
                    match map.get(name) {
                        Some(e) => out.push((name.clone(), Arc::clone(e))),
                        None => return Err(name.clone()),
                    }
                }
                Ok(out)
            }
            Route::All => Ok(self.list()),
        }
    }

    /// The `SESSION_LIST` summary of every hosted session.
    pub fn infos(&self) -> Vec<SessionInfo> {
        self.list()
            .into_iter()
            .map(|(name, engine)| session_info(&name, &engine))
            .collect()
    }
}

/// The wire summary of one session.
pub fn session_info(name: &str, engine: &SimEngine) -> SessionInfo {
    let g = engine.graph();
    SessionInfo {
        name: name.to_owned(),
        nodes: g.node_count() as u64,
        edges: g.edge_count() as u64,
        sites: engine.fragmentation().num_sites() as u16,
        generation: engine.generation(),
    }
}

/// Merges per-shard answers of **one** query into the disjoint-union
/// answer: per-query-node sorted union of the shard rows, `is_match`
/// recomputed from the merged rows, metrics summed.
pub fn merge_answers(parts: &[Answer]) -> Answer {
    let nq = parts.iter().map(|a| a.rows.len()).max().unwrap_or(0);
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); nq];
    let mut metrics = WireMetrics::default();
    for part in parts {
        for (u, row) in part.rows.iter().enumerate() {
            rows[u].extend_from_slice(row);
        }
        merge_metrics(&mut metrics, &part.metrics);
    }
    for row in &mut rows {
        row.sort_unstable();
        row.dedup();
    }
    let is_match = nq > 0 && rows.iter().all(|r| !r.is_empty());
    Answer {
        rows,
        is_match,
        algorithm: format!("fanout({})", parts.len()),
        plan: format!(
            "fan-out over {} session(s): per-shard {}, rows merged as sorted unions",
            parts.len(),
            parts.first().map(|a| a.algorithm.as_str()).unwrap_or("-")
        ),
        metrics,
    }
}

/// Field-wise sum (the wire metrics have no per-site vectors, so a
/// plain add is exact).
pub(crate) fn merge_metrics(total: &mut WireMetrics, part: &WireMetrics) {
    total.data_bytes += part.data_bytes;
    total.data_messages += part.data_messages;
    total.control_bytes += part.control_bytes;
    total.control_messages += part.control_messages;
    total.result_bytes += part.result_bytes;
    total.result_messages += part.result_messages;
    total.total_ops += part.total_ops;
    total.virtual_time_ns += part.virtual_time_ns;
    total.quiescence_rounds += part.quiescence_rounds;
    total.cache_hits += part.cache_hits;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(rows: Vec<Vec<u32>>, is_match: bool) -> Answer {
        Answer {
            rows,
            is_match,
            algorithm: "dGPM".into(),
            plan: "p".into(),
            metrics: WireMetrics {
                data_bytes: 10,
                total_ops: 3,
                ..WireMetrics::default()
            },
        }
    }

    #[test]
    fn merge_unions_rows_and_recomputes_is_match() {
        let a = answer(vec![vec![1, 5], vec![]], false);
        let b = answer(vec![vec![5, 9], vec![2]], true);
        let m = merge_answers(&[a, b]);
        assert_eq!(m.rows, vec![vec![1, 5, 9], vec![2]]);
        assert!(m.is_match, "union is total even though one shard isn't");
        assert_eq!(m.metrics.data_bytes, 20);
        assert_eq!(m.metrics.total_ops, 6);
        assert!(m.algorithm.starts_with("fanout(2)"));
    }

    #[test]
    fn merge_stays_matchless_when_a_row_is_empty_everywhere() {
        let a = answer(vec![vec![1], vec![]], false);
        let b = answer(vec![vec![2], vec![]], false);
        let m = merge_answers(&[a, b]);
        assert!(!m.is_match);
        assert_eq!(m.rows[1], Vec::<u32>::new());
    }

    #[test]
    fn route_of_names() {
        assert_eq!(Route::of_names(vec![]), Route::All);
        assert_eq!(Route::of_names(vec!["a".into()]), Route::Single("a".into()));
        assert_eq!(
            Route::of_names(vec!["a".into(), "b".into()]),
            Route::Many(vec!["a".into(), "b".into()])
        );
    }
}
