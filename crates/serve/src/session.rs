//! Named sessions.
//!
//! A daemon hosts a set of named [`SimEngine`] sessions behind a
//! [`SessionManager`]. Each connection is routed to exactly one of
//! them (at first [`DEFAULT_SESSION`]); `SESSION_ROUTE` points it at
//! another. Sessions only isolate graphs from one another: each is a
//! whole graph `G`, distributed over its own sites, and an answer is
//! always one session's maximum simulation at one of its generations.
//! The manager itself is a plain name → `Arc<SimEngine>` map behind a
//! mutex held only for lookups and swaps — never across a query or a
//! delta. The engines are snapshot-isolated internally, so handing
//! out `Arc` clones is all the concurrency control the serve path
//! needs: queries run against whatever generation snapshot is
//! published, writers build the next generation off the read path.

use crate::flags::{num, Flags};
use crate::proto::{SessionInfo, SessionOptions, WirePartitioner};
use dgs_core::{SimEngine, SimEngineBuilder};
use dgs_graph::Graph;
use dgs_partition::{bfs_partition, hash_partition, ldg_partition, tree_partition, Fragmentation};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The session every connection starts routed to.
pub const DEFAULT_SESSION: &str = "default";

/// The one session recipe: `dgsd` and `dgsq` read the options off
/// their flags, `SESSION_CREATE` off the wire, and all of them build
/// the session the same way.
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

    /// Every hosted session, sorted by name.
    pub fn list(&self) -> Vec<(String, Arc<SimEngine>)> {
        self.sessions
            .lock()
            .iter()
            .map(|(n, e)| (n.clone(), Arc::clone(e)))
            .collect()
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
