//! The message layer: typed requests and responses over
//! [`crate::wire`] frames.
//!
//! The protocol carries the whole `SimEngine` session surface:
//! `QUERY`/`QUERY_BATCH` (answers ship the match relation, the plan
//! explanation and the run metrics), `APPLY_DELTA`, `CACHE_STATS`,
//! `COMPRESSION_INFO`, `GRAPH_INFO`, `LOAD_GRAPH` (session
//! replacement), the `SESSION_*` frames (named-session hosting,
//! per-connection routing and query fan-out) and the `SHUTDOWN`
//! admin frame. Graphs and patterns
//! reuse the binary encoding of `dgs_graph::io` verbatim, so a file
//! written by `dgsq convert` is byte-for-byte what `LOAD_GRAPH`
//! ships.
//!
//! This module holds the message types; `codec.rs` states their
//! payload layouts.

mod codec;

pub use codec::frame;

use crate::error::ErrorCode;
use dgs_core::{
    Algorithm, BooleanReport, CacheStats, CompressionMethod, DeltaReport, RunReport, SimEngine,
};
use dgs_graph::{Graph, NodeId, Pattern, QNodeId};
use dgs_net::{MetricsSnapshot, RunMetrics};
use dgs_sim::MatchRelation;

/// Magic the handshake frames carry ("DGSW": dgs wire).
pub const WIRE_MAGIC: [u8; 4] = *b"DGSW";
/// The one protocol version this build speaks. Every post-handshake
/// payload is prefixed with a varint **request id** echoed in the
/// matching response, so one connection can pipeline requests and take
/// responses out of order; the server-pushed `MATCH_DIFF`/`SUB_EVENT`
/// frames of live match subscriptions travel under the reserved
/// request id 0 and interleave with pipelined responses on the same
/// connection. The handshake still negotiates: a client offering more
/// is welcomed at this version, one offering less (the retired v1–v3)
/// gets a typed `Unsupported` error naming it, then the close.
pub const WIRE_VERSION: u8 = 4;

/// The engine selector as it travels on the wire (the names the CLI
/// exposes; `DgpmConfig` details stay server-side defaults).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireAlgorithm {
    Auto,
    Dgpm,
    DgpmNopt,
    Dgpms,
    Dgpmd,
    Dgpmt,
    MatchCentral,
    DisHhk,
    DMes,
}

impl WireAlgorithm {
    /// Parses the CLI spelling (`auto`, `dgpm`, `dgpm-nopt`, ...).
    pub fn parse(s: &str) -> Option<WireAlgorithm> {
        Some(match s {
            "auto" => WireAlgorithm::Auto,
            "dgpm" => WireAlgorithm::Dgpm,
            "dgpm-nopt" => WireAlgorithm::DgpmNopt,
            "dgpms" => WireAlgorithm::Dgpms,
            "dgpmd" => WireAlgorithm::Dgpmd,
            "dgpmt" => WireAlgorithm::Dgpmt,
            "match" => WireAlgorithm::MatchCentral,
            "dishhk" => WireAlgorithm::DisHhk,
            "dmes" => WireAlgorithm::DMes,
            _ => return None,
        })
    }

    /// The engine the server runs for this selector.
    pub fn to_algorithm(self) -> Algorithm {
        match self {
            WireAlgorithm::Auto => Algorithm::Auto,
            WireAlgorithm::Dgpm => Algorithm::dgpm(),
            WireAlgorithm::DgpmNopt => Algorithm::dgpm_nopt(),
            WireAlgorithm::Dgpms => Algorithm::Dgpms,
            WireAlgorithm::Dgpmd => Algorithm::Dgpmd,
            WireAlgorithm::Dgpmt => Algorithm::Dgpmt,
            WireAlgorithm::MatchCentral => Algorithm::MatchCentral,
            WireAlgorithm::DisHhk => Algorithm::DisHhk,
            WireAlgorithm::DMes => Algorithm::DMes,
        }
    }
}

/// Partitioner selector for `LOAD_GRAPH`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WirePartitioner {
    Hash,
    Bfs,
    Ldg,
    Tree,
}

impl WirePartitioner {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<WirePartitioner> {
        Some(match s {
            "hash" => WirePartitioner::Hash,
            "bfs" => WirePartitioner::Bfs,
            "ldg" => WirePartitioner::Ldg,
            "tree" => WirePartitioner::Tree,
            _ => return None,
        })
    }
}

/// Session knobs shipped with `LOAD_GRAPH` (mirrors the
/// `SimEngineBuilder` surface the daemon exposes).
#[derive(Clone, Debug, PartialEq)]
pub struct SessionOptions {
    /// Number of sites to fragment over.
    pub sites: u16,
    /// Which partitioner assigns nodes to sites.
    pub partitioner: WirePartitioner,
    /// Partitioner seed.
    pub seed: u64,
    /// Pattern-result cache capacity (`0` disables).
    pub cache_capacity: u32,
    /// Compression method for the session's `Gc` leg, if any.
    pub compression: Option<CompressionMethod>,
    /// Ratio threshold below which `Auto` answers on `Gc`.
    pub compression_threshold: f64,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            sites: 4,
            partitioner: WirePartitioner::Hash,
            seed: 1,
            cache_capacity: 128,
            compression: None,
            compression_threshold: 0.5,
        }
    }
}

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Ask about the loaded graph and fragmentation.
    GraphInfo,
    /// One query against the session.
    Query {
        /// The pattern.
        pattern: Pattern,
        /// Which engine (checked server-side, as in-process).
        algorithm: WireAlgorithm,
        /// Boolean query: only `is_match` comes back, no relation.
        boolean: bool,
    },
    /// A batch of queries, amortizing the query broadcast.
    QueryBatch {
        /// The patterns, answered in input order.
        patterns: Vec<Pattern>,
        /// Which engine.
        algorithm: WireAlgorithm,
    },
    /// Absorb a batch of edge updates into the session.
    ApplyDelta {
        /// Edges to insert.
        insert_edges: Vec<(u32, u32)>,
        /// Edges to delete.
        delete_edges: Vec<(u32, u32)>,
    },
    /// Counters of the pattern-result cache.
    CacheStats,
    /// The session's compressed-leg summary.
    CompressionInfo,
    /// Replace the routed session with a freshly built one (admin).
    LoadGraph {
        /// The new data graph.
        graph: Graph,
        /// Session build options.
        options: SessionOptions,
    },
    /// Stop the daemon (admin).
    Shutdown,
    /// Create (or replace) a named session built from a shipped graph.
    SessionCreate {
        /// The session name (routing key).
        name: String,
        /// The session's data graph.
        graph: Graph,
        /// Session build options.
        options: SessionOptions,
    },
    /// List the hosted sessions.
    SessionList,
    /// Drop a named session.
    SessionDrop {
        /// The session to drop.
        name: String,
    },
    /// Point this connection's subsequent requests at `sessions`:
    /// one name routes to that session; several fan queries out
    /// across them; an **empty** list fans out across every session
    /// the server hosts at query time.
    SessionRoute {
        /// Target sessions (empty = all, resolved per request).
        sessions: Vec<String>,
    },
    /// Register a live match subscription on the routed session
    /// (needs a single-session route). The response carries
    /// the initial snapshot; the server then pushes `MATCH_DIFF`
    /// frames as deltas apply.
    Subscribe {
        /// The pattern to watch.
        pattern: Pattern,
        /// Which engine answers the snapshot (and any maintenance
        /// fallback re-query).
        algorithm: WireAlgorithm,
    },
    /// Tear down a subscription this connection registered.
    Unsubscribe {
        /// The id `SUBSCRIBED` returned.
        sub_id: u64,
    },
    /// Fetch a point-in-time snapshot of the server's metrics
    /// registry.
    Metrics,
    /// Dump the server's slow-query trace ring, newest first.
    Trace,
}

/// Metric counters shipped back with every answer — the wire subset
/// of [`RunMetrics`] (per-site breakdowns stay server-side).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireMetrics {
    pub data_bytes: u64,
    pub data_messages: u64,
    pub control_bytes: u64,
    pub control_messages: u64,
    pub result_bytes: u64,
    pub result_messages: u64,
    pub total_ops: u64,
    pub virtual_time_ns: u64,
    pub quiescence_rounds: u64,
    pub cache_hits: u64,
}

impl WireMetrics {
    /// The wire subset of a run's metrics.
    pub fn of_run(m: &RunMetrics) -> WireMetrics {
        WireMetrics {
            data_bytes: m.data_bytes,
            data_messages: m.data_messages,
            control_bytes: m.control_bytes,
            control_messages: m.control_messages,
            result_bytes: m.result_bytes,
            result_messages: m.result_messages,
            total_ops: m.total_ops,
            virtual_time_ns: m.virtual_time_ns,
            quiescence_rounds: m.quiescence_rounds,
            cache_hits: m.cache_hits,
        }
    }

    /// Virtual response time in ms (the paper's PT unit).
    pub fn virtual_time_ms(&self) -> f64 {
        self.virtual_time_ns as f64 / 1.0e6
    }

    /// Data shipment in KB (the paper's DS unit).
    pub fn data_kb(&self) -> f64 {
        self.data_bytes as f64 / 1024.0
    }
}

/// A relation as wire rows: each query node's sorted matches, in node
/// order — what an [`Answer`] ships and a subscription keeps.
pub fn rows_of(relation: &MatchRelation) -> Vec<Vec<u32>> {
    let row = |u| relation.matches_of(QNodeId(u)).iter().map(|v| v.0);
    let nodes = 0..relation.query_nodes() as u16;
    nodes.map(|u| row(u).collect()).collect()
}

/// One query's answer as it travels on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// Sorted matches per query node (empty for Boolean queries).
    pub rows: Vec<Vec<u32>>,
    /// Whether `G` matches `Q`.
    pub is_match: bool,
    /// Display name of the engine that ran.
    pub algorithm: String,
    /// The rendered plan explanation.
    pub plan: String,
    /// Run metrics.
    pub metrics: WireMetrics,
}

impl Answer {
    /// A run's answer, full relation rows.
    pub fn of_run(report: &RunReport) -> Answer {
        Answer {
            rows: rows_of(&report.relation),
            is_match: report.is_match,
            algorithm: report.algorithm.to_owned(),
            plan: report.plan.to_string(),
            metrics: WireMetrics::of_run(&report.metrics),
        }
    }

    /// A report's answer under the rows the request asked for (none
    /// when it was Boolean).
    pub fn of_report(rows: Vec<Vec<u32>>, report: &BooleanReport) -> Answer {
        Answer {
            rows,
            is_match: report.is_match,
            algorithm: report.algorithm.to_owned(),
            plan: report.plan.to_string(),
            metrics: WireMetrics::of_run(&report.metrics),
        }
    }

    /// Rebuilds the match relation (`Q(G)`'s maximum relation).
    pub fn relation(&self) -> MatchRelation {
        MatchRelation::from_lists(
            self.rows
                .iter()
                .map(|row| row.iter().map(|&v| NodeId(v)).collect())
                .collect(),
        )
    }

    /// The paper's data-selecting answer size: 0 when some query node
    /// has no match, the relation size otherwise.
    pub fn answer_pairs(&self) -> usize {
        if self.is_match {
            self.rows.iter().map(Vec::len).sum()
        } else {
            0
        }
    }
}

/// The loaded graph/fragmentation summary (`GRAPH_INFO`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphInfo {
    pub nodes: u64,
    pub edges: u64,
    pub sites: u16,
    /// Total fragment nodes `|Vf|` (virtual nodes included).
    pub vf: u64,
    /// Total fragment edges `|Ef|`.
    pub ef: u64,
    /// Exclusive upper bound on label values.
    pub label_bound: u64,
    /// The session's current graph generation.
    pub generation: u64,
}

/// The delta-application summary (`DELTA_APPLIED`), mirroring
/// `dgs_core::DeltaReport`'s counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    pub inserted: u64,
    pub deleted: u64,
    pub ignored: u64,
    pub crossing_inserted: u64,
    pub crossing_deleted: u64,
    pub virtuals_created: u64,
    pub virtuals_retired: u64,
    pub maintained_entries: u64,
    /// Cache entries dropped instead of maintained. Always 0 now that
    /// every cached answer is the maximum relation; the slot stays so
    /// the frame keeps its twelve counters.
    pub invalidated_entries: u64,
    pub revoked_pairs: u64,
    pub generation: u64,
    /// Pairs the insertion-side maintenance revived.
    pub resurrected_pairs: u64,
}

impl DeltaSummary {
    /// The wire counters of a batch's report.
    pub fn of_report(report: &DeltaReport) -> DeltaSummary {
        DeltaSummary {
            inserted: report.inserted as u64,
            deleted: report.deleted as u64,
            ignored: report.ignored as u64,
            crossing_inserted: report.crossing_inserted as u64,
            crossing_deleted: report.crossing_deleted as u64,
            virtuals_created: report.virtuals_created as u64,
            virtuals_retired: report.virtuals_retired as u64,
            maintained_entries: report.maintained_entries as u64,
            invalidated_entries: 0,
            revoked_pairs: report.revoked_pairs,
            generation: report.generation,
            resurrected_pairs: report.resurrected_pairs,
        }
    }
}

/// One subscription's match-set delta as pushed in a `MATCH_DIFF`
/// frame: the pairs that entered and left the match relation at
/// `generation`, in the *subscriber's* pattern numbering.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MatchDiff {
    /// Which subscription this diff belongs to.
    pub sub_id: u64,
    /// The graph generation whose delta produced this diff.
    pub generation: u64,
    /// `(query node, data node)` pairs that entered the match set.
    pub added: Vec<(u16, u32)>,
    /// `(query node, data node)` pairs that left the match set.
    pub removed: Vec<(u16, u32)>,
}

/// One traced request from the server's slow-query ring (`TRACE_R`):
/// where its wall-clock went (decode+queue wait, execute, encode) and
/// — for query frames — the plan explanation and the per-site
/// op/message breakdown the answer's [`WireMetrics`] discards.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireTrace {
    /// The server-side connection id the request arrived on.
    pub conn_id: u64,
    /// The pipelined request id.
    pub request_id: u64,
    /// The request's frame type byte.
    pub ty: u8,
    /// The routed session the request executed against.
    pub session: String,
    /// Nanoseconds from socket read to a worker picking the job up.
    pub queue_ns: u64,
    /// Nanoseconds spent executing (plan + run for queries).
    pub exec_ns: u64,
    /// Nanoseconds spent encoding the response frame.
    pub encode_ns: u64,
    /// Total nanoseconds from socket read to response handoff.
    pub total_ns: u64,
    /// Display name of the engine that ran (queries; empty otherwise).
    pub algorithm: String,
    /// The rendered plan explanation (queries; empty otherwise).
    pub plan: String,
    /// Charged operations per worker site (queries).
    pub site_ops: Vec<u64>,
    /// Messages sent per worker site (queries).
    pub site_msgs: Vec<u64>,
    /// The session's graph generation when the request ran.
    pub generation: u64,
}

/// Why the server pushed a `SUB_EVENT` frame for a subscription. All
/// three terminate the subscription: no further `MATCH_DIFF` frames
/// follow for its id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubEventKind {
    /// The subscriber fell too far behind: its bounded diff queue
    /// overflowed and the queued diffs were discarded. Re-subscribe
    /// for a fresh snapshot.
    Overflow,
    /// The subscribed session was dropped (or replaced wholesale).
    SessionDropped,
    /// The server is draining for shutdown.
    Draining,
}

/// Pattern-result cache counters (`CACHE_STATS`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireCacheStats {
    pub entries: u64,
    pub capacity: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub generation: u64,
}

impl WireCacheStats {
    /// The wire counters of a session's cache.
    pub fn of_stats(s: &CacheStats) -> WireCacheStats {
        WireCacheStats {
            entries: s.entries as u64,
            capacity: s.capacity as u64,
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            generation: s.generation,
        }
    }
}

/// Compressed-leg summary (`COMPRESSION_INFO`).
#[derive(Clone, Debug, PartialEq)]
pub struct WireCompression {
    pub classes: u64,
    pub ratio: f64,
    pub method: String,
    pub active: bool,
}

impl WireCompression {
    /// A session's compressed-leg summary, if it was built with one.
    pub fn of_engine(engine: &SimEngine) -> Option<WireCompression> {
        engine.compression_note().map(|n| WireCompression {
            classes: n.classes as u64,
            ratio: n.ratio,
            method: n.method.to_owned(),
            active: engine.compression_active(),
        })
    }
}

/// One hosted session as reported by `SESSION_LIST` /
/// `SESSION_CREATED`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionInfo {
    /// The routing key.
    pub name: String,
    /// Data-graph nodes.
    pub nodes: u64,
    /// Data-graph edges.
    pub edges: u64,
    /// Fragmentation sites.
    pub sites: u16,
    /// The session's current graph generation.
    pub generation: u64,
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    Pong,
    GraphInfo(GraphInfo),
    Answer(Answer),
    /// Per-query outcomes in input order plus the batch totals.
    BatchAnswer {
        items: Vec<Result<Answer, (ErrorCode, String)>>,
        total: WireMetrics,
    },
    DeltaApplied(DeltaSummary),
    /// `None` when the session's cache is disabled.
    CacheStats(Option<WireCacheStats>),
    /// `None` when the session was built without compression.
    CompressionInfo(Option<WireCompression>),
    Loaded {
        nodes: u64,
        edges: u64,
        sites: u16,
    },
    ShuttingDown,
    /// The created (or replaced) session's summary.
    SessionCreated(SessionInfo),
    /// Every hosted session, sorted by name.
    Sessions(Vec<SessionInfo>),
    /// The named session is gone.
    SessionDropped,
    /// The route was installed; `sessions` is how many sessions it
    /// resolved to at install time (for the empty fan-out-all route,
    /// the count hosted right now).
    SessionRouted {
        sessions: u64,
    },
    /// The subscription is live: its id, the generation of the
    /// initial snapshot, and the snapshot's match rows (one sorted
    /// list per query node, the submitted pattern's numbering). Every
    /// later `MATCH_DIFF` for `sub_id` applies on top of these rows.
    Subscribed {
        sub_id: u64,
        generation: u64,
        rows: Vec<Vec<u32>>,
    },
    /// The subscription is gone; no further pushes for its id.
    Unsubscribed,
    /// A point-in-time snapshot of the server's metrics registry
    /// (empty when the registry is disabled).
    Metrics(MetricsSnapshot),
    /// The slow-query trace ring, newest first.
    Trace(Vec<WireTrace>),
    /// Server-pushed (request id 0): one subscription's match-set
    /// delta.
    MatchDiff(MatchDiff),
    /// Server-pushed (request id 0): a subscription terminated.
    SubEvent {
        sub_id: u64,
        kind: SubEventKind,
    },
    Error {
        code: ErrorCode,
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_relation_reconstruction() {
        let a = Answer {
            rows: vec![vec![5, 9], vec![1]],
            is_match: true,
            algorithm: "x".into(),
            plan: "p".into(),
            metrics: WireMetrics::default(),
        };
        let rel = a.relation();
        assert_eq!(
            rel.matches_of(dgs_graph::QNodeId(0)),
            &[NodeId(5), NodeId(9)]
        );
        assert_eq!(a.answer_pairs(), 3);
    }
}
