//! The payload layouts of the message types. Every layout is stated
//! once, as a field list over [`dgs_net::wire::Wire`]: the [`frame`]
//! tables map each frame-type byte to its variant and fields. Every
//! decoder is total: corrupt payloads yield [`ServeError::Corrupt`],
//! never a panic — see the roundtrip, corruption and pinned-bytes
//! tests in `tests/serve.rs`. The match-row codec behind `ANSWER` and
//! `SUBSCRIBED` is hand-written and sits beside the `Answer` table.

use super::*;
use crate::error::ServeError;
use crate::wire::{put_varint, Reader};
use dgs_core::remote::{get_graph, get_pattern, put_graph, put_pattern};
use dgs_net::wire::{FrameError, Wire};
use dgs_net::{wire_enum, wire_struct};

/// Sorted match rows, delta-encoded per row (the `ANSWER` layout,
/// shared with `SUBSCRIBED`): each row's length, its first id, then
/// the gap to each next id. Dense rows make nearly every gap one byte.
fn encode_rows(buf: &mut Vec<u8>, rows: &[Vec<u32>]) {
    put_varint(buf, rows.len() as u64);
    for row in rows {
        put_varint(buf, row.len() as u64);
        buf.reserve(row.len());
        // The first id is its gap from 0.
        let mut prev = 0u32;
        for &v in row {
            // Inlined: a one-byte gap is a bare push.
            put_varint(buf, u64::from(v.wrapping_sub(prev)));
            prev = v;
        }
    }
}

fn decode_rows<E: From<FrameError>>(r: &mut Reader<'_>) -> Result<Vec<Vec<u32>>, E> {
    let too_big = || E::from(FrameError::corrupt("match id exceeds u32"));
    let nq = r.count("query-node count")?;
    let mut rows = Vec::with_capacity(nq);
    for _ in 0..nq {
        let len = r.count("row length")?;
        let mut row = Vec::with_capacity(len);
        let mut prev = 0u64;
        while row.len() < len {
            // A multi-byte gap (or the first id, which has no
            // predecessor) goes through the checked varint reader ...
            let raw = r.varint("match id")?;
            let v = if row.is_empty() {
                raw
            } else {
                prev.checked_add(raw)
                    .ok_or_else(|| E::from(FrameError::corrupt("match-id gap overflows")))?
            };
            if v > u64::from(u32::MAX) {
                return Err(too_big());
            }
            prev = v;
            row.push(v as u32);
            // ... and the run of one-byte gaps after it is read straight
            // from the payload, up to the first byte that continues a
            // varint. Running out of payload mid-row is left to the
            // varint reader above, which reports it as truncation.
            let want = len - row.len();
            r.scan(|rest| {
                let run = &rest[..want.min(rest.len())];
                for (i, &gap) in run.iter().enumerate() {
                    if gap >= 0x80 {
                        return (i, Ok(()));
                    }
                    prev += u64::from(gap);
                    if prev > u64::from(u32::MAX) {
                        return (i + 1, Err(too_big()));
                    }
                    row.push(prev as u32);
                }
                (run.len(), Ok(()))
            })?;
        }
        rows.push(row);
    }
    Ok(rows)
}

fn put_patterns(buf: &mut Vec<u8>, patterns: &[Pattern]) {
    put_varint(buf, patterns.len() as u64);
    for q in patterns {
        put_pattern(buf, q);
    }
}

fn get_patterns(r: &mut Reader<'_>) -> Result<Vec<Pattern>, FrameError> {
    let n = r.count("batch size")?;
    (0..n).map(|_| get_pattern(r)).collect()
}

/// A fixed `u16`; an unknown code reads as [`ErrorCode::Internal`].
impl Wire for ErrorCode {
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_u16().put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(ErrorCode::from_u16(u16::get(r)?))
    }
}

impl Request {
    /// Serializes to `(frame type, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut buf = Vec::new();
        let ty = self.encode_into(&mut buf);
        (ty, buf)
    }

    /// Appends the payload to `buf` (which may carry a frame header
    /// or a request-id prefix already) and returns the frame type.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> u8 {
        self.put_variant(buf)
    }

    /// Decodes a request frame.
    pub fn decode(ty: u8, payload: &[u8]) -> Result<Request, ServeError> {
        Ok(Reader::exact(payload, "request", |r| {
            Request::get_variant(ty, r)
        })?)
    }
}

impl Response {
    /// Serializes to `(frame type, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut buf = Vec::new();
        let ty = self.encode_into(&mut buf);
        (ty, buf)
    }

    /// Appends the payload to `buf` (which may carry a frame header
    /// or a request-id prefix already — this is what lets the
    /// server encode straight into a pooled frame buffer) and returns
    /// the frame type.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> u8 {
        self.put_variant(buf)
    }

    /// Decodes a response frame.
    pub fn decode(ty: u8, payload: &[u8]) -> Result<Response, ServeError> {
        Ok(Reader::exact(payload, "response", |r| {
            Response::get_variant(ty, r)
        })?)
    }
}

// ---- the wire layouts ---------------------------------------------------

wire_enum!(WireAlgorithm {
    0 => Auto,
    1 => Dgpm,
    2 => DgpmNopt,
    3 => Dgpms,
    4 => Dgpmd,
    5 => Dgpmt,
    6 => MatchCentral,
    7 => DisHhk,
    8 => DMes,
});

wire_enum!(WirePartitioner {
    0 => Hash,
    1 => Bfs,
    2 => Ldg,
    3 => Tree,
});

wire_enum!(SubEventKind {
    0 => Overflow,
    1 => SessionDropped,
    2 => Draining,
});

wire_struct!(WireMetrics {
    data_bytes,
    data_messages,
    control_bytes,
    control_messages,
    result_bytes,
    result_messages,
    total_ops,
    virtual_time_ns,
    quiescence_rounds,
    cache_hits,
});

wire_struct!(Answer {
    rows as (encode_rows, decode_rows),
    is_match,
    algorithm,
    plan,
    metrics,
});

wire_struct!(GraphInfo {
    nodes,
    edges,
    sites,
    vf,
    ef,
    label_bound,
    generation,
});

wire_struct!(DeltaSummary {
    inserted,
    deleted,
    ignored,
    crossing_inserted,
    crossing_deleted,
    virtuals_created,
    virtuals_retired,
    maintained_entries,
    invalidated_entries,
    revoked_pairs,
    generation,
    resurrected_pairs,
});

wire_struct!(MatchDiff {
    sub_id,
    generation,
    added,
    removed,
});

wire_struct!(WireTrace {
    conn_id,
    request_id,
    ty,
    session,
    queue_ns,
    exec_ns,
    encode_ns,
    total_ns,
    algorithm,
    plan,
    site_ops,
    site_msgs,
    generation,
});

wire_struct!(WireCacheStats {
    entries,
    capacity,
    hits,
    misses,
    evictions,
    generation,
});

wire_struct!(SessionOptions {
    sites,
    partitioner,
    seed,
    cache_capacity,
});

wire_struct!(SessionInfo {
    name,
    nodes,
    edges,
    sites,
    generation,
});

/// Frame type bytes, one table row per frame: the type byte, the
/// variant, and its payload's fields in wire order (each typed by its
/// variant's definition). Requests are `0x1x`, responses `0x2x`, the
/// error response is `0x3f`; handshake frames are `0x0x`.
pub mod frame {
    use super::*;

    pub const HELLO: u8 = 0x01;
    pub const WELCOME: u8 = 0x02;

    wire_enum!(Request {
        PING = 0x10 => Ping,
        GRAPH_INFO = 0x11 => GraphInfo,
        QUERY = 0x12 => Query { algorithm, boolean, pattern as (put_pattern, get_pattern) },
        QUERY_BATCH = 0x13 => QueryBatch { algorithm, patterns as (put_patterns, get_patterns) },
        APPLY_DELTA = 0x14 => ApplyDelta { insert_edges, delete_edges },
        CACHE_STATS = 0x15 => CacheStats,
        SHUTDOWN = 0x18 => Shutdown,
        SESSION_CREATE = 0x19 => SessionCreate { name, options, graph as (put_graph, get_graph) },
        SESSION_LIST = 0x1a => SessionList,
        SESSION_DROP = 0x1b => SessionDrop { name },
        SESSION_ROUTE = 0x1c => SessionRoute { name },
        SUBSCRIBE = 0x1d => Subscribe { algorithm, pattern as (put_pattern, get_pattern) },
        UNSUBSCRIBE = 0x1e => Unsubscribe { sub_id },
        METRICS = 0x1f => Metrics,
        /// Request: dump the server's slow-query trace ring.
        TRACE = 0x32 => Trace,
    });

    wire_enum!(Response {
        PONG = 0x20 => Pong,
        GRAPH_INFO_R = 0x21 => GraphInfo(info),
        ANSWER = 0x22 => Answer(answer),
        BATCH_ANSWER = 0x23 => BatchAnswer { items, total },
        DELTA_APPLIED = 0x24 => DeltaApplied(summary),
        CACHE_STATS_R = 0x25 => CacheStats(stats),
        SHUTTING_DOWN = 0x28 => ShuttingDown,
        SESSION_CREATED = 0x29 => SessionCreated(info),
        SESSION_LIST_R = 0x2a => Sessions(infos),
        SESSION_DROPPED = 0x2b => SessionDropped,
        SESSION_ROUTED = 0x2c => SessionRouted,
        SUBSCRIBED = 0x2d => Subscribed { sub_id, generation, rows as (encode_rows, decode_rows) },
        UNSUBSCRIBED = 0x2e => Unsubscribed,
        METRICS_R = 0x2f => Metrics(snapshot),
        /// Server-pushed: a subscription's match-set delta. Travels
        /// under request id 0, never in answer to a request.
        MATCH_DIFF = 0x30 => MatchDiff(diff),
        /// Server-pushed: a subscription lifecycle event (overflow,
        /// session dropped, server draining). Travels under request id 0.
        SUB_EVENT = 0x31 => SubEvent { sub_id, kind },
        /// Response to [`TRACE`].
        TRACE_R = 0x33 => Trace(traces),
        ERROR = 0x3f => Error { code, message },
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::{Label, PatternBuilder};
    use dgs_net::HistogramSummary;

    fn sample_pattern() -> Pattern {
        let mut b = PatternBuilder::new();
        let a = b.add_node(Label(1));
        let c = b.add_node(Label(2));
        b.add_edge(a, c);
        b.add_edge(c, a);
        b.build()
    }

    #[test]
    fn request_roundtrip_query() {
        let req = Request::Query {
            pattern: sample_pattern(),
            algorithm: WireAlgorithm::Auto,
            boolean: false,
        };
        let (ty, payload) = req.encode();
        assert_eq!(Request::decode(ty, &payload).unwrap(), req);
    }

    #[test]
    fn response_roundtrip_answer() {
        let resp = Response::Answer(Answer {
            rows: vec![vec![0, 3, 17], vec![], vec![2]],
            is_match: false,
            algorithm: "dGPM".into(),
            plan: "dGPM (auto)".into(),
            metrics: WireMetrics {
                data_bytes: 123,
                virtual_time_ns: 456,
                ..WireMetrics::default()
            },
        });
        let (ty, payload) = resp.encode();
        assert_eq!(Response::decode(ty, &payload).unwrap(), resp);
    }

    #[test]
    fn subscribe_roundtrips() {
        let req = Request::Subscribe {
            pattern: sample_pattern(),
            algorithm: WireAlgorithm::Auto,
        };
        let (ty, payload) = req.encode();
        assert_eq!(ty, frame::SUBSCRIBE);
        assert_eq!(Request::decode(ty, &payload).unwrap(), req);

        let req = Request::Unsubscribe { sub_id: 9000 };
        let (ty, payload) = req.encode();
        assert_eq!(Request::decode(ty, &payload).unwrap(), req);

        let resp = Response::Subscribed {
            sub_id: 7,
            generation: 42,
            rows: vec![vec![3, 4, 100], vec![]],
        };
        let (ty, payload) = resp.encode();
        assert_eq!(ty, frame::SUBSCRIBED);
        assert_eq!(Response::decode(ty, &payload).unwrap(), resp);

        let (ty, payload) = Response::Unsubscribed.encode();
        assert_eq!(
            Response::decode(ty, &payload).unwrap(),
            Response::Unsubscribed
        );
    }

    #[test]
    fn push_frames_roundtrip() {
        let resp = Response::MatchDiff(MatchDiff {
            sub_id: 3,
            generation: 17,
            added: vec![(0, 5), (2, 9)],
            removed: vec![(1, 1)],
        });
        let (ty, payload) = resp.encode();
        assert_eq!(ty, frame::MATCH_DIFF);
        assert_eq!(Response::decode(ty, &payload).unwrap(), resp);

        for kind in [
            SubEventKind::Overflow,
            SubEventKind::SessionDropped,
            SubEventKind::Draining,
        ] {
            let resp = Response::SubEvent { sub_id: 12, kind };
            let (ty, payload) = resp.encode();
            assert_eq!(ty, frame::SUB_EVENT);
            assert_eq!(Response::decode(ty, &payload).unwrap(), resp);
        }
    }

    #[test]
    fn delta_summary_carries_twelve_counters_and_refuses_the_v3_form() {
        let d = DeltaSummary {
            inserted: 5,
            revoked_pairs: 2,
            resurrected_pairs: 11,
            generation: 3,
            ..DeltaSummary::default()
        };
        let (ty, payload) = Response::DeltaApplied(d.clone()).encode();
        assert_eq!(
            Response::decode(ty, &payload).unwrap(),
            Response::DeltaApplied(d)
        );
        // The retired v3 payload stopped after `generation`: eleven
        // counters are a truncated frame now, not a tolerated dialect.
        let v3 = &payload[..payload.len() - 1];
        assert!(matches!(
            Response::decode(ty, v3),
            Err(ServeError::Corrupt { .. })
        ));
    }

    #[test]
    fn metrics_frames_roundtrip() {
        for req in [Request::Metrics, Request::Trace] {
            let (ty, payload) = req.encode();
            assert!(payload.is_empty());
            assert_eq!(Request::decode(ty, &payload).unwrap(), req);
        }
        let resp = Response::Metrics(MetricsSnapshot {
            version: 1,
            counters: vec![
                ("dgsd_connections_accepted_total".into(), 4),
                ("dgsd_requests_total{frame=\"QUERY\"}".into(), 17),
            ],
            gauges: vec![("dgsd_queue_depth".into(), 2)],
            histograms: vec![HistogramSummary {
                name: "dgsd_request_ns{frame=\"PING\"}".into(),
                count: 9,
                min: 100,
                max: 9000,
                p50: 300,
                p95: 7000,
                p99: 8500,
            }],
        });
        let (ty, payload) = resp.encode();
        assert_eq!(ty, frame::METRICS_R);
        assert_eq!(Response::decode(ty, &payload).unwrap(), resp);
        // The disabled-registry snapshot travels too.
        let empty = Response::Metrics(MetricsSnapshot::default());
        let (ty, payload) = empty.encode();
        assert_eq!(Response::decode(ty, &payload).unwrap(), empty);
    }

    #[test]
    fn trace_frames_roundtrip() {
        let resp = Response::Trace(vec![
            WireTrace {
                conn_id: 3,
                request_id: 41,
                ty: frame::QUERY,
                session: "default".into(),
                queue_ns: 1200,
                exec_ns: 2_400_000,
                encode_ns: 800,
                total_ns: 2_402_000,
                algorithm: "dGPM".into(),
                plan: "dGPM (auto)".into(),
                site_ops: vec![10, 20, 30],
                site_msgs: vec![1, 2, 3],
                generation: 7,
            },
            WireTrace::default(),
        ]);
        let (ty, payload) = resp.encode();
        assert_eq!(ty, frame::TRACE_R);
        assert_eq!(Response::decode(ty, &payload).unwrap(), resp);
    }

    #[test]
    fn unknown_frame_types_are_corrupt_not_panic() {
        // 0x16/0x26 carried v4's compressed-leg summary and 0x17/0x27
        // v5's second graph-hosting pair; v6 leaves them unassigned.
        for ty in [0xee, 0x16, 0x26, 0x17, 0x27] {
            assert!(Request::decode(ty, &[]).is_err(), "{ty:#04x}");
            assert!(Response::decode(ty, &[]).is_err(), "{ty:#04x}");
        }
    }

    /// The `(type byte, name)` rows of the table under `heading` in
    /// `docs/PROTOCOL.md`, in document order.
    fn doc_table(doc: &str, heading: &str) -> Vec<(u8, String)> {
        let rest = &doc[doc.find(heading).expect(heading)..];
        rest.lines()
            .skip_while(|l| !l.starts_with("| 0x"))
            .take_while(|l| l.starts_with("| 0x"))
            .map(|l| {
                let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                let ty = u8::from_str_radix(cells[1].trim_start_matches("0x"), 16).expect(l);
                let name = cells[2].split('`').nth(1).expect(l);
                (ty, name.to_owned())
            })
            .collect()
    }

    /// The protocol document states the frame tables the codec
    /// decodes: a frame the codec dropped or renamed fails here. The
    /// doc names responses without the codec's `_R` suffixes, so only
    /// their type bytes are compared.
    #[test]
    fn protocol_doc_tables_match_the_codec() {
        let doc = include_str!("../../../../docs/PROTOCOL.md");
        let title = doc.lines().next().unwrap();
        assert!(title.contains(&format!("(v{WIRE_VERSION})")), "{title}");
        let requests = doc_table(doc, "## Requests (client → server)");
        let named: Vec<(u8, String)> = Request::NAMED_TAGS
            .iter()
            .map(|&(ty, name)| (ty, name.to_owned()))
            .collect();
        assert_eq!(requests, named);
        let responses: Vec<u8> = doc_table(doc, "## Responses (server → client)")
            .into_iter()
            .map(|(ty, _)| ty)
            .collect();
        let named: Vec<u8> = Response::NAMED_TAGS.iter().map(|&(ty, _)| ty).collect();
        assert_eq!(responses, named);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (ty, mut payload) = Request::Ping.encode();
        payload.push(7);
        assert!(Request::decode(ty, &payload).is_err());
    }

    /// The row decoder as it was before one-byte gaps were read in
    /// runs: a checked call per byte, varints included — the reference
    /// the run decoder must agree with, rows, errors and bytes consumed.
    mod bytewise {
        use super::*;

        fn varint(r: &mut Reader<'_>, what: &str) -> Result<u64, ServeError> {
            let mut v = 0u64;
            let mut shift = 0u32;
            loop {
                let byte = r.u8(what)?;
                if shift == 63 && byte > 1 {
                    return Err(ServeError::corrupt(format!("varint overflow in {what}")));
                }
                v |= u64::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
                if shift > 63 {
                    return Err(ServeError::corrupt(format!("varint too long in {what}")));
                }
            }
        }

        pub(super) fn decode_rows(r: &mut Reader<'_>) -> Result<Vec<Vec<u32>>, ServeError> {
            let nq = r.count("query-node count")?;
            let mut rows = Vec::with_capacity(nq);
            for _ in 0..nq {
                let len = r.count("row length")?;
                let mut row = Vec::with_capacity(len);
                let mut prev = 0u64;
                for i in 0..len {
                    let raw = varint(r, "match id")?;
                    let v = if i == 0 {
                        raw
                    } else {
                        prev.checked_add(raw)
                            .ok_or_else(|| ServeError::corrupt("match-id gap overflows"))?
                    };
                    if v > u64::from(u32::MAX) {
                        return Err(ServeError::corrupt("match id exceeds u32"));
                    }
                    prev = v;
                    row.push(v as u32);
                }
                rows.push(row);
            }
            Ok(rows)
        }
    }

    type Decoded = (Result<Vec<Vec<u32>>, String>, usize);

    /// Decodes `bytes` with `decode`: the rows or the error's text, and
    /// how many bytes were left unread on success.
    fn decoded(
        decode: fn(&mut Reader<'_>) -> Result<Vec<Vec<u32>>, ServeError>,
        bytes: &[u8],
    ) -> Decoded {
        let mut r = Reader::new(bytes);
        match decode(&mut r) {
            Ok(rows) => (Ok(rows), r.remaining()),
            Err(e) => (Err(e.to_string()), 0),
        }
    }

    fn assert_decoders_agree(bytes: &[u8]) -> Decoded {
        let fast = decoded(decode_rows, bytes);
        assert_eq!(fast, decoded(bytewise::decode_rows, bytes), "{bytes:?}");
        fast
    }

    fn rows_from_gaps(first: u32, gaps: &[u32]) -> Vec<u32> {
        let mut row = vec![first];
        for &g in gaps {
            row.push(row[row.len() - 1] + g);
        }
        row
    }

    fn row_corpus() -> Vec<Vec<Vec<u32>>> {
        let straddling = [
            0x7e, 0x7f, 0x80, 0x81, 1, 0x3ffe, 0x3fff, 0x4000, 0x4001, 1, 1,
        ];
        let long: Vec<u32> = (0..10_000u32)
            .map(|i| [1, 2, 0x7f, 0x80, 3][i as usize % 5])
            .collect();
        vec![
            vec![],
            vec![vec![], vec![]],
            vec![rows_from_gaps(0, &straddling)],
            vec![rows_from_gaps(0x7f, &straddling), vec![0x80], vec![]],
            vec![
                rows_from_gaps(0x3fff, &[1]),
                rows_from_gaps(0x4000, &[0x7f]),
            ],
            vec![vec![u32::MAX]],
            vec![vec![u32::MAX - 0x80, u32::MAX], vec![0, u32::MAX]],
            vec![rows_from_gaps(7, &long), vec![1, 2, 3]],
        ]
    }

    #[test]
    fn row_codec_agrees_with_the_bytewise_decoder_on_every_prefix() {
        for rows in row_corpus() {
            let mut buf = Vec::new();
            encode_rows(&mut buf, &rows);
            assert_eq!(assert_decoders_agree(&buf), (Ok(rows), 0));
            // A trailing byte is left for the frame's `finish` to refuse.
            buf.push(0);
            assert_eq!(assert_decoders_agree(&buf).1, 1);
            buf.pop();
            for cut in 0..buf.len() {
                let (rows, _) = assert_decoders_agree(&buf[..cut]);
                assert!(rows.is_err(), "prefix of {cut} bytes decoded");
            }
        }
    }

    #[test]
    fn row_gap_past_u32_is_corrupt() {
        // A one-byte gap, a two-byte gap, and u64::MAX, which overflows
        // the addition itself.
        for gap in [0x10, 0x80, u64::MAX] {
            // One row of two ids: u32::MAX - 8, then the gap.
            let mut buf = vec![1, 2];
            put_varint(&mut buf, u64::from(u32::MAX - 8));
            put_varint(&mut buf, gap);
            let (rows, _) = assert_decoders_agree(&buf);
            let err = rows.expect_err("an id past u32::MAX decoded");
            assert!(err.contains("match id exceeds u32") || err.contains("gap overflows"));
            let mut r = Reader::new(&buf);
            assert!(matches!(
                decode_rows(&mut r),
                Err(ServeError::Corrupt { .. })
            ));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2_000))]

        /// Arbitrary bytes: uniform, or mostly one-byte gaps after a
        /// small row count, which reaches the run decoder's edges.
        #[test]
        fn row_codec_agrees_with_the_bytewise_decoder_on_random_bytes(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..96,
            gappy in proptest::prelude::any::<bool>(),
        ) {
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                ((z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB) >> 56) as u8
            };
            let mut bytes: Vec<u8> = (0..len).map(|_| next()).collect();
            if gappy && !bytes.is_empty() {
                bytes[0] %= 4;
                for b in &mut bytes[1..] {
                    if *b & 0x0f != 0 {
                        *b &= 0x7f;
                    }
                }
            }
            let _ = assert_decoders_agree(&bytes);
        }
    }
}
