//! Cross-process execution support for the engine protocols: message
//! codecs, per-site spec blobs, the session bootstrap, and the worker
//! host that `dgsd --worker` / `dgsq worker` run.
//!
//! The socket executor (`dgs_net::socket`) is protocol-agnostic; this
//! module is where the dGPM family plugs in:
//!
//! * `DgpmMsg`/`DgpmsMsg`/`DgpmtMsg` are [`SocketMsg`]s through their
//!   [`dgs_net::wire`] layouts, one table row per variant (`dGPMd` runs
//!   are `dGPMs` runs on a DAG pattern and ship `dGPMs` specs). The
//!   baselines (`Match`, `disHHK`, `dMes`) are **gated**: their
//!   shipped state (whole subgraphs, per-superstep vertex state) is
//!   not worth a wire format, so their specs refuse and the socket
//!   executor reports a typed `Unsupported` error before any frame is
//!   sent.
//! * Per-site **specs** carry what a worker needs to rebuild one
//!   site's logic for one run: engine tag, configuration, query mode
//!   and the pattern (binary `DGSB` format, [`put_pattern`], which the
//!   serving protocol ships patterns with too). The graph and the
//!   fragmentation are *not* per-run — they ship once, at cluster
//!   start, in the session [`encode_bootstrap`] blob.
//! * [`CoreWorkerHost`] is the worker-process brain: it absorbs the
//!   bootstrap (rebuilding the identical [`Fragmentation`] from the
//!   shipped assignment) and instantiates site logics from specs.

use crate::boolexpr::BExpr;
use crate::dgpm::{DgpmConfig, DgpmMsg, DgpmSite, QueryMode};
use crate::dgpms::{DgpmsMsg, DgpmsSite};
use crate::dgpmt::{DgpmtMsg, DgpmtSite};
use crate::push::PushedEq;
use crate::vars::{MatchLists, Var};
use dgs_graph::{io as gio, Graph, Pattern};
use dgs_net::socket::{erase_site, serve_worker_listener, ErasedSite, WorkerHost};
use dgs_net::wire::{encode, put_bytes, put_varint, FrameError, Reader, Wire};
use dgs_net::{wire_enum, wire_struct, SocketMsg};
use dgs_partition::Fragmentation;
use std::sync::Arc;

// ---- message codecs ----------------------------------------------------

wire_struct!(Var { q, node });
wire_struct!(MatchLists(lists));
wire_struct!(PushedEq { var, expr });

wire_enum!(DgpmMsg {
    0 => Falsified(vars),
    1 => PushEqs(eqs),
    2 => Subscribe { vars, forward_to },
    3 => GatherRequest,
    4 => LocalMatches(lists),
    5 => Presence(bits),
});

wire_enum!(DgpmsMsg {
    0 => Batch(vars),
    1 => StartRound(rank),
    2 => MoreWork,
    3 => GatherRequest,
    4 => LocalMatches(lists),
});

wire_enum!(DgpmtMsg {
    0 => RootEquations(eqs),
    1 => SolvedFalse(vars),
    2 => GatherRequest,
    3 => LocalMatches(lists),
});

/// A Boolean equation travels as its postfix blob, length-prefixed.
impl Wire for BExpr {
    fn put(&self, buf: &mut Vec<u8>) {
        let mut expr = Vec::new();
        self.encode_postfix(&mut expr);
        put_bytes(buf, &expr);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let bytes = r.bytes("equation")?;
        BExpr::decode_postfix(bytes)
            .map_err(|e| FrameError::corrupt(format!("bad pushed equation: {e:?}")))
    }
}

/// The baselines ship whole subgraphs / per-superstep vertex state;
/// they stay in-process. Their messages still satisfy the executor's
/// bounds so the dispatch is uniform, but the spec gate fires first —
/// these codecs are unreachable in a correct run.
macro_rules! not_remotable_msg {
    ($ty:ty, $name:literal) => {
        impl SocketMsg for $ty {
            fn encode(&self, _buf: &mut Vec<u8>) -> Result<(), String> {
                Err(concat!($name, " messages are not socket-remotable").to_owned())
            }
            fn decode(_r: &mut Reader<'_>) -> Result<Self, FrameError> {
                Err(FrameError::corrupt(concat!(
                    $name,
                    " messages are not socket-remotable"
                )))
            }
        }
    };
}

not_remotable_msg!(crate::baselines::match_central::MatchMsg, "Match");
not_remotable_msg!(crate::baselines::dishhk::DishhkMsg, "disHHK");
not_remotable_msg!(crate::baselines::dmes::DmesMsg, "dMes");

// ---- DGSB blobs ---------------------------------------------------------

/// Appends a pattern as its length-prefixed `dgs_graph::io` binary
/// blob — the field codec of every pattern on the wire.
pub fn put_pattern(buf: &mut Vec<u8>, q: &Pattern) {
    let mut bytes = Vec::new();
    gio::write_pattern_binary(q, &mut bytes).expect("vec write cannot fail");
    put_bytes(buf, &bytes);
}

/// Reads a pattern written by [`put_pattern`].
pub fn get_pattern(r: &mut Reader<'_>) -> Result<Pattern, FrameError> {
    let bytes = r.bytes("pattern")?;
    gio::read_pattern_binary(bytes).map_err(|e| FrameError::corrupt(format!("bad pattern: {e}")))
}

/// Appends a graph as its length-prefixed `dgs_graph::io` binary blob.
pub fn put_graph(buf: &mut Vec<u8>, g: &Graph) {
    let mut bytes = Vec::new();
    gio::write_graph_binary(g, &mut bytes).expect("vec write cannot fail");
    put_bytes(buf, &bytes);
}

/// Reads a graph written by [`put_graph`].
pub fn get_graph(r: &mut Reader<'_>) -> Result<Graph, FrameError> {
    let bytes = r.bytes("graph")?;
    gio::read_graph_binary(bytes).map_err(|e| FrameError::corrupt(format!("bad graph: {e}")))
}

// ---- per-site specs ----------------------------------------------------

/// What a worker needs to rebuild one site's logic for one run.
enum Spec {
    Dgpm {
        mode: QueryMode,
        incremental: bool,
        has_push: bool,
        theta: f64,
        cap: usize,
        pattern: Pattern,
    },
    Dgpms(Pattern),
    Dgpmt(Pattern),
}

// Tag 2 (the retired `dGPMd` site logic) must not be reused.
wire_enum!(Spec {
    1 => Dgpm { mode, incremental, has_push, theta, cap, pattern as (put_pattern, get_pattern) },
    3 => Dgpms(q as (put_pattern, get_pattern)),
    4 => Dgpmt(q as (put_pattern, get_pattern)),
});

wire_enum!(QueryMode {
    0 => DataSelecting,
    1 => Boolean,
});

pub(crate) fn spec_dgpm(q: &Pattern, cfg: &DgpmConfig, mode: QueryMode) -> Vec<u8> {
    encode(&Spec::Dgpm {
        mode,
        incremental: cfg.incremental,
        has_push: cfg.push_threshold.is_some(),
        theta: cfg.push_threshold.unwrap_or(0.0),
        cap: cfg.push_size_cap,
        pattern: q.clone(),
    })
}

pub(crate) fn spec_dgpms(q: &Pattern) -> Vec<u8> {
    encode(&Spec::Dgpms(q.clone()))
}

pub(crate) fn spec_dgpmt(q: &Pattern) -> Vec<u8> {
    encode(&Spec::Dgpmt(q.clone()))
}

/// Rebuilds one site's logic from its spec blob — the worker-side
/// half of [`dgs_net::RemoteSpec`].
pub fn build_site(
    frag: &Arc<Fragmentation>,
    site: u32,
    num_sites: usize,
    spec: &[u8],
) -> Result<Box<dyn ErasedSite>, String> {
    if frag.num_sites() != num_sites {
        return Err(format!(
            "run has {num_sites} sites but this worker's fragmentation has {}",
            frag.num_sites()
        ));
    }
    if site as usize >= num_sites {
        return Err(format!("site index {site} out of range"));
    }
    let spec = Reader::exact(spec, "site spec", Spec::get).map_err(|e| e.to_string())?;
    let (idx, frag) = (site as usize, Arc::clone(frag));
    Ok(match spec {
        Spec::Dgpm {
            mode,
            incremental,
            has_push,
            theta,
            cap,
            pattern,
        } => {
            let cfg = DgpmConfig {
                incremental,
                push_threshold: has_push.then_some(theta),
                push_size_cap: cap,
            };
            let logic = DgpmSite::with_mode(idx, frag, Arc::new(pattern), cfg, mode);
            erase_site::<DgpmMsg, _>(logic, site, num_sites)
        }
        Spec::Dgpms(q) => {
            let logic = DgpmsSite::new(idx, frag, Arc::new(q));
            erase_site::<DgpmsMsg, _>(logic, site, num_sites)
        }
        Spec::Dgpmt(q) => {
            let logic = DgpmtSite::new(idx, frag, Arc::new(q));
            erase_site::<DgpmtMsg, _>(logic, site, num_sites)
        }
    })
}

// ---- the session bootstrap ---------------------------------------------

/// Encodes the session bootstrap a cluster ships to every worker once:
/// the graph (binary `DGSB` format) plus the node→site assignment,
/// from which the worker rebuilds the identical [`Fragmentation`].
pub fn encode_bootstrap(graph: &Graph, frag: &Fragmentation) -> Vec<u8> {
    let mut buf = Vec::new();
    frag.num_sites().put(&mut buf);
    let assignment = frag.assignment();
    put_varint(&mut buf, assignment.len() as u64);
    for site in assignment {
        site.put(&mut buf);
    }
    put_graph(&mut buf, graph);
    buf
}

/// Decodes a session bootstrap into the worker's fragmentation.
pub fn decode_bootstrap(blob: &[u8]) -> Result<(Arc<Graph>, Arc<Fragmentation>), String> {
    let (k, assignment, graph) = Reader::exact(blob, "bootstrap", |r| {
        Ok((usize::get(r)?, Vec::<usize>::get(r)?, get_graph(r)?))
    })
    .map_err(|e| e.to_string())?;
    if let Some(site) = assignment.iter().find(|&&site| site >= k.max(1)) {
        return Err(format!(
            "assignment entry {site} out of range for {k} sites"
        ));
    }
    if graph.node_count() != assignment.len() {
        return Err(format!(
            "bootstrap assignment covers {} nodes but the graph has {}",
            assignment.len(),
            graph.node_count()
        ));
    }
    let frag = Fragmentation::build(&graph, &assignment, k);
    Ok((Arc::new(graph), Arc::new(frag)))
}

// ---- the worker host ---------------------------------------------------

/// The worker-process brain behind `dgsd --worker` and `dgsq worker`:
/// absorbs the session bootstrap and builds engine site logics from
/// per-run specs.
#[derive(Default)]
pub struct CoreWorkerHost {
    frag: Option<Arc<Fragmentation>>,
}

impl CoreWorkerHost {
    /// An empty host (no session loaded yet).
    pub fn new() -> Self {
        CoreWorkerHost::default()
    }
}

impl WorkerHost for CoreWorkerHost {
    fn load(&mut self, blob: &[u8]) -> Result<(), String> {
        let (_graph, frag) = decode_bootstrap(blob)?;
        self.frag = Some(frag);
        Ok(())
    }

    fn build_site(
        &self,
        site: u32,
        num_sites: usize,
        spec: &[u8],
    ) -> Result<Box<dyn ErasedSite>, String> {
        let frag = self
            .frag
            .as_ref()
            .ok_or_else(|| "no session bootstrap loaded".to_owned())?;
        build_site(frag, site, num_sites, spec)
    }
}

/// The accept loop of a worker process: serves coordinators one at a
/// time (each connection gets a fresh host and its own bootstrap)
/// until one sends a shutdown. This is what `dgsd --worker`,
/// `dgsq worker` and `examples/multiprocess.rs` run; callers print
/// the [`dgs_net::socket::ANNOUNCE_MARKER`] line themselves before
/// calling in.
pub fn serve_worker(listener: &std::net::TcpListener) -> std::io::Result<()> {
    serve_worker_listener(listener, CoreWorkerHost::new)
}

/// The whole worker-process entry point shared by `dgsq worker`,
/// `dgsd --worker` and the examples: binds `listen` (a `HOST:PORT`,
/// optionally `tcp:`-prefixed for symmetry with the daemon's
/// `--listen`), prints the announce-line contract
/// (`{name}: listening on {addr}`, flushed — a piped stdout is
/// block-buffered), and serves coordinators until one sends a
/// shutdown. One implementation so the contract cannot drift between
/// the binaries.
pub fn run_worker_cli(name: &str, listen: &str) -> std::io::Result<()> {
    let listen = listen.strip_prefix("tcp:").unwrap_or(listen);
    let listener = std::net::TcpListener::bind(listen)?;
    let addr = listener.local_addr()?;
    println!("{name}: {}{addr}", dgs_net::socket::ANNOUNCE_MARKER);
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    serve_worker(&listener)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgs_graph::generate::{patterns, random};
    use dgs_partition::hash_partition;

    fn roundtrip<M: SocketMsg + std::fmt::Debug + PartialEq>(msg: M) {
        let mut buf = Vec::new();
        msg.encode(&mut buf).unwrap();
        let mut r = Reader::new(&buf);
        let back = M::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 0, "{msg:?} left bytes");
        assert_eq!(back, msg);
    }

    #[test]
    fn dgpm_messages_roundtrip() {
        let vars = vec![Var { q: 3, node: 41 }, Var { q: 0, node: 900 }];
        roundtrip(DgpmMsg::Falsified(vars.clone()));
        roundtrip(DgpmMsg::Subscribe {
            vars: vars.clone(),
            forward_to: 7,
        });
        roundtrip(DgpmMsg::GatherRequest);
        roundtrip(DgpmMsg::Presence(0b1011));
        roundtrip(DgpmMsg::LocalMatches(MatchLists(vec![
            (0, vec![1, 2, 300]),
            (4, vec![]),
        ])));
        use crate::boolexpr::BExpr;
        let eq = PushedEq {
            var: Var { q: 1, node: 5 },
            expr: BExpr::Or(vec![
                BExpr::Var(Var { q: 2, node: 9 }),
                BExpr::And(vec![BExpr::Const(true), BExpr::Var(Var { q: 0, node: 3 })]),
            ]),
        };
        roundtrip(DgpmMsg::PushEqs(vec![eq]));
    }

    #[test]
    fn family_messages_roundtrip() {
        let vars = vec![Var { q: 2, node: 17 }];
        roundtrip(DgpmsMsg::Batch(vars.clone()));
        roundtrip(DgpmsMsg::MoreWork);
        roundtrip(DgpmsMsg::StartRound(2));
        roundtrip(DgpmtMsg::SolvedFalse(vars));
        roundtrip(DgpmtMsg::GatherRequest);
    }

    #[test]
    fn corrupt_messages_are_typed_errors_not_panics() {
        let mut buf = Vec::new();
        DgpmMsg::Falsified(vec![Var { q: 1, node: 2 }])
            .encode(&mut buf)
            .unwrap();
        for len in 0..buf.len() {
            let mut r = Reader::new(&buf[..len]);
            let _ = DgpmMsg::decode(&mut r); // must not panic
        }
        let mut r = Reader::new(&[99u8]);
        assert!(DgpmMsg::decode(&mut r).is_err());
    }

    /// The bytes of every message, spec and bootstrap the codecs
    /// write, pinned as `(length, FNV-1a)`: a roundtrip still passes
    /// when an encoding changes on both sides, this does not.
    #[test]
    fn codec_bytes_are_pinned() {
        use crate::boolexpr::BExpr;
        fn msg<M: SocketMsg>(m: M) -> Vec<u8> {
            let mut buf = Vec::new();
            m.encode(&mut buf).unwrap();
            buf
        }
        let vars = vec![Var { q: 3, node: 41 }, Var { q: 0, node: 900 }];
        let big = Var {
            q: u16::MAX,
            node: u32::MAX,
        };
        let lists = MatchLists(vec![(0, vec![1, 2, 300]), (4, vec![]), (9, vec![u32::MAX])]);
        let eqs = vec![
            PushedEq {
                var: Var { q: 1, node: 5 },
                expr: BExpr::Or(vec![
                    BExpr::Var(Var { q: 2, node: 9 }),
                    BExpr::And(vec![BExpr::Const(true), BExpr::Var(Var { q: 0, node: 3 })]),
                ]),
            },
            PushedEq {
                var: big,
                expr: BExpr::Const(false),
            },
        ];
        let g = random::uniform(60, 240, 4, 5);
        let frag = Fragmentation::build(&g, &hash_partition(g.node_count(), 3, 5), 3);
        let q = patterns::random_cyclic(3, 5, 4, 8);
        let mut cfg = DgpmConfig::optimized();
        cfg.push_size_cap = 300;
        let corpus = vec![
            msg(DgpmMsg::Falsified(vars.clone())),
            msg(DgpmMsg::Falsified(vec![])),
            msg(DgpmMsg::PushEqs(eqs.clone())),
            msg(DgpmMsg::Subscribe {
                vars: vec![big],
                forward_to: 70_000,
            }),
            msg(DgpmMsg::GatherRequest),
            msg(DgpmMsg::LocalMatches(lists.clone())),
            msg(DgpmMsg::Presence(u64::MAX)),
            msg(DgpmsMsg::Batch(vars.clone())),
            msg(DgpmsMsg::StartRound(300)),
            msg(DgpmsMsg::MoreWork),
            msg(DgpmsMsg::GatherRequest),
            msg(DgpmsMsg::LocalMatches(lists.clone())),
            msg(DgpmtMsg::RootEquations(eqs)),
            msg(DgpmtMsg::SolvedFalse(vars)),
            msg(DgpmtMsg::GatherRequest),
            msg(DgpmtMsg::LocalMatches(lists)),
            spec_dgpm(&q, &cfg, QueryMode::Boolean),
            spec_dgpm(&q, &DgpmConfig::no_opt(), QueryMode::DataSelecting),
            spec_dgpms(&q),
            spec_dgpmt(&q),
            encode_bootstrap(&g, &frag),
        ];
        let fnv = |bytes: &[u8]| {
            let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, step)
        };
        let got: Vec<(usize, u64)> = corpus.iter().map(|b| (b.len(), fnv(b))).collect();
        const PINNED: &[(usize, u64)] = &[
            (9, 0x32a085b7d5967562),
            (2, 0x08328807b4eb6fed),
            (36, 0xc969d56204a90845),
            (12, 0xbb416e69cd56592f),
            (1, 0xaf63be4c8601b992),
            (20, 0x02f9e318ee895d31),
            (11, 0x8f9e9f197d82e48c),
            (9, 0x32a085b7d5967562),
            (3, 0xd1c111186819bde6),
            (1, 0xaf63bf4c8601bb45),
            (1, 0xaf63be4c8601b992),
            (20, 0x02f9e318ee895d31),
            (36, 0x5f8fec9f11d559c4),
            (9, 0xb83c71dd69b32099),
            (1, 0xaf63bf4c8601bb45),
            (20, 0x6a31a25dec12024e),
            (33, 0xa60d55356b27f4ca),
            (32, 0x577a0d4dd60fdce0),
            (20, 0xed0620eed1e4f07a),
            (20, 0xb3d84dc53d854915),
            (423, 0x0a408bc4bdf1877a),
        ];
        let show: String = got
            .iter()
            .map(|(n, h)| format!("({n}, {h:#018x}),\n"))
            .collect();
        assert!(got == PINNED, "pins:\n{show}");
    }

    /// An id past `u32::MAX` is a corrupt message, not the id modulo
    /// 2^32.
    #[test]
    fn ids_past_u32_do_not_decode() {
        let mut subscribe = vec![2, 0];
        dgs_net::wire::put_varint(&mut subscribe, 1 << 32 | 1);
        assert!(DgpmMsg::decode(&mut Reader::new(&subscribe)).is_err());
        let mut start = vec![1];
        dgs_net::wire::put_varint(&mut start, 1 << 32);
        assert!(DgpmsMsg::decode(&mut Reader::new(&start)).is_err());
    }

    #[test]
    fn bootstrap_roundtrips_into_an_identical_fragmentation() {
        let g = random::uniform(60, 240, 4, 5);
        let assign = hash_partition(g.node_count(), 3, 5);
        let frag = Fragmentation::build(&g, &assign, 3);
        let blob = encode_bootstrap(&g, &frag);
        let (g2, frag2) = decode_bootstrap(&blob).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(frag2.num_sites(), 3);
        assert_eq!(frag2.assignment(), frag.assignment());
        assert_eq!(frag2.vf(), frag.vf());
        assert_eq!(frag2.ef(), frag.ef());
    }

    #[test]
    fn specs_rebuild_sites_and_reject_mismatches() {
        let g = random::uniform(40, 160, 4, 8);
        let assign = hash_partition(g.node_count(), 2, 8);
        let frag = Arc::new(Fragmentation::build(&g, &assign, 2));
        let q = patterns::random_cyclic(3, 5, 4, 8);
        let spec = spec_dgpms(&q);
        assert!(build_site(&frag, 0, 2, &spec).is_ok());
        assert!(build_site(&frag, 5, 2, &spec).is_err()); // site out of range
        assert!(build_site(&frag, 0, 3, &spec).is_err()); // wrong cluster shape
        assert!(build_site(&frag, 0, 2, &[42]).is_err()); // unknown tag
                                                          // The retired dGPMd tag is an unknown tag too — a typed error,
                                                          // where the old site logic panicked on a cyclic pattern.
        let mut retired = spec.clone();
        retired[0] = 2;
        assert!(build_site(&frag, 0, 2, &retired).is_err());
        let dgpm = spec_dgpm(&q, &DgpmConfig::optimized(), QueryMode::Boolean);
        assert!(build_site(&frag, 1, 2, &dgpm).is_ok());
    }
}
