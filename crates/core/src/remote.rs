//! Cross-process execution support for the engine protocols: message
//! codecs, per-site spec blobs, the session bootstrap, and the worker
//! host that `dgsd --worker` / `dgsq worker` run.
//!
//! The socket executor (`dgs_net::socket`) is protocol-agnostic; this
//! module is where the dGPM family plugs in:
//!
//! * [`SocketMsg`] impls encode/decode `DgpmMsg`/`DgpmsMsg`/`DgpmtMsg`
//!   with the shared [`dgs_net::wire`] primitives (`dGPMd` runs are
//!   `dGPMs` runs on a DAG pattern and ship `dGPMs` specs). The
//!   baselines (`Match`, `disHHK`, `dMes`) are **gated**: their
//!   shipped state (whole subgraphs, per-superstep vertex state) is
//!   not worth a wire format, so their specs refuse and the socket
//!   executor reports a typed `Unsupported` error before any frame is
//!   sent.
//! * Per-site **specs** carry what a worker needs to rebuild one
//!   site's logic for one run: engine tag, configuration, query mode
//!   and the pattern (binary `DGSB` format). The graph and the
//!   fragmentation are *not* per-run — they ship once, at cluster
//!   start, in the session [`encode_bootstrap`] blob.
//! * [`CoreWorkerHost`] is the worker-process brain: it absorbs the
//!   bootstrap (rebuilding the identical [`Fragmentation`] from the
//!   shipped assignment) and instantiates site logics from specs.

use crate::dgpm::{DgpmConfig, DgpmMsg, DgpmSite, QueryMode};
use crate::dgpms::{DgpmsMsg, DgpmsSite};
use crate::dgpmt::{DgpmtMsg, DgpmtSite};
use crate::push::PushedEq;
use crate::vars::{MatchLists, Var};
use dgs_graph::{io as gio, Graph, Pattern};
use dgs_net::socket::{erase_site, serve_worker_listener, ErasedSite, WorkerHost};
use dgs_net::wire::{put_bytes, put_f64, put_u16, put_u8, put_varint, Reader};
use dgs_net::SocketMsg;
use dgs_partition::Fragmentation;
use std::sync::Arc;

// ---- spec tags ---------------------------------------------------------

// Tag 2 (the retired `dGPMd` site logic) must not be reused.
const TAG_DGPM: u8 = 1;
const TAG_DGPMS: u8 = 3;
const TAG_DGPMT: u8 = 4;

// ---- shared codec helpers ---------------------------------------------

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn put_var(buf: &mut Vec<u8>, v: &Var) {
    put_u16(buf, v.q);
    put_varint(buf, u64::from(v.node));
}

fn read_var(r: &mut Reader<'_>) -> Result<Var, String> {
    let q = r.u16("var query node").map_err(err)?;
    let node = r.varint("var data node").map_err(err)?;
    Ok(Var {
        q,
        node: u32::try_from(node).map_err(|_| "var data node overflows u32".to_owned())?,
    })
}

fn put_vars(buf: &mut Vec<u8>, vars: &[Var]) {
    put_varint(buf, vars.len() as u64);
    for v in vars {
        put_var(buf, v);
    }
}

fn read_vars(r: &mut Reader<'_>) -> Result<Vec<Var>, String> {
    let n = r.count("var count").map_err(err)?;
    let mut vars = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        vars.push(read_var(r)?);
    }
    Ok(vars)
}

fn put_match_lists(buf: &mut Vec<u8>, m: &MatchLists) {
    put_varint(buf, m.0.len() as u64);
    for (q, l) in &m.0 {
        put_u16(buf, *q);
        put_varint(buf, l.len() as u64);
        for v in l {
            put_varint(buf, u64::from(*v));
        }
    }
}

fn read_match_lists(r: &mut Reader<'_>) -> Result<MatchLists, String> {
    let n = r.count("match-list count").map_err(err)?;
    let mut lists = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let q = r.u16("match-list query node").map_err(err)?;
        let len = r.count("match count").map_err(err)?;
        let mut l = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            let v = r.varint("match node").map_err(err)?;
            l.push(u32::try_from(v).map_err(|_| "match node overflows u32".to_owned())?);
        }
        lists.push((q, l));
    }
    Ok(MatchLists(lists))
}

fn put_eqs(buf: &mut Vec<u8>, eqs: &[PushedEq]) {
    put_varint(buf, eqs.len() as u64);
    for eq in eqs {
        put_var(buf, &eq.var);
        let mut expr = Vec::new();
        eq.expr.encode_postfix(&mut expr);
        put_bytes(buf, &expr);
    }
}

fn read_eqs(r: &mut Reader<'_>) -> Result<Vec<PushedEq>, String> {
    let n = r.count("equation count").map_err(err)?;
    let mut eqs = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let var = read_var(r)?;
        let bytes = r.bytes("equation expression").map_err(err)?;
        let expr = crate::boolexpr::BExpr::decode_postfix(bytes)
            .map_err(|e| format!("bad pushed equation: {e:?}"))?;
        eqs.push(PushedEq { var, expr });
    }
    Ok(eqs)
}

// ---- message codecs ----------------------------------------------------

impl SocketMsg for DgpmMsg {
    fn encode(&self, buf: &mut Vec<u8>) -> Result<(), String> {
        match self {
            DgpmMsg::Falsified(vars) => {
                put_u8(buf, 0);
                put_vars(buf, vars);
            }
            DgpmMsg::PushEqs(eqs) => {
                put_u8(buf, 1);
                put_eqs(buf, eqs);
            }
            DgpmMsg::Subscribe { vars, forward_to } => {
                put_u8(buf, 2);
                put_vars(buf, vars);
                put_varint(buf, u64::from(*forward_to));
            }
            DgpmMsg::GatherRequest => put_u8(buf, 3),
            DgpmMsg::LocalMatches(m) => {
                put_u8(buf, 4);
                put_match_lists(buf, m);
            }
            DgpmMsg::Presence(bits) => {
                put_u8(buf, 5);
                put_varint(buf, *bits);
            }
        }
        Ok(())
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(match r.u8("dGPM message tag").map_err(err)? {
            0 => DgpmMsg::Falsified(read_vars(r)?),
            1 => DgpmMsg::PushEqs(read_eqs(r)?),
            2 => {
                let vars = read_vars(r)?;
                let forward_to = r.varint("forward-to site").map_err(err)? as u32;
                DgpmMsg::Subscribe { vars, forward_to }
            }
            3 => DgpmMsg::GatherRequest,
            4 => DgpmMsg::LocalMatches(read_match_lists(r)?),
            5 => DgpmMsg::Presence(r.varint("presence bits").map_err(err)?),
            other => return Err(format!("unknown dGPM message tag {other}")),
        })
    }
}

impl SocketMsg for DgpmsMsg {
    fn encode(&self, buf: &mut Vec<u8>) -> Result<(), String> {
        match self {
            DgpmsMsg::Batch(vars) => {
                put_u8(buf, 0);
                put_vars(buf, vars);
            }
            DgpmsMsg::StartRound(rank) => {
                put_u8(buf, 1);
                put_varint(buf, u64::from(*rank));
            }
            DgpmsMsg::MoreWork => put_u8(buf, 2),
            DgpmsMsg::GatherRequest => put_u8(buf, 3),
            DgpmsMsg::LocalMatches(m) => {
                put_u8(buf, 4);
                put_match_lists(buf, m);
            }
        }
        Ok(())
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(match r.u8("dGPMs message tag").map_err(err)? {
            0 => DgpmsMsg::Batch(read_vars(r)?),
            1 => DgpmsMsg::StartRound(r.varint("round").map_err(err)? as u32),
            2 => DgpmsMsg::MoreWork,
            3 => DgpmsMsg::GatherRequest,
            4 => DgpmsMsg::LocalMatches(read_match_lists(r)?),
            other => return Err(format!("unknown dGPMs message tag {other}")),
        })
    }
}

impl SocketMsg for DgpmtMsg {
    fn encode(&self, buf: &mut Vec<u8>) -> Result<(), String> {
        match self {
            DgpmtMsg::RootEquations(eqs) => {
                put_u8(buf, 0);
                put_eqs(buf, eqs);
            }
            DgpmtMsg::SolvedFalse(vars) => {
                put_u8(buf, 1);
                put_vars(buf, vars);
            }
            DgpmtMsg::GatherRequest => put_u8(buf, 2),
            DgpmtMsg::LocalMatches(m) => {
                put_u8(buf, 3);
                put_match_lists(buf, m);
            }
        }
        Ok(())
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(match r.u8("dGPMt message tag").map_err(err)? {
            0 => DgpmtMsg::RootEquations(read_eqs(r)?),
            1 => DgpmtMsg::SolvedFalse(read_vars(r)?),
            2 => DgpmtMsg::GatherRequest,
            3 => DgpmtMsg::LocalMatches(read_match_lists(r)?),
            other => return Err(format!("unknown dGPMt message tag {other}")),
        })
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
            fn decode(_r: &mut Reader<'_>) -> Result<Self, String> {
                Err(concat!($name, " messages are not socket-remotable").to_owned())
            }
        }
    };
}

not_remotable_msg!(crate::baselines::match_central::MatchMsg, "Match");
not_remotable_msg!(crate::baselines::dishhk::DishhkMsg, "disHHK");
not_remotable_msg!(crate::baselines::dmes::DmesMsg, "dMes");

// ---- per-site specs ----------------------------------------------------

fn encode_pattern(q: &Pattern) -> Vec<u8> {
    let mut bytes = Vec::new();
    gio::write_pattern_binary(q, &mut bytes).expect("vec write cannot fail");
    bytes
}

pub(crate) fn spec_dgpm(q: &Pattern, cfg: &DgpmConfig, mode: QueryMode) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u8(&mut buf, TAG_DGPM);
    put_u8(&mut buf, matches!(mode, QueryMode::Boolean) as u8);
    put_u8(&mut buf, cfg.incremental as u8);
    put_u8(&mut buf, cfg.push_threshold.is_some() as u8);
    put_f64(&mut buf, cfg.push_threshold.unwrap_or(0.0));
    put_varint(&mut buf, cfg.push_size_cap as u64);
    put_bytes(&mut buf, &encode_pattern(q));
    buf
}

pub(crate) fn spec_plain(tag: u8, q: &Pattern) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u8(&mut buf, tag);
    put_bytes(&mut buf, &encode_pattern(q));
    buf
}

pub(crate) fn spec_dgpms(q: &Pattern) -> Vec<u8> {
    spec_plain(TAG_DGPMS, q)
}
pub(crate) fn spec_dgpmt(q: &Pattern) -> Vec<u8> {
    spec_plain(TAG_DGPMT, q)
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
    let mut r = Reader::new(spec);
    let tag = r.u8("spec tag").map_err(err)?;
    let build = |r: &mut Reader<'_>| -> Result<Arc<Pattern>, String> {
        let bytes = r.bytes("spec pattern").map_err(err)?;
        let q = gio::read_pattern_binary(bytes).map_err(|e| format!("bad spec pattern: {e}"))?;
        Ok(Arc::new(q))
    };
    match tag {
        TAG_DGPM => {
            let boolean = r.u8("spec mode").map_err(err)? != 0;
            let incremental = r.u8("spec incremental").map_err(err)? != 0;
            let has_push = r.u8("spec has-push").map_err(err)? != 0;
            let theta = r.f64("spec push threshold").map_err(err)?;
            let cap = r.varint("spec push size cap").map_err(err)? as usize;
            let q = build(&mut r)?;
            r.finish("dGPM spec").map_err(err)?;
            let cfg = DgpmConfig {
                incremental,
                push_threshold: has_push.then_some(theta),
                push_size_cap: cap,
            };
            let mode = if boolean {
                QueryMode::Boolean
            } else {
                QueryMode::DataSelecting
            };
            let logic = DgpmSite::with_mode(site as usize, Arc::clone(frag), q, cfg, mode);
            Ok(erase_site::<DgpmMsg, _>(logic, site, num_sites))
        }
        TAG_DGPMS => {
            let q = build(&mut r)?;
            r.finish("dGPMs spec").map_err(err)?;
            let logic = DgpmsSite::new(site as usize, Arc::clone(frag), q);
            Ok(erase_site::<DgpmsMsg, _>(logic, site, num_sites))
        }
        TAG_DGPMT => {
            let q = build(&mut r)?;
            r.finish("dGPMt spec").map_err(err)?;
            let logic = DgpmtSite::new(site as usize, Arc::clone(frag), q);
            Ok(erase_site::<DgpmtMsg, _>(logic, site, num_sites))
        }
        other => Err(format!("unknown site spec tag {other}")),
    }
}

// ---- the session bootstrap ---------------------------------------------

/// Encodes the session bootstrap a cluster ships to every worker once:
/// the graph (binary `DGSB` format) plus the node→site assignment,
/// from which the worker rebuilds the identical [`Fragmentation`].
pub fn encode_bootstrap(graph: &Graph, frag: &Fragmentation) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint(&mut buf, frag.num_sites() as u64);
    let assignment = frag.assignment();
    put_varint(&mut buf, assignment.len() as u64);
    for &site in assignment {
        put_varint(&mut buf, site as u64);
    }
    let mut graph_bytes = Vec::new();
    gio::write_graph_binary(graph, &mut graph_bytes).expect("vec write cannot fail");
    put_bytes(&mut buf, &graph_bytes);
    buf
}

/// Decodes a session bootstrap into the worker's fragmentation.
pub fn decode_bootstrap(blob: &[u8]) -> Result<(Arc<Graph>, Arc<Fragmentation>), String> {
    let mut r = Reader::new(blob);
    let k = r.varint("bootstrap site count").map_err(err)? as usize;
    let n = r.count("bootstrap assignment length").map_err(err)?;
    let mut assignment = Vec::with_capacity(n);
    for _ in 0..n {
        let site = r.varint("bootstrap assignment entry").map_err(err)? as usize;
        if site >= k.max(1) {
            return Err(format!(
                "assignment entry {site} out of range for {k} sites"
            ));
        }
        assignment.push(site);
    }
    let graph_bytes = r.bytes("bootstrap graph").map_err(err)?;
    r.finish("bootstrap").map_err(err)?;
    let graph =
        gio::read_graph_binary(graph_bytes).map_err(|e| format!("bad bootstrap graph: {e}"))?;
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
