//! The graph-file commands: `generate`, `convert`, `compress` and
//! `stats`, each with its `--remote` twin where the daemon holds the
//! graph.
//!
//! Graphs and patterns load in either the line-oriented text format
//! of `dgs_graph::io` or its binary twin (magic `DGSB`); `dgsq
//! convert` translates between the two. Binary is the format `dgsd`
//! cold-loads big graphs from.

use crate::flags::*;
use dgs::graph::io;
use std::fs::File;

pub fn cmd_generate(flags: &Flags) {
    use dgs::graph::generate::{dag, random, tree};
    let family = get(flags, "family").unwrap_or_else(|| fail("--family required"));
    let n: usize = num(flags, "nodes", 10_000);
    let m: usize = num(flags, "edges", 5 * n);
    let labels: usize = num(flags, "labels", 15);
    let seed: u64 = num(flags, "seed", 1);
    let out = get(flags, "out");
    let remote = get(flags, "remote");
    if out.is_none() && remote.is_none() {
        fail("--out FILE or --remote ADDR required");
    }
    if remote.is_none() {
        let why = "only applies with --remote (it configures the daemon's new session)";
        reject(
            flags,
            "sites partition cache compress compress-threshold session",
            why,
        );
    }
    let g = match family {
        "web" => random::web_like(n, m, labels, seed),
        "citation" => dag::citation_like(n, m, labels, seed),
        "tree" => tree::random_tree(n, labels, seed),
        "community" => random::community(n, m, 8, 0.05, labels, seed),
        "rmat" => {
            let scale = (n.max(2) as f64).log2().ceil() as u32;
            dgs::graph::generate::rmat::rmat(
                scale,
                m,
                labels,
                dgs::graph::generate::rmat::RmatParams::graph500(),
                seed,
            )
        }
        other => fail(&format!("unknown family '{other}'")),
    };
    if let Some(out) = out {
        let f = File::create(out).unwrap_or_else(|e| fail(&format!("cannot create {out}: {e}")));
        let w = std::io::BufWriter::new(f);
        let res = if out.ends_with(".bin") {
            io::write_graph_binary(&g, w)
        } else {
            io::write_graph(&g, w)
        };
        res.unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
        println!(
            "wrote {family} graph: {} nodes, {} edges -> {out}",
            g.node_count(),
            g.edge_count()
        );
    }
    if remote.is_some() {
        let mut client = connect(flags);
        let options = session_options(flags);
        if let Some(name) = get(flags, "session") {
            // Load as (create or replace) a named session instead of
            // swapping the daemon's default one.
            let info = or_fail(client.session_create(name, &g, &options));
            println!(
                "loaded {family} graph into daemon session '{}': {} nodes, {} edges over {} sites",
                info.name, info.nodes, info.edges, info.sites
            );
        } else {
            let (nodes, edges, sites) = or_fail(client.load_graph(&g, &options));
            println!(
                "loaded {family} graph into daemon: {nodes} nodes, {edges} edges over {sites} sites"
            );
        }
    }
}

/// `dgsq convert`: translate a graph or pattern file between the text
/// and binary formats (the object kind is sniffed from the input).
pub fn cmd_convert(flags: &Flags) {
    let input = get(flags, "in").unwrap_or_else(|| fail("--in required"));
    let output = get(flags, "out").unwrap_or_else(|| fail("--out required"));
    let format = get(flags, "format").unwrap_or_else(|| fail("--format text|binary required"));
    if format != "text" && format != "binary" {
        fail(&format!("unknown format '{format}' (text|binary)"));
    }
    let bytes = std::fs::read(input).unwrap_or_else(|e| fail(&format!("cannot open {input}: {e}")));
    // Sniff the object kind: binary files carry it in the header, text
    // files in the first non-comment line.
    let is_pattern = if io::looks_binary(&bytes) {
        bytes.get(5) == Some(&b'Q')
    } else {
        String::from_utf8_lossy(&bytes)
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with('#'))
            .is_some_and(|l| l.starts_with("pattern"))
    };
    let f = File::create(output).unwrap_or_else(|e| fail(&format!("cannot create {output}: {e}")));
    let w = std::io::BufWriter::new(f);
    let (kind, nodes, edges) = if is_pattern {
        let q =
            io::read_pattern_auto(&bytes[..]).unwrap_or_else(|e| fail(&format!("{input}: {e}")));
        let res = if format == "binary" {
            io::write_pattern_binary(&q, w)
        } else {
            io::write_pattern(&q, w)
        };
        res.unwrap_or_else(|e| fail(&format!("write {output}: {e}")));
        ("pattern", q.node_count(), q.edge_count())
    } else {
        let g = io::read_graph_auto(&bytes[..]).unwrap_or_else(|e| fail(&format!("{input}: {e}")));
        let res = if format == "binary" {
            io::write_graph_binary(&g, w)
        } else {
            io::write_graph(&g, w)
        };
        res.unwrap_or_else(|e| fail(&format!("write {output}: {e}")));
        ("graph", g.node_count(), g.edge_count())
    };
    println!("converted {kind} ({nodes} nodes, {edges} edges): {input} -> {output} [{format}]");
}

pub fn cmd_compress(flags: &Flags) {
    use dgs::serve::SIMEQ_MAX_NODES;
    use dgs::sim::{compress_bisim, compress_simeq};
    if flags.contains_key("remote") {
        reject_local_only(flags, "graph method out");
        match or_fail(connect_routed(flags).compression_info()) {
            None => println!("daemon session was built without compression"),
            Some(c) => println!("daemon session: {}", gc_summary(&c)),
        }
        return;
    }
    reject_session_without_remote(flags);
    let path = get(flags, "graph").unwrap_or_else(|| fail("--graph required"));
    let g = load_graph(path);
    let method = get(flags, "method").unwrap_or("bisim");
    let c = match method {
        "simeq" => {
            if g.node_count() > SIMEQ_MAX_NODES {
                fail("simeq compression holds an O(|V|^2) table; use --method bisim for graphs this large");
            }
            compress_simeq(&g)
        }
        "bisim" => compress_bisim(&g),
        other => fail(&format!("unknown method '{other}'")),
    };
    println!(
        "{method}: |G| = {} -> |Gc| = {} ({:.1}% of original; {} classes)",
        g.size(),
        c.graph.size(),
        100.0 * c.ratio(g.size()),
        c.class_count()
    );
    if let Some(out) = get(flags, "out") {
        let f = File::create(out).unwrap_or_else(|e| fail(&format!("cannot create {out}: {e}")));
        io::write_graph(&c.graph, std::io::BufWriter::new(f))
            .unwrap_or_else(|e| fail(&format!("write {out}: {e}")));
        println!("wrote quotient graph -> {out}");
    }
}

pub fn cmd_stats(flags: &Flags) {
    use dgs::graph::GraphStats;
    if flags.contains_key("remote") {
        reject_local_only(flags, "graph");
        let mut client = connect_routed(flags);
        if flags.contains_key("metrics") {
            let snap = or_fail(client.metrics());
            println!("server metrics (snapshot v{}):", snap.version);
            for (name, v) in &snap.counters {
                println!("  {name} = {v}");
            }
            for (name, v) in &snap.gauges {
                println!("  {name} = {v}");
            }
            for h in &snap.histograms {
                println!(
                    "  {}: count {}  min {}  p50 {}  p95 {}  p99 {}  max {}",
                    h.name, h.count, h.min, h.p50, h.p95, h.p99, h.max
                );
            }
            if snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty() {
                println!("  (empty — the daemon runs with --metrics off)");
            }
            return;
        }
        let info = or_fail(client.graph_info());
        println!(
            "remote session: |V| = {}, |E| = {}, {} labels, generation {}",
            info.nodes, info.edges, info.label_bound, info.generation
        );
        println!(
            "fragmentation: |F| = {}, |Vf| = {}, |Ef| = {}",
            info.sites, info.vf, info.ef
        );
        match or_fail(client.cache_stats()) {
            Some(s) => print_cache(&s),
            None => println!("cache: disabled"),
        }
        return;
    }
    reject(
        flags,
        "metrics",
        "needs --remote ADDR (metrics live in the daemon)",
    );
    reject_session_without_remote(flags);
    let path = get(flags, "graph").unwrap_or_else(|| fail("--graph required"));
    let g = load_graph(path);
    println!("graph {path}");
    println!("{}", GraphStats::compute(&g));
    println!(
        "top-1% hubs carry {:.1}% of edges",
        100.0 * GraphStats::top1pct_edge_share(&g)
    );
}
