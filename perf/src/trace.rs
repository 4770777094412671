//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not instrumented: a span here brackets
//! one *public call* (or one step of the harness itself), carries the
//! operation it belongs to and the span that caused it, and is held in
//! memory until the run ends. What happens inside a call — local
//! evaluation vs. message rounds vs. merge inside `SimEngine::query`,
//! say — is not visible from outside and is not guessed at.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// "No parent" / "no span" marker.
pub const NONE: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The operation (query, delta batch, setup) the span belongs to;
    /// spans of one operation share it.
    pub op: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's recorder. Disabled, `begin`/`end` are a branch each.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A recorder for another thread of the same run (same clock).
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Spans begun from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied().unwrap_or(NONE),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: u32) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Brackets `f` in a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbing a tracer with open spans");
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NONE {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: its duration minus the part of that interval
/// its child spans cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if hi > lo {
                kids[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(kids.iter_mut())
        .map(|(s, ks)| {
            ks.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in ks.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Totals of the spans sharing one name.
#[derive(Clone, Debug, PartialEq)]
pub struct NameSummary {
    pub name: &'static str,
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
    pub p50_us: f64,
}

/// One row per span name, in order of first appearance.
pub fn summarize(spans: &[Span]) -> Vec<NameSummary> {
    let selfs = self_times(spans);
    let mut order: Vec<&'static str> = Vec::new();
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_insert_with(|| {
            order.push(s.name);
            (Vec::new(), 0)
        });
        e.0.push((s.end_ns - s.start_ns) as f64 / 1e3);
        e.1 += own;
    }
    order
        .into_iter()
        .map(|name| {
            let (durs_us, own) = &by_name[name];
            NameSummary {
                name,
                count: durs_us.len(),
                total_ms: durs_us.iter().sum::<f64>() / 1e3,
                self_ms: *own as f64 / 1e6,
                p50_us: stats::median(durs_us),
            }
        })
        .collect()
}

/// The span file: every span as `[id, parent, op, name, start_ns,
/// end_ns]` (`parent` -1 for a root) plus the per-name summary. Span
/// and workload names are identifiers, written as they are.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 48);
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"columns\": [\"id\", \"parent\", \"op\", \"name\", \"start_ns\", \"end_ns\"],\n\"summary\": ["
    );
    for (i, s) in summarize(spans).iter().enumerate() {
        let _ = write!(
            out,
            "{}\n {{\"name\": \"{}\", \"count\": {}, \"total_ms\": {:.6}, \"self_ms\": {:.6}, \"p50_us\": {:.3}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.count,
            s.total_ms,
            s.self_ms,
            s.p50_us
        );
    }
    out.push_str("],\n\"spans\": [");
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == NONE {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = write!(
            out,
            "{}\n[{id},{parent},{},\"{}\",{},{}]",
            if id == 0 { "" } else { "," },
            s.op,
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            sp("op", NONE, 0, 100),
            sp("a", 0, 10, 40),
            // overlaps `a` on 30..40: the union covers 10..60
            sp("b", 0, 30, 60),
            sp("leaf", 1, 15, 20),
            // sticks out of its parent: only 90..100 counts
            sp("late", 0, 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 30]);
    }

    #[test]
    fn summary_adds_up() {
        let spans = vec![
            sp("op", NONE, 0, 1_000),
            sp("call", 0, 100, 900),
            sp("op", NONE, 1_000, 4_000),
            sp("call", 2, 1_500, 3_500),
        ];
        let rows = summarize(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].name, rows[0].count), ("op", 2));
        assert!((rows[0].total_ms - 0.004).abs() < 1e-12);
        assert!((rows[0].self_ms - 0.0012).abs() < 1e-12);
        assert!((rows[1].total_ms - 0.0028).abs() < 1e-12);
        assert!((rows[1].p50_us - 1.4).abs() < 1e-12);
        // self times partition the root spans' total
        let all_self: f64 = rows.iter().map(|r| r.self_ms).sum();
        assert!((all_self - rows[0].total_ms).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_forks_and_serializes() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_op(7);
        let outer = t.begin("outer");
        let v = t.span("inner", || 5);
        t.end(outer);
        assert_eq!(v, 5);
        let mut other = t.fork();
        other.set_op(8);
        let o = other.begin("outer");
        other.span("inner", || ());
        other.end(o);
        t.absorb(other);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[1].op), (0, 7));
        assert_eq!((s[2].parent, s[3].parent, s[3].op), (NONE, 2, 8));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let text = to_json("w", 3, s);
        assert!(text.starts_with("{\"workload\": \"w\", \"seed\": 3,"));
        assert_eq!(text.matches("\n {\"name\": ").count(), 2);
        assert_eq!(text.matches("\n[").count(), 4);
        assert!(text.contains("\n[3,2,8,\"inner\","));
        assert!(text.ends_with("]}\n"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("x");
        t.end(id);
        assert_eq!(t.span("y", || 1), 1);
        assert!(t.spans().is_empty());
    }
}
