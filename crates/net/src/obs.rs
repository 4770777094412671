//! Server observability: a registry of named counters, gauges and
//! latency histograms with Prometheus-style text exposition, and a
//! leveled rate-limited structured logger.
//!
//! The registry is the one source of truth for everything `dgsd`
//! reports about itself: the `METRICS` wire frame and the
//! `--metrics-addr` text endpoint both render a
//! [`MetricsSnapshot`] taken from the same [`MetricsRegistry`], so
//! the two expositions can never disagree about a counter.
//!
//! Handles are cheap to clone and cheap to hit: a [`Counter`] or
//! [`Gauge`] is one relaxed atomic op, a [`Histo`] is one short
//! mutex-protected O(1) bucket increment (reusing the log-bucketed
//! [`LatencyHistogram`]). A registry built with
//! [`MetricsRegistry::disabled`] hands out no-op handles — every
//! `inc`/`record` is a branch on a `None` — which is what makes the
//! measured on-vs-off overhead comparison honest.
//!
//! Metric names carry their labels inline in Prometheus form
//! (`dgsd_request_ns{frame="QUERY"}`): the registry does not parse
//! them, it only keys on the full spelling, so label handling stays
//! in the instrumentation site that knows the label values.

use crate::metrics::LatencyHistogram;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonically increasing counter handle. No-op when the
/// registry is disabled.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(v) = &self.0 {
            v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |v| v.load(Ordering::Relaxed))
    }
}

/// A settable gauge handle (current queue depth, live subscriptions).
/// `inc`/`dec` must be paired by the caller. No-op when disabled.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, n: u64) {
        if let Some(v) = &self.0 {
            v.store(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        if let Some(v) = &self.0 {
            v.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Subtracts 1 (saturating: an unmatched `dec` parks at 0 instead
    /// of wrapping to `u64::MAX` and poisoning the exposition).
    pub fn dec(&self) {
        if let Some(v) = &self.0 {
            let _ = v.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(1))
            });
        }
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |v| v.load(Ordering::Relaxed))
    }
}

/// A latency-histogram handle: records dimensionless `u64`s (the
/// serving layer records nanoseconds). No-op when disabled.
#[derive(Clone, Default)]
pub struct Histo(Option<Arc<Mutex<LatencyHistogram>>>);

impl Histo {
    /// Records one value.
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.lock().record(v);
        }
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        if let Some(h) = &self.0 {
            h.lock().record_duration(d);
        }
    }
}

/// The metric tables, keyed by full labeled name. `BTreeMap` so every
/// snapshot and exposition comes out in one stable, sorted order.
#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Mutex<LatencyHistogram>>>>,
}

/// A registry of named metrics. Clones share the tables; handles
/// outlive lookups (registration is get-or-create, so two sites
/// naming the same metric share one cell).
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<RegistryInner>>,
}

impl MetricsRegistry {
    /// An enabled registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// A disabled registry: every handle it hands out is a no-op and
    /// [`MetricsRegistry::snapshot`] is empty. This is the "metrics
    /// off" half of the instrumentation-overhead measurement.
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry { inner: None }
    }

    /// Whether handles record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Get-or-create the counter `name` (full labeled spelling, e.g.
    /// `dgsd_requests_total{frame="QUERY"}`).
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|i| {
            Arc::clone(
                i.counters
                    .lock()
                    .entry(name.to_owned())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        }))
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| {
            Arc::clone(
                i.gauges
                    .lock()
                    .entry(name.to_owned())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        }))
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histo {
        Histo(self.inner.as_ref().map(|i| {
            Arc::clone(
                i.histograms
                    .lock()
                    .entry(name.to_owned())
                    .or_insert_with(|| Arc::new(Mutex::new(LatencyHistogram::new()))),
            )
        }))
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(i) = &self.inner else {
            return MetricsSnapshot::default();
        };
        let counters = i
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = i
            .gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = i
            .histograms
            .lock()
            .iter()
            .map(|(k, h)| {
                let h = h.lock();
                HistogramSummary {
                    name: k.clone(),
                    count: h.count(),
                    min: h.min(),
                    max: h.max(),
                    p50: h.p50(),
                    p95: h.p95(),
                    p99: h.p99(),
                }
            })
            .collect();
        MetricsSnapshot {
            version: METRICS_SNAPSHOT_VERSION,
            counters,
            gauges,
            histograms,
        }
    }
}

/// Schema version of [`MetricsSnapshot`] — carried in the `METRICS`
/// wire frame so a peer can refuse a snapshot layout it does not
/// speak.
pub const METRICS_SNAPSHOT_VERSION: u32 = 1;

/// Quantile summary of one registered histogram, values in the
/// histogram's own unit (the serving layer records nanoseconds).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Full labeled metric name.
    pub name: String,
    /// Recorded samples.
    pub count: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// A point-in-time copy of a [`MetricsRegistry`]: what the `METRICS`
/// wire frame carries and the text endpoint renders. All integer
/// valued — the exposition can never print a NaN.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Schema version ([`METRICS_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistogramSummary>,
}

crate::wire_struct!(HistogramSummary {
    name,
    count,
    min,
    max,
    p50,
    p95,
    p99,
});

crate::wire_struct!(MetricsSnapshot {
    version,
    counters,
    gauges,
    histograms,
});

/// Splits a labeled name into `(family, labels)`:
/// `a_total{x="y"}` → `("a_total", Some("x=\"y\""))`.
fn split_labels(name: &str) -> (&str, Option<&str>) {
    match name.find('{') {
        Some(at) => (&name[..at], Some(name[at + 1..].trim_end_matches('}'))),
        None => (name, None),
    }
}

/// Joins a family, an optional suffix, and label fragments back into
/// one series spelling.
fn series(family: &str, suffix: &str, labels: &[&str]) -> String {
    let labels: Vec<&str> = labels.iter().copied().filter(|l| !l.is_empty()).collect();
    if labels.is_empty() {
        format!("{family}{suffix}")
    } else {
        format!("{family}{suffix}{{{}}}", labels.join(","))
    }
}

impl MetricsSnapshot {
    /// Prometheus text exposition (version 0.0.4): `# TYPE` line per
    /// family, then one sample line per series. Histograms render as
    /// summaries — `<family>_count`, `<family>_min`/`_max`, and
    /// quantile-labeled `<family>{quantile="..."}` lines. All values
    /// are integers, so the output contains no NaN by construction.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, family: &str, kind: &str| {
            if family != last_family {
                out.push_str(&format!("# TYPE {family} {kind}\n"));
                last_family = family.to_owned();
            }
        };
        for (name, value) in &self.counters {
            let (family, _) = split_labels(name);
            type_line(&mut out, family, "counter");
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let (family, _) = split_labels(name);
            type_line(&mut out, family, "gauge");
            out.push_str(&format!("{name} {value}\n"));
        }
        for h in &self.histograms {
            let (family, labels) = split_labels(&h.name);
            let labels = labels.unwrap_or("");
            type_line(&mut out, family, "summary");
            out.push_str(&format!(
                "{} {}\n",
                series(family, "_count", &[labels]),
                h.count
            ));
            out.push_str(&format!(
                "{} {}\n",
                series(family, "_min", &[labels]),
                h.min
            ));
            out.push_str(&format!(
                "{} {}\n",
                series(family, "_max", &[labels]),
                h.max
            ));
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                out.push_str(&format!(
                    "{} {v}\n",
                    series(family, "", &[labels, &format!("quantile=\"{q}\"")])
                ));
            }
        }
        out
    }

    /// The value of counter `name`, if present (tests and the
    /// consistency check between the two expositions).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

// ---- the structured logger --------------------------------------------

/// Log severities, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// The daemon is broken or about to be.
    Error,
    /// Something went wrong but the daemon keeps serving.
    Warn,
    /// Lifecycle events (startup, shutdown, session churn).
    Info,
    /// Per-request chatter.
    Debug,
}

impl LogLevel {
    /// Parses a CLI spelling (`error`/`warn`/`info`/`debug`).
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s {
            "error" => Some(LogLevel::Error),
            "warn" | "warning" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }
}

/// Per-target rate-limit window state.
struct TargetWindow {
    window_start: Instant,
    emitted: u32,
    suppressed: u64,
}

/// How many lines one target may emit per window before the rest are
/// counted instead of printed.
const LOG_BURST: u32 = 5;
/// The rate-limit window.
const LOG_WINDOW: Duration = Duration::from_secs(1);

/// A leveled, per-target rate-limited structured logger writing
/// `key=value` lines to stderr. Rate limiting is per **target** (the
/// subsystem tag), so a flapping listener spamming `accept` failures
/// cannot flood stderr — after `LOG_BURST` (5) lines in a window the
/// rest are counted and reported as `suppressed=N` when the window
/// rolls.
pub struct Logger {
    level: LogLevel,
    start: Instant,
    windows: Mutex<HashMap<&'static str, TargetWindow>>,
}

impl Logger {
    /// A logger emitting `level` and more severe.
    pub fn new(level: LogLevel) -> Logger {
        Logger {
            level,
            start: Instant::now(),
            windows: Mutex::new(HashMap::new()),
        }
    }

    /// The configured threshold.
    pub fn level(&self) -> LogLevel {
        self.level
    }

    /// Logs one line if `level` passes the threshold and the target's
    /// rate limit. Returns whether the line was printed (tests).
    pub fn log(&self, level: LogLevel, target: &'static str, msg: &str) -> bool {
        if level > self.level {
            return false;
        }
        let mut windows = self.windows.lock();
        let now = Instant::now();
        let w = windows.entry(target).or_insert(TargetWindow {
            window_start: now,
            emitted: 0,
            suppressed: 0,
        });
        if now.duration_since(w.window_start) >= LOG_WINDOW {
            if w.suppressed > 0 {
                eprintln!(
                    "t={:.3} level=warn target={target} msg=\"rate limited\" suppressed={}",
                    self.start.elapsed().as_secs_f64(),
                    w.suppressed
                );
            }
            w.window_start = now;
            w.emitted = 0;
            w.suppressed = 0;
        }
        if w.emitted >= LOG_BURST {
            w.suppressed += 1;
            return false;
        }
        w.emitted += 1;
        eprintln!(
            "t={:.3} level={} target={target} msg={msg:?}",
            self.start.elapsed().as_secs_f64(),
            level.name()
        );
        true
    }

    /// [`LogLevel::Error`] shorthand.
    pub fn error(&self, target: &'static str, msg: &str) -> bool {
        self.log(LogLevel::Error, target, msg)
    }

    /// [`LogLevel::Warn`] shorthand.
    pub fn warn(&self, target: &'static str, msg: &str) -> bool {
        self.log(LogLevel::Warn, target, msg)
    }

    /// [`LogLevel::Info`] shorthand.
    pub fn info(&self, target: &'static str, msg: &str) -> bool {
        self.log(LogLevel::Info, target, msg)
    }

    /// [`LogLevel::Debug`] shorthand.
    pub fn debug(&self, target: &'static str, msg: &str) -> bool {
        self.log(LogLevel::Debug, target, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_round_trips_counters_gauges_histograms() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("dgsd_requests_total");
        c.inc();
        c.add(4);
        // A second lookup of the same name shares the cell.
        reg.counter("dgsd_requests_total").inc();
        let g = reg.gauge("dgsd_queue_depth");
        g.set(3);
        g.inc();
        g.dec();
        let h = reg.histogram("dgsd_request_ns{frame=\"PING\"}");
        for v in [100, 200, 300] {
            h.record(v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.version, METRICS_SNAPSHOT_VERSION);
        assert_eq!(snap.counter("dgsd_requests_total"), Some(6));
        assert_eq!(snap.gauge("dgsd_queue_depth"), Some(3));
        let hs = &snap.histograms[0];
        assert_eq!(hs.name, "dgsd_request_ns{frame=\"PING\"}");
        assert_eq!(hs.count, 3);
        assert_eq!(hs.min, 100);
        assert!(hs.p50 >= 100 && hs.max >= 300);
    }

    #[test]
    fn disabled_registry_is_a_no_op() {
        let reg = MetricsRegistry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
        let g = reg.gauge("y");
        g.set(9);
        assert_eq!(g.get(), 0);
        reg.histogram("z").record(5);
        assert_eq!(reg.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn gauge_dec_saturates_at_zero() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("g");
        g.dec();
        assert_eq!(g.get(), 0, "an unmatched dec must not wrap");
    }

    #[test]
    fn text_exposition_renders_families_and_quantiles() {
        let reg = MetricsRegistry::new();
        reg.counter("dgsd_requests_total{frame=\"PING\"}").add(7);
        reg.counter("dgsd_requests_total{frame=\"QUERY\"}").add(2);
        reg.gauge("dgsd_queue_depth").set(1);
        reg.histogram("dgsd_request_ns{frame=\"PING\"}")
            .record(1000);
        let text = reg.snapshot().to_text();
        assert!(text.contains("# TYPE dgsd_requests_total counter\n"));
        // One TYPE line covers both labeled series of the family.
        assert_eq!(text.matches("# TYPE dgsd_requests_total").count(), 1);
        assert!(text.contains("dgsd_requests_total{frame=\"PING\"} 7\n"));
        assert!(text.contains("dgsd_requests_total{frame=\"QUERY\"} 2\n"));
        assert!(text.contains("# TYPE dgsd_queue_depth gauge\n"));
        assert!(text.contains("dgsd_queue_depth 1\n"));
        assert!(text.contains("# TYPE dgsd_request_ns summary\n"));
        assert!(text.contains("dgsd_request_ns_count{frame=\"PING\"} 1\n"));
        assert!(text.contains("dgsd_request_ns{frame=\"PING\",quantile=\"0.5\"}"));
        assert!(!text.to_lowercase().contains("nan"));
    }

    #[test]
    fn unlabeled_histogram_renders_bare_quantile_label() {
        let reg = MetricsRegistry::new();
        reg.histogram("dgsd_worker_wait_ns").record(50);
        let text = reg.snapshot().to_text();
        assert!(text.contains("dgsd_worker_wait_ns_count 1\n"));
        assert!(text.contains("dgsd_worker_wait_ns{quantile=\"0.99\"}"));
    }

    #[test]
    fn logger_filters_by_level_and_rate_limits_per_target() {
        let log = Logger::new(LogLevel::Warn);
        assert!(!log.debug("accept", "quiet"));
        assert!(!log.info("accept", "quiet"));
        assert!(log.warn("accept", "one"));
        // The burst allows a few lines, then suppresses the flood.
        let mut printed = 1;
        for _ in 0..100 {
            if log.warn("accept", "flood") {
                printed += 1;
            }
        }
        assert_eq!(printed as u32, LOG_BURST, "flood capped at the burst");
        // A different target has its own window.
        assert!(log.error("worker", "independent"));
    }
}
