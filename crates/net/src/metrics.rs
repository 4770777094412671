//! Run metrics: the PT and DS quantities of the paper's figures, plus
//! the [`LatencyHistogram`] shared by the serving layer's telemetry
//! and traffic generator.

use std::time::Duration;

/// Aggregated metrics of a protocol run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Bytes of **data** messages — the paper's DS metric.
    pub data_bytes: u64,
    /// Number of data messages.
    pub data_messages: u64,
    /// Bytes of **control** messages (barriers, query broadcast).
    pub control_bytes: u64,
    /// Number of control messages.
    pub control_messages: u64,
    /// Bytes of **result** messages (final match collection).
    pub result_bytes: u64,
    /// Number of result messages.
    pub result_messages: u64,
    /// Total charged operations across all endpoints.
    pub total_ops: u64,
    /// Charged operations per worker site.
    pub site_ops: Vec<u64>,
    /// Messages **sent** by each worker site, all classes (the
    /// coordinator's sends are the difference to the class totals).
    /// The conformance suite uses these to bound per-site traffic
    /// across executors.
    pub site_msgs: Vec<u64>,
    /// Charged operations at the coordinator.
    pub coordinator_ops: u64,
    /// Virtual response time in ns (0 under the threaded and socket
    /// executors).
    pub virtual_time_ns: u64,
    /// Wall-clock duration of the run.
    pub wall_time: Duration,
    /// Number of quiescence rounds (phase barriers) the run used.
    pub quiescence_rounds: u64,
    /// Data messages delivered twice under a delivery plan
    /// ([`crate::DeliveryPlan`]); the duplicates are *also*
    /// counted in `data_messages`/`data_bytes`, since retransmission
    /// is real traffic.
    pub duplicated_messages: u64,
    /// Bytes of duplicated data messages.
    pub duplicated_bytes: u64,
    /// Queries answered from a session-level result cache instead of a
    /// protocol run. A cache hit ships **nothing**: all message and
    /// byte counters stay zero for the hit, and only this counter
    /// records that the query was served.
    pub cache_hits: u64,
}

/// Per-site accounting of one graph-update (delta) application: how
/// much of the batch each site absorbed and what it had to ship to
/// keep the maintained relation consistent. Aggregated by
/// `SimEngine::apply_delta` across the maintained entries of a
/// session; complements the run-level [`RunMetrics`] the same way
/// `site_ops` complements `total_ops`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteDeltaMetrics {
    /// The site.
    pub site: usize,
    /// Edge ops this site applied (it owns the source node).
    pub ops_applied: u64,
    /// Falsified in-node variables shipped to subscriber sites.
    pub falsifications_shipped: u64,
    /// Local match pairs revoked by incremental maintenance.
    pub pairs_revoked: u64,
    /// Local match pairs resurrected by insertion-side maintenance.
    pub pairs_resurrected: u64,
    /// Pairs of this site's own nodes that entered the affected area
    /// `AFF` of an insertion batch: false, label-compatible, and
    /// backward-reachable from an inserted edge. Each global pair is
    /// counted once, at its owner.
    pub affected_pairs: u64,
}

impl SiteDeltaMetrics {
    /// Field-wise accumulation (same-site entries from several
    /// maintenance runs).
    pub fn merge(&mut self, other: &SiteDeltaMetrics) {
        debug_assert_eq!(self.site, other.site, "merging different sites");
        self.ops_applied += other.ops_applied;
        self.falsifications_shipped += other.falsifications_shipped;
        self.pairs_revoked += other.pairs_revoked;
        self.pairs_resurrected += other.pairs_resurrected;
        self.affected_pairs += other.affected_pairs;
    }
}

impl RunMetrics {
    pub(crate) fn new(num_sites: usize) -> Self {
        RunMetrics {
            site_ops: vec![0; num_sites],
            site_msgs: vec![0; num_sites],
            ..Default::default()
        }
    }

    /// Records one sent message, attributing it to the sending
    /// endpoint's per-site counter.
    pub(crate) fn record_send_from(
        &mut self,
        from: crate::message::Endpoint,
        class: crate::message::MsgClass,
        bytes: usize,
    ) {
        if let crate::message::Endpoint::Site(i) = from {
            if let Some(slot) = self.site_msgs.get_mut(i as usize) {
                *slot += 1;
            }
        }
        self.record_send(class, bytes);
    }

    pub(crate) fn record_send(&mut self, class: crate::message::MsgClass, bytes: usize) {
        match class {
            crate::message::MsgClass::Data => {
                self.data_bytes += bytes as u64;
                self.data_messages += 1;
            }
            crate::message::MsgClass::Control => {
                self.control_bytes += bytes as u64;
                self.control_messages += 1;
            }
            crate::message::MsgClass::Result => {
                self.result_bytes += bytes as u64;
                self.result_messages += 1;
            }
        }
    }

    pub(crate) fn record_ops(&mut self, ep: crate::message::Endpoint, ops: u64) {
        self.total_ops += ops;
        match ep {
            crate::message::Endpoint::Coordinator => self.coordinator_ops += ops,
            crate::message::Endpoint::Site(i) => self.site_ops[i as usize] += ops,
        }
    }

    /// Virtual response time in milliseconds — the unit of the paper's
    /// PT plots (they report seconds; our scaled-down workloads land in
    /// ms).
    pub fn virtual_time_ms(&self) -> f64 {
        self.virtual_time_ns as f64 / 1.0e6
    }

    /// Data shipment in KB, the unit of the paper's DS plots.
    pub fn data_kb(&self) -> f64 {
        self.data_bytes as f64 / 1024.0
    }

    /// The largest per-site op count (a proxy for the parallel
    /// computation bottleneck).
    pub fn max_site_ops(&self) -> u64 {
        self.site_ops.iter().copied().max().unwrap_or(0)
    }

    /// Field-wise accumulation of another run's metrics (used to
    /// aggregate multi-query batches). Lives here so a new field
    /// cannot be forgotten by an out-of-crate copy of this list.
    pub fn merge(&mut self, other: &RunMetrics) {
        let RunMetrics {
            data_bytes,
            data_messages,
            control_bytes,
            control_messages,
            result_bytes,
            result_messages,
            total_ops,
            site_ops,
            site_msgs,
            coordinator_ops,
            virtual_time_ns,
            wall_time,
            quiescence_rounds,
            duplicated_messages,
            duplicated_bytes,
            cache_hits,
        } = other;
        self.data_bytes += data_bytes;
        self.data_messages += data_messages;
        self.control_bytes += control_bytes;
        self.control_messages += control_messages;
        self.result_bytes += result_bytes;
        self.result_messages += result_messages;
        self.total_ops += total_ops;
        self.coordinator_ops += coordinator_ops;
        self.virtual_time_ns += virtual_time_ns;
        self.wall_time += *wall_time;
        self.quiescence_rounds += quiescence_rounds;
        self.duplicated_messages += duplicated_messages;
        self.duplicated_bytes += duplicated_bytes;
        self.cache_hits += cache_hits;
        if self.site_ops.len() < site_ops.len() {
            self.site_ops.resize(site_ops.len(), 0);
        }
        for (t, s) in self.site_ops.iter_mut().zip(site_ops) {
            *t += s;
        }
        if self.site_msgs.len() < site_msgs.len() {
            self.site_msgs.resize(site_msgs.len(), 0);
        }
        for (t, s) in self.site_msgs.iter_mut().zip(site_msgs) {
            *t += s;
        }
    }
}

/// Linear sub-buckets per power of two. 32 sub-buckets bound the
/// relative quantile error by `1/32 ≈ 3%`.
const SUB_BUCKET_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;
/// One group of sub-buckets per possible bit length of a `u64` value
/// (bit length 0 is the dedicated zero bucket).
const BUCKETS: usize = (65 << SUB_BUCKET_BITS) as usize;

/// A log-bucketed latency histogram: `O(1)` recording, constant
/// memory, mergeable across threads, with quantile accessors whose
/// relative error is bounded by the sub-bucket resolution (≈ 3%).
///
/// Values are dimensionless `u64`s; the serving layer records
/// nanoseconds ([`LatencyHistogram::record_duration`]). Per-client
/// histograms are merged with [`LatencyHistogram::merge`] — merging is
/// exact (bucket counts add), so a fleet of closed-loop clients can
/// each record locally and the driver reports fleet-wide p50/p95/p99
/// without a shared lock on the hot path.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0u64; BUCKETS].into_boxed_slice().try_into().unwrap(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index of `v`: the bit length selects the octave, the
    /// next [`SUB_BUCKET_BITS`] bits select the linear sub-bucket.
    fn bucket_of(v: u64) -> usize {
        let bits = 64 - v.leading_zeros(); // 0 for v == 0
        if bits <= SUB_BUCKET_BITS {
            // Small values are exact: one bucket per value.
            return v as usize;
        }
        let shift = bits - 1 - SUB_BUCKET_BITS;
        let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
        ((bits as usize) << SUB_BUCKET_BITS) | sub
    }

    /// A representative value for bucket `i` (the largest value the
    /// bucket holds), inverse of [`Self::bucket_of`].
    fn bucket_high(i: usize) -> u64 {
        let bits = (i >> SUB_BUCKET_BITS) as u32;
        if bits == 0 {
            return (i & (SUB_BUCKETS - 1)) as u64;
        }
        let sub = (i & (SUB_BUCKETS - 1)) as u64;
        let shift = bits - 1 - SUB_BUCKET_BITS;
        // Top bit set, sub-bucket bits filled in, low bits saturated.
        (1u64 << (bits - 1)) | (sub << shift) | ((1u64 << shift) - 1)
    }

    /// Records one observation. Counts and the running sum saturate
    /// instead of overflowing: a histogram that has absorbed `u64::MAX`
    /// observations keeps reporting (slightly pessimistic) quantiles
    /// rather than panicking or wrapping.
    pub fn record(&mut self, v: u64) {
        let b = &mut self.counts[Self::bucket_of(v)];
        *b = b.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v as u128);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a wall-clock duration in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (`0` when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds every observation of `other` into `self` (exact; bucket
    /// counts add). Merging an empty histogram — in either direction —
    /// is the identity, and counts saturate instead of overflowing.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (t, s) in self.counts.iter_mut().zip(other.counts.iter()) {
            *t = t.saturating_add(*s);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q ∈ [0, 1]`: an upper bound of the
    /// bucket holding the `⌈q·count⌉`-th smallest observation, clamped
    /// to the observed maximum. `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("p50", &self.p50())
            .field("p95", &self.p95())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Endpoint, MsgClass};

    #[test]
    fn record_send_classifies() {
        let mut m = RunMetrics::new(2);
        m.record_send(MsgClass::Data, 100);
        m.record_send(MsgClass::Data, 50);
        m.record_send(MsgClass::Control, 8);
        m.record_send(MsgClass::Result, 300);
        assert_eq!(m.data_bytes, 150);
        assert_eq!(m.data_messages, 2);
        assert_eq!(m.control_bytes, 8);
        assert_eq!(m.result_bytes, 300);
        assert!((m.data_kb() - 150.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn record_ops_attributes_per_endpoint() {
        let mut m = RunMetrics::new(3);
        m.record_ops(Endpoint::Site(1), 10);
        m.record_ops(Endpoint::Site(1), 5);
        m.record_ops(Endpoint::Coordinator, 7);
        assert_eq!(m.site_ops, vec![0, 15, 0]);
        assert_eq!(m.coordinator_ops, 7);
        assert_eq!(m.total_ops, 22);
        assert_eq!(m.max_site_ops(), 15);
    }

    #[test]
    fn virtual_time_ms_conversion() {
        let m = RunMetrics {
            virtual_time_ns: 2_500_000,
            ..RunMetrics::new(0)
        };
        assert!((m.virtual_time_ms() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..=31u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.quantile(0.5), 15); // ceil(0.5*32) = 16th smallest = 15
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.quantile(0.0), 0);
    }

    #[test]
    fn histogram_quantile_error_is_bounded() {
        // Uniform 1..=100_000: every quantile estimate must be within
        // the sub-bucket resolution (1/32) of the true value.
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, truth) in &[(0.50, 50_000u64), (0.95, 95_000), (0.99, 99_000)] {
            let est = h.quantile(q);
            let err = (est as f64 - truth as f64).abs() / truth as f64;
            assert!(
                err <= 1.0 / 32.0 + 1e-9,
                "q={q}: estimate {est} vs true {truth} (relative error {err:.4})"
            );
            // A quantile estimate is the bucket's upper bound, so it
            // never understates below one resolution step.
            assert!(est as f64 >= truth as f64 * (1.0 - 1.0 / 32.0));
        }
        assert_eq!(h.max(), 100_000);
        assert!((h.mean() - 50_000.5).abs() / 50_000.5 < 1e-9);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = (i * 2_654_435_761) % 1_000_000 + 1;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q), "quantile {q}");
        }
    }

    #[test]
    fn histogram_quantiles_clamp_to_observed_max() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_003);
        assert_eq!(h.p50(), 1_000_003);
        assert_eq!(h.p99(), 1_000_003);
        h.record_duration(Duration::from_nanos(17));
        assert_eq!(h.min(), 17);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn histogram_empty_merge_is_identity() {
        let mut a = LatencyHistogram::new();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 0);
        assert_eq!(a.p99(), 0);
        assert_eq!(a.mean(), 0.0);

        // Empty into non-empty and non-empty into empty agree.
        let mut src = LatencyHistogram::new();
        src.record(1_234);
        let mut ne = src.clone();
        ne.merge(&LatencyHistogram::new());
        let mut e = LatencyHistogram::new();
        e.merge(&src);
        for h in [&ne, &e] {
            assert_eq!(h.count(), 1);
            assert_eq!(h.min(), 1_234);
            assert_eq!(h.max(), 1_234);
        }
    }

    #[test]
    fn histogram_single_sample_quantiles_are_the_sample() {
        let mut h = LatencyHistogram::new();
        h.record(777);
        assert_eq!(h.p50(), 777);
        assert_eq!(h.p95(), 777);
        assert_eq!(h.p99(), 777);
        assert_eq!(h.quantile(0.0), 777);
        assert_eq!(h.quantile(1.0), 777);
        assert!(!h.mean().is_nan());
        assert_eq!(h.mean(), 777.0);
    }

    #[test]
    fn histogram_saturates_instead_of_overflowing() {
        // Extreme values record without panicking...
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 0);
        // ...and a count already at the u64 ceiling saturates on both
        // the record and merge paths instead of wrapping.
        let mut big = LatencyHistogram::new();
        big.record(5);
        big.count = u64::MAX;
        big.counts[LatencyHistogram::bucket_of(5)] = u64::MAX;
        big.sum = u128::MAX;
        big.record(5);
        assert_eq!(big.count(), u64::MAX);
        let mut other = LatencyHistogram::new();
        other.record(5);
        big.merge(&other);
        assert_eq!(big.count(), u64::MAX);
        // Quantiles stay finite, non-NaN numbers.
        assert!(big.p99() >= 5);
        assert!(!big.mean().is_nan());
    }
}
