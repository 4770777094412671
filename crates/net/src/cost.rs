//! The virtual-time cost model.
//!
//! The paper ran on Amazon EC2 General Purpose instances; the defaults
//! here are in that regime: a few nanoseconds per basic graph
//! operation, sub-millisecond one-way latency inside a region, and
//! ~100 MB/s effective per-flow bandwidth. The absolute values only
//! scale the virtual clock — the *shapes* of the PT curves (what the
//! experiments verify) are governed by the ratios, which are
//! configurable per experiment.
//!
//! The model is deterministic: every delivery takes exactly `latency +
//! bytes / bandwidth`. Perturbed schedules (retries, duplicates,
//! delays) come from a [`crate::DeliveryPlan`] given to the executor.

/// Parameters of the discrete-event simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Nanoseconds of site busy time per charged basic operation.
    pub ns_per_op: f64,
    /// Fixed per-message handling overhead at the receiver, in ns.
    pub ns_per_message: u64,
    /// One-way network latency in ns.
    pub latency_ns: u64,
    /// Network bandwidth in bytes per nanosecond (0.1 = 100 MB/s).
    pub bytes_per_ns: f64,
    /// Per-site speed factors (heterogeneous hardware / stragglers):
    /// site `i` runs at `site_speed[i]` × the base speed, so a factor
    /// of `0.25` makes that site 4× slower. Sites beyond the vector's
    /// length (and the coordinator) run at factor 1. Only the
    /// virtual-time executor interprets this — wall clock cannot be
    /// slowed down honestly.
    pub site_speed: Vec<f64>,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            ns_per_op: 5.0,
            ns_per_message: 10_000, // 10 µs dispatch overhead
            latency_ns: 500_000,    // 0.5 ms one-way
            bytes_per_ns: 0.1,      // 100 MB/s
            site_speed: Vec::new(),
        }
    }
}

impl CostModel {
    /// A model with zero network costs — virtual time then measures
    /// pure computation, useful in tests.
    pub fn compute_only() -> Self {
        CostModel {
            ns_per_op: 1.0,
            ns_per_message: 0,
            latency_ns: 0,
            bytes_per_ns: f64::INFINITY,
            site_speed: Vec::new(),
        }
    }

    /// Returns a copy with site `site` slowed down by `slowdown`
    /// (e.g. `4.0` = a 4× straggler).
    ///
    /// # Panics
    /// Panics on a non-positive slowdown.
    pub fn with_straggler(mut self, site: usize, slowdown: f64) -> Self {
        assert!(slowdown > 0.0, "slowdown must be positive");
        if self.site_speed.len() <= site {
            self.site_speed.resize(site + 1, 1.0);
        }
        self.site_speed[site] = 1.0 / slowdown;
        self
    }

    /// The speed factor of site `i` (1.0 unless configured).
    pub fn speed_of(&self, site: usize) -> f64 {
        self.site_speed.get(site).copied().unwrap_or(1.0)
    }

    /// Busy time of `ops` charged operations at site `site`
    /// (`None` = coordinator, which always runs at base speed).
    pub fn compute_ns_at(&self, site: Option<usize>, ops: u64) -> u64 {
        let speed = site.map_or(1.0, |i| self.speed_of(i));
        (ops as f64 * self.ns_per_op / speed).round() as u64
    }

    /// Transfer time of a `bytes`-sized message, excluding latency.
    pub fn transfer_ns(&self, bytes: usize) -> u64 {
        if self.bytes_per_ns.is_infinite() {
            0
        } else {
            (bytes as f64 / self.bytes_per_ns).round() as u64
        }
    }

    /// Busy time of `ops` charged operations.
    pub fn compute_ns(&self, ops: u64) -> u64 {
        (ops as f64 * self.ns_per_op).round() as u64
    }

    /// Full delivery delay of a message: latency plus transfer.
    pub fn delivery_ns(&self, bytes: usize) -> u64 {
        self.latency_ns + self.transfer_ns(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ec2_like() {
        let c = CostModel::default();
        assert_eq!(c.latency_ns, 500_000);
        // 1 KB at 100 MB/s = 10 µs.
        assert_eq!(c.transfer_ns(1_000), 10_000);
        assert_eq!(c.delivery_ns(1_000), 510_000);
    }

    #[test]
    fn compute_only_has_free_network() {
        let c = CostModel::compute_only();
        assert_eq!(c.delivery_ns(1 << 20), 0);
        assert_eq!(c.compute_ns(42), 42);
    }

    #[test]
    fn compute_scales_with_ops() {
        let c = CostModel::default();
        assert_eq!(c.compute_ns(100), 500);
    }

    #[test]
    fn straggler_slows_one_site_only() {
        let c = CostModel::default().with_straggler(2, 4.0);
        assert_eq!(c.speed_of(0), 1.0);
        assert_eq!(c.speed_of(2), 0.25);
        assert_eq!(c.speed_of(99), 1.0);
        assert_eq!(c.compute_ns_at(Some(0), 100), 500);
        assert_eq!(c.compute_ns_at(Some(2), 100), 2_000);
        assert_eq!(c.compute_ns_at(None, 100), 500);
    }

    #[test]
    #[should_panic(expected = "slowdown must be positive")]
    fn zero_slowdown_rejected() {
        let _ = CostModel::default().with_straggler(0, 0.0);
    }
}
