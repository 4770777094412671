//! Deterministic discrete-event executor.
//!
//! Sites and the coordinator are sequential event handlers with a
//! `ready_at` clock; a handler invoked by a message arriving at `t`
//! starts at `max(t, ready_at)`, runs for `charged ops × ns_per_op`
//! (plus a fixed per-message overhead), and its sends are delivered
//! after `latency + bytes / bandwidth`. When the event queue drains,
//! the coordinator's `on_quiescent` runs at the instant the last
//! handler finished — the idealized fixpoint-detection barrier.
//!
//! Everything is ordered by `(time, sequence-number)`, so runs are
//! fully deterministic and independent of host parallelism: this is
//! what lets a laptop reproduce the response-time *shape* of a
//! 20-machine cluster: one simulated site per machine, whatever the
//! host's core count.

use crate::cost::CostModel;
use crate::delivery::{DeliveryPlan, Verdict, RETRY_NS};
use crate::driver::{Barrier, RunDriver};
use crate::message::{Endpoint, WireSize};
use crate::site::{CoordinatorLogic, Outbox, SiteLogic};
use crate::{ExecError, RunOutcome};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::convert::Infallible;

struct Event<M> {
    at: u64,
    seq: u64,
    from: Endpoint,
    to: Endpoint,
    msg: M,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The virtual executor's transport: the event heap and every
/// endpoint's clock. A plan's delays are virtual time, so its driver
/// holds nothing back.
struct Clock<'a, M> {
    cost: &'a CostModel,
    heap: BinaryHeap<Event<M>>,
    seq: u64,
    /// When each site (`0..n`) and the coordinator (`n`) finishes its
    /// last handler.
    ready: Vec<u64>,
}

impl<M: WireSize + Clone> Clock<'_, M> {
    /// Finishes a handler invocation: advances the endpoint's clock and
    /// schedules its sends. Returns when the handler finished.
    fn finish<C>(
        &mut self,
        driver: &mut RunDriver<C, Infallible>,
        ep: Endpoint,
        arrival: u64,
        overhead: u64,
        out: Outbox<M>,
    ) -> u64 {
        let slot = ep.site_index().unwrap_or(self.ready.len() - 1);
        let start = arrival.max(self.ready[slot]);
        let end = start + self.cost.compute_ns_at(ep.site_index(), out.ops) + overhead;
        self.ready[slot] = end;
        driver.record_ops(ep, out.ops);
        for (to, class, msg) in out.sends {
            let bytes = msg.wire_size();
            let at = end + self.cost.delivery_ns(bytes);
            let delay = match driver.send(ep, to, class, bytes) {
                Verdict::Pass => 0,
                Verdict::DropRetry => RETRY_NS,
                Verdict::Delay(extra_ns) => extra_ns,
                Verdict::Duplicate => {
                    self.push(at + RETRY_NS, ep, to, msg.clone());
                    0
                }
            };
            self.push(at + delay, ep, to, msg);
        }
        end
    }

    fn push(&mut self, at: u64, from: Endpoint, to: Endpoint, msg: M) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Event {
            at,
            seq,
            from,
            to,
            msg,
        });
    }
}

/// The deterministic discrete-event executor.
pub struct VirtualExecutor {
    cost: CostModel,
    delivery: Option<DeliveryPlan>,
    start_workers: usize,
}

impl VirtualExecutor {
    /// Creates an executor with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        VirtualExecutor {
            cost,
            delivery: None,
            start_workers: 1,
        }
    }

    /// Applies a [`DeliveryPlan`] to every run: a retried or duplicated
    /// copy arrives [`RETRY_NS`] after the on-time one, a delayed
    /// message up to that much late.
    pub fn with_delivery(mut self, plan: DeliveryPlan) -> Self {
        self.delivery = Some(plan);
        self
    }

    /// Fans the per-site `on_start` handlers (the Phase-1 local
    /// evaluations, by far the heaviest handlers of the dGPM family)
    /// out over up to `workers` OS threads. The outboxes are replayed
    /// in site order on the driving thread afterwards, so sequence
    /// numbers, the event heap and every virtual quantity are
    /// bit-identical to the sequential executor — this is host
    /// parallelism *under* the virtual clock, not a semantic change.
    /// `workers <= 1` (and single-site runs) keep the fully
    /// sequential path.
    pub fn with_start_workers(mut self, workers: usize) -> Self {
        self.start_workers = workers.max(1);
        self
    }

    /// Runs the protocol to completion; see [`crate::run`].
    ///
    /// # Panics
    /// Panics when the protocol stalls; [`Self::try_run`] returns the
    /// typed error instead.
    pub fn run<M, C, S>(&self, coordinator: C, sites: Vec<S>) -> RunOutcome<C, S>
    where
        M: WireSize + Clone + Send,
        C: CoordinatorLogic<M>,
        S: SiteLogic<M> + Send,
    {
        self.try_run(coordinator, sites)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the protocol to completion, or fails with
    /// [`ExecError::Stalled`] when `on_quiescent` neither finishes nor
    /// sends.
    pub fn try_run<M, C, S>(
        &self,
        coordinator: C,
        mut sites: Vec<S>,
    ) -> Result<RunOutcome<C, S>, ExecError>
    where
        M: WireSize + Clone + Send,
        C: CoordinatorLogic<M>,
        S: SiteLogic<M> + Send,
    {
        let n = sites.len();
        let mut driver = RunDriver::new(coordinator, n, self.delivery);
        let mut clock = Clock {
            cost: &self.cost,
            heap: BinaryHeap::new(),
            seq: 0,
            ready: vec![0; n + 1],
        };

        // Start-up handlers, all at t = 0.
        let out = driver.start();
        clock.finish(&mut driver, Endpoint::Coordinator, 0, 0, out);
        // Site start handlers: optionally evaluated on a scoped pool
        // (disjoint `&mut` sites handed out via a shared work queue),
        // then *replayed* strictly in site order so seq assignment —
        // and with it the whole event schedule — matches the
        // sequential path bit for bit. The caller parks on purpose: if
        // it worked the queue too, a new thread would run only once the
        // other core woke for it, and a core that wakes too late stays
        // unused — a pool with a share for the caller flipped between
        // 2x and 1x for seconds at a time (CHANGES.md, PR 15).
        let workers = self.start_workers.min(n);
        let start_outs: Vec<Outbox<M>> = if workers > 1 {
            let mut slots: Vec<Option<Outbox<M>>> = (0..n).map(|_| None).collect();
            {
                let jobs =
                    std::sync::Mutex::new(sites.iter_mut().zip(slots.iter_mut()).enumerate());
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(|| loop {
                            let job = jobs.lock().unwrap().next();
                            let Some((i, (site, slot))) = job else { break };
                            let ep = Endpoint::Site(i as u32);
                            let mut out = Outbox::new(ep, n);
                            site.on_start(&mut out);
                            *slot = Some(out);
                        });
                    }
                });
            }
            slots
                .into_iter()
                .map(|s| s.expect("every start job ran"))
                .collect()
        } else {
            sites
                .iter_mut()
                .enumerate()
                .map(|(i, site)| {
                    let mut out = Outbox::new(Endpoint::Site(i as u32), n);
                    site.on_start(&mut out);
                    out
                })
                .collect()
        };
        for (i, out) in start_outs.into_iter().enumerate() {
            clock.finish(&mut driver, Endpoint::Site(i as u32), 0, 0, out);
        }

        loop {
            while let Some(ev) = clock.heap.pop() {
                let out = match ev.to {
                    Endpoint::Coordinator => driver.deliver(ev.from, ev.msg),
                    Endpoint::Site(i) => {
                        let mut out = Outbox::new(ev.to, n);
                        sites[i as usize].on_message(ev.from, ev.msg, &mut out);
                        out
                    }
                };
                let overhead = self.cost.ns_per_message;
                clock.finish(&mut driver, ev.to, ev.at, overhead, out);
            }

            // Quiescent: all deliveries processed; the barrier fires
            // once every endpoint has finished its last handler.
            let now = clock.ready.iter().copied().max().unwrap_or(0);
            match driver.quiescent()? {
                Barrier::Release(_) => unreachable!("virtual time holds no message back"),
                Barrier::Fired { done, out } => {
                    let end = clock.finish(&mut driver, Endpoint::Coordinator, now, 0, out);
                    if done {
                        driver.metrics.virtual_time_ns = end;
                        return Ok(driver.finish(sites));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ping-pong: coordinator sends `k` to site 0; site replies `k-1`;
    /// repeat until 0.
    struct PingCoord {
        start: u32,
        finished: bool,
    }
    struct PongSite;

    impl CoordinatorLogic<u32> for PingCoord {
        fn on_start(&mut self, out: &mut Outbox<u32>) {
            out.send(Endpoint::Site(0), self.start);
        }
        fn on_message(&mut self, _from: Endpoint, msg: u32, out: &mut Outbox<u32>) {
            out.charge_ops(1);
            if msg == 0 {
                self.finished = true;
            } else {
                out.send(Endpoint::Site(0), msg);
            }
        }
        fn on_quiescent(&mut self, _out: &mut Outbox<u32>) -> bool {
            assert!(self.finished, "quiesced before finishing");
            true
        }
    }
    impl SiteLogic<u32> for PongSite {
        fn on_start(&mut self, _out: &mut Outbox<u32>) {}
        fn on_message(&mut self, from: Endpoint, msg: u32, out: &mut Outbox<u32>) {
            out.charge_ops(10);
            out.send(from, msg - 1);
        }
    }

    #[test]
    fn ping_pong_terminates_with_metrics() {
        let exec = VirtualExecutor::new(CostModel::default());
        let outcome = exec.run(
            PingCoord {
                start: 5,
                finished: false,
            },
            vec![PongSite],
        );
        assert!(outcome.coordinator.finished);
        // 5 pings + 5 pongs.
        assert_eq!(outcome.metrics.data_messages, 10);
        assert_eq!(outcome.metrics.data_bytes, 40);
        assert_eq!(outcome.metrics.site_ops, vec![50]);
        assert_eq!(outcome.metrics.coordinator_ops, 5);
        assert_eq!(outcome.metrics.quiescence_rounds, 1);
        assert!(outcome.metrics.virtual_time_ns > 10 * CostModel::default().latency_ns);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let exec = VirtualExecutor::new(CostModel::default());
            let mut m = exec
                .run(
                    PingCoord {
                        start: 8,
                        finished: false,
                    },
                    vec![PongSite],
                )
                .metrics;
            // Wall time is real time and legitimately varies; all the
            // virtual quantities must be bit-identical.
            m.wall_time = std::time::Duration::ZERO;
            m
        };
        assert_eq!(run(), run());
    }

    /// A two-phase protocol: phase 1 scatters to all sites; at the
    /// first quiescence the coordinator starts phase 2; the second
    /// quiescence terminates.
    struct TwoPhase {
        phase: u32,
    }
    struct EchoSite {
        received: u32,
    }
    impl CoordinatorLogic<u32> for TwoPhase {
        fn on_start(&mut self, out: &mut Outbox<u32>) {
            for i in 0..out.num_sites() {
                out.send_control(Endpoint::Site(i as u32), 1);
            }
        }
        fn on_message(&mut self, _from: Endpoint, _msg: u32, _out: &mut Outbox<u32>) {}
        fn on_quiescent(&mut self, out: &mut Outbox<u32>) -> bool {
            self.phase += 1;
            if self.phase == 1 {
                for i in 0..out.num_sites() {
                    out.send_control(Endpoint::Site(i as u32), 2);
                }
                false
            } else {
                true
            }
        }
    }
    impl SiteLogic<u32> for EchoSite {
        fn on_start(&mut self, _out: &mut Outbox<u32>) {}
        fn on_message(&mut self, _from: Endpoint, msg: u32, out: &mut Outbox<u32>) {
            self.received += msg;
            out.send_result(Endpoint::Coordinator, msg);
        }
    }

    #[test]
    fn multi_phase_quiescence() {
        let exec = VirtualExecutor::new(CostModel::compute_only());
        let outcome = exec.run(
            TwoPhase { phase: 0 },
            vec![EchoSite { received: 0 }, EchoSite { received: 0 }],
        );
        assert_eq!(outcome.metrics.quiescence_rounds, 2);
        assert_eq!(outcome.metrics.control_messages, 4);
        assert_eq!(outcome.metrics.result_messages, 4);
        for s in &outcome.sites {
            assert_eq!(s.received, 3);
        }
    }

    /// Parallelism check: k sites each charging W ops in their start
    /// handler finish in ~W time, not k*W — the virtual clock models
    /// one processor per site.
    struct NullCoord;
    impl CoordinatorLogic<()> for NullCoord {
        fn on_start(&mut self, _out: &mut Outbox<()>) {}
        fn on_message(&mut self, _f: Endpoint, _m: (), _o: &mut Outbox<()>) {}
        fn on_quiescent(&mut self, _out: &mut Outbox<()>) -> bool {
            true
        }
    }
    struct BusySite {
        work: u64,
    }
    impl SiteLogic<()> for BusySite {
        fn on_start(&mut self, out: &mut Outbox<()>) {
            out.charge_ops(self.work);
        }
        fn on_message(&mut self, _f: Endpoint, _m: (), _o: &mut Outbox<()>) {}
    }

    #[test]
    fn sites_run_in_parallel_in_virtual_time() {
        let exec = VirtualExecutor::new(CostModel::compute_only());
        let one = exec.run(NullCoord, vec![BusySite { work: 1_000 }]);
        let many = exec.run(
            NullCoord,
            (0..8).map(|_| BusySite { work: 1_000 }).collect(),
        );
        assert_eq!(one.metrics.virtual_time_ns, many.metrics.virtual_time_ns);
        assert_eq!(many.metrics.total_ops, 8_000);
    }

    #[test]
    fn straggler_dominates_response_time() {
        // 8 equal sites; slowing one by 10× stretches the virtual
        // response time by ~10× (the barrier waits for the straggler).
        let fast = VirtualExecutor::new(CostModel::compute_only());
        let base = fast
            .run(
                NullCoord,
                (0..8).map(|_| BusySite { work: 1_000 }).collect(),
            )
            .metrics
            .virtual_time_ns;
        let slow = VirtualExecutor::new(CostModel::compute_only().with_straggler(3, 10.0));
        let slowed = slow
            .run(
                NullCoord,
                (0..8).map(|_| BusySite { work: 1_000 }).collect(),
            )
            .metrics
            .virtual_time_ns;
        assert_eq!(base, 1_000);
        assert_eq!(slowed, 10_000);
    }

    #[test]
    fn duplication_inflates_traffic_and_redelivers() {
        // Count deliveries at the site: with duplicate_rate = 1 every
        // data message arrives twice.
        struct CountSite {
            seen: u64,
        }
        impl SiteLogic<u32> for CountSite {
            fn on_start(&mut self, _out: &mut Outbox<u32>) {}
            fn on_message(&mut self, _f: Endpoint, _m: u32, _o: &mut Outbox<u32>) {
                self.seen += 1;
            }
        }
        struct SendThree;
        impl CoordinatorLogic<u32> for SendThree {
            fn on_start(&mut self, out: &mut Outbox<u32>) {
                for k in 0..3 {
                    out.send(Endpoint::Site(0), k);
                }
            }
            fn on_message(&mut self, _f: Endpoint, _m: u32, _o: &mut Outbox<u32>) {}
            fn on_quiescent(&mut self, _out: &mut Outbox<u32>) -> bool {
                true
            }
        }
        let exec = VirtualExecutor::new(CostModel::default())
            .with_delivery(DeliveryPlan::duplicating(1.0, 0));
        let outcome = exec.run(SendThree, vec![CountSite { seen: 0 }]);
        assert_eq!(outcome.sites[0].seen, 6);
        assert_eq!(outcome.metrics.duplicated_messages, 3);
        assert_eq!(outcome.metrics.data_messages, 6);
        assert_eq!(
            outcome.metrics.duplicated_bytes * 2,
            outcome.metrics.data_bytes
        );
    }

    #[test]
    fn control_and_result_traffic_is_never_duplicated() {
        let exec = VirtualExecutor::new(CostModel::compute_only())
            .with_delivery(DeliveryPlan::duplicating(1.0, 0));
        let outcome = exec.run(
            TwoPhase { phase: 0 },
            vec![EchoSite { received: 0 }, EchoSite { received: 0 }],
        );
        assert_eq!(outcome.metrics.duplicated_messages, 0);
        assert_eq!(outcome.metrics.control_messages, 4);
        assert_eq!(outcome.metrics.result_messages, 4);
        for s in &outcome.sites {
            assert_eq!(s.received, 3);
        }
    }

    #[test]
    fn dropped_and_delayed_messages_arrive_once_and_late() {
        let run = |plan: Option<DeliveryPlan>| {
            let mut exec = VirtualExecutor::new(CostModel::default());
            if let Some(plan) = plan {
                exec = exec.with_delivery(plan);
            }
            let coord = PingCoord {
                start: 4,
                finished: false,
            };
            exec.run(coord, vec![PongSite]).metrics
        };
        let on_time = run(None);
        let dropped = run(Some(DeliveryPlan::new(1.0, 0.0, 0.0, 0)));
        let delayed = run(Some(DeliveryPlan::new(0.0, 0.0, 1.0, 0)));
        for m in [&dropped, &delayed] {
            // Each of the 4 pings arrives once; no copy is extra traffic.
            assert_eq!(m.data_messages, on_time.data_messages);
            assert_eq!(m.duplicated_messages, 0);
        }
        // Only the pings are site-bound: each retry is RETRY_NS late,
        // each delay less.
        let t = on_time.virtual_time_ns;
        assert_eq!(dropped.virtual_time_ns, t + 4 * RETRY_NS);
        assert!((t + 1..t + 4 * RETRY_NS).contains(&delayed.virtual_time_ns));
    }

    /// The pooled start path must be bit-identical to the sequential
    /// one: same metrics, same message arrival order at the
    /// coordinator, same virtual clock.
    #[test]
    fn pooled_start_is_bit_identical_to_sequential() {
        struct StartSite {
            id: u32,
        }
        impl SiteLogic<u32> for StartSite {
            fn on_start(&mut self, out: &mut Outbox<u32>) {
                // Uneven work so threads genuinely finish out of order.
                out.charge_ops(1 + 997 * (self.id as u64 % 5));
                out.send(Endpoint::Coordinator, self.id);
                if self.id.is_multiple_of(2) {
                    out.send_control(Endpoint::Coordinator, 1_000 + self.id);
                }
            }
            fn on_message(&mut self, _f: Endpoint, _m: u32, _o: &mut Outbox<u32>) {}
        }
        struct Collect {
            seen: Vec<u32>,
        }
        impl CoordinatorLogic<u32> for Collect {
            fn on_start(&mut self, _out: &mut Outbox<u32>) {}
            fn on_message(&mut self, _f: Endpoint, msg: u32, _o: &mut Outbox<u32>) {
                self.seen.push(msg);
            }
            fn on_quiescent(&mut self, _out: &mut Outbox<u32>) -> bool {
                true
            }
        }
        let run = |workers: usize| {
            let exec = VirtualExecutor::new(CostModel::default()).with_start_workers(workers);
            let mut outcome = exec.run(
                Collect { seen: Vec::new() },
                (0..16).map(|id| StartSite { id }).collect(),
            );
            outcome.metrics.wall_time = std::time::Duration::ZERO;
            (outcome.coordinator.seen, outcome.metrics)
        };
        let sequential = run(1);
        for workers in [2, 4, 16, 64] {
            assert_eq!(run(workers), sequential, "workers = {workers}");
        }
    }

    #[test]
    fn stalled_protocol_is_a_typed_error() {
        struct Stall;
        impl CoordinatorLogic<()> for Stall {
            fn on_start(&mut self, _out: &mut Outbox<()>) {}
            fn on_message(&mut self, _f: Endpoint, _m: (), _o: &mut Outbox<()>) {}
            fn on_quiescent(&mut self, _out: &mut Outbox<()>) -> bool {
                false
            }
        }
        let exec = VirtualExecutor::new(CostModel::default());
        let stalled = exec.try_run::<(), _, BusySite>(Stall, vec![]);
        assert!(matches!(stalled, Err(ExecError::Stalled)));
    }
}
