//! Threaded executor: one OS thread per site, channel transport.
//!
//! Every message is routed through the coordinator's thread, a star
//! like the socket executor's: a site thread runs one handler per
//! message and ships the outbox back, and the coordinator's thread
//! hands each send to the run driver (`src/driver.rs`), which
//! accounts it and applies the [`DeliveryPlan`]. That thread also
//! keeps the in-flight count — one per started site and per routed
//! message, released by the outbox that answers it — so zero proves
//! global quiescence and runs the driver's barrier. The same protocol
//! semantics as the virtual executor, with real parallelism and
//! wall-clock timing.
//!
//! A panicking site handler is caught at its thread, aborts the run,
//! and surfaces as a typed [`ExecError::SiteFailed`] naming the site —
//! the serving layer keeps its session alive across it. A stalled
//! protocol is [`ExecError::Stalled`], as under every executor.

use crate::delivery::DeliveryPlan;
use crate::driver::{Barrier, RunDriver};
use crate::message::{Endpoint, WireSize};
use crate::site::{CoordinatorLogic, Outbox, SiteLogic};
use crate::{panic_reason, ExecError, RunOutcome};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A message on its way to a site: `(site, from, msg)`.
type Packet<M> = (u32, Endpoint, M);

/// What a site thread reports: a finished handler's outbox, or why the
/// handler panicked.
type Report<M> = (u32, Result<Outbox<M>, String>);

/// The real-thread executor. It takes no cost model: ops are charged,
/// not timed, and wall clock is the timing source.
#[derive(Default)]
pub struct ThreadedExecutor {
    delivery: Option<DeliveryPlan>,
}

impl ThreadedExecutor {
    /// Creates an executor.
    pub fn new() -> Self {
        ThreadedExecutor::default()
    }

    /// Applies a [`DeliveryPlan`] to every run: a retried, duplicated
    /// or delayed message is held until the run next quiesces, then
    /// delivered in seeded-shuffled order.
    pub fn with_delivery(mut self, plan: DeliveryPlan) -> Self {
        self.delivery = Some(plan);
        self
    }

    /// Runs the protocol to completion; see [`crate::run`].
    ///
    /// # Panics
    /// Panics when a site handler panics or the protocol stalls — the
    /// historical behaviour. Use [`Self::try_run`] for a typed
    /// [`ExecError`] instead.
    pub fn run<M, C, S>(&self, coordinator: C, sites: Vec<S>) -> RunOutcome<C, S>
    where
        M: WireSize + Clone + Send,
        C: CoordinatorLogic<M>,
        S: SiteLogic<M> + Send,
    {
        self.try_run(coordinator, sites)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the protocol to completion, surfacing a panicking site
    /// handler as [`ExecError::SiteFailed`] (naming the site) instead
    /// of poisoning the run ambiguously, and a stalled protocol as
    /// [`ExecError::Stalled`].
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
        let (report_tx, reports) = unbounded();
        std::thread::scope(|scope| {
            let mut star = Star {
                inboxes: Vec::with_capacity(n),
                // One token per site: its `on_start` answers with an
                // outbox like any message.
                inflight: n,
            };
            for (i, site) in sites.iter_mut().enumerate() {
                let (tx, inbox) = unbounded();
                star.inboxes.push(tx);
                let report = report_tx.clone();
                scope.spawn(move || serve_site(i as u32, n, site, &inbox, &report));
            }
            drop(report_tx);
            // Returning drops the inboxes, which ends every site thread.
            star.run(&mut driver, &reports)
        })?;
        Ok(driver.finish(sites))
    }
}

/// One site's thread: `on_start`, then one handler per message until
/// its inbox closes. Each handler's outbox, or the reason it panicked,
/// goes back to the coordinator's thread; a panic ends the thread.
fn serve_site<M, S: SiteLogic<M>>(
    me: u32,
    n: usize,
    site: &mut S,
    inbox: &Receiver<(Endpoint, M)>,
    report: &Sender<Report<M>>,
) {
    let mut next = None;
    loop {
        let handled = catch_unwind(AssertUnwindSafe(|| {
            let mut out = Outbox::new(Endpoint::Site(me), n);
            match next.take() {
                None => site.on_start(&mut out),
                Some((from, msg)) => site.on_message(from, msg, &mut out),
            }
            out
        }));
        let failed = handled.is_err();
        let _ = report.send((me, handled.map_err(|panic| panic_reason(&*panic))));
        if failed {
            return;
        }
        match inbox.recv() {
            Ok(msg) => next = Some(msg),
            Err(_) => return,
        }
    }
}

/// The coordinator thread's side of the channels.
struct Star<M> {
    inboxes: Vec<Sender<(Endpoint, M)>>,
    /// Handlers owed: started sites and routed messages not yet
    /// answered by an outbox.
    inflight: usize,
}

impl<M: WireSize + Clone> Star<M> {
    fn run<C: CoordinatorLogic<M>>(
        &mut self,
        driver: &mut RunDriver<C, Packet<M>>,
        reports: &Receiver<Report<M>>,
    ) -> Result<(), ExecError> {
        let out = driver.start();
        self.route(driver, Endpoint::Coordinator, out);
        loop {
            if self.inflight == 0 {
                match driver.quiescent()? {
                    Barrier::Release(held) => held.into_iter().for_each(|p| self.deliver(p)),
                    Barrier::Fired { done, out } => {
                        self.route(driver, Endpoint::Coordinator, out);
                        if done {
                            return Ok(());
                        }
                    }
                }
                continue;
            }
            let (site, handled) = reports
                .recv()
                .expect("a site thread reports before it exits");
            let out = handled.map_err(|reason| ExecError::SiteFailed { site, reason })?;
            self.inflight -= 1;
            self.route(driver, Endpoint::Site(site), out);
        }
    }

    /// Routes a finished handler's outbox: site-bound sends go out as
    /// the plan says, coordinator-bound ones run `Sc`'s handler here,
    /// whose own outbox is routed in turn.
    fn route<C: CoordinatorLogic<M>>(
        &mut self,
        driver: &mut RunDriver<C, Packet<M>>,
        from: Endpoint,
        out: Outbox<M>,
    ) {
        let mut outboxes = VecDeque::from([(from, out)]);
        while let Some((from, out)) = outboxes.pop_front() {
            driver.record_ops(from, out.ops);
            for (to, class, msg) in out.sends {
                let verdict = driver.send(from, to, class, msg.wire_size());
                match to {
                    Endpoint::Coordinator => {
                        outboxes.push_back((Endpoint::Coordinator, driver.deliver(from, msg)));
                    }
                    Endpoint::Site(site) => {
                        if let Some(packet) = driver.admit(verdict, (site, from, msg)) {
                            self.deliver(packet);
                        }
                    }
                }
            }
        }
    }

    fn deliver(&mut self, (site, from, msg): Packet<M>) {
        self.inflight += 1;
        // A site whose handler panicked has closed its inbox; its
        // report ends the run before this message is awaited.
        let _ = self.inboxes[site as usize].send((from, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scatter-gather: coordinator scatters one number to each site;
    /// sites add their index and reply; coordinator sums.
    struct Scatter {
        sum: u64,
        replies: usize,
    }
    struct AddSite {
        idx: u64,
    }
    impl CoordinatorLogic<u64> for Scatter {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            for i in 0..out.num_sites() {
                out.send(Endpoint::Site(i as u32), 100);
            }
        }
        fn on_message(&mut self, _from: Endpoint, msg: u64, _out: &mut Outbox<u64>) {
            self.sum += msg;
            self.replies += 1;
        }
        fn on_quiescent(&mut self, _out: &mut Outbox<u64>) -> bool {
            true
        }
    }
    impl SiteLogic<u64> for AddSite {
        fn on_start(&mut self, _out: &mut Outbox<u64>) {}
        fn on_message(&mut self, _from: Endpoint, msg: u64, out: &mut Outbox<u64>) {
            out.charge_ops(3);
            out.send(Endpoint::Coordinator, msg + self.idx);
        }
    }

    #[test]
    fn scatter_gather_sums_correctly() {
        let exec = ThreadedExecutor::new();
        let sites: Vec<AddSite> = (0..8).map(|i| AddSite { idx: i }).collect();
        let outcome = exec.run(Scatter { sum: 0, replies: 0 }, sites);
        assert_eq!(outcome.coordinator.replies, 8);
        assert_eq!(outcome.coordinator.sum, 8 * 100 + (0..8).sum::<u64>());
        assert_eq!(outcome.metrics.data_messages, 16);
        assert_eq!(outcome.metrics.total_ops, 24);
        assert_eq!(outcome.metrics.quiescence_rounds, 1);
        assert!(outcome.metrics.wall_time.as_nanos() > 0);
    }

    /// Site-to-site relay ring: message passes through all sites twice.
    struct RingCoord {
        hops_seen: u64,
    }
    struct RingSite {
        next: u32,
    }
    impl CoordinatorLogic<u64> for RingCoord {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            out.send(Endpoint::Site(0), 0);
        }
        fn on_message(&mut self, _from: Endpoint, msg: u64, _out: &mut Outbox<u64>) {
            self.hops_seen = msg;
        }
        fn on_quiescent(&mut self, _out: &mut Outbox<u64>) -> bool {
            true
        }
    }
    impl SiteLogic<u64> for RingSite {
        fn on_start(&mut self, _out: &mut Outbox<u64>) {}
        fn on_message(&mut self, _from: Endpoint, msg: u64, out: &mut Outbox<u64>) {
            let hops = msg + 1;
            if hops >= 2 * out.num_sites() as u64 {
                out.send(Endpoint::Coordinator, hops);
            } else {
                out.send(Endpoint::Site(self.next), hops);
            }
        }
    }

    #[test]
    fn ring_relay_runs_site_to_site() {
        let n = 6u32;
        let exec = ThreadedExecutor::new();
        let sites: Vec<RingSite> = (0..n).map(|i| RingSite { next: (i + 1) % n }).collect();
        let outcome = exec.run(RingCoord { hops_seen: 0 }, sites);
        assert_eq!(outcome.coordinator.hops_seen, 2 * n as u64);
    }

    /// The multi-phase barrier protocol from the virtual executor's
    /// tests must behave identically here.
    struct TwoPhase {
        phase: u32,
    }
    struct EchoSite {
        received: u64,
    }
    impl CoordinatorLogic<u64> for TwoPhase {
        fn on_start(&mut self, out: &mut Outbox<u64>) {
            for i in 0..out.num_sites() {
                out.send_control(Endpoint::Site(i as u32), 1);
            }
        }
        fn on_message(&mut self, _from: Endpoint, _msg: u64, _out: &mut Outbox<u64>) {}
        fn on_quiescent(&mut self, out: &mut Outbox<u64>) -> bool {
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
    impl SiteLogic<u64> for EchoSite {
        fn on_start(&mut self, _out: &mut Outbox<u64>) {}
        fn on_message(&mut self, _from: Endpoint, msg: u64, out: &mut Outbox<u64>) {
            self.received += msg;
            out.send_result(Endpoint::Coordinator, msg);
        }
    }

    #[test]
    fn multi_phase_quiescence_threaded() {
        let exec = ThreadedExecutor::new();
        let outcome = exec.run(
            TwoPhase { phase: 0 },
            (0..4).map(|_| EchoSite { received: 0 }).collect(),
        );
        assert_eq!(outcome.metrics.quiescence_rounds, 2);
        assert_eq!(outcome.metrics.control_messages, 8);
        for s in &outcome.sites {
            assert_eq!(s.received, 3);
        }
    }

    /// Regression: a panicking site handler used to poison the run
    /// ambiguously (panic propagated through the thread scope); it is
    /// now a typed `ExecError::SiteFailed` naming the site.
    #[test]
    fn site_panic_is_a_typed_error() {
        struct PanicSite {
            idx: u32,
        }
        impl SiteLogic<u64> for PanicSite {
            fn on_start(&mut self, _out: &mut Outbox<u64>) {}
            fn on_message(&mut self, _from: Endpoint, _msg: u64, out: &mut Outbox<u64>) {
                if self.idx == 2 {
                    panic!("deliberate failure at site S3");
                }
                out.send(Endpoint::Coordinator, 1);
            }
        }
        let exec = ThreadedExecutor::new();
        let sites: Vec<PanicSite> = (0..4).map(|idx| PanicSite { idx }).collect();
        let err = match exec.try_run(Scatter { sum: 0, replies: 0 }, sites) {
            Err(e) => e,
            Ok(_) => panic!("expected the run to fail"),
        };
        match err {
            ExecError::SiteFailed { site, reason } => {
                assert_eq!(site, 2);
                assert_eq!(
                    reason,
                    "site handler panicked: deliberate failure at site S3"
                );
            }
            other => panic!("expected SiteFailed, got {other:?}"),
        }
    }

    #[test]
    fn stalled_protocol_is_a_typed_error() {
        struct Stall;
        impl CoordinatorLogic<u64> for Stall {
            fn on_start(&mut self, _out: &mut Outbox<u64>) {}
            fn on_message(&mut self, _f: Endpoint, _m: u64, _o: &mut Outbox<u64>) {}
            fn on_quiescent(&mut self, _out: &mut Outbox<u64>) -> bool {
                false
            }
        }
        let sites: Vec<AddSite> = (0..2).map(|i| AddSite { idx: i }).collect();
        let stalled = ThreadedExecutor::new().try_run(Stall, sites);
        assert!(matches!(stalled, Err(ExecError::Stalled)));
    }

    #[test]
    fn per_site_message_counts_are_recorded() {
        let exec = ThreadedExecutor::new();
        let sites: Vec<AddSite> = (0..4).map(|i| AddSite { idx: i }).collect();
        let outcome = exec.run(Scatter { sum: 0, replies: 0 }, sites);
        // Each site replies exactly once.
        assert_eq!(outcome.metrics.site_msgs, vec![1; 4]);
    }

    #[test]
    fn zero_sites_immediately_quiesces() {
        struct Idle;
        impl CoordinatorLogic<u64> for Idle {
            fn on_start(&mut self, _out: &mut Outbox<u64>) {}
            fn on_message(&mut self, _f: Endpoint, _m: u64, _o: &mut Outbox<u64>) {}
            fn on_quiescent(&mut self, _out: &mut Outbox<u64>) -> bool {
                true
            }
        }
        let exec = ThreadedExecutor::new();
        let outcome = exec.run::<u64, _, EchoSite>(Idle, vec![]);
        assert_eq!(outcome.metrics.quiescence_rounds, 1);
    }
}
