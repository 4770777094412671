//! Threaded executor: one OS thread per site, channel transport,
//! Dijkstra-style quiescence detection.
//!
//! An atomic in-flight counter is incremented *before* every channel
//! send and decremented only after the receiving handler completes, so
//! the counter reaching zero proves global quiescence (no queued and
//! no in-processing message anywhere). The thread that drives it to
//! zero wakes the main loop, which runs the coordinator's
//! `on_quiescent` barrier — the same protocol semantics as the virtual
//! executor, with real parallelism and wall-clock timing.
//!
//! A panicking site handler used to poison the whole run ambiguously
//! (the panic propagated out of the thread scope). It is now caught at
//! the site thread, aborts the run, and surfaces as a typed
//! [`ExecError::SiteFailed`] from [`ThreadedExecutor::try_run`] naming
//! the site — the serving layer keeps its session alive across it. A
//! stalled protocol is [`ExecError::Stalled`], as under every executor.

use crate::message::{Endpoint, WireSize};
use crate::metrics::RunMetrics;
use crate::site::{CoordinatorLogic, Outbox, SiteLogic};
use crate::{ExecError, RunOutcome};
use crossbeam::channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

enum Packet<M> {
    Msg { from: Endpoint, msg: M },
    Stop,
}

/// The real-thread executor. It takes no cost model: ops are charged,
/// not timed, and wall clock is the timing source.
#[derive(Default)]
pub struct ThreadedExecutor;

struct Shared<M> {
    site_txs: Vec<Sender<Packet<M>>>,
    coord_tx: Sender<Packet<M>>,
    quiesce_tx: Sender<()>,
    inflight: AtomicI64,
    metrics: Mutex<RunMetrics>,
    /// First site failure (panicking handler); set once, aborts the
    /// run with a typed error.
    failed: Mutex<Option<(u32, String)>>,
}

impl<M: WireSize> Shared<M> {
    /// Dispatches a completed handler's outbox, then releases one
    /// in-flight token (the message or start-up token that triggered
    /// the handler).
    fn flush_and_release(&self, from: Endpoint, out: Outbox<M>) {
        {
            let mut m = self.metrics.lock();
            m.record_ops(from, out.ops);
            for (_, class, msg) in &out.sends {
                m.record_send_from(from, *class, msg.wire_size());
            }
        }
        for (to, _, msg) in out.sends {
            self.inflight.fetch_add(1, Ordering::SeqCst);
            let pkt = Packet::Msg { from, msg };
            // A send can only fail when the destination already exited
            // (a failed run being torn down): drop the message and put
            // the token back so the counter stays truthful.
            let sent = match to {
                Endpoint::Coordinator => self.coord_tx.send(pkt).is_ok(),
                Endpoint::Site(i) => self.site_txs[i as usize].send(pkt).is_ok(),
            };
            if !sent {
                self.inflight.fetch_sub(1, Ordering::SeqCst);
            }
        }
        if self.inflight.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _ = self.quiesce_tx.send(());
        }
    }

    /// Records a panicking site and wakes the main loop so the run
    /// aborts promptly.
    fn report_failure(&self, site: u32, panic: Box<dyn std::any::Any + Send>) {
        let reason = if let Some(s) = panic.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = panic.downcast_ref::<String>() {
            s.clone()
        } else {
            "site handler panicked".to_owned()
        };
        let mut failed = self.failed.lock();
        if failed.is_none() {
            *failed = Some((site, reason));
        }
        drop(failed);
        let _ = self.quiesce_tx.send(());
    }
}

impl ThreadedExecutor {
    /// Creates an executor.
    pub fn new() -> Self {
        ThreadedExecutor
    }

    /// Runs the protocol to completion; see [`crate::run`].
    ///
    /// # Panics
    /// Panics when a site handler panics or the protocol stalls — the
    /// historical behaviour. Use [`Self::try_run`] for a typed
    /// [`ExecError`] instead.
    pub fn run<M, C, S>(&self, coordinator: C, sites: Vec<S>) -> RunOutcome<C, S>
    where
        M: WireSize + Send + 'static,
        C: CoordinatorLogic<M> + Send,
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
        mut coordinator: C,
        mut sites: Vec<S>,
    ) -> Result<RunOutcome<C, S>, ExecError>
    where
        M: WireSize + Send + 'static,
        C: CoordinatorLogic<M> + Send,
        S: SiteLogic<M> + Send,
    {
        let n = sites.len();
        let wall_start = Instant::now();

        let mut site_txs = Vec::with_capacity(n);
        let mut site_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            site_txs.push(tx);
            site_rxs.push(rx);
        }
        let (coord_tx, coord_rx) = unbounded();
        let (quiesce_tx, quiesce_rx) = unbounded();
        let shared = Shared {
            site_txs,
            coord_tx,
            quiesce_tx,
            // One start-up token per site plus one for the coordinator:
            // quiescence cannot fire before everyone has started.
            inflight: AtomicI64::new(n as i64 + 1),
            metrics: Mutex::new(RunMetrics::new(n)),
            failed: Mutex::new(None),
        };

        let mut rounds = 0u64;
        let mut stalled = false;
        crossbeam::thread::scope(|scope| {
            for (i, (site, rx)) in sites.iter_mut().zip(site_rxs).enumerate() {
                let shared = &shared;
                scope.spawn(move |_| {
                    let me = Endpoint::Site(i as u32);
                    let run_handler = |site: &mut S, pkt: Option<Packet<M>>| -> Option<Outbox<M>> {
                        match pkt {
                            None => {
                                let mut out = Outbox::new(me, n);
                                site.on_start(&mut out);
                                Some(out)
                            }
                            Some(Packet::Stop) => None,
                            Some(Packet::Msg { from, msg }) => {
                                let mut out = Outbox::new(me, n);
                                site.on_message(from, msg, &mut out);
                                Some(out)
                            }
                        }
                    };
                    match catch_unwind(AssertUnwindSafe(|| run_handler(site, None))) {
                        Ok(Some(out)) => shared.flush_and_release(me, out),
                        Ok(None) => unreachable!("start-up always produces an outbox"),
                        Err(panic) => {
                            shared.report_failure(i as u32, panic);
                            return;
                        }
                    }
                    while let Ok(pkt) = rx.recv() {
                        match catch_unwind(AssertUnwindSafe(|| run_handler(site, Some(pkt)))) {
                            Ok(Some(out)) => shared.flush_and_release(me, out),
                            Ok(None) => break, // Stop
                            Err(panic) => {
                                shared.report_failure(i as u32, panic);
                                return;
                            }
                        }
                    }
                });
            }

            // Coordinator runs on this thread.
            let mut out = Outbox::new(Endpoint::Coordinator, n);
            coordinator.on_start(&mut out);
            shared.flush_and_release(Endpoint::Coordinator, out);

            loop {
                if shared.failed.lock().is_some() {
                    break;
                }
                crossbeam::channel::select! {
                    recv(coord_rx) -> pkt => {
                        if let Ok(Packet::Msg { from, msg }) = pkt {
                            let mut out = Outbox::new(Endpoint::Coordinator, n);
                            coordinator.on_message(from, msg, &mut out);
                            shared.flush_and_release(Endpoint::Coordinator, out);
                        }
                    }
                    recv(quiesce_rx) -> _ => {
                        // The wake may be a failure notice rather than
                        // true quiescence.
                        if shared.failed.lock().is_some() {
                            break;
                        }
                        // Re-check: a fresh start may have raced the
                        // token; only act on true quiescence.
                        if shared.inflight.load(Ordering::SeqCst) != 0
                            || !coord_rx.is_empty()
                        {
                            continue;
                        }
                        rounds += 1;
                        let mut out = Outbox::new(Endpoint::Coordinator, n);
                        let done = coordinator.on_quiescent(&mut out);
                        let had_sends = !out.sends.is_empty();
                        // Account the barrier handler without releasing
                        // any token (none triggered it): temporarily add
                        // one so flush's release cancels out.
                        shared.inflight.fetch_add(1, Ordering::SeqCst);
                        shared.flush_and_release(Endpoint::Coordinator, out);
                        if done {
                            break;
                        }
                        if !had_sends {
                            stalled = true;
                            break;
                        }
                    }
                }
            }

            for tx in &shared.site_txs {
                let _ = tx.send(Packet::Stop);
            }
        })
        .expect("scoped threads never propagate panics here");

        if let Some((site, reason)) = shared.failed.into_inner() {
            return Err(ExecError::SiteFailed { site, reason });
        }
        if stalled {
            return Err(ExecError::Stalled);
        }
        let mut metrics = shared.metrics.into_inner();
        metrics.quiescence_rounds = rounds;
        metrics.wall_time = wall_start.elapsed();
        Ok(RunOutcome {
            coordinator,
            sites,
            metrics,
        })
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
                assert!(reason.contains("deliberate failure"), "{reason}");
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
