//! The one run driver every executor shares.
//!
//! A run is the same under every executor: `Sc` starts, the sites
//! start, messages flow until the system quiesces, and at each
//! quiescence the coordinator's barrier ends the run, opens another
//! phase, or — when it neither finishes nor sends — stalls it.
//! [`RunDriver`] owns everything of a run that does not depend on how
//! messages move: the coordinator, the [`RunMetrics`], the run's
//! [`PlanRun`], the messages the plan holds back, and that one barrier
//! rule.
//!
//! The executors are transports: the virtual executor's `(time, seq)`
//! event heap, the threaded executor's channels, the socket executor's
//! frames. A transport moves messages, hands every send to
//! [`RunDriver::send`], and calls [`RunDriver::quiescent`] wherever it
//! observes quiescence.

use crate::delivery::{DeliveryPlan, PlanRun, Verdict};
use crate::message::{Endpoint, MsgClass};
use crate::metrics::RunMetrics;
use crate::site::{CoordinatorLogic, Outbox};
use crate::{ExecError, RunOutcome};
use std::time::Instant;

/// The plan's draw stream for the release shuffle; sender streams are
/// `0..=num_sites`.
const SHUFFLE_STREAM: u64 = u64::MAX;

/// One run: the coordinator, its metrics and its delivery plan. `H` is
/// how the transport holds a message back (the virtual executor, which
/// delays in virtual time instead, holds nothing).
pub(crate) struct RunDriver<C, H> {
    coordinator: C,
    pub(crate) metrics: RunMetrics,
    plan: Option<PlanRun>,
    /// Messages the plan held back, released at the next quiescence.
    held: Vec<H>,
    /// Shuffle draws so far.
    draws: u64,
    num_sites: usize,
    started: Instant,
}

/// What the driver decided at a quiescence.
pub(crate) enum Barrier<M, H> {
    /// Held messages go out, in this seeded-shuffled order, before the
    /// barrier may fire: they are delayed *and* reordered, yet never
    /// cross into the next phase.
    Release(Vec<H>),
    /// The barrier fired: the transport routes `out`, and `done` ends
    /// the run.
    Fired { done: bool, out: Outbox<M> },
}

impl<C, H> RunDriver<C, H> {
    /// A fresh run: no verdict depends on an earlier one.
    pub(crate) fn new(coordinator: C, num_sites: usize, plan: Option<DeliveryPlan>) -> Self {
        RunDriver {
            coordinator,
            metrics: RunMetrics::new(num_sites),
            plan: plan.map(|plan| PlanRun::new(plan, num_sites)),
            held: Vec::new(),
            draws: 0,
            num_sites,
            started: Instant::now(),
        }
    }

    /// `Sc`'s `on_start`, the first handler of every run. The transport
    /// routes the outbox once its sites are up.
    pub(crate) fn start<M>(&mut self) -> Outbox<M>
    where
        C: CoordinatorLogic<M>,
    {
        let mut out = Outbox::new(Endpoint::Coordinator, self.num_sites);
        self.coordinator.on_start(&mut out);
        out
    }

    /// Delivers one message to `Sc`.
    pub(crate) fn deliver<M>(&mut self, from: Endpoint, msg: M) -> Outbox<M>
    where
        C: CoordinatorLogic<M>,
    {
        let mut out = Outbox::new(Endpoint::Coordinator, self.num_sites);
        self.coordinator.on_message(from, msg, &mut out);
        out
    }

    /// Accounts a finished handler's charged work.
    pub(crate) fn record_ops(&mut self, ep: Endpoint, ops: u64) {
        self.metrics.record_ops(ep, ops);
    }

    /// Accounts one send of `bytes` and asks the plan once: a duplicate
    /// is real traffic and counted here, so the transport only moves it.
    pub(crate) fn send(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        class: MsgClass,
        bytes: usize,
    ) -> Verdict {
        self.metrics.record_send_from(from, class, bytes);
        let verdict = self
            .plan
            .as_mut()
            .map_or(Verdict::Pass, |run| run.next(from, to, class));
        if verdict == Verdict::Duplicate {
            self.metrics.record_send_from(from, class, bytes);
            self.metrics.duplicated_messages += 1;
            self.metrics.duplicated_bytes += bytes as u64;
        }
        verdict
    }

    /// Applies `verdict` to a message the transport would send now:
    /// holds a copy of a duplicate, or the message itself when it is
    /// dropped-then-retried or delayed, and returns what goes out now.
    pub(crate) fn admit(&mut self, verdict: Verdict, msg: H) -> Option<H>
    where
        H: Clone,
    {
        match verdict {
            Verdict::Pass => Some(msg),
            Verdict::Duplicate => {
                self.held.push(msg.clone());
                Some(msg)
            }
            Verdict::DropRetry | Verdict::Delay(_) => {
                self.held.push(msg);
                None
            }
        }
    }

    /// The barrier rule, called wherever a transport observes
    /// quiescence: held messages go out first; otherwise `Sc`'s
    /// `on_quiescent` runs, and a barrier that neither finishes nor
    /// sends stalls the run.
    pub(crate) fn quiescent<M>(&mut self) -> Result<Barrier<M, H>, ExecError>
    where
        C: CoordinatorLogic<M>,
    {
        if !self.held.is_empty() {
            let mut held = std::mem::take(&mut self.held);
            let plan = self.plan.as_ref().expect("only a plan holds messages").plan;
            // Fisher–Yates on the plan's draw stream.
            for i in (1..held.len()).rev() {
                let u = plan.unit(SHUFFLE_STREAM, self.draws);
                self.draws += 1;
                held.swap(i, ((u * (i as f64 + 1.0)) as usize).min(i));
            }
            return Ok(Barrier::Release(held));
        }
        self.metrics.quiescence_rounds += 1;
        let mut out = Outbox::new(Endpoint::Coordinator, self.num_sites);
        let done = self.coordinator.on_quiescent(&mut out);
        if !done && out.sends.is_empty() {
            return Err(ExecError::Stalled);
        }
        Ok(Barrier::Fired { done, out })
    }

    /// Ends the run.
    pub(crate) fn finish<S>(mut self, sites: Vec<S>) -> RunOutcome<C, S> {
        self.metrics.wall_time = self.started.elapsed();
        RunOutcome {
            coordinator: self.coordinator,
            sites,
            metrics: self.metrics,
        }
    }
}
