//! One seeded delivery plan for every executor.
//!
//! The algorithms' data messages are idempotent: a falsified `X(u,v)`
//! "never changes back" (§4.1), so delivering one twice, late or out of
//! order changes traffic and timing, never the answer. A
//! [`DeliveryPlan`] makes that testable; every executor applies its
//! verdicts, through the one run driver they share.
//!
//! **Which messages:** data-class messages bound for a site, under
//! every executor. Control and result traffic carries the phase
//! barriers, where exactly-once is part of the contract (a duplicated
//! `GatherRequest` would double-merge match lists), and the socket
//! executor delivers coordinator-bound messages in its own process.
//!
//! **Which verdict:** a pure function of `(seed, sender, seq)`, where
//! `seq` counts the sender's earlier such sends in the run. A protocol
//! whose per-sender send order does not depend on arrival order meets
//! the same verdicts under every executor and on every run. Loss
//! without retry is not modeled: the paper assumes reliable channels,
//! and a lost falsification does change answers.

use crate::message::{Endpoint, MsgClass};

/// How far a retried or duplicated copy trails the original in virtual
/// time (2 ms, four one-way latencies of the default cost model); a
/// delayed message arrives up to this much late.
pub const RETRY_NS: u64 = 2_000_000;

/// Deterministic at-least-once delivery: the fractions of plan-applicable
/// messages (see the module doc) that are dropped-then-retried,
/// duplicated and delayed, and the seed of every decision. The three
/// rates are disjoint shares, so they sum to at most 1; the rest pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeliveryPlan {
    /// Fraction whose first copy is lost; only the retry arrives.
    pub drop_rate: f64,
    /// Fraction delivered twice (the second copy later).
    pub duplicate_rate: f64,
    /// Fraction whose only copy arrives late: in virtual time up to
    /// [`RETRY_NS`] late, over channels and sockets at the next
    /// quiescence, after later sends (reordered).
    pub delay_rate: f64,
    /// Seed of every per-message decision.
    pub seed: u64,
}

/// What a [`DeliveryPlan`] decided for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Deliver once, on time.
    Pass,
    /// The first copy is lost; only the retry copy arrives, late. No
    /// extra traffic.
    DropRetry,
    /// Deliver on time **and** a retransmitted copy later; the copy is
    /// real traffic and counted in `duplicated_*`.
    Duplicate,
    /// Deliver once, late: by this many virtual ns, below [`RETRY_NS`].
    Delay(u64),
}

impl DeliveryPlan {
    /// A plan with the given disjoint rates.
    ///
    /// # Panics
    /// Panics unless every rate is in `[0, 1]` and they sum to at most 1.
    pub fn new(drop_rate: f64, duplicate_rate: f64, delay_rate: f64, seed: u64) -> Self {
        let rates = [drop_rate, duplicate_rate, delay_rate];
        assert!(
            rates.iter().all(|r| (0.0..=1.0).contains(r)),
            "delivery rates in [0, 1]"
        );
        assert!(
            rates.iter().sum::<f64>() <= 1.0,
            "delivery rates sum to at most 1"
        );
        DeliveryPlan {
            drop_rate,
            duplicate_rate,
            delay_rate,
            seed,
        }
    }

    /// A plan duplicating `rate` of the messages and nothing else.
    pub fn duplicating(rate: f64, seed: u64) -> Self {
        Self::new(0.0, rate, 0.0, seed)
    }

    /// A heavy plan: 20% dropped-then-retried, 20% duplicated, 30%
    /// delayed.
    pub fn heavy(seed: u64) -> Self {
        Self::new(0.2, 0.2, 0.3, seed)
    }

    /// The verdict for `sender`'s message number `seq` (0-based, among
    /// its plan-applicable sends of the run).
    pub fn verdict(&self, sender: Endpoint, seq: u64) -> Verdict {
        let stream = sender.site_index().map_or(0, |i| i as u64 + 1);
        let u = self.unit(stream, seq);
        let duplicate_from = self.drop_rate;
        let delay_from = duplicate_from + self.duplicate_rate;
        if u < duplicate_from {
            Verdict::DropRetry
        } else if u < delay_from {
            Verdict::Duplicate
        } else if u < delay_from + self.delay_rate {
            // Where `u` falls inside the delay band is itself uniform.
            let fraction = (u - delay_from) / self.delay_rate;
            Verdict::Delay((fraction * RETRY_NS as f64) as u64)
        } else {
            Verdict::Pass
        }
    }

    /// A uniform draw in `[0, 1)`, deterministic in `(seed, stream,
    /// seq)`: two SplitMix64 finalizer rounds. Stream 0 is the
    /// coordinator's sends and `i + 1` site `i`'s.
    pub(crate) fn unit(&self, stream: u64, seq: u64) -> f64 {
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        let z = mix(self.seed ^ stream.wrapping_mul(0x9E3779B97F4A7C15));
        let z = mix(z ^ seq.wrapping_mul(0xD1B54A32D192ED03));
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One run under a plan: the per-sender counters `seq` comes from.
/// The run driver makes one per run, so verdicts never depend on
/// earlier runs.
pub(crate) struct PlanRun {
    pub(crate) plan: DeliveryPlan,
    /// Plan-applicable sends so far, per sender stream.
    sent: Vec<u64>,
}

impl PlanRun {
    pub(crate) fn new(plan: DeliveryPlan, num_sites: usize) -> Self {
        PlanRun {
            plan,
            sent: vec![0; num_sites + 1],
        }
    }

    /// The verdict for `from`'s next send: [`Verdict::Pass`] unless it
    /// is a data message bound for a site.
    pub(crate) fn next(&mut self, from: Endpoint, to: Endpoint, class: MsgClass) -> Verdict {
        if class != MsgClass::Data || to == Endpoint::Coordinator {
            return Verdict::Pass;
        }
        let sent = &mut self.sent[from.site_index().map_or(0, |i| i + 1)];
        let seq = *sent;
        *sent += 1;
        self.plan.verdict(from, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdicts(plan: &DeliveryPlan, sender: Endpoint) -> Vec<Verdict> {
        (0..64).map(|seq| plan.verdict(sender, seq)).collect()
    }

    #[test]
    fn rate_extremes() {
        let none = DeliveryPlan::new(0.0, 0.0, 0.0, 1);
        for (plan, expected) in [
            (DeliveryPlan::new(1.0, 0.0, 0.0, 1), Verdict::DropRetry),
            (DeliveryPlan::duplicating(1.0, 1), Verdict::Duplicate),
        ] {
            for seq in 0..100 {
                assert_eq!(none.verdict(Endpoint::Site(3), seq), Verdict::Pass);
                assert_eq!(plan.verdict(Endpoint::Site(3), seq), expected);
            }
        }
        let delay_all = DeliveryPlan::new(0.0, 0.0, 1.0, 1);
        for seq in 0..100 {
            match delay_all.verdict(Endpoint::Coordinator, seq) {
                Verdict::Delay(extra_ns) => assert!(extra_ns < RETRY_NS),
                other => panic!("seq {seq}: {other:?}"),
            }
        }
    }

    #[test]
    fn rates_are_approximately_respected() {
        let plan = DeliveryPlan::heavy(7);
        let mut counts = [0usize; 4];
        for seq in 0..10_000 {
            counts[match plan.verdict(Endpoint::Site(0), seq) {
                Verdict::DropRetry => 0,
                Verdict::Duplicate => 1,
                Verdict::Delay(_) => 2,
                Verdict::Pass => 3,
            }] += 1;
        }
        for (count, expected) in counts.into_iter().zip([2_000, 2_000, 3_000, 3_000]) {
            assert!(count.abs_diff(expected) < 300, "{counts:?}");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seeded() {
        let a = DeliveryPlan::heavy(1);
        let b = DeliveryPlan::heavy(2);
        let site = Endpoint::Site(0);
        assert_eq!(verdicts(&a, site), verdicts(&a, site));
        assert_ne!(verdicts(&a, site), verdicts(&b, site));
        // Each sender has its own stream.
        assert_ne!(verdicts(&a, site), verdicts(&a, Endpoint::Coordinator));
        assert_ne!(verdicts(&a, site), verdicts(&a, Endpoint::Site(1)));
    }

    #[test]
    fn a_run_counts_only_site_bound_data_per_sender() {
        let plan = DeliveryPlan::heavy(3);
        let mut run = PlanRun::new(plan, 2);
        let (sc, s0, s1) = (Endpoint::Coordinator, Endpoint::Site(0), Endpoint::Site(1));
        // Interleaved senders and exempt traffic do not shift a
        // sender's sequence.
        let mut seen = Vec::new();
        for _ in 0..8 {
            assert_eq!(run.next(s1, sc, MsgClass::Data), Verdict::Pass);
            assert_eq!(run.next(s1, s0, MsgClass::Control), Verdict::Pass);
            assert_eq!(run.next(s1, s0, MsgClass::Result), Verdict::Pass);
            seen.push(run.next(s1, s0, MsgClass::Data));
            run.next(sc, s1, MsgClass::Data);
        }
        let alone: Vec<Verdict> = (0..8).map(|seq| plan.verdict(s1, seq)).collect();
        assert_eq!(seen, alone);
    }

    #[test]
    #[should_panic(expected = "delivery rates in [0, 1]")]
    fn out_of_range_rate_rejected() {
        let _ = DeliveryPlan::duplicating(1.5, 0);
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn rates_summing_above_one_rejected() {
        let _ = DeliveryPlan::new(0.5, 0.3, 0.3, 0);
    }
}
