//! The actor abstraction algorithms are written against.
//!
//! A protocol consists of one [`CoordinatorLogic`] (the paper's `Sc`)
//! and one [`SiteLogic`] per fragment. Handlers communicate only
//! through the [`Outbox`]: sends are buffered and dispatched by the
//! executor after the handler returns, and local computation is
//! reported with [`Outbox::charge_ops`] so the virtual-time executor
//! can convert it into busy time.

use crate::message::{Endpoint, MsgClass};

/// Buffered sends plus charged work for one handler invocation.
pub struct Outbox<M> {
    me: Endpoint,
    num_sites: usize,
    pub(crate) sends: Vec<(Endpoint, MsgClass, M)>,
    pub(crate) ops: u64,
}

impl<M> Outbox<M> {
    pub(crate) fn new(me: Endpoint, num_sites: usize) -> Self {
        Outbox {
            me,
            num_sites,
            sends: Vec::new(),
            ops: 0,
        }
    }

    /// This handler's own endpoint.
    pub fn me(&self) -> Endpoint {
        self.me
    }

    /// Number of worker sites in the cluster.
    pub fn num_sites(&self) -> usize {
        self.num_sites
    }

    /// Sends a **data** message (counted in the paper's DS metric).
    pub fn send(&mut self, to: Endpoint, msg: M) {
        debug_assert_ne!(to, self.me, "no self-sends");
        self.sends.push((to, MsgClass::Data, msg));
    }

    /// Sends a **control** message (barriers, query broadcast,
    /// changed-flags; accounted separately from DS).
    pub fn send_control(&mut self, to: Endpoint, msg: M) {
        debug_assert_ne!(to, self.me, "no self-sends");
        self.sends.push((to, MsgClass::Control, msg));
    }

    /// Sends a **result** message (final match collection; the paper's
    /// DS figures exclude it).
    pub fn send_result(&mut self, to: Endpoint, msg: M) {
        debug_assert_ne!(to, self.me, "no self-sends");
        self.sends.push((to, MsgClass::Result, msg));
    }

    /// Charges `n` basic operations of local computation to this
    /// handler (busy time in the virtual executor).
    pub fn charge_ops(&mut self, n: u64) {
        self.ops += n;
    }
}

/// Per-site protocol logic.
pub trait SiteLogic<M> {
    /// Invoked once at start-up — the moment the site receives the
    /// query (Phase 1 of the paper's framework, Fig. 3).
    fn on_start(&mut self, out: &mut Outbox<M>);

    /// Invoked for each delivered message.
    fn on_message(&mut self, from: Endpoint, msg: M, out: &mut Outbox<M>);
}

/// Coordinator (`Sc`) protocol logic.
pub trait CoordinatorLogic<M> {
    /// Invoked once at start-up, before any site runs.
    fn on_start(&mut self, out: &mut Outbox<M>);

    /// Invoked for each delivered message.
    fn on_message(&mut self, from: Endpoint, msg: M, out: &mut Outbox<M>);

    /// Invoked whenever the system quiesces: no in-flight messages and
    /// every handler idle. Return `true` to terminate the run; return
    /// `false` (after sending fresh messages) to start another phase.
    ///
    /// This idealizes the paper's termination detection (each site
    /// flags `changed` to `Sc` and `Sc` detects the fixpoint): the
    /// executor observes quiescence directly instead of paying for the
    /// flag messages. Protocols use successive quiescence rounds as
    /// barriers, e.g. `dGPMd`'s rank rounds and `dMes`'s supersteps.
    fn on_quiescent(&mut self, out: &mut Outbox<M>) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_buffers_sends_by_class() {
        let mut out: Outbox<u32> = Outbox::new(Endpoint::Coordinator, 3);
        out.send(Endpoint::Site(0), 1);
        out.send_control(Endpoint::Site(1), 2);
        out.send_result(Endpoint::Site(2), 3);
        out.charge_ops(17);
        assert_eq!(out.sends.len(), 3);
        assert_eq!(out.sends[0].1, MsgClass::Data);
        assert_eq!(out.sends[1].1, MsgClass::Control);
        assert_eq!(out.sends[2].1, MsgClass::Result);
        assert_eq!(out.ops, 17);
        assert_eq!(out.me(), Endpoint::Coordinator);
        assert_eq!(out.num_sites(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "no self-sends")]
    fn self_send_rejected_in_debug() {
        let mut out: Outbox<u32> = Outbox::new(Endpoint::Site(1), 3);
        out.send(Endpoint::Site(1), 9);
    }
}
