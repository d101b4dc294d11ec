//! Two-party channels with exact bit accounting.

use crate::bits::BitBuf;
use crate::error::ProtocolError;
use crate::pool::SpillPool;
use crate::stats::ChannelStats;
use crossbeam_channel::{Hot, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// A frame on the wire.
#[derive(Debug, Clone)]
pub(crate) enum Frame {
    /// A protocol message: a bit payload stamped with the sender's
    /// causal clock.
    Msg { depth: u64, payload: BitBuf },
    /// Control frame: the sender's half of the session has completed and
    /// will transmit nothing further. Unmetered and invisible to
    /// protocols — on a long-lived reused channel it stands in for the
    /// endpoint drop that ends a dedicated [`crate::runner::run_two_party`]
    /// session, so a peer blocked in `recv` observes
    /// [`ProtocolError::ChannelClosed`] exactly as it would there.
    Fin,
}

/// The transport used by every protocol implementation.
///
/// A `Chan` counts the exact number of bits sent and received and maintains
/// the causal round clock (see [`crate::stats`]). Protocols are written
/// against this trait so the same code runs over a dedicated two-party link
/// ([`Endpoint`]) or over a pairwise link inside a multi-party network.
pub trait Chan {
    /// Sends one message to the peer.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ChannelClosed`] if the peer hung up and
    /// [`ProtocolError::BudgetExceeded`] if a communication budget is set
    /// and this message would cross it.
    fn send(&mut self, msg: BitBuf) -> Result<(), ProtocolError>;

    /// Receives one message from the peer, blocking until it arrives.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ChannelClosed`] if the peer hung up,
    /// [`ProtocolError::Timeout`] if the configured timeout elapses, and
    /// [`ProtocolError::BudgetExceeded`] on budget overrun.
    fn recv(&mut self) -> Result<BitBuf, ProtocolError>;

    /// Snapshot of this endpoint's counters.
    fn stats(&self) -> ChannelStats;

    /// Sends `msg` and then receives the peer's message.
    ///
    /// Both parties may call `exchange` simultaneously: sends are buffered,
    /// so this realizes a simultaneous-message round without deadlock.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`send`](Chan::send) / [`recv`](Chan::recv).
    fn exchange(&mut self, msg: BitBuf) -> Result<BitBuf, ProtocolError> {
        self.send(msg)?;
        self.recv()
    }
}

impl<C: Chan + ?Sized> Chan for &mut C {
    fn send(&mut self, msg: BitBuf) -> Result<(), ProtocolError> {
        (**self).send(msg)
    }

    fn recv(&mut self) -> Result<BitBuf, ProtocolError> {
        (**self).recv()
    }

    fn stats(&self) -> ChannelStats {
        (**self).stats()
    }
}

/// One side of a dedicated two-party channel.
///
/// Created in pairs by [`Endpoint::pair`]; typically you use
/// [`crate::runner::run_two_party`] instead of constructing these directly.
#[derive(Debug)]
pub struct Endpoint {
    tx: Sender<Frame>,
    rx: Receiver<Frame>,
    stats: ChannelStats,
    budget: Option<u64>,
    timeout: Duration,
    /// Set once a [`Frame::Fin`] is received: the peer's half is over, so
    /// further traffic fails with [`ProtocolError::ChannelClosed`] just as
    /// it would after a real endpoint drop.
    peer_done: bool,
    /// Spill-buffer free list shared with the peer endpoint, so message
    /// payloads born on one side recycle their storage when dropped on
    /// the other.
    pool: Arc<SpillPool>,
    /// How this end waits for the peer's reply (see [`Hot`]).
    hot: Hot,
}

impl Endpoint {
    /// Creates a connected pair of endpoints.
    ///
    /// `budget` bounds the *total* bits observed by one endpoint (sent plus
    /// received — i.e. the total communication of the protocol); `timeout`
    /// bounds each blocking receive.
    ///
    /// The first endpoint is the session owner's (Alice, on the thread that
    /// runs the session) and waits as [`Hot::Yield`]; the second goes to
    /// the thread that serves it and waits as [`Hot::Spin`].
    pub fn pair(budget: Option<u64>, timeout: Duration) -> (Endpoint, Endpoint) {
        let (tx_ab, rx_ab) = crossbeam_channel::unbounded();
        let (tx_ba, rx_ba) = crossbeam_channel::unbounded();
        let pool = SpillPool::new();
        let a = Endpoint {
            tx: tx_ab,
            rx: rx_ba,
            stats: ChannelStats::default(),
            budget,
            timeout,
            peer_done: false,
            pool: Arc::clone(&pool),
            hot: Hot::Yield,
        };
        let b = Endpoint {
            tx: tx_ba,
            rx: rx_ab,
            stats: ChannelStats::default(),
            budget,
            timeout,
            peer_done: false,
            pool,
            hot: Hot::Spin,
        };
        (a, b)
    }

    /// The spill-buffer pool shared by both endpoints of this pair.
    ///
    /// Session harnesses [`install`](SpillPool::install) it on the thread
    /// running each half so long-message storage recycles across the
    /// channel instead of round-tripping through the allocator.
    pub fn pool(&self) -> &Arc<SpillPool> {
        &self.pool
    }

    /// Restores this endpoint to the state of a fresh [`Endpoint::pair`]
    /// with the given budget and timeout: counters and round clock
    /// zeroed, leftover in-flight frames discarded.
    ///
    /// Only sound while the peer endpoint is quiescent — the
    /// [`crate::runner::SessionRunner`] handshake guarantees that.
    pub(crate) fn reset(&mut self, budget: Option<u64>, timeout: Duration) {
        while self.rx.try_recv().is_ok() {}
        self.stats = ChannelStats::default();
        self.budget = budget;
        self.timeout = timeout;
        self.peer_done = false;
    }

    /// Announces the end of this half's transmissions (see [`Frame::Fin`]).
    /// Infallible: a genuinely disconnected peer needs no announcement.
    pub(crate) fn send_fin(&self) {
        let _ = self.tx.send(Frame::Fin);
    }

    /// Rewinds the counters for the next session of a block **without**
    /// draining the receive queue.
    ///
    /// Inside a block the peer may already have raced ahead and sent the
    /// first frames of the next session; [`reset`](Self::reset)'s drain
    /// would swallow them. A session that succeeded on both sides has
    /// consumed every frame sent in it, so everything still queued
    /// belongs to the session being armed; after a failure the block's
    /// job ends and the next job's `reset` drains.
    pub(crate) fn rearm(&mut self, budget: Option<u64>, timeout: Duration) {
        self.stats = ChannelStats::default();
        self.budget = budget;
        self.timeout = timeout;
        self.peer_done = false;
    }

    fn check_budget(&self) -> Result<(), ProtocolError> {
        if let Some(limit) = self.budget {
            if self.stats.total_bits() > limit {
                return Err(ProtocolError::BudgetExceeded { limit_bits: limit });
            }
        }
        Ok(())
    }
}

impl Chan for Endpoint {
    fn send(&mut self, msg: BitBuf) -> Result<(), ProtocolError> {
        let bits = msg.len() as u64;
        self.stats.bits_sent += bits;
        self.stats.messages_sent += 1;
        self.check_budget()?;
        if self.peer_done {
            return Err(ProtocolError::ChannelClosed);
        }
        let frame = Frame::Msg {
            depth: self.stats.clock + 1,
            payload: msg,
        };
        self.tx
            .send(frame)
            .map_err(|_| ProtocolError::ChannelClosed)?;
        intersect_obs::message(
            "comm",
            intersect_obs::Direction::Sent,
            bits,
            self.stats.clock,
        );
        Ok(())
    }

    fn recv(&mut self) -> Result<BitBuf, ProtocolError> {
        if self.peer_done {
            return Err(ProtocolError::ChannelClosed);
        }
        // The peer is the other half of this session, computing its reply:
        // stay awake for it (see `Receiver::recv_hot`).
        let frame = self
            .rx
            .recv_hot(self.timeout, self.hot)
            .map_err(|e| match e {
                crossbeam_channel::RecvTimeoutError::Timeout => ProtocolError::Timeout,
                crossbeam_channel::RecvTimeoutError::Disconnected => ProtocolError::ChannelClosed,
            })?;
        let (depth, payload) = match frame {
            Frame::Msg { depth, payload } => (depth, payload),
            Frame::Fin => {
                self.peer_done = true;
                return Err(ProtocolError::ChannelClosed);
            }
        };
        self.stats.clock = self.stats.clock.max(depth);
        self.stats.bits_received += payload.len() as u64;
        self.stats.messages_received += 1;
        self.check_budget()?;
        intersect_obs::message(
            "comm",
            intersect_obs::Direction::Received,
            payload.len() as u64,
            self.stats.clock,
        );
        Ok(payload)
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Endpoint, Endpoint) {
        Endpoint::pair(None, Duration::from_secs(5))
    }

    fn msg(bits: usize) -> BitBuf {
        let mut b = BitBuf::new();
        for i in 0..bits {
            b.push_bit(i % 2 == 0);
        }
        b
    }

    #[test]
    fn send_recv_counts_bits_and_messages() {
        let (mut a, mut b) = pair();
        a.send(msg(10)).unwrap();
        a.send(msg(7)).unwrap();
        let m1 = b.recv().unwrap();
        let m2 = b.recv().unwrap();
        assert_eq!(m1.len(), 10);
        assert_eq!(m2.len(), 7);
        assert_eq!(a.stats().bits_sent, 17);
        assert_eq!(a.stats().messages_sent, 2);
        assert_eq!(b.stats().bits_received, 17);
        assert_eq!(b.stats().messages_received, 2);
    }

    #[test]
    fn consecutive_one_direction_messages_are_one_round() {
        let (mut a, mut b) = pair();
        a.send(msg(1)).unwrap();
        a.send(msg(1)).unwrap();
        a.send(msg(1)).unwrap();
        for _ in 0..3 {
            b.recv().unwrap();
        }
        assert_eq!(a.stats().clock, 0); // Alice never received anything
        assert_eq!(b.stats().clock, 1); // all three messages share one round
    }

    #[test]
    fn alternation_advances_rounds() {
        let (mut a, mut b) = pair();
        a.send(msg(1)).unwrap(); // round 1
        b.recv().unwrap();
        b.send(msg(1)).unwrap(); // round 2
        a.recv().unwrap();
        a.send(msg(1)).unwrap(); // round 3
        b.recv().unwrap();
        assert_eq!(b.stats().clock, 3);
        assert_eq!(a.stats().clock, 2);
    }

    #[test]
    fn simultaneous_exchange_is_one_round_each_way() {
        let (mut a, mut b) = pair();
        // Both send before either receives: a simultaneous round.
        a.send(msg(4)).unwrap();
        b.send(msg(4)).unwrap();
        a.recv().unwrap();
        b.recv().unwrap();
        assert_eq!(a.stats().clock, 1);
        assert_eq!(b.stats().clock, 1);
    }

    #[test]
    fn budget_is_enforced() {
        let (mut a, mut b) = Endpoint::pair(Some(16), Duration::from_secs(5));
        a.send(msg(10)).unwrap();
        let err = a.send(msg(10)).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::BudgetExceeded { limit_bits: 16 }
        ));
        // Receiver also trips its own budget once it has seen too much.
        b.recv().unwrap();
        let _ = b.recv(); // second frame was sent before the error; may exceed
    }

    #[test]
    fn disconnect_is_reported() {
        let (mut a, b) = pair();
        drop(b);
        assert_eq!(a.recv().unwrap_err(), ProtocolError::ChannelClosed);
        assert_eq!(a.send(msg(1)).unwrap_err(), ProtocolError::ChannelClosed);
    }

    #[test]
    fn timeout_is_reported() {
        let (mut a, _b) = Endpoint::pair(None, Duration::from_millis(10));
        assert_eq!(a.recv().unwrap_err(), ProtocolError::Timeout);
    }

    /// Both ends of a pair with `make`'s budget and timeout, each once as
    /// the waiting side: the first end yields while it waits, the second
    /// spins (`crossbeam_channel::Hot`), and neither may change what is
    /// reported.
    fn both_ways(make: impl Fn() -> (Endpoint, Endpoint)) -> [(Endpoint, Endpoint); 2] {
        let (a, b) = make();
        let (a2, b2) = make();
        [(a, b), (b2, a2)]
    }

    #[test]
    fn timeout_inside_the_hot_window_is_still_a_timeout_and_on_time() {
        use crossbeam_channel::{HOT_SPIN, HOT_WINDOW};
        for timeout in [HOT_SPIN / 3, HOT_WINDOW / 5, HOT_WINDOW * 40] {
            for (mut a, _b) in both_ways(|| Endpoint::pair(None, timeout)) {
                let start = std::time::Instant::now();
                assert_eq!(a.recv().unwrap_err(), ProtocolError::Timeout);
                let waited = start.elapsed();
                assert!(waited >= timeout, "{waited:?} < {timeout:?}");
                // Slack for a descheduled test thread, not for the wait.
                assert!(waited < timeout + HOT_WINDOW + Duration::from_millis(50));
            }
        }
    }

    #[test]
    fn unbounded_timeout_does_not_overflow_the_deadline() {
        // `RunConfig::timeout` is a public field: `Duration::MAX` must
        // mean "wait forever", not panic in `Instant + Duration`.
        let (mut a, mut b) = Endpoint::pair(None, Duration::MAX);
        let h = std::thread::spawn(move || {
            let got = b.recv().unwrap();
            b.send(got).unwrap();
            b.send_fin();
        });
        a.send(msg(6)).unwrap();
        assert_eq!(a.recv().unwrap().len(), 6);
        assert_eq!(a.recv().unwrap_err(), ProtocolError::ChannelClosed);
        h.join().unwrap();
    }

    #[test]
    fn a_waiting_receiver_sees_hangup_fin_and_budget_in_every_phase_of_the_wait() {
        use crossbeam_channel::HOT_WINDOW;
        // The peer acts while the receiver is still probing (no delay) or
        // long after it parked (8 windows): the report must not depend on
        // which, nor on which end of the pair waits.
        for delay in [Duration::ZERO, HOT_WINDOW * 8] {
            for (mut a, b) in both_ways(pair) {
                let h = std::thread::spawn(move || {
                    std::thread::sleep(delay);
                    drop(b);
                });
                assert_eq!(a.recv().unwrap_err(), ProtocolError::ChannelClosed);
                h.join().unwrap();
            }

            for (mut a, mut b) in both_ways(pair) {
                let h = std::thread::spawn(move || {
                    std::thread::sleep(delay);
                    b.send(msg(3)).unwrap();
                    b.send_fin();
                    b
                });
                assert_eq!(a.recv().unwrap().len(), 3);
                assert_eq!(a.recv().unwrap_err(), ProtocolError::ChannelClosed);
                assert_eq!(a.recv().unwrap_err(), ProtocolError::ChannelClosed);
                drop(h.join().unwrap());
            }

            for (mut a, mut b) in both_ways(|| Endpoint::pair(Some(16), Duration::from_secs(5))) {
                a.send(msg(5)).unwrap(); // never read by b: counts for a only
                let h = std::thread::spawn(move || {
                    std::thread::sleep(delay);
                    b.send(msg(10)).unwrap();
                    b.send(msg(6)).unwrap(); // within b's budget, past a's
                    b
                });
                assert_eq!(a.recv().unwrap().len(), 10);
                assert!(matches!(
                    a.recv().unwrap_err(),
                    ProtocolError::BudgetExceeded { limit_bits: 16 }
                ));
                drop(h.join().unwrap());
            }
        }
    }

    #[test]
    fn fin_emulates_a_hangup_after_queued_frames_drain() {
        let (mut a, mut b) = pair();
        a.send(msg(5)).unwrap();
        a.send(msg(3)).unwrap();
        a.send_fin();
        // Data queued before the fin still arrives in order …
        assert_eq!(b.recv().unwrap().len(), 5);
        assert_eq!(b.recv().unwrap().len(), 3);
        // … then the channel reads as closed, repeatably, in both directions.
        assert_eq!(b.recv().unwrap_err(), ProtocolError::ChannelClosed);
        assert_eq!(b.recv().unwrap_err(), ProtocolError::ChannelClosed);
        assert_eq!(b.send(msg(1)).unwrap_err(), ProtocolError::ChannelClosed);
        // Like a real post-drop send, the attempt was still metered.
        assert_eq!(b.stats().bits_sent, 1);
        assert_eq!(b.stats().messages_sent, 1);
    }

    #[test]
    fn fin_is_unmetered_and_does_not_advance_the_clock() {
        let (mut a, mut b) = pair();
        a.send(msg(4)).unwrap();
        a.send_fin();
        b.recv().unwrap();
        let _ = b.recv();
        assert_eq!(b.stats().bits_received, 4);
        assert_eq!(b.stats().messages_received, 1);
        assert_eq!(b.stats().clock, 1);
        assert_eq!(a.stats().bits_sent, 4);
        assert_eq!(a.stats().messages_sent, 1);
    }

    #[test]
    fn reset_restores_a_fresh_pair_state() {
        let (mut a, mut b) = pair();
        a.send(msg(9)).unwrap();
        b.recv().unwrap();
        b.send(msg(2)).unwrap();
        a.send(msg(1)).unwrap(); // left in flight: reset must discard it
        a.send_fin();
        b.recv().unwrap();
        let _ = b.recv(); // observe the fin
        b.send_fin();

        a.reset(Some(16), Duration::from_secs(5));
        b.reset(Some(16), Duration::from_secs(5));
        assert_eq!(a.stats(), ChannelStats::default());
        assert_eq!(b.stats(), ChannelStats::default());

        // The reused pair behaves exactly like a fresh one, budget included.
        a.send(msg(10)).unwrap();
        assert_eq!(b.recv().unwrap().len(), 10);
        assert_eq!(b.stats().clock, 1);
        assert!(matches!(
            a.send(msg(10)).unwrap_err(),
            ProtocolError::BudgetExceeded { limit_bits: 16 }
        ));
    }

    #[test]
    fn rearm_restores_fresh_counters_without_draining() {
        let (mut a, mut b) = pair();
        a.send(msg(3)).unwrap();
        a.rearm(Some(8), Duration::from_secs(5));
        assert_eq!(a.stats(), ChannelStats::default());
        // The in-flight frame was not discarded.
        assert_eq!(b.recv().unwrap().len(), 3);
        // The new budget applies from zeroed counters.
        a.send(msg(8)).unwrap();
        assert!(matches!(
            a.send(msg(1)).unwrap_err(),
            ProtocolError::BudgetExceeded { limit_bits: 8 }
        ));
    }

    #[test]
    fn endpoints_share_one_spill_pool() {
        let (a, b) = pair();
        assert!(Arc::ptr_eq(a.pool(), b.pool()));
    }

    #[test]
    fn exchange_round_trips() {
        let (mut a, mut b) = pair();
        let h = std::thread::spawn(move || {
            let got = b.exchange(msg(3)).unwrap();
            (got.len(), b)
        });
        let got = a.exchange(msg(5)).unwrap();
        assert_eq!(got.len(), 3);
        let (len_b, b) = h.join().unwrap();
        assert_eq!(len_b, 5);
        assert_eq!(a.stats().clock, 1);
        assert_eq!(b.stats().clock, 1);
    }
}
