//! [`Chan`] over a framed socket: the remote counterpart of the
//! in-process [`Endpoint`](intersect_comm::chan::Endpoint).
//!
//! A [`RemoteChan`] meters exactly what the in-process endpoint meters —
//! payload bits and message counts on [`WireFrame::Msg`] frames only,
//! causal depth stamped as `clock + 1` on send and folded in with `max`
//! on receive — so a protocol half executed over a socket produces a
//! [`ChannelStats`] bit-identical to the same half executed in process.
//! Framing bytes (length prefixes, type tags, session ids) are
//! transport overhead, visible in `net_frame_bytes_total` but never in
//! `ChannelStats`: the paper's cost model counts protocol bits, and the
//! wire format is built so the two ledgers stay separable.

use crate::frame::WireFrame;
use crate::mux::{deadline_after, Conn};
use intersect_comm::bits::BitBuf;
use intersect_comm::chan::Chan;
use intersect_comm::error::ProtocolError;
use intersect_comm::stats::ChannelStats;
use std::sync::Arc;
use std::time::Duration;

/// Consumes the answer to `session`'s Open: the protocol the server's
/// Accept names.
///
/// # Errors
///
/// A refusal surfaces as `server refused: …`; anything else in the
/// Accept's place is a peer bug.
pub(crate) fn await_accept(
    conn: &Arc<Conn>,
    session: u64,
    timeout: Duration,
) -> Result<String, ProtocolError> {
    match conn.wait((session, 0), deadline_after(timeout))? {
        WireFrame::Accept { protocol, .. } => Ok(protocol),
        WireFrame::Error { message, .. } => Err(ProtocolError::Internal(format!(
            "server refused: {message}"
        ))),
        other => Err(ProtocolError::Internal(format!(
            "expected accept, got {other:?}"
        ))),
    }
}

/// One session's channel over a multiplexed connection.
#[derive(Debug)]
pub(crate) struct RemoteChan {
    conn: Arc<Conn>,
    session: u64,
    stats: ChannelStats,
    peer_done: bool,
    timeout: Duration,
    budget: Option<u64>,
    /// The protocol a pinned open went ahead with, while its Accept is
    /// still outstanding: the first event read must be that Accept.
    pinned: Option<String>,
}

impl RemoteChan {
    pub(crate) fn new(
        conn: Arc<Conn>,
        session: u64,
        timeout: Duration,
        budget: Option<u64>,
        pinned: Option<String>,
    ) -> RemoteChan {
        RemoteChan {
            conn,
            session,
            stats: ChannelStats::default(),
            peer_done: false,
            timeout,
            budget,
            pinned,
        }
    }

    fn check_budget(&self) -> Result<(), ProtocolError> {
        if let Some(limit) = self.budget {
            if self.stats.total_bits() > limit {
                return Err(ProtocolError::BudgetExceeded { limit_bits: limit });
            }
        }
        Ok(())
    }

    fn next_event(&mut self) -> Result<WireFrame, ProtocolError> {
        // The Accept arrives first, in order; a pinned open checks it
        // here instead of having waited a round trip for it.
        if let Some(pin) = self.pinned.take() {
            let accepted = await_accept(&self.conn, self.session, self.timeout)?;
            if accepted != pin {
                return Err(ProtocolError::Internal(format!(
                    "server accepted {accepted}, request pinned {pin}"
                )));
            }
        }
        self.conn
            .wait((self.session, 0), deadline_after(self.timeout))
    }

    /// Consumes post-protocol events until the peer's [`WireFrame::Done`].
    ///
    /// # Errors
    ///
    /// Surfaces peer-reported failures, connection loss, and timeouts.
    pub(crate) fn wait_done(&mut self) -> Result<(ChannelStats, Vec<u64>), ProtocolError> {
        loop {
            match self.next_event()? {
                WireFrame::Fin { .. } => self.peer_done = true,
                WireFrame::Done { stats, result, .. } => return Ok((stats, result)),
                WireFrame::Error { message, .. } => {
                    return Err(ProtocolError::Internal(format!(
                        "remote peer failed: {message}"
                    )))
                }
                WireFrame::Msg { .. } | WireFrame::Accept { .. } => {
                    return Err(ProtocolError::Internal(
                        "unexpected frame after session completion".into(),
                    ))
                }
                _ => {
                    return Err(ProtocolError::Internal(
                        "multiparty frame on a two-party session".into(),
                    ))
                }
            }
        }
    }
}

impl Chan for RemoteChan {
    fn send(&mut self, msg: BitBuf) -> Result<(), ProtocolError> {
        // Metering mirrors `Endpoint::send` exactly: count first, then
        // budget-check, then fail if the peer is gone — so a send into a
        // closed session leaves the same counter trail either way.
        let bits = msg.len() as u64;
        self.stats.bits_sent += bits;
        self.stats.messages_sent += 1;
        self.check_budget()?;
        if self.peer_done {
            return Err(ProtocolError::ChannelClosed);
        }
        let frame = WireFrame::Msg {
            session: self.session,
            depth: self.stats.clock + 1,
            payload: msg,
        };
        self.conn.send(&frame, true)?;
        intersect_obs::message(
            "net",
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
        match self.next_event()? {
            WireFrame::Msg { depth, payload, .. } => {
                self.stats.clock = self.stats.clock.max(depth);
                self.stats.bits_received += payload.len() as u64;
                self.stats.messages_received += 1;
                self.check_budget()?;
                intersect_obs::message(
                    "net",
                    intersect_obs::Direction::Received,
                    payload.len() as u64,
                    self.stats.clock,
                );
                Ok(payload)
            }
            WireFrame::Fin { .. } => {
                self.peer_done = true;
                Err(ProtocolError::ChannelClosed)
            }
            WireFrame::Error { message, .. } => Err(ProtocolError::Internal(format!(
                "remote peer failed: {message}"
            ))),
            // The open's Accept was consumed before the first message;
            // a second one is a peer bug, not a transport fault.
            WireFrame::Accept { .. } => Err(ProtocolError::Internal(
                "unexpected accept frame mid-session".into(),
            )),
            WireFrame::Done { .. } => Err(ProtocolError::Internal(
                "peer completed while a message was expected".into(),
            )),
            _ => Err(ProtocolError::Internal(
                "multiparty frame on a two-party session".into(),
            )),
        }
    }

    fn stats(&self) -> ChannelStats {
        self.stats
    }
}
