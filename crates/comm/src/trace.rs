//! Transcript recording for protocol debugging and inspection.
//!
//! Wrap any [`Chan`] in a [`Traced`] to capture the exact message
//! schedule — direction, size, and causal clock of every message, plus
//! caller-supplied phase labels — without perturbing the protocol. This is
//! how the repository's message-schedule claims (e.g. "a whole stage
//! batches into one exchange") can be inspected directly; see
//! `examples/transcript_inspector.rs`.
//!
//! Labels live in the shared `intersect_obs` phase stack rather than a
//! private field: [`Traced::set_label`] writes a
//! [`intersect_obs::phase::LabelSlot`], and each recorded event reads the
//! innermost label at record time. Protocol-internal phase spans (the
//! `intersect_obs::phase::span` guards the core protocols hold) therefore
//! take precedence over the caller's label while they live, so a
//! transcript of a real protocol run shows the protocol's own phases.

use crate::bits::BitBuf;
use crate::chan::Chan;
use crate::error::ProtocolError;
use crate::stats::ChannelStats;

/// Direction of a recorded message, from the wrapped endpoint's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The endpoint sent this message.
    Sent,
    /// The endpoint received this message.
    Received,
}

/// One recorded message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Who moved the message.
    pub direction: Direction,
    /// Payload size in bits.
    pub bits: usize,
    /// The endpoint's causal clock after the event.
    pub clock: u64,
    /// The phase label active when the event happened.
    pub label: String,
}

/// Aggregated traffic for one phase label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSummary {
    /// The label.
    pub label: String,
    /// Bits sent under this label.
    pub bits_sent: u64,
    /// Bits received under this label.
    pub bits_received: u64,
    /// Messages in either direction.
    pub messages: usize,
}

/// A [`Chan`] adapter that records every message.
///
/// # Examples
///
/// ```
/// use intersect_comm::prelude::*;
/// use intersect_comm::trace::{Direction, Traced};
///
/// let out = run_two_party(
///     &RunConfig::with_seed(1),
///     |chan, _| {
///         let mut traced = Traced::new(&mut *chan);
///         traced.set_label("hello");
///         let mut m = BitBuf::new();
///         m.push_bits(7, 3);
///         traced.send(m)?;
///         traced.set_label("reply");
///         traced.recv()?;
///         Ok(traced.into_events())
///     },
///     |chan, _| {
///         let m = chan.recv()?;
///         chan.send(m)?;
///         Ok(())
///     },
/// )?;
/// assert_eq!(out.alice.len(), 2);
/// assert_eq!(out.alice[0].direction, Direction::Sent);
/// assert_eq!(out.alice[0].label, "hello");
/// assert_eq!(out.alice[1].label, "reply");
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
#[derive(Debug)]
pub struct Traced<C> {
    inner: C,
    events: Vec<TraceEvent>,
    slot: intersect_obs::phase::LabelSlot,
}

impl<C: Chan> Traced<C> {
    /// Wraps a channel; the initial phase label is empty.
    pub fn new(inner: C) -> Self {
        Traced {
            inner,
            events: Vec::new(),
            slot: intersect_obs::phase::LabelSlot::register(),
        }
    }

    /// Sets the phase label attached to subsequent events.
    ///
    /// This writes the tracer's base slot in the thread's phase stack; a
    /// protocol-internal span keeps precedence until it exits.
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.slot.set(label.into());
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the tracer, returning the event log.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Returns the wrapped channel, discarding the log.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Aggregates the log by phase label, in first-seen order.
    pub fn summary(&self) -> Vec<PhaseSummary> {
        summarize(&self.events, |ev| ev.label.clone())
    }
}

/// Aggregates an event log under the label `label` gives each event, in
/// first-seen order.
pub fn summarize(
    events: &[TraceEvent],
    label: impl Fn(&TraceEvent) -> String,
) -> Vec<PhaseSummary> {
    let mut out: Vec<PhaseSummary> = Vec::new();
    for ev in events {
        let label = label(ev);
        let entry = match out.iter_mut().find(|p| p.label == label) {
            Some(e) => e,
            None => {
                out.push(PhaseSummary {
                    label,
                    bits_sent: 0,
                    bits_received: 0,
                    messages: 0,
                });
                out.last_mut().expect("just pushed")
            }
        };
        entry.messages += 1;
        match ev.direction {
            Direction::Sent => entry.bits_sent += ev.bits as u64,
            Direction::Received => entry.bits_received += ev.bits as u64,
        }
    }
    out
}

impl<C: Chan> Chan for Traced<C> {
    fn send(&mut self, msg: BitBuf) -> Result<(), ProtocolError> {
        let bits = msg.len();
        self.inner.send(msg)?;
        self.events.push(TraceEvent {
            direction: Direction::Sent,
            bits,
            clock: self.inner.stats().clock,
            label: intersect_obs::phase::current_label_or_empty(),
        });
        Ok(())
    }

    fn recv(&mut self) -> Result<BitBuf, ProtocolError> {
        let msg = self.inner.recv()?;
        self.events.push(TraceEvent {
            direction: Direction::Received,
            bits: msg.len(),
            clock: self.inner.stats().clock,
            label: intersect_obs::phase::current_label_or_empty(),
        });
        Ok(msg)
    }

    fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_two_party, RunConfig};

    fn bits(n: usize) -> BitBuf {
        let mut b = BitBuf::new();
        for _ in 0..n {
            b.push_bit(true);
        }
        b
    }

    #[test]
    fn records_directions_sizes_and_clocks() {
        let out = run_two_party(
            &RunConfig::with_seed(1),
            |chan, _| {
                let mut t = Traced::new(&mut *chan);
                t.send(bits(5))?;
                t.recv()?;
                t.send(bits(2))?;
                Ok(t.into_events())
            },
            |chan, _| {
                chan.recv()?;
                chan.send(bits(9))?;
                chan.recv()?;
                Ok(())
            },
        )
        .unwrap();
        let ev = out.alice;
        assert_eq!(ev.len(), 3);
        assert_eq!(
            ev.iter().map(|e| e.direction).collect::<Vec<_>>(),
            vec![Direction::Sent, Direction::Received, Direction::Sent]
        );
        assert_eq!(ev.iter().map(|e| e.bits).collect::<Vec<_>>(), vec![5, 9, 2]);
        // Clocks are non-decreasing along the log.
        assert!(ev.windows(2).all(|w| w[0].clock <= w[1].clock));
    }

    #[test]
    fn summary_groups_by_label_in_order() {
        let out = run_two_party(
            &RunConfig::with_seed(2),
            |chan, _| {
                let mut t = Traced::new(&mut *chan);
                t.set_label("setup");
                t.send(bits(10))?;
                t.set_label("verify");
                t.send(bits(4))?;
                t.recv()?;
                t.set_label("setup"); // revisit an earlier label
                t.send(bits(1))?;
                Ok(t.summary())
            },
            |chan, _| {
                chan.recv()?;
                chan.recv()?;
                chan.send(bits(8))?;
                chan.recv()?;
                Ok(())
            },
        )
        .unwrap();
        let summary = out.alice;
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].label, "setup");
        assert_eq!(summary[0].bits_sent, 11);
        assert_eq!(summary[0].messages, 2);
        assert_eq!(summary[1].label, "verify");
        assert_eq!(summary[1].bits_sent, 4);
        assert_eq!(summary[1].bits_received, 8);
        assert_eq!(summary[1].messages, 2);
    }

    #[test]
    fn tracing_does_not_perturb_the_protocol() {
        // Same exchange with and without tracing: identical stats.
        let run = |traced: bool| {
            run_two_party(
                &RunConfig::with_seed(3),
                move |chan, _| {
                    if traced {
                        let mut t = Traced::new(&mut *chan);
                        t.send(bits(7))?;
                        t.recv().map(|m| m.len())
                    } else {
                        chan.send(bits(7))?;
                        chan.recv().map(|m| m.len())
                    }
                },
                |chan, _| {
                    let m = chan.recv()?;
                    chan.send(m)?;
                    Ok(())
                },
            )
            .unwrap()
            .report
        };
        assert_eq!(run(true), run(false));
    }
}
