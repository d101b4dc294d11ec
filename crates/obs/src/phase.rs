//! Thread-local phase labels, session attribution, and span guards.
//!
//! Three layers meet here:
//!
//! - **Protocols** mark phases with [`span`] guards: the label is pushed
//!   onto this thread's phase stack for the span's extent, so every
//!   message the transport emits meanwhile — and every transcript event a
//!   `Traced` wrapper records — carries it. On exit the span itself is
//!   emitted with its wall-clock duration and (via
//!   [`SpanGuard::finish`]) the bit/round delta it accrued.
//! - **Transcript tracers** (`comm::trace::Traced`) register a
//!   [`LabelSlot`]: a base entry in the same stack, writable via
//!   `set_label`, replacing the parallel label bookkeeping they used to
//!   carry. Registering also marks the thread *interested*, so phase
//!   labels are maintained even while the global subscriber is disabled.
//! - **The engine** wraps each session half in a [`SessionScope`] so
//!   every event emitted on the worker thread — spans, messages,
//!   instants — is attributed to its session and party.
//!
//! When the subscriber is disabled and no tracer is registered, all of
//! this is inert: guards are no-ops and nothing touches the stack.

use crate::event::{CostDelta, Event, EventKind, Party};
use crate::subscriber;
use std::cell::{Cell, RefCell};
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    static INTEREST: Cell<usize> = const { Cell::new(0) };
    static SESSION: Cell<Option<(u64, Party)>> = const { Cell::new(None) };
}

/// `true` when phase labels should be maintained on this thread: the
/// global subscriber is enabled, or a transcript tracer registered
/// interest here.
pub fn active() -> bool {
    subscriber::enabled() || INTEREST.with(|c| c.get() > 0)
}

/// The innermost phase label on this thread, if any.
pub(crate) fn current_label() -> Option<String> {
    STACK.with(|s| s.borrow().last().cloned())
}

/// The innermost phase label, or `""` when no phase is active.
pub fn current_label_or_empty() -> String {
    current_label().unwrap_or_default()
}

/// This thread's session attribution, set by [`SessionScope`].
pub(crate) fn current_session() -> Option<(u64, Party)> {
    SESSION.with(|c| c.get())
}

/// [`current_session`] split into the two `Option`s an [`Event`] carries.
pub(crate) fn current_session_split() -> (Option<u64>, Option<Party>) {
    match current_session() {
        Some((id, party)) => (Some(id), Some(party)),
        None => (None, None),
    }
}

/// Enters a phase span: pushes `label` onto the thread's phase stack and
/// starts the wall clock. See [`SpanGuard`] for exit behavior.
///
/// Near-free when [`active`] is false: no push, no clock read.
pub fn span(target: &'static str, label: &'static str) -> SpanGuard {
    if !active() {
        return SpanGuard { live: None };
    }
    STACK.with(|s| s.borrow_mut().push(label.to_string()));
    SpanGuard {
        live: Some(LiveSpan {
            target,
            label,
            start: Instant::now(),
        }),
    }
}

#[derive(Debug)]
struct LiveSpan {
    target: &'static str,
    label: &'static str,
    start: Instant,
}

/// An entered phase span. Pops its label and emits a span event either on
/// drop (duration only) or through [`finish`](SpanGuard::finish)
/// (duration plus communication delta).
#[derive(Debug)]
#[must_use = "a span guard marks its phase only while it lives"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl SpanGuard {
    /// Ends the span, attaching the bit/round cost it accrued (callers
    /// read their channel's stats at entry and exit and subtract).
    pub fn finish(mut self, delta: CostDelta) {
        if let Some(live) = self.live.take() {
            close(live, Some(delta));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            close(live, None);
        }
    }
}

fn close(live: LiveSpan, delta: Option<CostDelta>) {
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        debug_assert_eq!(stack.last().map(String::as_str), Some(live.label));
        stack.pop();
    });
    if !subscriber::enabled() {
        return; // label bookkeeping only (a tracer was interested)
    }
    let dur_micros = live.start.elapsed().as_micros() as u64;
    let (session, party) = current_session_split();
    subscriber::emit_with(|ts| Event {
        ts_micros: ts,
        target: live.target,
        name: live.label.to_string(),
        session,
        party,
        phase: current_label_or_empty(),
        trace: crate::tracing::current(),
        kind: EventKind::Span { dur_micros, delta },
    });
}

/// A writable base entry in the thread's phase stack, for transcript
/// tracers: `Traced::set_label` writes here, while protocol [`span`]s
/// stack on top and win while they live. Registering a slot marks the
/// thread interested, so labels are maintained even with the subscriber
/// disabled.
#[derive(Debug)]
pub struct LabelSlot {
    depth: usize,
}

impl LabelSlot {
    /// Registers a slot holding the empty label.
    pub fn register() -> LabelSlot {
        INTEREST.with(|c| c.set(c.get() + 1));
        let depth = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.push(String::new());
            stack.len() - 1
        });
        LabelSlot { depth }
    }

    /// Overwrites the slot's label (the *base* label: an active protocol
    /// phase keeps precedence until it exits).
    pub fn set(&mut self, label: String) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(entry) = stack.get_mut(self.depth) {
                *entry = label;
            }
        });
    }
}

impl Drop for LabelSlot {
    fn drop(&mut self) {
        INTEREST.with(|c| c.set(c.get().saturating_sub(1)));
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.truncate(self.depth);
        });
    }
}

/// Attributes everything emitted on this thread to one session and party
/// for the scope's lifetime; the previous attribution is restored on
/// drop (scopes nest).
#[derive(Debug)]
#[must_use = "a session scope attributes events only while it lives"]
pub struct SessionScope {
    prev: Option<(u64, Party)>,
}

impl SessionScope {
    /// Enters the scope.
    pub fn enter(session: u64, party: Party) -> SessionScope {
        let prev = SESSION.with(|c| c.replace(Some((session, party))));
        SessionScope { prev }
    }
}

impl Drop for SessionScope {
    fn drop(&mut self) {
        SESSION.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscriber::Subscriber;

    #[test]
    fn spans_nest_and_emit_with_deltas() {
        let sub = Subscriber::new();
        let _g = sub.install();
        {
            let outer = span("t_nest", "outer");
            assert_eq!(current_label_or_empty(), "outer");
            {
                let inner = span("t_nest", "inner");
                assert_eq!(current_label_or_empty(), "inner");
                inner.finish(CostDelta {
                    bits_sent: 8,
                    bits_received: 4,
                    rounds: 1,
                });
            }
            assert_eq!(current_label_or_empty(), "outer");
            drop(outer);
        }
        assert_eq!(current_label(), None);
        // Filter to this test's target: while our subscriber is installed,
        // sibling tests' emissions land here too.
        let events: Vec<_> = sub
            .events()
            .into_iter()
            .filter(|e| e.target == "t_nest")
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "inner");
        assert_eq!(
            events[0].delta(),
            Some(CostDelta {
                bits_sent: 8,
                bits_received: 4,
                rounds: 1
            })
        );
        // The inner span's `phase` field is the label still active at
        // close time: its parent.
        assert_eq!(events[0].phase, "outer");
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].delta(), None);
    }

    #[test]
    fn label_slot_is_base_and_protocol_spans_win() {
        let sub = Subscriber::new();
        let _g = sub.install();
        let mut slot = LabelSlot::register();
        slot.set("setup".into());
        assert_eq!(current_label_or_empty(), "setup");
        {
            let _p = span("test", "verify");
            assert_eq!(current_label_or_empty(), "verify");
        }
        assert_eq!(current_label_or_empty(), "setup");
        slot.set("reply".into());
        assert_eq!(current_label_or_empty(), "reply");
        drop(slot);
        assert_eq!(current_label(), None);
    }

    #[test]
    fn label_slot_keeps_labels_alive_without_subscriber() {
        // No subscriber in this test: interest alone maintains labels.
        let mut slot = LabelSlot::register();
        assert!(active());
        slot.set("hello".into());
        {
            let _p = span("test", "phase");
            assert_eq!(current_label_or_empty(), "phase");
        }
        assert_eq!(current_label_or_empty(), "hello");
        drop(slot);
    }

    #[test]
    fn span_guard_always_restores_the_stack() {
        // Whether or not a sibling test has a subscriber installed right
        // now, a span guard leaves the stack exactly as it found it.
        let before = current_label();
        let g = span("test", "ghost");
        drop(g);
        assert_eq!(current_label(), before);
    }

    #[test]
    fn session_scopes_nest_and_restore() {
        let sub = Subscriber::new();
        let _g = sub.install();
        assert_eq!(current_session(), None);
        {
            let _outer = SessionScope::enter(7, Party::Alice);
            assert_eq!(current_session(), Some((7, Party::Alice)));
            {
                let _inner = SessionScope::enter(8, Party::Bob);
                assert_eq!(current_session(), Some((8, Party::Bob)));
            }
            assert_eq!(current_session(), Some((7, Party::Alice)));
        }
        assert_eq!(current_session(), None);
        {
            let _scope = SessionScope::enter(9, Party::Bob);
            crate::subscriber::instant("t_scope", "tagged");
        }
        crate::subscriber::instant("t_scope", "untagged");
        let events: Vec<_> = sub
            .events()
            .into_iter()
            .filter(|e| e.target == "t_scope")
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].session, Some(9));
        assert_eq!(events[0].party, Some(Party::Bob));
        assert_eq!(events[1].session, None);
    }
}
