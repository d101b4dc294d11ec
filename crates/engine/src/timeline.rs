//! Per-session latency waterfalls.
//!
//! A session's admission-to-settlement latency is one number; this
//! module decomposes it into the named segments an operator can act on:
//!
//! | segment          | boundary                                        |
//! |------------------|-------------------------------------------------|
//! | `admit-queue`    | submitted → dispatcher picked the submission up |
//! | `plan-cache`     | dispatched → routed + plan/context resolved     |
//! | `wire-wait`      | planned → a worker started the session          |
//! | `coin-refill`    | started → coin seeds/presamples materialized    |
//! | `rounds-execute` | coins ready → protocol rounds finished          |
//! | `drain`          | executed → outcome folded and settled           |
//!
//! The segments are computed from consecutive wall-clock stamps, so by
//! construction they **tile** the submitted-to-settled span exactly — up
//! to one microsecond of truncation per segment, which is the ε the
//! tiling tests allow. The stamps never feed back into scheduling or
//! protocol execution: timelines are observability-only and change no
//! bits on the wire.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Stable segment names, in waterfall order. These are the `segment`
/// label values of the `engine_segment_micros` metric family.
pub const SEGMENTS: [&str; 6] = [
    "admit-queue",
    "plan-cache",
    "wire-wait",
    "coin-refill",
    "rounds-execute",
    "drain",
];

/// One settled session's latency waterfall, microseconds per segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionTimeline {
    /// Waiting in the bounded admission queue (plus the dispatcher's
    /// in-flight gate) before dispatch.
    pub admit_queue_micros: u64,
    /// Routing and plan-cache (or pair-context) resolution on the
    /// dispatcher thread.
    pub plan_cache_micros: u64,
    /// Waiting in the worker's inbox to be picked up; for remote sessions
    /// this is where transport hand-off latency lands.
    pub wire_wait_micros: u64,
    /// Coin-seed derivation and randomness presampling on the worker.
    pub coin_refill_micros: u64,
    /// The protocol rounds themselves, both halves.
    pub rounds_execute_micros: u64,
    /// Folding results, reports, and accounting after the last round.
    pub drain_micros: u64,
}

impl SessionTimeline {
    /// The waterfall as `(segment, micros)` rows in [`SEGMENTS`] order.
    pub fn segments(&self) -> [(&'static str, u64); 6] {
        [
            (SEGMENTS[0], self.admit_queue_micros),
            (SEGMENTS[1], self.plan_cache_micros),
            (SEGMENTS[2], self.wire_wait_micros),
            (SEGMENTS[3], self.coin_refill_micros),
            (SEGMENTS[4], self.rounds_execute_micros),
            (SEGMENTS[5], self.drain_micros),
        ]
    }

    /// Sum of all segments: the submitted-to-settled span (up to one
    /// microsecond of truncation per segment).
    pub fn total_micros(&self) -> u64 {
        self.segments().iter().map(|(_, micros)| micros).sum()
    }

    /// Folds another timeline in, segment by segment (used by reporters
    /// that aggregate per-workload attribution tables).
    pub fn accumulate(&mut self, other: &SessionTimeline) {
        self.admit_queue_micros += other.admit_queue_micros;
        self.plan_cache_micros += other.plan_cache_micros;
        self.wire_wait_micros += other.wire_wait_micros;
        self.coin_refill_micros += other.coin_refill_micros;
        self.rounds_execute_micros += other.rounds_execute_micros;
        self.drain_micros += other.drain_micros;
    }
}

/// The raw wall-clock stamps a session accumulates on its way through
/// the engine; [`settle`](TimelineStamps::settle) turns them into a
/// [`SessionTimeline`] at emission time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimelineStamps {
    /// Client thread handed the submission to the admission queue.
    pub submitted_at: Instant,
    /// Dispatcher pulled the submission past the in-flight gate.
    pub dispatched_at: Instant,
    /// Routing and plan resolution finished; handed to a worker's inbox.
    pub planned_at: Instant,
    /// A worker picked the session up.
    pub started_at: Instant,
    /// Coin seeds and presamples were ready on the worker.
    pub coins_ready_at: Instant,
    /// The protocol rounds finished.
    pub executed_at: Instant,
}

impl TimelineStamps {
    /// A task's stamps as it leaves the dispatcher: planned now, the
    /// worker's three stamps still to come.
    pub(crate) fn planned(submitted_at: Instant, dispatched_at: Instant) -> Self {
        let planned_at = Instant::now();
        TimelineStamps {
            submitted_at,
            dispatched_at,
            planned_at,
            started_at: planned_at,
            coins_ready_at: planned_at,
            executed_at: planned_at,
        }
    }

    /// Admission until now: the latency an outcome reports.
    pub(crate) fn latency_micros(&self) -> u64 {
        self.planned_at.elapsed().as_micros() as u64
    }

    /// Closes the waterfall now: each segment is the span between two
    /// consecutive stamps, so the segments tile submitted-to-settled by
    /// construction. Saturating, so clock adjustments can't panic.
    pub(crate) fn settle(self) -> SessionTimeline {
        let settled_at = Instant::now();
        let span = |a: Instant, b: Instant| b.saturating_duration_since(a).as_micros() as u64;
        SessionTimeline {
            admit_queue_micros: span(self.submitted_at, self.dispatched_at),
            plan_cache_micros: span(self.dispatched_at, self.planned_at),
            wire_wait_micros: span(self.planned_at, self.started_at),
            coin_refill_micros: span(self.started_at, self.coins_ready_at),
            rounds_execute_micros: span(self.coins_ready_at, self.executed_at),
            drain_micros: span(self.executed_at, settled_at),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn segments_tile_the_settled_span() {
        let t0 = Instant::now();
        let stamps = TimelineStamps {
            submitted_at: t0,
            dispatched_at: t0,
            planned_at: t0,
            started_at: t0,
            coins_ready_at: t0,
            executed_at: t0,
        };
        std::thread::sleep(Duration::from_millis(2));
        let before = t0.elapsed().as_micros() as u64;
        let timeline = stamps.settle();
        let after = t0.elapsed().as_micros() as u64;
        let total = timeline.total_micros();
        // Everything landed in `drain`; the five earlier segments are 0
        // and the sum brackets the end-to-end span within per-segment
        // truncation (each segment may under-report by < 1µs).
        assert_eq!(timeline.segments().len(), SEGMENTS.len());
        assert!(total >= 2_000, "slept 2ms but total is {total}µs");
        assert!(
            total + SEGMENTS.len() as u64 >= before,
            "tiling gap: total {total}µs < {before}µs minus truncation ε"
        );
        assert!(total <= after, "tiling overshot: {total}µs > {after}µs");
    }

    #[test]
    fn accumulate_sums_segment_by_segment() {
        let mut acc = SessionTimeline::default();
        let one = SessionTimeline {
            admit_queue_micros: 1,
            plan_cache_micros: 2,
            wire_wait_micros: 3,
            coin_refill_micros: 4,
            rounds_execute_micros: 5,
            drain_micros: 6,
        };
        acc.accumulate(&one);
        acc.accumulate(&one);
        assert_eq!(acc.total_micros(), 42);
        assert_eq!(acc.rounds_execute_micros, 10);
    }

    #[test]
    fn timeline_round_trips_through_json() {
        let t = SessionTimeline {
            admit_queue_micros: 10,
            plan_cache_micros: 0,
            wire_wait_micros: 7,
            coin_refill_micros: 1,
            rounds_execute_micros: 900,
            drain_micros: 2,
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: SessionTimeline = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
