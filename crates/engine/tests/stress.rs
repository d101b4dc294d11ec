//! Engine stress test: ten thousand mixed-shape concurrent sessions,
//! every one checked for an exact intersection and a communication cost
//! bit-for-bit identical to a dedicated single-session run.
//!
//! The engine runs with an observability subscriber installed, so this
//! test simultaneously proves (a) instrumentation does not perturb any
//! session — the dedicated reference runs execute *after* the subscriber
//! is gone and must match bit-for-bit — and (b) every session's two
//! `session` spans account for its CostReport exactly. Before that, the
//! whole catalogue is served once without and once with a subscriber,
//! and must settle identically.

use intersect_comm::stats::CostReport;
use intersect_core::api::{execute, ProtocolChoice};
use intersect_core::sets::{ElementSet, ProblemSpec};
use intersect_engine::prelude::*;
use intersect_obs as obs;
use std::collections::BTreeMap;

/// A varied workload: four set sizes, three universes, sweeping overlaps,
/// per-session seeds, and a sprinkling of explicit protocol overrides so
/// the whole catalogue sees traffic.
fn mixed_workload(count: u64) -> Vec<SessionRequest> {
    let shapes = [
        (1u64 << 16, 8u64),
        (1 << 16, 16),
        (1 << 18, 32),
        (1 << 20, 64),
        (1 << 18, 16),
        (1 << 20, 32),
    ];
    let overrides = [
        ProtocolChoice::Trivial,
        ProtocolChoice::OneRound,
        ProtocolChoice::Tree(2),
        ProtocolChoice::TreeLogStar,
        ProtocolChoice::TreePipelined(2),
        ProtocolChoice::Sqrt,
        ProtocolChoice::IbltReconcile,
    ];
    (0..count)
        .map(|id| {
            let (n, k) = shapes[(id % shapes.len() as u64) as usize];
            let overlap = (id % (k + 1)) as usize;
            let mut req = SessionRequest::new(id, ProblemSpec::new(n, k), overlap);
            req.seed = id.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xdead_beef;
            if id % 5 == 0 {
                req.protocol = Some(overrides[(id / 5 % overrides.len() as u64) as usize]);
            }
            req
        })
        .collect()
}

/// Every catalogue protocol at two cardinalities through one engine;
/// returns each session's id, cost report and outputs, sorted by id.
fn serve_catalogue() -> Vec<(u64, CostReport, Option<ElementSet>, Option<ElementSet>)> {
    let engine = Engine::start(EngineConfig::new(2));
    let mut id = 0u64;
    for choice in ProtocolChoice::all(3) {
        for k in [16u64, 64] {
            id += 1;
            let mut req = SessionRequest::new(id, ProblemSpec::new(1 << 20, k), (k / 3) as usize);
            req.seed = id.wrapping_mul(0xE24) + 7;
            req.protocol = Some(choice);
            engine.submit(req).unwrap();
        }
    }
    let mut sessions: Vec<_> = engine
        .finish()
        .outcomes
        .into_iter()
        .map(|o| {
            assert!(o.succeeded(), "{}: {:?}", o.protocol_name, o.error);
            (o.request.id, o.report, o.alice, o.bob)
        })
        .collect();
    sessions.sort_by_key(|s| s.0);
    sessions
}

#[test]
fn ten_thousand_sessions_are_exact_and_bit_identical_to_dedicated_runs() {
    const SESSIONS: u64 = 10_000;
    let untraced = serve_catalogue();
    let sub = obs::Subscriber::new();
    let installed = sub.install();
    // Trace minting, scopes, timelines and the flight recorder change no
    // bit of any catalogue protocol.
    assert_eq!(serve_catalogue(), untraced, "tracing changed a session");
    drop(sub.take_events());
    let engine = Engine::start(EngineConfig::new(8));
    for req in mixed_workload(SESSIONS) {
        engine.submit(req).unwrap();
    }
    let report = engine.finish();
    drop(installed); // reference runs below must be uninstrumented
    assert_eq!(report.outcomes.len() as u64, SESSIONS);

    // Per-session span accounting: each session emits one `session` span
    // per party whose delta is that endpoint's final stats, so summing
    // the two spans' sent bits reproduces the session's total cost, and
    // the larger clock delta is its round count.
    let mut span_bits: BTreeMap<u64, u64> = BTreeMap::new();
    let mut span_rounds: BTreeMap<u64, u64> = BTreeMap::new();
    let mut span_count = 0u64;
    for ev in sub.take_events() {
        if ev.target != "engine" || ev.name != "session" {
            continue;
        }
        let session = ev.session.expect("session spans are attributed");
        let delta = ev.delta().expect("session spans carry deltas");
        *span_bits.entry(session).or_insert(0) += delta.bits_sent;
        let r = span_rounds.entry(session).or_insert(0);
        *r = (*r).max(delta.rounds);
        span_count += 1;
    }
    assert_eq!(span_count, 2 * SESSIONS, "two session spans per session");

    let mut per_protocol_seen = std::collections::BTreeSet::new();
    let mut monte_carlo_misses = 0u64;
    let mut disagreements = 0u64;
    for outcome in &report.outcomes {
        let req = &outcome.request;
        assert!(
            outcome.error.is_none(),
            "session {}: {:?}",
            req.id,
            outcome.error
        );
        let pair = req.input_pair();
        let truth = pair.ground_truth();
        assert_eq!(truth.len(), req.overlap, "generator broke its contract");

        // The defining invariant: scheduling on the shared pool changes
        // nothing about the session itself. Rerun it dedicated and demand
        // the identical outputs and the identical cost report.
        let reference = execute(
            outcome.protocol.build(req.spec).as_ref(),
            req.spec,
            &pair,
            req.seed,
        )
        .unwrap();
        assert_eq!(
            outcome.report, reference.report,
            "session {} ({}): engine cost differs from dedicated run",
            req.id, outcome.protocol_name
        );
        assert_eq!(
            outcome.alice.as_ref(),
            Some(&reference.alice),
            "session {}",
            req.id
        );
        assert_eq!(
            outcome.bob.as_ref(),
            Some(&reference.bob),
            "session {}",
            req.id
        );

        // Span accounting matches the cost report exactly.
        assert_eq!(
            span_bits.get(&req.id).copied(),
            Some(outcome.report.total_bits()),
            "session {}: span bit deltas disagree with the report",
            req.id
        );
        assert_eq!(
            span_rounds.get(&req.id).copied(),
            Some(outcome.report.rounds),
            "session {}: span round deltas disagree with the report",
            req.id
        );

        // Exactness: the one-round hash protocol is Monte Carlo and may
        // return a superset on a hash collision. Any such miss must be an
        // inherent property of (protocol, seed) — reproduced identically
        // by the dedicated run above — never an engine artifact, and the
        // aggregate rate must stay within the protocol's error budget.
        if outcome.alice.as_ref() != Some(&truth) || outcome.bob.as_ref() != Some(&truth) {
            assert!(
                outcome.protocol == ProtocolChoice::OneRound,
                "session {}: {} is not allowed to err",
                req.id,
                outcome.protocol_name
            );
            monte_carlo_misses += 1;
        }
        if !outcome.succeeded() {
            disagreements += 1;
        }
        per_protocol_seen.insert(outcome.protocol_name.clone());
    }
    assert!(
        monte_carlo_misses <= SESSIONS / 100,
        "{monte_carlo_misses} Monte Carlo misses in {SESSIONS} sessions"
    );

    // A disagreement between the two sides is always a truth-miss too.
    assert!(disagreements <= monte_carlo_misses);

    // The registry agrees with the outcomes it aggregated.
    let m = &report.snapshot.metrics;
    assert_eq!(m.submitted, SESSIONS);
    assert_eq!(m.completed, SESSIONS - disagreements);
    assert_eq!(m.failed, disagreements);
    assert_eq!(m.rejected, 0);
    let bits: u64 = report.outcomes.iter().map(|o| o.report.total_bits()).sum();
    assert_eq!(m.total_bits, bits);
    assert_eq!(m.rounds_histogram.values().sum::<u64>(), SESSIONS);
    assert_eq!(
        m.per_protocol.keys().cloned().collect::<Vec<_>>(),
        per_protocol_seen.into_iter().collect::<Vec<_>>()
    );
    assert!(
        m.per_protocol.len() >= 6,
        "workload too uniform: only {:?}",
        m.per_protocol.keys().collect::<Vec<_>>()
    );
}
