//! E18: the substrate hot path — zero-allocation messages and reusable
//! session runners, with bit-exactness asserted against dedicated runs.

use crate::table::{fmt_bits, Table};
use crate::throughput;
use intersect_core::api::execute;
use intersect_engine::prelude::*;

/// E18 — substrate throughput before/after the zero-allocation rework.
///
/// Three views: the message hot path (ns/message at widths straddling
/// the `BitBuf` inline capacity), the session path (spawn-per-session
/// vs a reused [`SessionRunner`]), and the concurrent engine on the
/// stress workload — where every session's cost report is re-derived by
/// a dedicated `run_two_party` run and must match bit for bit.
///
/// Exact allocation counts need a process-wide counting allocator, which
/// only the dedicated `throughput` binary installs; its output is
/// checked in at `BENCH_throughput.json`, and the zero-allocation claim
/// itself is pinned by `crates/comm/tests/no_alloc_steady.rs`.
///
/// [`SessionRunner`]: intersect_comm::runner::SessionRunner
pub fn e18(quick: bool) -> Vec<Table> {
    let rep = throughput::run(quick, || 0);

    let mut messages = Table::new(
        "E18a — message hot path: ns/message by payload width and transport \
         (claim: the reused-runner transport serves every width, inline or \
         spilled, at dedicated-session speed; exact allocs/message are \
         recorded by the `throughput` binary in BENCH_throughput.json)",
        &["transport", "bits", "messages", "ns/message"],
    );
    for s in &rep.message_path {
        messages.push_row(vec![
            s.transport.clone(),
            s.bits.to_string(),
            s.messages.to_string(),
            format!("{:.0}", s.ns_per_message),
        ]);
    }

    let mut sessions = Table::new(
        "E18b — session path: spawn-per-session vs reused runner on an \
         identical workload (claim: reusing the paired thread removes \
         thread spawn/teardown from every session)",
        &[
            "substrate",
            "sessions",
            "ns/session",
            "sessions/s",
            "vs spawn",
        ],
    );
    let spawn_ns = rep
        .session_path
        .iter()
        .find(|s| s.label == "spawn_handshake")
        .map(|s| s.ns_per_session);
    for s in &rep.session_path {
        let speedup = match (spawn_ns, s.label.as_str()) {
            (Some(base), "runner_handshake") => format!("{:.2}x", base / s.ns_per_session),
            _ => "—".to_string(),
        };
        sessions.push_row(vec![
            s.label.clone(),
            s.sessions.to_string(),
            format!("{:.0}", s.ns_per_session),
            format!("{:.0}", s.sessions_per_sec),
            speedup,
        ]);
    }

    let mut engine = Table::new(
        "E18c — engine on the stress workload, every session re-derived by \
         a dedicated run (claim: the runner-per-worker engine is faster and \
         every cost report stays bit-for-bit identical)",
        &[
            "label",
            "workers",
            "sessions",
            "completed",
            "total bits",
            "sessions/s",
            "bit-identical",
        ],
    );
    for s in &rep.engine {
        engine.push_row(vec![
            s.label.clone(),
            s.workers.to_string(),
            s.sessions.to_string(),
            s.completed.to_string(),
            fmt_bits(s.total_bits as f64),
            format!("{:.0}", s.sessions_per_sec),
            "—".to_string(),
        ]);
    }
    let parity_sessions = if quick { 120 } else { 600 };
    let parity = parity_check(parity_sessions);
    engine.push_row(vec![
        "engine_vs_dedicated".to_string(),
        "8".to_string(),
        parity_sessions.to_string(),
        parity.completed.to_string(),
        fmt_bits(parity.total_bits as f64),
        "—".to_string(),
        format!("{}/{}", parity.identical, parity_sessions),
    ]);
    assert_eq!(
        parity.identical, parity_sessions,
        "engine sessions diverged from dedicated runs"
    );

    vec![messages, sessions, engine]
}

/// The PR-3 `runner_handshake` throughput recorded in
/// `BENCH_throughput.json` when the reusable runner landed: the baseline
/// the prepared/batched path is claimed to beat by ≥ 1.5×.
const PR3_RUNNER_HANDSHAKE_PER_SEC: f64 = 128_689.04;

/// E20 — prepared plans and the batch path: cold vs warm-cached session
/// throughput per protocol, and the 64-deep batch submission path
/// against the PR-3 reusable-runner baseline.
///
/// Two tables. E20a sweeps one protocol per plan shape (trivial
/// fallback, one-round hash family, tree layout, √k buckets) across
/// execution paths at two layers — dedicated spawn with in-run parameter
/// derivation (`cold_spawn`, the seed path), one cached plan over the
/// warm thread-local runner (`warm_cached`), 64-deep batches
/// (`warm_batch64`), and the same contrast through the engine scheduler
/// (`engine_cold` invalidates the plan cache before every submission).
/// Bit totals are asserted invariant across paths inside the harness:
/// caching and batching move work, never bits. E20b measures the
/// handshake session path and compares the batch row against the PR-3
/// `runner_handshake` baseline with a claimed-vs-measured column; exact
/// allocs/session come from the counting-allocator `throughput` binary
/// (`BENCH_throughput.json`).
pub fn e20(quick: bool) -> Vec<Table> {
    let sessions = if quick { 200 } else { 2_000 };
    let samples = throughput::prepared_samples(sessions, 8, || 0);

    let mut per_protocol = Table::new(
        "E20a — cold vs warm-cached session throughput per protocol \
         (claim: one cached plan serves every same-shape session; the \
         warm and batch paths beat re-deriving parameters per session, \
         and every path moves identical bits — asserted in-harness; \
         exact allocs/session are recorded by the `throughput` binary in \
         BENCH_throughput.json)",
        &[
            "layer",
            "protocol",
            "path",
            "sessions",
            "ns/session",
            "sessions/s",
            "total bits",
            "vs cold",
        ],
    );
    for s in &samples {
        let cold = samples
            .iter()
            .find(|c| {
                c.layer == s.layer
                    && c.protocol == s.protocol
                    && (c.path == "cold_spawn" || c.path == "engine_cold")
            })
            .map(|c| c.ns_per_session);
        let speedup = match cold {
            Some(base) if base != s.ns_per_session => {
                format!("{:.2}x", base / s.ns_per_session)
            }
            _ => "—".to_string(),
        };
        per_protocol.push_row(vec![
            s.layer.clone(),
            s.protocol.clone(),
            s.path.clone(),
            s.sessions.to_string(),
            format!("{:.0}", s.ns_per_session),
            format!("{:.0}", s.sessions_per_sec),
            fmt_bits(s.total_bits as f64),
            speedup,
        ]);
    }

    let handshake_sessions = if quick { 400 } else { 4_000 };
    let mut batch = Table::new(
        "E20b — the batch submission path on the handshake workload vs \
         the PR-3 reusable-runner baseline (claimed: ≥ 1.50x the recorded \
         128,689 sessions/s)",
        &[
            "substrate",
            "sessions",
            "ns/session",
            "sessions/s",
            "vs PR-3 runner baseline",
        ],
    );
    for s in throughput::session_path(handshake_sessions, || 0) {
        let vs_baseline = if s.label == "runner_handshake" || s.label == "runner_handshake_batch64"
        {
            format!("{:.2}x", s.sessions_per_sec / PR3_RUNNER_HANDSHAKE_PER_SEC)
        } else {
            "—".to_string()
        };
        batch.push_row(vec![
            s.label.clone(),
            s.sessions.to_string(),
            format!("{:.0}", s.ns_per_session),
            format!("{:.0}", s.sessions_per_sec),
            vs_baseline,
        ]);
    }

    vec![per_protocol, batch]
}

/// E23 — pair-scoped streams: correlated-randomness preprocessing and
/// the unfenced session block.
///
/// Two tables. E23a runs three workloads in blocks of 64 sessions on
/// one warm runner, sessions separated by a rearm only (a batch and a
/// pair stream are this same block; they differ in where seeds come
/// from and in presampling, neither of which this table exercises): the
/// latency-coupled handshake ping-pong, which still blocks on the peer
/// every session; the simultaneous exchange, where the directions
/// overlap; and the one-way workload shaped like a one-message sketch
/// stream (E13), whose sending half never blocks — the row the ≥ 2×
/// claim against the PR-5 `runner_handshake_batch64` baseline rests on.
/// E23b streams Newman
/// private-coin sessions over one `PairRandomness` state: the Theorem
/// 3.1 setup overhead (universe reduction + session seed) crosses the
/// wire in session 0 only, so amortized bits/session must strictly
/// decrease with stream length and sit below the one-shot cost for
/// every N ≥ 2 — asserted in-harness. Bit-exactness of streamed
/// sessions is pinned separately by `tests/prepared_exactness.rs` and
/// the engine's stream tests.
pub fn e23(quick: bool) -> Vec<Table> {
    let sessions = if quick { 400 } else { 4_000 };
    let rows = throughput::amortized_samples(sessions);

    let mut thr = Table::new(
        "E23a — block throughput, 64 sessions per block, no per-session \
         rendezvous (claim: sessions pipeline as deep as their dataflow \
         allows — the one-way sketch-shaped block clears 2× the PR-5 \
         fenced-batch baseline of 202,600 sessions/s; ping-pong \
         handshake and simultaneous exchange bound what an unfenced \
         block buys when sessions still block on the peer)",
        &[
            "workload",
            "sessions",
            "ns/session",
            "sessions/s",
            "vs PR-5 batch64 baseline",
        ],
    );
    for s in &rows {
        thr.push_row(vec![
            s.label.clone(),
            s.sessions.to_string(),
            format!("{:.0}", s.ns_per_session),
            format!("{:.0}", s.sessions_per_sec),
            format!("{:.2}x", s.speedup_vs_pr5),
        ]);
    }

    let curve = throughput::amortized_bits_curve();
    let mut setup = Table::new(
        "E23b — Newman private-coin setup amortization over one pair \
         stream (claim: the O(log k + log log n) setup bits of Theorem \
         3.1 are paid once per pair, so amortized bits/session strictly \
         decreases with stream length and beats one-shot for N ≥ 2 — \
         asserted)",
        &[
            "stream length",
            "total bits",
            "amortized bits/session",
            "one-shot bits/session",
            "setup bits saved",
        ],
    );
    for (i, p) in curve.iter().enumerate() {
        let saved = p.one_shot_bits_per_session * p.sessions as f64 - p.total_bits as f64;
        setup.push_row(vec![
            p.sessions.to_string(),
            p.total_bits.to_string(),
            format!("{:.1}", p.amortized_bits_per_session),
            format!("{:.0}", p.one_shot_bits_per_session),
            format!("{:.0}", saved),
        ]);
        if i > 0 {
            assert!(
                p.amortized_bits_per_session < curve[i - 1].amortized_bits_per_session,
                "amortized bits must strictly decrease with stream length"
            );
            assert!(
                p.amortized_bits_per_session < p.one_shot_bits_per_session,
                "a stream of {} sessions must beat one-shot",
                p.sessions
            );
        }
    }

    vec![thr, setup]
}

struct Parity {
    completed: u64,
    total_bits: u64,
    identical: u64,
}

/// Serves `sessions` stress requests on the engine, then reruns each one
/// through a dedicated `run_two_party` session and counts how many cost
/// reports and outputs came out bit-for-bit identical.
fn parity_check(sessions: u64) -> Parity {
    let engine = Engine::start(EngineConfig::new(8));
    for req in throughput::stress_batch(sessions) {
        engine.submit(req).expect("engine accepts");
    }
    let report = engine.finish();
    let mut identical = 0u64;
    let mut total_bits = 0u64;
    for outcome in &report.outcomes {
        let req = &outcome.request;
        total_bits += outcome.report.total_bits();
        let pair = req.input_pair();
        let reference = execute(
            outcome.protocol.build(req.spec).as_ref(),
            req.spec,
            &pair,
            req.seed,
        )
        .expect("dedicated rerun");
        if outcome.report == reference.report
            && outcome.alice.as_ref() == Some(&reference.alice)
            && outcome.bob.as_ref() == Some(&reference.bob)
        {
            identical += 1;
        }
    }
    Parity {
        completed: report.snapshot.metrics.completed,
        total_bits,
        identical,
    }
}
