//! Substrate throughput measurement: the engine room of every sweep.
//!
//! Every experiment in this repository pays the same per-message and
//! per-session substrate costs thousands of times over; this module
//! measures those costs directly so optimizations to the hot path have
//! a recorded trajectory (`BENCH_throughput.json` at the repo root).
//!
//! Three layers are measured:
//!
//! * **message path** — a single long session exchanging fixed-width
//!   ping-pong messages: ns/message and (exact, process-wide)
//!   allocations/message for widths straddling the [`BitBuf`] inline
//!   capacity.
//! * **session path** — the cost of standing a session up and tearing
//!   it down, for the spawn-per-session [`run_two_party`] and for a
//!   reusable [`SessionRunner`] serving the identical workload.
//! * **engine** — end-to-end sessions/sec of the concurrent engine on
//!   the mixed-shape stress workload.
//!
//! [`BitBuf`]: intersect_comm::bits::BitBuf
//! [`run_two_party`]: intersect_comm::runner::run_two_party
//! [`SessionRunner`]: intersect_comm::runner::SessionRunner

use intersect_comm::bits::BitBuf;
use intersect_comm::chan::{Chan, Endpoint};
use intersect_comm::coins::CoinSource;
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::{run_two_party, RunConfig, SessionParts, SessionRunner, Side};
use intersect_core::api::{execute, ProtocolChoice};
use intersect_core::prepared::{execute_prepared, execute_prepared_batch};
use intersect_core::sets::{InputPair, ProblemSpec};
use intersect_engine::prelude::*;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// Workload sizes for one [`run`] invocation.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RunParams {
    /// `true` shrinks every loop for smoke testing.
    pub quick: bool,
    /// Ping-pong exchanges per message-path window.
    pub message_iters: u64,
    /// Sessions per session-path sample.
    pub sessions: u64,
    /// Sessions submitted to the engine sample.
    pub engine_sessions: u64,
    /// Engine worker count.
    pub engine_workers: usize,
}

/// One message-path sample: fixed-width ping-pong inside one session.
#[derive(Debug, Clone, Serialize)]
pub struct MessagePathSample {
    /// Transport used (`spawn` = dedicated `run_two_party` session,
    /// `runner` = reusable `SessionRunner` session).
    pub transport: String,
    /// Payload width in bits.
    pub bits: usize,
    /// Messages in the measured window (both directions).
    pub messages: u64,
    /// Mean wall-clock nanoseconds per message.
    pub ns_per_message: f64,
    /// Exact process-wide heap allocations per message in the window.
    pub allocs_per_message: f64,
}

/// One session-path sample: many sessions of the same tiny workload.
#[derive(Debug, Clone, Serialize)]
pub struct SessionPathSample {
    /// Which substrate served the sessions.
    pub label: String,
    /// Sessions completed.
    pub sessions: u64,
    /// Mean wall-clock nanoseconds per session.
    pub ns_per_session: f64,
    /// Sessions per second.
    pub sessions_per_sec: f64,
    /// Exact process-wide heap allocations per session.
    pub allocs_per_session: f64,
}

/// One engine sample: the concurrent scheduler on a mixed workload.
#[derive(Debug, Clone, Serialize)]
pub struct EngineSample {
    /// Sample label.
    pub label: String,
    /// Worker threads.
    pub workers: usize,
    /// Sessions served.
    pub sessions: u64,
    /// Sessions that completed with agreeing outputs.
    pub completed: u64,
    /// Total bits moved (deterministic; must be invariant across
    /// substrate changes).
    pub total_bits: u64,
    /// Wall-clock milliseconds for the whole batch.
    pub wall_ms: f64,
    /// Sessions per second.
    pub sessions_per_sec: f64,
}

/// One prepared-path sample: the same protocol workload served cold
/// (parameters re-derived per session) or warm (one cached plan).
#[derive(Debug, Clone, Serialize)]
pub struct PreparedSample {
    /// `executor` (direct prepared execution) or `engine` (through the
    /// scheduler, plan cache and registry).
    pub layer: String,
    /// Protocol under test.
    pub protocol: String,
    /// Execution path (`cold_spawn`, `warm_cached`, `warm_batch64`,
    /// `engine_cold`, `engine_warm`, `engine_batch64`).
    pub path: String,
    /// Sessions completed.
    pub sessions: u64,
    /// Mean wall-clock nanoseconds per session.
    pub ns_per_session: f64,
    /// Sessions per second.
    pub sessions_per_sec: f64,
    /// Exact process-wide heap allocations per session.
    pub allocs_per_session: f64,
    /// Total bits moved — must be invariant across paths: caching and
    /// batching may move work, never bits.
    pub total_bits: u64,
}

/// One network-transport sample: closed-loop remote sessions over the
/// framed TCP transport (loopback) at a given connection count.
#[derive(Debug, Clone, Serialize)]
pub struct NetworkSample {
    /// Multiplexed connections shared by the workers.
    pub connections: usize,
    /// Closed-loop worker threads driving the connections.
    pub concurrency: usize,
    /// Sessions completed.
    pub sessions: u64,
    /// Sessions per second.
    pub sessions_per_sec: f64,
    /// Median end-to-end session latency in microseconds.
    pub latency_us_p50: u64,
    /// 99th-percentile end-to-end session latency in microseconds.
    pub latency_us_p99: u64,
    /// Total protocol bits moved — must be invariant across connection
    /// counts: the transport carries bits, it never changes them.
    pub total_bits: u64,
}

/// One m-party engine sample: a fixed player-slot budget served with
/// parties of width `m`, so wider meshes get proportionally fewer
/// sessions and the rows compare at equal total load.
#[derive(Debug, Clone, Serialize)]
pub struct MultipartySample {
    /// Party count.
    pub m: usize,
    /// Sessions submitted (player-slot budget / m).
    pub sessions: u64,
    /// Sessions that finished with the correct outcome.
    pub completed: u64,
    /// End-to-end engine throughput.
    pub sessions_per_sec: f64,
    /// Total bits across all sessions' folded [`NetworkReport`]s.
    ///
    /// [`NetworkReport`]: intersect_comm::stats::NetworkReport
    pub total_bits: u64,
    /// Mean bits per player per session.
    pub avg_bits_per_player: f64,
    /// Heaviest per-player load (sent + received) in any session.
    pub max_bits_per_player: u64,
    /// `true` iff every engine outcome's report equals a harness-only
    /// `execute` of the identical request, field for field.
    pub bit_identical_to_harness: bool,
}

/// One amortized-path sample: a workload served in blocks of 64
/// sessions on one warm runner, sessions separated by a rearm only.
#[derive(Debug, Clone, Serialize)]
pub struct AmortizedSample {
    /// `runner_{workload}_block64` for workload ∈ {`handshake`
    /// (ping-pong), `exchange` (simultaneous), `oneway` (one-message
    /// sketch shape)}.
    pub label: String,
    /// Sessions completed.
    pub sessions: u64,
    /// Mean wall-clock nanoseconds per session.
    pub ns_per_session: f64,
    /// Sessions per second.
    pub sessions_per_sec: f64,
    /// Throughput relative to the recorded PR-5
    /// `runner_handshake_batch64` baseline.
    pub speedup_vs_pr5: f64,
}

/// One point of the Newman setup-amortization curve: private-coin
/// overhead (universe reduction + session seed, Theorem 3.1) paid once
/// per pair instead of once per session.
#[derive(Debug, Clone, Serialize)]
pub struct AmortizedBitsPoint {
    /// Streamed sessions sharing one `PairRandomness` state.
    pub sessions: u64,
    /// Total bits moved by the whole stream.
    pub total_bits: u64,
    /// `total_bits / sessions` — must bend below the one-shot cost.
    pub amortized_bits_per_session: f64,
    /// What the same session costs one-shot (setup re-paid every time).
    pub one_shot_bits_per_session: f64,
}

/// The `amortized` section of `BENCH_throughput.json`: streamed
/// pair-scoped sessions vs the PR-5 batch baseline, plus the
/// setup-bits amortization curve.
#[derive(Debug, Clone, Serialize)]
pub struct AmortizedReport {
    /// The PR-5 `runner_handshake_batch64` sessions/s recorded in the
    /// committed report when the batch path landed.
    pub baseline_pr5_sessions_per_s: f64,
    /// Block throughput on the handshake (ping-pong, latency-coupled),
    /// exchange (simultaneous, pipelinable) and one-way workloads.
    pub throughput: Vec<AmortizedSample>,
    /// Newman private-coin setup amortization over stream length.
    pub newman_setup: Vec<AmortizedBitsPoint>,
}

/// One waterfall segment's totals within a workload shape.
#[derive(Debug, Clone, Serialize)]
pub struct SegmentMicros {
    /// Segment name (one of [`intersect_engine::timeline::SEGMENTS`]).
    pub segment: &'static str,
    /// Total microseconds spent in this segment across the shape's
    /// sessions.
    pub total_micros: u64,
    /// This segment's share of the shape's total, in [0, 1].
    pub share: f64,
}

/// Waterfall attribution for one `(n, k)` workload shape: where the
/// shape's sessions spend their time, folded over every session of
/// that shape in the stress batch.
#[derive(Debug, Clone, Serialize)]
pub struct AttributionShape {
    /// Shape label, `n=2^e k=K` as in [`stress_batch`].
    pub shape: String,
    /// Sessions of this shape folded into the row.
    pub sessions: u64,
    /// Per-segment totals; the six segments tile `total_micros`.
    pub segments: Vec<SegmentMicros>,
    /// Sum over all segments (each session's segments tile its own
    /// span within ε = 1µs of truncation per segment).
    pub total_micros: u64,
}

/// Steady-state allocation check for the always-on flight recorder:
/// after the ring has wrapped once, `record` must be allocation-free.
#[derive(Debug, Clone, Serialize)]
pub struct FlightRecorderSample {
    /// Events recorded inside the counted window.
    pub events: u64,
    /// Exact process-wide allocations per recorded event — must be 0
    /// at steady state (the recorder is five atomic stores).
    pub allocs_per_event: f64,
}

/// The `attribution` section of `BENCH_throughput.json`: per-shape
/// latency waterfalls plus the flight-recorder steady-state
/// allocation check.
#[derive(Debug, Clone, Serialize)]
pub struct AttributionReport {
    /// Waterfall per workload shape of the stress batch.
    pub shapes: Vec<AttributionShape>,
    /// Flight recorder allocations/event at steady state.
    pub flight_recorder: FlightRecorderSample,
}

/// The full report serialized into `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputReport {
    /// Workload sizes used.
    pub params: RunParams,
    /// Message-path samples.
    pub message_path: Vec<MessagePathSample>,
    /// Session-path samples.
    pub session_path: Vec<SessionPathSample>,
    /// Engine samples.
    pub engine: Vec<EngineSample>,
    /// Prepared-plan samples: cold vs warm-cached, per protocol.
    pub prepared: Vec<PreparedSample>,
    /// Network-transport samples: remote sessions over loopback TCP.
    pub network: Vec<NetworkSample>,
    /// Engine-hosted m-party sessions: throughput and per-player bits
    /// across the party-count sweep at a fixed player-slot budget.
    pub multiparty: Vec<MultipartySample>,
    /// Pair-stream amortization: batch vs stream throughput and the
    /// setup-bits curve.
    pub amortized: AmortizedReport,
    /// Latency waterfalls per workload shape + flight-recorder
    /// steady-state allocation check.
    pub attribution: AttributionReport,
    /// The pre-rework numbers, embedded so the report is self-contained.
    pub before: BaselineReport,
}

/// Numbers recorded on the tree *before* the zero-allocation rework
/// (inline `BitBuf` storage, spill recycling, reusable runners), on the
/// same machine and full-size parameters as the committed report.
#[derive(Debug, Clone, Serialize)]
pub struct BaselineReport {
    /// What these numbers are and where they came from.
    pub note: &'static str,
    /// Message-path samples (the seed tree had one transport: a
    /// dedicated spawn-per-session pair).
    pub message_path: Vec<MessagePathSample>,
    /// Session-path samples (no reusable runner existed yet).
    pub session_path: Vec<SessionPathSample>,
    /// Engine samples on the identical stress batch.
    pub engine: Vec<EngineSample>,
}

/// The seed-tree baseline, captured once with this same harness before
/// the substrate rework landed. `total_bits` here doubles as the
/// bit-exactness reference: the after-numbers must reproduce it exactly.
pub fn seed_baseline() -> BaselineReport {
    let msg = |bits: usize, ns: f64, allocs: f64| MessagePathSample {
        transport: "spawn".to_string(),
        bits,
        messages: 200_000,
        ns_per_message: ns,
        allocs_per_message: allocs,
    };
    let session =
        |label: &str, sessions: u64, ns: f64, per_sec: f64, allocs: f64| SessionPathSample {
            label: label.to_string(),
            sessions,
            ns_per_session: ns,
            sessions_per_sec: per_sec,
            allocs_per_session: allocs,
        };
    BaselineReport {
        note: "measured on the pre-rework tree (heap-backed BitBuf, \
               spawn-per-session everywhere) with this harness at full-size \
               parameters on the same machine",
        message_path: vec![
            msg(8, 1424.8, 0.5),
            msg(64, 1482.3, 0.5),
            msg(127, 1532.0, 0.5),
            msg(128, 1425.9, 0.5),
            msg(129, 1448.6, 0.5),
            msg(512, 1456.3, 0.5),
        ],
        session_path: vec![
            session("spawn_handshake", 4_000, 21_539.0, 46_428.0, 9.0),
            session("spawn_trivial_k8", 1_000, 25_224.0, 39_645.0, 22.0),
        ],
        engine: vec![
            EngineSample {
                label: "engine_stress".to_string(),
                workers: 8,
                sessions: 2_400,
                completed: 2_396,
                total_bits: 1_708_291,
                wall_ms: 352.0,
                sessions_per_sec: 6_811.0,
            },
            EngineSample {
                label: "engine_stress_2w".to_string(),
                workers: 2,
                sessions: 2_400,
                completed: 2_396,
                total_bits: 1_708_291,
                wall_ms: 297.0,
                sessions_per_sec: 8_069.0,
            },
        ],
    }
}

/// The mixed-shape batch of the engine stress test (`crates/engine/
/// tests/stress.rs`), reproduced here so the throughput numbers are
/// measured on the exact workload the bit-exactness claim covers.
pub fn stress_batch(count: u64) -> Vec<SessionRequest> {
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

/// Ping-pong alice half: `iters` exchanges of `bits`-bit messages, with
/// a warm-up prefix excluded from the counter window.
fn ping_pong_alice(
    chan: &mut dyn Chan,
    bits: usize,
    iters: u64,
    count: fn() -> u64,
) -> Result<(u64, u64, Instant, Instant), ProtocolError> {
    let payload = |i: u64| {
        let mut m = BitBuf::with_capacity(bits);
        let mut left = bits;
        while left > 0 {
            let take = left.min(64);
            let v = if take == 64 {
                i.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            } else {
                i % (1 << take)
            };
            m.push_bits(v, take);
            left -= take;
        }
        m
    };
    for i in 0..64 {
        chan.send(payload(i))?;
        chan.recv()?;
    }
    let a0 = count();
    let t0 = Instant::now();
    for i in 0..iters {
        chan.send(payload(i))?;
        chan.recv()?;
    }
    let t1 = Instant::now();
    let a1 = count();
    Ok((a0, a1, t0, t1))
}

/// Ping-pong bob half: echo everything back.
fn ping_pong_bob(chan: &mut dyn Chan, bits: usize, iters: u64) -> Result<(), ProtocolError> {
    for _ in 0..(64 + iters) {
        let m = chan.recv()?;
        debug_assert_eq!(m.len(), bits);
        chan.send(m)?;
    }
    Ok(())
}

fn message_sample(
    transport: &str,
    bits: usize,
    iters: u64,
    window: (u64, u64, Instant, Instant),
) -> MessagePathSample {
    let (a0, a1, t0, t1) = window;
    let messages = 2 * iters;
    MessagePathSample {
        transport: transport.to_string(),
        bits,
        messages,
        ns_per_message: t1.duration_since(t0).as_nanos() as f64 / messages as f64,
        allocs_per_message: (a1 - a0) as f64 / messages as f64,
    }
}

fn message_path(iters: u64, count: fn() -> u64) -> Vec<MessagePathSample> {
    let widths = [8usize, 64, 127, 128, 129, 512];
    let mut out = Vec::new();
    for &bits in &widths {
        let run = run_two_party(
            &RunConfig::with_seed(1),
            |chan, _| ping_pong_alice(chan, bits, iters, count),
            |chan, _| ping_pong_bob(chan, bits, iters),
        )
        .expect("ping-pong session");
        out.push(message_sample("spawn", bits, iters, run.alice));
    }
    let mut runner = SessionRunner::start();
    // A first-ever session allocates the runner's own control-channel
    // backbone concurrently with the window; one throwaway session
    // establishes it so every measured window starts warm.
    runner
        .run(
            &RunConfig::with_seed(0),
            |chan: &mut Endpoint, _: &CoinSource| ping_pong_alice(chan, 8, 1, count),
            |chan: &mut Endpoint, _: &CoinSource| ping_pong_bob(chan, 8, 1),
        )
        .expect("runner warmup");
    for &bits in &widths {
        let run = runner
            .run(
                &RunConfig::with_seed(1),
                |chan: &mut Endpoint, _: &CoinSource| ping_pong_alice(chan, bits, iters, count),
                move |chan: &mut Endpoint, _: &CoinSource| ping_pong_bob(chan, bits, iters),
            )
            .expect("ping-pong session");
        out.push(message_sample("runner", bits, iters, run.alice));
    }
    out
}

/// The tiny fixed session used by the session-path samples: one 32-bit
/// exchange each way, i.e. almost pure setup/teardown cost.
fn handshake_alice(chan: &mut dyn Chan) -> Result<u64, ProtocolError> {
    let mut m = BitBuf::with_capacity(32);
    m.push_bits(0xdead_beef, 32);
    chan.send(m)?;
    Ok(chan.recv()?.reader().read_bits(32)?)
}

fn handshake_bob(chan: &mut dyn Chan) -> Result<(), ProtocolError> {
    let got = chan.recv()?;
    chan.send(got)?;
    Ok(())
}

fn session_sample(label: &str, sessions: u64, allocs: u64, wall_ns: f64) -> SessionPathSample {
    SessionPathSample {
        label: label.to_string(),
        sessions,
        ns_per_session: wall_ns / sessions as f64,
        sessions_per_sec: sessions as f64 / (wall_ns / 1e9),
        allocs_per_session: allocs as f64 / sessions as f64,
    }
}

/// The session-path samples (also reported standalone by E20, which
/// compares the batch row against the recorded PR-3 baseline).
pub fn session_path(sessions: u64, count: fn() -> u64) -> Vec<SessionPathSample> {
    let mut out = Vec::new();

    // Spawn-per-session: what a dedicated run_two_party call costs.
    let a0 = count();
    let t0 = Instant::now();
    for i in 0..sessions {
        let run = run_two_party(
            &RunConfig::with_seed(i),
            |chan, _| handshake_alice(chan),
            |chan, _| handshake_bob(chan),
        )
        .expect("handshake");
        assert_eq!(run.alice, 0xdead_beef);
    }
    let wall = t0.elapsed().as_nanos() as f64;
    out.push(session_sample(
        "spawn_handshake",
        sessions,
        count() - a0,
        wall,
    ));

    // Reused runner: the same sessions on one long-lived thread pair.
    let mut runner = SessionRunner::start();
    for i in 0..64 {
        runner
            .run(
                &RunConfig::with_seed(i),
                |chan: &mut Endpoint, _: &CoinSource| handshake_alice(chan),
                |chan: &mut Endpoint, _: &CoinSource| handshake_bob(chan),
            )
            .expect("warmup handshake");
    }
    let a0 = count();
    let t0 = Instant::now();
    for i in 0..sessions {
        let run = runner
            .run(
                &RunConfig::with_seed(i),
                |chan: &mut Endpoint, _: &CoinSource| handshake_alice(chan),
                |chan: &mut Endpoint, _: &CoinSource| handshake_bob(chan),
            )
            .expect("handshake");
        assert_eq!(run.alice, 0xdead_beef);
    }
    let wall = t0.elapsed().as_nanos() as f64;
    out.push(session_sample(
        "runner_handshake",
        sessions,
        count() - a0,
        wall,
    ));

    // Batched: the identical handshake sessions in blocks of 64 over
    // the same warm runner — one dispatch and one job round trip per 64
    // sessions instead of per session.
    let seeds: Vec<u64> = (0..sessions).collect();
    let a0 = count();
    let t0 = Instant::now();
    for chunk in seeds.chunks(64) {
        runner
            .run_block(
                &RunConfig::default(),
                chunk,
                |_, chan: &mut Endpoint, _: &CoinSource| handshake_alice(chan),
                |_, chan: &mut Endpoint, _: &CoinSource| handshake_bob(chan),
                |_, p| assert_eq!(p.alice.expect("alice half"), 0xdead_beef),
            )
            .expect("batch handshake");
    }
    let wall = t0.elapsed().as_nanos() as f64;
    out.push(session_sample(
        "runner_handshake_batch64",
        sessions,
        count() - a0,
        wall,
    ));

    // A real protocol session (trivial exchange, k = 8): how much of a
    // small-but-genuine session is substrate overhead.
    let spec = ProblemSpec::new(1 << 16, 8);
    let real = sessions / 4;
    let protocol = ProtocolChoice::Trivial.build(spec);
    let requests: Vec<SessionRequest> = (0..real)
        .map(|id| {
            let mut req = SessionRequest::new(id, spec, (id % 9) as usize);
            req.seed = id.wrapping_mul(0x9e37_79b9) + 1;
            req
        })
        .collect();
    let a0 = count();
    let t0 = Instant::now();
    for req in &requests {
        let pair = req.input_pair();
        execute(protocol.as_ref(), spec, &pair, req.seed).expect("trivial session");
    }
    let wall = t0.elapsed().as_nanos() as f64;
    out.push(session_sample("spawn_trivial_k8", real, count() - a0, wall));

    out
}

/// The PR-5 `runner_handshake_batch64` sessions/s recorded in the
/// committed `BENCH_throughput.json` when the batch submission path
/// landed: the baseline the pair-stream path is measured against.
pub const PR5_BATCH64_PER_SEC: f64 = 202_600.0;

/// The simultaneous-exchange session half: send this side's word, then
/// receive the peer's. Unlike the handshake ping-pong there is no
/// serialization between the directions, so streamed sessions pipeline.
fn exchange_half(chan: &mut dyn Chan, word: u64) -> Result<u64, ProtocolError> {
    let mut m = BitBuf::with_capacity(32);
    m.push_bits(word & 0xffff_ffff, 32);
    chan.send(m)?;
    Ok(chan.recv()?.reader().read_bits(32)?)
}

/// Block throughput on one warm runner, 64 sessions per block. Sessions
/// of a block are separated by a rearm only, so the two halves pipeline
/// as deep as the workload's dataflow allows. Three workloads bound the
/// effect: the handshake ping-pong serializes on every echo, the
/// simultaneous exchange overlaps the directions, and the one-way
/// workload (the shape of a one-message sketch stream, cf. E13) never
/// blocks the sending half at all.
pub fn amortized_samples(sessions: u64) -> Vec<AmortizedSample> {
    let mut runner = SessionRunner::start();
    for i in 0..64 {
        runner
            .run(
                &RunConfig::with_seed(i),
                |chan: &mut Endpoint, _: &CoinSource| handshake_alice(chan),
                |chan: &mut Endpoint, _: &CoinSource| handshake_bob(chan),
            )
            .expect("warmup handshake");
    }
    let seeds: Vec<u64> = (0..sessions).collect();
    let mut out = Vec::new();
    for (label, workload) in [
        ("runner_handshake_block64", "handshake"),
        ("runner_exchange_block64", "exchange"),
        ("runner_oneway_block64", "oneway"),
    ] {
        let t0 = Instant::now();
        for chunk in seeds.chunks(64) {
            let alice = |i: usize, chan: &mut Endpoint, _: &CoinSource| match workload {
                "handshake" => handshake_alice(chan),
                "exchange" => exchange_half(chan, i as u64),
                _ => {
                    // One-way: send and move on — nothing blocks this
                    // half, so streamed sessions pipeline arbitrarily
                    // deep (the shape of a one-message sketch stream).
                    let mut m = BitBuf::with_capacity(32);
                    m.push_bits(i as u64 & 0xffff_ffff, 32);
                    chan.send(m)?;
                    Ok(i as u64)
                }
            };
            let bob = move |i: usize, chan: &mut Endpoint, _: &CoinSource| match workload {
                "handshake" => handshake_bob(chan).map(|()| 0),
                "exchange" => exchange_half(chan, !(i as u64)),
                _ => Ok(chan.recv()?.reader().read_bits(32)?),
            };
            let check = |i: usize, p: SessionParts<u64, u64>| match workload {
                "handshake" => assert_eq!(p.alice.expect("alice half"), 0xdead_beef, "{label}"),
                "exchange" => assert_eq!(
                    p.alice.expect("alice half"),
                    !(i as u64) & 0xffff_ffff,
                    "{label}"
                ),
                _ => assert_eq!(p.bob.expect("bob half"), i as u64 & 0xffff_ffff, "{label}"),
            };
            runner
                .run_block(&RunConfig::default(), chunk, alice, bob, check)
                .expect("amortized block");
        }
        let wall = t0.elapsed().as_nanos() as f64;
        let per_sec = sessions as f64 / (wall / 1e9);
        out.push(AmortizedSample {
            label: label.to_string(),
            sessions,
            ns_per_session: wall / sessions as f64,
            sessions_per_sec: per_sec,
            speedup_vs_pr5: per_sec / PR5_BATCH64_PER_SEC,
        });
    }
    out
}

/// The Newman setup-amortization curve: `N` private-coin sessions
/// streamed over one `PairRandomness` state vs `N` one-shot sessions.
/// The universe reduction and session seed cross the wire in session 0
/// only, so amortized bits/session must decrease in `N` and sit below
/// the one-shot cost for every `N ≥ 2`.
pub fn amortized_bits_curve() -> Vec<AmortizedBitsPoint> {
    use intersect_core::api::SetIntersection;
    use intersect_core::newman::PrivateCoin;
    use intersect_core::trivial::TrivialExchange;

    let spec = ProblemSpec::new(1 << 20, 16);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5eed);
    let pair = InputPair::random_with_overlap(&mut rng, spec, 16, 4);
    let truth = pair.ground_truth();
    let proto = PrivateCoin::new(TrivialExchange::default());
    let one = run_two_party(
        &RunConfig::with_seed(7),
        |chan, coins| proto.run(chan, coins, Side::Alice, spec, &pair.s),
        |chan, coins| proto.run(chan, coins, Side::Bob, spec, &pair.t),
    )
    .expect("one-shot newman session");
    assert_eq!(one.alice, truth, "one-shot session must be correct");
    let one_bits = one.report.total_bits();

    [1u64, 2, 4, 8, 16, 32]
        .iter()
        .map(|&n| {
            let run = run_two_party(
                &RunConfig::with_seed(7),
                |chan, coins| {
                    let mut state = None;
                    let mut out = None;
                    for _ in 0..n {
                        out = Some(proto.run_streamed(
                            chan,
                            coins,
                            Side::Alice,
                            spec,
                            &pair.s,
                            &mut state,
                        )?);
                    }
                    Ok(out.expect("n >= 1"))
                },
                |chan, coins| {
                    let mut state = None;
                    let mut out = None;
                    for _ in 0..n {
                        out = Some(proto.run_streamed(
                            chan,
                            coins,
                            Side::Bob,
                            spec,
                            &pair.t,
                            &mut state,
                        )?);
                    }
                    Ok(out.expect("n >= 1"))
                },
            )
            .expect("streamed newman sessions");
            assert_eq!(run.alice, truth, "streamed sessions must stay correct");
            let total = run.report.total_bits();
            AmortizedBitsPoint {
                sessions: n,
                total_bits: total,
                amortized_bits_per_session: total as f64 / n as f64,
                one_shot_bits_per_session: one_bits as f64,
            }
        })
        .collect()
}

/// The `amortized` report section: throughput rows plus the setup curve.
pub fn amortized_report(sessions: u64) -> AmortizedReport {
    AmortizedReport {
        baseline_pr5_sessions_per_s: PR5_BATCH64_PER_SEC,
        throughput: amortized_samples(sessions),
        newman_setup: amortized_bits_curve(),
    }
}

/// The protocols the cold-vs-warm comparison covers: one per plan shape
/// (trivial fallback, one-round hash family, tree layout, √k buckets).
pub fn prepared_protocols() -> Vec<ProtocolChoice> {
    vec![
        ProtocolChoice::Trivial,
        ProtocolChoice::OneRound,
        ProtocolChoice::TreeLogStar,
        ProtocolChoice::Sqrt,
    ]
}

fn prepared_workload(sessions: u64, spec: ProblemSpec) -> (Vec<InputPair>, Vec<u64>) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x2020);
    let pairs = (0..sessions)
        .map(|i| {
            InputPair::random_with_overlap(&mut rng, spec, spec.k as usize, (i % spec.k) as usize)
        })
        .collect();
    let seeds = (0..sessions)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xfeed)
        .collect();
    (pairs, seeds)
}

/// Cold vs warm-cached execution, per protocol, at two layers.
///
/// *Executor* layer: `cold_spawn` is the seed path — a dedicated
/// `run_two_party` pair per session, parameters re-derived inside
/// `SetIntersection::run`; `warm_cached` executes one cached plan per
/// session over the thread-local warm runner; `warm_batch64` submits the
/// same sessions 64 at a time. *Engine* layer: the same contrast through
/// the scheduler — `engine_cold` invalidates the plan cache before every
/// submission, `engine_warm` serves singles from a warm cache, and
/// `engine_batch64` uses the batch submission path.
///
/// `total_bits` must agree across all paths of a protocol: preparation
/// and caching move work, never bits.
pub fn prepared_samples(sessions: u64, workers: usize, count: fn() -> u64) -> Vec<PreparedSample> {
    let spec = ProblemSpec::new(1 << 18, 32);
    let (pairs, seeds) = prepared_workload(sessions, spec);
    let cache = PlanCache::new();
    let mut out = Vec::new();

    let sample =
        |layer: &str, protocol: String, path: &str, allocs: u64, wall_ns: f64, total_bits: u64| {
            PreparedSample {
                layer: layer.to_string(),
                protocol,
                path: path.to_string(),
                sessions,
                ns_per_session: wall_ns / sessions as f64,
                sessions_per_sec: sessions as f64 / (wall_ns / 1e9),
                allocs_per_session: allocs as f64 / sessions as f64,
                total_bits,
            }
        };

    for choice in prepared_protocols() {
        let proto = choice.build(spec);

        // Executor / cold: dedicated spawn, in-run parameter derivation.
        let mut bits = 0u64;
        let a0 = count();
        let t0 = Instant::now();
        for (pair, &seed) in pairs.iter().zip(&seeds) {
            let run = run_two_party(
                &RunConfig::with_seed(seed),
                |chan, coins| proto.run(chan, coins, Side::Alice, spec, &pair.s),
                |chan, coins| proto.run(chan, coins, Side::Bob, spec, &pair.t),
            )
            .expect("cold session");
            bits += run.report.total_bits();
        }
        let wall = t0.elapsed().as_nanos() as f64;
        let cold_bits = bits;
        out.push(sample(
            "executor",
            proto.name(),
            "cold_spawn",
            count() - a0,
            wall,
            cold_bits,
        ));

        // Executor / warm: one cached plan, thread-local warm runner.
        let plan = cache.get_or_prepare(choice, spec);
        let mut bits = 0u64;
        let a0 = count();
        let t0 = Instant::now();
        for (pair, &seed) in pairs.iter().zip(&seeds) {
            let run = execute_prepared(&plan, pair, seed).expect("warm session");
            bits += run.report.total_bits();
        }
        let wall = t0.elapsed().as_nanos() as f64;
        assert_eq!(bits, cold_bits, "{choice}: warm path moved different bits");
        out.push(sample(
            "executor",
            proto.name(),
            "warm_cached",
            count() - a0,
            wall,
            bits,
        ));

        // Executor / batch: the same sessions, 64 per submission.
        let mut bits = 0u64;
        let a0 = count();
        let t0 = Instant::now();
        for (pair_chunk, seed_chunk) in pairs.chunks(64).zip(seeds.chunks(64)) {
            for run in execute_prepared_batch(&plan, pair_chunk, seed_chunk).expect("batch") {
                bits += run.expect("batch session").report.total_bits();
            }
        }
        let wall = t0.elapsed().as_nanos() as f64;
        assert_eq!(bits, cold_bits, "{choice}: batch path moved different bits");
        out.push(sample(
            "executor",
            proto.name(),
            "warm_batch64",
            count() - a0,
            wall,
            bits,
        ));

        // Engine layer: the same per-protocol workload through the
        // scheduler. Requests regenerate their inputs from the seed, so
        // the workload differs from the executor one above — the
        // invariant to watch is cold vs warm vs batch WITHIN the layer.
        let requests = |base: u64| -> Vec<SessionRequest> {
            (0..sessions)
                .map(|id| {
                    let mut req = SessionRequest::new(base + id, spec, (id % spec.k) as usize);
                    req.protocol = Some(choice);
                    req
                })
                .collect()
        };
        let mut engine_bits = Vec::new();
        for path in ["engine_cold", "engine_warm", "engine_batch64"] {
            let engine = Engine::start(EngineConfig::new(workers));
            if path != "engine_cold" {
                // Warm the cache before the window opens.
                engine.plan_cache().get_or_prepare(choice, spec);
            }
            let a0 = count();
            let t0 = Instant::now();
            match path {
                "engine_batch64" => {
                    for chunk in requests(0).chunks(64) {
                        engine.submit_batch(chunk.to_vec()).expect("batch accepted");
                    }
                }
                _ => {
                    for req in requests(0) {
                        if path == "engine_cold" {
                            engine.plan_cache().invalidate();
                        }
                        engine.submit(req).expect("session accepted");
                    }
                }
            }
            let report = engine.finish();
            let wall = t0.elapsed().as_nanos() as f64;
            let allocs = count() - a0;
            let m = &report.snapshot.metrics;
            assert_eq!(m.completed, sessions, "{choice} {path}: sessions failed");
            engine_bits.push(m.total_bits);
            out.push(sample(
                "engine",
                proto.name(),
                path,
                allocs,
                wall,
                m.total_bits,
            ));
        }
        assert!(
            engine_bits.windows(2).all(|w| w[0] == w[1]),
            "{choice}: engine paths moved different bits"
        );
    }
    out
}

/// Remote sessions over the framed TCP transport on loopback: the same
/// routed session workload at several connection counts, closed-loop.
///
/// These numbers are transport overhead on one machine (server, clients
/// and workers share the host), not a network study: they bound the
/// framing/demux cost, and `total_bits` must not move with the
/// connection count.
pub fn network_samples(sessions: u64) -> Vec<NetworkSample> {
    use intersect_net::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    let concurrency = 8usize;
    let spec = ProblemSpec::new(1 << 20, 64);
    let mut out: Vec<NetworkSample> = Vec::new();
    for connections in [1usize, 2, 4, 8] {
        let mut server = NetServer::start(NetServerConfig::new(
            EndpointAddr::parse("tcp:127.0.0.1:0").expect("endpoint"),
        ))
        .expect("bind loopback server");
        let addr = server.local_addr().to_string();
        let clients: Vec<Arc<intersect_net::NetClient>> = (0..connections)
            .map(|_| Arc::new(intersect_net::NetClient::connect(&addr).expect("connect")))
            .collect();

        let next = Arc::new(AtomicU64::new(0));
        let bits = Arc::new(AtomicU64::new(0));
        let latencies = Arc::new(Mutex::new(Vec::with_capacity(sessions as usize)));
        let t0 = Instant::now();
        let workers: Vec<_> = (0..concurrency)
            .map(|_| {
                let clients = clients.clone();
                let next = Arc::clone(&next);
                let bits = Arc::clone(&bits);
                let latencies = Arc::clone(&latencies);
                std::thread::spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= sessions {
                        return;
                    }
                    let mut req = SessionRequest::new(i, spec, (i % (spec.k + 1)) as usize);
                    req.seed = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xbeef;
                    let s0 = Instant::now();
                    let run = clients[i as usize % clients.len()]
                        .run(&req)
                        .expect("remote session");
                    let micros = s0.elapsed().as_micros() as u64;
                    bits.fetch_add(run.report.total_bits(), Ordering::Relaxed);
                    latencies.lock().unwrap().push(micros);
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        let wall = t0.elapsed();
        drop(clients);
        server.shutdown();

        let mut lat = Arc::try_unwrap(latencies)
            .expect("workers joined")
            .into_inner()
            .unwrap();
        lat.sort_unstable();
        let pick = |p: f64| lat[((p * (lat.len() - 1) as f64).round() as usize).min(lat.len() - 1)];
        let total_bits = bits.load(Ordering::Relaxed);
        if let Some(first) = out.first() {
            assert_eq!(
                first.total_bits, total_bits,
                "transport moved different bits at {connections} connections"
            );
        }
        out.push(NetworkSample {
            connections,
            concurrency,
            sessions,
            sessions_per_sec: sessions as f64 / wall.as_secs_f64(),
            latency_us_p50: pick(0.50),
            latency_us_p99: pick(0.99),
            total_bits,
        });
    }
    out
}

/// Engine-hosted m-party sessions at a fixed player-slot budget: the
/// sweep holds `m * sessions` constant so rows compare at equal total
/// load, and every outcome is checked bit-for-bit against a
/// harness-only run of the identical request.
pub fn multiparty_samples(slots: u64) -> Vec<MultipartySample> {
    use intersect_multiparty::AverageCase;

    let spec = ProblemSpec::new(1 << 16, 16);
    let mut out = Vec::new();
    for m in [2usize, 4, 8, 16] {
        let sessions = (slots / m as u64).max(1);
        let engine = Engine::start(EngineConfig::new(4));
        let t0 = Instant::now();
        for i in 0..sessions {
            let mut req = MultipartyRequest::new(i, spec, m, 4, MultipartyChoice::AverageCase);
            req.seed = 0xB25 ^ (i << 8) ^ (m as u64);
            engine.submit_multiparty(req).expect("engine accepts");
        }
        let report = engine.finish();
        let wall = t0.elapsed();
        let outcomes = &report.multiparty;
        assert_eq!(outcomes.len() as u64, sessions, "m={m}: sessions lost");
        let completed = outcomes.iter().filter(|o| o.succeeded()).count() as u64;
        let bit_identical = outcomes.iter().all(|o| {
            let reference = AverageCase::new(o.request.spec, o.request.tree_rounds)
                .execute(&o.request.player_sets(), o.request.seed)
                .expect("harness run");
            o.report == reference.report && o.result.as_ref() == Some(&reference.result)
        });
        out.push(MultipartySample {
            m,
            sessions,
            completed,
            sessions_per_sec: sessions as f64 / wall.as_secs_f64(),
            total_bits: outcomes.iter().map(|o| o.report.total_bits()).sum(),
            avg_bits_per_player: outcomes
                .iter()
                .map(|o| o.report.average_bits_per_player())
                .sum::<f64>()
                / outcomes.len().max(1) as f64,
            max_bits_per_player: outcomes
                .iter()
                .map(|o| o.report.max_bits_per_player())
                .max()
                .unwrap_or(0),
            bit_identical_to_harness: bit_identical,
        });
    }
    out
}

fn engine_samples(sessions: u64, workers: usize) -> Vec<EngineSample> {
    let mut out = Vec::new();
    for (label, workers) in [("engine_stress", workers), ("engine_stress_2w", 2)] {
        let engine = Engine::start(EngineConfig::new(workers));
        let t0 = Instant::now();
        for req in stress_batch(sessions) {
            engine.submit(req).expect("engine accepts");
        }
        let report = engine.finish();
        let wall = t0.elapsed();
        let m = &report.snapshot.metrics;
        out.push(EngineSample {
            label: label.to_string(),
            workers,
            sessions,
            completed: m.completed,
            total_bits: m.total_bits,
            wall_ms: wall.as_secs_f64() * 1e3,
            sessions_per_sec: sessions as f64 / wall.as_secs_f64(),
        });
    }
    out
}

/// Folds the stress batch's session timelines into per-shape
/// waterfalls and measures the flight recorder's steady-state
/// allocation cost with the process-wide counter.
fn attribution_report(sessions: u64, workers: usize, count: fn() -> u64) -> AttributionReport {
    use std::collections::BTreeMap;

    let engine = Engine::start(EngineConfig::new(workers));
    for req in stress_batch(sessions) {
        engine.submit(req).expect("engine accepts");
    }
    let report = engine.finish();

    // Group outcomes by (n, k); BTreeMap keeps shape order stable.
    let mut folded: BTreeMap<(u64, u64), (u64, SessionTimeline)> = BTreeMap::new();
    for out in &report.outcomes {
        let spec = out.request.spec;
        let entry = folded.entry((spec.n, spec.k)).or_default();
        entry.0 += 1;
        entry.1.accumulate(&out.timeline);
    }
    let shapes = folded
        .into_iter()
        .map(|((n, k), (sessions, timeline))| {
            let total = timeline.total_micros();
            let segments = timeline
                .segments()
                .iter()
                .map(|&(segment, total_micros)| SegmentMicros {
                    segment,
                    total_micros,
                    share: total_micros as f64 / total.max(1) as f64,
                })
                .collect();
            AttributionShape {
                shape: format!("n=2^{} k={k}", n.trailing_zeros()),
                sessions,
                segments,
                total_micros: total,
            }
        })
        .collect();

    // Flight-recorder steady state: wrap the ring once so every slot
    // has been written, then count allocations across a recording
    // window. The engine above is finished (workers joined), so the
    // counter sees only this thread.
    let events = 10_000u64;
    for i in 0..events {
        intersect_obs::flight::record(intersect_obs::flight::CODE_COMPLETE, i, i, 0);
    }
    let a0 = count();
    for i in 0..events {
        intersect_obs::flight::record(intersect_obs::flight::CODE_COMPLETE, i, i, 0);
    }
    let allocs = count() - a0;
    assert_eq!(
        allocs, 0,
        "flight recorder allocated at steady state ({allocs} allocs / {events} events)"
    );
    AttributionReport {
        shapes,
        flight_recorder: FlightRecorderSample {
            events,
            allocs_per_event: allocs as f64 / events as f64,
        },
    }
}

/// Runs every sample. `count` reads the process-wide allocation counter
/// installed by the calling binary (the library cannot install a global
/// allocator itself without forcing it on every consumer).
pub fn run(quick: bool, count: fn() -> u64) -> ThroughputReport {
    let params = RunParams {
        quick,
        message_iters: if quick { 2_000 } else { 100_000 },
        sessions: if quick { 400 } else { 4_000 },
        engine_sessions: if quick { 240 } else { 2_400 },
        engine_workers: 8,
    };
    ThroughputReport {
        params,
        message_path: message_path(params.message_iters, count),
        session_path: session_path(params.sessions, count),
        engine: engine_samples(params.engine_sessions, params.engine_workers),
        prepared: prepared_samples(
            if quick { 200 } else { 2_000 },
            params.engine_workers,
            count,
        ),
        network: network_samples(if quick { 64 } else { 400 }),
        multiparty: multiparty_samples(if quick { 64 } else { 256 }),
        amortized: amortized_report(params.sessions),
        attribution: attribution_report(params.engine_sessions, params.engine_workers, count),
        before: seed_baseline(),
    }
}
