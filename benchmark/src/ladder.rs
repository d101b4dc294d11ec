//! The traced run: the workload's own `(protocol, n, k)` cell taken up
//! the ladder rung by rung, one span per call, plus the per-layer
//! micro-measurements. Nothing here feeds an end-to-end metric.

use crate::alloc::count_allocations;
use crate::spans::Recorder;
use crate::stats::percentile;
use crate::timed::{Discard, Settled, Sink, Stop, System};
use crate::workload::{Case, Driver, Pool, Report, Workload, STREAM_BLOCK};
use intersect_comm::bits::BitBuf;
use intersect_comm::chan::{Chan, Endpoint};
use intersect_comm::coins::CoinSource;
use intersect_comm::encode::RiceSubsetCodec;
use intersect_comm::net::LinkSet;
use intersect_comm::runner::{RunConfig, SessionRunner};
use intersect_core::prepared::{
    execute_prepared, execute_prepared_batch, execute_prepared_stream, PairContext,
};
use intersect_core::sets::{InputPair, ProblemSpec};
use intersect_engine::prelude::*;
use intersect_hash::pairwise::PairwiseFamily;
use intersect_hash::reduce::ModPrimeReduction;
use intersect_hash::tabulation::TabulationHash;
use intersect_multiparty::AverageCase;
use intersect_net::frame::{self, WireFrame};
use intersect_net::NetClient;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `(name, unit, better, feeds)`: every per-layer metric a traced run
/// prints, in print order, with the end-to-end metric it should move.
/// `BENCHMARK.json` lists the same names; a unit test keeps them equal.
#[rustfmt::skip]
pub const PER_LAYER: [(&str, &str, &str, &str); 40] = [
    ("hash.pairwise_eval_ns", "ns", "lower", "sessions_per_s, latency_p50_us on engine-tree-k256"),
    ("hash.reduce_map_ns", "ns", "lower", "sessions_per_s on engine-tree-k256"),
    ("hash.tabulation_eval_ns", "ns", "lower", "sessions_per_s on engine-tree-k256"),
    ("hash.family_plan_ns", "ns", "lower", "setup_s"),
    ("comm.codec_encode_ns_per_elem", "ns", "lower", "sessions_per_s on engine-tree-k256, engine-trivial-k16"),
    ("comm.codec_decode_ns_per_elem", "ns", "lower", "sessions_per_s on engine-tree-k256, engine-trivial-k16"),
    ("comm.bitbuf_allocs_per_msg", "count", "lower", "cpu_us_per_session"),
    ("comm.chan_hop_p50_ns", "ns", "lower", "latency_p50_us on engine-sqrt-k64-serial (about rounds x hop)"),
    ("comm.chan_hop_p90_ns", "ns", "lower", "latency_p99_us on engine-sqrt-k64-serial"),
    ("comm.chan_hop_spill_p50_ns", "ns", "lower", "latency_p50_us on engine-tree-k256"),
    ("comm.chan_hop_allocs", "count", "lower", "cpu_us_per_session"),
    ("comm.runner_session_ns", "ns", "lower", "latency_p50_us on engine-trivial-k16"),
    ("comm.linkset_round_ns", "ns", "lower", "latency_p50_us on multiparty-m8-k32"),
    ("core.prepare_ns", "ns", "lower", "setup_s"),
    ("core.exec_ns_per_session", "ns", "lower", "sessions_per_s on the workload with the same protocol"),
    ("core.exec_allocs_per_session", "count", "lower", "cpu_us_per_session, sessions_per_s on engine-tree-k256"),
    ("core.exec_batch_ns_per_session", "ns", "lower", "none: the batch path has no end-to-end workload, this row is its only guard"),
    ("core.exec_stream_ns_per_session", "ns", "lower", "sessions_per_s on engine-stream-oneround-k32"),
    ("core.msgs_per_session", "count", "lower", "latency_p50_us (hops per session)"),
    ("engine.input_gen_ns", "ns", "lower", "sessions_per_s on engine-trivial-k16"),
    ("engine.route_ns", "ns", "lower", "sessions_per_s on engine-trivial-k16"),
    ("engine.plan_cache_hit_ns", "ns", "lower", "sessions_per_s on engine-trivial-k16"),
    ("engine.submit_ns_per_session", "ns", "lower", "sessions_per_s on engine-trivial-k16"),
    ("engine.session_ns", "ns", "lower", "latency_p50_us on engine-trivial-k16"),
    ("engine.allocs_per_session", "count", "lower", "cpu_us_per_session on engine-trivial-k16"),
    ("engine.overhead_ns_per_session", "ns", "lower", "latency_p50_us on engine-trivial-k16; flat on engine-tree-k256"),
    ("engine.admit_queue_share", "1", "lower", "latency_p50_us (queueing, not service)"),
    ("engine.rounds_execute_share", "1", "higher", "latency_p50_us (service share of the engine span)"),
    ("net.frame_encode_ns", "ns", "lower", "sessions_per_s on net-trivial-k16"),
    ("net.frame_decode_ns", "ns", "lower", "sessions_per_s on net-trivial-k16"),
    ("net.connect_ns", "ns", "lower", "setup_s on net-trivial-k16"),
    ("net.session_ns", "ns", "lower", "latency_p50_us on net-trivial-k16"),
    ("net.overhead_ns_per_session", "ns", "lower", "latency_p50_us on net-trivial-k16 minus engine-trivial-k16"),
    ("multiparty.harness_ns_per_session", "ns", "lower", "sessions_per_s on multiparty-m8-k32"),
    ("multiparty.engine_session_ns", "ns", "lower", "latency_p50_us on multiparty-m8-k32"),
    ("multiparty.engine_overhead_ns", "ns", "lower", "latency_p50_us on multiparty-m8-k32"),
    ("multiparty.max_player_bits", "bit", "lower", "bits_per_session on multiparty-m8-k32"),
    ("obs.subscriber_on_ns_per_session", "ns", "lower", "nothing while no subscriber is installed; telemetry's own price"),
    ("obs.flight_record_ns", "ns", "lower", "cpu_us_per_session (always-on recorder)"),
    ("trace.sessions", "count", "higher", "none: how many sessions the ladder sampled"),
];

/// Players of the mesh cell the multiparty rungs run on every workload.
const MESH_PLAYERS: usize = 8;
/// Ladder sessions are capped here whatever the budget allows.
const MAX_LADDER_SESSIONS: usize = 2000;
/// Sessions of the allocation-counting and subscriber-on passes.
const SIDE_PASS_SESSIONS: usize = 200;

pub struct LadderResult {
    pub attempted: u64,
    pub failed: u64,
    /// One value per [`PER_LAYER`] row, in that order.
    pub metrics: Vec<(&'static str, f64)>,
    pub recorder: Recorder,
}

/// Calls `f` for about `budget` (at least 5 times) and returns the
/// nanoseconds each call took.
fn sample_ns(budget: Duration, mut f: impl FnMut()) -> Vec<u64> {
    let deadline = Instant::now() + budget;
    let mut out = Vec::new();
    while out.len() < 5 || Instant::now() < deadline {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_nanos() as u64);
    }
    out
}

fn p50(mut samples: Vec<u64>) -> f64 {
    percentile(&mut samples, 0.5) as f64
}

/// A message of exactly `bits` bits.
fn payload(bits: usize, salt: u64) -> BitBuf {
    let mut m = BitBuf::with_capacity(bits);
    let mut left = bits;
    while left > 0 {
        let take = left.min(64);
        let word = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        m.push_bits(
            if take == 64 {
                word
            } else {
                word & ((1 << take) - 1)
            },
            take,
        );
        left -= take;
    }
    m
}

/// One runner session of `round_trips` strict ping-pongs at `bits` per
/// message; returns the nanoseconds of each round trip as Alice saw it,
/// and the instants around her loop.
fn ping_pong(
    runner: &mut SessionRunner,
    bits: usize,
    round_trips: u64,
) -> (Vec<u64>, Instant, Instant) {
    runner
        .run(
            &RunConfig::with_seed(1),
            |chan: &mut Endpoint, _: &CoinSource| {
                let mut each = Vec::with_capacity(round_trips as usize);
                let started = Instant::now();
                for i in 0..round_trips {
                    let t = Instant::now();
                    chan.send(payload(bits, i))?;
                    black_box(chan.recv()?);
                    each.push(t.elapsed().as_nanos() as u64);
                }
                Ok((each, started, Instant::now()))
            },
            move |chan: &mut Endpoint, _: &CoinSource| {
                for _ in 0..round_trips {
                    let m = chan.recv()?;
                    chan.send(m)?;
                }
                Ok(())
            },
        )
        .expect("ping-pong session on a warm runner")
        .alice
}

/// Range of the pairwise hash the ladder samples: `k²·2¹⁰`, the one-round
/// protocol's fingerprint range, capped at the universe.
fn hash_range(spec: ProblemSpec) -> u64 {
    spec.k
        .saturating_mul(spec.k)
        .saturating_mul(1024)
        .min(spec.n)
        .max(16)
}

/// Screens `pool` with what the innermost rung saw and keeps the raw
/// timings of the sessions that stay, in order.
fn screen<T>(pool: &mut Pool, raw: Vec<T>, seen: Vec<(bool, Report)>) -> Vec<T> {
    let kept = raw
        .into_iter()
        .zip(&seen)
        .filter_map(|(r, (ok, _))| ok.then_some(r))
        .collect();
    pool.screen(seen);
    kept
}

/// Sink of the engine and net rungs: what settled, and when the driver
/// saw it.
#[derive(Default)]
struct Observed(Vec<(Settled, Instant)>);

impl Sink for Observed {
    fn settle(&mut self, _pool: &Pool, settled: Settled) {
        self.0.push((settled, Instant::now()));
    }
}

/// What one rung of an outer layer (engine, net) measured.
struct OuterRung {
    /// Span index per ladder session.
    spans: Vec<u32>,
    wall_ns_per_session: f64,
    failed: u64,
    timelines: Vec<SessionTimeline>,
}

/// Drives the screened pool once through `system`, serially, and records
/// one span per session. An engine session's span is what its public
/// outcome states (plan lookup + admission-to-outcome): the engine has no
/// blocking wait, and polling for the outcome from a third thread would
/// disturb a two-core box more than the rung costs. A net session's span
/// is the wall time around `NetClient::run`. Either way the span ends
/// when the driver saw the session settle.
fn outer_rung(
    cell: &Workload,
    pool: &Pool,
    rec: &mut Recorder,
    name: &'static str,
    layer: &'static str,
) -> OuterRung {
    let mut system = System::start(cell);
    let sessions = pool.live() as u64;
    let warm = sessions.min(16);
    system.drive(pool, 0, Stop::Count(warm), &mut [Discard]);
    let mut sink = [Observed::default()];
    let started = Instant::now();
    system.drive(pool, sessions, Stop::Count(sessions), &mut sink);
    let wall = started.elapsed();
    system.shutdown();

    let [Observed(mut seen)] = sink;
    seen.sort_by_key(|(s, _)| s.id);
    let mut rung = OuterRung {
        spans: Vec::with_capacity(seen.len()),
        wall_ns_per_session: wall.as_nanos() as f64 / sessions as f64,
        failed: 0,
        timelines: Vec::new(),
    };
    for (settled, at) in seen {
        let session = (settled.id - sessions) as u32;
        let duration_us = match settled.timeline {
            Some(t) => t.plan_cache_micros + settled.latency_us,
            None => settled.latency_us,
        };
        rung.timelines.extend(settled.timeline);
        // The rung must agree with the innermost rung bit for bit.
        if !settled.repeats(pool) {
            rung.failed += 1;
        }
        let end = rec.at_ns(at);
        rung.spans.push(rec.push(
            name,
            layer,
            session,
            end.saturating_sub(duration_us * 1000),
            end,
        ));
    }
    rung
}

/// The workload's cell as a serial pair workload of `pool` sessions.
fn pair_cell(workload: &Workload, driver: Driver, pool: usize) -> Workload {
    Workload {
        driver,
        in_flight: 1,
        pool,
        ..*workload
    }
}

struct PairLadder {
    inputs: Vec<InputPair>,
    pool: Pool,
    plan: std::sync::Arc<dyn intersect_core::prepared::PreparedProtocol>,
    mean_msg_bits: usize,
    attempted: u64,
    failed: u64,
}

fn pair_ladder(
    workload: &Workload,
    seed: u64,
    budget: Duration,
    rec: &mut Recorder,
    metrics: &mut Vec<(&'static str, f64)>,
) -> Result<PairLadder, String> {
    let spec = workload.spec;
    let cache = PlanCache::new();
    let plan = cache.get_or_prepare(workload.choice, spec);

    // Lead-in. The whole process is in one of two states: a hop to a
    // waiting peer costs ~1 us in one and ~20 us in the other (most
    // likely whether the idle core is still polling or has halted; the
    // cause is not verified), and every rung of a run sees the same one.
    // Without this, which state a traced run starts in is luck. A
    // sustained one-caller loop settles into the slow state — the one the
    // timed one-caller workloads measure — and it sticks.
    let lead_in = pair_cell(workload, Driver::Singles, 64);
    let lead_in_pool = Pool::generate(&lead_in, seed);
    let mut system = System::start(&lead_in);
    system.drive(
        &lead_in_pool,
        0,
        Stop::At(Instant::now() + budget.mul_f64(0.15)),
        &mut [Discard],
    );
    system.shutdown();

    // Size the ladder: every session costs about eight executor runs
    // across the rungs and side passes.
    let probe = Pool::generate(&pair_cell(workload, Driver::Singles, 8), seed);
    let probe_ns = p50((0..8)
        .map(|i| {
            let req = probe.pair(i);
            let pair = req.input_pair();
            let t = Instant::now();
            let _ = black_box(execute_prepared(&plan, &pair, req.coin_seed()));
            t.elapsed().as_nanos() as u64
        })
        .collect());
    let sessions = ((budget.as_nanos() as f64 / (8.0 * probe_ns + 300_000.0)) as usize)
        .clamp(32, MAX_LADDER_SESSIONS);
    let mut pool = Pool::generate(&pair_cell(workload, Driver::Singles, sessions), seed);

    // Executor rung, which also screens: a session the protocol itself
    // gets wrong (its stated error probability) leaves the ladder.
    let mut raw = Vec::with_capacity(sessions);
    let mut seen = Vec::with_capacity(sessions);
    for i in 0..sessions as u64 {
        let req = pool.pair(i);
        let t0 = rec.now_ns();
        let pair = req.input_pair();
        let t1 = rec.now_ns();
        let run = execute_prepared(&plan, &pair, req.coin_seed());
        let t2 = rec.now_ns();
        seen.push(match run {
            Ok(run) => (run.matches(&pool.entry(i).truth), Report::Pair(run.report)),
            Err(_) => (false, Report::Pair(Default::default())),
        });
        raw.push((pair, t0, t1, t2));
    }
    let mut inputs = Vec::with_capacity(sessions);
    let mut exec_spans = Vec::with_capacity(sessions);
    let mut input_spans = Vec::with_capacity(sessions);
    for (pair, t0, t1, t2) in screen(&mut pool, raw, seen) {
        let session = inputs.len() as u32;
        input_spans.push(rec.push("engine.input_gen", "engine", session, t0, t1));
        exec_spans.push(rec.push("core.execute_prepared", "core", session, t1, t2));
        inputs.push(pair);
    }
    let live = pool.live();
    if live == 0 {
        return Err("every ladder session failed on the executor rung".into());
    }

    // Leaf rungs: what the substrate alone costs for this session.
    let codec = RiceSubsetCodec::new(spec.n, spec.k);
    let family = PairwiseFamily::new(spec.n);
    let range = hash_range(spec);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut runner = SessionRunner::start();
    ping_pong(&mut runner, 64, 16);
    let mut leaves = Vec::with_capacity(live);
    for (j, pair) in inputs.iter().enumerate() {
        let session = j as u32;
        let ((), codec_span) = rec.time("comm.codec", "comm", session, || {
            let buf = codec.encode(pair.s.as_slice());
            let back = codec
                .decode(&mut buf.reader())
                .expect("own encoding decodes");
            assert_eq!(back.len(), pair.s.len());
        });
        let ((), hash_span) = rec.time("hash.eval", "hash", session, || {
            let h = family.sample(&mut rng, range);
            black_box(pair.s.iter().fold(0u64, |acc, x| acc ^ h.eval(x)));
        });
        let messages = pool
            .entry(j as u64)
            .report
            .as_ref()
            .map_or(2, Report::messages);
        let (_, started, ended) = ping_pong(&mut runner, 64, messages.div_ceil(2).max(1));
        let hops_span = rec.push(
            "comm.hops",
            "comm",
            session,
            rec.at_ns(started),
            rec.at_ns(ended),
        );
        let (_, runner_span) = rec.time("comm.runner", "comm", session, || {
            runner
                .run(
                    &RunConfig::with_seed(j as u64),
                    |_: &mut Endpoint, _: &CoinSource| Ok(()),
                    |_: &mut Endpoint, _: &CoinSource| Ok(()),
                )
                .expect("empty session on a warm runner")
        });
        leaves.push([codec_span, hash_span, hops_span, runner_span]);
    }
    drop(runner);

    let engine = outer_rung(
        &pair_cell(workload, Driver::Singles, live),
        &pool,
        rec,
        "engine.session",
        "engine",
    );
    let net = outer_rung(
        &pair_cell(workload, Driver::Net, live),
        &pool,
        rec,
        "net.run",
        "net",
    );
    for j in 0..live {
        rec.set_parent(engine.spans[j], net.spans[j]);
        rec.set_parent(input_spans[j], engine.spans[j]);
        rec.set_parent(exec_spans[j], engine.spans[j]);
        for leaf in leaves[j] {
            rec.set_parent(leaf, exec_spans[j]);
        }
    }

    let exec_p50 = p50(rec.durations("core.execute_prepared"));
    let engine_p50 = p50(rec.durations("engine.session"));
    let net_p50 = p50(rec.durations("net.run"));
    let total_msgs: u64 = (0..live as u64)
        .map(|j| pool.entry(j).report.as_ref().map_or(0, Report::messages))
        .sum();
    let mut folded = SessionTimeline::default();
    for t in &engine.timelines {
        folded.accumulate(t);
    }
    let total_us = folded.total_micros().max(1) as f64;
    metrics.extend([
        ("comm.runner_session_ns", p50(rec.durations("comm.runner"))),
        ("core.exec_ns_per_session", exec_p50),
        ("core.msgs_per_session", total_msgs as f64 / live as f64),
        (
            "engine.input_gen_ns",
            p50(rec.durations("engine.input_gen")),
        ),
        ("engine.submit_ns_per_session", engine.wall_ns_per_session),
        ("engine.session_ns", engine_p50),
        ("engine.overhead_ns_per_session", engine_p50 - exec_p50),
        (
            "engine.admit_queue_share",
            folded.admit_queue_micros as f64 / total_us,
        ),
        (
            "engine.rounds_execute_share",
            folded.rounds_execute_micros as f64 / total_us,
        ),
        ("net.session_ns", net_p50),
        ("net.overhead_ns_per_session", net_p50 - engine_p50),
        ("trace.sessions", live as f64),
    ]);
    Ok(PairLadder {
        inputs,
        mean_msg_bits: (pool.mean_report(Report::bits) * live as f64 / total_msgs.max(1) as f64)
            .round() as usize,
        pool,
        plan,
        attempted: 2 * live as u64,
        failed: engine.failed + net.failed,
    })
}

/// The multiparty rungs: harness-only tournament, then the same sessions
/// hosted by the engine, on an 8-player mesh at the workload's `(n, k)`.
fn mesh_ladder(
    workload: &Workload,
    seed: u64,
    budget: Duration,
    rec: &mut Recorder,
    metrics: &mut Vec<(&'static str, f64)>,
) -> Result<(u64, u64), String> {
    let cell = |pool: usize| Workload {
        driver: Driver::Multiparty {
            players: MESH_PLAYERS,
        },
        in_flight: 1,
        pool,
        ..*workload
    };
    let harness = |pool: &Pool, i: u64| {
        let Case::Mesh(req) = &pool.entry(i).case else {
            unreachable!("mesh cell holds multiparty requests")
        };
        let sets = req.player_sets();
        let t = Instant::now();
        let run = AverageCase::new(req.spec, req.tree_rounds).execute(&sets, req.seed);
        (run, t, Instant::now())
    };
    let probe = Pool::generate(&cell(2), seed);
    let probe_ns = (0..2)
        .map(|i| harness(&probe, i))
        .map(|(_, a, b)| (b - a).as_nanos())
        .max();
    let sessions =
        ((budget.as_nanos() / (3 * probe_ns.unwrap_or(1) + 1_000_000)) as usize).clamp(8, 256);
    let mut pool = Pool::generate(&cell(sessions), seed);

    let mut raw = Vec::with_capacity(sessions);
    let mut seen = Vec::with_capacity(sessions);
    let mut max_player_bits = 0;
    for i in 0..sessions as u64 {
        let (run, started, ended) = harness(&pool, i);
        seen.push(match run {
            Ok(run) => {
                max_player_bits = max_player_bits.max(run.report.max_bits_per_player());
                (run.result == pool.entry(i).truth, Report::Mesh(run.report))
            }
            Err(_) => (false, Report::Mesh(Default::default())),
        });
        raw.push((started, ended));
    }
    let mut harness_spans = Vec::with_capacity(sessions);
    for (started, ended) in screen(&mut pool, raw, seen) {
        let session = harness_spans.len() as u32;
        harness_spans.push(rec.push(
            "multiparty.harness",
            "multiparty",
            session,
            rec.at_ns(started),
            rec.at_ns(ended),
        ));
    }
    let live = pool.live();
    if live == 0 {
        return Err("every multiparty ladder session failed on the harness rung".into());
    }

    // Leaf: what one round on a reused mesh costs — every player sends a
    // word to its right neighbour and receives one from its left.
    let mut mesh = LinkSet::new(MESH_PLAYERS, seed, Duration::from_secs(30));
    let mut round_spans = Vec::with_capacity(live);
    for j in 0..live as u32 {
        let (_, span) = rec.time("comm.linkset_round", "comm", j, || {
            mesh.reset(j as u64);
            mesh.run(|ctx| {
                let (id, m) = (ctx.id(), ctx.players());
                ctx.send_to((id + 1) % m, payload(64, id as u64))?;
                ctx.recv_from((id + m - 1) % m).map(|msg| msg.len())
            })
            .expect("ring round on an intact mesh")
        });
        round_spans.push(span);
    }

    let engine = outer_rung(
        &cell(live),
        &pool,
        rec,
        "engine.multiparty_session",
        "engine",
    );
    for j in 0..live {
        rec.set_parent(harness_spans[j], engine.spans[j]);
        rec.set_parent(round_spans[j], harness_spans[j]);
    }
    let harness_p50 = p50(rec.durations("multiparty.harness"));
    let engine_p50 = p50(rec.durations("engine.multiparty_session"));
    metrics.extend([
        (
            "comm.linkset_round_ns",
            p50(rec.durations("comm.linkset_round")),
        ),
        ("multiparty.harness_ns_per_session", harness_p50),
        ("multiparty.engine_session_ns", engine_p50),
        ("multiparty.engine_overhead_ns", engine_p50 - harness_p50),
        ("multiparty.max_player_bits", max_player_bits as f64),
    ]);
    Ok((live as u64, engine.failed))
}

/// Per-layer rows that are not rungs: single calls into one layer, timed
/// in a loop for `slice` each.
fn micro(
    workload: &Workload,
    seed: u64,
    ladder: &PairLadder,
    slice: Duration,
    metrics: &mut Vec<(&'static str, f64)>,
) {
    let spec = workload.spec;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sets: Vec<&[u64]> = ladder
        .inputs
        .iter()
        .take(64)
        .map(|p| p.s.as_slice())
        .collect();
    let keys: Vec<u64> = sets
        .iter()
        .flat_map(|s| s.iter().copied())
        .cycle()
        .take(4096)
        .collect();
    let per_key = |samples: Vec<u64>| p50(samples) / keys.len() as f64;

    // hash
    let family = PairwiseFamily::new(spec.n);
    let range = hash_range(spec);
    let pairwise = family.sample(&mut rng, range);
    let reduction = ModPrimeReduction::sample(&mut rng, spec.n, spec.k);
    let tabulation = TabulationHash::sample(&mut rng);
    metrics.extend([
        (
            "hash.pairwise_eval_ns",
            per_key(sample_ns(slice, || {
                black_box(keys.iter().fold(0u64, |acc, &x| acc ^ pairwise.eval(x)));
            })),
        ),
        (
            "hash.reduce_map_ns",
            per_key(sample_ns(slice, || {
                black_box(keys.iter().fold(0u64, |acc, &x| acc ^ reduction.map(x)));
            })),
        ),
        (
            "hash.tabulation_eval_ns",
            per_key(sample_ns(slice, || {
                black_box(keys.iter().fold(0u64, |acc, &x| acc ^ tabulation.eval(x)));
            })),
        ),
        (
            "hash.family_plan_ns",
            p50(sample_ns(slice, || {
                black_box(PairwiseFamily::new(black_box(spec.n)));
            })),
        ),
    ]);

    // comm: codecs at the cell's k
    let codec = RiceSubsetCodec::new(spec.n, spec.k);
    let elements: usize = sets.iter().map(|s| s.len()).sum();
    let encoded: Vec<BitBuf> = sets.iter().map(|s| codec.encode(s)).collect();
    metrics.extend([
        (
            "comm.codec_encode_ns_per_elem",
            p50(sample_ns(slice, || {
                for s in &sets {
                    black_box(codec.encode(s));
                }
            })) / elements as f64,
        ),
        (
            "comm.codec_decode_ns_per_elem",
            p50(sample_ns(slice, || {
                for buf in &encoded {
                    black_box(
                        codec
                            .decode(&mut buf.reader())
                            .expect("own encoding decodes"),
                    );
                }
            })) / elements as f64,
        ),
    ]);

    // comm: the hop. Strict ping-pong on a warm runner; half a round trip
    // is one hop. Two percentiles, because the hop is bimodal (peer found
    // running vs parked).
    let mut runner = SessionRunner::start();
    ping_pong(&mut runner, 64, 64);
    let hop = |runner: &mut SessionRunner, bits: usize| {
        let (probe, _, _) = ping_pong(runner, bits, 256);
        let round_trips =
            (slice.as_nanos() as u64 / p50(probe).max(1.0) as u64).clamp(256, 200_000);
        let (mut each, _, _) = ping_pong(runner, bits, round_trips);
        each.sort_unstable();
        each
    };
    let small = hop(&mut runner, 64);
    let spill = hop(&mut runner, 512);
    let allocs_per_msg = |runner: &mut SessionRunner, bits: usize| {
        let ((), allocs) = count_allocations(|| {
            ping_pong(runner, bits, 2_000);
        });
        // 2 000 round trips are 4 000 messages; the session hand-off adds
        // a constant handful.
        allocs as f64 / 4_000.0
    };
    metrics.extend([
        (
            "comm.chan_hop_p50_ns",
            crate::stats::percentile_sorted(&small, 0.50) as f64 / 2.0,
        ),
        (
            "comm.chan_hop_p90_ns",
            crate::stats::percentile_sorted(&small, 0.90) as f64 / 2.0,
        ),
        (
            "comm.chan_hop_spill_p50_ns",
            crate::stats::percentile_sorted(&spill, 0.50) as f64 / 2.0,
        ),
        ("comm.chan_hop_allocs", allocs_per_msg(&mut runner, 64)),
        (
            "comm.bitbuf_allocs_per_msg",
            allocs_per_msg(&mut runner, ladder.mean_msg_bits.max(1)),
        ),
    ]);
    drop(runner);

    // core
    let plan = &ladder.plan;
    let side = ladder.inputs.len().min(SIDE_PASS_SESSIONS);
    let request = |j: usize| ladder.pool.pair(j as u64);
    let exec_side = |j: usize| {
        black_box(execute_prepared(
            plan,
            &ladder.inputs[j],
            request(j).coin_seed(),
        ))
        .ok();
    };
    let ((), exec_allocs) = count_allocations(|| (0..side).for_each(exec_side));
    let seeds: Vec<u64> = (0..ladder.inputs.len())
        .map(|j| request(j).coin_seed())
        .collect();
    let started = Instant::now();
    for (pairs, seeds) in ladder
        .inputs
        .chunks(STREAM_BLOCK)
        .zip(seeds.chunks(STREAM_BLOCK))
    {
        black_box(execute_prepared_batch(plan, pairs, seeds).expect("batch on a warm runner"));
    }
    let batch_ns = started.elapsed().as_nanos() as f64 / ladder.inputs.len() as f64;
    let context = PairContext::new(plan.clone(), seed);
    let started = Instant::now();
    for pairs in ladder.inputs.chunks(STREAM_BLOCK) {
        black_box(execute_prepared_stream(&context, pairs).expect("stream on a warm runner"));
    }
    let stream_ns = started.elapsed().as_nanos() as f64 / ladder.inputs.len() as f64;
    metrics.extend([
        (
            "core.prepare_ns",
            p50(sample_ns(slice, || {
                black_box(workload.choice.build(spec).prepare(spec));
            })),
        ),
        (
            "core.exec_allocs_per_session",
            exec_allocs as f64 / side as f64,
        ),
        ("core.exec_batch_ns_per_session", batch_ns),
        ("core.exec_stream_ns_per_session", stream_ns),
    ]);

    // engine: the dispatcher's per-session steps, and allocations of a
    // whole engine session.
    let mut routed = request(0);
    routed.protocol = None;
    let cache = PlanCache::new();
    cache.get_or_prepare(workload.choice, spec);
    let cell = pair_cell(workload, Driver::Singles, ladder.pool.live());
    let mut system = System::start(&cell);
    system.drive(&ladder.pool, 0, Stop::Count(16), &mut [Discard]);
    let (_, engine_allocs) = count_allocations(|| {
        system.drive(&ladder.pool, 16, Stop::Count(side as u64), &mut [Discard])
    });
    system.shutdown();
    metrics.extend([
        (
            "engine.route_ns",
            p50(sample_ns(slice, || {
                black_box(route(black_box(&routed), RoutePolicy::default()));
            })),
        ),
        (
            "engine.plan_cache_hit_ns",
            p50(sample_ns(slice, || {
                black_box(cache.get_or_prepare(workload.choice, spec));
            })),
        ),
        (
            "engine.allocs_per_session",
            engine_allocs as f64 / side as f64,
        ),
    ]);

    // net: framing at the cell's mean payload width, and a connect.
    let msg = WireFrame::Msg {
        session: 7,
        depth: 3,
        payload: payload(ladder.mean_msg_bits.max(1), seed),
    };
    let bytes = frame::encode(&msg);
    let server_cell = pair_cell(workload, Driver::Net, 1);
    let System::Net {
        server,
        addr,
        clients,
    } = System::start(&server_cell)
    else {
        unreachable!("a net cell starts a net system")
    };
    let connect_ns = p50(sample_ns(slice, || {
        drop(NetClient::connect(&addr).expect("connect to loopback server"))
    }));
    System::Net {
        server,
        addr,
        clients,
    }
    .shutdown();
    metrics.extend([
        (
            "net.frame_encode_ns",
            p50(sample_ns(slice, || {
                black_box(frame::encode(black_box(&msg)));
            })),
        ),
        (
            "net.frame_decode_ns",
            p50(sample_ns(slice, || {
                black_box(frame::decode_body(black_box(&bytes[4..])).expect("own frame decodes"));
            })),
        ),
        ("net.connect_ns", connect_ns),
    ]);

    // obs: the executor rung again with a subscriber installed, against
    // the same sessions without one; and the always-on flight recorder.
    let exec_ns = |j: usize| {
        let t = Instant::now();
        exec_side(j);
        t.elapsed().as_nanos() as u64
    };
    let off = p50((0..side).map(exec_ns).collect());
    let subscriber = intersect_obs::Subscriber::new();
    let installed = subscriber.install();
    let on = p50((0..side).map(exec_ns).collect());
    drop(installed);
    metrics.extend([
        ("obs.subscriber_on_ns_per_session", on - off),
        (
            "obs.flight_record_ns",
            p50(sample_ns(slice, || {
                for i in 0..1024 {
                    intersect_obs::flight::record(intersect_obs::flight::CODE_COMPLETE, i, i, 0);
                }
            })) / 1024.0,
        ),
    ]);
}

/// Runs the traced ladder of one workload in about `seconds`.
///
/// # Errors
///
/// Fails when a rung cannot run at all; sessions on which an outer rung
/// disagrees with the executor rung are counted in `failed`.
pub fn run(workload: &Workload, seed: u64, seconds: f64) -> Result<LadderResult, String> {
    let mut recorder = Recorder::new();
    let mut measured = Vec::with_capacity(PER_LAYER.len());
    let pair = pair_ladder(
        workload,
        seed,
        Duration::from_secs_f64(seconds * 0.45),
        &mut recorder,
        &mut measured,
    )?;
    let (mesh_attempted, mesh_failed) = mesh_ladder(
        workload,
        seed,
        Duration::from_secs_f64(seconds * 0.2),
        &mut recorder,
        &mut measured,
    )?;
    micro(
        workload,
        seed,
        &pair,
        Duration::from_secs_f64(seconds * 0.35 / 20.0),
        &mut measured,
    );
    let metrics = PER_LAYER
        .iter()
        .map(|(name, ..)| {
            let value = measured.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            value
                .map(|v| (*name, v))
                .ok_or_else(|| format!("ladder did not measure {name}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(LadderResult {
        attempted: pair.attempted + mesh_attempted,
        failed: pair.failed + mesh_failed,
        metrics,
        recorder,
    })
}
