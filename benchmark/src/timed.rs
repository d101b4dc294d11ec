//! The timed run: repeated set-up, screening pass, bit-identity sample
//! and the closed-loop measured window of one workload.

use crate::procfs;
use crate::stats::BlockStat;
use crate::workload::{Case, Driver, Pool, Report, Workload, STREAM_BLOCK};
use intersect_core::prepared::execute_prepared;
use intersect_engine::prelude::*;
use intersect_multiparty::AverageCase;
use intersect_net::{NetClient, NetServer, NetServerConfig};
use std::time::{Duration, Instant};

/// Closed-loop seconds run and thrown away before the set-ups are timed.
/// A one-caller loop runs in one of two states — every thread hand-off
/// ~1 us or ~20 us, see the README — and a fresh process sometimes starts
/// in the fast one, which a few seconds of sustained load always leave
/// for the slow one. Timing set-ups before that has happened makes
/// `setup_s` read four times too small on one run in ten.
pub const SETTLE_SECONDS: f64 = 2.0;

/// Closed-loop seconds run and thrown away right before the measured
/// window, after the harness's own reruns kept a core busy.
pub const LEAD_IN_SECONDS: f64 = 1.0;

/// One run sets the system up at least this many times (fewer only when
/// they take longer than the whole of `--seconds`), and goes on — up to
/// [`MAX_SETUPS`] — until [`SETUP_SECONDS`] are spent; `setup_s` is the
/// median. A short set-up needs the extra repeats: how fast a freshly
/// started engine's first pass goes varies 3× from start to start on the
/// stream workload (0.05–0.15 s), and a median of five of those still
/// moved 50 % between runs.
pub const MIN_SETUPS: usize = 5;
pub const MAX_SETUPS: usize = 25;
pub const SETUP_SECONDS: f64 = 1.5;

/// Pool entries whose engine/net report is compared with a harness-only
/// `execute_prepared` of the same request.
pub const IDENTITY_SAMPLE: usize = 256;

/// One settled session as the driver saw it.
#[derive(Debug)]
pub struct Settled {
    pub id: u64,
    /// Both parties' outputs equal the benchmark's ground truth
    /// (multiparty: the outcome succeeded and the holder's set does).
    pub outputs_ok: bool,
    pub report: Report,
    /// The seed of the session's common random string, as the program
    /// derived it; the identity sample reruns the session with it.
    pub coin_seed: u64,
    /// Engine sessions: admission to outcome, as the outcome states it.
    /// Net sessions: wall time around `NetClient::run`.
    pub latency_us: u64,
    /// The engine's own latency waterfall; remote sessions have none.
    pub timeline: Option<SessionTimeline>,
}

impl Settled {
    /// Right outputs, and the exact cost the pool entry was screened
    /// with: the same request must cost the same bits, messages and rounds
    /// every time it runs, not only produce the right sets.
    pub fn repeats(&self, pool: &Pool) -> bool {
        self.outputs_ok && pool.entry(self.id).report.as_ref() == Some(&self.report)
    }
}

/// Where a driver thread puts what it observes. One sink per thread, so
/// the measured window shares nothing between the threads.
pub trait Sink: Send {
    fn settle(&mut self, pool: &Pool, settled: Settled);
}

/// When a drive stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Count(u64),
    At(Instant),
}

impl Stop {
    fn reached(&self, submitted: u64) -> bool {
        match *self {
            Stop::Count(n) => submitted >= n,
            Stop::At(deadline) => Instant::now() >= deadline,
        }
    }
}

/// Sessions a net driver thread runs on one connection before it
/// reconnects. `NetServer` keeps the `JoinHandle` of every session thread
/// until the connection closes, and a finished thread that was never
/// joined keeps its stack mapped: past roughly 32 000 sessions on one
/// connection the process runs out of memory maps (`vm.max_map_count`)
/// and the server aborts. Recycling the connection bounds that, and the
/// resident stacks (about 10 KiB each) with it. The interval is a
/// compromise measured on `net-trivial-k16`: the two or three sessions
/// around a reconnect are slow, so at 128 sessions per connection they
/// are 2 % of all sessions and `latency_p99_us` lands among them (ten-seed
/// spread 14 %, at 256 still 9 %); at 512 `peak_rss_mb` read 11.5 or
/// 14 MiB from run to run; at 384 p99 repeats within 5 % and RSS within 3 %.
pub const SESSIONS_PER_CONNECTION: u64 = 384;

/// The system under test, started through its public constructors only.
pub enum System {
    Engine {
        engine: Engine,
        driver: Driver,
    },
    Net {
        server: NetServer,
        addr: String,
        clients: Vec<NetClient>,
    },
}

fn connect(addr: &str) -> NetClient {
    NetClient::connect(addr).expect("connect to loopback server")
}

impl System {
    pub fn start(workload: &Workload) -> System {
        match workload.driver {
            Driver::Net => {
                let endpoint = intersect_net::EndpointAddr::parse("tcp:127.0.0.1:0")
                    .expect("loopback endpoint parses");
                let server =
                    NetServer::start(NetServerConfig::new(endpoint)).expect("bind loopback server");
                let addr = server.local_addr().to_string();
                let clients = (0..workload.in_flight).map(|_| connect(&addr)).collect();
                System::Net {
                    server,
                    addr,
                    clients,
                }
            }
            driver => {
                // One worker per session in flight, and never fewer than
                // the engine's own minimum of two.
                let mut config = EngineConfig::new(workload.in_flight.max(2));
                config.max_in_flight = workload.in_flight;
                config.queue_capacity = workload.in_flight;
                System::Engine {
                    engine: Engine::start(config),
                    driver,
                }
            }
        }
    }

    /// Driver threads, and therefore sinks, a drive needs.
    pub fn threads(&self) -> usize {
        match self {
            System::Engine { .. } => 1,
            System::Net { clients, .. } => clients.len(),
        }
    }

    /// Runs sessions `first_id, first_id + 1, …` closed-loop until `stop`,
    /// then waits for every submitted session to settle — completed or
    /// failed — so none is lost to the count. Returns how many ran.
    pub fn drive<S: Sink>(
        &mut self,
        pool: &Pool,
        first_id: u64,
        stop: Stop,
        sinks: &mut [S],
    ) -> u64 {
        assert_eq!(sinks.len(), self.threads(), "one sink per driver thread");
        match self {
            System::Engine { engine, driver } => {
                drive_engine(engine, *driver, pool, first_id, stop, &mut sinks[0])
            }
            System::Net { clients, addr, .. } => {
                drive_net(clients, addr, pool, first_id, stop, sinks)
            }
        }
    }

    pub fn shutdown(self) {
        match self {
            System::Engine { engine, .. } => {
                engine.finish();
            }
            System::Net {
                mut server,
                clients,
                ..
            } => {
                drop(clients);
                server.shutdown();
            }
        }
    }
}

/// One closed-loop thread per connection; thread `t` of `T` runs ids
/// `first_id + t`, `first_id + t + T`, … and renews its connection every
/// [`SESSIONS_PER_CONNECTION`] sessions.
fn drive_net<S: Sink>(
    clients: &mut [NetClient],
    addr: &str,
    pool: &Pool,
    first_id: u64,
    stop: Stop,
    sinks: &mut [S],
) -> u64 {
    let threads = clients.len() as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(sinks.iter_mut())
            .zip(0u64..)
            .map(|((client, sink), t)| {
                let stop = match stop {
                    Stop::Count(n) => Stop::Count((n + threads - 1 - t) / threads),
                    at => at,
                };
                scope.spawn(move || {
                    let mut ran = 0u64;
                    while !stop.reached(ran) {
                        let id = first_id + t + ran * threads;
                        sink.settle(pool, run_remote(client, pool, id));
                        ran += 1;
                        if ran.is_multiple_of(SESSIONS_PER_CONNECTION) {
                            *client = connect(addr);
                        }
                    }
                    ran
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("net driver thread panicked"))
            .sum()
    })
}

fn run_remote(client: &NetClient, pool: &Pool, id: u64) -> Settled {
    let request = pool.pair(id);
    let coin_seed = request.coin_seed();
    let started = Instant::now();
    let run = client.run(&request);
    let latency_us = started.elapsed().as_micros() as u64;
    match run {
        Ok(run) => Settled {
            id,
            outputs_ok: run.matches(&pool.entry(id).truth),
            report: Report::Pair(run.report),
            coin_seed,
            latency_us,
            timeline: None,
        },
        // A ProtocolError or refusal: a failed session with no cost.
        Err(_) => Settled {
            id,
            outputs_ok: false,
            report: Report::Pair(Default::default()),
            coin_seed,
            latency_us,
            timeline: None,
        },
    }
}

fn settle_pair(pool: &Pool, outcome: SessionOutcome) -> Settled {
    let truth = &pool.entry(outcome.request.id).truth;
    Settled {
        id: outcome.request.id,
        outputs_ok: outcome.alice.as_ref() == Some(truth) && outcome.bob.as_ref() == Some(truth),
        coin_seed: outcome.request.coin_seed(),
        report: Report::Pair(outcome.report),
        latency_us: outcome.latency_micros,
        timeline: Some(outcome.timeline),
    }
}

fn settle_mesh(pool: &Pool, outcome: MultipartySessionOutcome) -> Settled {
    let truth = &pool.entry(outcome.request.id).truth;
    Settled {
        id: outcome.request.id,
        outputs_ok: outcome.succeeded() && outcome.result.as_ref() == Some(truth),
        coin_seed: outcome.request.seed,
        report: Report::Mesh(outcome.report),
        latency_us: outcome.latency_micros,
        timeline: Some(outcome.timeline),
    }
}

/// The engine's callers block in `submit` while the bounded admission
/// queue is full; that back-pressure is what closes the loop. Settled
/// outcomes are collected after each submission, which is as often as the
/// engine lets the driver run.
fn drive_engine<S: Sink>(
    engine: &Engine,
    driver: Driver,
    pool: &Pool,
    first_id: u64,
    stop: Stop,
    sink: &mut S,
) -> u64 {
    let mut submitted = 0u64;
    let mut settled = 0u64;
    let mut streams = None;
    let collect = |sink: &mut S| -> u64 {
        let mut n = 0;
        if let Driver::Multiparty { .. } = driver {
            for outcome in engine.drain_multiparty_outcomes() {
                sink.settle(pool, settle_mesh(pool, outcome));
                n += 1;
            }
        } else {
            for outcome in engine.drain_outcomes() {
                sink.settle(pool, settle_pair(pool, outcome));
                n += 1;
            }
        }
        n
    };
    while !stop.reached(submitted) {
        let id = first_id + submitted;
        match driver {
            Driver::Singles => {
                engine
                    .submit(pool.pair(id))
                    .expect("engine admits a valid session");
                submitted += 1;
            }
            Driver::Stream => {
                let pairs =
                    streams.get_or_insert_with(|| [engine.open_stream(1), engine.open_stream(2)]);
                let mut block = STREAM_BLOCK as u64;
                if let Stop::Count(n) = stop {
                    block = block.min(n - submitted);
                }
                let requests = (id..id + block).map(|id| pool.pair(id)).collect();
                let stream = pairs[(submitted / STREAM_BLOCK as u64 % 2) as usize];
                engine
                    .submit_stream(stream, requests)
                    .expect("engine admits a valid stream block");
                submitted += block;
            }
            Driver::Multiparty { .. } => {
                engine
                    .submit_multiparty(pool.mesh(id))
                    .expect("engine admits a valid multiparty session");
                submitted += 1;
            }
            Driver::Net => unreachable!("net workloads are not engine-driven"),
        }
        settled += collect(sink);
    }
    while settled < submitted {
        let n = collect(sink);
        if n == 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
        settled += n;
    }
    submitted
}

/// Sink of the warm-up and screening passes: keeps what each session
/// reported, in id order of arrival.
#[derive(Debug, Default)]
pub struct Seen(pub Vec<Settled>);

impl Sink for Seen {
    fn settle(&mut self, _pool: &Pool, settled: Settled) {
        self.0.push(settled);
    }
}

/// Sink of a lead-in.
#[derive(Debug, Clone, Copy)]
pub struct Discard;

impl Sink for Discard {
    fn settle(&mut self, _pool: &Pool, _settled: Settled) {}
}

/// Latencies of one block, counted exactly per microsecond value so the
/// window's memory does not grow with the number of sessions (and the
/// benchmark's own samples do not show up in `peak_rss_mb`). Latencies at
/// or beyond the last bucket, a quarter of a second, share it.
const LATENCY_BUCKETS: usize = 1 << 18;

#[derive(Debug, Clone)]
struct BlockTally {
    correct: u64,
    latency_us: Vec<u32>,
}

impl BlockTally {
    fn new() -> BlockTally {
        BlockTally {
            correct: 0,
            latency_us: vec![0; LATENCY_BUCKETS],
        }
    }

    fn merge(&mut self, other: &BlockTally) {
        self.correct += other.correct;
        for (mine, theirs) in self.latency_us.iter_mut().zip(&other.latency_us) {
            *mine += theirs;
        }
    }

    /// The `p`-quantile in microseconds. The bucket is the one
    /// [`crate::stats::percentile_sorted`] would pick on the expanded
    /// sample; inside it the value is placed by rank, because a latency
    /// reported as `119` was truncated from somewhere in `[119, 120)`.
    fn percentile(&self, p: f64) -> f64 {
        let rank = ((p * self.correct as f64).ceil() as u64).clamp(1, self.correct.max(1));
        let mut below = 0u64;
        for (us, &count) in self.latency_us.iter().enumerate() {
            if below + count as u64 >= rank {
                return us as f64 + (rank - below) as f64 / count as f64;
            }
            below += count as u64;
        }
        LATENCY_BUCKETS as f64
    }
}

/// Sink of the measured window: checks every session against the pool
/// and counts it into the block it settled in.
#[derive(Debug)]
pub struct Tally {
    window_start: Instant,
    block_ns: u64,
    blocks: Vec<BlockTally>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn new(window_start: Instant, block_ns: u64, blocks: usize) -> Tally {
        Tally {
            window_start,
            block_ns,
            // One zeroed allocation each, not clones of one: pages of a
            // fresh zeroed allocation stay untouched until counted into.
            blocks: (0..blocks).map(|_| BlockTally::new()).collect(),
            attempted: 0,
            failed: 0,
        }
    }
}

impl Sink for Tally {
    fn settle(&mut self, pool: &Pool, settled: Settled) {
        self.attempted += 1;
        if !settled.repeats(pool) {
            self.failed += 1;
            return;
        }
        // Sessions that settle after the deadline are counted above and
        // belong to no block.
        let block = self.window_start.elapsed().as_nanos() as u64 / self.block_ns;
        if let Some(tally) = self.blocks.get_mut(block as usize) {
            tally.correct += 1;
            tally.latency_us[(settled.latency_us as usize).min(LATENCY_BUCKETS - 1)] += 1;
        }
    }
}

/// Everything one timed run measured.
#[derive(Debug, Clone)]
pub struct TimedResult {
    pub attempted: u64,
    pub failed: u64,
    /// Pool entries the screening pass removed because the protocol's own
    /// error probability made them fail.
    pub screened: usize,
    pub pool_live: usize,
    pub identity_checked: usize,
    pub sessions_per_s: BlockStat,
    pub latency_p50_us: BlockStat,
    pub latency_p99_us: BlockStat,
    pub samples_per_block: Vec<u64>,
    pub bits_per_session: f64,
    pub rounds_per_session: f64,
    pub cpu_us_per_session: f64,
    pub peak_rss_mb: f64,
    pub setups_s: Vec<f64>,
}

/// Reruns the first [`IDENTITY_SAMPLE`] live entries on the harness's own
/// executor and demands the system reported the identical cost.
fn check_identity(workload: &Workload, pool: &Pool, seen: &[Settled]) -> Result<usize, String> {
    let cache = PlanCache::new();
    let mut checked = 0;
    for settled in seen.iter().filter(|s| s.outputs_ok).take(IDENTITY_SAMPLE) {
        let reference = match &pool.entry(settled.id).case {
            Case::Pair(request) => {
                let plan = cache.get_or_prepare(workload.choice, request.spec);
                execute_prepared(&plan, &request.input_pair(), settled.coin_seed)
                    .map(|run| Report::Pair(run.report))
            }
            Case::Mesh(request) => AverageCase::new(request.spec, request.tree_rounds)
                .execute(&request.player_sets(), settled.coin_seed)
                .map(|run| Report::Mesh(run.report)),
        }
        .map_err(|e| format!("session {}: harness rerun failed: {e}", settled.id))?;
        if reference != settled.report {
            return Err(format!(
                "session {}: system reported {:?}, harness rerun {:?}",
                settled.id, settled.report, reference
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// Runs one workload's timed measurement.
///
/// # Errors
///
/// Fails — and the caller exits non-zero without printing numbers — when
/// the bit-identity sample disagrees or the screening pass loses more of
/// the pool than any catalogue protocol's error bound allows.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    blocks: usize,
) -> Result<TimedResult, String> {
    let mut pool = Pool::generate(workload, seed);

    let mut settling = System::start(workload);
    let settle_until = Instant::now() + Duration::from_secs_f64(SETTLE_SECONDS.min(seconds / 2.0));
    settling.drive(
        &pool,
        0,
        Stop::At(settle_until),
        &mut vec![Discard; settling.threads()],
    );
    settling.shutdown();

    // Each set-up starts the system afresh and takes it through one pass
    // over the whole pool — ids base..base+P with base a multiple of P, so
    // session base+i runs entry i. The pass fills the plan cache, spawns
    // every lazily started thread and faults in the runners' buffers; the
    // last one doubles as the screening pass.
    let sessions = workload.pool as u64;
    let mut setups_s = Vec::with_capacity(MAX_SETUPS);
    let mut last = None;
    let setups_started = Instant::now();
    // A run shorter than its set-ups — the smoke profile on the slow
    // workloads — stops short of MIN_SETUPS once `seconds` are spent.
    let spent = || setups_started.elapsed().as_secs_f64();
    while setups_s.is_empty()
        || (setups_s.len() < MIN_SETUPS && spent() < seconds)
        || (setups_s.len() < MAX_SETUPS && spent() < SETUP_SECONDS.min(seconds))
    {
        if let Some((previous, _)) = last.take() {
            System::shutdown(previous);
        }
        let started = Instant::now();
        let mut system = System::start(workload);
        let mut sinks: Vec<Seen> = (0..system.threads()).map(|_| Seen::default()).collect();
        system.drive(
            &pool,
            setups_s.len() as u64 * sessions,
            Stop::Count(sessions),
            &mut sinks,
        );
        setups_s.push(started.elapsed().as_secs_f64());
        last = Some((system, sinks));
    }
    let (mut system, sinks) = last.expect("the loop runs at least once");
    let base = (setups_s.len() as u64 - 1) * sessions;
    let mut next_id = setups_s.len() as u64 * sessions;
    let mut seen: Vec<Settled> = sinks.into_iter().flat_map(|s| s.0).collect();
    seen.sort_by_key(|s| s.id);
    if seen.len() != workload.pool
        || seen
            .iter()
            .enumerate()
            .any(|(i, s)| s.id != base + i as u64)
    {
        return Err(format!(
            "screening pass lost sessions: {} of {} settled",
            seen.len(),
            workload.pool
        ));
    }
    let identity_checked = check_identity(workload, &pool, &seen)?;
    let screened = pool.screen(seen.into_iter().map(|s| (s.outputs_ok, s.report)).collect());
    // Every catalogue protocol promises error well under 1 %.
    if screened * 100 > workload.pool {
        return Err(format!(
            "{screened} of {} seeded sessions failed: beyond any protocol's error bound",
            workload.pool
        ));
    }

    let lead_in = Duration::from_secs_f64(LEAD_IN_SECONDS.min(seconds / 4.0));
    next_id += system.drive(
        &pool,
        next_id,
        Stop::At(Instant::now() + lead_in),
        &mut vec![Discard; system.threads()],
    );

    let block_ns = (seconds * 1e9 / blocks as f64) as u64;
    let window_start = Instant::now();
    let deadline = window_start + Duration::from_nanos(block_ns * blocks as u64);
    let mut tallies: Vec<Tally> = (0..system.threads())
        .map(|_| Tally::new(window_start, block_ns, blocks))
        .collect();
    let cpu_before = procfs::cpu_seconds();
    let attempted = system.drive(&pool, next_id, Stop::At(deadline), &mut tallies);
    let cpu_used = procfs::cpu_seconds() - cpu_before;
    system.shutdown();

    let (first, rest) = tallies
        .split_first_mut()
        .expect("a system has a driver thread");
    for other in rest.iter() {
        first.attempted += other.attempted;
        first.failed += other.failed;
        for (mine, theirs) in first.blocks.iter_mut().zip(&other.blocks) {
            mine.merge(theirs);
        }
    }
    if first.attempted != attempted {
        return Err(format!(
            "measured window lost sessions: {} of {attempted} settled",
            first.attempted
        ));
    }
    if first.blocks.iter().any(|b| b.correct == 0) {
        return Err(
            "a measured block settled no session: --seconds is too short for this workload".into(),
        );
    }
    let block_s = block_ns as f64 / 1e9;
    let per_block =
        |f: &dyn Fn(&BlockTally) -> f64| BlockStat::of(first.blocks.iter().map(f).collect());
    Ok(TimedResult {
        attempted,
        failed: first.failed,
        screened,
        pool_live: pool.live(),
        identity_checked,
        sessions_per_s: per_block(&|b| b.correct as f64 / block_s),
        samples_per_block: first.blocks.iter().map(|b| b.correct).collect(),
        latency_p50_us: per_block(&|b| b.percentile(0.50)),
        latency_p99_us: per_block(&|b| b.percentile(0.99)),
        bits_per_session: pool.mean_report(Report::bits),
        rounds_per_session: pool.mean_report(Report::rounds),
        // The tail drained after the deadline is in both the CPU time
        // and the session count.
        cpu_us_per_session: cpu_used * 1e6 / (attempted - first.failed).max(1) as f64,
        peak_rss_mb: procfs::peak_rss_mib(),
        setups_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_percentiles_equal_sorted_ones() {
        let mut latencies: Vec<u64> = (0..5000u64).map(|i| (i * 7919) % 1013 + 40).collect();
        let mut tally = BlockTally::new();
        for &us in &latencies {
            tally.correct += 1;
            tally.latency_us[us as usize] += 1;
        }
        for p in [0.5, 0.9, 0.99, 1.0] {
            let (counted, sorted) = (
                tally.percentile(p),
                crate::stats::percentile(&mut latencies, p),
            );
            assert!(
                counted > sorted as f64 && counted <= sorted as f64 + 1.0,
                "p = {p}: {counted} vs {sorted}"
            );
        }
        let mut both = tally.clone();
        both.merge(&tally);
        assert_eq!(both.correct, 10_000);
        assert_eq!(both.percentile(0.5), tally.percentile(0.5));
        // Three samples in one bucket: the median is the second of them,
        // two thirds of the way through the bucket.
        let mut small = BlockTally::new();
        small.correct = 3;
        small.latency_us[7] = 3;
        assert_eq!(small.percentile(0.5), 7.0 + 2.0 / 3.0);
    }
}
