//! The session scheduler: many concurrent two-party sessions on a
//! bounded pool of reusable session runners.
//!
//! # Architecture
//!
//! ```text
//! submit ──▶ [admission queue, bounded] ──▶ dispatcher ──▶ [inbox] × W ──▶ W workers
//!                 │ full? Rejected              │ gates in-flight ≤ M        │
//!                 ▼                             ▼                            ▼
//!             registry.rejected          whole sessions, FIFO      one SessionRunner each
//! ```
//!
//! The dispatcher knows which workers are idle (each finished item comes
//! back as the worker's index) and hands a session to an idle worker's
//! inbox — the one that finished last, if it is free, because it is still
//! inside its hot wait (`Receiver::recv_hot`, yielding between probes) and
//! takes the next session without a wake-up. A pair's stream blocks always
//! go to worker `pair % W`, busy or not, so they find the pair's warm
//! runner. Every worker blocks on its one inbox, and the dispatcher sleeps
//! while the pool is full: an idle engine makes no wake-ups.
//!
//! Each worker owns a long-lived [`SessionRunner`] and runs whole blocks
//! of sessions on it — Alice's halves on the worker thread, Bob's on the
//! runner's paired thread, over a channel pair that is *reset* between
//! blocks rather than rebuilt — so steady state spawns **zero threads and
//! builds zero channels per session**, a panicking protocol is contained
//! by the runner instead of poisoning the pool, and no scheduling order
//! can deadlock (both halves are paired by construction).
//!
//! # Determinism
//!
//! A runner session is built from the same primitives as a dedicated
//! [`intersect_comm::runner::run_two_party`] call — endpoint pairs with
//! identical metering, a per-session [`CoinSource`] derived from the
//! request seed, costs folded by [`intersect_comm::runner::assemble_report`]
//! — so a session
//! served by the engine is bit-for-bit identical to the same request
//! served by a dedicated `execute` call, and the deterministic half of
//! the registry is independent of worker count.

use crate::multiparty::{MultipartyRequest, MultipartySessionOutcome};
use crate::pair_context::PairContextCache;
use crate::plan_cache::PlanCache;
use crate::registry::{EngineSnapshot, EngineWatch, Registry};
use crate::request::SessionRequest;
use crate::router::{route, theory_envelope, RoutePolicy};
use crate::timeline::{SessionTimeline, TimelineStamps};
use crossbeam_channel::{bounded, unbounded, Hot, Receiver, Sender, TrySendError};
use intersect_comm::chan::{Chan, Endpoint};
use intersect_comm::coins::CoinSource;
use intersect_comm::error::ProtocolError;
use intersect_comm::net::LinkSet;
use intersect_comm::runner::{primary_error, RunConfig, SessionParts, SessionRunner, Side};
use intersect_comm::stats::{CostReport, NetworkReport};
use intersect_comm::trace::{summarize, PhaseSummary, TraceEvent, Traced};
use intersect_core::api::ProtocolChoice;
use intersect_core::prepared::{PairContext, PreparedProtocol, SessionCtx};
use intersect_core::sets::{ElementSet, InputPair};
use intersect_core::topology::PreparedTournament;
use intersect_obs as obs;
use intersect_obs::conformance::{ConformanceConfig, ConformanceMonitor, ConformanceReport};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Emits a session-lifecycle instant (`submit`, `reject`, `admit`,
/// `route`, `complete`, `fail`) attributed to a session id from a thread
/// that holds no [`obs::phase::SessionScope`], carrying the session's
/// distributed trace context so lifecycle instants stitch into the same
/// trace as the execution spans. Free when disabled.
fn lifecycle(name: &'static str, session: u64, trace: Option<obs::TraceContext>) {
    if !obs::enabled() {
        return;
    }
    obs::emit_with(|ts| obs::Event {
        ts_micros: ts,
        target: "engine",
        name: name.to_string(),
        session: Some(session),
        party: None,
        phase: String::new(),
        trace,
        kind: obs::EventKind::Instant,
    });
}

/// Stamps the session's deterministic trace context at submission when
/// the client did not supply one. Minting is a pure function of
/// `(id, seed)` — no clocks, no global counters — so tracing changes no
/// bits and a replayed or re-submitted request joins the same trace.
fn mint_trace(request: &mut SessionRequest) {
    if request.trace.is_none() {
        request.trace = Some(obs::TraceContext::mint(request.id, request.seed));
        obs::counter_add("trace_contexts_minted_total", 1);
    }
}

/// Tuning knobs for an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Worker threads in the pool (clamped to at least 2: each session
    /// needs both of its halves running to make progress).
    pub workers: usize,
    /// Admission-queue depth; a full queue rejects further submissions.
    pub queue_capacity: usize,
    /// Sessions allowed in flight at once. The dispatcher withholds new
    /// sessions beyond this, which is what lets the admission queue back
    /// up and exercise rejection.
    pub max_in_flight: usize,
    /// Protocol selection for requests without an override.
    pub policy: RoutePolicy,
    /// If set, the session with this id records a phase-by-phase bit
    /// breakdown (from Alice's perspective) into its outcome.
    pub debug_session: Option<u64>,
    /// If set, every successful session's [`CostReport`] is checked
    /// against its theory envelope (see
    /// [`theory_envelope`]); violations are tallied on the engine's
    /// [`ConformanceMonitor`] and surface through metrics, events, and
    /// the shared [`Health`](obs::Health) flag.
    pub conformance: Option<ConformanceConfig>,
    /// Capacity of the recently-finished-session ring retained for the
    /// `/sessions` endpoint (clamped to at least 1). Larger rings give
    /// live dashboards more history at a small memory cost.
    pub ring: usize,
}

impl EngineConfig {
    /// A configuration with `workers` workers, in-flight cap equal to
    /// the worker count, a 64-deep admission queue, and auto routing.
    pub fn new(workers: usize) -> Self {
        EngineConfig {
            workers,
            queue_capacity: 64,
            max_in_flight: workers,
            policy: RoutePolicy::default(),
            debug_session: None,
            conformance: None,
            ring: 64,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new(4)
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control turned the session away.
    Rejected {
        /// `true` when the admission queue was at capacity (backpressure);
        /// `false` when the engine is shutting down.
        queue_full: bool,
    },
    /// The request's parameters are infeasible.
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected { queue_full: true } => f.write_str("rejected: queue full"),
            SubmitError::Rejected { queue_full: false } => f.write_str("rejected: shutting down"),
            SubmitError::Invalid(why) => write!(f, "invalid request: {why}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The final record of one session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The request that produced this session.
    pub request: SessionRequest,
    /// The protocol the router (or an override) selected.
    pub protocol: ProtocolChoice,
    /// The instantiated protocol's display name.
    pub protocol_name: String,
    /// Alice's output, if her half succeeded.
    pub alice: Option<ElementSet>,
    /// Bob's output, if his half succeeded.
    pub bob: Option<ElementSet>,
    /// The primary failure, if any (secondary hangups are suppressed
    /// exactly as in [`run_two_party`]).
    pub error: Option<ProtocolError>,
    /// Exact communication cost, identical to what a dedicated
    /// [`run_two_party`] call would report for this session.
    pub report: CostReport,
    /// Wall-clock admission-to-outcome latency in microseconds.
    pub latency_micros: u64,
    /// The session's latency waterfall: submitted-to-settled wall clock
    /// decomposed into named segments that tile the span.
    pub timeline: SessionTimeline,
    /// Phase-by-phase bit breakdown, present only for the configured
    /// [`EngineConfig::debug_session`].
    pub trace: Option<Vec<PhaseSummary>>,
}

impl SessionOutcome {
    /// `true` iff both parties finished and agree on the intersection.
    pub fn succeeded(&self) -> bool {
        match (&self.alice, &self.bob) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }
}

/// Everything an engine run produced: the final snapshot plus every
/// session outcome, sorted by request id.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Final registry snapshot.
    pub snapshot: EngineSnapshot,
    /// One outcome per admitted two-party session.
    pub outcomes: Vec<SessionOutcome>,
    /// One outcome per admitted m-party session (see
    /// [`Engine::submit_multiparty`]), sorted by request id.
    pub multiparty: Vec<MultipartySessionOutcome>,
    /// Settled conformance tally, present iff the engine was started
    /// with [`EngineConfig::conformance`] set.
    pub conformance: Option<ConformanceReport>,
}

/// Where a block's plan and coin seeds come from: all that tells a
/// one-shot or a batch from a pair-stream block.
enum SeedSource {
    /// Each request brings its own `coin_seed()`; the plan comes from the
    /// shared [`PlanCache`], so parameter derivation happened at dispatch.
    Requests(Arc<dyn PreparedProtocol>),
    /// The next indices of this client pair's stream, with seeds and
    /// plan from the pair's [`PairContext`].
    Pair(u64, Arc<PairContext>),
}

/// The requests of one block: never empty, and a block of one owns no
/// heap. A `Vec` allocated by the submitting thread and freed by a worker
/// costs the caller of `engine-trivial-k16` 0.2 µs per session, which is
/// enough to tip that closed loop into its slow wake-up mode (DESIGN
/// §1.10).
struct Requests {
    first: SessionRequest,
    rest: Vec<SessionRequest>,
}

impl Requests {
    fn len(&self) -> usize {
        1 + self.rest.len()
    }

    fn iter(&self) -> impl Iterator<Item = &SessionRequest> {
        std::iter::once(&self.first).chain(&self.rest)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut SessionRequest> {
        std::iter::once(&mut self.first).chain(&mut self.rest)
    }
}

/// One admitted block of same-spec two-party sessions, ready to run
/// whole, back to back, on one worker's warm runner. A single
/// submission is a block of one.
struct PairTask {
    requests: Requests,
    choice: ProtocolChoice,
    source: SeedSource,
    /// Filled up to `planned_at`; the worker adds its own three stamps.
    stamps: TimelineStamps,
}

/// One admitted m-party session, ready to run whole on any worker: the
/// request plus its prepared tournament plan from the shared
/// [`PlanCache`] (which is also what its conformance envelope derives
/// from).
struct MultipartyTask {
    request: MultipartyRequest,
    plan: Arc<PreparedTournament>,
    stamps: TimelineStamps,
}

/// What the dispatcher hands to workers.
enum WorkItem {
    Pair(PairTask),
    Multiparty(MultipartyTask),
}

/// What clients hand to the admission queue, stamped with the moment of
/// submission so the dispatcher can attribute queue wait.
enum Submission {
    Pair {
        requests: Requests,
        /// The client pair whose stream this block continues, if any.
        pair: Option<u64>,
        /// The histogram that observes this block's size, if its shape
        /// has one.
        depth_metric: Option<&'static str>,
        submitted_at: Instant,
    },
    Multiparty(MultipartyRequest, Instant),
}

/// A handle for one pair's session stream, from [`Engine::open_stream`].
///
/// Carries the client-pair identity whose [`PairContext`] every
/// [`submit_stream`](Engine::submit_stream) through this handle reuses,
/// plus an engine-assigned ordinal for metrics and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId {
    /// The client-pair identity; sessions of one pair share correlated
    /// randomness and land on the same affine worker.
    pub pair: u64,
    /// Engine-assigned stream ordinal (monotone per engine).
    pub stream: u64,
}

/// The dispatcher's view of the pool.
struct PoolLoad {
    /// Items handed to each worker and not yet reported done.
    load: Vec<usize>,
    /// The worker that finished last: it is still inside its hot wait.
    recent: usize,
}

impl PoolLoad {
    fn in_flight(&self) -> usize {
        self.load.iter().sum()
    }

    fn retire(&mut self, worker: usize) {
        self.load[worker] -= 1;
        self.recent = worker;
    }

    /// A worker with nothing to do, the most recently finished first.
    fn idle(&self) -> Option<usize> {
        if self.load[self.recent] == 0 {
            return Some(self.recent);
        }
        self.load.iter().position(|&l| l == 0)
    }
}

/// Everything a worker needs besides its runner and its inbox.
struct WorkerCtx {
    registry: Arc<Registry>,
    outcome_tx: Sender<SessionOutcome>,
    mp_outcome_tx: Sender<MultipartySessionOutcome>,
    conformance: Option<(ConformanceConfig, Arc<ConformanceMonitor>)>,
    debug_session: Option<u64>,
}

/// Runs one half of a session inside the instrumentation the dedicated
/// path would give it: a session scope attributing every emission to the
/// session and party, the session's distributed trace scope (so every
/// span and message the half emits carries the trace context), the busy
/// gauge, and the half's "session" span — finished with the endpoint's
/// final stats, so the two session spans of a session sum to exactly its
/// [`CostReport`].
fn in_session_span<T>(
    slot: &Slot,
    side: Side,
    ep: &mut Endpoint,
    half: impl FnOnce(&mut Endpoint) -> T,
) -> T {
    let party = if side.is_alice() {
        obs::Party::Alice
    } else {
        obs::Party::Bob
    };
    let _scope = obs::phase::SessionScope::enter(slot.id, party);
    let _trace = slot.trace.map(obs::TraceScope::enter);
    obs::gauge_add("engine_workers_busy", 1);
    let span = obs::phase::span("engine", "session");
    let result = half(ep);
    let stats = ep.stats();
    span.finish(obs::CostDelta {
        bits_sent: stats.bits_sent,
        bits_received: stats.bits_received,
        rounds: stats.clock,
    });
    obs::gauge_add("engine_workers_busy", -1);
    result
}

/// The bookkeeping every finished session gets, two-party or m-party:
/// its lifecycle instant, the completed/failed counter, the flight
/// record, the latency and waterfall-segment observations, and its
/// in-flight slot back.
fn settle(
    id: u64,
    trace: Option<obs::TraceContext>,
    succeeded: bool,
    total_bits: u64,
    latency_micros: u64,
    timeline: &SessionTimeline,
) {
    let (event, counter, code) = if succeeded {
        (
            "complete",
            "engine_sessions_completed",
            obs::flight::CODE_COMPLETE,
        )
    } else {
        ("fail", "engine_sessions_failed", obs::flight::CODE_FAIL)
    };
    lifecycle(event, id, trace);
    obs::counter_add(counter, 1);
    obs::flight::record(code, id, total_bits, latency_micros);
    obs::observe("engine_session_latency_micros", latency_micros);
    if obs::enabled() {
        for (segment, micros) in timeline.segments() {
            obs::observe(
                &obs::metrics::labeled("engine_segment_micros", &[("segment", segment)]),
                micros,
            );
        }
    }
    obs::gauge_add("engine_in_flight", -1);
}

/// Settles one two-party session: records its outcome everywhere one is
/// accounted (registry, lifecycle events, metrics, conformance) and
/// streams it out.
fn emit_outcome(ctx: &WorkerCtx, outcome: SessionOutcome) {
    let report = outcome.report;
    let latency_micros = outcome.latency_micros;
    ctx.registry.record_outcome(
        outcome.request.id,
        &outcome.protocol_name,
        &report,
        outcome.succeeded(),
        latency_micros,
    );
    settle(
        outcome.request.id,
        outcome.request.trace,
        outcome.succeeded(),
        report.total_bits(),
        latency_micros,
        &outcome.timeline,
    );
    if outcome.succeeded() {
        // The report hook: every successful session is checked against
        // its theory envelope the moment it settles.
        if let Some((config, monitor)) = &ctx.conformance {
            let envelope = theory_envelope(
                outcome.protocol,
                &outcome.protocol_name,
                outcome.request.spec,
                Some(outcome.request.overlap as u64),
                *config,
            );
            monitor.check(&envelope, report.total_bits(), report.rounds);
        }
    }
    obs::counter_add("engine_bits_total", report.total_bits());
    obs::observe("engine_session_bits", report.total_bits());
    let _ = ctx.outcome_tx.send(outcome);
}

/// Both halves' results and the exact cost of one engine session.
type PairParts = SessionParts<ElementSet, ElementSet>;

/// What both halves of one session of a block read: built once on the
/// worker, shared with the runner's paired thread.
struct Slot {
    id: u64,
    trace: Option<obs::TraceContext>,
    /// This is the configured [`EngineConfig::debug_session`].
    traced: bool,
    inputs: InputPair,
}

/// A worker's two-party side: its reusable runner — Alice's half runs on
/// the worker thread, Bob's on the runner's paired thread — and the two
/// buffers a block fills, kept warm so a block of one allocates neither.
struct PairWorker {
    runner: SessionRunner,
    seeds: Vec<u64>,
    settled: Vec<PairParts>,
    /// The finished block's inputs, freed when the next block starts (and
    /// before it allocates its own, which then reuse the memory): nothing
    /// should stand between a block's last outcome and the dispatcher's
    /// wake-up, and the worker should not reach the job hand-off sooner
    /// than it did before PR 16 (DESIGN §1.10, *the cliff*).
    finished: Option<Arc<[Slot]>>,
}

impl PairWorker {
    /// Runs one block whole and emits an outcome per session. A block is
    /// `(seeds, first stream index, presampled artefact)`: a request-seeded
    /// block takes them from its requests, a pair-stream block from the
    /// pair's [`PairContext`], tagging each request with its stream
    /// index so its outcome is auditable by a standalone rerun. Either
    /// way session `i` is bit-identical to its (tagged) request served
    /// alone, and a failing session costs that session only.
    fn run_pair_sessions(&mut self, task: PairTask, ctx: &WorkerCtx) {
        let PairTask {
            mut requests,
            choice,
            source,
            mut stamps,
        } = task;
        stamps.started_at = Instant::now();
        self.finished = None;
        let (plan, base, presampled) = match &source {
            SeedSource::Requests(plan) => {
                // `coin_seed`, not `seed`: a stream-tagged request
                // resubmitted alone must reproduce its streamed
                // transcript bit for bit.
                self.seeds.clear();
                self.seeds.extend(requests.iter().map(|r| r.coin_seed()));
                (Arc::clone(plan), 0, None)
            }
            SeedSource::Pair(pair, pair_ctx) => {
                let (base, seeds) = pair_ctx.take_block(requests.len());
                self.seeds = seeds;
                for (i, request) in requests.iter_mut().enumerate() {
                    request.pair = Some(*pair);
                    request.stream = Some(base + i as u64);
                }
                obs::counter_add("engine_stream_sessions_total", requests.len() as u64);
                let plan = Arc::clone(pair_ctx.plan());
                let presampled = plan.presample(&self.seeds);
                (plan, base, presampled)
            }
        };
        let slots: Arc<[Slot]> = requests
            .iter()
            .map(|r| Slot {
                id: r.id,
                trace: r.trace,
                traced: ctx.debug_session == Some(r.id),
                inputs: r.input_pair(),
            })
            .collect();
        // One name per block, made before the run (it does not depend on
        // the outcome); the last session takes it, the others copy it.
        let mut name = plan.name();
        stamps.coins_ready_at = Instant::now();

        // Alice's half runs on this thread, so it can hand a traced
        // session's log out through a captured slot; Bob's half runs on
        // the runner's paired thread and owns its captures.
        let mut logs: Vec<(usize, Vec<TraceEvent>)> = Vec::new();
        let (plan_b, slots_b, presampled_b) =
            (Arc::clone(&plan), Arc::clone(&slots), presampled.clone());
        let mut settled = std::mem::take(&mut self.settled);
        let run = self.runner.run_block(
            &RunConfig::default(),
            &self.seeds,
            |i, ep: &mut Endpoint, coins: &CoinSource| {
                let (slot, sctx) = (&slots[i], SessionCtx::in_block(base, i, &presampled));
                in_session_span(slot, Side::Alice, ep, |ep| {
                    if !slot.traced {
                        return plan.execute_in(&sctx, ep, coins, Side::Alice, &slot.inputs.s);
                    }
                    let mut tr = Traced::new(ep);
                    let result =
                        plan.execute_in(&sctx, &mut tr, coins, Side::Alice, &slot.inputs.s);
                    logs.push((i, tr.into_events()));
                    result
                })
            },
            move |i, ep: &mut Endpoint, coins: &CoinSource| {
                let (slot, sctx) = (&slots_b[i], SessionCtx::in_block(base, i, &presampled_b));
                in_session_span(slot, Side::Bob, ep, |ep| {
                    plan_b.execute_in(&sctx, ep, coins, Side::Bob, &slot.inputs.t)
                })
            },
            |_, parts| settled.push(parts),
        );
        stamps.executed_at = Instant::now();

        if let Err(e) = run {
            // Runner infrastructure failure: both halves of every session
            // it did not reach share the blame and no bits were reliably
            // metered. Only a dead paired thread gets here; replace it.
            settled.resize_with(requests.len(), || SessionParts {
                alice: Err(e.clone()),
                bob: Err(e.clone()),
                report: CostReport::default(),
            });
            self.runner = SessionRunner::start();
        }
        let latency_micros = stamps.latency_micros();
        let count = requests.len();
        let requests = std::iter::once(requests.first).chain(requests.rest);
        for (i, (request, parts)) in requests.zip(settled.drain(..)).enumerate() {
            // A half that ran ahead of a failure ran twice: its last log
            // is the one that settled.
            let log = logs.iter().rfind(|(session, _)| *session == i);
            // The debug dump: bit totals per round.
            let trace =
                log.map(|(_, events)| summarize(events, |ev| format!("round {}", ev.clock)));
            let error = match (&parts.alice, &parts.bob) {
                (Ok(_), Ok(_)) => None,
                (Err(e), Ok(_)) | (Ok(_), Err(e)) => Some(e.clone()),
                (Err(ea), Err(eb)) => Some(primary_error(ea.clone(), eb.clone())),
            };
            let outcome = SessionOutcome {
                request,
                protocol: choice,
                protocol_name: if i + 1 == count {
                    std::mem::take(&mut name)
                } else {
                    name.clone()
                },
                alice: parts.alice.ok(),
                bob: parts.bob.ok(),
                error,
                report: parts.report,
                latency_micros,
                timeline: stamps.settle(),
                trace,
            };
            emit_outcome(ctx, outcome);
        }
        self.settled = settled;
        self.finished = Some(slots);
    }
}

/// Runs one whole m-party session on this worker and emits its outcome.
///
/// The worker keeps one reusable [`LinkSet`] per party count in `pool`,
/// *reset* (re-seeded, clocks zeroed) between sessions rather than
/// rebuilt — the m-party analogue of the two-party [`SessionRunner`]:
/// steady state builds zero channels per session. All `m` player halves
/// run on parallel scoped threads with pairwise links, so every
/// tournament level's matches proceed concurrently; the transcript is
/// bit-identical to a harness-only `execute` of the same request (same
/// generated inputs, same common random string, same pair-labeled coin
/// forks).
fn run_multiparty_session(
    pool: &mut HashMap<usize, LinkSet>,
    task: MultipartyTask,
    ctx: &WorkerCtx,
) {
    let MultipartyTask {
        request,
        plan,
        mut stamps,
    } = task;
    stamps.started_at = Instant::now();
    let m = request.players;
    let id = request.id;
    let choice = request.choice;
    let sets = request.player_sets();
    let links = pool
        .entry(m)
        .or_insert_with(|| LinkSet::new(m, request.seed, Duration::from_secs(30)));
    links.reset(request.seed);
    stamps.coins_ready_at = Instant::now();
    obs::gauge_add("engine_workers_busy", 1);
    let spec = request.spec;
    let tree_rounds = request.tree_rounds;
    let run = links.run(|pctx| choice.run_player(spec, tree_rounds, pctx, &sets[pctx.id()]));
    obs::gauge_add("engine_workers_busy", -1);
    stamps.executed_at = Instant::now();

    let (outputs, report, error) = match run {
        Ok(out) => (out.outputs, out.report, None),
        Err(e) => (Vec::new(), NetworkReport::default(), Some(e)),
    };
    let holder = outputs.iter().position(|o| o.intersection.is_some());
    let result = holder.and_then(|h| outputs[h].intersection.clone());
    let verdicts: Vec<Option<bool>> = outputs.iter().map(|o| o.verdict).collect();
    let envelope_bits = request.envelope_bits(&plan);
    let within_envelope = (report.max_bits_per_player() as f64) <= envelope_bits;
    let latency_micros = stamps.latency_micros();
    let outcome = MultipartySessionOutcome {
        request,
        holder,
        result,
        verdicts,
        error,
        report,
        envelope_bits,
        within_envelope,
        latency_micros,
        timeline: stamps.settle(),
    };
    let report = &outcome.report;
    ctx.registry.record_multiparty(
        id,
        choice.name(),
        m,
        report,
        outcome.succeeded(),
        latency_micros,
    );
    settle(
        id,
        None,
        outcome.succeeded(),
        report.total_bits(),
        latency_micros,
        &outcome.timeline,
    );
    obs::counter_add(
        &obs::metrics::labeled("multiparty_sessions_total", &[("m", &m.to_string())]),
        1,
    );
    obs::counter_add("multiparty_bits_total", report.total_bits());
    for (sent, received) in report.bits_sent.iter().zip(&report.bits_received) {
        obs::observe("multiparty_player_bits", sent + received);
    }
    if !outcome.within_envelope {
        obs::counter_add("multiparty_envelope_violations_total", 1);
    }
    let _ = ctx.mp_outcome_tx.send(outcome);
}

/// A running session engine. Submit requests from any thread; call
/// [`finish`](Engine::finish) to drain and collect the outcomes.
///
/// # Examples
///
/// ```
/// use intersect_core::sets::ProblemSpec;
/// use intersect_engine::{Engine, EngineConfig, SessionRequest};
///
/// let engine = Engine::start(EngineConfig::new(2));
/// for id in 0..4 {
///     let req = SessionRequest::new(id, ProblemSpec::new(1 << 16, 16), 5);
///     engine.submit(req)?;
/// }
/// let report = engine.finish();
/// assert_eq!(report.outcomes.len(), 4);
/// assert!(report.outcomes.iter().all(|o| o.succeeded()));
/// assert_eq!(report.snapshot.metrics.completed, 4);
/// # Ok::<(), intersect_engine::SubmitError>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    admit_tx: Sender<Submission>,
    outcome_rx: Receiver<SessionOutcome>,
    mp_outcome_rx: Receiver<MultipartySessionOutcome>,
    registry: Arc<Registry>,
    cache: Arc<PlanCache>,
    pair_contexts: Arc<PairContextCache>,
    streams_opened: AtomicU64,
    workers: usize,
    dispatcher: JoinHandle<()>,
    worker_handles: Vec<JoinHandle<()>>,
    monitor: Option<Arc<ConformanceMonitor>>,
}

/// Registers `# HELP` texts for every metric the engine emits, so the
/// Prometheus exposition is self-describing. No-op while no subscriber
/// is installed.
fn describe_engine_metrics() {
    for (name, help) in [
        (
            "engine_sessions_submitted",
            "Sessions admitted into the queue",
        ),
        (
            "engine_sessions_completed",
            "Sessions finished with both parties agreeing on the intersection",
        ),
        (
            "engine_sessions_failed",
            "Sessions finished with a protocol error",
        ),
        (
            "engine_sessions_rejected",
            "Sessions turned away by admission control (queue full)",
        ),
        (
            "engine_bits_total",
            "Total bits on the wire across finished sessions",
        ),
        (
            "engine_queue_depth",
            "Requests waiting in the admission queue",
        ),
        ("engine_in_flight", "Sessions currently running on the pool"),
        (
            "engine_workers_busy",
            "Worker threads currently inside a session half",
        ),
        (
            "engine_session_latency_micros",
            "Admission-to-outcome latency per session, microseconds",
        ),
        ("engine_session_bits", "Total bits on the wire per session"),
        (
            "engine_plan_cache_hits",
            "Plan-cache lookups served from a live prepared plan",
        ),
        (
            "engine_plan_cache_misses",
            "Plan-cache lookups that ran the parameter phase",
        ),
        (
            "engine_plan_cache_entries",
            "Prepared plans currently cached by (protocol, spec)",
        ),
        (
            "engine_batch_depth",
            "Sessions per admitted batch submission",
        ),
        (
            "pair_context_hits",
            "Pair-context lookups served from a live context",
        ),
        (
            "pair_context_misses",
            "Pair-context lookups that ran the offline phase",
        ),
        (
            "pair_context_entries",
            "Pair randomness contexts currently cached by (pair, protocol, spec)",
        ),
        (
            "coin_block_refills_total",
            "Pair coin-block refills: a stream outran its presampled seed block",
        ),
        (
            "engine_streams_opened_total",
            "Pair streams opened via Engine::open_stream",
        ),
        (
            "engine_stream_sessions_total",
            "Sessions served through pair streams",
        ),
        (
            "engine_stream_depth",
            "Sessions per admitted stream submission",
        ),
        (
            "conformance_checks_total",
            "Completed sessions checked against theory envelopes",
        ),
        (
            "conformance_violations_total",
            "Envelope breaches by protocol and bound (bits or rounds)",
        ),
        (
            "trace_contexts_minted_total",
            "Distributed trace contexts minted at submission (one per untagged session)",
        ),
        (
            "engine_segment_micros",
            "Per-session latency by waterfall segment (admit-queue, plan-cache, wire-wait, coin-refill, rounds-execute, drain)",
        ),
        (
            "multiparty_sessions_total",
            "Engine-hosted m-party sessions finished, labeled by party count m",
        ),
        (
            "multiparty_bits_total",
            "Total bits on the wire across engine-hosted m-party sessions",
        ),
        (
            "multiparty_player_bits",
            "Per-player bits (sent + received) per m-party session",
        ),
        (
            "multiparty_envelope_violations_total",
            "M-party sessions whose heaviest player exceeded the tournament-plan envelope",
        ),
    ] {
        obs::describe(name, help);
    }
}

impl Engine {
    /// Spawns the worker pool and dispatcher and starts admitting.
    pub fn start(config: EngineConfig) -> Engine {
        let workers = config.workers.max(2);
        let max_in_flight = config.max_in_flight.max(1);
        let (admit_tx, admit_rx) = bounded::<Submission>(config.queue_capacity.max(1));
        let (outcome_tx, outcome_rx) = unbounded::<SessionOutcome>();
        let (mp_outcome_tx, mp_outcome_rx) = unbounded::<MultipartySessionOutcome>();
        // Finished items come back as the index of the worker that ran them.
        let (done_tx, done_rx) = unbounded::<usize>();
        let registry = Arc::new(Registry::with_capacity(config.ring));
        let cache = Arc::new(PlanCache::new());
        let pair_contexts = Arc::new(PairContextCache::new());
        describe_engine_metrics();
        let monitor = config
            .conformance
            .map(|cfg| (cfg, Arc::new(ConformanceMonitor::new())));

        let (inbox_txs, inbox_rxs): (Vec<Sender<WorkItem>>, Vec<Receiver<WorkItem>>) =
            (0..workers).map(|_| unbounded::<WorkItem>()).unzip();
        let worker_handles: Vec<JoinHandle<()>> = inbox_rxs
            .into_iter()
            .enumerate()
            .map(|(index, inbox)| {
                let done_tx = done_tx.clone();
                let ctx = WorkerCtx {
                    registry: Arc::clone(&registry),
                    outcome_tx: outcome_tx.clone(),
                    mp_outcome_tx: mp_outcome_tx.clone(),
                    conformance: monitor.as_ref().map(|(cfg, m)| (*cfg, Arc::clone(m))),
                    debug_session: config.debug_session,
                };
                std::thread::spawn(move || {
                    // Each worker owns one reusable runner for its whole
                    // life: zero thread spawns per session in steady state.
                    let mut pairs = PairWorker {
                        runner: SessionRunner::start(),
                        seeds: Vec::new(),
                        settled: Vec::new(),
                        finished: None,
                    };
                    // And one reusable link mesh per party count it has
                    // hosted, reset between m-party sessions.
                    let mut link_pool: HashMap<usize, LinkSet> = HashMap::new();
                    // Hot once per item: a closed-loop caller's next session
                    // arrives within the window; an idle worker parks.
                    while let Ok(item) = inbox.recv_hot(Duration::MAX, Hot::Yield) {
                        match item {
                            WorkItem::Pair(task) => pairs.run_pair_sessions(task, &ctx),
                            WorkItem::Multiparty(task) => {
                                run_multiparty_session(&mut link_pool, task, &ctx)
                            }
                        }
                        // The dispatcher may already be gone during drain;
                        // that's fine.
                        let _ = done_tx.send(index);
                    }
                })
            })
            .collect();
        drop(done_tx);

        let dispatcher = {
            let policy = config.policy;
            let cache = Arc::clone(&cache);
            let pair_contexts = Arc::clone(&pair_contexts);
            std::thread::spawn(move || {
                let mut pool = PoolLoad {
                    load: vec![0; inbox_txs.len()],
                    recent: 0,
                };
                for submission in admit_rx.iter() {
                    done_rx.try_iter().for_each(|worker| pool.retire(worker));
                    // A stream block queues on its pair's worker; anything
                    // else needs a worker with nothing to do.
                    let affine = match &submission {
                        Submission::Pair {
                            pair: Some(pair), ..
                        } => Some(*pair as usize % inbox_txs.len()),
                        _ => None,
                    };
                    let target = loop {
                        if pool.in_flight() < max_in_flight {
                            if let Some(worker) = affine.or_else(|| pool.idle()) {
                                break worker;
                            }
                        }
                        // Parked: a session lasts longer than any window
                        // worth a core, and the core this thread would
                        // wait on is one the session's halves need.
                        match done_rx.recv() {
                            Ok(worker) => pool.retire(worker),
                            Err(_) => return, // all workers gone
                        }
                    };
                    let dispatched_at = Instant::now();
                    let item = match submission {
                        Submission::Pair {
                            requests,
                            pair,
                            depth_metric,
                            submitted_at,
                        } => {
                            for request in requests.iter() {
                                lifecycle("admit", request.id, request.trace);
                            }
                            obs::gauge_add("engine_queue_depth", -(requests.len() as i64));
                            // Admission guarantees a uniform spec and
                            // override, so the first request routes for all.
                            let first = &requests.first;
                            let choice = route(first, policy);
                            for request in requests.iter() {
                                lifecycle("route", request.id, request.trace);
                            }
                            // One lookup replaces per-session parameter
                            // derivation, or a pair's whole offline phase:
                            // a miss pays once for every later block.
                            let source = match pair {
                                None => {
                                    SeedSource::Requests(cache.get_or_prepare(choice, first.spec))
                                }
                                Some(pair) => SeedSource::Pair(
                                    pair,
                                    pair_contexts.get_or_create(pair, choice, first.spec, &cache),
                                ),
                            };
                            obs::gauge_add("engine_in_flight", requests.len() as i64);
                            if let Some(metric) = depth_metric {
                                obs::observe(metric, requests.len() as u64);
                            }
                            WorkItem::Pair(PairTask {
                                requests,
                                choice,
                                source,
                                stamps: TimelineStamps::planned(submitted_at, dispatched_at),
                            })
                        }
                        Submission::Multiparty(request, submitted_at) => {
                            lifecycle("admit", request.id, None);
                            obs::gauge_add("engine_queue_depth", -1);
                            // The tournament plan is derived once per
                            // (protocol, spec, m) shape and shared; the
                            // session's conformance envelope reads it too.
                            let plan = cache.get_or_tournament(
                                request.choice,
                                request.spec,
                                request.players,
                            );
                            lifecycle("route", request.id, None);
                            obs::gauge_add("engine_in_flight", 1);
                            WorkItem::Multiparty(MultipartyTask {
                                request,
                                plan,
                                stamps: TimelineStamps::planned(submitted_at, dispatched_at),
                            })
                        }
                    };
                    if inbox_txs[target].send(item).is_err() {
                        return;
                    }
                    pool.load[target] += 1;
                }
            })
        };

        Engine {
            admit_tx,
            outcome_rx,
            mp_outcome_rx,
            registry,
            cache,
            pair_contexts,
            streams_opened: AtomicU64::new(0),
            workers,
            dispatcher,
            worker_handles,
            monitor: monitor.map(|(_, m)| m),
        }
    }

    /// A cloneable `'static` handle for the telemetry plane: live
    /// snapshots and the recent-session ring, scrapeable from another
    /// thread while workers are still serving.
    pub fn watch(&self) -> EngineWatch {
        EngineWatch {
            registry: Arc::clone(&self.registry),
            workers: self.workers as u64,
        }
    }

    /// The engine's conformance monitor, present iff
    /// [`EngineConfig::conformance`] was set. `/healthz` keeps the
    /// monitor's [`Health`](obs::Health) handle.
    pub fn conformance_monitor(&self) -> Option<Arc<ConformanceMonitor>> {
        self.monitor.clone()
    }

    /// Validates, mints and enqueues one block of two-party sessions: the
    /// admission behind every pair submit call. `texts` are the shape's
    /// refusals of an empty and of a mixed block; `wait` blocks on a full
    /// queue instead of rejecting.
    fn admit_pair(
        &self,
        requests: impl IntoIterator<Item = SessionRequest>,
        texts: (&str, &str),
        pair: Option<u64>,
        depth_metric: Option<&'static str>,
        wait: bool,
    ) -> Result<(), SubmitError> {
        let mut requests = requests.into_iter();
        let first = requests
            .next()
            .ok_or_else(|| SubmitError::Invalid(texts.0.into()))?;
        let (spec, protocol) = (first.spec, first.protocol);
        let rest = requests.collect();
        let mut requests = Requests { first, rest };
        for request in requests.iter_mut() {
            request.validate().map_err(SubmitError::Invalid)?;
            if request.spec != spec || request.protocol != protocol {
                return Err(SubmitError::Invalid(texts.1.into()));
            }
            mint_trace(request);
        }
        let count = requests.len();
        // Who to name in the lifecycle instants below, gathered before
        // the requests move into the queue — and only if someone listens.
        let tags: Vec<(u64, Option<obs::TraceContext>)> = if obs::enabled() {
            requests.iter().map(|r| (r.id, r.trace)).collect()
        } else {
            Vec::new()
        };
        let submission = Submission::Pair {
            requests,
            pair,
            depth_metric,
            submitted_at: Instant::now(),
        };
        let sent = if wait {
            let gone = |e: crossbeam_channel::SendError<_>| TrySendError::Disconnected(e.0);
            self.admit_tx.send(submission).map_err(gone)
        } else {
            self.admit_tx.try_send(submission)
        };
        match sent {
            Ok(()) => {
                (0..count).for_each(|_| self.registry.record_submitted());
                for (id, trace) in tags {
                    lifecycle("submit", id, trace);
                }
                obs::counter_add("engine_sessions_submitted", count as u64);
                obs::gauge_add("engine_queue_depth", count as i64);
                Ok(())
            }
            Err(TrySendError::Full(Submission::Pair { requests, .. })) => {
                for request in requests.iter() {
                    self.registry.record_rejected();
                    lifecycle("reject", request.id, request.trace);
                    obs::flight::record(obs::flight::CODE_REJECT, request.id, 0, 0);
                }
                obs::counter_add("engine_sessions_rejected", count as u64);
                Err(SubmitError::Rejected { queue_full: true })
            }
            Err(_) => Err(SubmitError::Rejected { queue_full: false }),
        }
    }

    /// Non-blocking admission: rejects immediately when the queue is full.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Rejected`] with `queue_full: true` under
    /// backpressure, and [`SubmitError::Invalid`] for infeasible requests
    /// (which never reach the queue).
    pub fn try_submit(&self, request: SessionRequest) -> Result<(), SubmitError> {
        self.admit_pair([request], ("", ""), None, None, false)
    }

    /// Blocking admission: waits for queue space instead of rejecting.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for infeasible requests;
    /// [`SubmitError::Rejected`] only if the engine is shutting down.
    pub fn submit(&self, request: SessionRequest) -> Result<(), SubmitError> {
        self.admit_pair([request], ("", ""), None, None, true)
    }

    /// Blocking batch admission: `requests.len()` same-spec sessions
    /// that will run back-to-back as one block on one worker's warm
    /// runner with a single plan-cache lookup. Each session settles as
    /// its own [`SessionOutcome`], bit-identical to the same request
    /// submitted alone; the batch occupies one in-flight slot.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] if the batch is empty, any request is
    /// infeasible, or the requests disagree on spec or protocol
    /// override; [`SubmitError::Rejected`] only on shutdown.
    pub fn submit_batch(&self, requests: Vec<SessionRequest>) -> Result<(), SubmitError> {
        let texts = (
            "empty batch",
            "batch requests must share one spec and protocol override",
        );
        self.admit_pair(requests, texts, None, Some("engine_batch_depth"), true)
    }

    /// Blocking admission of one m-party session: the engine regenerates
    /// all `m` input sets from the request, hosts the session on one
    /// worker's reusable link mesh with the `m` player halves running on
    /// parallel threads, and settles it as a
    /// [`MultipartySessionOutcome`] (collected by
    /// [`finish`](Engine::finish) into [`EngineReport::multiparty`]).
    /// The session occupies one in-flight slot and is bit-identical to
    /// the same request served by a harness-only
    /// [`execute`](intersect_multiparty::AverageCase::execute) call.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] for infeasible requests;
    /// [`SubmitError::Rejected`] only if the engine is shutting down.
    pub fn submit_multiparty(&self, request: MultipartyRequest) -> Result<(), SubmitError> {
        request.validate().map_err(SubmitError::Invalid)?;
        let id = request.id;
        self.admit_tx
            .send(Submission::Multiparty(request, Instant::now()))
            .map_err(|_| SubmitError::Rejected { queue_full: false })?;
        self.registry.record_submitted();
        lifecycle("submit", id, None);
        obs::counter_add("engine_sessions_submitted", 1);
        obs::gauge_add("engine_queue_depth", 1);
        Ok(())
    }

    /// Opens a session stream for client pair `pair`. Streams are
    /// lightweight handles: opening one allocates nothing — the pair's
    /// [`PairContext`] materializes (or is reused) when the first
    /// [`submit_stream`](Engine::submit_stream) is dispatched.
    pub fn open_stream(&self, pair: u64) -> StreamId {
        let stream = self.streams_opened.fetch_add(1, Ordering::Relaxed);
        obs::counter_add("engine_streams_opened_total", 1);
        StreamId { pair, stream }
    }

    /// Blocking stream admission: `requests.len()` same-spec sessions of
    /// one client pair, run as one block on the pair's affine worker with
    /// coin seeds drawn from the pair's [`PairContext`]. Each session settles
    /// as its own [`SessionOutcome`] whose request carries `pair`/`stream`
    /// tags, bit-identical to that tagged request submitted alone; the
    /// submission occupies one in-flight slot.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] if the submission is empty, any request
    /// is infeasible, or the requests disagree on spec or protocol
    /// override; [`SubmitError::Rejected`] only on shutdown.
    pub fn submit_stream(
        &self,
        stream: StreamId,
        requests: Vec<SessionRequest>,
    ) -> Result<(), SubmitError> {
        let texts = (
            "empty stream submission",
            "stream requests must share one spec and protocol override",
        );
        let depth = Some("engine_stream_depth");
        self.admit_pair(requests, texts, Some(stream.pair), depth, true)
    }

    /// The engine's shared plan cache: dispatch goes through it, and
    /// embedders may share it (or call
    /// [`invalidate`](PlanCache::invalidate) after reconfiguration).
    pub fn plan_cache(&self) -> Arc<PlanCache> {
        Arc::clone(&self.cache)
    }

    /// The engine's pair-context cache: streamed dispatch goes through
    /// it, and embedders may inspect hit rates or call
    /// [`invalidate`](PairContextCache::invalidate) after
    /// reconfiguration (pair streams resume from fresh contexts with
    /// unchanged coin-seed derivations).
    pub fn pair_contexts(&self) -> Arc<PairContextCache> {
        Arc::clone(&self.pair_contexts)
    }

    /// A live view of the aggregate metrics (sessions may still be in
    /// flight; use [`finish`](Engine::finish) for the settled totals).
    pub fn snapshot(&self) -> EngineSnapshot {
        self.registry.snapshot(self.workers as u64)
    }

    /// Outcomes that have already settled, in completion order. Mostly
    /// useful for streaming consumers; [`finish`](Engine::finish) returns
    /// everything sorted.
    pub fn drain_outcomes(&self) -> Vec<SessionOutcome> {
        self.outcome_rx.try_iter().collect()
    }

    /// M-party outcomes that have already settled, in completion order.
    pub fn drain_multiparty_outcomes(&self) -> Vec<MultipartySessionOutcome> {
        self.mp_outcome_rx.try_iter().collect()
    }

    /// Stops admitting, drains every in-flight session, joins the pool,
    /// and returns the settled report. Outcomes are sorted by request id.
    pub fn finish(self) -> EngineReport {
        let Engine {
            admit_tx,
            outcome_rx,
            mp_outcome_rx,
            registry,
            cache: _,
            pair_contexts: _,
            streams_opened: _,
            workers,
            dispatcher,
            worker_handles,
            monitor,
        } = self;
        drop(admit_tx);
        dispatcher.join().expect("dispatcher panicked");
        for handle in worker_handles {
            handle.join().expect("worker panicked");
        }
        let mut outcomes: Vec<SessionOutcome> = outcome_rx.try_iter().collect();
        outcomes.sort_by_key(|o| o.request.id);
        let mut multiparty: Vec<MultipartySessionOutcome> = mp_outcome_rx.try_iter().collect();
        multiparty.sort_by_key(|o| o.request.id);
        EngineReport {
            snapshot: registry.snapshot(workers as u64),
            outcomes,
            multiparty,
            conformance: monitor.map(|m| m.report()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intersect_core::api::execute;
    use intersect_core::sets::ProblemSpec;

    fn mixed_requests(count: u64) -> Vec<SessionRequest> {
        let shapes = [
            (1u64 << 16, 16u64),
            (1 << 18, 32),
            (1 << 20, 64),
            (1 << 16, 8),
        ];
        (0..count)
            .map(|id| {
                let (n, k) = shapes[(id % shapes.len() as u64) as usize];
                let mut req = SessionRequest::new(id, ProblemSpec::new(n, k), (id % k) as usize);
                req.seed = id.wrapping_mul(0x9e37_79b9) + 1;
                req
            })
            .collect()
    }

    #[test]
    fn engine_outcomes_match_dedicated_runs_bit_for_bit() {
        let engine = Engine::start(EngineConfig::new(4));
        let requests = mixed_requests(24);
        for req in &requests {
            engine.submit(req.clone()).unwrap();
        }
        let report = engine.finish();
        assert_eq!(report.outcomes.len(), 24);
        for outcome in &report.outcomes {
            let req = &outcome.request;
            let pair = req.input_pair();
            let reference = execute(
                outcome.protocol.build(req.spec).as_ref(),
                req.spec,
                &pair,
                req.seed,
            )
            .unwrap();
            assert!(outcome.succeeded(), "session {} failed", req.id);
            assert_eq!(outcome.alice.as_ref().unwrap(), &pair.ground_truth());
            assert_eq!(outcome.report, reference.report, "session {}", req.id);
        }
    }

    #[test]
    fn batch_submissions_settle_bit_identically_to_singles() {
        let spec = ProblemSpec::new(1 << 18, 32);
        let requests: Vec<SessionRequest> = (0..16)
            .map(|id| {
                let mut req = SessionRequest::new(id, spec, (id % 33) as usize);
                req.seed = id * 7 + 1;
                req
            })
            .collect();

        let engine = Engine::start(EngineConfig::new(2));
        engine.submit_batch(requests.clone()).unwrap();
        let batched = engine.finish();

        let engine = Engine::start(EngineConfig::new(2));
        for req in requests {
            engine.submit(req).unwrap();
        }
        let singles = engine.finish();

        assert_eq!(batched.outcomes.len(), 16);
        for (b, s) in batched.outcomes.iter().zip(&singles.outcomes) {
            assert!(b.succeeded(), "session {} failed in batch", b.request.id);
            assert_eq!(b.report, s.report, "session {}", b.request.id);
            assert_eq!(b.alice, s.alice, "session {}", b.request.id);
            assert_eq!(b.protocol, s.protocol, "session {}", b.request.id);
        }
        // The deterministic half of the snapshot is identical too.
        assert_eq!(batched.snapshot.metrics, singles.snapshot.metrics);
    }

    #[test]
    fn streamed_sessions_match_tagged_one_shot_reruns_bit_for_bit() {
        let spec = ProblemSpec::new(1 << 18, 32);
        let make = |id: u64| {
            let mut req = SessionRequest::new(id, spec, (id % 33) as usize);
            req.seed = id * 11 + 3;
            req
        };
        let engine = Engine::start(EngineConfig::new(2));
        let stream = engine.open_stream(0xbeef);
        engine
            .submit_stream(stream, (0..8).map(make).collect())
            .unwrap();
        engine
            .submit_stream(stream, (8..16).map(make).collect())
            .unwrap();
        let report = engine.finish();
        assert_eq!(report.outcomes.len(), 16);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            let req = &outcome.request;
            assert!(outcome.succeeded(), "session {} failed", req.id);
            // Both submissions hit one monotone stream of the pair.
            assert_eq!(req.pair, Some(0xbeef));
            assert_eq!(req.stream, Some(i as u64));
            // The tagged request reproduces its streamed transcript in a
            // dedicated run: inputs from `seed`, coins from `coin_seed`.
            let pair = req.input_pair();
            let reference = execute(
                outcome.protocol.build(spec).as_ref(),
                spec,
                &pair,
                req.coin_seed(),
            )
            .unwrap();
            assert_eq!(outcome.alice.as_ref().unwrap(), &pair.ground_truth());
            assert_eq!(outcome.report, reference.report, "session {}", req.id);
        }
    }

    #[test]
    fn stream_tagged_singles_reuse_the_streamed_coin_seed() {
        // A streamed session resubmitted alone (tags intact) must settle
        // with the identical transcript — the audit path for streams.
        let spec = ProblemSpec::new(1 << 18, 32);
        let req = SessionRequest::new(5, spec, 9).in_stream(0xbeef, 5);

        let engine = Engine::start(EngineConfig::new(2));
        let stream = engine.open_stream(0xbeef);
        let batch: Vec<SessionRequest> =
            (0..6).map(|id| SessionRequest::new(id, spec, 9)).collect();
        engine.submit_stream(stream, batch).unwrap();
        let streamed = engine.finish();

        let engine = Engine::start(EngineConfig::new(2));
        engine.submit(req).unwrap();
        let single = engine.finish();

        let s = &streamed.outcomes[5];
        let o = &single.outcomes[0];
        assert_eq!(s.request, o.request);
        assert_eq!(s.report, o.report);
        assert_eq!(s.alice, o.alice);
    }

    #[test]
    fn pair_contexts_are_cached_across_stream_submissions() {
        let spec = ProblemSpec::new(1 << 18, 32);
        let engine = Engine::start(EngineConfig::new(2));
        let contexts = engine.pair_contexts();
        let stream = engine.open_stream(1);
        for round in 0..3 {
            let batch: Vec<SessionRequest> = (round * 4..round * 4 + 4)
                .map(|id| SessionRequest::new(id, spec, 4))
                .collect();
            engine.submit_stream(stream, batch).unwrap();
        }
        let other = engine.open_stream(2);
        engine
            .submit_stream(other, vec![SessionRequest::new(100, spec, 4)])
            .unwrap();
        let report = engine.finish();
        assert_eq!(report.outcomes.len(), 13);
        assert!(report.outcomes.iter().all(|o| o.succeeded()));
        let stats = contexts.stats();
        // One offline phase per pair; later submissions hit.
        assert_eq!(stats.misses, 2, "{stats:?}");
        assert_eq!(stats.hits, 2, "{stats:?}");
        assert_eq!(stats.entries, 2, "{stats:?}");
    }

    #[test]
    fn mixed_spec_stream_submissions_are_rejected_as_invalid() {
        let engine = Engine::start(EngineConfig::new(2));
        let stream = engine.open_stream(7);
        let batch = vec![
            SessionRequest::new(0, ProblemSpec::new(1 << 16, 16), 4),
            SessionRequest::new(1, ProblemSpec::new(1 << 18, 16), 4),
        ];
        assert!(matches!(
            engine.submit_stream(stream, batch),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            engine.submit_stream(stream, Vec::new()),
            Err(SubmitError::Invalid(_))
        ));
        let report = engine.finish();
        assert_eq!(report.snapshot.metrics.submitted, 0);
    }

    #[test]
    fn mixed_spec_batches_are_rejected_as_invalid() {
        let engine = Engine::start(EngineConfig::new(2));
        let batch = vec![
            SessionRequest::new(0, ProblemSpec::new(1 << 16, 16), 4),
            SessionRequest::new(1, ProblemSpec::new(1 << 18, 16), 4),
        ];
        assert!(matches!(
            engine.submit_batch(batch),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            engine.submit_batch(Vec::new()),
            Err(SubmitError::Invalid(_))
        ));
        let report = engine.finish();
        assert_eq!(report.snapshot.metrics.submitted, 0);
    }

    #[test]
    fn plan_cache_is_shared_across_sessions() {
        let engine = Engine::start(EngineConfig::new(2));
        let cache = engine.plan_cache();
        for req in mixed_requests(16) {
            engine.submit(req).unwrap();
        }
        let report = engine.finish();
        assert_eq!(report.outcomes.len(), 16);
        let stats = cache.stats();
        // 16 sessions over 4 workload shapes: one parameter derivation
        // per shape, everything else a hit.
        assert_eq!(stats.hits + stats.misses, 16);
        assert_eq!(stats.misses, 4, "{stats:?}");
        assert_eq!(stats.entries, 4, "{stats:?}");
    }

    #[test]
    fn backpressure_rejects_when_queue_and_pool_are_full() {
        // Two workers serve exactly one session at a time; the queue holds
        // one more. A burst must therefore overflow into rejections.
        let mut config = EngineConfig::new(2);
        config.max_in_flight = 1;
        config.queue_capacity = 1;
        let engine = Engine::start(config);
        let mut rejected = 0;
        let mut admitted = 0;
        for req in mixed_requests(64) {
            match engine.try_submit(req) {
                Ok(()) => admitted += 1,
                Err(SubmitError::Rejected { queue_full }) => {
                    assert!(queue_full);
                    rejected += 1;
                }
                Err(other) => panic!("unexpected: {other}"),
            }
        }
        assert!(
            rejected > 0,
            "burst of 64 into a depth-1 queue never rejected"
        );
        let report = engine.finish();
        assert_eq!(report.snapshot.metrics.rejected, rejected);
        assert_eq!(report.snapshot.metrics.submitted, admitted);
        assert_eq!(report.outcomes.len() as u64, admitted);
        assert!(report.outcomes.iter().all(|o| o.succeeded()));
    }

    #[test]
    fn invalid_requests_never_reach_the_queue() {
        let engine = Engine::start(EngineConfig::new(2));
        let mut bad = SessionRequest::new(0, ProblemSpec::new(1 << 16, 16), 0);
        bad.size = 17; // exceeds k
        assert!(matches!(
            engine.try_submit(bad),
            Err(SubmitError::Invalid(_))
        ));
        let report = engine.finish();
        assert_eq!(report.snapshot.metrics.submitted, 0);
        assert_eq!(report.snapshot.metrics.rejected, 0);
    }

    #[test]
    fn debug_session_records_a_phase_breakdown() {
        let mut config = EngineConfig::new(2);
        config.debug_session = Some(7);
        let check = |report: &EngineReport| {
            let mut flagged = None;
            for outcome in &report.outcomes {
                if outcome.request.id == 7 {
                    let trace = outcome.trace.clone().expect("flagged session traced");
                    assert!(!trace.is_empty());
                    let traced_bits: u64 =
                        trace.iter().map(|p| p.bits_sent + p.bits_received).sum();
                    assert_eq!(traced_bits, outcome.report.total_bits());
                    flagged = Some(trace);
                } else {
                    assert!(outcome.trace.is_none(), "only the flagged session traces");
                }
            }
            flagged.expect("session 7 settled")
        };
        let engine = Engine::start(config);
        for req in mixed_requests(9) {
            engine.submit(req).unwrap();
        }
        check(&engine.finish());

        // The flag follows the id into a block, whichever call submitted
        // it: same session (a deterministic protocol, so the pair-stream
        // coin seed changes nothing), same per-round summary.
        let spec = ProblemSpec::new(1 << 16, 16);
        let requests: Vec<SessionRequest> = (0..9)
            .map(|id| {
                let mut req = SessionRequest::new(id, spec, id as usize);
                req.protocol = Some(ProtocolChoice::Trivial);
                req
            })
            .collect();
        type Submit<'a> = &'a dyn Fn(&Engine, Vec<SessionRequest>);
        let submits: [Submit; 3] = [
            &|engine, requests| requests.into_iter().for_each(|r| engine.submit(r).unwrap()),
            &|engine, requests| engine.submit_batch(requests).unwrap(),
            &|engine, requests| {
                let stream = engine.open_stream(3);
                engine.submit_stream(stream, requests).unwrap()
            },
        ];
        let traces = submits.map(|submit| {
            let engine = Engine::start(config);
            submit(&engine, requests.clone());
            check(&engine.finish())
        });
        assert_eq!(traces[0], traces[1], "single vs batch");
        assert_eq!(traces[0], traces[2], "single vs stream");
    }

    /// `inner`, except that Bob refuses the one input `refused`.
    #[derive(Debug)]
    struct RefusesOne {
        inner: Arc<dyn PreparedProtocol>,
        refused: ElementSet,
    }

    impl PreparedProtocol for RefusesOne {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn spec(&self) -> ProblemSpec {
            self.inner.spec()
        }

        fn execute(
            &self,
            chan: &mut dyn Chan,
            coins: &CoinSource,
            side: Side,
            input: &ElementSet,
        ) -> Result<ElementSet, ProtocolError> {
            if side == Side::Bob && *input == self.refused {
                return Err(ProtocolError::InvalidInput("refused".into()));
            }
            self.inner.execute(chan, coins, side, input)
        }
    }

    #[test]
    fn a_failing_slot_costs_that_slot_only_in_either_block_shape() {
        // No catalogue protocol fails on a request that passes admission,
        // so the failing plan goes in where `submit_batch` and
        // `submit_stream` meet: the one body both dispatch to.
        use intersect_core::prepared::execute_prepared;
        let spec = ProblemSpec::new(1 << 18, 32);
        let choice = ProtocolChoice::Sqrt;
        let requests: Vec<SessionRequest> = (0..6)
            .map(|id| {
                let mut req = SessionRequest::new(id, spec, (id * 5) as usize);
                req.seed = id * 13 + 2;
                req
            })
            .collect();
        let inner = choice.build(spec).prepare(spec);
        let plan: Arc<dyn PreparedProtocol> = Arc::new(RefusesOne {
            inner: Arc::clone(&inner),
            refused: requests[2].input_pair().t,
        });
        let sources = [
            SeedSource::Requests(Arc::clone(&plan)),
            SeedSource::Pair(9, Arc::new(PairContext::new(plan, 9))),
        ];
        for source in sources {
            let (outcome_tx, outcome_rx) = unbounded();
            let ctx = WorkerCtx {
                registry: Arc::new(Registry::with_capacity(8)),
                outcome_tx,
                mp_outcome_tx: unbounded().0,
                conformance: None,
                debug_session: None,
            };
            let mut worker = PairWorker {
                runner: SessionRunner::start(),
                seeds: Vec::new(),
                settled: Vec::new(),
                finished: None,
            };
            let task = PairTask {
                requests: Requests {
                    first: requests[0].clone(),
                    rest: requests[1..].to_vec(),
                },
                choice,
                source,
                stamps: TimelineStamps::planned(Instant::now(), Instant::now()),
            };
            worker.run_pair_sessions(task, &ctx);
            let outcomes: Vec<SessionOutcome> = outcome_rx.try_iter().collect();
            assert_eq!(outcomes.len(), requests.len());
            for (i, outcome) in outcomes.iter().enumerate() {
                let req = &outcome.request;
                assert_eq!(req.id, i as u64, "outcomes settle in block order");
                if i == 2 {
                    let refused = ProtocolError::InvalidInput("refused".into());
                    assert_eq!(outcome.error, Some(refused));
                    continue;
                }
                let solo = execute_prepared(&inner, &req.input_pair(), req.coin_seed()).unwrap();
                assert_eq!(outcome.error, None, "session {i}");
                assert_eq!(outcome.report, solo.report, "session {i}");
                assert_eq!(outcome.alice.as_ref(), Some(&solo.alice), "session {i}");
                assert_eq!(outcome.bob.as_ref(), Some(&solo.bob), "session {i}");
            }
            assert!(!worker.runner.is_broken());
        }
    }

    #[test]
    fn conformance_hook_checks_every_completed_session() {
        let mut config = EngineConfig::new(2);
        config.conformance = Some(ConformanceConfig::default());
        let engine = Engine::start(config);
        let monitor = engine.conformance_monitor().expect("monitor configured");
        assert!(monitor.health().ok());
        for req in mixed_requests(12) {
            engine.submit(req).unwrap();
        }
        let report = engine.finish();
        let conf = report.conformance.expect("conformance tally present");
        assert_eq!(conf.checked, 12);
        assert!(
            conf.all_conformant(),
            "default slack must pass honest sessions: {:?}",
            conf.violations
        );
        assert!(monitor.health().ok());
    }

    #[test]
    fn zero_slack_flags_every_session_and_degrades_health() {
        let mut config = EngineConfig::new(2);
        config.conformance = Some(ConformanceConfig::with_slack(0.0));
        let engine = Engine::start(config);
        let health = engine.conformance_monitor().unwrap().health();
        for req in mixed_requests(4) {
            engine.submit(req).unwrap();
        }
        let report = engine.finish();
        let conf = report.conformance.unwrap();
        assert_eq!(conf.checked, 4);
        assert!(conf.violation_count > 0);
        assert!(!health.ok());
    }

    #[test]
    fn outcomes_carry_minted_traces_and_tiled_timelines() {
        let engine = Engine::start(EngineConfig::new(2));
        for req in mixed_requests(6) {
            engine.submit(req).unwrap();
        }
        let report = engine.finish();
        assert_eq!(report.outcomes.len(), 6);
        for outcome in &report.outcomes {
            // Minting is a pure function of (id, seed): the outcome's
            // trace context is reproducible from the request alone.
            let trace = outcome.request.trace.expect("trace minted at submission");
            assert_eq!(
                trace,
                obs::TraceContext::mint(outcome.request.id, outcome.request.seed),
                "session {}",
                outcome.request.id
            );
            // The waterfall tiles the submitted-to-settled span: the
            // rounds dominate, and the segment sum covers the whole
            // admission-to-outcome latency up to per-segment truncation.
            let t = &outcome.timeline;
            let sum: u64 = t.segments().iter().map(|(_, micros)| micros).sum();
            assert_eq!(sum, t.total_micros());
            assert!(
                t.rounds_execute_micros > 0,
                "session {} executed in 0µs",
                outcome.request.id
            );
            assert!(
                t.total_micros() + 6 >= outcome.latency_micros,
                "session {}: waterfall {}µs < latency {}µs",
                outcome.request.id,
                t.total_micros(),
                outcome.latency_micros
            );
        }
    }

    #[test]
    fn client_supplied_trace_contexts_are_preserved() {
        let spec = ProblemSpec::new(1 << 16, 16);
        let mut req = SessionRequest::new(3, spec, 4);
        let supplied = obs::TraceContext::mint(999, 7);
        req.trace = Some(supplied);
        let engine = Engine::start(EngineConfig::new(2));
        engine.submit(req).unwrap();
        let report = engine.finish();
        assert_eq!(report.outcomes[0].request.trace, Some(supplied));
    }

    #[test]
    fn ring_capacity_reaches_the_watch_and_sessions_doc() {
        let mut config = EngineConfig::new(2);
        config.ring = 4;
        let engine = Engine::start(config);
        let watch = engine.watch();
        for req in mixed_requests(10) {
            engine.submit(req).unwrap();
        }
        engine.finish();
        assert_eq!(watch.ring(), 4);
        assert_eq!(watch.recent_sessions().len(), 4);
        assert!(watch.sessions_json().contains("\"ring\": 4"));
    }

    #[test]
    fn watch_stays_valid_across_finish() {
        let engine = Engine::start(EngineConfig::new(2));
        let watch = engine.watch();
        for req in mixed_requests(3) {
            engine.submit(req).unwrap();
        }
        let report = engine.finish();
        let snap = watch.snapshot();
        assert_eq!(snap, report.snapshot);
        assert_eq!(watch.recent_sessions().len(), 3);
    }

    #[test]
    fn multiparty_sessions_match_harness_execute_bit_for_bit() {
        use intersect_multiparty::choice::MultipartyChoice;
        use intersect_multiparty::{AverageCase, MultipartyDisjointness, WorstCase};

        let spec = ProblemSpec::new(1 << 16, 16);
        let engine = Engine::start(EngineConfig::new(2));
        let mut id = 0u64;
        let mut expected = Vec::new();
        for choice in MultipartyChoice::ALL {
            for m in [2usize, 4, 8] {
                let mut req = MultipartyRequest::new(id, spec, m, 3, choice);
                req.seed = id * 31 + 7;
                expected.push(req.clone());
                engine.submit_multiparty(req).unwrap();
                id += 1;
            }
        }
        let report = engine.finish();
        assert_eq!(report.multiparty.len(), expected.len());
        assert_eq!(report.snapshot.metrics.completed, expected.len() as u64);
        assert_eq!(report.snapshot.metrics.multiparty_sessions[&4], 3);
        for (outcome, req) in report.multiparty.iter().zip(&expected) {
            assert!(outcome.succeeded(), "session {} failed", req.id);
            assert!(
                outcome.within_envelope,
                "session {}: {} bits/player > envelope {}",
                req.id,
                outcome.report.max_bits_per_player(),
                outcome.envelope_bits
            );
            let sets = req.player_sets();
            let truth = req.ground_truth();
            match req.choice {
                MultipartyChoice::AverageCase => {
                    let reference = AverageCase::new(spec, req.tree_rounds)
                        .execute(&sets, req.seed)
                        .unwrap();
                    assert_eq!(outcome.report, reference.report, "session {}", req.id);
                    assert_eq!(outcome.result.as_ref(), Some(&reference.result));
                    assert_eq!(outcome.result.as_ref(), Some(&truth));
                }
                MultipartyChoice::WorstCase => {
                    let reference = WorstCase::new(spec, req.tree_rounds)
                        .execute(&sets, req.seed)
                        .unwrap();
                    assert_eq!(outcome.report, reference.report, "session {}", req.id);
                    assert_eq!(outcome.result.as_ref(), Some(&reference.result));
                    assert_eq!(outcome.result.as_ref(), Some(&truth));
                }
                MultipartyChoice::Disjointness => {
                    let reference = MultipartyDisjointness::new(spec, req.tree_rounds)
                        .execute(&sets, req.seed)
                        .unwrap();
                    assert_eq!(outcome.report, reference.report, "session {}", req.id);
                    assert_eq!(reference.disjoint, truth.is_empty());
                    assert!(outcome
                        .verdicts
                        .iter()
                        .all(|v| *v == Some(reference.disjoint)));
                }
            }
        }
    }

    #[test]
    fn multiparty_plans_are_cached_and_pair_path_is_undisturbed() {
        use intersect_multiparty::choice::MultipartyChoice;

        let spec = ProblemSpec::new(1 << 16, 16);
        let engine = Engine::start(EngineConfig::new(2));
        let cache = engine.plan_cache();
        for id in 0..6 {
            engine
                .submit_multiparty(MultipartyRequest::new(
                    id,
                    spec,
                    4,
                    2,
                    MultipartyChoice::AverageCase,
                ))
                .unwrap();
        }
        // Interleave two-party work: both worlds share one engine.
        for req in mixed_requests(8) {
            engine.submit(req.clone()).unwrap();
        }
        let report = engine.finish();
        assert_eq!(report.multiparty.len(), 6);
        assert_eq!(report.outcomes.len(), 8);
        assert!(report.multiparty.iter().all(|o| o.succeeded()));
        assert!(report.outcomes.iter().all(|o| o.succeeded()));
        assert_eq!(report.snapshot.metrics.completed, 14);
        let stats = cache.stats();
        // 6 same-shape tournament lookups -> 1 miss; 8 two-party
        // sessions over 4 shapes -> 4 misses.
        assert_eq!(stats.misses, 5, "{stats:?}");
        assert_eq!(stats.hits, 9, "{stats:?}");
        assert_eq!(stats.entries, 5, "{stats:?}");
        // The m-party timeline tiles the same six segments.
        for outcome in &report.multiparty {
            let t = &outcome.timeline;
            let sum: u64 = t.segments().iter().map(|(_, micros)| micros).sum();
            assert_eq!(sum, t.total_micros());
            assert!(t.rounds_execute_micros > 0);
        }
    }

    #[test]
    fn invalid_multiparty_requests_never_reach_the_queue() {
        use intersect_multiparty::choice::MultipartyChoice;

        let engine = Engine::start(EngineConfig::new(2));
        let spec = ProblemSpec::new(1 << 16, 16);
        let zero = MultipartyRequest::new(0, spec, 0, 2, MultipartyChoice::AverageCase);
        assert!(matches!(
            engine.submit_multiparty(zero),
            Err(SubmitError::Invalid(_))
        ));
        let overfull = MultipartyRequest::new(0, spec, 4, 17, MultipartyChoice::AverageCase);
        assert!(matches!(
            engine.submit_multiparty(overfull),
            Err(SubmitError::Invalid(_))
        ));
        let report = engine.finish();
        assert_eq!(report.snapshot.metrics.submitted, 0);
        assert!(report.multiparty.is_empty());
    }

    #[test]
    fn fixed_policy_and_overrides_reach_the_outcomes() {
        let mut config = EngineConfig::new(2);
        config.policy = RoutePolicy::Fixed(ProtocolChoice::Trivial);
        let engine = Engine::start(config);
        let spec = ProblemSpec::new(1 << 16, 16);
        engine.submit(SessionRequest::new(0, spec, 4)).unwrap();
        let mut pinned = SessionRequest::new(1, spec, 4);
        pinned.protocol = Some(ProtocolChoice::Sqrt);
        engine.submit(pinned).unwrap();
        let report = engine.finish();
        assert_eq!(report.outcomes[0].protocol, ProtocolChoice::Trivial);
        assert_eq!(report.outcomes[1].protocol, ProtocolChoice::Sqrt);
        assert_eq!(report.snapshot.metrics.per_protocol.len(), 2);
    }
}
