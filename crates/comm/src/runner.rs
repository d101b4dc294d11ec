//! Executes two-party protocols and collects their cost.
//!
//! Two execution strategies produce bit-for-bit identical results:
//!
//! * [`run_two_party`] — the simple dedicated API: spawns a scoped
//!   thread for Bob, builds a fresh channel pair, and tears everything
//!   down when the session ends.
//! * [`SessionRunner`] — the amortized API: one long-lived paired
//!   thread and one reusable channel pair serve any number of sessions
//!   back to back, with no thread spawn and no channel construction per
//!   session. This is what the engine's worker pool uses.

use crate::chan::{Chan, Endpoint};
use crate::coins::CoinSource;
use crate::error::ProtocolError;
use crate::stats::{ChannelStats, CostReport};
use crossbeam_channel::{Hot, Receiver, Sender};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;
use std::time::Duration;

/// Which side of a two-party protocol a piece of code is playing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The first player (holds `S`).
    Alice,
    /// The second player (holds `T`).
    Bob,
}

impl Side {
    /// The other side.
    pub fn peer(self) -> Side {
        match self {
            Side::Alice => Side::Bob,
            Side::Bob => Side::Alice,
        }
    }

    /// A stable label for coin forking.
    pub fn label(self) -> &'static str {
        match self {
            Side::Alice => "alice",
            Side::Bob => "bob",
        }
    }

    /// `true` for [`Side::Alice`].
    pub fn is_alice(self) -> bool {
        matches!(self, Side::Alice)
    }
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration for a two-party run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed of the common random string.
    pub seed: u64,
    /// Abort the protocol if total communication exceeds this many bits.
    pub bit_budget: Option<u64>,
    /// How long a blocked receive may wait before failing the run.
    pub timeout: Duration,
}

impl RunConfig {
    /// A configuration with the given shared-randomness seed, no budget,
    /// and a 30-second receive timeout.
    pub fn with_seed(seed: u64) -> Self {
        RunConfig {
            seed,
            bit_budget: None,
            timeout: Duration::from_secs(30),
        }
    }

    /// Sets the communication budget in bits.
    pub fn bit_budget(mut self, bits: u64) -> Self {
        self.bit_budget = Some(bits);
        self
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::with_seed(0)
    }
}

/// Builds the substrate of one two-party session: a connected endpoint
/// pair and the common random string, from one configuration.
///
/// This is the single place where a session's transport and randomness
/// are constructed. [`run_two_party`] uses it, and so does any harness
/// that schedules the two halves itself (e.g. a worker pool running many
/// sessions concurrently): going through the same constructor guarantees
/// that a scheduled session is bit-for-bit identical to a dedicated
/// [`run_two_party`] call with the same config.
///
/// # Examples
///
/// ```
/// use intersect_comm::runner::{linked_pair, RunConfig};
/// use intersect_comm::chan::Chan;
/// use intersect_comm::bits::BitBuf;
///
/// let (mut a, mut b, coins) = linked_pair(&RunConfig::with_seed(9));
/// let mut m = BitBuf::new();
/// m.push_bits(0b110, 3);
/// a.send(m)?;
/// assert_eq!(b.recv()?.len(), 3);
/// assert_eq!(coins, intersect_comm::coins::CoinSource::from_seed(9));
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
pub fn linked_pair(cfg: &RunConfig) -> (Endpoint, Endpoint, CoinSource) {
    let (ep_a, ep_b) = Endpoint::pair(cfg.bit_budget, cfg.timeout);
    (ep_a, ep_b, CoinSource::from_seed(cfg.seed))
}

/// Assembles the cost of one two-party run from the two endpoints' final
/// counters, exactly as [`run_two_party`] reports it.
pub fn assemble_report(
    stats_alice: crate::stats::ChannelStats,
    stats_bob: crate::stats::ChannelStats,
) -> CostReport {
    CostReport {
        bits_alice: stats_alice.bits_sent,
        bits_bob: stats_bob.bits_sent,
        messages: stats_alice.messages_sent + stats_bob.messages_sent,
        rounds: stats_alice.clock.max(stats_bob.clock),
    }
}

/// The result of a successful two-party run.
#[derive(Debug, Clone)]
pub struct RunOutcome<A, B> {
    /// Alice's return value.
    pub alice: A,
    /// Bob's return value.
    pub bob: B,
    /// Exact communication cost of the run.
    pub report: CostReport,
}

/// Runs a two-party protocol: `alice` and `bob` execute concurrently,
/// connected by a bit-metered channel and sharing a common random string.
///
/// Returns both parties' outputs and the exact [`CostReport`].
///
/// # Errors
///
/// If either party returns an error the run fails. When one party's failure
/// causes the other to observe a closed channel, the original failure is
/// reported rather than the secondary [`ProtocolError::ChannelClosed`].
/// A party that *panics* is contained: the panic surfaces as
/// [`ProtocolError::Internal`] instead of aborting the caller.
///
/// # Examples
///
/// ```
/// use intersect_comm::runner::{run_two_party, RunConfig};
/// use intersect_comm::chan::Chan;
/// use intersect_comm::bits::BitBuf;
///
/// let out = run_two_party(
///     &RunConfig::with_seed(7),
///     |chan, _coins| {
///         let mut m = BitBuf::new();
///         m.push_bits(0b1010, 4);
///         chan.send(m)?;
///         Ok(chan.recv()?.len())
///     },
///     |chan, _coins| {
///         let got = chan.recv()?;
///         chan.send(got.clone())?;
///         Ok(got.len())
///     },
/// )?;
/// assert_eq!(out.alice, 4);
/// assert_eq!(out.bob, 4);
/// assert_eq!(out.report.total_bits(), 8);
/// assert_eq!(out.report.rounds, 2);
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
pub fn run_two_party<FA, FB, A, B>(
    cfg: &RunConfig,
    alice: FA,
    bob: FB,
) -> Result<RunOutcome<A, B>, ProtocolError>
where
    FA: FnOnce(&mut Endpoint, &CoinSource) -> Result<A, ProtocolError> + Send,
    FB: FnOnce(&mut Endpoint, &CoinSource) -> Result<B, ProtocolError> + Send,
    A: Send,
    B: Send,
{
    let (mut ep_a, mut ep_b, coins) = linked_pair(cfg);
    let coins_b = coins.clone();

    let (res_a, res_b, stats_a, stats_b) = std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let _pool = ep_b.pool().clone().install();
            let r = contain(
                Side::Bob,
                catch_unwind(AssertUnwindSafe(|| bob(&mut ep_b, &coins_b))),
            );
            (r, ep_b.stats())
        });
        let _pool = ep_a.pool().clone().install();
        let res_a = contain(
            Side::Alice,
            catch_unwind(AssertUnwindSafe(|| alice(&mut ep_a, &coins))),
        );
        let stats_a = ep_a.stats();
        // Drop Alice's endpoint so a blocked Bob sees a hangup rather than a
        // timeout if Alice failed early.
        drop(ep_a);
        let (res_b, stats_b) = handle.join().unwrap_or_else(|payload| {
            // Unreachable in practice (the closure catches unwinds), but a
            // panic outside the guard must not take the caller down.
            (
                Err(contained_error(Side::Bob, payload)),
                ChannelStats::default(),
            )
        });
        (res_a, res_b, stats_a, stats_b)
    });

    SessionParts {
        alice: res_a,
        bob: res_b,
        report: assemble_report(stats_a, stats_b),
    }
    .collapse()
}

/// The tie-break [`run_two_party`] applies when both halves fail: the
/// root cause beats a secondary hangup/timeout on the other side; on
/// equal footing Alice's error wins.
pub fn primary_error(ea: ProtocolError, eb: ProtocolError) -> ProtocolError {
    let secondary =
        |e: &ProtocolError| matches!(e, ProtocolError::ChannelClosed | ProtocolError::Timeout);
    if secondary(&ea) && !secondary(&eb) {
        eb
    } else {
        ea
    }
}

/// Renders a caught panic payload as the contained [`ProtocolError`].
fn contained_error(side: Side, payload: Box<dyn Any + Send>) -> ProtocolError {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        *s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    };
    ProtocolError::Internal(format!("{side} panicked: {msg}"))
}

/// Recovers Bob's concrete result from the worker's type-erased report.
fn downcast_bob<B: 'static>(
    res: Result<Box<dyn Any + Send>, ProtocolError>,
) -> Result<B, ProtocolError> {
    res.map(|b| {
        *b.downcast::<B>()
            .expect("bob's type-erased result matches FB's return type")
    })
}

/// Collapses a [`catch_unwind`] result: a panicking protocol half
/// becomes an ordinary [`ProtocolError::Internal`] failure.
fn contain<T>(
    side: Side,
    caught: Result<Result<T, ProtocolError>, Box<dyn Any + Send>>,
) -> Result<T, ProtocolError> {
    match caught {
        Ok(r) => r,
        Err(payload) => Err(contained_error(side, payload)),
    }
}

/// Both halves' individual results plus the session's exact cost —
/// what [`SessionRunner::run_parts`] returns. Unlike the collapsed
/// [`RunOutcome`], a caller can see that one half succeeded while the
/// other failed.
#[derive(Debug)]
pub struct SessionParts<A, B> {
    /// Alice's result.
    pub alice: Result<A, ProtocolError>,
    /// Bob's result.
    pub bob: Result<B, ProtocolError>,
    /// Exact communication cost, identical to [`run_two_party`]'s.
    pub report: CostReport,
}

impl<A, B> SessionParts<A, B> {
    /// Collapses the two halves into [`run_two_party`]'s contract: both
    /// succeed or the run fails, with [`primary_error`] breaking a
    /// double failure. This is the single tie-break site shared by
    /// every execution path.
    pub fn collapse(self) -> Result<RunOutcome<A, B>, ProtocolError> {
        match (self.alice, self.bob) {
            (Ok(alice), Ok(bob)) => Ok(RunOutcome {
                alice,
                bob,
                report: self.report,
            }),
            (Err(e), Ok(_)) | (Ok(_), Err(e)) => Err(e),
            (Err(ea), Err(eb)) => Err(primary_error(ea, eb)),
        }
    }
}

/// Bob's half, type-erased so one worker thread can serve sessions of
/// any result type.
type BobFn = Box<
    dyn FnOnce(&mut Endpoint, &CoinSource) -> Result<Box<dyn Any + Send>, ProtocolError> + Send,
>;

/// Bob's halves for a batch. The first argument is the session's index
/// within its batch.
type BatchBobFn = Box<
    dyn FnMut(usize, &mut Endpoint, &CoinSource) -> Result<Box<dyn Any + Send>, ProtocolError>
        + Send,
>;

/// What one job asks the worker thread to run.
///
/// `Single` is kept distinct from a one-element `Batch` deliberately:
/// the single-session hot path stays free of per-session heap
/// allocations (no coin vector, no result vector — a zero-sized Bob
/// closure boxes for free), which the steady-state no-alloc test pins.
enum JobKind {
    /// One session: Bob's half and its coin source.
    Single(CoinSource, BobFn),
    /// Back-to-back sessions separated by fin rendezvous, one coin
    /// source each.
    Batch(Vec<CoinSource>, BatchBobFn),
    /// Pipelined sessions with **no** per-session rendezvous: counters
    /// rearm between sessions but neither side waits for the other, so
    /// a side can run ahead and amortize wakeups over many sessions.
    /// One fin each way closes the whole stream.
    Stream(Vec<CoinSource>, BatchBobFn),
}

struct Job {
    budget: Option<u64>,
    timeout: Duration,
    kind: JobKind,
}

/// Bob's type-erased result and his endpoint's final stats for one
/// session.
type SessionDone = (Result<Box<dyn Any + Send>, ProtocolError>, ChannelStats);

/// What the worker thread reports back after each job. A `Batch` report
/// is shorter than the batch if the worker lost rendezvous mid-batch.
enum Done {
    Single(SessionDone),
    Batch(Vec<SessionDone>),
    /// Stream results plus whether the worker finished every session
    /// and saw the peer's closing fin (`clean`).
    Stream(Vec<SessionDone>, bool),
}

/// A reusable two-party session executor: one long-lived paired thread
/// and one resettable channel pair serve sessions back to back.
///
/// A dedicated [`run_two_party`] call pays a thread spawn, two channel
/// constructions, and a full teardown per session; at engine scale that
/// overhead dominates the protocols themselves. A `SessionRunner`
/// amortizes all of it: [`run`](SessionRunner::run) has the same
/// contract as `run_two_party` — bit-for-bit identical costs, the same
/// error tie-break, panic containment on both halves — but steady-state
/// reuse leaves only the per-session job hand-off.
///
/// Between sessions the endpoints are [reset](Endpoint) to fresh-pair
/// state, and an internal ready handshake orders the resets so no frame
/// of a new session can be mistaken for residue of the previous one.
///
/// # Examples
///
/// ```
/// use intersect_comm::prelude::*;
///
/// let mut runner = SessionRunner::start();
/// for seed in 0..4 {
///     let out = runner.run(
///         &RunConfig::with_seed(seed),
///         |chan, _| {
///             let mut m = BitBuf::new();
///             m.push_bits(seed & 0b111, 3);
///             chan.send(m)?;
///             Ok(())
///         },
///         |chan, _| Ok(chan.recv()?.reader().read_bits(3)?),
///     )?;
///     assert_eq!(out.bob, seed & 0b111);
///     assert_eq!(out.report.total_bits(), 3);
/// }
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
pub struct SessionRunner {
    ep_a: Endpoint,
    job_tx: Option<Sender<Job>>,
    ready_rx: Receiver<()>,
    done_rx: Receiver<Done>,
    handle: Option<JoinHandle<()>>,
    broken: bool,
}

impl std::fmt::Debug for SessionRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionRunner")
            .field("broken", &self.broken)
            .finish_non_exhaustive()
    }
}

impl SessionRunner {
    /// Spawns the paired worker thread and connects the reusable
    /// endpoint pair.
    pub fn start() -> SessionRunner {
        let (ep_a, mut ep_b) = Endpoint::pair(None, Duration::from_secs(30));
        let (job_tx, job_rx) = crossbeam_channel::unbounded::<Job>();
        let (ready_tx, ready_rx) = crossbeam_channel::unbounded::<()>();
        let (done_tx, done_rx) = crossbeam_channel::unbounded();
        let handle = std::thread::spawn(move || {
            let _pool = ep_b.pool().clone().install();
            // This thread serves the one that holds the runner. Between
            // jobs it sleeps at once: the core it leaves is where the
            // threads that produce the next job (the engine's dispatcher,
            // its caller) get to run without displacing that one.
            for job in job_rx.iter() {
                // Full reset (drain included) only at a job boundary,
                // ordered by the ready handshake; inside a batch the fin
                // rendezvous separates sessions instead.
                ep_b.reset(job.budget, job.timeout);
                if ready_tx.send(()).is_err() {
                    break;
                }
                let done = match job.kind {
                    JobKind::Single(coins, bob) => {
                        let res = contain(
                            Side::Bob,
                            catch_unwind(AssertUnwindSafe(|| bob(&mut ep_b, &coins))),
                        );
                        ep_b.send_fin();
                        Done::Single((res, ep_b.stats()))
                    }
                    JobKind::Batch(coins, mut bob) => {
                        let mut results = Vec::with_capacity(coins.len());
                        for (i, c) in coins.iter().enumerate() {
                            if i > 0 {
                                ep_b.rearm(job.budget, job.timeout);
                            }
                            let res = contain(
                                Side::Bob,
                                catch_unwind(AssertUnwindSafe(|| bob(i, &mut ep_b, c))),
                            );
                            ep_b.send_fin();
                            results.push((res, ep_b.stats()));
                            if ep_b.drain_to_fin().is_err() {
                                // Lost rendezvous: report the short batch
                                // so the caller retires this runner.
                                break;
                            }
                        }
                        Done::Batch(results)
                    }
                    JobKind::Stream(coins, mut bob) => {
                        let mut results = Vec::with_capacity(coins.len());
                        for (i, c) in coins.iter().enumerate() {
                            if i > 0 {
                                ep_b.rearm(job.budget, job.timeout);
                            }
                            let res = contain(
                                Side::Bob,
                                catch_unwind(AssertUnwindSafe(|| bob(i, &mut ep_b, c))),
                            );
                            let failed = res.is_err();
                            results.push((res, ep_b.stats()));
                            if failed {
                                // A failed session desynchronizes an
                                // unfenced stream: abort the rest.
                                break;
                            }
                        }
                        // One rendezvous closes the whole stream.
                        ep_b.send_fin();
                        let clean = results.len() == coins.len() && ep_b.drain_to_fin().is_ok();
                        Done::Stream(results, clean)
                    }
                };
                if done_tx.send(done).is_err() {
                    break;
                }
            }
        });
        SessionRunner {
            ep_a,
            job_tx: Some(job_tx),
            ready_rx,
            done_rx,
            handle: Some(handle),
            broken: false,
        }
    }

    /// Runs one session, reporting each half's result separately.
    ///
    /// Alice executes on the calling thread (and so may borrow from it);
    /// Bob executes on the runner's paired thread, which is why `FB` must
    /// be `Send + 'static`. A panicking half is contained as
    /// [`ProtocolError::Internal`] and the runner stays usable.
    ///
    /// # Errors
    ///
    /// Fails only if the runner itself is broken (its paired thread
    /// died); protocol failures are reported inside [`SessionParts`].
    pub fn run_parts<FA, FB, A, B>(
        &mut self,
        cfg: &RunConfig,
        alice: FA,
        bob: FB,
    ) -> Result<SessionParts<A, B>, ProtocolError>
    where
        FA: FnOnce(&mut Endpoint, &CoinSource) -> Result<A, ProtocolError>,
        FB: FnOnce(&mut Endpoint, &CoinSource) -> Result<B, ProtocolError> + Send + 'static,
        B: Send + 'static,
    {
        let coins = CoinSource::from_seed(cfg.seed);
        let kind = JobKind::Single(
            coins.clone(),
            Box::new(move |ep, c| bob(ep, c).map(|b| Box::new(b) as Box<dyn Any + Send>)),
        );
        self.begin_job(cfg, kind)?;
        let (res_a, stats_a) = {
            let _pool = self.ep_a.pool().clone().install();
            let res = contain(
                Side::Alice,
                catch_unwind(AssertUnwindSafe(|| alice(&mut self.ep_a, &coins))),
            );
            self.ep_a.send_fin();
            (res, self.ep_a.stats())
        };
        let (res_b, stats_b) = match self.done_rx.recv_hot(Duration::MAX, Hot::Yield) {
            Ok(Done::Single(done)) => done,
            _ => {
                self.broken = true;
                return Err(self.broken_error());
            }
        };
        Ok(SessionParts {
            alice: res_a,
            bob: downcast_bob::<B>(res_b),
            report: assemble_report(stats_a, stats_b),
        })
    }

    /// Runs a batch of back-to-back sessions over the warm pair: one
    /// job hand-off and one ready handshake for the whole batch, then
    /// one coin-source reseed (from `seeds[i]`) per session. Sessions
    /// are separated by an unmetered fin rendezvous instead of a full
    /// reset, so per-session overhead is two control frames.
    ///
    /// Each session is bit-for-bit identical to a dedicated
    /// [`run_two_party`] call with `RunConfig { seed: seeds[i], ..cfg }`
    /// running the same closures: counters restart from zero and the
    /// budget re-applies per session. Failures are contained per
    /// session — one failed session leaves the rest of the batch
    /// untouched.
    ///
    /// # Errors
    ///
    /// Fails only if the runner itself breaks (worker thread death, or
    /// a lost mid-batch rendezvous after a receive timeout); per-session
    /// protocol failures are reported inside each [`SessionParts`].
    pub fn run_batch_parts<FA, FB, A, B>(
        &mut self,
        cfg: &RunConfig,
        seeds: &[u64],
        mut alice: FA,
        mut bob: FB,
    ) -> Result<Vec<SessionParts<A, B>>, ProtocolError>
    where
        FA: FnMut(usize, &mut Endpoint, &CoinSource) -> Result<A, ProtocolError>,
        FB: FnMut(usize, &mut Endpoint, &CoinSource) -> Result<B, ProtocolError> + Send + 'static,
        B: Send + 'static,
    {
        if seeds.is_empty() {
            return Ok(Vec::new());
        }
        let coins: Vec<CoinSource> = seeds.iter().map(|&s| CoinSource::from_seed(s)).collect();
        let kind = JobKind::Batch(
            coins.clone(),
            Box::new(move |i, ep, c| bob(i, ep, c).map(|b| Box::new(b) as Box<dyn Any + Send>)),
        );
        self.begin_job(cfg, kind)?;
        let mut halves: Vec<(Result<A, ProtocolError>, ChannelStats)> =
            Vec::with_capacity(coins.len());
        let mut desynced = false;
        {
            let _pool = self.ep_a.pool().clone().install();
            for (i, c) in coins.iter().enumerate() {
                if i > 0 {
                    self.ep_a.rearm(cfg.bit_budget, cfg.timeout);
                }
                let res = contain(
                    Side::Alice,
                    catch_unwind(AssertUnwindSafe(|| alice(i, &mut self.ep_a, c))),
                );
                self.ep_a.send_fin();
                halves.push((res, self.ep_a.stats()));
                if self.ep_a.drain_to_fin().is_err() {
                    desynced = true;
                    break;
                }
            }
        }
        // Every worker-side blocking operation is timeout-bounded, so
        // the batch report always arrives (possibly short).
        let done = match self.done_rx.recv_hot(Duration::MAX, Hot::Yield) {
            Ok(Done::Batch(done)) => done,
            _ => {
                self.broken = true;
                return Err(self.broken_error());
            }
        };
        if desynced || done.len() != halves.len() {
            self.broken = true;
            return Err(self.broken_error());
        }
        Ok(halves
            .into_iter()
            .zip(done)
            .map(|((res_a, stats_a), (res_b, stats_b))| SessionParts {
                alice: res_a,
                bob: downcast_bob::<B>(res_b),
                report: assemble_report(stats_a, stats_b),
            })
            .collect())
    }

    /// Runs a *stream* of back-to-back sessions over the warm pair with
    /// **no per-session rendezvous**: sessions are separated only by a
    /// counter rearm, so neither side waits for the other between
    /// sessions. Protocols whose halves don't strictly alternate (a
    /// side sends before it receives) pipeline across the pair — one
    /// thread wakeup then covers a burst of sessions instead of two
    /// context switches per session, which is where the streamed-batch
    /// throughput win comes from. One fin each way closes the stream.
    ///
    /// Exactness is unchanged: session `i` is bit-for-bit identical to
    /// a dedicated [`run_two_party`] with `RunConfig { seed: seeds[i],
    /// ..cfg }` — counters rearm from zero per session, each side's
    /// sends stamp depths from its own per-session clock, and receive
    /// metering happens at `recv` time, after the receiver's own rearm,
    /// so every bit lands in the right session no matter how far the
    /// peer ran ahead.
    ///
    /// The price of dropping the fence is failure isolation: a session
    /// that fails on either side desynchronizes the stream, so the
    /// stream **aborts** at the first failure. The returned vector is
    /// then shorter than `seeds` (it ends with the failing session as
    /// observed by both sides, possibly truncated) and the runner is
    /// marked [broken](Self::is_broken) — callers retire it and fall
    /// back to the fenced batch path for the remainder.
    ///
    /// # Errors
    ///
    /// Fails only if the runner infrastructure itself breaks (worker
    /// thread death); protocol failures surface as described above.
    pub fn run_stream_parts<FA, FB, A, B>(
        &mut self,
        cfg: &RunConfig,
        seeds: &[u64],
        mut alice: FA,
        mut bob: FB,
    ) -> Result<Vec<SessionParts<A, B>>, ProtocolError>
    where
        FA: FnMut(usize, &mut Endpoint, &CoinSource) -> Result<A, ProtocolError>,
        FB: FnMut(usize, &mut Endpoint, &CoinSource) -> Result<B, ProtocolError> + Send + 'static,
        B: Send + 'static,
    {
        if seeds.is_empty() {
            return Ok(Vec::new());
        }
        let coins: Vec<CoinSource> = seeds.iter().map(|&s| CoinSource::from_seed(s)).collect();
        let kind = JobKind::Stream(
            coins.clone(),
            Box::new(move |i, ep, c| bob(i, ep, c).map(|b| Box::new(b) as Box<dyn Any + Send>)),
        );
        self.begin_job(cfg, kind)?;
        let mut halves: Vec<(Result<A, ProtocolError>, ChannelStats)> =
            Vec::with_capacity(coins.len());
        {
            let _pool = self.ep_a.pool().clone().install();
            for (i, c) in coins.iter().enumerate() {
                if i > 0 {
                    self.ep_a.rearm(cfg.bit_budget, cfg.timeout);
                }
                let res = contain(
                    Side::Alice,
                    catch_unwind(AssertUnwindSafe(|| alice(i, &mut self.ep_a, c))),
                );
                let failed = res.is_err();
                halves.push((res, self.ep_a.stats()));
                if failed {
                    break;
                }
            }
            self.ep_a.send_fin();
            if halves.len() != coins.len() || self.ep_a.drain_to_fin().is_err() {
                self.broken = true;
            }
        }
        // The worker's blocking operations are timeout-bounded, so the
        // stream report always arrives (possibly short and unclean).
        let done = match self.done_rx.recv_hot(Duration::MAX, Hot::Yield) {
            Ok(Done::Stream(done, clean)) => {
                if !clean {
                    self.broken = true;
                }
                done
            }
            _ => {
                self.broken = true;
                return Err(self.broken_error());
            }
        };
        if done.len() != halves.len() {
            self.broken = true;
        }
        let n = done.len().min(halves.len());
        Ok(halves
            .into_iter()
            .take(n)
            .zip(done.into_iter().take(n))
            .map(|((res_a, stats_a), (res_b, stats_b))| SessionParts {
                alice: res_a,
                bob: downcast_bob::<B>(res_b),
                report: assemble_report(stats_a, stats_b),
            })
            .collect())
    }

    /// `true` once the runner has lost its paired thread or stream/batch
    /// synchronization; a broken runner refuses further jobs and must be
    /// replaced.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Shared job kickoff: reset order matters — Alice's endpoint first
    /// (the peer is quiescent between jobs), then the job hand-off,
    /// then Bob resets his endpoint *before* acknowledging ready — so
    /// neither reset can swallow a frame of the new job.
    fn begin_job(&mut self, cfg: &RunConfig, kind: JobKind) -> Result<(), ProtocolError> {
        let job_tx = match (&self.job_tx, self.broken) {
            (Some(tx), false) => tx,
            _ => return Err(self.broken_error()),
        };
        let job = Job {
            budget: cfg.bit_budget,
            timeout: cfg.timeout,
            kind,
        };
        self.ep_a.reset(cfg.bit_budget, cfg.timeout);
        if job_tx.send(job).is_err() || self.ready_rx.recv_hot(Duration::MAX, Hot::Yield).is_err() {
            self.broken = true;
            return Err(self.broken_error());
        }
        Ok(())
    }

    /// Runs one session with the exact contract of [`run_two_party`].
    ///
    /// # Errors
    ///
    /// As [`run_two_party`]: either half's failure fails the run, with
    /// the same primary-over-secondary tie-break
    /// ([`SessionParts::collapse`]).
    pub fn run<FA, FB, A, B>(
        &mut self,
        cfg: &RunConfig,
        alice: FA,
        bob: FB,
    ) -> Result<RunOutcome<A, B>, ProtocolError>
    where
        FA: FnOnce(&mut Endpoint, &CoinSource) -> Result<A, ProtocolError>,
        FB: FnOnce(&mut Endpoint, &CoinSource) -> Result<B, ProtocolError> + Send + 'static,
        B: Send + 'static,
    {
        self.run_parts(cfg, alice, bob)?.collapse()
    }

    fn broken_error(&self) -> ProtocolError {
        ProtocolError::Internal("session runner worker thread died".to_string())
    }
}

impl Drop for SessionRunner {
    fn drop(&mut self) {
        // Closing the job channel ends the worker loop; then join it.
        self.job_tx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitBuf;

    fn bits(n: usize) -> BitBuf {
        let mut b = BitBuf::new();
        for _ in 0..n {
            b.push_bit(true);
        }
        b
    }

    #[test]
    fn ping_pong_counts_rounds_and_bits() {
        let out = run_two_party(
            &RunConfig::with_seed(1),
            |chan, _| {
                chan.send(bits(8))?;
                chan.recv()?;
                chan.send(bits(4))?;
                Ok(())
            },
            |chan, _| {
                chan.recv()?;
                chan.send(bits(2))?;
                chan.recv()?;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(out.report.bits_alice, 12);
        assert_eq!(out.report.bits_bob, 2);
        assert_eq!(out.report.total_bits(), 14);
        assert_eq!(out.report.messages, 3);
        assert_eq!(out.report.rounds, 3);
    }

    #[test]
    fn shared_coins_agree_across_parties() {
        let out = run_two_party(
            &RunConfig::with_seed(99),
            |_, coins| {
                use rand::Rng;
                Ok(coins.rng_for("h").gen::<u64>())
            },
            |_, coins| {
                use rand::Rng;
                Ok(coins.rng_for("h").gen::<u64>())
            },
        )
        .unwrap();
        assert_eq!(out.alice, out.bob);
    }

    #[test]
    fn primary_error_wins_over_secondary_hangup() {
        let err = run_two_party(
            &RunConfig::with_seed(1),
            |chan, _| {
                chan.recv()?; // Bob never sends: sees hangup after Bob fails
                Ok(())
            },
            |_, _| -> Result<(), ProtocolError> {
                Err(ProtocolError::InvalidInput("bad set".into()))
            },
        )
        .unwrap_err();
        assert_eq!(err, ProtocolError::InvalidInput("bad set".into()));
    }

    #[test]
    fn budget_aborts_runaway_protocol() {
        let err = run_two_party(
            &RunConfig::with_seed(1).bit_budget(100),
            |chan, _| -> Result<(), ProtocolError> {
                loop {
                    chan.send(bits(64))?;
                }
            },
            |chan, _| -> Result<(), ProtocolError> {
                loop {
                    chan.recv()?;
                }
            },
        )
        .unwrap_err();
        assert!(matches!(err, ProtocolError::BudgetExceeded { .. }));
    }

    #[test]
    fn panicking_bob_is_contained_as_an_error() {
        let err = run_two_party(
            &RunConfig::with_seed(1),
            |chan, _| {
                chan.recv()?;
                Ok(())
            },
            |_, _| -> Result<(), ProtocolError> { panic!("bob exploded") },
        )
        .unwrap_err();
        assert_eq!(
            err,
            ProtocolError::Internal("bob panicked: bob exploded".into())
        );
    }

    #[test]
    fn panicking_alice_is_contained_as_an_error() {
        let err = run_two_party(
            &RunConfig::with_seed(1),
            |_, _| -> Result<(), ProtocolError> { panic!("alice exploded") },
            |chan, _| {
                chan.recv()?;
                Ok(())
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            ProtocolError::Internal("alice panicked: alice exploded".into())
        );
    }

    #[test]
    fn runner_matches_dedicated_runs_across_many_sessions() {
        let mut runner = SessionRunner::start();
        for seed in 0..50u64 {
            let alice = move |chan: &mut Endpoint, _: &CoinSource| {
                chan.send(bits((seed % 7 + 1) as usize))?;
                let got = chan.recv()?;
                chan.send(bits(got.len() + 1))?;
                Ok(())
            };
            let bob = move |chan: &mut Endpoint, _: &CoinSource| {
                let got = chan.recv()?;
                chan.send(bits(got.len() + 2))?;
                Ok(chan.recv()?.len())
            };
            let cfg = RunConfig::with_seed(seed);
            let reused = runner.run(&cfg, alice, bob).unwrap();
            let dedicated = run_two_party(&cfg, alice, bob).unwrap();
            assert_eq!(reused.report, dedicated.report, "seed {seed}");
            assert_eq!(reused.bob, dedicated.bob, "seed {seed}");
        }
    }

    #[test]
    fn runner_shares_coins_and_enforces_budgets() {
        let mut runner = SessionRunner::start();
        let out = runner
            .run(
                &RunConfig::with_seed(99),
                |_, coins| {
                    use rand::Rng;
                    Ok(coins.rng_for("h").gen::<u64>())
                },
                |_, coins| {
                    use rand::Rng;
                    Ok(coins.rng_for("h").gen::<u64>())
                },
            )
            .unwrap();
        assert_eq!(out.alice, out.bob);

        let err = runner
            .run(
                &RunConfig::with_seed(1).bit_budget(100),
                |chan, _| -> Result<(), ProtocolError> {
                    loop {
                        chan.send(bits(64))?;
                    }
                },
                |chan, _| -> Result<(), ProtocolError> {
                    loop {
                        chan.recv()?;
                    }
                },
            )
            .unwrap_err();
        assert!(matches!(err, ProtocolError::BudgetExceeded { .. }));
    }

    #[test]
    fn runner_survives_a_panicking_session_and_serves_the_next() {
        let mut runner = SessionRunner::start();
        let err = runner
            .run(
                &RunConfig::with_seed(1),
                |chan, _| {
                    chan.recv()?;
                    Ok(())
                },
                |_, _| -> Result<(), ProtocolError> { panic!("poison attempt") },
            )
            .unwrap_err();
        assert_eq!(
            err,
            ProtocolError::Internal("bob panicked: poison attempt".into())
        );

        // The same runner serves a clean session afterwards, from zeroed
        // counters.
        let out = runner
            .run(
                &RunConfig::with_seed(2),
                |chan, _| {
                    chan.send(bits(5))?;
                    Ok(())
                },
                |chan, _| Ok(chan.recv()?.len()),
            )
            .unwrap();
        assert_eq!(out.bob, 5);
        assert_eq!(out.report.total_bits(), 5);
        assert_eq!(out.report.rounds, 1);
    }

    #[test]
    fn runner_parts_expose_the_surviving_half() {
        let mut runner = SessionRunner::start();
        let parts = runner
            .run_parts(
                &RunConfig::with_seed(3),
                |chan, _| {
                    chan.send(bits(4))?;
                    Ok("alice done")
                },
                |chan, _| -> Result<usize, ProtocolError> {
                    let got = chan.recv()?;
                    chan.recv()?; // Alice sends nothing more: hangup
                    Ok(got.len())
                },
            )
            .unwrap();
        assert_eq!(parts.alice.unwrap(), "alice done");
        assert_eq!(parts.bob.unwrap_err(), ProtocolError::ChannelClosed);
        assert_eq!(parts.report.bits_alice, 4);
    }

    #[test]
    fn primary_error_orders_transport_below_protocol_failures() {
        use ProtocolError::*;
        // A secondary transport symptom (hangup/timeout) loses to the
        // root-cause protocol failure, whichever side raised it.
        let proto = || InvalidInput("bad set".to_string());
        assert_eq!(primary_error(ChannelClosed, proto()), proto());
        assert_eq!(primary_error(Timeout, proto()), proto());
        assert_eq!(primary_error(proto(), ChannelClosed), proto());
        assert_eq!(primary_error(proto(), Timeout), proto());
        // Two transport errors: Alice's wins.
        assert_eq!(primary_error(ChannelClosed, Timeout), ChannelClosed);
        assert_eq!(primary_error(Timeout, ChannelClosed), Timeout);
        // Two protocol errors: Alice's wins.
        assert_eq!(
            primary_error(Internal("a".into()), Internal("b".into())),
            Internal("a".into())
        );
    }

    #[test]
    fn collapse_applies_the_shared_tie_break() {
        let parts = |a: Result<(), ProtocolError>, b: Result<(), ProtocolError>| SessionParts {
            alice: a,
            bob: b,
            report: CostReport::default(),
        };
        assert!(parts(Ok(()), Ok(())).collapse().is_ok());
        let boom = ProtocolError::InvalidInput("boom".to_string());
        assert_eq!(
            parts(Err(ProtocolError::ChannelClosed), Err(boom.clone()))
                .collapse()
                .unwrap_err(),
            boom
        );
        assert_eq!(
            parts(Ok(()), Err(boom.clone())).collapse().unwrap_err(),
            boom
        );
    }

    #[test]
    fn batch_sessions_match_dedicated_runs_bit_for_bit() {
        let alice = |i: usize, chan: &mut Endpoint, _: &CoinSource| {
            chan.send(bits(i % 7 + 1))?;
            let got = chan.recv()?;
            chan.send(bits(got.len() + 1))?;
            Ok(())
        };
        let bob = |i: usize, chan: &mut Endpoint, _: &CoinSource| {
            let got = chan.recv()?;
            chan.send(bits(got.len() + 2 + i % 3))?;
            Ok(chan.recv()?.len())
        };
        let seeds: Vec<u64> = (0..32).collect();
        let mut runner = SessionRunner::start();
        let batch = runner
            .run_batch_parts(&RunConfig::default(), &seeds, alice, bob)
            .unwrap();
        assert_eq!(batch.len(), seeds.len());
        for (i, parts) in batch.into_iter().enumerate() {
            let cfg = RunConfig::with_seed(seeds[i]);
            let dedicated = run_two_party(
                &cfg,
                |chan, c| alice(i, chan, c),
                move |chan: &mut Endpoint, c: &CoinSource| bob(i, chan, c),
            )
            .unwrap();
            assert_eq!(parts.report, dedicated.report, "session {i}");
            assert_eq!(parts.bob.unwrap(), dedicated.bob, "session {i}");
        }
    }

    #[test]
    fn batch_shares_coins_per_session_seed() {
        let mut runner = SessionRunner::start();
        let seeds = [11u64, 12, 13];
        let batch = runner
            .run_batch_parts(
                &RunConfig::default(),
                &seeds,
                |_, _, coins: &CoinSource| {
                    use rand::Rng;
                    Ok(coins.rng_for("h").gen::<u64>())
                },
                |_, _, coins: &CoinSource| {
                    use rand::Rng;
                    Ok(coins.rng_for("h").gen::<u64>())
                },
            )
            .unwrap();
        let values: Vec<u64> = batch
            .into_iter()
            .map(|p| {
                let (a, b) = (p.alice.unwrap(), p.bob.unwrap());
                assert_eq!(a, b, "both sides draw from the session seed");
                a
            })
            .collect();
        // Distinct seeds give distinct common random strings.
        assert_ne!(values[0], values[1]);
        assert_ne!(values[1], values[2]);
    }

    #[test]
    fn batch_contains_per_session_failures() {
        let mut runner = SessionRunner::start();
        let batch = runner
            .run_batch_parts(
                &RunConfig::default(),
                &[0, 1, 2],
                |_, chan: &mut Endpoint, _| {
                    chan.send(bits(4))?;
                    Ok(())
                },
                |i, chan: &mut Endpoint, _| {
                    if i == 1 {
                        panic!("session one explodes");
                    }
                    Ok(chan.recv()?.len())
                },
            )
            .unwrap();
        assert_eq!(batch[0].bob.as_ref().unwrap(), &4);
        assert_eq!(
            batch[1].bob.as_ref().unwrap_err(),
            &ProtocolError::Internal("bob panicked: session one explodes".into())
        );
        // The failed middle session leaves the next one pristine.
        assert_eq!(batch[2].bob.as_ref().unwrap(), &4);
        assert_eq!(batch[2].report.total_bits(), 4);
        assert_eq!(batch[2].report.rounds, 1);
        // And the runner itself stays healthy.
        let out = runner
            .run(
                &RunConfig::with_seed(9),
                |chan, _| {
                    chan.send(bits(2))?;
                    Ok(())
                },
                |chan, _| Ok(chan.recv()?.len()),
            )
            .unwrap();
        assert_eq!(out.bob, 2);
    }

    #[test]
    fn stream_sessions_match_dedicated_runs_bit_for_bit() {
        // An alternating handshake: the strictest shape for the
        // no-rendezvous path because every recv really waits.
        let alice = |i: usize, chan: &mut Endpoint, _: &CoinSource| {
            chan.send(bits(i % 7 + 1))?;
            let got = chan.recv()?;
            chan.send(bits(got.len() + 1))?;
            Ok(())
        };
        let bob = |i: usize, chan: &mut Endpoint, _: &CoinSource| {
            let got = chan.recv()?;
            chan.send(bits(got.len() + 2 + i % 3))?;
            Ok(chan.recv()?.len())
        };
        let seeds: Vec<u64> = (0..32).collect();
        let mut runner = SessionRunner::start();
        let stream = runner
            .run_stream_parts(&RunConfig::default(), &seeds, alice, bob)
            .unwrap();
        assert!(!runner.is_broken());
        assert_eq!(stream.len(), seeds.len());
        for (i, parts) in stream.into_iter().enumerate() {
            let cfg = RunConfig::with_seed(seeds[i]);
            let dedicated = run_two_party(
                &cfg,
                |chan, c| alice(i, chan, c),
                move |chan: &mut Endpoint, c: &CoinSource| bob(i, chan, c),
            )
            .unwrap();
            assert_eq!(parts.report, dedicated.report, "session {i}");
            assert_eq!(parts.bob.unwrap(), dedicated.bob, "session {i}");
        }
    }

    #[test]
    fn stream_pipelines_simultaneous_exchange() {
        // Both sides send before they receive: sessions pipeline (a side
        // can run arbitrarily far ahead), yet rearm-at-sender plus
        // meter-at-recv keeps every session's report exact.
        let alice = |i: usize, chan: &mut Endpoint, _: &CoinSource| {
            chan.send(bits(i % 5 + 1))?;
            Ok(chan.recv()?.len())
        };
        let bob = |i: usize, chan: &mut Endpoint, _: &CoinSource| {
            chan.send(bits(i % 3 + 2))?;
            Ok(chan.recv()?.len())
        };
        let seeds: Vec<u64> = (100..164).collect();
        let mut runner = SessionRunner::start();
        let stream = runner
            .run_stream_parts(&RunConfig::default(), &seeds, alice, bob)
            .unwrap();
        assert!(!runner.is_broken());
        assert_eq!(stream.len(), seeds.len());
        for (i, parts) in stream.into_iter().enumerate() {
            let dedicated = run_two_party(
                &RunConfig::with_seed(seeds[i]),
                |chan, c| alice(i, chan, c),
                move |chan: &mut Endpoint, c: &CoinSource| bob(i, chan, c),
            )
            .unwrap();
            assert_eq!(parts.report, dedicated.report, "session {i}");
            assert_eq!(parts.alice.unwrap(), dedicated.alice, "session {i}");
            assert_eq!(parts.bob.unwrap(), dedicated.bob, "session {i}");
        }
    }

    #[test]
    fn stream_handles_one_way_sessions_with_alice_far_ahead() {
        // Alice never receives, so she finishes the whole stream before
        // Bob wakes: the closing fin must not be mistaken for data and
        // every session's bits must still land in the right slot.
        let alice = |i: usize, chan: &mut Endpoint, _: &CoinSource| {
            chan.send(bits(i % 9 + 1))?;
            Ok(())
        };
        let bob = |_: usize, chan: &mut Endpoint, _: &CoinSource| Ok(chan.recv()?.len());
        let seeds: Vec<u64> = (0..48).collect();
        let mut runner = SessionRunner::start();
        let stream = runner
            .run_stream_parts(&RunConfig::default(), &seeds, alice, bob)
            .unwrap();
        assert!(!runner.is_broken());
        assert_eq!(stream.len(), seeds.len());
        for (i, parts) in stream.into_iter().enumerate() {
            assert_eq!(parts.bob.unwrap(), i % 9 + 1, "session {i}");
            assert_eq!(parts.report.total_bits(), (i % 9 + 1) as u64);
            assert_eq!(parts.report.rounds, 1);
        }
    }

    #[test]
    fn stream_aborts_at_first_failure_and_marks_runner_broken() {
        let mut runner = SessionRunner::start();
        let stream = runner
            .run_stream_parts(
                &RunConfig::default(),
                &[0, 1, 2, 3],
                |_, chan: &mut Endpoint, _| {
                    chan.send(bits(4))?;
                    Ok(chan.recv()?.len())
                },
                |i, chan: &mut Endpoint, _| {
                    if i == 1 {
                        return Err(ProtocolError::InvalidInput("session one bails".into()));
                    }
                    let got = chan.recv()?;
                    chan.send(bits(got.len()))?;
                    Ok(got.len())
                },
            )
            .unwrap();
        // Session 0 completed; session 1 failed on Bob's side; the
        // stream aborted before sessions 2 and 3.
        assert!(stream.len() < 4, "aborted stream is short");
        assert!(stream[0].bob.is_ok());
        assert!(runner.is_broken(), "an aborted stream retires the runner");
        // A broken runner refuses the next job instead of hanging.
        let err = runner
            .run(
                &RunConfig::with_seed(9),
                |_, _| Ok(()),
                |_, _| -> Result<(), ProtocolError> { Ok(()) },
            )
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Internal(_)));
    }

    #[test]
    fn empty_stream_is_a_no_op() {
        let mut runner = SessionRunner::start();
        let stream: Vec<SessionParts<(), ()>> = runner
            .run_stream_parts(
                &RunConfig::default(),
                &[],
                |_, _, _| Ok(()),
                |_, _, _| Ok(()),
            )
            .unwrap();
        assert!(stream.is_empty());
        assert!(!runner.is_broken());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut runner = SessionRunner::start();
        let batch: Vec<SessionParts<(), ()>> = runner
            .run_batch_parts(
                &RunConfig::default(),
                &[],
                |_, _, _| Ok(()),
                |_, _, _| Ok(()),
            )
            .unwrap();
        assert!(batch.is_empty());
    }

    #[test]
    fn side_basics() {
        assert_eq!(Side::Alice.peer(), Side::Bob);
        assert_eq!(Side::Bob.peer(), Side::Alice);
        assert!(Side::Alice.is_alice());
        assert_eq!(Side::Bob.to_string(), "bob");
    }
}
