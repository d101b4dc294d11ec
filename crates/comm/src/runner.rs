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
//!   session. This is what the engine's worker pool uses. It runs
//!   *blocks* of sessions ([`SessionRunner::run_block`]); a single
//!   session is the block of one.

use crate::chan::{Chan, Endpoint};
use crate::coins::CoinSource;
use crate::error::ProtocolError;
use crate::stats::{ChannelStats, CostReport};
use crossbeam_channel::{Hot, Receiver, Sender};
use std::any::Any;
use std::fmt::Display;
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

/// Assembles the cost of one two-party run from the two endpoints' final
/// counters, exactly as [`run_two_party`] reports it.
pub fn assemble_report(stats_alice: ChannelStats, stats_bob: ChannelStats) -> CostReport {
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
    let (mut ep_a, mut ep_b) = Endpoint::pair(cfg.bit_budget, cfg.timeout);
    let coins = CoinSource::from_seed(cfg.seed);
    let coins_b = coins.clone();

    let (res_a, res_b, stats_a, stats_b) = std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let _pool = ep_b.pool().clone().install();
            let r = contained(Side::Bob, || bob(&mut ep_b, &coins_b));
            (r, ep_b.stats())
        });
        let _pool = ep_a.pool().clone().install();
        let res_a = contained(Side::Alice, || alice(&mut ep_a, &coins));
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
pub(crate) fn contained_error(who: impl Display, payload: Box<dyn Any + Send>) -> ProtocolError {
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        *s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "non-string panic payload"
    };
    ProtocolError::Internal(format!("{who} panicked: {msg}"))
}

/// Runs one protocol half with its panics contained: a panicking half
/// becomes an ordinary [`ProtocolError::Internal`] failure naming `who`.
pub fn contained<T>(
    who: impl Display,
    half: impl FnOnce() -> Result<T, ProtocolError>,
) -> Result<T, ProtocolError> {
    catch_unwind(AssertUnwindSafe(half))
        .unwrap_or_else(|payload| Err(contained_error(who, payload)))
}

/// Both halves' individual results plus the session's exact cost —
/// what `SessionRunner::run_parts` returns. Unlike the collapsed
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

/// Bob's result with its type erased, so one paired thread can serve
/// sessions of any result type.
type Erased = Result<Box<dyn Any + Send>, ProtocolError>;

/// Bob's halves of one block, type-erased. Running a session consumes
/// the box and hands it back if it can serve another one — so a block of
/// one carries a plain `FnOnce`, and a zero-sized closure costs no heap
/// allocation either way (`no_alloc_steady.rs`). Panics are contained
/// inside, where the box is still owned.
trait BobHalves: Send {
    fn run(self: Box<Self>, session: usize, ep: &mut Endpoint, coins: &CoinSource) -> Ran;
}

/// Bob's result of one session, and his halves if they can run another.
type Ran = (Erased, Option<Box<dyn BobHalves>>);

fn erase<B: Send + 'static>(b: B) -> Box<dyn Any + Send> {
    Box::new(b)
}

/// The one half of a block of one.
struct Once<F>(F);

impl<F, B> BobHalves for Once<F>
where
    F: FnOnce(&mut Endpoint, &CoinSource) -> Result<B, ProtocolError> + Send + 'static,
    B: Send + 'static,
{
    fn run(self: Box<Self>, _session: usize, ep: &mut Endpoint, coins: &CoinSource) -> Ran {
        let half = self.0;
        (contained(Side::Bob, || half(ep, coins)).map(erase), None)
    }
}

/// One closure serving every session of a block by index.
impl<F, B> BobHalves for F
where
    F: FnMut(usize, &mut Endpoint, &CoinSource) -> Result<B, ProtocolError> + Send + 'static,
    B: Send + 'static,
{
    fn run(mut self: Box<Self>, session: usize, ep: &mut Endpoint, coins: &CoinSource) -> Ran {
        let res = contained(Side::Bob, || self(session, ep, coins)).map(erase);
        (res, Some(self))
    }
}

/// Bob's type-erased result and his endpoint's final stats for one
/// session.
type SessionDone = (Erased, ChannelStats);

/// A block of sessions (or the rest of one) on its way to the paired
/// thread, which fills `done` and sends the same job back: the two
/// buffers and Bob's halves make the round trip, so a warm runner
/// allocates nothing per job and a block can go on after a failure.
struct Job {
    budget: Option<u64>,
    timeout: Duration,
    /// One seed per session of the block: session `i`'s common random
    /// string is `CoinSource::from_seed(seeds[i])` on both sides.
    seeds: Vec<u64>,
    /// The session this job starts at.
    first: usize,
    bob: Option<Box<dyn BobHalves>>,
    /// Bob's results for sessions `first..`, ending with his first
    /// failure if he had one.
    done: Vec<SessionDone>,
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
/// Between jobs the endpoints are [reset](Endpoint) to fresh-pair
/// state, and an internal ready handshake orders the resets so no frame
/// of a new job can be mistaken for residue of the previous one.
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
    done_rx: Receiver<Job>,
    handle: Option<JoinHandle<()>>,
    /// The idle job's buffers, kept warm between blocks.
    seeds: Vec<u64>,
    done: Vec<SessionDone>,
}

impl std::fmt::Debug for SessionRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionRunner")
            .field("broken", &self.is_broken())
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
        let (done_tx, done_rx) = crossbeam_channel::unbounded::<Job>();
        let handle = std::thread::spawn(move || {
            let _pool = ep_b.pool().clone().install();
            // This thread serves the one that holds the runner. Between
            // jobs it sleeps at once: the core it leaves is where the
            // threads that produce the next job (the engine's dispatcher,
            // its caller) get to run without displacing that one.
            for mut job in job_rx.iter() {
                // Full reset (drain included) only at a job boundary,
                // ordered by the ready handshake; inside a job a rearm
                // separates sessions and neither side waits for the other.
                ep_b.reset(job.budget, job.timeout);
                if ready_tx.send(()).is_err() {
                    break;
                }
                for session in job.first..job.seeds.len() {
                    let Some(bob) = job.bob.take() else { break };
                    if session > job.first {
                        ep_b.rearm(job.budget, job.timeout);
                    }
                    let coins = CoinSource::from_seed(job.seeds[session]);
                    let (res, bob) = bob.run(session, &mut ep_b, &coins);
                    job.bob = bob;
                    let failed = res.is_err();
                    job.done.push((res, ep_b.stats()));
                    if failed {
                        // Without a fence a failed session leaves the two
                        // sides out of step: the job ends here.
                        break;
                    }
                }
                // One fin closes the job: a peer still waiting in `recv`
                // sees a hangup, as after a dedicated run's endpoint drop.
                ep_b.send_fin();
                if done_tx.send(job).is_err() {
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
            seeds: Vec::new(),
            done: Vec::new(),
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
    pub(crate) fn run_parts<FA, FB, A, B>(
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
        let mut alice = Some(alice);
        let mut parts = None;
        self.drive(
            cfg,
            &[cfg.seed],
            |_, ep, coins| (alice.take().expect("a block of one runs its session once"))(ep, coins),
            Box::new(Once(bob)),
            |_, settled| parts = Some(settled),
        )?;
        Ok(parts.expect("a block of one settles one session"))
    }

    /// Runs a *block* of sessions back to back over the warm pair — the
    /// one thing a runner does; `run_parts` is the
    /// block of one. Session `i` calls `alice(i, …)` here and `bob(i, …)`
    /// on the paired thread with the common random string of `seeds[i]`,
    /// under `cfg`'s budget and timeout (its seed is not used), and hands
    /// its [`SessionParts`] to `settled(i, …)`, in order.
    ///
    /// Sessions are separated by a counter rearm only: neither side waits
    /// for the other between sessions, so halves that do not strictly
    /// alternate pipeline across the pair and one wake-up covers a burst
    /// of sessions. Session `i` is still bit-for-bit identical to a
    /// dedicated [`run_two_party`] with `RunConfig { seed: seeds[i],
    /// ..cfg }`: each side's sends stamp depths from its own per-session
    /// clock and receives are metered at `recv` time, after the
    /// receiver's own rearm, so every bit lands in the right session no
    /// matter how far the peer ran ahead.
    ///
    /// A session that fails on either side costs that session only: the
    /// job ends there and the rest of the block starts as a new job,
    /// whose reset and ready handshake put the two sides back in step (a
    /// half that had run ahead runs those sessions again). `settled` is
    /// therefore called exactly `seeds.len()` times.
    ///
    /// # Errors
    ///
    /// Fails only if the paired thread died, possibly after some sessions
    /// have settled; protocol failures are reported inside each
    /// [`SessionParts`].
    pub fn run_block<FA, FB, A, B>(
        &mut self,
        cfg: &RunConfig,
        seeds: &[u64],
        alice: FA,
        bob: FB,
        settled: impl FnMut(usize, SessionParts<A, B>),
    ) -> Result<(), ProtocolError>
    where
        FA: FnMut(usize, &mut Endpoint, &CoinSource) -> Result<A, ProtocolError>,
        FB: FnMut(usize, &mut Endpoint, &CoinSource) -> Result<B, ProtocolError> + Send + 'static,
        B: Send + 'static,
    {
        self.drive(cfg, seeds, alice, Box::new(bob), settled)
    }

    /// `true` once the runner has lost its paired thread; a broken
    /// runner refuses further jobs and must be replaced.
    pub fn is_broken(&self) -> bool {
        self.handle.as_ref().is_none_or(JoinHandle::is_finished)
    }

    fn drive<FA, A, B: 'static>(
        &mut self,
        cfg: &RunConfig,
        seeds: &[u64],
        mut alice: FA,
        bob: Box<dyn BobHalves>,
        mut settled: impl FnMut(usize, SessionParts<A, B>),
    ) -> Result<(), ProtocolError>
    where
        FA: FnMut(usize, &mut Endpoint, &CoinSource) -> Result<A, ProtocolError>,
    {
        let mut job = Job {
            budget: cfg.bit_budget,
            timeout: cfg.timeout,
            seeds: std::mem::take(&mut self.seeds),
            first: 0,
            bob: Some(bob),
            done: std::mem::take(&mut self.done),
        };
        job.seeds.clear();
        job.seeds.extend_from_slice(seeds);
        // One job, unless a session fails: then one more for what is left.
        while job.first < seeds.len() {
            let first = job.first;
            // Reset order matters — Alice's endpoint first (the peer is
            // quiescent between jobs), then the job hand-off, then Bob
            // resets his endpoint *before* acknowledging ready — so
            // neither reset can swallow a frame of the new job. A dead
            // paired thread has dropped its ends of all three channels.
            self.ep_a.reset(cfg.bit_budget, cfg.timeout);
            let sent = self.job_tx.as_ref().is_some_and(|tx| tx.send(job).is_ok());
            if !sent || self.ready_rx.recv_hot(Duration::MAX, Hot::Yield).is_err() {
                return Err(broken_error());
            }
            // Alice's halves up to her first failure; the last one stays
            // out of the vector, so a block of one allocates nothing.
            let mut earlier = Vec::new();
            let last = {
                let _pool = self.ep_a.pool().clone().install();
                let mut session = first;
                loop {
                    if session > first {
                        self.ep_a.rearm(cfg.bit_budget, cfg.timeout);
                    }
                    let coins = CoinSource::from_seed(seeds[session]);
                    let res = contained(Side::Alice, || alice(session, &mut self.ep_a, &coins));
                    let half = (res, self.ep_a.stats());
                    session += 1;
                    if half.0.is_err() || session == seeds.len() {
                        break half;
                    }
                    earlier.push(half);
                }
            };
            self.ep_a.send_fin();
            // Every blocking operation of the paired thread is bounded by
            // the timeout, so the job always comes back.
            job = self
                .done_rx
                .recv_hot(Duration::MAX, Hot::Yield)
                .map_err(|_| broken_error())?;
            // What both sides reached settles, ending with the first
            // failure of either; what one side ran beyond it runs again.
            let halves = earlier.into_iter().chain(std::iter::once(last));
            for ((res_a, stats_a), (res_b, stats_b)) in halves.zip(job.done.drain(..)) {
                let parts = SessionParts {
                    alice: res_a,
                    bob: res_b.map(|b| {
                        *b.downcast::<B>()
                            .expect("bob's type-erased result matches FB's return type")
                    }),
                    report: assemble_report(stats_a, stats_b),
                };
                settled(job.first, parts);
                job.first += 1;
            }
            debug_assert!(
                job.first > first,
                "a job settles at least its first session"
            );
        }
        self.seeds = job.seeds;
        self.done = job.done;
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
}

fn broken_error() -> ProtocolError {
    ProtocolError::Internal("session runner worker thread died".to_string())
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

    /// Runs one block on `runner` and collects what settles, in order.
    fn block<FA, FB, A, B>(
        runner: &mut SessionRunner,
        seeds: &[u64],
        alice: FA,
        bob: FB,
    ) -> Vec<SessionParts<A, B>>
    where
        FA: FnMut(usize, &mut Endpoint, &CoinSource) -> Result<A, ProtocolError>,
        FB: FnMut(usize, &mut Endpoint, &CoinSource) -> Result<B, ProtocolError> + Send + 'static,
        B: Send + 'static,
    {
        let mut out = Vec::new();
        runner
            .run_block(&RunConfig::default(), seeds, alice, bob, |i, parts| {
                assert_eq!(i, out.len(), "sessions settle in order");
                out.push(parts);
            })
            .unwrap();
        out
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
                Ok(coins.fork("h").rng().gen::<u64>())
            },
            |_, coins| {
                use rand::Rng;
                Ok(coins.fork("h").rng().gen::<u64>())
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
                    Ok(coins.fork("h").rng().gen::<u64>())
                },
                |_, coins| {
                    use rand::Rng;
                    Ok(coins.fork("h").rng().gen::<u64>())
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
        let batch = block(&mut runner, &seeds, alice, bob);
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
        let batch = block(
            &mut runner,
            &seeds,
            |_, _, coins: &CoinSource| {
                use rand::Rng;
                Ok(coins.fork("h").rng().gen::<u64>())
            },
            |_, _, coins: &CoinSource| {
                use rand::Rng;
                Ok(coins.fork("h").rng().gen::<u64>())
            },
        );
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
        let batch = block(
            &mut runner,
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
        );
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
        let stream = block(&mut runner, &seeds, alice, bob);
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
        let stream = block(&mut runner, &seeds, alice, bob);
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
        let stream = block(&mut runner, &seeds, alice, bob);
        assert!(!runner.is_broken());
        assert_eq!(stream.len(), seeds.len());
        for (i, parts) in stream.into_iter().enumerate() {
            assert_eq!(parts.bob.unwrap(), i % 9 + 1, "session {i}");
            assert_eq!(parts.report.total_bits(), (i % 9 + 1) as u64);
            assert_eq!(parts.report.rounds, 1);
        }
    }

    /// Who sends when, inside one session of the abort-and-resume probe.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        Alternating,
        Simultaneous,
        OneWayAliceAhead,
        BobFirst,
    }

    /// How a failing session of the probe fails.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Failure {
        AliceErrsBeforeSending,
        BobPanics,
        BobFailsAfterConsuming,
    }

    /// First, last, two in a row, and a few in between.
    fn fails(i: usize) -> bool {
        matches!(i, 0 | 10 | 11 | 39) || i % 9 == 4
    }

    fn probe_alice(
        shape: Shape,
        failure: Failure,
        i: usize,
        chan: &mut Endpoint,
    ) -> Result<usize, ProtocolError> {
        if fails(i) && failure == Failure::AliceErrsBeforeSending {
            return Err(ProtocolError::InvalidInput(format!("alice bails in {i}")));
        }
        match shape {
            Shape::Alternating => {
                chan.send(bits(i % 7 + 1))?;
                let got = chan.recv()?;
                chan.send(bits(got.len() + 1))?;
                Ok(got.len())
            }
            Shape::Simultaneous => {
                chan.send(bits(i % 5 + 1))?;
                Ok(chan.recv()?.len())
            }
            Shape::OneWayAliceAhead => {
                chan.send(bits(i % 9 + 1))?;
                Ok(0)
            }
            Shape::BobFirst => {
                let got = chan.recv()?;
                chan.send(bits(got.len() + 1))?;
                Ok(got.len())
            }
        }
    }

    fn probe_bob(
        shape: Shape,
        failure: Failure,
        i: usize,
        chan: &mut Endpoint,
    ) -> Result<usize, ProtocolError> {
        if fails(i) && failure == Failure::BobPanics {
            panic!("bob explodes in {i}");
        }
        let got = match shape {
            Shape::Alternating => {
                let got = chan.recv()?;
                chan.send(bits(got.len() + 2 + i % 3))?;
                chan.recv()?.len()
            }
            Shape::Simultaneous => {
                chan.send(bits(i % 3 + 2))?;
                chan.recv()?.len()
            }
            Shape::OneWayAliceAhead => chan.recv()?.len(),
            Shape::BobFirst => {
                chan.send(bits(i % 4 + 1))?;
                chan.recv()?.len()
            }
        };
        if fails(i) && failure == Failure::BobFailsAfterConsuming {
            return Err(ProtocolError::InvalidInput(format!("bob bails in {i}")));
        }
        Ok(got)
    }

    #[test]
    fn a_failed_session_costs_that_session_and_the_block_goes_on() {
        // One runner throughout: 4 message shapes × 3 ways to fail, 40
        // sessions each with 9 of them failing. Every session must settle
        // as the same session run on its own, and the runner stays whole.
        let seeds: Vec<u64> = (0..40).collect();
        let mut runner = SessionRunner::start();
        for shape in [
            Shape::Alternating,
            Shape::Simultaneous,
            Shape::OneWayAliceAhead,
            Shape::BobFirst,
        ] {
            for failure in [
                Failure::AliceErrsBeforeSending,
                Failure::BobPanics,
                Failure::BobFailsAfterConsuming,
            ] {
                let settled = block(
                    &mut runner,
                    &seeds,
                    move |i, chan: &mut Endpoint, _| probe_alice(shape, failure, i, chan),
                    move |i, chan: &mut Endpoint, _| probe_bob(shape, failure, i, chan),
                );
                assert!(!runner.is_broken(), "{shape:?} {failure:?}");
                assert_eq!(settled.len(), seeds.len(), "{shape:?} {failure:?}");
                for (i, parts) in settled.into_iter().enumerate() {
                    let what = format!("{shape:?} {failure:?} session {i}");
                    let cfg = RunConfig::with_seed(seeds[i]);
                    if fails(i) {
                        // A failed session keeps its report and its
                        // surviving half: the same as on a runner of its own.
                        let alone = SessionRunner::start()
                            .run_parts(
                                &cfg,
                                |chan, _| probe_alice(shape, failure, i, chan),
                                move |chan: &mut Endpoint, _: &CoinSource| {
                                    probe_bob(shape, failure, i, chan)
                                },
                            )
                            .unwrap();
                        assert_eq!(parts.report, alone.report, "{what}");
                        assert_eq!(parts.alice, alone.alice, "{what}");
                        assert_eq!(parts.bob, alone.bob, "{what}");
                    }
                    let dedicated = run_two_party(
                        &cfg,
                        |chan, _| probe_alice(shape, failure, i, chan),
                        |chan, _| probe_bob(shape, failure, i, chan),
                    );
                    match (parts.collapse(), dedicated) {
                        (Ok(ours), Ok(theirs)) => {
                            assert!(!fails(i), "{what} should have failed");
                            assert_eq!(ours.report, theirs.report, "{what}");
                            assert_eq!(ours.alice, theirs.alice, "{what}");
                            assert_eq!(ours.bob, theirs.bob, "{what}");
                        }
                        (Err(ours), Err(theirs)) => {
                            assert!(fails(i), "{what} should have succeeded");
                            assert_eq!(ours, theirs, "{what}");
                        }
                        (ours, theirs) => panic!("{what}: {ours:?} vs {theirs:?}"),
                    }
                }
            }
        }
        // And the same runner still serves a plain session.
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
        assert_eq!(out.report.rounds, 1);
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let mut runner = SessionRunner::start();
        let settled: Vec<SessionParts<(), ()>> =
            block(&mut runner, &[], |_, _, _| Ok(()), |_, _, _| Ok(()));
        assert!(settled.is_empty());
        assert!(!runner.is_broken());
    }

    #[test]
    fn side_basics() {
        assert_eq!(Side::Alice.peer(), Side::Bob);
        assert_eq!(Side::Bob.peer(), Side::Alice);
        assert!(Side::Alice.is_alice());
        assert_eq!(Side::Bob.to_string(), "bob");
    }
}
