//! Two-phase protocol execution: input-independent *preparation* split
//! from the input-dependent *bit-exchanging* phase.
//!
//! Every protocol in the paper decomposes the same way: a parameter
//! phase that depends only on `(n, k, δ)` — hash-family selection
//! (Section 3's `H : [n] → [N]` and `h : [N] → [k]` setups reduce to a
//! deterministic field-prime search once the universe is fixed), tree
//! layouts, per-stage error schedules — and an execution phase that
//! actually exchanges bits. [`SetIntersection::prepare`] performs the
//! parameter phase once and returns an [`Arc<dyn PreparedProtocol>`]
//! whose [`execute`](PreparedProtocol::execute) can be replayed for many
//! inputs, shared across threads, and cached by `(protocol, spec)`.
//!
//! **Bit-exactness is the contract**: for every plan,
//! `plan.execute(chan, coins, side, input)` transmits byte-identical
//! messages — and therefore produces identical outputs and
//! [`CostReport`](intersect_comm::stats::CostReport)s — to
//! `SetIntersection::run(&proto, chan, coins, side, spec, input)`. This
//! holds because preparation hoists only deterministic, RNG-free work
//! (prime searches, tree shapes, error schedules); every random draw
//! still happens in execution order from the same coin forks.
//!
//! [`execute_prepared`], [`execute_prepared_batch`] and
//! [`execute_prepared_stream`] drive plans through a thread-local warm
//! [`SessionRunner`] as one *block* of sessions each; they differ only
//! in where a session's seed comes from.

use crate::api::SetIntersection;
use crate::sets::{ElementSet, InputPair, ProblemSpec};
// The m-party analogue of a prepared plan: the derived tournament
// schedule the engine caches per `(protocol, spec, m)`.
pub use crate::topology::PreparedTournament;
use intersect_comm::chan::Chan;
use intersect_comm::coins::{CoinBlock, CoinSource};
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::{RunConfig, SessionRunner, Side};
use intersect_hash::reduce::ModPrimeReduction;
use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A protocol with its input-independent parameters already derived.
///
/// Obtained from [`SetIntersection::prepare`]; holds everything the
/// execution phase needs (hash families with their field primes, tree
/// shapes, error schedules) so repeated executions skip re-derivation.
///
/// Implementations apply the same coin-fork labels as the protocol's
/// [`SetIntersection::run`] impl, so a prepared execution is
/// bit-identical to a cold one given the same `coins`.
pub trait PreparedProtocol: Send + Sync + std::fmt::Debug {
    /// The underlying protocol's name (matches [`SetIntersection::name`]).
    fn name(&self) -> String;

    /// The problem spec this plan was prepared for.
    fn spec(&self) -> ProblemSpec;

    /// Runs the bit-exchanging phase for one party.
    ///
    /// # Errors
    ///
    /// Fails on invalid inputs or transport errors, exactly as the
    /// protocol's [`SetIntersection::run`] would.
    fn execute(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError>;

    /// Precomputes the protocol's per-session shared-randomness artefacts
    /// for a block of session seeds, off the hot path — the *offline*
    /// half of the offline/online split.
    ///
    /// The contract mirrors [`execute`](Self::execute)'s bit-exactness:
    /// whatever is presampled here must be drawn from exactly the coin
    /// forks that `execute` would draw in execution order, so a streamed
    /// session consuming slot `i` of the returned artefact behaves
    /// bit-identically to a one-shot session seeded with `seeds[i]`.
    ///
    /// The default returns `None`: execution derives everything online,
    /// as before. Plans whose per-session derivation is expensive (hash
    /// sampling over a planned field prime, say) override this.
    fn presample(&self, _seeds: &[u64]) -> Option<Arc<dyn Any + Send + Sync>> {
        None
    }

    /// Runs the bit-exchanging phase for one party *inside a stream*,
    /// given the session's [`SessionCtx`] (its stream position and the
    /// block artefact from [`presample`](Self::presample)).
    ///
    /// The default ignores the context and delegates to
    /// [`execute`](Self::execute) — correct for every plan, since
    /// presampling is only ever a relocation of the same random draws.
    ///
    /// # Errors
    ///
    /// As [`execute`](Self::execute).
    fn execute_in(
        &self,
        _ctx: &SessionCtx<'_>,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        self.execute(chan, coins, side, input)
    }
}

/// Where one streamed session sits inside its pair's stream, plus the
/// block-level artefact its plan presampled. Both parties construct the
/// same context for the same session, so presampled draws stay shared.
#[derive(Debug, Clone, Copy)]
pub struct SessionCtx<'a> {
    /// Global session index within the pair's stream (monotone across
    /// submissions; drives the pair's [`CoinBlock`] seed derivation).
    pub index: u64,
    /// Index within the current submission's presample block: slot `i`
    /// of the artefact belongs to this session.
    pub slot: usize,
    /// The artefact returned by [`PreparedProtocol::presample`] for this
    /// submission, if the plan presamples at all.
    pub presampled: Option<&'a (dyn Any + Send + Sync)>,
}

impl<'a> SessionCtx<'a> {
    /// The context of slot `slot` of a block whose first session has
    /// stream index `base`; `presampled` is the block's artefact.
    pub fn in_block(
        base: u64,
        slot: usize,
        presampled: &'a Option<Arc<dyn Any + Send + Sync>>,
    ) -> Self {
        SessionCtx {
            index: base + slot as u64,
            slot,
            presampled: presampled.as_deref(),
        }
    }
}

/// Per-client-pair correlated-randomness context: the *offline* state
/// one pair of parties accumulates so that each *online* session does as
/// little shared-randomness work as possible.
///
/// A `PairContext` owns
///
/// * the pair's prepared plan (shared with the plan cache),
/// * a pre-forked [`CoinBlock`] handing out per-session seeds
///   `stream_session_seed(pair_seed, i)` with deterministic refill, and
/// * lazily computed universe-reduction state: a pair-scoped
///   [`ModPrimeReduction`] both parties derive from the pair seed alone,
///   with no transmission (the paper's Theorem 3.1 reduction moved
///   wholly off the wire for pairs with shared setup).
///
/// Sessions are numbered by a monotone counter
/// ([`take_block`](Self::take_block)), so session `i` of a pair is
/// bit-identical to a one-shot run seeded with
/// `stream_session_seed(pair_seed, i)` no matter how sessions are batched
/// into submissions. The `generation` tag mirrors the plan cache's
/// invalidation scheme: bumping the cache generation orphans old contexts
/// without touching in-flight streams.
#[derive(Debug)]
pub struct PairContext {
    plan: Arc<dyn PreparedProtocol>,
    pair_seed: u64,
    generation: u64,
    next: AtomicU64,
    coins: Mutex<CoinBlock>,
    reduction: OnceLock<Option<ModPrimeReduction>>,
}

impl PairContext {
    /// Builds the context for one pair: `pair_seed` is the pair's stable
    /// identity (both parties must agree on it out of band).
    pub fn new(plan: Arc<dyn PreparedProtocol>, pair_seed: u64) -> Self {
        Self::with_generation(plan, pair_seed, 0)
    }

    /// As [`new`](Self::new), tagged with a cache generation.
    pub fn with_generation(
        plan: Arc<dyn PreparedProtocol>,
        pair_seed: u64,
        generation: u64,
    ) -> Self {
        PairContext {
            plan,
            pair_seed,
            generation,
            next: AtomicU64::new(0),
            coins: Mutex::new(CoinBlock::new(pair_seed)),
            reduction: OnceLock::new(),
        }
    }

    /// The pair's prepared plan.
    pub fn plan(&self) -> &Arc<dyn PreparedProtocol> {
        &self.plan
    }

    /// The spec the pair's plan was prepared for.
    pub fn spec(&self) -> ProblemSpec {
        self.plan.spec()
    }

    /// The pair's stable seed identity.
    pub fn pair_seed(&self) -> u64 {
        self.pair_seed
    }

    /// The cache generation this context was created under.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// How many sessions this pair has claimed so far.
    pub fn sessions(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Claims the next `count` session indices and returns their
    /// pre-forked seeds: `(base, seeds)` with `seeds[i] =
    /// stream_session_seed(pair_seed, base + i)`, served from the
    /// pair's [`CoinBlock`] (refilling deterministically as needed).
    pub fn take_block(&self, count: usize) -> (u64, Vec<u64>) {
        let base = self.next.fetch_add(count as u64, Ordering::Relaxed);
        let seeds = self
            .coins
            .lock()
            .expect("pair coin block lock")
            .take(base, count);
        (base, seeds)
    }

    /// How many times the pair's coin block has refilled.
    pub fn coin_refills(&self) -> u64 {
        self.coins.lock().expect("pair coin block lock").refills()
    }

    /// The pair-scoped universe reduction, computed once from the pair
    /// seed: `Some` when the spec's universe exceeds the reduction
    /// window (so reducing helps), `None` for already-small universes.
    /// Both parties of the pair derive the identical reduction with
    /// zero transmitted bits.
    pub fn reduction(&self) -> Option<&ModPrimeReduction> {
        let spec = self.spec();
        self.reduction
            .get_or_init(|| {
                let (_lo, hi) = ModPrimeReduction::window(spec.n, spec.k);
                (spec.n > hi).then(|| {
                    let mut rng = CoinSource::from_seed(self.pair_seed)
                        .fork("pair/reduction")
                        .rng();
                    ModPrimeReduction::sample(&mut rng, spec.n, spec.k)
                })
            })
            .as_ref()
    }
}

/// A plan for protocols whose parameters are input- or
/// transcript-dependent (attempt loops that resize tables, private-coin
/// wrappers that sample the reduction at run time): preparation is the
/// identity and execution delegates to [`SetIntersection::run`], which
/// is bit-exact by construction.
#[derive(Debug, Clone)]
pub(crate) struct FallbackPlan<P> {
    proto: P,
    spec: ProblemSpec,
}

impl<P: SetIntersection + Clone + 'static> FallbackPlan<P> {
    /// Wraps `proto` as a no-op plan for `spec`.
    pub fn new(proto: P, spec: ProblemSpec) -> Self {
        FallbackPlan { proto, spec }
    }
}

impl<P: SetIntersection + Clone + 'static> PreparedProtocol for FallbackPlan<P> {
    fn name(&self) -> String {
        self.proto.name()
    }

    fn spec(&self) -> ProblemSpec {
        self.spec
    }

    fn execute(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        self.proto.run(chan, coins, side, self.spec, input)
    }
}

thread_local! {
    /// One warm [`SessionRunner`] per thread: every `execute_prepared*`
    /// call reuses its paired thread and channel pair instead of
    /// spawning per session.
    static LOCAL_RUNNER: RefCell<Option<SessionRunner>> = const { RefCell::new(None) };
}

/// The output of one prepared session, mirroring
/// [`IntersectionRun`](crate::api::IntersectionRun)'s collapse rules.
type SessionResult = Result<crate::api::IntersectionRun, ProtocolError>;

/// Runs one block of same-plan sessions on this thread's warm runner —
/// the single execution path behind the three `execute_prepared*` entry
/// points, which differ only in where `seeds`, `base` (the stream index
/// of the block's first session) and `presampled` come from. Session `i`
/// runs `plan.execute_in` on `pairs[i]` with the common random string of
/// `seeds[i]` and hands its collapsed result to `settled`, in order. A
/// runner whose paired thread died is replaced before the block starts;
/// one that dies under it fails it (a session must not settle twice).
fn run_block(
    plan: &Arc<dyn PreparedProtocol>,
    pairs: &[InputPair],
    seeds: &[u64],
    base: u64,
    presampled: Option<Arc<dyn Any + Send + Sync>>,
    mut settled: impl FnMut(SessionResult),
) -> Result<(), ProtocolError> {
    // Bob's thread owns its inputs. The first one rides in the closure
    // itself, so a block of one allocates no vector for it.
    let Some((first, rest)) = pairs.split_first() else {
        return Ok(());
    };
    let t_first = first.t.clone();
    let t_rest: Vec<ElementSet> = rest.iter().map(|p| p.t.clone()).collect();
    let (plan_b, presampled_b) = (Arc::clone(plan), presampled.clone());
    LOCAL_RUNNER.with(|cell| {
        let mut slot = cell.borrow_mut();
        slot.take_if(|runner| runner.is_broken());
        slot.get_or_insert_with(SessionRunner::start).run_block(
            &RunConfig::default(),
            seeds,
            |i, chan, coins| {
                let ctx = SessionCtx::in_block(base, i, &presampled);
                plan.execute_in(&ctx, chan, coins, Side::Alice, &pairs[i].s)
            },
            move |i, chan, coins| {
                let t = if i == 0 { &t_first } else { &t_rest[i - 1] };
                let ctx = SessionCtx::in_block(base, i, &presampled_b);
                plan_b.execute_in(&ctx, chan, coins, Side::Bob, t)
            },
            |_, parts| {
                settled(parts.collapse().map(|out| crate::api::IntersectionRun {
                    alice: out.alice,
                    bob: out.bob,
                    report: out.report,
                }))
            },
        )
    })
}

/// Runs a prepared plan on `(pair.s, pair.t)` with shared seed `seed`
/// over this thread's warm [`SessionRunner`] — the single execution
/// path behind [`execute`](crate::api::execute).
///
/// Bit-for-bit identical to a dedicated
/// [`run_two_party`](intersect_comm::runner::run_two_party) call running
/// the protocol cold with the same seed.
///
/// # Errors
///
/// Propagates protocol failures with
/// [`run_two_party`](intersect_comm::runner::run_two_party)'s tie-break.
///
/// # Examples
///
/// ```
/// use intersect_core::prelude::*;
/// use intersect_core::prepared::execute_prepared;
/// use rand::SeedableRng;
///
/// let spec = ProblemSpec::new(1 << 30, 16);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let pair = InputPair::random_with_overlap(&mut rng, spec, 16, 5);
/// let plan = TreeProtocol::log_star(spec.k).prepare(spec);
/// let warm = execute_prepared(&plan, &pair, 7)?;
/// let cold = execute(&TreeProtocol::log_star(spec.k), spec, &pair, 7)?;
/// assert_eq!(warm, cold);
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
pub fn execute_prepared(
    plan: &Arc<dyn PreparedProtocol>,
    pair: &InputPair,
    seed: u64,
) -> SessionResult {
    let mut run = None;
    run_block(plan, std::slice::from_ref(pair), &[seed], 0, None, |r| {
        run = Some(r)
    })?;
    run.expect("a block of one settles one session")
}

/// Runs `pairs.len()` same-plan sessions as one block over this
/// thread's warm runner: one job hand-off for all of them, session `i`
/// seeded with `seeds[i]`. Session `i` is bit-identical to
/// `execute_prepared(plan, &pairs[i], seeds[i])`, and a per-session
/// protocol failure surfaces in that session's slot without disturbing
/// the rest.
///
/// # Panics
///
/// Panics if `seeds.len() != pairs.len()`.
///
/// # Errors
///
/// Fails only on infrastructure breakage (the runner's paired thread died).
pub fn execute_prepared_batch(
    plan: &Arc<dyn PreparedProtocol>,
    pairs: &[InputPair],
    seeds: &[u64],
) -> Result<Vec<SessionResult>, ProtocolError> {
    assert_eq!(seeds.len(), pairs.len(), "one seed per input pair");
    let mut out = Vec::with_capacity(pairs.len());
    run_block(plan, pairs, seeds, 0, None, |run| out.push(run))?;
    Ok(out)
}

/// Runs `pairs.len()` sessions of one pair's stream as one block over
/// this thread's warm runner: session seeds come from the pair's
/// [`CoinBlock`] and the plan [presamples](PreparedProtocol::presample)
/// its per-session artefacts for the whole block up front.
///
/// Session `i` of the block is bit-identical to
/// `execute_prepared(ctx.plan(), &pairs[i],
/// stream_session_seed(ctx.pair_seed(), base + i))` — the seeds are pure
/// functions of the pair seed and the session index, and presampling
/// only relocates the same coin-fork draws.
///
/// # Errors
///
/// Fails only on runner infrastructure breakage; per-session protocol
/// failures surface in that session's slot.
pub fn execute_prepared_stream(
    ctx: &PairContext,
    pairs: &[InputPair],
) -> Result<Vec<SessionResult>, ProtocolError> {
    let (base, seeds) = ctx.take_block(pairs.len());
    let presampled = ctx.plan().presample(&seeds);
    let mut out = Vec::with_capacity(pairs.len());
    run_block(ctx.plan(), pairs, &seeds, base, presampled, |run| {
        out.push(run)
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{execute, ProtocolChoice};
    use crate::tree::TreeProtocol;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn fallback_plan_matches_cold_run() {
        let spec = ProblemSpec::new(1 << 20, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let pair = InputPair::random_with_overlap(&mut rng, spec, 16, 6);
        let proto = crate::reconcile::IbltReconcile::default();
        let plan = proto.prepare(spec);
        let warm = execute_prepared(&plan, &pair, 3).unwrap();
        let cold = execute(&proto, spec, &pair, 3).unwrap();
        assert_eq!(warm, cold);
    }

    #[test]
    fn every_catalogue_plan_reports_name_and_spec() {
        let spec = ProblemSpec::new(1 << 20, 32);
        for choice in ProtocolChoice::all(3) {
            let proto = choice.build(spec);
            let plan = proto.prepare(spec);
            assert_eq!(plan.name(), proto.name(), "{choice}");
            assert_eq!(plan.spec(), spec, "{choice}");
        }
    }

    #[test]
    fn one_plan_serves_many_inputs() {
        let spec = ProblemSpec::new(1 << 30, 32);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let plan = TreeProtocol::log_star(spec.k).prepare(spec);
        for seed in 0..8 {
            let pair = InputPair::random_with_overlap(&mut rng, spec, 32, seed as usize % 32);
            let run = execute_prepared(&plan, &pair, seed).unwrap();
            assert!(run.matches(&pair.ground_truth()), "seed {seed}");
        }
    }

    /// Five pairs for `spec`, the middle one violating it on Bob's side
    /// (twice as many elements as `k` allows, so Alice has sent and waits
    /// when he refuses): its session must fail and cost nothing else in
    /// its block.
    fn pairs_with_a_violation(spec: ProblemSpec, seed: u64) -> Vec<InputPair> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let k = spec.k as usize;
        let wide = ProblemSpec::new(spec.n, spec.k * 2);
        let mut pairs: Vec<InputPair> = (0..5)
            .map(|i| InputPair::random_with_overlap(&mut rng, spec, k, 10 * i))
            .collect();
        pairs[2].t = InputPair::random_with_overlap(&mut rng, wide, 2 * k, k).t;
        pairs
    }

    #[test]
    fn streamed_sessions_match_seed_derived_one_shot_runs() {
        use intersect_comm::coins::stream_session_seed;
        let spec = ProblemSpec::new(1 << 30, 64);
        let plan = TreeProtocol::new(2).prepare(spec);
        let ctx = PairContext::new(Arc::clone(&plan), 0xfeed);
        let pairs = pairs_with_a_violation(spec, 4);
        let streamed = execute_prepared_stream(&ctx, &pairs).unwrap();
        assert_eq!(streamed.len(), pairs.len());
        for (i, (pair, run)) in pairs.iter().zip(streamed).enumerate() {
            let seed = stream_session_seed(0xfeed, i as u64);
            let solo = execute_prepared(&plan, pair, seed);
            assert_eq!(solo.is_err(), i == 2, "session {i}");
            assert_eq!(run, solo, "session {i}");
        }
    }

    #[test]
    fn pair_context_indices_are_monotone_across_submissions() {
        use intersect_comm::coins::stream_session_seed;
        let spec = ProblemSpec::new(1 << 30, 32);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let plan = TreeProtocol::log_star(spec.k).prepare(spec);
        let ctx = PairContext::new(Arc::clone(&plan), 7);
        let pairs: Vec<InputPair> = (0..4)
            .map(|_| InputPair::random_with_overlap(&mut rng, spec, 32, 16))
            .collect();
        // Two submissions over the same context: sessions keep numbering
        // from where the previous block stopped.
        let first = execute_prepared_stream(&ctx, &pairs[..2]).unwrap();
        let second = execute_prepared_stream(&ctx, &pairs[2..]).unwrap();
        assert_eq!(ctx.sessions(), 4);
        for (i, run) in first.into_iter().chain(second).enumerate() {
            let seed = stream_session_seed(7, i as u64);
            let solo = execute_prepared(&plan, &pairs[i], seed).unwrap();
            assert_eq!(run.unwrap(), solo, "session {i}");
        }
    }

    #[test]
    fn pair_context_reduction_is_pair_deterministic() {
        let spec = ProblemSpec::new(1 << 40, 64);
        let plan = TreeProtocol::new(2).prepare(spec);
        let a = PairContext::new(Arc::clone(&plan), 42);
        let b = PairContext::new(Arc::clone(&plan), 42);
        let c = PairContext::new(Arc::clone(&plan), 43);
        let ra = a.reduction().expect("2^40 universe reduces");
        assert_eq!(Some(ra), b.reduction(), "same pair seed, same reduction");
        assert_ne!(Some(ra), c.reduction(), "distinct pairs draw independently");
        // Small universes don't reduce.
        let small = ProblemSpec::new(1 << 10, 4);
        let ctx = PairContext::new(TreeProtocol::new(2).prepare(small), 42);
        assert!(ctx.reduction().is_none());
    }

    #[test]
    fn batch_sessions_match_individual_prepared_runs() {
        let spec = ProblemSpec::new(1 << 30, 64);
        let plan = TreeProtocol::new(2).prepare(spec);
        let pairs = pairs_with_a_violation(spec, 3);
        let seeds: Vec<u64> = (100..105).collect();
        let batched = execute_prepared_batch(&plan, &pairs, &seeds).unwrap();
        assert_eq!(batched.len(), pairs.len());
        for (i, ((pair, &seed), batch_run)) in pairs.iter().zip(&seeds).zip(batched).enumerate() {
            let solo = execute_prepared(&plan, pair, seed);
            assert_eq!(solo.is_err(), i == 2, "session {i}");
            assert_eq!(batch_run, solo, "session {i}");
        }
    }
}
