//! Constructive private-coin protocols (§3.1 of the paper).
//!
//! Newman's theorem converts any shared-coin protocol into a private-coin
//! one at `+O(log log T)` bits, but non-constructively. The paper instead
//! gives a *constructive* recipe, implemented here as a wrapper:
//!
//! 1. Alice uses her **private** randomness to sample the FKS mod-prime
//!    universe reduction `x ↦ x mod q` (\[FKS84\], [`intersect_hash::reduce`])
//!    and transmits its seed — `O(log k + log log n)` bits — shrinking the
//!    effective universe to `Õ(k² log n)`.
//! 2. Alice samples and transmits a session seed of
//!    `O(log k + log log n)` bits from which both parties derive every
//!    hash function the inner protocol needs over the *reduced* universe
//!    (where seeds of that length suffice to describe a pairwise-
//!    independent function).
//!
//! Total overhead: `O(log k + log log n)` bits and one extra message,
//! matching Theorem 3.1's private-randomness claim. The inner protocol
//! never touches the original common random string.

use crate::api::SetIntersection;
use crate::sets::{ElementSet, ProblemSpec};
use intersect_comm::bits::BitBuf;
use intersect_comm::chan::Chan;
use intersect_comm::coins::{stream_session_seed, CoinSource};
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::Side;
use intersect_hash::reduce::ModPrimeReduction;
use rand::Rng;
use std::collections::HashMap;

/// The correlated randomness one pair of parties accumulates across a
/// *stream* of private-coin sessions: the universe reduction and session
/// seed exchanged once, in session 0, then reused — later sessions derive
/// fresh per-session coins from the transmitted seed with **zero**
/// further setup bits on the wire. This is the amortization of the
/// paper's Theorem 3.1 overhead: `O(log k + log log n)` setup bits total
/// for the pair instead of per session, so amortized cost approaches the
/// shared-coin protocol's as the stream grows.
#[derive(Debug, Clone)]
pub struct PairRandomness {
    reduction: Option<ModPrimeReduction>,
    session: u64,
    used: u64,
}

impl PairRandomness {
    /// The transmitted session seed the pair's coin derivations chain
    /// from.
    pub fn session_seed(&self) -> u64 {
        self.session
    }

    /// How many streamed sessions have consumed this state.
    pub fn sessions_run(&self) -> u64 {
        self.used
    }

    /// The pair's shared universe reduction, if the universe was large
    /// enough to reduce.
    pub fn reduction(&self) -> Option<&ModPrimeReduction> {
        self.reduction.as_ref()
    }
}

/// Wraps a shared-coin [`SetIntersection`] protocol into a constructive
/// private-coin protocol.
///
/// # Examples
///
/// ```
/// use intersect_core::newman::PrivateCoin;
/// use intersect_core::api::execute;
/// use intersect_core::sets::{InputPair, ProblemSpec};
/// use intersect_core::tree::TreeProtocol;
/// use rand::SeedableRng;
///
/// let spec = ProblemSpec::new(1 << 40, 32);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
/// let pair = InputPair::random_with_overlap(&mut rng, spec, 32, 8);
/// let proto = PrivateCoin::new(TreeProtocol::new(2));
/// let run = execute(&proto, spec, &pair, 1)?;
/// assert!(run.matches(&pair.ground_truth()));
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PrivateCoin<P> {
    /// The shared-coin protocol being wrapped.
    pub inner: P,
}

impl<P> PrivateCoin<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        PrivateCoin { inner }
    }

    /// The transmitted session-seed width for a given spec:
    /// `O(log k + log log n)` bits.
    pub fn session_seed_bits(spec: ProblemSpec) -> usize {
        let log_k = crate::iterlog::ceil_log2(spec.k.max(2)) as usize;
        let loglog_n =
            crate::iterlog::ceil_log2(crate::iterlog::ceil_log2(spec.n.max(4)).max(2)) as usize;
        (2 * (log_k + loglog_n) + 16).min(64)
    }
}

impl<P: SetIntersection + Clone + 'static> PrivateCoin<P> {
    /// The one extra message of Theorem 3.1: Alice samples the universe
    /// reduction and session seed from her private randomness and
    /// transmits both; Bob reads them. Exactly `run`'s setup exchange.
    fn exchange_setup(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
    ) -> Result<(Option<ModPrimeReduction>, u64), ProtocolError> {
        let seed_w = Self::session_seed_bits(spec);
        let (_lo, hi) = ModPrimeReduction::window(spec.n, spec.k);
        // Reduction helps only if it shrinks the universe.
        let reduce = spec.n > hi;
        match side {
            Side::Alice => {
                // Alice's private randomness: a fork Bob never reads and the
                // inner protocol never sees — private for accounting
                // purposes, reproducible for experiments.
                let mut rng = coins.fork("newman/alice-private").rng();
                let mut msg = BitBuf::new();
                let reduction = if reduce {
                    let red = ModPrimeReduction::sample(&mut rng, spec.n, spec.k);
                    red.write_seed(&mut msg);
                    Some(red)
                } else {
                    None
                };
                let session: u64 = rng.gen::<u64>() & ((1u128 << seed_w) - 1) as u64;
                msg.push_bits(session, seed_w);
                chan.send(msg)?;
                Ok((reduction, session))
            }
            Side::Bob => {
                let msg = chan.recv()?;
                let mut r = msg.reader();
                let reduction = if reduce {
                    Some(ModPrimeReduction::read_seed(&mut r, spec.n, spec.k)?)
                } else {
                    None
                };
                let session = r.read_bits(seed_w)?;
                Ok((reduction, session))
            }
        }
    }

    /// Runs the inner protocol under an already-agreed reduction and
    /// session-coin source: maps the input into the reduced universe,
    /// executes, and maps the output back.
    fn run_reduced(
        &self,
        chan: &mut dyn Chan,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
        reduction: Option<&ModPrimeReduction>,
        session_coins: &CoinSource,
    ) -> Result<ElementSet, ProtocolError> {
        // Map inputs into the reduced universe (merging own-set collisions,
        // keeping the smallest original — part of the failure budget).
        let (work_set, back_map, inner_spec) = match reduction {
            None => {
                let map: HashMap<u64, u64> = input.iter().map(|x| (x, x)).collect();
                (input.clone(), map, spec)
            }
            Some(red) => {
                let mut map = HashMap::with_capacity(input.len());
                for x in input.iter() {
                    map.entry(red.map(x)).or_insert(x);
                }
                let set: ElementSet = map.keys().copied().collect();
                let inner_spec = ProblemSpec {
                    n: red.reduced_universe(),
                    k: spec.k,
                };
                (set, map, inner_spec)
            }
        };
        let out = self
            .inner
            .run(chan, session_coins, side, inner_spec, &work_set)?;
        Ok(out
            .iter()
            .map(|m| *back_map.get(&m).expect("output is a subset of the input"))
            .collect())
    }

    /// Runs one session of a private-coin *stream* sharing `state`
    /// across sessions of one pair.
    ///
    /// The first call (with `*state == None`) performs the full setup
    /// exchange and is **bit-identical** to [`run`](SetIntersection::run)
    /// with the same `coins`. Every later call transmits *zero* setup
    /// bits: both parties already hold the reduction, and session `i`'s
    /// inner coins derive from the transmitted seed as
    /// `stream_session_seed(session, i)` — correlated randomness
    /// consumed off the wire. Amortized over an `N`-session stream the
    /// Theorem 3.1 overhead drops from `O(log k + log log n)` per
    /// session to `O((log k + log log n)/N)`.
    ///
    /// # Errors
    ///
    /// As [`run`](SetIntersection::run).
    pub fn run_streamed(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
        state: &mut Option<PairRandomness>,
    ) -> Result<ElementSet, ProtocolError> {
        spec.validate(input).map_err(ProtocolError::InvalidInput)?;
        if state.is_none() {
            let (reduction, session) = self.exchange_setup(chan, coins, side, spec)?;
            *state = Some(PairRandomness {
                reduction,
                session,
                used: 0,
            });
        }
        let st = state.as_mut().expect("state initialized above");
        // Session 0 replays `run`'s derivation exactly; later sessions
        // chain pure per-session seeds off the one transmitted seed.
        let seed = if st.used == 0 {
            st.session
        } else {
            stream_session_seed(st.session, st.used)
        };
        st.used += 1;
        let session_coins = CoinSource::from_seed(seed).fork("newman/session");
        let reduction = st.reduction.clone();
        self.run_reduced(chan, side, spec, input, reduction.as_ref(), &session_coins)
    }
}

impl<P: SetIntersection + Clone + 'static> SetIntersection for PrivateCoin<P> {
    fn name(&self) -> String {
        format!("private-coin({})", self.inner.name())
    }

    // The reduction is sampled from Alice's private coins at run time, so
    // there is nothing input-independent to hoist.
    fn prepare(&self, spec: ProblemSpec) -> std::sync::Arc<dyn crate::prepared::PreparedProtocol> {
        std::sync::Arc::new(crate::prepared::FallbackPlan::new(self.clone(), spec))
    }

    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        spec.validate(input).map_err(ProtocolError::InvalidInput)?;
        // One extra message: Alice's private choices.
        let (reduction, session) = self.exchange_setup(chan, coins, side, spec)?;
        // The inner protocol runs on coins derived ONLY from the
        // transmitted session seed.
        let session_coins = CoinSource::from_seed(session).fork("newman/session");
        self.run_reduced(chan, side, spec, input, reduction.as_ref(), &session_coins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::execute;
    use crate::sets::InputPair;
    use crate::sqrt::SqrtProtocol;
    use crate::tree::TreeProtocol;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn private_coin_tree_is_correct() {
        let spec = ProblemSpec::new(1 << 40, 64);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let proto = PrivateCoin::new(TreeProtocol::new(3));
        let mut exact = 0;
        for seed in 0..30 {
            let pair = InputPair::random_with_overlap(&mut rng, spec, 64, 20);
            if execute(&proto, spec, &pair, seed)
                .unwrap()
                .matches(&pair.ground_truth())
            {
                exact += 1;
            }
        }
        assert!(exact >= 28, "{exact}/30");
    }

    #[test]
    fn private_coin_sqrt_is_correct() {
        let spec = ProblemSpec::new(1 << 36, 32);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let proto = PrivateCoin::new(SqrtProtocol::default());
        let pair = InputPair::random_with_overlap(&mut rng, spec, 32, 16);
        let run = execute(&proto, spec, &pair, 3).unwrap();
        assert!(run.matches(&pair.ground_truth()));
    }

    #[test]
    fn overhead_is_loglog_in_n() {
        // The extra cost vs the shared-coin protocol is the seed message:
        // O(log k + log log n) bits — compare n = 2^30 vs n = 2^60.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut overheads = Vec::new();
        for log_n in [30u32, 60] {
            let spec = ProblemSpec::new(1 << log_n, 64);
            let pair = InputPair::random_with_overlap(&mut rng, spec, 64, 32);
            let shared = execute(&TreeProtocol::new(2), spec, &pair, 7).unwrap();
            let private = execute(&PrivateCoin::new(TreeProtocol::new(2)), spec, &pair, 7).unwrap();
            assert!(private.matches(&pair.ground_truth()));
            overheads.push(private.report.total_bits() as i64 - shared.report.total_bits() as i64);
        }
        // Overheads are small and grow by O(1) bits when n squares.
        for &o in &overheads {
            assert!(o.unsigned_abs() < 600, "overhead {o} too large");
        }
    }

    #[test]
    fn seed_width_is_modest() {
        let spec = ProblemSpec::new(1 << 60, 1 << 14);
        assert!(PrivateCoin::<TreeProtocol>::session_seed_bits(spec) <= 64);
        let small = ProblemSpec::new(1 << 16, 16);
        assert!(PrivateCoin::<TreeProtocol>::session_seed_bits(small) <= 40);
    }

    #[test]
    fn streamed_session_zero_is_bit_identical_to_one_shot() {
        use intersect_comm::runner::{run_two_party, RunConfig};
        let spec = ProblemSpec::new(1 << 40, 32);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let pair = InputPair::random_with_overlap(&mut rng, spec, 32, 12);
        let proto = PrivateCoin::new(TreeProtocol::new(2));
        let cfg = RunConfig::with_seed(42);
        let one_shot = run_two_party(
            &cfg,
            |chan, coins| proto.run(chan, coins, Side::Alice, spec, &pair.s),
            |chan, coins| proto.run(chan, coins, Side::Bob, spec, &pair.t),
        )
        .unwrap();
        let mut state_a = None;
        let mut state_b = None;
        let streamed = run_two_party(
            &cfg,
            |chan, coins| proto.run_streamed(chan, coins, Side::Alice, spec, &pair.s, &mut state_a),
            |chan, coins| proto.run_streamed(chan, coins, Side::Bob, spec, &pair.t, &mut state_b),
        )
        .unwrap();
        assert_eq!(streamed.report, one_shot.report);
        assert_eq!(streamed.alice, one_shot.alice);
        assert_eq!(streamed.bob, one_shot.bob);
        assert_eq!(state_a.unwrap().sessions_run(), 1);
    }

    #[test]
    fn streamed_sessions_amortize_the_setup_bits() {
        use crate::trivial::TrivialExchange;
        use intersect_comm::runner::{RunConfig, SessionRunner};
        let spec = ProblemSpec::new(1 << 40, 32);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        // A deterministic inner protocol and one fixed input pair make
        // the setup-amortization accounting exact: every session after
        // the first must cost precisely `setup_bits` less.
        let pair = InputPair::random_with_overlap(&mut rng, spec, 32, 10);
        let proto = PrivateCoin::new(TrivialExchange::default());
        let n_sessions = 6usize;
        let seeds = vec![42u64; n_sessions];
        let mut runner = SessionRunner::start();
        let mut state_a = None;
        let mut state_b = None;
        let (s, t) = (pair.s.clone(), pair.t.clone());
        let mut parts = Vec::new();
        runner
            .run_block(
                &RunConfig::default(),
                &seeds,
                |_, chan, coins| {
                    proto.run_streamed(chan, coins, Side::Alice, spec, &s, &mut state_a)
                },
                move |_, chan, coins| {
                    proto.run_streamed(chan, coins, Side::Bob, spec, &t, &mut state_b)
                },
                |_, settled| parts.push(settled),
            )
            .unwrap();
        let setup_bits = (ModPrimeReduction::seed_bits(spec.n, spec.k)
            + PrivateCoin::<TrivialExchange>::session_seed_bits(spec))
            as u64;
        let bits: Vec<u64> = parts.iter().map(|p| p.report.total_bits()).collect();
        let truth = pair.ground_truth();
        for (i, parts) in parts.iter().enumerate() {
            assert_eq!(parts.alice.as_ref().unwrap(), &truth, "session {i} exact");
        }
        // Sessions after the first transmit zero setup bits …
        for (i, &b) in bits.iter().enumerate().skip(1) {
            assert_eq!(b + setup_bits, bits[0], "session {i} carries no setup");
        }
        // … so amortized bits/session strictly decreases with stream
        // length: total(N)/N bends below the one-shot cost bits[0].
        let amortized = |n: usize| bits[..n].iter().sum::<u64>() as f64 / n as f64;
        assert!(amortized(6) < amortized(2));
        assert!(amortized(2) < amortized(1));
    }

    #[test]
    fn small_universe_skips_reduction() {
        let spec = ProblemSpec::new(1000, 8);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let pair = InputPair::random_with_overlap(&mut rng, spec, 8, 3);
        let proto = PrivateCoin::new(TreeProtocol::new(2));
        let run = execute(&proto, spec, &pair, 5).unwrap();
        assert!(run.matches(&pair.ground_truth()));
    }
}
