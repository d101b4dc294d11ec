//! The one-round randomized protocol: `R⁽¹⁾(INT_k) = O(k·log k)`.
//!
//! Alice hashes each of her elements to an `O(log k)`-bit fingerprint with
//! a shared hash `g : [n] → [k²·2^e]` and sends the fingerprint set. Bob
//! keeps every `y ∈ T` with `g(y) ∈ g(S)` — a superset of `S ∩ T` with
//! certainty, and exactly `S ∩ T` unless some `y ∈ T ∖ S` collides with an
//! element of `S` (probability `≤ 2^{-e}` by a union bound over the
//! `≤ k·k` cross pairs). The echo message symmetrizes the output.
//!
//! The paper notes this is optimal for one round:
//! `R⁽¹⁾(DISJ_k) = Ω(k log k)` [DKS12, BGSMdW12] — compare experiment E4,
//! which locates the crossover against the deterministic
//! `O(k log(n/k))` exchange as `n/k` varies.

use crate::cost::{rice_bits, PredictedCost};
use crate::iterlog::ceil_log2;
use crate::prepared::{PreparedProtocol, SessionCtx};
use crate::sets::{ElementSet, ProblemSpec};
use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::encode::RiceSubsetCodec;
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::Side;
use intersect_hash::pairwise::{PairwiseFamily, PairwiseHash};
use std::any::Any;
use std::sync::Arc;

/// The one-round (plus optional echo) hashing protocol.
///
/// # Examples
///
/// ```
/// use intersect_core::one_round::OneRoundHash;
/// use intersect_core::sets::{ElementSet, ProblemSpec};
/// use intersect_comm::runner::{run_two_party, RunConfig, Side};
///
/// let spec = ProblemSpec::new(1 << 30, 8);
/// let s = ElementSet::from_iter([42u64, 1 << 20, 7]);
/// let t = ElementSet::from_iter([42u64, 1 << 20, 9]);
/// let proto = OneRoundHash::new(20);
/// let out = run_two_party(
///     &RunConfig::with_seed(2),
///     |chan, coins| proto.run(chan, &coins.fork("1r"), Side::Alice, spec, &s),
///     |chan, coins| proto.run(chan, &coins.fork("1r"), Side::Bob, spec, &t),
/// )?;
/// assert_eq!(out.alice.as_slice(), &[42, 1 << 20]);
/// assert_eq!(out.alice, out.bob);
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneRoundHash {
    /// Failure exponent `e`: the output is exact with probability
    /// `≥ 1 − 2^{-e+1}`.
    pub error_bits: usize,
    /// Whether Bob echoes fingerprints of the candidates so Alice also
    /// learns the intersection (costs a second message).
    pub echo: bool,
}

impl OneRoundHash {
    /// Creates the protocol with echo enabled.
    pub fn new(error_bits: usize) -> Self {
        OneRoundHash {
            error_bits: error_bits.max(1),
            echo: true,
        }
    }

    /// The fingerprint range: `k²·2^e`, capped at `2^61` — and at `n`
    /// itself, since a range beyond the universe buys nothing (when the cap
    /// binds, the identity map is collision-free and the protocol is exact).
    pub fn hash_range(&self, spec: ProblemSpec) -> u64 {
        let k2 = spec.k.saturating_mul(spec.k).max(4);
        let shift = (self.error_bits as u32).min(61 - ceil_log2(k2).min(60) as u32);
        k2.saturating_mul(1 << shift)
            .clamp(16, 1 << 61)
            .min(spec.n.max(16))
    }

    /// Expected cost on two `k`-element sets sharing `overlap`: Alice's
    /// fingerprints, then Bob's echo of the candidates, each a Rice code
    /// over [`hash_range`](Self::hash_range) (false candidates, at most
    /// `2^{-e}` of a set, are not priced).
    pub(crate) fn predicted_cost(&self, spec: ProblemSpec, overlap: u64) -> PredictedCost {
        let range = self.hash_range(spec);
        let echo = if self.echo {
            rice_bits(range, spec.k, overlap)
        } else {
            0.0
        };
        PredictedCost {
            bits: rice_bits(range, spec.k, spec.k) + echo,
            rounds: 1.0 + self.echo as u8 as f64,
        }
    }

    /// Derives the input-independent parameters for `spec`: the
    /// fingerprint range and the hash family's field prime.
    pub fn plan(&self, spec: ProblemSpec) -> OneRoundPlan {
        let range = self.hash_range(spec);
        OneRoundPlan {
            proto: *self,
            spec,
            range,
            // When the range covers the whole universe, skip hashing
            // entirely: the identity is collision-free and strictly
            // cheaper on the wire.
            family: (range < spec.n).then(|| PairwiseFamily::new(spec.n.max(1))),
        }
    }

    /// Runs the protocol; see [module docs](self).
    ///
    /// # Errors
    ///
    /// Fails on invalid inputs or transport errors.
    pub fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        self.plan(spec).execute_with(chan, coins, side, input)
    }
}

/// [`OneRoundHash`] with the fingerprint range and hash family fixed.
#[derive(Debug, Clone)]
pub struct OneRoundPlan {
    proto: OneRoundHash,
    spec: ProblemSpec,
    range: u64,
    family: Option<PairwiseFamily>,
}

impl OneRoundPlan {
    /// The bit-exchanging phase, with `coins` already forked to the
    /// protocol's namespace.
    fn execute_with(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        let g = self
            .family
            .as_ref()
            .map(|family| family.sample(&mut coins.fork("g").rng(), self.range));
        self.execute_with_g(chan, g, side, input)
    }

    /// The bit-exchanging phase with the shared hash already drawn —
    /// either just now ([`execute_with`](Self::execute_with)) or ahead
    /// of time by [`presample`](PreparedProtocol::presample) from the
    /// same coin fork.
    fn execute_with_g(
        &self,
        chan: &mut dyn Chan,
        g: Option<PairwiseHash>,
        side: Side,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        let spec = self.spec;
        spec.validate(input).map_err(ProtocolError::InvalidInput)?;
        let range = self.range;
        let g = move |x: u64| match &g {
            Some(h) => h.eval(x),
            None => x,
        };
        let codec = RiceSubsetCodec::new(range, spec.k);
        let my_hashes = |set: &ElementSet| -> Vec<u64> {
            let mut v: Vec<u64> = set.iter().map(&g).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let span = intersect_obs::phase::span("core", "fingerprint");
        let before = chan.stats();
        let out = match side {
            Side::Alice => {
                chan.send(codec.encode(&my_hashes(input)))?;
                if self.proto.echo {
                    let reply = chan.recv()?;
                    let candidates: std::collections::HashSet<u64> =
                        codec.decode(&mut reply.reader())?.into_iter().collect();
                    input.filtered(|x| candidates.contains(&g(x)))
                } else {
                    input.clone()
                }
            }
            Side::Bob => {
                let theirs = chan.recv()?;
                let s_hashes: std::collections::HashSet<u64> =
                    codec.decode(&mut theirs.reader())?.into_iter().collect();
                let candidates = input.filtered(|y| s_hashes.contains(&g(y)));
                if self.proto.echo {
                    chan.send(codec.encode(&my_hashes(&candidates)))?;
                }
                candidates
            }
        };
        span.finish(chan.stats().delta_since(&before));
        Ok(out)
    }
}

/// One shared hash per session of a streamed block, drawn off the hot
/// path from exactly the coin forks execution would use.
#[derive(Debug)]
struct OneRoundPresample {
    g: Vec<PairwiseHash>,
}

impl PreparedProtocol for OneRoundPlan {
    fn name(&self) -> String {
        crate::api::SetIntersection::name(&self.proto)
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
        // Same fork label as the `SetIntersection` impl, so prepared
        // and cold executions draw identical coins.
        self.execute_with(chan, &coins.fork("one-round"), side, input)
    }

    fn presample(&self, seeds: &[u64]) -> Option<Arc<dyn Any + Send + Sync>> {
        // Replays, per seed, the exact draw `execute` would make online:
        // fork "one-round" (the prepared entry point) then "g".
        let family = self.family.as_ref()?;
        let g = seeds
            .iter()
            .map(|&s| {
                let mut rng = CoinSource::from_seed(s).fork("one-round").fork("g").rng();
                family.sample(&mut rng, self.range)
            })
            .collect();
        Some(Arc::new(OneRoundPresample { g }))
    }

    fn execute_in(
        &self,
        ctx: &SessionCtx<'_>,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        match ctx
            .presampled
            .and_then(|p| p.downcast_ref::<OneRoundPresample>())
        {
            Some(pre) if ctx.slot < pre.g.len() => {
                self.execute_with_g(chan, Some(pre.g[ctx.slot].clone()), side, input)
            }
            _ => self.execute(chan, coins, side, input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::InputPair;
    use intersect_comm::runner::{run_two_party, RunConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_one_round(
        seed: u64,
        proto: OneRoundHash,
        spec: ProblemSpec,
        s: &ElementSet,
        t: &ElementSet,
    ) -> (ElementSet, ElementSet, intersect_comm::stats::CostReport) {
        let out = run_two_party(
            &RunConfig::with_seed(seed),
            |chan, coins| proto.run(chan, &coins.fork("1r"), Side::Alice, spec, s),
            |chan, coins| proto.run(chan, &coins.fork("1r"), Side::Bob, spec, t),
        )
        .unwrap();
        (out.alice, out.bob, out.report)
    }

    #[test]
    fn exact_with_high_probability_and_superset_always() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let spec = ProblemSpec::new(1 << 40, 64);
        let mut exact = 0;
        for seed in 0..50 {
            let pair = InputPair::random_with_overlap(&mut rng, spec, 64, 17);
            let truth = pair.ground_truth();
            let (a, b, _) = run_one_round(seed, OneRoundHash::new(20), spec, &pair.s, &pair.t);
            for x in truth.iter() {
                assert!(a.contains(x) && b.contains(x), "lost element {x}");
            }
            if a == truth && b == truth {
                exact += 1;
            }
        }
        assert!(exact >= 48, "{exact}/50 exact");
    }

    #[test]
    fn cost_is_k_log_k_independent_of_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let k = 256usize;
        let mut costs = Vec::new();
        for log_n in [30u32, 40, 60] {
            let spec = ProblemSpec::new(1 << log_n, k as u64);
            let pair = InputPair::random_with_overlap(&mut rng, spec, k, 0);
            let (_, _, report) = run_one_round(3, OneRoundHash::new(10), spec, &pair.s, &pair.t);
            costs.push(report.bits_alice);
        }
        // First-message cost must not grow with n.
        assert!(costs[2] <= costs[0] + 64, "{costs:?}");
        // And it is ≈ k (log k + e − log k …) — well under k · log n.
        assert!(costs[0] < (k as u64) * 40);
    }

    #[test]
    fn low_error_budget_produces_false_positives() {
        // With a deliberately tiny range the candidate set strictly
        // contains the intersection on some seeds — demonstrating the
        // one-sidedness of the error.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let spec = ProblemSpec::new(1 << 30, 512);
        let pair = InputPair::random_with_overlap(&mut rng, spec, 512, 0);
        let mut proto = OneRoundHash::new(1);
        proto.error_bits = 1;
        let mut superset_strictly = 0;
        for seed in 0..30 {
            let (a, _, _) = run_one_round(seed, proto, spec, &pair.s, &pair.t);
            assert!(a.iter().all(|x| pair.s.contains(x)));
            if !a.is_empty() {
                superset_strictly += 1;
            }
        }
        // range = k²·2 = 2^19; cross pairs 2^18: collisions likely somewhere.
        assert!(superset_strictly > 0, "expected some false positives");
    }

    #[test]
    fn one_message_without_echo() {
        let spec = ProblemSpec::new(1000, 8);
        let s = ElementSet::from_iter([1u64, 2, 3]);
        let t = ElementSet::from_iter([3u64, 4]);
        let proto = OneRoundHash {
            error_bits: 16,
            echo: false,
        };
        let (_, b, report) = run_one_round(1, proto, spec, &s, &t);
        assert_eq!(b.as_slice(), &[3]);
        assert_eq!(report.messages, 1);
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn presampled_stream_matches_online_one_shot_runs() {
        use crate::api::SetIntersection;
        use crate::prepared::{execute_prepared, execute_prepared_stream, PairContext};
        use intersect_comm::coins::stream_session_seed;
        // n ≫ range, so the plan carries a hash family and the stream
        // path really exercises presample + execute_in.
        let spec = ProblemSpec::new(1 << 40, 32);
        let proto = OneRoundHash::new(20);
        let plan = proto.prepare(spec);
        let ctx = PairContext::new(Arc::clone(&plan), 0xabcd);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let pairs: Vec<InputPair> = (0..6)
            .map(|i| InputPair::random_with_overlap(&mut rng, spec, 32, 5 * (i % 3)))
            .collect();
        let streamed = execute_prepared_stream(&ctx, &pairs).unwrap();
        for (i, (pair, run)) in pairs.iter().zip(streamed).enumerate() {
            let seed = stream_session_seed(0xabcd, i as u64);
            let solo = execute_prepared(&plan, pair, seed).unwrap();
            assert_eq!(run.unwrap(), solo, "session {i}");
        }
    }

    #[test]
    fn handles_equal_sets_and_empty_sets() {
        let spec = ProblemSpec::new(10_000, 32);
        let s = ElementSet::from_iter((0..32u64).map(|i| i * 37));
        let (a, b, _) = run_one_round(5, OneRoundHash::new(20), spec, &s, &s.clone());
        assert_eq!(a, s);
        assert_eq!(b, s);
        let empty = ElementSet::new();
        let (a, b, _) = run_one_round(6, OneRoundHash::new(20), spec, &empty, &s);
        assert!(a.is_empty() && b.is_empty());
    }
}
