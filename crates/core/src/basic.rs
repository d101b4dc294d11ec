//! The `Basic-Intersection` protocol (Lemma 3.3).
//!
//! Both parties hash their elements with a shared random `h: [n] → [t]`
//! and exchange the hashed sets. Alice keeps `S' = {x ∈ S : h(x) ∈ h(T)}`,
//! Bob keeps `T' = {y ∈ T : h(y) ∈ h(S)}`. The lemma's three properties
//! hold by construction:
//!
//! 1. `S' ⊆ S`, `T' ⊆ T` — outputs are filtered inputs.
//! 2. If `S ∩ T = ∅` then `S' ∩ T' = ∅` with probability 1
//!    (`S' ∩ T' ⊆ S ∩ T` always).
//! 3. `S ∩ T ⊆ S' ∩ T'` always, and if `h` is collision-free on `S ∪ T`
//!    (probability `≥ 1 − 2^{-e}` for range `t = |S∪T|²·2^{e-1}`) then
//!    `S' = T' = S ∩ T`.
//!
//! Corollary 3.4 — the hook the verification tree hangs on — follows: if
//! the two outputs are *equal*, they both equal `S ∩ T`, so one equality
//! test certifies a correct intersection.

use crate::cost::{gamma_bits, rice_bits, PredictedCost};
use crate::prepared::PreparedProtocol;
use crate::sets::{ElementSet, ProblemSpec};
use intersect_comm::bits::BitBuf;
use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::encode::{get_gamma0, put_gamma0, RiceSubsetCodec};
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::Side;
use intersect_hash::pairwise::PairwiseFamily;

/// `Basic-Intersection` with tunable one-sided failure probability.
///
/// The cost for inputs of total size `m = |S| + |T|` is
/// `O(m·(log m + error_bits))` bits in two simultaneous exchanges
/// (≤ 4 messages, ≤ 2 causal rounds).
///
/// # Examples
///
/// ```
/// use intersect_core::basic::BasicIntersection;
/// use intersect_core::sets::{ElementSet, ProblemSpec};
/// use intersect_comm::runner::{run_two_party, RunConfig, Side};
///
/// let spec = ProblemSpec::new(1000, 8);
/// let s = ElementSet::from_iter([1u64, 5, 9, 500]);
/// let t = ElementSet::from_iter([5u64, 9, 700]);
/// let proto = BasicIntersection::new(20);
/// let out = run_two_party(
///     &RunConfig::with_seed(3),
///     |chan, coins| proto.run(chan, &coins.fork("basic"), Side::Alice, spec, &s),
///     |chan, coins| proto.run(chan, &coins.fork("basic"), Side::Bob, spec, &t),
/// )?;
/// // With overwhelming probability both sides hold exactly S ∩ T.
/// assert_eq!(out.alice.as_slice(), &[5, 9]);
/// assert_eq!(out.bob.as_slice(), &[5, 9]);
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicIntersection {
    /// Failure exponent `e`: the hash range is sized so that `h` collides
    /// somewhere on `S ∪ T` with probability at most `2^{-e}`.
    pub error_bits: usize,
}

impl BasicIntersection {
    /// Creates an instance with failure probability `2^{-error_bits}`.
    pub fn new(error_bits: usize) -> Self {
        BasicIntersection {
            error_bits: error_bits.max(1),
        }
    }

    /// The hash range `t` used for total input size `m`:
    /// `t = max(16, m²·2^{e-1})`, capped at `2^61`.
    pub fn hash_range(&self, m: u64) -> u64 {
        let cap = 1u64 << 61;
        let pairs = m.saturating_mul(m);
        let t = pairs.saturating_mul(1u64 << (self.error_bits.min(60) - 1));
        t.clamp(16, cap)
    }

    /// Expected bits of one instance on sides of `x` and `y` elements:
    /// both `γ₀` sizes, then both hashed sets as Rice codes over
    /// [`hash_range(x + y)`](Self::hash_range).
    pub(crate) fn instance_bits(&self, x: u64, y: u64) -> f64 {
        let t = self.hash_range(x + y);
        gamma_bits(x + 1) + gamma_bits(y + 1) + rice_bits(t, x, x) + rice_bits(t, y, y)
    }

    /// Expected cost of one instance on two `k`-element sets: two
    /// simultaneous exchanges.
    pub(crate) fn predicted_cost(&self, spec: ProblemSpec) -> PredictedCost {
        PredictedCost {
            bits: self.instance_bits(spec.k, spec.k),
            rounds: 2.0,
        }
    }

    /// Derives the input-independent parameters for `spec`: the hash
    /// family's field prime over the universe. The per-instance range
    /// `t` depends on runtime input sizes and stays in the execution
    /// phase.
    pub fn plan(&self, spec: ProblemSpec) -> BasicPlan {
        BasicPlan {
            proto: *self,
            spec,
            family: PairwiseFamily::new(spec.n.max(1)),
        }
    }

    /// Runs the protocol on one input per party; see [module docs](self).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or if the peer's messages are malformed.
    pub fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        Ok(self
            .run_batch(chan, coins, side, spec, std::slice::from_ref(input))?
            .pop()
            .expect("one output per input"))
    }

    /// Runs many independent `Basic-Intersection` instances in parallel:
    /// all size announcements travel in one exchange and all hashed sets in
    /// a second, so a whole batch costs the same ≤ 2 causal rounds as a
    /// single instance. Instance `i` draws its hash from
    /// `coins.fork_index(i)`, so callers re-running a failed instance must
    /// fork fresh coins.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or malformed peer messages.
    pub fn run_batch(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        inputs: &[ElementSet],
    ) -> Result<Vec<ElementSet>, ProtocolError> {
        self.run_batch_with(
            &PairwiseFamily::new(spec.n.max(1)),
            chan,
            coins,
            side,
            spec,
            inputs,
        )
    }

    /// [`run_batch`](Self::run_batch) with the hash family's field
    /// prime already found — the prepared-path hot variant. The family
    /// must cover the universe `spec.n.max(1)`; sampling from it draws
    /// exactly the bits the cold path draws, so transcripts are
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or malformed peer messages.
    pub(crate) fn run_batch_with(
        &self,
        family: &PairwiseFamily,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        _side: Side,
        spec: ProblemSpec,
        inputs: &[ElementSet],
    ) -> Result<Vec<ElementSet>, ProtocolError> {
        debug_assert_eq!(family.universe(), spec.n.max(1));
        for input in inputs {
            spec.validate(input).map_err(ProtocolError::InvalidInput)?;
        }
        if inputs.is_empty() {
            return Ok(Vec::new());
        }

        // Exchange 1: all input sizes.
        let sizes_span = intersect_obs::phase::span("core", "sizes");
        let before = chan.stats();
        let mut size_msg = BitBuf::new();
        for input in inputs {
            put_gamma0(&mut size_msg, input.len() as u64);
        }
        let their_sizes_buf = chan.exchange(size_msg)?;
        let mut r = their_sizes_buf.reader();
        let mut their_sizes = Vec::with_capacity(inputs.len());
        for _ in 0..inputs.len() {
            their_sizes.push(get_gamma0(&mut r)?);
        }
        if r.remaining() != 0 {
            return Err(ProtocolError::Internal(
                "size exchange has trailing bits".into(),
            ));
        }
        sizes_span.finish(chan.stats().delta_since(&before));

        // Exchange 2: hashed sets, one sub-codec per instance.
        let hashes_span = intersect_obs::phase::span("core", "hashes");
        let before = chan.stats();
        let mut hashes = Vec::with_capacity(inputs.len());
        let mut hash_msg = BitBuf::new();
        for (i, input) in inputs.iter().enumerate() {
            let m = input.len() as u64 + their_sizes[i];
            let t = self.hash_range(m);
            let h = family.sample(&mut coins.fork_index(i as u64).rng(), t);
            let mut hashed: Vec<u64> = input.iter().map(|x| h.eval(x)).collect();
            hashed.sort_unstable();
            hashed.dedup();
            let codec = RiceSubsetCodec::new(t, input.len() as u64);
            hash_msg.extend_from(&codec.encode(&hashed));
            hashes.push((h, t));
        }
        let their_hash_buf = chan.exchange(hash_msg)?;
        let mut r = their_hash_buf.reader();
        let mut outputs = Vec::with_capacity(inputs.len());
        for (i, input) in inputs.iter().enumerate() {
            let (h, t) = &hashes[i];
            let codec = RiceSubsetCodec::new(*t, their_sizes[i]);
            let their_hashed = codec.decode(&mut r)?;
            let lookup: std::collections::HashSet<u64> = their_hashed.into_iter().collect();
            outputs.push(input.filtered(|x| lookup.contains(&h.eval(x))));
        }
        if r.remaining() != 0 {
            return Err(ProtocolError::Internal(
                "hash exchange has trailing bits".into(),
            ));
        }
        hashes_span.finish(chan.stats().delta_since(&before));
        Ok(outputs)
    }
}

/// [`BasicIntersection`] with the universe's field prime already found.
#[derive(Debug, Clone)]
pub struct BasicPlan {
    proto: BasicIntersection,
    spec: ProblemSpec,
    family: PairwiseFamily,
}

impl PreparedProtocol for BasicPlan {
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
        Ok(self
            .proto
            .run_batch_with(
                &self.family,
                chan,
                &coins.fork("basic"),
                side,
                self.spec,
                std::slice::from_ref(input),
            )?
            .pop()
            .expect("one output per input"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::InputPair;
    use intersect_comm::runner::{run_two_party, RunConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_basic(
        seed: u64,
        spec: ProblemSpec,
        s: &ElementSet,
        t: &ElementSet,
        error_bits: usize,
    ) -> (ElementSet, ElementSet, intersect_comm::stats::CostReport) {
        let proto = BasicIntersection::new(error_bits);
        let out = run_two_party(
            &RunConfig::with_seed(seed),
            |chan, coins| proto.run(chan, &coins.fork("b"), Side::Alice, spec, s),
            |chan, coins| proto.run(chan, &coins.fork("b"), Side::Bob, spec, t),
        )
        .unwrap();
        (out.alice, out.bob, out.report)
    }

    #[test]
    fn recovers_intersection_with_high_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let spec = ProblemSpec::new(100_000, 64);
        let mut exact = 0;
        for seed in 0..50 {
            let pair = InputPair::random_with_overlap(&mut rng, spec, 64, 20);
            let (s2, t2, _) = run_basic(seed, spec, &pair.s, &pair.t, 20);
            let truth = pair.ground_truth();
            // Property 3: S∩T always contained in both outputs.
            for x in truth.iter() {
                assert!(s2.contains(x) && t2.contains(x));
            }
            // Property 1.
            assert!(s2.iter().all(|x| pair.s.contains(x)));
            assert!(t2.iter().all(|x| pair.t.contains(x)));
            if s2 == truth && t2 == truth {
                exact += 1;
            }
        }
        assert!(exact >= 48, "only {exact}/50 exact recoveries");
    }

    #[test]
    fn disjoint_inputs_yield_disjoint_outputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let spec = ProblemSpec::new(10_000, 32);
        for seed in 0..30 {
            let pair = InputPair::random_with_overlap(&mut rng, spec, 32, 0);
            let (s2, t2, _) = run_basic(seed, spec, &pair.s, &pair.t, 8);
            // Property 2: intersection of outputs is empty with certainty.
            assert!(s2.intersection(&t2).is_empty());
        }
    }

    #[test]
    fn corollary_3_4_equal_outputs_imply_exact_intersection() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let spec = ProblemSpec::new(5000, 32);
        for seed in 0..40 {
            // Low error bits on purpose to get occasional collisions.
            let pair = InputPair::random_with_overlap(&mut rng, spec, 32, 16);
            let (s2, t2, _) = run_basic(seed, spec, &pair.s, &pair.t, 2);
            if s2 == t2 {
                assert_eq!(s2, pair.ground_truth(), "seed {seed}");
            }
        }
    }

    #[test]
    fn empty_inputs_are_handled() {
        let spec = ProblemSpec::new(100, 4);
        let empty = ElementSet::new();
        let t = ElementSet::from_iter([1u64, 2]);
        let (s2, t2, _) = run_basic(1, spec, &empty, &t, 10);
        assert!(s2.is_empty());
        assert!(t2.is_empty());
    }

    #[test]
    fn identical_inputs_return_identical_outputs() {
        let spec = ProblemSpec::new(1000, 8);
        let s = ElementSet::from_iter([3u64, 14, 159, 265]);
        let (s2, t2, _) = run_basic(4, spec, &s, &s.clone(), 16);
        assert_eq!(s2, s);
        assert_eq!(t2, s);
    }

    #[test]
    fn cost_scales_with_error_bits() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let spec = ProblemSpec::new(1 << 30, 256);
        let pair = InputPair::random_with_overlap(&mut rng, spec, 256, 64);
        let (_, _, cheap) = run_basic(1, spec, &pair.s, &pair.t, 4);
        let (_, _, pricey) = run_basic(1, spec, &pair.s, &pair.t, 40);
        assert!(pricey.total_bits() > cheap.total_bits());
        // Cost per element is O(log m + e), far below log n = 30.
        let per_elem = cheap.total_bits() as f64 / 512.0;
        assert!(per_elem < 25.0, "per-element cost {per_elem}");
    }

    #[test]
    fn runs_in_two_causal_rounds() {
        let spec = ProblemSpec::new(100, 4);
        let s = ElementSet::from_iter([1u64, 2]);
        let t = ElementSet::from_iter([2u64, 3]);
        let (_, _, report) = run_basic(2, spec, &s, &t, 10);
        assert!(report.rounds <= 2, "rounds = {}", report.rounds);
        assert_eq!(report.messages, 4);
    }

    #[test]
    fn batch_outputs_match_individual_runs() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let spec = ProblemSpec::new(10_000, 16);
        let pairs: Vec<InputPair> = (0..10)
            .map(|i| InputPair::random_with_overlap(&mut rng, spec, 16, i))
            .collect();
        let ss: Vec<ElementSet> = pairs.iter().map(|p| p.s.clone()).collect();
        let ts: Vec<ElementSet> = pairs.iter().map(|p| p.t.clone()).collect();
        let proto = BasicIntersection::new(24);
        let out = run_two_party(
            &RunConfig::with_seed(8),
            |chan, coins| proto.run_batch(chan, &coins.fork("b"), Side::Alice, spec, &ss),
            |chan, coins| proto.run_batch(chan, &coins.fork("b"), Side::Bob, spec, &ts),
        )
        .unwrap();
        assert!(out.report.rounds <= 2);
        for (i, pair) in pairs.iter().enumerate() {
            let truth = pair.ground_truth();
            for x in truth.iter() {
                assert!(out.alice[i].contains(x));
                assert!(out.bob[i].contains(x));
            }
        }
    }

    #[test]
    fn rejects_oversized_input() {
        let spec = ProblemSpec::new(100, 2);
        let s = ElementSet::from_iter([1u64, 2, 3]);
        let t = ElementSet::from_iter([1u64]);
        let proto = BasicIntersection::new(10);
        let err = run_two_party(
            &RunConfig::with_seed(1),
            |chan, coins| proto.run(chan, &coins.fork("b"), Side::Alice, spec, &s),
            |chan, coins| proto.run(chan, &coins.fork("b"), Side::Bob, spec, &t),
        )
        .unwrap_err();
        assert!(matches!(err, ProtocolError::InvalidInput(_)));
    }

    #[test]
    fn hash_range_respects_bounds() {
        let p = BasicIntersection::new(10);
        assert!(p.hash_range(0) >= 16);
        assert!(p.hash_range(1 << 30) <= 1 << 61);
        assert_eq!(p.hash_range(4), 16 * 512);
    }
}
