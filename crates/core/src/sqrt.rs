//! The `O(√k)`-round, `O(k)`-bit protocol (Theorem 3.1).
//!
//! Steps, exactly as in the paper's proof:
//!
//! 1. Pick a shared `H : [n] → [N]`, `N = k^c` (`c > 2`), collision-free on
//!    `S ∪ T` with probability `1 − 1/Ω(k^{c-2})`; work over `[N]`.
//! 2. Pick a shared `h : [N] → [k]` and form the preimage buckets
//!    `S_i = h^{-1}(i) ∩ S`, `T_i = h^{-1}(i) ∩ T`.
//! 3. Build the equality collection `E = ⊔ᵢ E_i`, where
//!    `E_i = {EQ(s, t) : (s, t) ∈ S_i × T_i}`. The expected number of
//!    instances is at most `6k` (equation (1) in the paper: each bucket
//!    contributes `|S_i|·|T_i| ≤ |(S∪T)_i|²`, and the binomial second
//!    moment bounds the sum).
//! 4. Solve the whole collection with the amortized equality protocol of
//!    Theorem 3.2 ([`crate::fknn`]): `O(k)` expected bits, `O(√k)` rounds,
//!    error `2^{-Ω(√k)}`.
//! 5. An element is in the intersection iff one of its pairs was judged
//!    equal; map back to original values.
//!
//! Bucket sizes must be shared knowledge to align the pair lists, so the
//! parties first exchange their bucket-size vectors (`O(k)` bits, one
//! simultaneous exchange — absorbed in the `O(k)` total).

use crate::cost::{bucket_size_bits, PredictedCost};
use crate::fknn::AmortizedEquality;
use crate::prepared::PreparedProtocol;
use crate::sets::{ElementSet, ProblemSpec};
use intersect_comm::bits::BitBuf;
use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::encode::{get_gamma0, put_gamma0};
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::Side;
use intersect_hash::pairwise::PairwiseFamily;
use std::collections::HashMap;

/// The bucketed amortized-equality intersection protocol.
///
/// # Examples
///
/// ```
/// use intersect_core::sqrt::SqrtProtocol;
/// use intersect_core::sets::{ElementSet, ProblemSpec};
/// use intersect_comm::runner::{run_two_party, RunConfig, Side};
///
/// let spec = ProblemSpec::new(1 << 30, 16);
/// let s = ElementSet::from_iter((0..16u64).map(|i| i * 31));
/// let t = ElementSet::from_iter((4..20u64).map(|i| i * 31));
/// let proto = SqrtProtocol::default();
/// let out = run_two_party(
///     &RunConfig::with_seed(11),
///     |chan, coins| proto.run(chan, &coins.fork("sq"), Side::Alice, spec, &s),
///     |chan, coins| proto.run(chan, &coins.fork("sq"), Side::Bob, spec, &t),
/// )?;
/// assert_eq!(out.alice, s.intersection(&t));
/// assert_eq!(out.bob, s.intersection(&t));
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SqrtProtocol {
    /// Universe-reduction exponent `c > 2` (`N = k^c`).
    pub reduction_exponent: u32,
    /// The inner amortized-equality engine.
    pub equality: AmortizedEquality,
}

impl Default for SqrtProtocol {
    fn default() -> Self {
        SqrtProtocol {
            reduction_exponent: 3,
            equality: AmortizedEquality::new(),
        }
    }
}

impl SqrtProtocol {
    /// The reduced-universe size `N = k^c`, floored at `2^28` (seeds are
    /// free in the shared-coin model, so small `k` keeps a big hash space)
    /// and capped at `2^61`.
    pub fn reduced_universe(&self, k: u64) -> u64 {
        let mut n = 1u64;
        for _ in 0..self.reduction_exponent {
            n = n.saturating_mul(k.max(2));
        }
        n.clamp(1 << 28, 1 << 61)
    }

    /// Expected cost on two `k`-element sets sharing `overlap`: both
    /// bucket-size vectors in one exchange, then the amortized equality
    /// run over the pairs that share a bucket — each shared element
    /// meets its twin, and any other of the `k²` cross pairs collides
    /// with probability `1/k` (equation (1)).
    pub(crate) fn predicted_cost(&self, spec: ProblemSpec, overlap: u64) -> PredictedCost {
        let buckets = spec.k.max(2);
        let (items, shared) = (spec.k as f64, overlap as f64);
        let pairs = shared + (items * items - shared) / buckets as f64;
        let equality = self.equality.predicted_cost(pairs, shared);
        PredictedCost {
            bits: 2.0 * buckets as f64 * bucket_size_bits(spec.k, buckets) + equality.bits,
            rounds: 1.0 + equality.rounds,
        }
    }

    /// Derives the input-independent parameters for `spec`: the reduced
    /// universe and the field primes for the reduction and bucket hash
    /// families.
    pub fn plan(&self, spec: ProblemSpec) -> SqrtPlan {
        let k = spec.k.max(2);
        let big_n = self.reduced_universe(k);
        SqrtPlan {
            proto: *self,
            spec,
            big_n,
            reduce_family: (spec.n > big_n).then(|| PairwiseFamily::new(spec.n)),
            bucket_family: PairwiseFamily::new(big_n),
        }
    }

    /// Runs the protocol; both parties output the recovered intersection.
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

/// [`SqrtProtocol`] with the reduced universe and hash families fixed.
#[derive(Debug, Clone)]
pub struct SqrtPlan {
    proto: SqrtProtocol,
    spec: ProblemSpec,
    big_n: u64,
    reduce_family: Option<PairwiseFamily>,
    bucket_family: PairwiseFamily,
}

impl SqrtPlan {
    /// The bit-exchanging phase, with `coins` already forked to the
    /// protocol's namespace.
    fn execute_with(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        let spec = self.spec;
        spec.validate(input).map_err(ProtocolError::InvalidInput)?;
        let k = spec.k.max(2);

        // Step 1: universe reduction (shared coins; free).
        let reduce_span = intersect_obs::phase::span("core", "reduce");
        let before = chan.stats();
        let big_n = self.big_n;
        let (work_set, back_map) = match &self.reduce_family {
            None => {
                let map: HashMap<u64, u64> = input.iter().map(|x| (x, x)).collect();
                (input.clone(), map)
            }
            Some(family) => {
                let h_big = family.sample(&mut coins.fork("reduce").rng(), big_n);
                let mut map = HashMap::with_capacity(input.len());
                for x in input.iter() {
                    map.entry(h_big.eval(x)).or_insert(x);
                }
                let set: ElementSet = map.keys().copied().collect();
                (set, map)
            }
        };
        reduce_span.finish(chan.stats().delta_since(&before));

        // Step 2: bucket into k preimages (plus the size-vector exchange).
        let bucket_span = intersect_obs::phase::span("core", "bucket");
        let before = chan.stats();
        let bucket_hash = self
            .bucket_family
            .sample(&mut coins.fork("bucket").rng(), k);
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); k as usize];
        for x in work_set.iter() {
            buckets[bucket_hash.eval(x) as usize].push(x);
        }
        for b in &mut buckets {
            b.sort_unstable();
        }

        // Exchange bucket-size vectors to align the pair lists.
        let mut size_msg = BitBuf::new();
        for b in &buckets {
            put_gamma0(&mut size_msg, b.len() as u64);
        }
        let their_sizes_buf = chan.exchange(size_msg)?;
        let mut r = their_sizes_buf.reader();
        let mut their_sizes = Vec::with_capacity(k as usize);
        for _ in 0..k {
            their_sizes.push(get_gamma0(&mut r)? as usize);
        }
        bucket_span.finish(chan.stats().delta_since(&before));

        // Step 3: the equality collection E = ⊔ S_i × T_i, ordered by
        // (bucket, my index, their index) — identical on both sides because
        // bucket contents are sorted.
        let encode = |x: u64| {
            let mut b = BitBuf::new();
            b.push_bits(x, 64);
            b
        };
        // Both parties enumerate pairs (s_j, t_l) j-major within each
        // bucket; each supplies its own element of the pair as the instance
        // string, so instance `m` compares the same (s, t) on both sides.
        let mut instances: Vec<BitBuf> = Vec::new();
        let mut owners: Vec<u64> = Vec::new(); // my element for each instance
        for (i, bucket) in buckets.iter().enumerate() {
            let (alice_count, bob_count) = match side {
                Side::Alice => (bucket.len(), their_sizes[i]),
                Side::Bob => (their_sizes[i], bucket.len()),
            };
            for j in 0..alice_count {
                for l in 0..bob_count {
                    let mine = match side {
                        Side::Alice => bucket[j],
                        Side::Bob => bucket[l],
                    };
                    instances.push(encode(mine));
                    owners.push(mine);
                }
            }
        }

        // Step 4: one amortized-equality run over the whole collection.
        let verify_span = intersect_obs::phase::span("core", "verify");
        let before = chan.stats();
        let verdicts = self
            .proto
            .equality
            .run(chan, &coins.fork("eqk"), side, &instances)?;
        verify_span.finish(chan.stats().delta_since(&before));

        // Step 5: an element is in the intersection iff some pair matched.
        let mut hits: Vec<u64> = owners
            .into_iter()
            .zip(verdicts)
            .filter(|(_, v)| *v)
            .map(|(owner, _)| owner)
            .collect();
        hits.sort_unstable();
        hits.dedup();
        Ok(hits
            .into_iter()
            .map(|m| *back_map.get(&m).expect("output is a subset of the input"))
            .collect())
    }
}

impl PreparedProtocol for SqrtPlan {
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
        self.execute_with(chan, &coins.fork("sqrt"), side, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::InputPair;
    use intersect_comm::runner::{run_two_party, RunConfig};
    use intersect_comm::stats::CostReport;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_sqrt(
        seed: u64,
        spec: ProblemSpec,
        s: &ElementSet,
        t: &ElementSet,
    ) -> (ElementSet, ElementSet, CostReport) {
        let proto = SqrtProtocol::default();
        let out = run_two_party(
            &RunConfig::with_seed(seed),
            |chan, coins| proto.run(chan, &coins.fork("sq"), Side::Alice, spec, s),
            |chan, coins| proto.run(chan, &coins.fork("sq"), Side::Bob, spec, t),
        )
        .unwrap();
        (out.alice, out.bob, out.report)
    }

    #[test]
    fn recovers_intersection_across_overlaps() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let spec = ProblemSpec::new(1 << 30, 64);
        for overlap in [0usize, 1, 13, 64] {
            let pair = InputPair::random_with_overlap(&mut rng, spec, 64, overlap);
            let truth = pair.ground_truth();
            let (a, b, _) = run_sqrt(overlap as u64, spec, &pair.s, &pair.t);
            assert_eq!(a, truth, "overlap {overlap}");
            assert_eq!(b, truth, "overlap {overlap}");
        }
    }

    #[test]
    fn success_rate_is_high() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let spec = ProblemSpec::new(1 << 24, 128);
        let mut exact = 0;
        for seed in 0..40 {
            let pair = InputPair::random_with_overlap(&mut rng, spec, 128, 64);
            let truth = pair.ground_truth();
            let (a, b, _) = run_sqrt(seed, spec, &pair.s, &pair.t);
            if a == truth && b == truth {
                exact += 1;
            }
        }
        assert!(exact >= 38, "{exact}/40");
    }

    #[test]
    fn cost_is_linear_in_k() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut per_k = Vec::new();
        for k in [128usize, 512] {
            let spec = ProblemSpec::new(1 << 40, k as u64);
            let pair = InputPair::random_with_overlap(&mut rng, spec, k, k / 2);
            let (_, _, report) = run_sqrt(1, spec, &pair.s, &pair.t);
            per_k.push(report.total_bits() as f64 / k as f64);
        }
        // Per-element cost roughly flat (within 2x) as k quadruples.
        assert!(
            per_k[1] < per_k[0] * 2.0,
            "per-element cost grew: {per_k:?}"
        );
        // And well below log k per element… times a modest constant.
        assert!(per_k[1] < 64.0, "{per_k:?}");
    }

    #[test]
    fn rounds_scale_like_sqrt_of_instances() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let spec = ProblemSpec::new(1 << 30, 256);
        let pair = InputPair::random_with_overlap(&mut rng, spec, 256, 128);
        let (_, _, report) = run_sqrt(2, spec, &pair.s, &pair.t);
        // Instances ≈ overlap + collisions ≈ 200-ish; blocks ≈ √instances;
        // ≤ ~8 rounds per block plus the size exchange.
        assert!(report.rounds < 400, "rounds = {}", report.rounds);
        assert!(report.rounds > 4);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let spec = ProblemSpec::new(1000, 4);
        let empty = ElementSet::new();
        let t = ElementSet::from_iter([5u64, 6]);
        let (a, b, _) = run_sqrt(1, spec, &empty, &t);
        assert!(a.is_empty() && b.is_empty());
        let (a, b, _) = run_sqrt(2, spec, &t, &t.clone());
        assert_eq!(a, t);
        assert_eq!(b, t);
    }

    #[test]
    fn small_universe_skips_reduction() {
        let spec = ProblemSpec::new(50, 8);
        let s = ElementSet::from_iter([1u64, 10, 20, 30]);
        let t = ElementSet::from_iter([10u64, 30, 40]);
        let (a, b, _) = run_sqrt(3, spec, &s, &t);
        assert_eq!(a.as_slice(), &[10, 30]);
        assert_eq!(b.as_slice(), &[10, 30]);
    }
}
