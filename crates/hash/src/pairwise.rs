//! Pairwise-independent hash functions with compact, transmittable seeds.
//!
//! The paper's Fact 2.2 needs a random hash function `h: [n] → [t]` that is
//! collision-free on a small set with high probability and is described by
//! `O(log n)` random bits. The classic Carter–Wegman family
//! `h(x) = ((a·x + b) mod p) mod t` delivers exactly that: for `x ≠ y`,
//! `Pr[h(x) = h(y)] ≤ 1/t + O(1/p)`, and the seed is the pair `(a, b)`.
//!
//! Seeds can be written to and read from a [`BitBuf`], which is how the
//! constructive private-coin protocols transmit them (their bit cost is
//! charged to the protocol like any other message).

use crate::prime::{mul_mod, next_prime};
use intersect_comm::bits::{bit_width_for, BitBuf, BitReader};
use intersect_comm::error::CodecError;
use rand::Rng;

/// A pairwise-independent hash function `[universe] → [range]`.
///
/// # Examples
///
/// ```
/// use intersect_hash::pairwise::PairwiseHash;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let h = PairwiseHash::sample(&mut rng, 1_000_000, 64);
/// assert!(h.eval(123_456) < 64);
/// // Same function, same value.
/// assert_eq!(h.eval(42), h.eval(42));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairwiseHash {
    p: u64,
    a: u64,
    b: u64,
    universe: u64,
    range: u64,
}

/// A reusable handle on the Carter–Wegman family over one universe.
///
/// Constructing the family performs the input-independent work — the
/// deterministic search for the field prime `p ≥ universe` — once, so a
/// prepared protocol can sample many functions (one per session) without
/// re-running the primality search. Sampling draws exactly the same
/// random bits as [`PairwiseHash::sample`]: the prime search consumes no
/// randomness, so a function sampled through a family is bit-identical
/// to one sampled directly from the same RNG state.
///
/// # Examples
///
/// ```
/// use intersect_hash::pairwise::{PairwiseFamily, PairwiseHash};
/// use rand::SeedableRng;
///
/// let family = PairwiseFamily::new(1_000_000);
/// let mut rng_a = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let mut rng_b = rng_a.clone();
/// assert_eq!(
///     family.sample(&mut rng_a, 64),
///     PairwiseHash::sample(&mut rng_b, 1_000_000, 64),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairwiseFamily {
    universe: u64,
    p: u64,
}

impl PairwiseFamily {
    /// Fixes the universe and finds the field prime.
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0`.
    pub fn new(universe: u64) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        PairwiseFamily {
            universe,
            p: PairwiseHash::field_prime(universe),
        }
    }

    /// Samples a function `[universe] → [range]`, drawing the seed pair
    /// `(a, b)` from `rng` exactly as [`PairwiseHash::sample`] does.
    ///
    /// # Panics
    ///
    /// Panics if `range == 0`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, range: u64) -> PairwiseHash {
        assert!(range > 0, "range must be non-empty");
        PairwiseHash {
            p: self.p,
            a: rng.gen_range(1..self.p),
            b: rng.gen_range(0..self.p),
            universe: self.universe,
            range,
        }
    }

    /// The universe bound `n`.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// The field prime `p`.
    pub fn prime(&self) -> u64 {
        self.p
    }
}

impl PairwiseHash {
    /// The field prime used for a given universe: the smallest prime
    /// `≥ universe` (so that `x ↦ x` is injective into the field).
    pub(crate) fn field_prime(universe: u64) -> u64 {
        next_prime(universe.max(2))
    }

    /// Samples a function `[universe] → [range]` from the family.
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0` or `range == 0`.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, universe: u64, range: u64) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        assert!(range > 0, "range must be non-empty");
        PairwiseFamily::new(universe).sample(rng, range)
    }

    /// Evaluates the hash.
    ///
    /// # Panics
    ///
    /// Panics if `x` lies outside the universe.
    pub fn eval(&self, x: u64) -> u64 {
        assert!(
            x < self.universe,
            "{x} outside universe [{}]",
            self.universe
        );
        (mul_mod(self.a, x, self.p) + self.b) % self.p % self.range
    }

    /// The range bound `t`.
    pub fn range(&self) -> u64 {
        self.range
    }

    /// The universe bound `n`.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Number of seed bits [`write_seed`](Self::write_seed) produces:
    /// `2·⌈log₂ p⌉ = O(log universe)`.
    pub fn seed_bits(universe: u64) -> usize {
        2 * bit_width_for(Self::field_prime(universe))
    }

    /// Serializes the seed `(a, b)`.
    ///
    /// The universe and range are protocol constants known to both parties
    /// and are not transmitted.
    pub fn write_seed(&self, buf: &mut BitBuf) {
        let w = bit_width_for(self.p);
        buf.push_bits(self.a, w);
        buf.push_bits(self.b, w);
    }

    /// Reconstructs a function from a transmitted seed.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the stream is short or the seed is out of
    /// range for the field.
    pub fn read_seed(r: &mut BitReader<'_>, universe: u64, range: u64) -> Result<Self, CodecError> {
        let p = Self::field_prime(universe);
        let w = bit_width_for(p);
        let a = r.read_bits(w)?;
        let b = r.read_bits(w)?;
        if a == 0 || a >= p {
            return Err(CodecError::ValueOutOfRange { value: a, bound: p });
        }
        if b >= p {
            return Err(CodecError::ValueOutOfRange { value: b, bound: p });
        }
        Ok(PairwiseHash {
            p,
            a,
            b,
            universe,
            range,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn values_land_in_range() {
        let h = PairwiseHash::sample(&mut rng(1), 10_000, 37);
        for x in (0..10_000).step_by(13) {
            assert!(h.eval(x) < 37);
        }
    }

    #[test]
    fn collision_rate_is_near_uniform() {
        // Empirical pairwise collision probability ≈ 1/t.
        let t = 64u64;
        let trials = 2000;
        let mut collisions = 0u64;
        let mut r = rng(7);
        for _ in 0..trials {
            let h = PairwiseHash::sample(&mut r, 1 << 30, t);
            if h.eval(12_345) == h.eval(987_654) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        let expect = 1.0 / t as f64;
        assert!(
            rate < 3.0 * expect + 0.01,
            "collision rate {rate} vs expected {expect}"
        );
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let t = 16u64;
        let h = PairwiseHash::sample(&mut rng(3), 1 << 20, t);
        let mut counts = vec![0u64; t as usize];
        for x in 0..(1 << 14) {
            counts[h.eval(x) as usize] += 1;
        }
        let expect = (1 << 14) as f64 / t as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > expect * 0.5 && (c as f64) < expect * 1.5,
                "bucket {i} holds {c}, expected ≈ {expect}"
            );
        }
    }

    #[test]
    fn seed_round_trip_preserves_function() {
        let h = PairwiseHash::sample(&mut rng(11), 99_991, 1000);
        let mut buf = BitBuf::new();
        h.write_seed(&mut buf);
        assert_eq!(buf.len(), PairwiseHash::seed_bits(99_991));
        let h2 = PairwiseHash::read_seed(&mut buf.reader(), 99_991, 1000).unwrap();
        assert_eq!(h, h2);
        for x in (0..99_991).step_by(997) {
            assert_eq!(h.eval(x), h2.eval(x));
        }
    }

    #[test]
    fn seed_bits_are_logarithmic() {
        assert!(PairwiseHash::seed_bits(1 << 20) <= 2 * 22);
        assert!(PairwiseHash::seed_bits(1 << 40) <= 2 * 42);
    }

    #[test]
    fn read_seed_rejects_invalid() {
        let mut buf = BitBuf::new();
        let p = PairwiseHash::field_prime(100);
        let w = bit_width_for(p);
        buf.push_bits(0, w); // a = 0 is not a valid multiplier
        buf.push_bits(5, w);
        assert!(PairwiseHash::read_seed(&mut buf.reader(), 100, 10).is_err());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn eval_outside_universe_panics() {
        let h = PairwiseHash::sample(&mut rng(1), 100, 10);
        h.eval(100);
    }

    #[test]
    fn family_sampling_matches_direct_sampling_bit_for_bit() {
        // A family handle hoists only the (deterministic) prime search;
        // the RNG sequence must be untouched, even across many draws.
        for universe in [2u64, 97, 1 << 20, (1 << 40) + 5] {
            let family = PairwiseFamily::new(universe);
            let mut via_family = rng(9);
            let mut direct = rng(9);
            for range in [1u64, 7, 64, universe] {
                assert_eq!(
                    family.sample(&mut via_family, range),
                    PairwiseHash::sample(&mut direct, universe, range),
                    "universe {universe}, range {range}"
                );
            }
            assert_eq!(family.prime(), PairwiseHash::field_prime(universe));
            assert_eq!(family.universe(), universe);
        }
    }
}
