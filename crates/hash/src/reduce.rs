//! Universe reduction by a random prime modulus (\[FKS84\], as used in
//! Theorem 3.1 of the paper).
//!
//! Mapping `x ↦ x mod q` for a random prime `q = Õ(k² log n)` is injective
//! on any fixed set of `O(k)` elements with probability `1 − 1/poly(k)`:
//! a collision means `q` divides some pairwise difference, each difference
//! `< n` has at most `log₂ n` prime factors above `Q`, and there are
//! `Θ(Q/ln Q)` primes to choose from against `O(k²)` differences.
//!
//! This is the step that makes the private-coin protocols *constructive*:
//! after reduction, the universe is `poly(k, log n)`, so the pairwise hash
//! seeds that follow cost only `O(log k + log log n)` bits to transmit —
//! the paper's claimed additive overhead — instead of `O(log n)`.

use crate::prime::random_prime_in;
use intersect_comm::bits::{bit_width_for, BitBuf, BitReader};
use intersect_comm::error::CodecError;
use rand::Rng;

/// A sampled reduction `x ↦ x mod q`, `q` prime.
///
/// # Examples
///
/// ```
/// use intersect_hash::reduce::ModPrimeReduction;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
/// let red = ModPrimeReduction::sample(&mut rng, 1 << 40, 64);
/// // The reduced universe is tiny compared to 2^40…
/// assert!(red.reduced_universe() < 1 << 26);
/// // …and maps consistently.
/// assert_eq!(red.map(123_456_789_000), 123_456_789_000 % red.reduced_universe());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModPrimeReduction {
    q: u64,
    /// Lower end of the sampling window (a protocol constant both parties
    /// can derive from `(n, k)`, used to serialize `q` compactly).
    window_lo: u64,
}

impl ModPrimeReduction {
    /// The sampling window `[Q, 2Q)` for a universe of size `n` and sets of
    /// size at most `k`: `Q = max(64, 16·k²·⌈log₂ n⌉)`.
    pub fn window(universe: u64, k: u64) -> (u64, u64) {
        let log_n = bit_width_for(universe.max(2)) as u64;
        let q = 64u64.max(16 * k.saturating_mul(k).saturating_mul(log_n));
        (q, 2 * q)
    }

    /// Samples a reduction for sets of at most `k` elements of `[universe]`.
    ///
    /// With probability `1 − O(1/k)` the sampled `q` has no collisions on
    /// any fixed pair set of `≤ 2k` elements.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R, universe: u64, k: u64) -> Self {
        let (lo, hi) = Self::window(universe, k);
        ModPrimeReduction {
            q: random_prime_in(rng, lo, hi),
            window_lo: lo,
        }
    }

    /// Applies the reduction.
    pub fn map(&self, x: u64) -> u64 {
        x % self.q
    }

    /// The size of the reduced universe (the prime `q` itself).
    pub fn reduced_universe(&self) -> u64 {
        self.q
    }

    /// Number of seed bits for a `(universe, k)` window:
    /// `⌈log₂ Q⌉ = O(log k + log log n)`.
    pub fn seed_bits(universe: u64, k: u64) -> usize {
        let (lo, hi) = Self::window(universe, k);
        bit_width_for(hi - lo)
    }

    /// Serializes `q` as an offset into the sampling window.
    pub fn write_seed(&self, buf: &mut BitBuf) {
        let width = bit_width_for(self.window_lo); // window size == window_lo
        buf.push_bits(self.q - self.window_lo, width);
    }

    /// Reconstructs a reduction from a transmitted seed.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the stream is short.
    pub fn read_seed(r: &mut BitReader<'_>, universe: u64, k: u64) -> Result<Self, CodecError> {
        let (lo, hi) = Self::window(universe, k);
        let width = bit_width_for(hi - lo);
        let offset = r.read_bits(width)?;
        let q = lo + offset;
        if q >= hi {
            return Err(CodecError::ValueOutOfRange {
                value: q,
                bound: hi,
            });
        }
        Ok(ModPrimeReduction { q, window_lo: lo })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::is_prime;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn sampled_modulus_is_prime_in_window() {
        let (lo, hi) = ModPrimeReduction::window(1 << 32, 100);
        for seed in 0..20 {
            let r = ModPrimeReduction::sample(&mut rng(seed), 1 << 32, 100);
            assert!(is_prime(r.reduced_universe()));
            assert!((lo..hi).contains(&r.reduced_universe()));
        }
    }

    #[test]
    fn collision_rate_on_random_sets_is_low() {
        // Empirically verify the 1 - 1/poly(k) injectivity guarantee.
        let k = 64u64;
        let n = 1u64 << 40;
        let mut failures = 0;
        let trials = 200;
        let mut r = rng(9);
        for _ in 0..trials {
            let keys: Vec<u64> = (0..2 * k).map(|_| r.gen_range(0..n)).collect();
            let red = ModPrimeReduction::sample(&mut r, n, k);
            let mut seen = std::collections::HashSet::new();
            let mut distinct = std::collections::HashSet::new();
            let mut collided = false;
            for &key in &keys {
                if distinct.insert(key) && !seen.insert(red.map(key)) {
                    collided = true;
                }
            }
            if collided {
                failures += 1;
            }
        }
        assert!(
            failures <= trials / 10,
            "{failures}/{trials} reductions collided"
        );
    }

    #[test]
    fn seed_bits_are_doubly_logarithmic_in_n() {
        // For fixed k, seed bits grow like log log n.
        let k = 256;
        let small = ModPrimeReduction::seed_bits(1 << 16, k);
        let large = ModPrimeReduction::seed_bits(1 << 60, k);
        assert!(large <= small + 3, "{small} -> {large}");
        // And like log k for fixed n.
        let k_small = ModPrimeReduction::seed_bits(1 << 32, 16);
        let k_large = ModPrimeReduction::seed_bits(1 << 32, 1 << 14);
        assert!(k_large >= k_small + 10);
    }

    #[test]
    fn seed_round_trip() {
        let mut r = rng(6);
        let red = ModPrimeReduction::sample(&mut r, 1 << 30, 32);
        let mut buf = BitBuf::new();
        red.write_seed(&mut buf);
        assert_eq!(buf.len(), ModPrimeReduction::seed_bits(1 << 30, 32));
        let red2 = ModPrimeReduction::read_seed(&mut buf.reader(), 1 << 30, 32).unwrap();
        assert_eq!(red, red2);
    }

    #[test]
    fn map_preserves_equality_always() {
        // x = y implies map(x) = map(y): reduction never destroys equality.
        let red = ModPrimeReduction::sample(&mut rng(2), 1 << 20, 8);
        for x in (0..(1 << 20)).step_by(10_007) {
            assert_eq!(red.map(x), red.map(x));
        }
    }
}
