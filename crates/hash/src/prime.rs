//! Primality testing and random prime sampling.
//!
//! The FKS-style universe reduction (`x ↦ x mod q` for a random prime `q`)
//! and the prime-field hash families both need primes sampled from a seeded
//! RNG. We use a Miller–Rabin test with a base set that is *deterministic
//! and exact* for all 64-bit integers, so primality here is never
//! probabilistic.

use rand::Rng;

/// Modular multiplication `(a * b) mod m` without overflow.
#[inline]
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Modular exponentiation `base^exp mod m`.
#[inline]
pub fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Witnesses that make Miller–Rabin exact for every `u64`
/// (Sinclair's base set).
const MR_BASES: [u64; 7] = [2, 325, 9375, 28178, 450775, 9780504, 1795265022];

/// Deterministically decides whether `n` is prime.
///
/// # Examples
///
/// ```
/// use intersect_hash::prime::is_prime;
/// assert!(is_prime(2));
/// assert!(is_prime((1 << 61) - 1)); // Mersenne prime M61
/// assert!(!is_prime(1));
/// assert!(!is_prime(3_215_031_751)); // strong pseudoprime to bases 2,3,5,7
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    // Write n - 1 = d * 2^s with d odd.
    let mut d = n - 1;
    let s = d.trailing_zeros();
    d >>= s;
    'bases: for &a in &MR_BASES {
        let a = a % n;
        if a == 0 {
            continue;
        }
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'bases;
            }
        }
        return false;
    }
    true
}

/// The smallest prime `≥ n`.
///
/// # Panics
///
/// Panics if no 64-bit prime `≥ n` exists (i.e. `n` exceeds the largest
/// 64-bit prime `2^64 - 59`).
pub fn next_prime(mut n: u64) -> u64 {
    if n <= 2 {
        return 2;
    }
    if n.is_multiple_of(2) {
        n += 1;
    }
    loop {
        if is_prime(n) {
            return n;
        }
        n = n.checked_add(2).expect("no u64 prime above n");
    }
}

/// Samples a uniformly random prime in `[lo, hi)` using `rng`.
///
/// Uses rejection sampling; by the prime number theorem the expected number
/// of attempts is `O(ln hi)`.
///
/// # Panics
///
/// Panics if the interval is empty or contains no prime.
pub(crate) fn random_prime_in<R: Rng + ?Sized>(rng: &mut R, lo: u64, hi: u64) -> u64 {
    assert!(lo < hi, "empty interval [{lo}, {hi})");
    // Expected O(ln hi) iterations; the generous cap only trips on
    // prime-free intervals.
    for _ in 0..10_000 {
        let candidate = rng.gen_range(lo..hi);
        let candidate = candidate | 1; // only odd candidates (2 handled below)
        if candidate < hi && candidate >= lo && is_prime(candidate) {
            return candidate;
        }
        if lo <= 2 && 2 < hi && rng.gen_ratio(1, 64) {
            return 2;
        }
    }
    panic!("no prime found in [{lo}, {hi})");
}

/// The Mersenne prime `2^61 - 1`, used as the default hashing field.
pub const M61: u64 = (1 << 61) - 1;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn small_primes_classified() {
        let primes = [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 97, 101];
        for p in primes {
            assert!(is_prime(p), "{p}");
        }
        let composites = [0u64, 1, 4, 6, 9, 15, 21, 25, 49, 91, 100];
        for c in composites {
            assert!(!is_prime(c), "{c}");
        }
    }

    #[test]
    fn sieve_agreement_up_to_10000() {
        // Simple sieve as oracle.
        let n = 10_000usize;
        let mut sieve = vec![true; n];
        sieve[0] = false;
        sieve[1] = false;
        for i in 2..n {
            if sieve[i] {
                for j in (i * i..n).step_by(i) {
                    sieve[j] = false;
                }
            }
        }
        for (i, &expected) in sieve.iter().enumerate() {
            assert_eq!(is_prime(i as u64), expected, "n = {i}");
        }
    }

    #[test]
    fn known_strong_pseudoprimes_rejected() {
        // Composites that fool small-base Miller-Rabin variants.
        for n in [
            2_047u64,
            1_373_653,
            25_326_001,
            3_215_031_751,
            3_474_749_660_383,
            341_550_071_728_321,
        ] {
            assert!(!is_prime(n), "{n} is composite");
        }
    }

    #[test]
    fn large_primes_accepted() {
        assert!(is_prime(M61));
        assert!(is_prime(18_446_744_073_709_551_557)); // largest u64 prime
        assert!(is_prime(4_611_686_018_427_387_847)); // large prime < 2^62
    }

    #[test]
    fn next_prime_walks_forward() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(2), 2);
        assert_eq!(next_prime(3), 3);
        assert_eq!(next_prime(4), 5);
        assert_eq!(next_prime(90), 97);
        assert_eq!(next_prime(M61), M61);
    }

    #[test]
    fn next_prime_result_is_prime_and_minimal() {
        for n in (0..2_000u64).step_by(7) {
            let p = next_prime(n);
            assert!(is_prime(p));
            for q in n..p {
                assert!(!is_prime(q));
            }
        }
    }

    #[test]
    fn random_primes_land_in_range() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100 {
            let p = random_prime_in(&mut rng, 1 << 20, 1 << 21);
            assert!((1 << 20..1 << 21).contains(&p));
            assert!(is_prime(p));
        }
    }

    #[test]
    fn random_primes_are_spread_out() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            seen.insert(random_prime_in(&mut rng, 1000, 100_000));
        }
        assert!(seen.len() > 30, "only {} distinct primes", seen.len());
    }

    #[test]
    fn pow_mod_matches_naive() {
        for (b, e, m) in [(3u64, 7u64, 11u64), (2, 61, M61), (10, 0, 7), (5, 5, 1)] {
            let mut naive = if m == 1 { 0 } else { 1u128 };
            for _ in 0..e {
                naive = naive * b as u128 % m as u128;
            }
            assert_eq!(pow_mod(b, e, m) as u128, naive, "({b},{e},{m})");
        }
    }
}
