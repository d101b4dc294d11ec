//! Property-based tests for the hashing substrate.

use intersect_comm::bits::BitBuf;
use intersect_hash::pairwise::PairwiseHash;
use intersect_hash::prime::{is_prime, mul_mod, next_prime, pow_mod};
use intersect_hash::reduce::ModPrimeReduction;
use intersect_hash::tabulation::TabulationHash;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #[test]
    fn mul_mod_matches_u128(a in any::<u64>(), b in any::<u64>(), m in 1u64..) {
        prop_assert_eq!(mul_mod(a, b, m) as u128, (a as u128 * b as u128) % m as u128);
    }

    #[test]
    fn pow_mod_matches_square_and_multiply_oracle(b in any::<u64>(), e in 0u64..64, m in 1u64..) {
        let mut oracle = if m == 1 { 0u128 } else { 1u128 };
        for _ in 0..e {
            oracle = oracle * (b % m) as u128 % m as u128;
        }
        prop_assert_eq!(pow_mod(b, e, m) as u128, oracle);
    }

    #[test]
    fn next_prime_is_minimal(n in 0u64..1_000_000) {
        let p = next_prime(n);
        prop_assert!(p >= n.max(2));
        prop_assert!(is_prime(p));
        // No prime strictly between n and p (bounded scan).
        for q in n..p {
            prop_assert!(!is_prime(q));
        }
    }

    #[test]
    fn pairwise_seed_round_trip(seed in any::<u64>(), universe in 2u64..1_000_000, range in 1u64..100_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let h = PairwiseHash::sample(&mut rng, universe, range);
        let mut buf = BitBuf::new();
        h.write_seed(&mut buf);
        prop_assert_eq!(buf.len(), PairwiseHash::seed_bits(universe));
        let h2 = PairwiseHash::read_seed(&mut buf.reader(), universe, range).unwrap();
        prop_assert_eq!(&h, &h2);
        // Spot-check agreement on a few points.
        for x in [0, universe / 2, universe - 1] {
            prop_assert_eq!(h.eval(x), h2.eval(x));
            prop_assert!(h.eval(x) < range);
        }
    }

    #[test]
    fn reduction_seed_round_trip(seed in any::<u64>(), log_n in 10u32..60, k in 1u64..512) {
        let n = 1u64 << log_n;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let red = ModPrimeReduction::sample(&mut rng, n, k);
        let mut buf = BitBuf::new();
        red.write_seed(&mut buf);
        prop_assert_eq!(buf.len(), ModPrimeReduction::seed_bits(n, k));
        let red2 = ModPrimeReduction::read_seed(&mut buf.reader(), n, k).unwrap();
        prop_assert_eq!(&red, &red2);
        prop_assert!(is_prime(red.reduced_universe()));
    }

    #[test]
    fn tabulation_is_deterministic_function(seed in any::<u64>(), keys in prop::collection::vec(any::<u64>(), 1..50)) {
        let h1 = TabulationHash::sample(&mut ChaCha8Rng::seed_from_u64(seed));
        let h2 = TabulationHash::sample(&mut ChaCha8Rng::seed_from_u64(seed));
        for &k in &keys {
            prop_assert_eq!(h1.eval(k), h2.eval(k));
            prop_assert!(h1.eval_range(k, 100) < 100);
        }
    }
}
