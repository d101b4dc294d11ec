//! Property-based integration tests across crates.

use intersect::prelude::*;
use proptest::prelude::*;

fn set_strategy(n: u64, k: usize) -> impl Strategy<Value = ElementSet> {
    prop::collection::btree_set(0..n, 0..=k).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tree_protocol_outputs_sandwich_or_match(
        s in set_strategy(1 << 16, 24),
        t in set_strategy(1 << 16, 24),
        seed in 0u64..1000,
    ) {
        let spec = ProblemSpec::new(1 << 16, 24);
        let pair = InputPair { s: s.clone(), t: t.clone() };
        let run = execute(&TreeProtocol::new(2), spec, &pair, seed).unwrap();
        // Safety: outputs never invent elements.
        prop_assert!(run.alice.iter().all(|x| s.contains(x)));
        prop_assert!(run.bob.iter().all(|x| t.contains(x)));
        // Agreement implies exact correctness (Corollary 3.4 lifted to the
        // whole protocol; the universe here is small enough to skip the
        // lossy reduction, making the invariant deterministic).
        if run.alice == run.bob {
            prop_assert_eq!(run.alice, s.intersection(&t));
        }
    }

    #[test]
    fn basic_intersection_lemma_3_3_properties(
        s in set_strategy(1 << 20, 16),
        t in set_strategy(1 << 20, 16),
        seed in 0u64..1000,
        error_bits in 1usize..12,
    ) {
        let spec = ProblemSpec::new(1 << 20, 16);
        let proto = BasicIntersection::new(error_bits);
        let out = run_two_party(
            &RunConfig::with_seed(seed),
            |chan, coins| proto.run(chan, &coins.fork("p"), Side::Alice, spec, &s),
            |chan, coins| proto.run(chan, &coins.fork("p"), Side::Bob, spec, &t),
        ).unwrap();
        let truth = s.intersection(&t);
        // Property 1: S' ⊆ S, T' ⊆ T.
        prop_assert!(out.alice.iter().all(|x| s.contains(x)));
        prop_assert!(out.bob.iter().all(|x| t.contains(x)));
        // Property 2: disjoint in ⇒ disjoint out, with certainty.
        if truth.is_empty() {
            prop_assert!(out.alice.intersection(&out.bob).is_empty());
        }
        // Property 3 (first half): S∩T ⊆ S'∩T', with certainty.
        prop_assert!(truth.iter().all(|x| out.alice.contains(x) && out.bob.contains(x)));
        // Corollary 3.4: equal outputs are exactly the intersection.
        if out.alice == out.bob {
            prop_assert_eq!(out.alice, truth);
        }
    }

    #[test]
    fn equality_test_is_one_sided(
        data in prop::collection::vec(any::<u64>(), 0..20),
        flip in any::<bool>(),
        seed in 0u64..500,
    ) {
        let x = intersect::core::equality::encode_for_equality(&data);
        let y = if flip && !data.is_empty() {
            let mut d = data.clone();
            d[0] ^= 1;
            intersect::core::equality::encode_for_equality(&d)
        } else {
            x.clone()
        };
        let eq = EqualityTest::new(40);
        let out = run_two_party(
            &RunConfig::with_seed(seed),
            |chan, coins| eq.run(chan, &coins.fork("e"), Side::Alice, &x),
            |chan, coins| eq.run(chan, &coins.fork("e"), Side::Bob, &y),
        ).unwrap();
        prop_assert_eq!(out.alice, out.bob);
        if x == y {
            // One-sidedness: equal inputs NEVER fail.
            prop_assert!(out.alice);
        } else {
            // 2^-40 error: effectively never passes in a finite test.
            prop_assert!(!out.alice);
        }
    }

    #[test]
    fn amortized_equality_matches_itemwise_truth(
        values in prop::collection::vec((any::<u64>(), any::<bool>()), 0..40),
        seed in 0u64..200,
    ) {
        let mk = |v: u64| {
            let mut b = intersect::comm::bits::BitBuf::new();
            b.push_bits(v, 64);
            b
        };
        let xs: Vec<_> = values.iter().map(|(v, _)| mk(*v)).collect();
        let ys: Vec<_> = values
            .iter()
            .map(|(v, same)| if *same { mk(*v) } else { mk(v ^ 0xdeadbeef) })
            .collect();
        // The default block size ⌈√k⌉ gives error 2^{-Ω(√k)}, which is NOT
        // negligible for the tiny k proptest explores — pin a 32-bit
        // confirmation so the machinery (not the error knob) is under test.
        let eq = AmortizedEquality::with_block_size(32);
        let out = run_two_party(
            &RunConfig::with_seed(seed),
            |chan, coins| eq.run(chan, &coins.fork("a"), Side::Alice, &xs),
            |chan, coins| eq.run(chan, &coins.fork("a"), Side::Bob, &ys),
        ).unwrap();
        prop_assert_eq!(&out.alice, &out.bob);
        let expect: Vec<bool> = values.iter().map(|(_, same)| *same).collect();
        prop_assert_eq!(out.alice, expect);
    }

    #[test]
    fn costs_are_conserved_between_parties(
        s in set_strategy(1 << 20, 16),
        t in set_strategy(1 << 20, 16),
        seed in 0u64..100,
    ) {
        // The runner's accounting must balance: Alice's sent = Bob's
        // received and vice versa, checked through the report invariants.
        let spec = ProblemSpec::new(1 << 20, 16);
        let pair = InputPair { s, t };
        let run = execute(&TreeProtocol::new(2), spec, &pair, seed).unwrap();
        prop_assert_eq!(
            run.report.total_bits(),
            run.report.bits_alice + run.report.bits_bob
        );
        prop_assert!(run.report.rounds <= run.report.messages);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// `iblt` on dense universes (n/k ≤ 64), where false peels are
    /// likeliest, ends in exactly `S ∩ T` or a typed `ProtocolError`.
    #[test]
    fn iblt_on_dense_universes_is_exact_or_a_typed_error(
        k in 1u64..=128,
        ratio in 2u64..=64,
        s in prop::collection::vec(any::<u64>(), 0..=128),
        t in prop::collection::vec(any::<u64>(), 0..=128),
        shared in 0usize..=128,
        seed in any::<u64>(),
    ) {
        let n = k * ratio;
        // At most k distinct elements of [n]; T starts with a prefix of
        // S's draws so overlaps range from none to nearly all.
        let dense = |raw: &[u64]| -> ElementSet {
            let mut set = std::collections::BTreeSet::new();
            for x in raw {
                if set.len() as u64 == k {
                    break;
                }
                set.insert(x % n);
            }
            set.into_iter().collect()
        };
        let shared = shared.min(s.len());
        let pair = InputPair {
            s: dense(&s),
            t: dense(&[&s[..shared], &t[..]].concat()),
        };
        let truth = pair.ground_truth();
        if let Ok(run) = execute(&IbltReconcile::default(), ProblemSpec::new(n, k), &pair, seed) {
            prop_assert_eq!(&run.alice, &truth);
            prop_assert_eq!(&run.bob, &truth);
        }
    }
}
