//! E7 — the amortized-equality engine (Theorem 3.2, after \[FKNN95\]).

use crate::table::{fmt_failures, fmt_per, Table};
use intersect_comm::bits::BitBuf;
use intersect_comm::runner::{run_two_party, RunConfig, Side};
use intersect_core::fknn::AmortizedEquality;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn string_of(v: u64, bits: usize) -> BitBuf {
    let mut b = BitBuf::new();
    let mut left = bits;
    let mut x = v.wrapping_mul(0x9e3779b97f4a7c15);
    while left > 0 {
        let take = left.min(64);
        let val = if take == 64 {
            x
        } else {
            x & ((1u64 << take) - 1)
        };
        b.push_bits(val, take);
        x = x.rotate_left(29) ^ 0xbf58476d1ce4e5b9;
        left -= take;
    }
    b
}

/// E7 — `EQ^n_k` in `O(k)` bits and `O(√k)` rounds with error
/// `2^{-Ω(√k)}`, across equal/unequal mixes and string lengths.
pub(crate) fn e7(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "E7 — Theorem 3.2 (amortized equality): bits/k flat in k and in the string \
         length n, rounds ≈ O(√k), no wrong verdicts",
        &[
            "k",
            "equal frac",
            "n (bits)",
            "bits/k",
            "mean rounds",
            "√k",
            "wrong verdicts",
        ],
    );
    let ks: Vec<usize> = if quick {
        vec![64, 256]
    } else {
        vec![64, 256, 1024, 4096]
    };
    let trials = if quick { 3 } else { 10 };
    for k in ks {
        for (frac_label, frac) in [("0.0", 0.0), ("0.5", 0.5), ("1.0", 1.0)] {
            for n_bits in [64usize, 1024] {
                let mut bits = 0f64;
                let mut rounds = 0f64;
                let mut wrong = 0usize;
                for t in 0..trials {
                    let mut rng = ChaCha8Rng::seed_from_u64(0xE7 ^ (t as u64) << 8 ^ k as u64);
                    let xs: Vec<BitBuf> = (0..k).map(|i| string_of(i as u64, n_bits)).collect();
                    let equal_mask: Vec<bool> = (0..k).map(|_| rng.gen_bool(frac)).collect();
                    let ys: Vec<BitBuf> = (0..k)
                        .map(|i| {
                            if equal_mask[i] {
                                string_of(i as u64, n_bits)
                            } else {
                                string_of(i as u64 + (1 << 40), n_bits)
                            }
                        })
                        .collect();
                    let eq = AmortizedEquality::new();
                    let out = run_two_party(
                        &RunConfig::with_seed(0x71 + t as u64),
                        |chan, coins| eq.run(chan, &coins.fork("e7"), Side::Alice, &xs),
                        |chan, coins| eq.run(chan, &coins.fork("e7"), Side::Bob, &ys),
                    )
                    .unwrap();
                    bits += out.report.total_bits() as f64;
                    rounds += out.report.rounds as f64;
                    wrong += out
                        .alice
                        .iter()
                        .zip(&equal_mask)
                        .filter(|(a, b)| a != b)
                        .count();
                }
                table.push_row(vec![
                    k.to_string(),
                    frac_label.to_string(),
                    n_bits.to_string(),
                    fmt_per(bits / (trials * k) as f64),
                    format!("{:.0}", rounds / trials as f64),
                    format!("{:.0}", (k as f64).sqrt()),
                    fmt_failures(wrong, trials * k),
                ]);
            }
        }
    }
    vec![table]
}
