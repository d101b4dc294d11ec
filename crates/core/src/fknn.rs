//! Amortized equality: `k` instances of `EQ` for `O(k)` total bits
//! (Theorem 3.2, after Feder–Kushilevitz–Naor–Nisan \[FKNN95\]).
//!
//! Guarantees matched (the paper uses FKNN strictly as a black box with
//! these parameters):
//!
//! * expected total communication `O(k)` — independent of the string
//!   length `n`,
//! * `O(√k)` rounds,
//! * error probability `2^{-Ω(√k)}` (one-sided: unequal pairs may be
//!   declared equal; equal pairs are never declared unequal).
//!
//! **Construction** (ours; FKNN's original is described only at the level
//! of its guarantees in the reproduced paper): instances are split into
//! `√k` blocks of `√k`, processed sequentially — matching the "inherently
//! sequential" `Ω(√k)`-round structure the paper attributes to \[FKNN95\].
//! Within a block, repeat: (1) a 2-bit per-instance *elimination pass*
//! removes detected unequal pairs (a fingerprint mismatch is certain
//! evidence — equal pairs never mismatch, unequal pairs survive a pass
//! with probability ≤ 1/4); (2) when a pass detects nothing, a single
//! `√k`-bit fingerprint of the concatenated survivors *confirms* the
//! block. Equal-heavy blocks pay ≈ 2 bits/instance + one `√k`-bit
//! confirmation (total `O(k)` over all blocks); unequal instances die in
//! expectation after `O(1)` two-bit tests. Accepting only after a clean
//! pass **and** a confirmed `√k`-bit fingerprint makes the per-block error
//! `2^{-√k}`, and a union bound over `√k` blocks keeps the total at
//! `2^{-Ω(√k)}`.
//!
//! Adversarially balanced blocks can pay an extra `O(log k)` factor in the
//! worst case versus FKNN's optimal bound; experiment E7 measures the cost
//! across equal/unequal mixes and shows the `O(k)` shape on all of them.

use intersect_comm::bits::BitBuf;
use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::Side;

use crate::cost::PredictedCost;
use crate::equality::fingerprint;

/// The amortized `EQ^n_k` protocol.
///
/// # Examples
///
/// ```
/// use intersect_core::fknn::AmortizedEquality;
/// use intersect_comm::bits::BitBuf;
/// use intersect_comm::runner::{run_two_party, RunConfig, Side};
///
/// let mk = |v: u64| { let mut b = BitBuf::new(); b.push_bits(v, 32); b };
/// let alice: Vec<BitBuf> = vec![mk(1), mk(2), mk(3)];
/// let bob: Vec<BitBuf> = vec![mk(1), mk(9), mk(3)];
/// let proto = AmortizedEquality::default();
/// let out = run_two_party(
///     &RunConfig::with_seed(4),
///     |chan, coins| proto.run(chan, &coins.fork("eqk"), Side::Alice, &alice),
///     |chan, coins| proto.run(chan, &coins.fork("eqk"), Side::Bob, &bob),
/// )?;
/// assert_eq!(out.alice, vec![true, false, true]);
/// assert_eq!(out.alice, out.bob);
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AmortizedEquality {
    /// Override for the block size (and confirmation bits); `None` uses
    /// `⌈√k⌉` as the theorem prescribes.
    pub block_size: Option<usize>,
}

/// Per-instance elimination bits per pass.
const ELIM_BITS: usize = 2;

/// The Euler–Mascheroni constant.
const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

impl AmortizedEquality {
    /// Uses block size `⌈√k⌉` (the theorem's parameterization).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fixes the block size (mainly for tests and ablations).
    pub fn with_block_size(block: usize) -> Self {
        AmortizedEquality {
            block_size: Some(block.max(1)),
        }
    }

    fn block_of(&self, k: usize) -> usize {
        self.block_size
            .unwrap_or_else(|| (k as f64).sqrt().ceil() as usize)
            .max(1)
    }

    /// Expected cost of `instances` tests of which `equal` are equal,
    /// spread evenly over the blocks.
    ///
    /// A pass costs 3 bits per alive instance (2 fingerprint bits, 1 mask
    /// bit), and an unequal instance survives it with probability 1/4:
    /// it lives `4/3` passes, 4 bits. A block runs until its `u` unequal
    /// instances are dead — the maximum of `u` geometric lifetimes,
    /// `log₄ u + γ/ln 4 + 1/2` passes — and its equal instances pay for
    /// every one of them plus the clean pass that triggers the
    /// confirmation. Passes in which every survivor happens to survive
    /// trigger a confirmation that fails: `log₄(4/3)` of them per block
    /// (the Frullani integral of the survival law).
    pub(crate) fn predicted_cost(&self, instances: f64, equal: f64) -> PredictedCost {
        let block = self.block_of(instances.round() as usize) as f64;
        let confirm = block.max(16.0) + 1.0;
        let blocks = (instances / block).ceil().max(1.0);
        let unequal = (instances - equal).max(0.0);
        let u = unequal / blocks;
        let (passes, spurious) = if u >= 1.0 {
            (
                u.log(4.0) + EULER_GAMMA / 4f64.ln() + 0.5,
                (4.0f64 / 3.0).log(4.0),
            )
        } else {
            (u * 4.0 / 3.0, u / 3.0)
        };
        let confirmed = 1.0 - (-equal / blocks).exp();
        PredictedCost {
            bits: 4.0 * unequal
                + 3.0 * equal * (passes + 1.0)
                + blocks * confirm * (confirmed + spurious),
            rounds: 2.0 * blocks * (passes + 2.0 * confirmed + spurious),
        }
    }

    /// Runs the `k = items.len()` equality instances; both parties return
    /// the same verdict vector (`true` = judged equal).
    ///
    /// The parties must agree on `items.len()`; the strings themselves may
    /// have arbitrary (and differing) lengths.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or if the parties disagree on the
    /// instance count.
    pub fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        items: &[BitBuf],
    ) -> Result<Vec<bool>, ProtocolError> {
        let k = items.len();
        if k == 0 {
            return Ok(Vec::new());
        }
        let block = self.block_of(k);
        // Confirmation strength: the block size (the √k of the theorem),
        // floored at 16 bits so tiny instances keep error ≤ 2^-16 — the
        // floor costs ≤ 16·(k/block) ≈ 16√k bits, vanishing against O(k).
        let confirm_bits = block.max(16);
        let mut verdicts = vec![true; k];

        for (block_idx, chunk_start) in (0..k).step_by(block).enumerate() {
            let chunk_end = (chunk_start + block).min(k);
            let block_coins = coins.fork_index(block_idx as u64);
            let mut alive: Vec<usize> = (chunk_start..chunk_end).collect();
            // Far beyond the expected O(log block) cycles; reaching the cap
            // contributes only to the 2^{-Ω(√k)} error budget.
            let cycle_cap = 4 * block + 64;
            let mut cycle = 0u64;
            while !alive.is_empty() {
                let cycle_coins = block_coins.fork_index(cycle);
                cycle += 1;
                // (1) Elimination pass: 2-bit tests per alive instance.
                let dead =
                    self.elimination_pass(chan, &cycle_coins.fork("elim"), side, items, &alive)?;
                for &idx in &dead {
                    verdicts[idx] = false;
                }
                let clean = dead.is_empty();
                alive.retain(|idx| !dead.contains(idx));
                // (2) A clean pass suggests the survivors are equal:
                // certify with the full √k-bit fingerprint.
                if clean && !alive.is_empty() {
                    let confirmed = self.compare_concat(
                        chan,
                        &cycle_coins.fork("confirm"),
                        side,
                        items,
                        &alive,
                        confirm_bits,
                    )?;
                    if confirmed {
                        break; // alive instances stand as equal
                    }
                }
                if cycle >= cycle_cap as u64 {
                    // Accept the rest; probability ≤ 4^{-cap} of arriving here
                    // with a hidden unequal pair.
                    break;
                }
            }
        }
        Ok(verdicts)
    }

    /// One fingerprint comparison of `concat(items[alive])`; Alice sends
    /// the fingerprint, Bob replies a verdict bit.
    fn compare_concat(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        items: &[BitBuf],
        alive: &[usize],
        bits: usize,
    ) -> Result<bool, ProtocolError> {
        // Size once up front: the γ₀ prefix of a length ℓ item costs at
        // most 2·bitlen(ℓ+1)+1 bits.
        let cap: usize = alive
            .iter()
            .map(|&idx| items[idx].len() + 2 * (usize::BITS as usize) + 1)
            .sum();
        let mut concat = BitBuf::with_capacity(cap);
        for &idx in alive {
            // Length-prefix each item so concatenations are unambiguous.
            intersect_comm::encode::put_gamma0(&mut concat, items[idx].len() as u64);
            concat.extend_from(&items[idx]);
        }
        let fp = fingerprint(&concat, coins, bits);
        match side {
            Side::Alice => {
                chan.send(fp)?;
                let reply = chan.recv()?;
                Ok(reply.get(0).unwrap_or(false))
            }
            Side::Bob => {
                let theirs = chan.recv()?;
                let ok = theirs == fp;
                let mut verdict = BitBuf::new();
                verdict.push_bit(ok);
                chan.send(verdict)?;
                Ok(ok)
            }
        }
    }

    /// One 2-bit-per-instance elimination pass; returns the indices proven
    /// unequal (identical on both sides).
    fn elimination_pass(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        items: &[BitBuf],
        alive: &[usize],
    ) -> Result<Vec<usize>, ProtocolError> {
        let fps: Vec<BitBuf> = alive
            .iter()
            .enumerate()
            .map(|(i, &idx)| fingerprint(&items[idx], &coins.fork_index(i as u64), ELIM_BITS))
            .collect();
        match side {
            Side::Alice => {
                let mut msg = BitBuf::with_capacity(fps.len() * ELIM_BITS);
                for fp in &fps {
                    msg.extend_from(fp);
                }
                chan.send(msg)?;
                let mask = chan.recv()?;
                if mask.len() != alive.len() {
                    return Err(ProtocolError::Internal(
                        "elimination mask size mismatch".into(),
                    ));
                }
                Ok(alive
                    .iter()
                    .zip(mask.iter())
                    .filter(|(_, dead)| *dead)
                    .map(|(&idx, _)| idx)
                    .collect())
            }
            Side::Bob => {
                let theirs = chan.recv()?;
                let mut r = theirs.reader();
                let mut mask = BitBuf::with_capacity(fps.len());
                let mut dead = Vec::new();
                for (i, fp) in fps.iter().enumerate() {
                    let other = r.read_buf(ELIM_BITS)?;
                    let mismatch = other != *fp;
                    mask.push_bit(mismatch);
                    if mismatch {
                        dead.push(alive[i]);
                    }
                }
                chan.send(mask)?;
                Ok(dead)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intersect_comm::runner::{run_two_party, RunConfig};
    use intersect_comm::stats::CostReport;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn string(v: u64, bits: usize) -> BitBuf {
        let mut b = BitBuf::new();
        let mut left = bits;
        let mut x = v;
        while left > 0 {
            let take = left.min(64);
            b.push_bits(x & ((1u128 << take) - 1) as u64, take);
            x = x.rotate_left(7) ^ 0x5555;
            left -= take;
        }
        b
    }

    fn run_fknn(seed: u64, alice: &[BitBuf], bob: &[BitBuf]) -> (Vec<bool>, CostReport) {
        let proto = AmortizedEquality::new();
        let out = run_two_party(
            &RunConfig::with_seed(seed),
            |chan, coins| proto.run(chan, &coins.fork("f"), Side::Alice, alice),
            |chan, coins| proto.run(chan, &coins.fork("f"), Side::Bob, bob),
        )
        .unwrap();
        assert_eq!(out.alice, out.bob, "parties must agree");
        (out.alice, out.report)
    }

    #[test]
    fn all_equal_instances_all_pass() {
        let items: Vec<BitBuf> = (0..100u64).map(|i| string(i, 256)).collect();
        let (verdicts, report) = run_fknn(1, &items, &items.clone());
        assert!(verdicts.iter().all(|&v| v));
        // Cost ≈ k + overheads, far below k · 256 (exchanging the strings).
        assert!(
            report.total_bits() < 100 * 40,
            "{} bits",
            report.total_bits()
        );
    }

    #[test]
    fn all_unequal_instances_all_fail() {
        let alice: Vec<BitBuf> = (0..100u64).map(|i| string(i, 256)).collect();
        let bob: Vec<BitBuf> = (0..100u64).map(|i| string(i + 1000, 256)).collect();
        let (verdicts, _) = run_fknn(2, &alice, &bob);
        assert!(verdicts.iter().all(|&v| !v));
    }

    #[test]
    fn mixed_instances_get_correct_verdicts() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for seed in 0..10 {
            let k = 64;
            let equal_mask: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.5)).collect();
            let alice: Vec<BitBuf> = (0..k).map(|i| string(i as u64, 128)).collect();
            let bob: Vec<BitBuf> = (0..k)
                .map(|i| {
                    if equal_mask[i] {
                        string(i as u64, 128)
                    } else {
                        string(i as u64 + 7777, 128)
                    }
                })
                .collect();
            let (verdicts, _) = run_fknn(seed, &alice, &bob);
            assert_eq!(verdicts, equal_mask, "seed {seed}");
        }
    }

    #[test]
    fn cost_is_linear_in_k_not_in_n() {
        // Doubling the string length must not change the cost much.
        let k = 144;
        let short: Vec<BitBuf> = (0..k as u64).map(|i| string(i, 64)).collect();
        let long: Vec<BitBuf> = (0..k as u64).map(|i| string(i, 4096)).collect();
        let (_, r_short) = run_fknn(4, &short, &short.clone());
        let (_, r_long) = run_fknn(4, &long, &long.clone());
        assert_eq!(r_short.total_bits(), r_long.total_bits());
        // And per-instance cost is a small constant for equal-heavy input.
        assert!(r_long.total_bits() < (k as u64) * 40);
    }

    #[test]
    fn rounds_scale_like_sqrt_k() {
        let k = 256; // block = 16
        let items: Vec<BitBuf> = (0..k as u64).map(|i| string(i, 64)).collect();
        let (_, report) = run_fknn(5, &items, &items.clone());
        // All-equal: 4 messages per block (quick + confirm), 16 blocks.
        assert!(report.rounds <= 8 * 16, "rounds = {}", report.rounds);
        assert!(report.rounds >= 16, "rounds = {}", report.rounds);
    }

    #[test]
    fn unequal_lengths_are_unequal() {
        let alice = vec![string(1, 64)];
        let bob = vec![string(1, 65)];
        let (verdicts, _) = run_fknn(6, &alice, &bob);
        assert_eq!(verdicts, vec![false]);
    }

    #[test]
    fn single_instance_and_empty_input() {
        let (verdicts, _) = run_fknn(7, &[], &[]);
        assert!(verdicts.is_empty());
        let a = vec![string(9, 32)];
        let (verdicts, _) = run_fknn(8, &a, &a.clone());
        assert_eq!(verdicts, vec![true]);
    }

    #[test]
    fn error_rate_is_tiny_across_seeds() {
        // 64 unequal instances, 50 seeds: no false "equal" verdicts thanks
        // to the √k-bit confirmations.
        let alice: Vec<BitBuf> = (0..64u64).map(|i| string(i, 96)).collect();
        let bob: Vec<BitBuf> = (0..64u64).map(|i| string(i ^ 0xdead, 96)).collect();
        let mut wrong = 0;
        for seed in 0..50 {
            let (verdicts, _) = run_fknn(seed, &alice, &bob);
            wrong += verdicts.iter().filter(|&&v| v).count();
        }
        assert_eq!(wrong, 0);
    }

    #[test]
    fn custom_block_size_still_correct() {
        let proto = AmortizedEquality::with_block_size(5);
        let alice: Vec<BitBuf> = (0..31u64).map(|i| string(i, 64)).collect();
        let mut bob = alice.clone();
        bob[13] = string(999, 64);
        let out = run_two_party(
            &RunConfig::with_seed(9),
            |chan, coins| proto.run(chan, &coins.fork("f"), Side::Alice, &alice),
            |chan, coins| proto.run(chan, &coins.fork("f"), Side::Bob, &bob),
        )
        .unwrap();
        let mut expect = vec![true; 31];
        expect[13] = false;
        assert_eq!(out.alice, expect);
    }
}
