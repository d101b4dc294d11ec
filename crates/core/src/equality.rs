//! Randomized equality testing (Fact 3.5).
//!
//! The paper's verification step is an equality test with one-sided error:
//! if `x = y` both parties output 1 with probability 1; if `x ≠ y` both
//! output 0 with probability at least `1 − 2^{-b}` for a chosen error
//! exponent `b`, at cost `O(b)` bits and two messages.
//!
//! We realize the "random hash function into `b` bits" with polynomial
//! fingerprints over the Mersenne field `GF(2^61 − 1)`: each *lane* of up
//! to 30 bits is an independent degree-`len` polynomial evaluation followed
//! by a pairwise-independent truncation, with per-lane collision
//! probability `≤ 2^{-lane bits} + len/2^61`. A `b`-bit fingerprint uses
//! `⌈b/30⌉` lanes and transmits exactly `b` bits, so even the 2-bit tests
//! deep in the verification tree cost exactly what the paper charges them.
//!
//! **Randomness discipline:** every invocation must use fresh shared coins
//! (pass `coins.fork(label)` with a label unique to the invocation), since
//! reusing a fingerprint function across adaptively chosen re-runs voids
//! the error guarantee.

use intersect_comm::bits::BitBuf;
use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::Side;
use intersect_hash::prime::{mul_mod, M61};
use rand::Rng;

/// Bits contributed by one fingerprint lane.
const LANE_BITS: usize = 30;

/// One fingerprint lane: a random-evaluation-point polynomial hash over
/// `GF(M61)` composed with a random affine truncation to [`LANE_BITS`] bits.
#[derive(Debug, Clone)]
struct Lane {
    r: u64,
    a: u64,
    b: u64,
}

impl Lane {
    fn sample<Rg: Rng + ?Sized>(rng: &mut Rg) -> Self {
        Lane {
            r: rng.gen_range(1..M61),
            a: rng.gen_range(1..M61),
            b: rng.gen_range(0..M61),
        }
    }

    fn eval(&self, words: &[u64], len_bits: usize, out_bits: usize) -> u64 {
        // Horner over (len ‖ words); splitting u64 words into two 32-bit
        // halves keeps every coefficient < M61.
        let mut acc = (len_bits as u64) % M61;
        for &w in words {
            for half in [w & 0xffff_ffff, w >> 32] {
                acc = (mul_mod(acc, self.r, M61) + half) % M61;
            }
        }
        let v = (mul_mod(self.a, acc, M61) + self.b) % M61;
        v & ((1u64 << out_bits) - 1)
    }
}

/// Computes a `bits`-bit one-sided-error fingerprint of `data`.
///
/// Equal inputs produce equal fingerprints with certainty; inputs that
/// differ collide with probability at most `2^{-bits}` (up to the
/// negligible `len/2^61` polynomial term) over the choice of `coins`.
///
/// # Examples
///
/// ```
/// use intersect_core::equality::fingerprint;
/// use intersect_comm::bits::BitBuf;
/// use intersect_comm::coins::CoinSource;
///
/// let coins = CoinSource::from_seed(1).fork("fp");
/// let mut x = BitBuf::new();
/// x.push_bits(0xfeed, 16);
/// let f1 = fingerprint(&x, &coins, 40);
/// let f2 = fingerprint(&x, &coins, 40);
/// assert_eq!(f1, f2);
/// assert_eq!(f1.len(), 40);
/// ```
pub fn fingerprint(data: &BitBuf, coins: &CoinSource, bits: usize) -> BitBuf {
    let bits = bits.max(1);
    let mut out = BitBuf::with_capacity(bits);
    let mut produced = 0;
    let mut lane_idx = 0u64;
    while produced < bits {
        let take = (bits - produced).min(LANE_BITS);
        let mut rng = coins.fork_index(lane_idx).rng();
        let lane = Lane::sample(&mut rng);
        out.push_bits(lane.eval(data.words(), data.len(), take), take);
        produced += take;
        lane_idx += 1;
    }
    out
}

/// The equality test of Fact 3.5.
///
/// # Examples
///
/// ```
/// use intersect_core::equality::EqualityTest;
/// use intersect_comm::bits::BitBuf;
/// use intersect_comm::runner::{run_two_party, RunConfig, Side};
///
/// let mut x = BitBuf::new();
/// x.push_bits(123, 10);
/// let y = x.clone();
/// let eq = EqualityTest::new(20);
/// let out = run_two_party(
///     &RunConfig::with_seed(5),
///     |chan, coins| eq.run(chan, &coins.fork("eq"), Side::Alice, &x),
///     |chan, coins| eq.run(chan, &coins.fork("eq"), Side::Bob, &y),
/// )?;
/// assert!(out.alice && out.bob);
/// assert_eq!(out.report.rounds, 2);
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EqualityTest {
    /// Error exponent `b`: unequal inputs pass with probability `≤ 2^{-b}`.
    pub error_bits: usize,
}

impl EqualityTest {
    /// Creates a test with failure probability `2^{-error_bits}`.
    pub fn new(error_bits: usize) -> Self {
        EqualityTest {
            error_bits: error_bits.max(1),
        }
    }

    /// Runs the test on one input string per party.
    ///
    /// Returns `true` iff the inputs were judged equal; both parties always
    /// return the same verdict. Two messages: Alice's fingerprint, Bob's
    /// verdict bit.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        data: &BitBuf,
    ) -> Result<bool, ProtocolError> {
        Ok(self.run_batch(chan, coins, side, std::slice::from_ref(data))?[0])
    }

    /// Runs many equality tests in parallel, in the same two messages.
    ///
    /// This is how the tree protocol's per-level verification achieves
    /// "the equality tests can be done in parallel in two rounds": the
    /// fingerprints of all `items` travel in one message and the verdict
    /// bitmask in one reply.
    ///
    /// # Errors
    ///
    /// Propagates transport failures, and reports a codec error if the
    /// parties disagree on the number of items (a protocol bug).
    pub fn run_batch(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        items: &[BitBuf],
    ) -> Result<Vec<bool>, ProtocolError> {
        let fingerprints: Vec<BitBuf> = items
            .iter()
            .enumerate()
            .map(|(i, item)| fingerprint(item, &coins.fork_index(i as u64), self.error_bits))
            .collect();
        match side {
            Side::Alice => {
                let mut msg =
                    BitBuf::with_capacity(fingerprints.iter().map(BitBuf::len).sum::<usize>());
                for fp in &fingerprints {
                    msg.extend_from(fp);
                }
                chan.send(msg)?;
                let verdicts = chan.recv()?;
                if verdicts.len() != items.len() {
                    return Err(ProtocolError::Internal(format!(
                        "verdict mask has {} bits for {} items",
                        verdicts.len(),
                        items.len()
                    )));
                }
                Ok(verdicts.iter().collect())
            }
            Side::Bob => {
                let theirs = chan.recv()?;
                let mut r = theirs.reader();
                let mut verdicts = BitBuf::with_capacity(items.len());
                let mut out = Vec::with_capacity(items.len());
                for fp in &fingerprints {
                    let other = r.read_buf(fp.len()).map_err(|e| {
                        ProtocolError::Internal(format!("fingerprint stream too short: {e}"))
                    })?;
                    let equal = other == *fp;
                    verdicts.push_bit(equal);
                    out.push(equal);
                }
                if r.remaining() != 0 {
                    return Err(ProtocolError::Internal(
                        "fingerprint stream has trailing bits".into(),
                    ));
                }
                chan.send(verdicts)?;
                Ok(out)
            }
        }
    }
}

/// Serializes an element list for fingerprint comparison.
///
/// Both parties must use the same encoding for semantically equal values;
/// this canonical form (gamma-coded length, fixed 64-bit elements) is shared
/// by every protocol in this crate.
pub fn encode_for_equality(elems: &[u64]) -> BitBuf {
    let mut buf = BitBuf::new();
    intersect_comm::encode::put_gamma0(&mut buf, elems.len() as u64);
    for &e in elems {
        buf.push_bits(e, 64);
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use intersect_comm::runner::{run_two_party, RunConfig};

    fn buf_of(vals: &[u64]) -> BitBuf {
        encode_for_equality(vals)
    }

    fn run_eq(seed: u64, x: &BitBuf, y: &BitBuf, bits: usize) -> (bool, u64, u64) {
        let eq = EqualityTest::new(bits);
        let out = run_two_party(
            &RunConfig::with_seed(seed),
            |chan, coins| eq.run(chan, &coins.fork("t"), Side::Alice, x),
            |chan, coins| eq.run(chan, &coins.fork("t"), Side::Bob, y),
        )
        .unwrap();
        assert_eq!(out.alice, out.bob, "parties must agree");
        (out.alice, out.report.total_bits(), out.report.rounds)
    }

    #[test]
    fn equal_inputs_always_pass() {
        for seed in 0..50 {
            let x = buf_of(&[1, 2, 3, seed]);
            let (verdict, _, rounds) = run_eq(seed, &x, &x.clone(), 20);
            assert!(verdict, "seed {seed}");
            assert_eq!(rounds, 2);
        }
    }

    #[test]
    fn unequal_inputs_almost_always_fail() {
        let mut false_positives = 0;
        for seed in 0..200 {
            let x = buf_of(&[seed, 2, 3]);
            let y = buf_of(&[seed, 2, 4]);
            if run_eq(seed, &x, &y, 30).0 {
                false_positives += 1;
            }
        }
        // With 30-bit error the expected count is ≈ 200 / 2^30 ≈ 0.
        assert_eq!(false_positives, 0);
    }

    #[test]
    fn tiny_fingerprints_do_collide_sometimes() {
        // Sanity check that the error knob is real: 1-lane truncated to
        // small effective bits would collide; at 30 bits collisions are
        // rare, so instead verify the lane math by brute-force agreement.
        let x = buf_of(&[7]);
        let y = buf_of(&[8]);
        let mut disagreements = 0;
        for seed in 0..100 {
            let coins = CoinSource::from_seed(seed).fork("fp");
            if fingerprint(&x, &coins, 30) != fingerprint(&y, &coins, 30) {
                disagreements += 1;
            }
        }
        assert!(disagreements >= 99);
    }

    #[test]
    fn cost_matches_declared() {
        let x = buf_of(&[1, 2, 3]);
        for bits in [1usize, 16, 30, 31, 60, 100] {
            let (_, total, _) = run_eq(7, &x, &x.clone(), bits);
            assert_eq!(total as usize, bits + 1, "bits = {bits}");
        }
    }

    #[test]
    fn length_differences_are_detected() {
        // Same words, different bit length: must not be judged equal.
        let mut x = BitBuf::new();
        x.push_bits(0b101, 3);
        let mut y = BitBuf::new();
        y.push_bits(0b101, 3);
        y.push_bit(false); // trailing zero bit: words identical, length differs
        assert_eq!(x.words(), y.words());
        let mut collisions = 0;
        for seed in 0..100 {
            if run_eq(seed, &x, &y, 30).0 {
                collisions += 1;
            }
        }
        assert_eq!(collisions, 0);
    }

    #[test]
    fn batch_matches_itemwise_semantics() {
        let items_a: Vec<BitBuf> = (0..20u64).map(|i| buf_of(&[i, i + 1])).collect();
        let mut items_b = items_a.clone();
        items_b[3] = buf_of(&[99]);
        items_b[17] = buf_of(&[1, 2, 3, 4]);
        let eq = EqualityTest::new(25);
        let out = run_two_party(
            &RunConfig::with_seed(11),
            |chan, coins| eq.run_batch(chan, &coins.fork("b"), Side::Alice, &items_a),
            |chan, coins| eq.run_batch(chan, &coins.fork("b"), Side::Bob, &items_b),
        )
        .unwrap();
        assert_eq!(out.alice, out.bob);
        for (i, verdict) in out.alice.iter().enumerate() {
            assert_eq!(*verdict, !(i == 3 || i == 17), "item {i}");
        }
        // Whole batch in exactly two rounds.
        assert_eq!(out.report.rounds, 2);
        assert_eq!(out.report.messages, 2);
    }

    #[test]
    fn empty_batch_is_fine() {
        let eq = EqualityTest::new(10);
        let out = run_two_party(
            &RunConfig::with_seed(1),
            |chan, coins| eq.run_batch(chan, &coins.fork("b"), Side::Alice, &[]),
            |chan, coins| eq.run_batch(chan, &coins.fork("b"), Side::Bob, &[]),
        )
        .unwrap();
        assert!(out.alice.is_empty() && out.bob.is_empty());
    }

    #[test]
    fn fresh_labels_give_fresh_functions() {
        let x = buf_of(&[5]);
        let y = buf_of(&[6]);
        let root = CoinSource::from_seed(3);
        // Find that different labels give different fingerprint behaviour by
        // checking the fingerprints themselves differ across labels.
        let f1 = fingerprint(&x, &root.fork("a"), 30);
        let f2 = fingerprint(&x, &root.fork("b"), 30);
        assert_ne!(f1, f2, "labels must decorrelate fingerprints");
        let _ = y;
    }

    #[test]
    fn encode_for_equality_is_injective_on_lists() {
        let a = encode_for_equality(&[1, 2]);
        let b = encode_for_equality(&[1, 2, 0]);
        let c = encode_for_equality(&[]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
