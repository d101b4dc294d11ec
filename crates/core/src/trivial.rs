//! The trivial deterministic protocol: `D⁽¹⁾(INT_k) = O(k·log(n/k))`.
//!
//! Alice simply sends her whole set; Bob computes `S ∩ T` locally and (in
//! the two-message variant) sends the intersection back so both parties
//! output it. With the optimal binomial subset code the first message is
//! the information-theoretic minimum `⌈log₂ Σᵢ≤k C(n,i)⌉ ≈ k·log₂(n/k)`
//! bits; the fast Rice variant is within a couple of bits per element.
//!
//! This is the baseline the paper's headline result beats by a factor of
//! `log(n/k)`: no protocol that reveals a whole *arbitrary* set can do
//! better, but recovering only the *intersection* can (Theorems 1.1, 3.1).

use crate::cost::{rice_bits, PredictedCost};
use crate::sets::{ElementSet, ProblemSpec};
use intersect_comm::bits::BitBuf;
use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::encode::{BinomialSubsetCodec, EliasFanoSubsetCodec, RiceSubsetCodec};
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::Side;

/// Which subset code the trivial protocol uses on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SubsetCode {
    /// Exact optimum `⌈log₂ C(n,≤k)⌉` bits via the combinatorial number
    /// system; encoding cost grows with `n`, so prefer it for `n ≲ 2¹⁶`.
    Binomial,
    /// Golomb–Rice gap coding: `k(log₂(n/k) + O(1))` bits at word speed.
    #[default]
    Rice,
    /// Elias–Fano monotone-sequence coding: same order, inverted-index
    /// style upper-bits structure.
    EliasFano,
}

/// The deterministic one-exchange protocol.
///
/// If `echo` is `true` (the default) Bob sends the computed intersection
/// back so *both* parties output it (this is what `INT_k` demands); with
/// `echo = false` only Bob learns the answer and Alice returns her input
/// filtered by nothing (useful as a one-way transfer baseline).
///
/// # Examples
///
/// ```
/// use intersect_core::trivial::TrivialExchange;
/// use intersect_core::sets::{ElementSet, ProblemSpec};
/// use intersect_comm::runner::{run_two_party, RunConfig, Side};
///
/// let spec = ProblemSpec::new(1 << 20, 4);
/// let s = ElementSet::from_iter([7u64, 99, 1 << 19]);
/// let t = ElementSet::from_iter([99u64, 1 << 19, 12345]);
/// let proto = TrivialExchange::default();
/// let out = run_two_party(
///     &RunConfig::with_seed(0),
///     |chan, coins| proto.run(chan, coins, Side::Alice, spec, &s),
///     |chan, coins| proto.run(chan, coins, Side::Bob, spec, &t),
/// )?;
/// assert_eq!(out.alice.as_slice(), &[99, 1 << 19]);
/// assert_eq!(out.alice, out.bob);
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrivialExchange {
    /// Wire format for sets.
    pub code: SubsetCode,
    /// Whether Bob echoes the intersection back to Alice.
    pub echo: bool,
}

impl Default for TrivialExchange {
    fn default() -> Self {
        TrivialExchange {
            code: SubsetCode::Rice,
            echo: true,
        }
    }
}

impl TrivialExchange {
    /// Creates the protocol with the given wire format, echo enabled.
    pub fn new(code: SubsetCode) -> Self {
        TrivialExchange { code, echo: true }
    }

    fn encode(&self, spec: ProblemSpec, set: &ElementSet) -> BitBuf {
        match self.code {
            SubsetCode::Binomial => BinomialSubsetCodec::new(spec.n, spec.k).encode(set.as_slice()),
            SubsetCode::Rice => RiceSubsetCodec::new(spec.n, spec.k).encode(set.as_slice()),
            SubsetCode::EliasFano => {
                EliasFanoSubsetCodec::new(spec.n, spec.k).encode(set.as_slice())
            }
        }
    }

    fn decode(&self, spec: ProblemSpec, buf: &BitBuf) -> Result<ElementSet, ProtocolError> {
        let elems = match self.code {
            SubsetCode::Binomial => {
                BinomialSubsetCodec::new(spec.n, spec.k).decode(&mut buf.reader())?
            }
            SubsetCode::Rice => RiceSubsetCodec::new(spec.n, spec.k).decode(&mut buf.reader())?,
            SubsetCode::EliasFano => {
                EliasFanoSubsetCodec::new(spec.n, spec.k).decode(&mut buf.reader())?
            }
        };
        Ok(ElementSet::from_sorted(elems))
    }

    /// Expected cost on two `k`-element sets sharing `overlap`: Alice's
    /// set, then Bob's echo of the intersection, each a Rice code over
    /// `[n]`. Prices the default [`SubsetCode::Rice`] only.
    pub(crate) fn predicted_cost(&self, spec: ProblemSpec, overlap: u64) -> PredictedCost {
        debug_assert_eq!(self.code, SubsetCode::Rice, "only the Rice code is priced");
        let echo = if self.echo {
            rice_bits(spec.n, spec.k, overlap)
        } else {
            0.0
        };
        PredictedCost {
            bits: rice_bits(spec.n, spec.k, spec.k) + echo,
            rounds: 1.0 + self.echo as u8 as f64,
        }
    }

    /// Runs the protocol. Deterministic: `coins` are unused.
    ///
    /// # Errors
    ///
    /// Fails on invalid inputs or transport errors.
    pub fn run(
        &self,
        chan: &mut dyn Chan,
        _coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        spec.validate(input).map_err(ProtocolError::InvalidInput)?;
        let span = intersect_obs::phase::span("core", "exchange");
        let before = chan.stats();
        let out = match side {
            Side::Alice => {
                chan.send(self.encode(spec, input))?;
                if self.echo {
                    self.decode(spec, &chan.recv()?)?
                } else {
                    input.clone()
                }
            }
            Side::Bob => {
                let s = self.decode(spec, &chan.recv()?)?;
                let intersection = s.intersection(input);
                if self.echo {
                    chan.send(self.encode(spec, &intersection))?;
                }
                intersection
            }
        };
        span.finish(chan.stats().delta_since(&before));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::InputPair;
    use intersect_comm::runner::{run_two_party, RunConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_trivial(
        proto: TrivialExchange,
        spec: ProblemSpec,
        s: &ElementSet,
        t: &ElementSet,
    ) -> (ElementSet, ElementSet, intersect_comm::stats::CostReport) {
        let out = run_two_party(
            &RunConfig::with_seed(0),
            |chan, coins| proto.run(chan, coins, Side::Alice, spec, s),
            |chan, coins| proto.run(chan, coins, Side::Bob, spec, t),
        )
        .unwrap();
        (out.alice, out.bob, out.report)
    }

    #[test]
    fn always_exact_for_both_codes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let spec = ProblemSpec::new(4096, 32);
        for code in [
            SubsetCode::Binomial,
            SubsetCode::Rice,
            SubsetCode::EliasFano,
        ] {
            for overlap in [0usize, 5, 32] {
                let pair = InputPair::random_with_overlap(&mut rng, spec, 32, overlap);
                let (a, b, _) = run_trivial(TrivialExchange::new(code), spec, &pair.s, &pair.t);
                assert_eq!(a, pair.ground_truth());
                assert_eq!(b, pair.ground_truth());
            }
        }
    }

    #[test]
    fn cost_is_k_log_n_over_k() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let spec = ProblemSpec::new(1 << 20, 256);
        let pair = InputPair::random_with_overlap(&mut rng, spec, 256, 0);
        let (_, _, report) = run_trivial(TrivialExchange::default(), spec, &pair.s, &pair.t);
        // First message ≈ k(log2(n/k) + ~2.5); echo of an empty set is tiny.
        let per_elem = report.bits_alice as f64 / 256.0;
        let target = (spec.n as f64 / 256.0).log2();
        assert!(
            per_elem < target + 4.0,
            "per-element {per_elem:.1} vs log2(n/k) = {target:.1}"
        );
    }

    #[test]
    fn binomial_code_beats_rice_on_small_universe() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let spec = ProblemSpec::new(512, 64);
        let pair = InputPair::random_with_overlap(&mut rng, spec, 64, 10);
        let (_, _, rb) = run_trivial(
            TrivialExchange::new(SubsetCode::Binomial),
            spec,
            &pair.s,
            &pair.t,
        );
        let (_, _, rr) = run_trivial(
            TrivialExchange::new(SubsetCode::Rice),
            spec,
            &pair.s,
            &pair.t,
        );
        assert!(
            rb.bits_alice <= rr.bits_alice,
            "binomial {} vs rice {}",
            rb.bits_alice,
            rr.bits_alice
        );
    }

    #[test]
    fn one_message_without_echo() {
        let spec = ProblemSpec::new(100, 4);
        let s = ElementSet::from_iter([1u64, 2, 3]);
        let t = ElementSet::from_iter([2u64, 3, 4]);
        let proto = TrivialExchange {
            code: SubsetCode::Rice,
            echo: false,
        };
        let (_, b, report) = run_trivial(proto, spec, &s, &t);
        assert_eq!(b.as_slice(), &[2, 3]);
        assert_eq!(report.messages, 1);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.bits_bob, 0);
    }

    #[test]
    fn empty_sets_round_trip() {
        let spec = ProblemSpec::new(100, 4);
        let empty = ElementSet::new();
        let t = ElementSet::from_iter([1u64]);
        let (a, b, _) = run_trivial(TrivialExchange::default(), spec, &empty, &t);
        assert!(a.is_empty() && b.is_empty());
    }
}
