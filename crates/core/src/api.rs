//! The public protocol API: object-safe traits, a protocol catalogue, and
//! a one-call executor.

use crate::basic::BasicIntersection;
use crate::hw07::HwDisjointness;
use crate::one_round::OneRoundHash;
use crate::prepared::{FallbackPlan, PreparedProtocol};
use crate::sets::{ElementSet, InputPair, ProblemSpec};
use crate::sqrt::SqrtProtocol;
use crate::st13::SparseDisjointness;
use crate::tree::TreeProtocol;
use crate::tree_pipelined::PipelinedTree;
use crate::trivial::TrivialExchange;
use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::Side;
use intersect_comm::stats::CostReport;
use std::sync::Arc;

/// A two-party protocol computing `S ∩ T`.
///
/// Implementations are symmetric: both parties call [`run`](Self::run)
/// with their own input and side, and each returns its view of the
/// intersection (equal on both sides whenever the protocol succeeds).
pub trait SetIntersection: Send + Sync + std::fmt::Debug {
    /// A human-readable name including the salient parameters.
    fn name(&self) -> String;

    /// Executes the protocol over `chan` with shared randomness `coins`.
    ///
    /// # Errors
    ///
    /// Fails on invalid inputs or transport errors.
    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError>;

    /// Performs the input-independent parameter phase for `spec` once —
    /// hash-family primes, tree shapes, round/error schedules — and
    /// returns a plan whose
    /// [`execute`](crate::prepared::PreparedProtocol::execute) replays
    /// the bit-exchanging phase for any input.
    ///
    /// Prepared executions are bit-identical to [`run`](Self::run) given
    /// the same coins: preparation hoists only deterministic, RNG-free
    /// work.
    fn prepare(&self, spec: ProblemSpec) -> Arc<dyn PreparedProtocol>;
}

/// A two-party protocol deciding whether `S ∩ T = ∅`.
pub trait SetDisjointness: Send + Sync + std::fmt::Debug {
    /// A human-readable name including the salient parameters.
    fn name(&self) -> String;

    /// Executes the protocol; `true` means "judged disjoint".
    ///
    /// # Errors
    ///
    /// Fails on invalid inputs or transport errors.
    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<bool, ProtocolError>;
}

impl<P: SetIntersection + ?Sized> SetIntersection for Box<P> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        (**self).run(chan, coins, side, spec, input)
    }

    fn prepare(&self, spec: ProblemSpec) -> Arc<dyn PreparedProtocol> {
        (**self).prepare(spec)
    }
}

impl<P: SetIntersection + ?Sized> SetIntersection for &P {
    fn name(&self) -> String {
        (**self).name()
    }

    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        (**self).run(chan, coins, side, spec, input)
    }

    fn prepare(&self, spec: ProblemSpec) -> Arc<dyn PreparedProtocol> {
        (**self).prepare(spec)
    }
}

impl SetIntersection for TrivialExchange {
    fn name(&self) -> String {
        format!("trivial({:?})", self.code)
    }

    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        TrivialExchange::run(self, chan, &coins.fork("trivial"), side, spec, input)
    }

    // The trivial exchange derives no parameters: the fallback plan (an
    // identity preparation) is already optimal.
    fn prepare(&self, spec: ProblemSpec) -> Arc<dyn PreparedProtocol> {
        Arc::new(FallbackPlan::new(*self, spec))
    }
}

impl SetIntersection for OneRoundHash {
    fn name(&self) -> String {
        format!("one-round(e={})", self.error_bits)
    }

    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        OneRoundHash::run(self, chan, &coins.fork("one-round"), side, spec, input)
    }

    fn prepare(&self, spec: ProblemSpec) -> Arc<dyn PreparedProtocol> {
        Arc::new(self.plan(spec))
    }
}

impl SetIntersection for BasicIntersection {
    fn name(&self) -> String {
        format!("basic(e={})", self.error_bits)
    }

    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        BasicIntersection::run(self, chan, &coins.fork("basic"), side, spec, input)
    }

    fn prepare(&self, spec: ProblemSpec) -> Arc<dyn PreparedProtocol> {
        Arc::new(self.plan(spec))
    }
}

impl SetIntersection for TreeProtocol {
    fn name(&self) -> String {
        format!("tree(r={})", self.stages)
    }

    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        TreeProtocol::run(self, chan, &coins.fork("tree"), side, spec, input)
    }

    fn prepare(&self, spec: ProblemSpec) -> Arc<dyn PreparedProtocol> {
        Arc::new(self.plan(spec))
    }
}

impl SetIntersection for PipelinedTree {
    fn name(&self) -> String {
        format!("tree-pipelined(r={})", self.stages)
    }

    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        PipelinedTree::run(self, chan, &coins.fork("tree-pipelined"), side, spec, input)
    }

    fn prepare(&self, spec: ProblemSpec) -> Arc<dyn PreparedProtocol> {
        Arc::new(self.plan(spec))
    }
}

impl SetIntersection for SqrtProtocol {
    fn name(&self) -> String {
        "sqrt-fknn".to_string()
    }

    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        SqrtProtocol::run(self, chan, &coins.fork("sqrt"), side, spec, input)
    }

    fn prepare(&self, spec: ProblemSpec) -> Arc<dyn PreparedProtocol> {
        Arc::new(self.plan(spec))
    }
}

impl SetDisjointness for HwDisjointness {
    fn name(&self) -> String {
        "hw07".to_string()
    }

    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<bool, ProtocolError> {
        HwDisjointness::run(self, chan, &coins.fork("hw07"), side, spec, input)
    }
}

impl SetDisjointness for SparseDisjointness {
    fn name(&self) -> String {
        format!("st13(r={})", self.rounds)
    }

    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<bool, ProtocolError> {
        SparseDisjointness::run(self, chan, &coins.fork("st13"), side, spec, input)
    }
}

/// Any intersection protocol decides disjointness (the reduction the paper
/// opens with: `INT_k` is at least as hard as `DISJ_k`).
#[derive(Debug, Clone, Copy)]
pub struct DisjointnessViaIntersection<P>(pub P);

impl<P: SetIntersection> SetDisjointness for DisjointnessViaIntersection<P> {
    fn name(&self) -> String {
        format!("disj-via-{}", self.0.name())
    }

    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<bool, ProtocolError> {
        Ok(self.0.run(chan, coins, side, spec, input)?.is_empty())
    }
}

/// The protocol catalogue, for building by name in harnesses and CLIs.
///
/// `Hash + Eq` so `(ProtocolChoice, ProblemSpec)` can key a plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolChoice {
    /// Deterministic one-exchange optimal-code transfer.
    Trivial,
    /// One-round `O(k log k)` hashing.
    OneRound,
    /// `Basic-Intersection` alone (Lemma 3.3).
    Basic,
    /// The verification tree with an explicit round budget.
    Tree(u32),
    /// The verification tree at `r = log* k` (headline configuration).
    TreeLogStar,
    /// The pipelined tree (the open-problem schedule: `2r + 1` messages).
    TreePipelined(u32),
    /// The `O(√k)`-round bucketed amortized-equality protocol.
    Sqrt,
    /// IBLT set reconciliation (difference-proportional baseline).
    IbltReconcile,
}

impl ProtocolChoice {
    /// Error exponent of the catalogue's [`ProtocolChoice::Basic`].
    pub(crate) const BASIC_ERROR_BITS: usize = 20;

    /// Error exponent of the catalogue's [`ProtocolChoice::OneRound`]:
    /// error `1/k²`, range `k⁴`, so the cost stays `Θ(k·log k)` and never
    /// degenerates to the full-universe identity map.
    pub(crate) fn one_round_error_bits(spec: ProblemSpec) -> usize {
        2 * crate::iterlog::ceil_log2(spec.k.max(2)) as usize
    }

    /// Instantiates the protocol for a given spec.
    pub fn build(self, spec: ProblemSpec) -> Box<dyn SetIntersection> {
        match self {
            ProtocolChoice::Trivial => Box::new(TrivialExchange::default()),
            ProtocolChoice::OneRound => {
                Box::new(OneRoundHash::new(Self::one_round_error_bits(spec)))
            }
            ProtocolChoice::Basic => Box::new(BasicIntersection::new(Self::BASIC_ERROR_BITS)),
            ProtocolChoice::Tree(r) => Box::new(TreeProtocol::new(r)),
            ProtocolChoice::TreeLogStar => Box::new(TreeProtocol::log_star(spec.k)),
            ProtocolChoice::TreePipelined(r) => Box::new(PipelinedTree::new(r)),
            ProtocolChoice::Sqrt => Box::new(SqrtProtocol::default()),
            ProtocolChoice::IbltReconcile => Box::new(crate::reconcile::IbltReconcile::default()),
        }
    }

    /// All catalogue entries with a default parameterization.
    pub fn all(max_tree_rounds: u32) -> Vec<ProtocolChoice> {
        let mut v = vec![
            ProtocolChoice::Trivial,
            ProtocolChoice::OneRound,
            ProtocolChoice::Basic,
            ProtocolChoice::Sqrt,
            ProtocolChoice::IbltReconcile,
            ProtocolChoice::TreeLogStar,
        ];
        for r in 1..=max_tree_rounds {
            v.push(ProtocolChoice::Tree(r));
            if r >= 2 {
                v.push(ProtocolChoice::TreePipelined(r));
            }
        }
        v
    }
}

impl std::fmt::Display for ProtocolChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolChoice::Trivial => f.write_str("trivial"),
            ProtocolChoice::OneRound => f.write_str("one-round"),
            ProtocolChoice::Basic => f.write_str("basic"),
            ProtocolChoice::Tree(r) => write!(f, "tree:{r}"),
            ProtocolChoice::TreeLogStar => f.write_str("tree-log-star"),
            ProtocolChoice::TreePipelined(r) => write!(f, "tree-pipelined:{r}"),
            ProtocolChoice::Sqrt => f.write_str("sqrt"),
            ProtocolChoice::IbltReconcile => f.write_str("iblt"),
        }
    }
}

impl std::str::FromStr for ProtocolChoice {
    type Err = String;

    /// Parses the names printed by [`Display`](std::fmt::Display):
    /// `trivial`, `one-round`, `basic`, `tree:<r>`, `tree-log-star`,
    /// `tree-pipelined:<r>`, `sqrt`, `iblt`. `tree` without a round
    /// budget is accepted as an alias for `tree-log-star`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rounds = |spec: &str| -> Result<u32, String> {
            spec.parse::<u32>()
                .ok()
                .filter(|r| (1..=64).contains(r))
                .ok_or_else(|| format!("bad round budget {spec:?} (want 1..=64)"))
        };
        match s {
            "trivial" => Ok(ProtocolChoice::Trivial),
            "one-round" => Ok(ProtocolChoice::OneRound),
            "basic" => Ok(ProtocolChoice::Basic),
            "tree" | "tree-log-star" => Ok(ProtocolChoice::TreeLogStar),
            "sqrt" => Ok(ProtocolChoice::Sqrt),
            "iblt" => Ok(ProtocolChoice::IbltReconcile),
            other => {
                if let Some(spec) = other.strip_prefix("tree-pipelined:") {
                    Ok(ProtocolChoice::TreePipelined(rounds(spec)?))
                } else if let Some(spec) = other.strip_prefix("tree:") {
                    Ok(ProtocolChoice::Tree(rounds(spec)?))
                } else {
                    Err(format!(
                        "unknown protocol {other:?}; expected trivial, one-round, basic, \
                         tree:<r>, tree-log-star, tree-pipelined:<r>, sqrt, or iblt"
                    ))
                }
            }
        }
    }
}

/// The outcome of executing an intersection protocol on a local pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntersectionRun {
    /// Alice's output.
    pub alice: ElementSet,
    /// Bob's output.
    pub bob: ElementSet,
    /// Exact communication cost.
    pub report: CostReport,
}

impl IntersectionRun {
    /// `true` iff both parties produced exactly `expected`.
    pub fn matches(&self, expected: &ElementSet) -> bool {
        self.alice == *expected && self.bob == *expected
    }
}

/// Runs `protocol` on `(pair.s, pair.t)` over this thread's warm
/// session runner with shared seed `seed`, returning both outputs and
/// the exact cost.
///
/// Internally this is `protocol.prepare(spec)` followed by
/// [`execute_prepared`](crate::prepared::execute_prepared) — the same
/// (and only) execution path the engine scheduler and batch submission
/// use. Transcripts are bit-identical to a dedicated
/// [`run_two_party`](intersect_comm::runner::run_two_party) pair.
///
/// # Errors
///
/// Propagates protocol failures.
///
/// # Examples
///
/// ```
/// use intersect_core::api::{execute, ProtocolChoice};
/// use intersect_core::sets::{InputPair, ProblemSpec};
/// use rand::SeedableRng;
///
/// let spec = ProblemSpec::new(1 << 20, 32);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let pair = InputPair::random_with_overlap(&mut rng, spec, 32, 10);
/// let proto = ProtocolChoice::TreeLogStar.build(spec);
/// let run = execute(proto.as_ref(), spec, &pair, 7)?;
/// assert!(run.matches(&pair.ground_truth()));
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
pub fn execute(
    protocol: &dyn SetIntersection,
    spec: ProblemSpec,
    pair: &InputPair,
    seed: u64,
) -> Result<IntersectionRun, ProtocolError> {
    let plan = protocol.prepare(spec);
    crate::prepared::execute_prepared(&plan, pair, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use intersect_comm::runner::{run_two_party, RunConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn every_catalogue_protocol_computes_the_intersection() {
        let spec = ProblemSpec::new(1 << 20, 32);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let pair = InputPair::random_with_overlap(&mut rng, spec, 32, 11);
        let truth = pair.ground_truth();
        for choice in ProtocolChoice::all(3) {
            let proto = choice.build(spec);
            let run = execute(proto.as_ref(), spec, &pair, 42).unwrap();
            assert!(
                run.matches(&truth),
                "{} failed: alice={:?} bob={:?} truth={:?}",
                proto.name(),
                run.alice,
                run.bob,
                truth
            );
        }
    }

    #[test]
    fn names_are_informative() {
        let spec = ProblemSpec::new(1 << 20, 32);
        assert!(ProtocolChoice::Tree(3).build(spec).name().contains("r=3"));
        assert!(ProtocolChoice::Trivial
            .build(spec)
            .name()
            .contains("trivial"));
    }

    #[test]
    fn protocol_names_round_trip_through_parse() {
        for choice in ProtocolChoice::all(4) {
            let parsed: ProtocolChoice = choice.to_string().parse().unwrap();
            assert_eq!(parsed, choice, "via {:?}", choice.to_string());
        }
        assert_eq!(
            "tree".parse::<ProtocolChoice>(),
            Ok(ProtocolChoice::TreeLogStar)
        );
        assert!("tree:0".parse::<ProtocolChoice>().is_err());
        assert!("tree:nope".parse::<ProtocolChoice>().is_err());
        assert!("warp-drive".parse::<ProtocolChoice>().is_err());
    }

    #[test]
    fn disjointness_via_intersection_agrees_with_ground_truth() {
        let spec = ProblemSpec::new(1 << 20, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for overlap in [0usize, 1, 16] {
            let pair = InputPair::random_with_overlap(&mut rng, spec, 16, overlap);
            let proto = DisjointnessViaIntersection(TreeProtocol::new(2));
            let out = run_two_party(
                &RunConfig::with_seed(3),
                |chan, coins| SetDisjointness::run(&proto, chan, coins, Side::Alice, spec, &pair.s),
                |chan, coins| SetDisjointness::run(&proto, chan, coins, Side::Bob, spec, &pair.t),
            )
            .unwrap();
            assert_eq!(out.alice, overlap == 0);
            assert_eq!(out.alice, out.bob);
        }
    }
}
