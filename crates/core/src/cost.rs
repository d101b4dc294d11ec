//! The cost model for the protocol catalogue.
//!
//! The router and the conformance envelopes predict what a protocol
//! will cost on a [`ProblemSpec`] *without running it*. Each protocol
//! prices itself beside its code (`predicted_cost`) from the parameter
//! functions its `plan()` calls — hash ranges, stage error bits, the
//! tree's degree schedule, bucket counts, table sizes — and takes the
//! input-random terms (code lengths, bucket loads, repairs, peeling) as
//! expectations from their lemmas, with the shared ones here. Nothing is
//! fitted to a measurement; a prediction prepares no plan and allocates
//! nothing. The grid test below holds the model to measured bits.

use crate::api::ProtocolChoice;
use crate::basic::BasicIntersection;
use crate::iterlog::{floor_log2, log_star};
use crate::one_round::OneRoundHash;
use crate::reconcile::IbltReconcile;
use crate::sets::ProblemSpec;
use crate::sqrt::SqrtProtocol;
use crate::tree::TreeProtocol;
use crate::trivial::TrivialExchange;
use intersect_comm::bits::bit_width_for;
use std::sync::OnceLock;

/// A predicted execution cost: expected bits on the wire and expected
/// round complexity (longest causal message chain).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedCost {
    /// Predicted total communication in bits.
    pub bits: f64,
    /// Predicted round complexity.
    pub rounds: f64,
}

impl PredictedCost {
    /// Collapses the two axes into one comparable score: bits, plus a
    /// per-round toll. `round_penalty` is "how many bits of extra
    /// communication I would pay to save one round" — large values favor
    /// few-round protocols (WAN deployments), zero ranks by bits alone.
    pub fn score(&self, round_penalty: f64) -> f64 {
        self.bits + round_penalty * self.rounds
    }
}

impl ProtocolChoice {
    /// Predicts the cost of this protocol on `spec`, for two sets of `k`
    /// elements each.
    ///
    /// `expected_overlap` is the caller's estimate of `|S ∩ T|` if one is
    /// available (workload generators know it; live traffic may not).
    /// It sets how many leaves the tree repairs, how many pairs the
    /// bucketed protocol compares, how large the reconciliation tables
    /// grow and how much every echo carries; `None` assumes the worst
    /// case for the paper's protocols, an empty overlap.
    pub fn predicted_cost(self, spec: ProblemSpec, expected_overlap: Option<u64>) -> PredictedCost {
        let overlap = expected_overlap.unwrap_or(0).min(spec.k);
        match self {
            ProtocolChoice::Trivial => TrivialExchange::default().predicted_cost(spec, overlap),
            ProtocolChoice::OneRound => {
                OneRoundHash::new(ProtocolChoice::one_round_error_bits(spec))
                    .predicted_cost(spec, overlap)
            }
            ProtocolChoice::Basic => {
                BasicIntersection::new(ProtocolChoice::BASIC_ERROR_BITS).predicted_cost(spec)
            }
            ProtocolChoice::Tree(r) => {
                TreeProtocol::new(r.max(1)).predicted_cost(spec, overlap, false)
            }
            ProtocolChoice::TreeLogStar => ProtocolChoice::Tree(log_star(spec.k.max(2)).max(1))
                .predicted_cost(spec, Some(overlap)),
            // The pipelined tree runs the plain tree's schedule.
            ProtocolChoice::TreePipelined(r) => {
                TreeProtocol::new(r.max(1)).predicted_cost(spec, overlap, true)
            }
            ProtocolChoice::Sqrt => SqrtProtocol::default().predicted_cost(spec, overlap),
            ProtocolChoice::IbltReconcile => IbltReconcile::default().predicted_cost(spec, overlap),
        }
    }
}

/// Bits of the Elias gamma code of `v ≥ 1`: `2⌊log₂ v⌋ + 1`.
pub(crate) fn gamma_bits(v: u64) -> f64 {
    (2 * floor_log2(v.max(1)) + 1) as f64
}

/// Expected length of a [`RiceSubsetCodec`](intersect_comm::encode::RiceSubsetCodec)
/// over `[range]` with size bound `bound`, encoding `s` elements spread
/// uniformly: the size header, then per element the Rice parameter
/// `b = ⌊log₂(range/s)⌋` low bits, a stop bit, and the unary quotient of
/// a gap. Gaps are geometric with mean `(range − s)/(s + 1)`, so a gap
/// reaches `j·2^b` with probability `y^j`, `y = e^{−2^b(s+1)/(range+1)}`,
/// and the expected quotient is `y/(1 − y)`.
pub(crate) fn rice_bits(range: u64, bound: u64, s: u64) -> f64 {
    let header = bit_width_for(bound + 1) as f64;
    if s == 0 {
        return header;
    }
    let b = floor_log2((range / s).max(1));
    let y = (-((1u64 << b) as f64) * (s + 1) as f64 / (range as f64 + 1.0)).exp();
    header + s as f64 * (b as f64 + 1.0 + y / (1.0 - y))
}

/// Expected `γ₀` bits of one bucket's size when `items` elements hash
/// into `buckets` buckets (the size vectors of the bucketed protocols):
/// `E[2⌊log₂(X + 1)⌋ + 1] = 1 + 2·Σ_{j≥1} P(X ≥ 2^j − 1)` for
/// `X ~ Bin(items, 1/buckets)`.
pub(crate) fn bucket_size_bits(items: u64, buckets: u64) -> f64 {
    let p = 1.0 / buckets.max(1) as f64;
    let odds = p / (1.0 - p);
    let mut pmf = (items as f64 * (-p).ln_1p()).exp();
    let mut above = 1.0f64; // P(X ≥ c)
    let mut bits = 1.0;
    let mut next = 1u64; // the next threshold 2^j − 1
    for c in 0..=items {
        if c == next {
            bits += 2.0 * above;
            next = 2 * next + 1;
        }
        above -= pmf;
        if above < 1e-9 {
            break;
        }
        pmf *= (items - c) as f64 / (c + 1) as f64 * odds;
    }
    bits
}

/// A cost linear in an error exponent `e`. Basic-Intersection's hash
/// range is `m²·2^{e−1}`, so each extra error bit adds exactly one Rice
/// bit per element sent.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct PerExponent {
    /// The cost at `e = 30`.
    bits30: f64,
    /// Elements sent: bits added per unit of `e`.
    per_bit: f64,
}

impl PerExponent {
    /// The cost at exponent `e`.
    pub fn at(&self, e: usize) -> f64 {
        self.bits30 + self.per_bit * (e as f64 - 30.0)
    }
}

/// Expected repair costs of one tree leaf. With `k` elements per side
/// hashed into `k` leaves, a leaf holds `A ~ Poi(ρ)` shared elements
/// and `B, C ~ Poi(1 − ρ)` elements of one side only (`ρ = overlap/k`);
/// it differs when `B + C > 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct LeafStats {
    /// A Basic-Intersection repair of a differing leaf.
    pub diff: PerExponent,
    /// `E[cross pairs / m² | differ]`: a repair at exponent `e` leaves
    /// the leaf wrong with probability `diff_fail · 2^{1−e}` (Lemma 3.3's
    /// union bound over the pairs a collision would corrupt).
    pub diff_fail: f64,
    /// A re-run of a correct leaf, both sides holding its `A` elements.
    pub same: PerExponent,
    /// A pipelined repair of a differing leaf: one side sends its
    /// elements, the other only what survived them.
    pub pipe: PerExponent,
}

/// Steps of the [`leaf_stats`] table over `ρ ∈ [0, 1]`.
const LEAF_GRID: usize = 64;
/// Per-leaf element counts summed over; `P(Poi(1) > 9) < 10⁻⁶`.
const LEAF_CAP: u64 = 9;

/// [`LeafStats`] at overlap fraction `rho`, from a table computed once
/// over every leaf content with `A, B, C ≤ 9`, at the nearest `ρ = j/64`.
pub(crate) fn leaf_stats(rho: f64) -> LeafStats {
    static TABLE: OnceLock<[LeafStats; LEAF_GRID + 1]> = OnceLock::new();
    let table =
        TABLE.get_or_init(|| std::array::from_fn(|j| leaf_stats_at(j as f64 / LEAF_GRID as f64)));
    table[(rho.clamp(0.0, 1.0) * LEAF_GRID as f64).round() as usize]
}

/// One table point of [`leaf_stats`].
fn leaf_stats_at(rho: f64) -> LeafStats {
    let poisson = |mean: f64, n: u64| (1..=n).fold((-mean).exp(), |p, i| p * mean / i as f64);
    let basic = BasicIntersection::new(30);
    // A repair half sending `mine` elements over the range for `m`.
    let half = |mine: u64, m: u64| {
        gamma_bits(mine + 1) + rice_bits(basic.hash_range(m), mine.max(1), mine)
    };
    let (mut s, mut differ) = (LeafStats::default(), 0.0);
    for a in 0..=LEAF_CAP {
        let pa = poisson(rho, a);
        s.same.bits30 += pa * basic.instance_bits(a, a);
        s.same.per_bit += pa * (2 * a) as f64;
        for (b, c) in (0..=LEAF_CAP).flat_map(|b| (0..=LEAF_CAP).map(move |c| (b, c))) {
            if b + c == 0 {
                continue;
            }
            let w = pa * poisson(1.0 - rho, b) * poisson(1.0 - rho, c);
            let (x, y) = (a + b, a + c);
            let m = (x + y) as f64;
            differ += w;
            s.diff.bits30 += w * basic.instance_bits(x, y);
            s.diff.per_bit += w * m;
            s.diff_fail += w * (b * (a + c) + c * (a + b) - b * c) as f64 / (m * m);
            s.pipe.bits30 += w * (half(y, x + y) + half(a, a + y));
            s.pipe.per_bit += w * (y + a) as f64;
        }
    }
    for v in [
        &mut s.diff.bits30,
        &mut s.diff.per_bit,
        &mut s.diff_fail,
        &mut s.pipe.bits30,
        &mut s.pipe.per_bit,
    ] {
        *v /= differ.max(f64::MIN_POSITIVE);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::execute_prepared;
    use crate::sets::InputPair;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Every router candidate, measured over 60 cells: `n ∈ {2¹⁶, 2²⁰,
    /// 2³⁰, 2⁴⁰}`, `k ∈ {16, …, 4096}`, overlap `∈ {0, k/2, 15k/16}`,
    /// averaged over more seeds where sessions are cheap and noisy.
    /// Ranking by predicted bits must route within 5 % of the cheapest
    /// measured protocol in 58 cells and within 15 % in all; each
    /// prediction must land within 15 % of its measured bits, with at
    /// most 5 % exceptions (today: the IBLT where first-table peeling is
    /// a coin flip, DESIGN §1.6), and within 30 % of its measured
    /// rounds, with no exception (a cell of one to three seeds measures
    /// whether a late stage repairs; the model prices its chance).
    #[test]
    fn predictions_track_measurements() {
        let candidates = ProtocolChoice::all(4);
        let (mut near, mut entries) = (0, 0);
        let (mut misses, mut report) = (Vec::new(), String::new());
        let mut worst_regret = 0.0f64;
        let mut round_ratios = (f64::INFINITY, 0.0f64);
        for n in [1u64 << 16, 1 << 20, 1 << 30, 1 << 40] {
            for k in [16u64, 64, 256, 1024, 4096] {
                let spec = ProblemSpec::new(n, k);
                let seeds = match k {
                    16 => 8,
                    64 => 6,
                    256 => 3,
                    _ => 1,
                };
                let plans: Vec<_> = candidates
                    .iter()
                    .map(|c| c.build(spec).prepare(spec))
                    .collect();
                for overlap in [0, k / 2, 15 * k / 16] {
                    let mut measured = vec![0.0; candidates.len()];
                    let mut rounds = vec![0.0; candidates.len()];
                    for seed in 0..seeds {
                        let mut rng =
                            ChaCha8Rng::seed_from_u64(seed ^ n ^ (k << 8) ^ (overlap << 24));
                        let pair = InputPair::random_with_overlap(
                            &mut rng,
                            spec,
                            k as usize,
                            overlap as usize,
                        );
                        for (i, plan) in plans.iter().enumerate() {
                            let run = execute_prepared(plan, &pair, seed).unwrap();
                            measured[i] += run.report.total_bits() as f64 / seeds as f64;
                            rounds[i] += run.report.rounds as f64 / seeds as f64;
                        }
                    }
                    let predictions: Vec<PredictedCost> = candidates
                        .iter()
                        .map(|c| c.predicted_cost(spec, Some(overlap)))
                        .collect();
                    let predicted: Vec<f64> = predictions.iter().map(|p| p.bits).collect();
                    let routed = (0..candidates.len())
                        .min_by(|&a, &b| predicted[a].total_cmp(&predicted[b]))
                        .unwrap();
                    let best = measured.iter().copied().fold(f64::INFINITY, f64::min);
                    let regret = measured[routed] / best - 1.0;
                    worst_regret = worst_regret.max(regret);
                    near += (regret <= 0.05) as usize;
                    report += &format!(
                        "n=2^{} k={k} o={overlap}: routed {} regret {:+.1}%\n",
                        n.trailing_zeros(),
                        candidates[routed],
                        100.0 * regret
                    );
                    for (i, choice) in candidates.iter().enumerate() {
                        let ratio = predicted[i] / measured[i];
                        let round_ratio = predictions[i].rounds / rounds[i];
                        round_ratios = (
                            round_ratios.0.min(round_ratio),
                            round_ratios.1.max(round_ratio),
                        );
                        entries += 1;
                        report += &format!(
                            "    {choice:<16} measured {:>9.0} bits {:>6.1} rounds, predicted {:>9.0} bits {:>6.1} rounds\n",
                            measured[i], rounds[i], predicted[i], predictions[i].rounds
                        );
                        if !(0.85..=1.15).contains(&ratio) {
                            misses.push(format!(
                                "n=2^{} k={k} o={overlap} {choice}: {ratio:.2}",
                                n.trailing_zeros()
                            ));
                        }
                    }
                }
            }
        }
        assert!(
            near >= 58 && worst_regret <= 0.15,
            "routed within 5 % in {near}/60 cells, worst regret {worst_regret:.3}\n{report}"
        );
        assert!(
            round_ratios.0 >= 0.7 && round_ratios.1 <= 1.3,
            "predicted/measured rounds span {round_ratios:?}\n{report}"
        );
        assert!(
            misses.len() * 20 <= entries,
            "{} of {entries} predictions off by more than 15 %: {misses:#?}",
            misses.len()
        );
    }

    #[test]
    fn tree_log_star_forwards_the_overlap_hint() {
        for k in [16u64, 1024, 4096] {
            let spec = ProblemSpec::new(1 << 30, k);
            let tree = ProtocolChoice::Tree(log_star(k));
            for overlap in [None, Some(0), Some(k / 2), Some(k - 4)] {
                assert_eq!(
                    ProtocolChoice::TreeLogStar.predicted_cost(spec, overlap),
                    tree.predicted_cost(spec, overlap),
                    "k={k} overlap={overlap:?}"
                );
            }
        }
    }

    #[test]
    fn overlap_hint_prices_repairs_and_differences() {
        let spec = ProblemSpec::new(1 << 30, 1024);
        let price = |choice: ProtocolChoice, overlap| choice.predicted_cost(spec, overlap).bits;
        // Reconciliation pays for the difference alone.
        let iblt = ProtocolChoice::IbltReconcile;
        assert!(price(iblt, Some(1020)) < price(iblt, None) / 50.0);
        // The tree repairs only leaves whose contents differ; the
        // bucketed protocol compares one more pair per shared element.
        let tree = ProtocolChoice::TreeLogStar;
        assert!(price(tree, Some(1020)) < price(tree, None) / 2.0);
        assert!(price(ProtocolChoice::Sqrt, Some(1020)) > price(ProtocolChoice::Sqrt, None));
        // `None` is the empty overlap.
        for choice in ProtocolChoice::all(4) {
            assert_eq!(
                choice.predicted_cost(spec, None),
                choice.predicted_cost(spec, Some(0))
            );
        }
    }

    #[test]
    fn the_peeling_threshold_is_the_hypergraph_constant() {
        // min over x of x / (3(1 − e^{−x})²), by golden-section search.
        let f = |x: f64| x / (3.0 * (1.0 - (-x).exp()).powi(2));
        let (mut lo, mut hi) = (0.5f64, 3.0f64);
        for _ in 0..100 {
            let (a, b) = (hi - (hi - lo) / 1.618, lo + (hi - lo) / 1.618);
            if f(a) < f(b) {
                hi = b;
            } else {
                lo = a;
            }
        }
        assert!(
            (f(lo) - crate::reconcile::PEEL_THRESHOLD).abs() < 1e-5,
            "{}",
            f(lo)
        );
    }

    #[test]
    fn score_trades_bits_for_rounds() {
        let spec = ProblemSpec::new(1 << 30, 1024);
        let sqrt = ProtocolChoice::Sqrt.predicted_cost(spec, None);
        let tree = ProtocolChoice::TreeLogStar.predicted_cost(spec, None);
        // Ranked by bits alone the bucketed protocol wins; with a stiff
        // per-round toll the tree's O(log* k) schedule wins.
        assert!(sqrt.score(0.0) < tree.score(0.0));
        assert!(sqrt.score(1000.0) > tree.score(1000.0));
    }
}
