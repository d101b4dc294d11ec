//! The verification-tree protocol — the paper's main result
//! (Theorem 1.1 / Theorem 3.6, Algorithm 1).
//!
//! For a round budget `r`, the parties:
//!
//! 1. Reduce the universe with a shared `H : [n] → [N]`, `N = k^c`
//!    (collision-free on `S ∪ T` with probability `1 − O(k^{2-c})`).
//! 2. Hash into `k` buckets with a shared `h : [N] → [k]`; bucket `ℓ`
//!    holds `S_ℓ = {x ∈ S : h(x) = ℓ}` (expected constant size).
//! 3. Build a tree of depth `r` over the `k` buckets in which a node at
//!    height `i ≥ 1` covers `log^{(r-i)} k` leaves (so the root covers all
//!    `k`, height-1 nodes cover `log^{(r-1)} k`, and the degree at height
//!    `i ≥ 2` is `log^{(r-i)} k / log^{(r-i+1)} k`).
//! 4. Run `r` stages. Stage `i` equality-tests the concatenated leaf
//!    assignments at every height-`i` node with error
//!    `1/(log^{(r-i-1)} k)^4`, then re-runs `Basic-Intersection` (with the
//!    same error parameter) at every leaf under every *failed* node. All
//!    tests of a stage batch into one simultaneous exchange, and all
//!    re-runs into another, so a stage costs at most 4 causal rounds and
//!    the whole protocol at most `4r ≤ 6r`.
//!
//! Correctness rests on the one-sided invariant of `Basic-Intersection`
//! (Corollary 3.4 / Proposition 3.9): a leaf's two assignments always
//! sandwich the true bucket intersection, so *equal* assignments are
//! *correct* assignments, and the error schedule makes every leaf correct
//! after the last stage with probability `1 − 1/k³` (Corollary 3.8).
//! Expected communication is `O(k·log^{(r)} k)` (Lemma 3.10): the stage-0
//! tests and re-runs dominate at `Θ(k·log^{(r)} k)` and each later stage
//! adds `O(k)`.

use crate::basic::BasicIntersection;
use crate::cost::{bucket_size_bits, leaf_stats, PredictedCost};
use crate::equality::{encode_for_equality, EqualityTest};
use crate::iterlog::{ceil_log2, iter_log};
use crate::prepared::PreparedProtocol;
use crate::sets::{ElementSet, ProblemSpec};
use intersect_comm::bits::BitBuf;
use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::Side;
use intersect_hash::pairwise::PairwiseFamily;
use std::collections::HashMap;

/// How the tree's level degrees are chosen — the paper's schedule, or a
/// uniform-degree control for the A1 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegreePolicy {
    /// The paper's schedule: a height-`i` node covers `log^{(r-i)} k` leaves.
    #[default]
    Paper,
    /// A balanced tree of depth `r` with uniform degree `⌈k^{1/r}⌉`.
    Uniform,
}

/// How per-stage equality-test errors are chosen — the paper's schedule,
/// or a flat schedule for the A3 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// The paper's schedule: stage `i` tests fail with probability
    /// `≤ 1/(log^{(r-i-1)} k)^4`.
    #[default]
    Paper,
    /// Every stage uses the same error `1/k⁴` (maximally safe, costly).
    FlatStrict,
    /// Every stage uses a constant 4-bit error (cheap, failure-prone).
    FlatLoose,
}

/// The verification-tree intersection protocol.
///
/// # Examples
///
/// ```
/// use intersect_core::tree::TreeProtocol;
/// use intersect_core::sets::{ElementSet, ProblemSpec};
/// use intersect_comm::runner::{run_two_party, RunConfig, Side};
///
/// let spec = ProblemSpec::new(1 << 30, 16);
/// let s = ElementSet::from_iter((0..16u64).map(|i| i * 1000));
/// let t = ElementSet::from_iter((8..24u64).map(|i| i * 1000));
/// let proto = TreeProtocol::new(3);
/// let out = run_two_party(
///     &RunConfig::with_seed(1),
///     |chan, coins| proto.run(chan, &coins.fork("tree"), Side::Alice, spec, &s),
///     |chan, coins| proto.run(chan, &coins.fork("tree"), Side::Bob, spec, &t),
/// )?;
/// assert_eq!(out.alice, s.intersection(&t));
/// assert_eq!(out.bob, s.intersection(&t));
/// assert!(out.report.rounds <= 6 * 3);
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeProtocol {
    /// The round budget `r ≥ 1`; the protocol uses at most `6r` rounds and
    /// `O(k·log^{(r)} k)` expected bits.
    pub stages: u32,
    /// Universe-reduction exponent `c > 2` (`N = k^c`).
    pub reduction_exponent: u32,
    /// Degree schedule (A1 ablation knob).
    pub degree_policy: DegreePolicy,
    /// Error schedule (A3 ablation knob).
    pub error_policy: ErrorPolicy,
}

impl TreeProtocol {
    /// The paper's protocol with round budget `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0`.
    pub fn new(r: u32) -> Self {
        assert!(r >= 1, "round budget must be at least 1");
        TreeProtocol {
            stages: r,
            reduction_exponent: 3,
            degree_policy: DegreePolicy::default(),
            error_policy: ErrorPolicy::default(),
        }
    }

    /// The headline configuration: `r = log* k`, giving `O(k)` bits in
    /// `O(log* k)` rounds.
    pub fn log_star(k: u64) -> Self {
        Self::new(crate::iterlog::log_star(k.max(2)).max(1))
    }

    /// The reduced-universe size `N = k^c`, floored at `2^28` so small-`k`
    /// instances keep a negligible collision probability (hash seeds come
    /// from shared coins, so a larger `N` costs no communication), capped
    /// at `2^61`.
    pub fn reduced_universe(&self, k: u64) -> u64 {
        let mut n = 1u64;
        for _ in 0..self.reduction_exponent {
            n = n.saturating_mul(k.max(2));
        }
        n.clamp(1 << 28, 1 << 61)
    }

    /// Stage `i`'s error exponent in bits: the paper's
    /// `4·log₂(log^{(r-i-1)} k)`, at least 6.
    pub(crate) fn stage_error_bits(&self, stage: u32, k: u64) -> usize {
        match self.error_policy {
            ErrorPolicy::Paper => {
                let depth = self.stages - 1 - stage;
                // Floored at 6 bits so degenerate k keeps per-test error
                // ≤ 1/64 (the schedule is vacuous at tiny k otherwise).
                (4 * ceil_log2(iter_log(depth, k.max(2))).max(1) as usize).max(6)
            }
            ErrorPolicy::FlatStrict => (4 * ceil_log2(k.max(2)) as usize).max(6),
            ErrorPolicy::FlatLoose => 4,
        }
    }

    /// Derives every input-independent parameter for `spec` — the
    /// reduced universe and both hash families' field primes, the tree
    /// shape, and the per-stage error schedule — so repeated executions
    /// skip straight to the bit-exchanging phase.
    pub fn plan(&self, spec: ProblemSpec) -> TreePlan {
        let k = spec.k.max(2);
        let big_n = self.reduced_universe(k);
        TreePlan {
            proto: *self,
            spec,
            big_n,
            reduce_family: (spec.n > big_n).then(|| PairwiseFamily::new(spec.n)),
            reduced_spec: ProblemSpec {
                n: big_n,
                k: spec.k,
            },
            reduced_family: PairwiseFamily::new(big_n),
            shape: TreeShape::build(self.stages, k, self.degree_policy),
            stage_bits: (0..self.stages)
                .map(|stage| self.stage_error_bits(stage, k))
                .collect(),
            r1_bits: self.r1_bits(k),
        }
    }

    /// The `r = 1` exchange's error exponent: `(c − 2)·log₂ k`, at least 4.
    fn r1_bits(&self, k: u64) -> usize {
        ((self.reduction_exponent.saturating_sub(2)).max(1) as usize * ceil_log2(k) as usize).max(4)
    }

    /// Expected cost on two `k`-element sets sharing `overlap`: Lemma
    /// 3.10's sum, stage by stage; `r = 1` is one Basic-Intersection
    /// over the whole sets.
    ///
    /// Stage 0 tests all `k` leaves and repairs the differing ones it
    /// catches. A leaf is still wrong after a stage if its test missed
    /// (`2^{-e}`) or its repair's hash collided (Lemma 3.3); stage `i`
    /// tests every height-`i` node and re-runs all leaves under each
    /// caught node that holds a wrong leaf. Each stage is 2 rounds, and
    /// 2 more when it repairs. `pipelined` prices
    /// [`PipelinedTree`](crate::tree_pipelined::PipelinedTree) instead:
    /// both size vectors ride stage 0, Alice's repair half carries only
    /// what survived Bob's, and `2r` messages end with a flush when the
    /// last stage repairs.
    pub(crate) fn predicted_cost(
        &self,
        spec: ProblemSpec,
        overlap: u64,
        pipelined: bool,
    ) -> PredictedCost {
        let k = spec.k.max(2);
        if self.stages == 1 {
            let basic = BasicIntersection::new(self.r1_bits(k));
            return PredictedCost {
                bits: basic.instance_bits(spec.k, spec.k),
                rounds: 2.0,
            };
        }
        let leaves = k as f64;
        let rho = overlap as f64 / leaves;
        let leaf = leaf_stats(rho);
        let fix = if pipelined { leaf.pipe } else { leaf.diff };
        let repair = |e, wrong: f64, clean: f64| wrong * fix.at(e) + clean * leaf.same.at(e);
        let b0 = self.stage_error_bits(0, k);
        let miss0 = (-(b0 as f64)).exp2();
        // A leaf differs unless none of the 2(k − overlap) elements of
        // one side only lands in it.
        let differ = -(-2.0 * (1.0 - rho)).exp_m1();
        let failed = leaves * differ * (1.0 - miss0);
        let mut bits = leaves * (b0 + 1) as f64 + repair(b0, failed, 0.0);
        let mut last_repair = -(-failed).exp_m1();
        let mut repair_stages = last_repair;
        let mut wrong = leaves * differ * miss0 + failed * leaf.diff_fail * 2.0 * miss0;
        for stage in 1..self.stages {
            let b = self.stage_error_bits(stage, k);
            let miss = (-(b as f64)).exp2();
            // Wrong leaves are rare enough to sit alone in their nodes: a
            // node of s leaves holds one with probability s·wrong/k.
            let (nodes, squares) =
                TreeShape::level_moments(self.stages, k, stage, self.degree_policy);
            let caught = wrong * (1.0 - miss);
            let clean = (caught * squares / leaves - caught).max(0.0);
            bits += nodes * (b + 1) as f64 + repair(b, caught, clean);
            last_repair = -(-caught).exp_m1();
            repair_stages += last_repair;
            wrong = wrong * miss + caught * leaf.diff_fail * 2.0 * miss;
        }
        let stages = self.stages as f64;
        if pipelined {
            PredictedCost {
                bits: bits + 2.0 * leaves * bucket_size_bits(spec.k, k),
                rounds: 2.0 * stages + last_repair,
            }
        } else {
            PredictedCost {
                bits,
                rounds: 2.0 * (stages + repair_stages),
            }
        }
    }

    /// Runs the protocol; both parties output their recovered intersection
    /// (equal to `S ∩ T` with probability `1 − 1/poly(k)`).
    ///
    /// # Errors
    ///
    /// Fails on invalid inputs or transport errors.
    pub fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        self.plan(spec).execute_with(chan, coins, side, input)
    }
}

/// [`TreeProtocol`] with every input-independent parameter derived:
/// hash families (field primes found), tree shape, error schedule.
#[derive(Debug, Clone)]
pub struct TreePlan {
    pub(crate) proto: TreeProtocol,
    pub(crate) spec: ProblemSpec,
    pub(crate) big_n: u64,
    /// `Some` iff the universe actually shrinks (`spec.n > big_n`).
    pub(crate) reduce_family: Option<PairwiseFamily>,
    pub(crate) reduced_spec: ProblemSpec,
    /// Family over the reduced universe `[big_n]`: bucket hashing and
    /// every `Basic-Intersection` repair draw from it.
    pub(crate) reduced_family: PairwiseFamily,
    pub(crate) shape: TreeShape,
    pub(crate) stage_bits: Vec<usize>,
    pub(crate) r1_bits: usize,
}

impl TreePlan {
    /// Phase 1: universe reduction [n] -> [N], N = k^c. Shared coins, no
    /// communication. Collisions inside one party's own set are merged
    /// (kept as the smallest original element) — part of the 1/poly(k)
    /// failure budget.
    pub(crate) fn reduce(
        &self,
        coins: &CoinSource,
        input: &ElementSet,
    ) -> (ElementSet, HashMap<u64, u64>) {
        match &self.reduce_family {
            None => {
                let map: HashMap<u64, u64> = input.iter().map(|x| (x, x)).collect();
                (input.clone(), map)
            }
            Some(family) => {
                let h_big = family.sample(&mut coins.fork("reduce").rng(), self.big_n);
                let mut map = HashMap::with_capacity(input.len());
                for x in input.iter() {
                    map.entry(h_big.eval(x)).or_insert(x);
                }
                let set: ElementSet = map.keys().copied().collect();
                (set, map)
            }
        }
    }

    /// The bit-exchanging phase, with `coins` already forked to the
    /// protocol's namespace.
    pub(crate) fn execute_with(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        self.spec
            .validate(input)
            .map_err(ProtocolError::InvalidInput)?;

        let reduce_span = intersect_obs::phase::span("core", "reduce");
        let before = chan.stats();
        let (work_set, back_map) = self.reduce(coins, input);
        reduce_span.finish(chan.stats().delta_since(&before));

        // Special case r = 1: the direct k^c-range hash exchange.
        let mapped = if self.proto.stages == 1 {
            let basic_span = intersect_obs::phase::span("core", "basic");
            let before = chan.stats();
            let out = BasicIntersection::new(self.r1_bits)
                .run_batch_with(
                    &self.reduced_family,
                    chan,
                    &coins.fork("r1"),
                    side,
                    self.reduced_spec,
                    std::slice::from_ref(&work_set),
                )?
                .pop()
                .expect("one output per input");
            basic_span.finish(chan.stats().delta_since(&before));
            out
        } else {
            self.run_tree(chan, coins, side, &work_set)?
        };

        // Map back to original element values.
        Ok(mapped
            .iter()
            .map(|m| *back_map.get(&m).expect("output is a subset of the input"))
            .collect())
    }

    /// Stages 0..r−1 of Algorithm 1, over the reduced universe.
    fn run_tree(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        work_set: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        let spec = self.reduced_spec;
        let k = spec.k.max(2);
        let shape = &self.shape;

        // Phase 2: bucket into k leaves.
        let bucket_span = intersect_obs::phase::span("core", "bucket");
        let before = chan.stats();
        let bucket_hash = self
            .reduced_family
            .sample(&mut coins.fork("bucket").rng(), k);
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); k as usize];
        for x in work_set.iter() {
            buckets[bucket_hash.eval(x) as usize].push(x);
        }
        let mut assignments: Vec<ElementSet> = buckets
            .into_iter()
            .map(|mut b| {
                b.sort_unstable();
                ElementSet::from_sorted(b)
            })
            .collect();
        bucket_span.finish(chan.stats().delta_since(&before));

        // Phase 3: r stages of verify-then-repair.
        for stage in 0..self.proto.stages {
            let error_bits = self.stage_bits[stage as usize];
            let stage_coins = coins.fork(&format!("stage{stage}"));

            // Verify: one parallel equality batch over this level's nodes.
            let verify_span = intersect_obs::phase::span("core", "verify");
            let before = chan.stats();
            let nodes = shape.level(stage as usize);
            let items: Vec<BitBuf> = nodes
                .iter()
                .map(|&(a, b)| {
                    let mut buf = BitBuf::new();
                    for assignment in &assignments[a..b] {
                        buf.extend_from(&encode_for_equality(assignment.as_slice()));
                    }
                    buf
                })
                .collect();
            let verdicts = EqualityTest::new(error_bits).run_batch(
                chan,
                &stage_coins.fork("eq"),
                side,
                &items,
            )?;
            verify_span.finish(chan.stats().delta_since(&before));

            // Repair: both parties derive the same failed-leaf list and
            // re-run Basic-Intersection there, all in one parallel batch.
            let failed_leaves: Vec<usize> = nodes
                .iter()
                .zip(&verdicts)
                .filter(|(_, &ok)| !ok)
                .flat_map(|(&(a, b), _)| a..b)
                .collect();
            if failed_leaves.is_empty() {
                continue;
            }
            let repair_span = intersect_obs::phase::span("core", "repair");
            let before = chan.stats();
            let inputs: Vec<ElementSet> = failed_leaves
                .iter()
                .map(|&leaf| assignments[leaf].clone())
                .collect();
            let repaired = BasicIntersection::new(error_bits).run_batch_with(
                &self.reduced_family,
                chan,
                &stage_coins.fork("basic"),
                side,
                spec,
                &inputs,
            )?;
            for (&leaf, new_assignment) in failed_leaves.iter().zip(repaired) {
                assignments[leaf] = new_assignment;
            }
            repair_span.finish(chan.stats().delta_since(&before));
        }

        // Output: union of leaf assignments.
        Ok(assignments
            .into_iter()
            .flat_map(|a| a.iter().collect::<Vec<_>>())
            .collect())
    }
}

impl PreparedProtocol for TreePlan {
    fn name(&self) -> String {
        crate::api::SetIntersection::name(&self.proto)
    }

    fn spec(&self) -> ProblemSpec {
        self.spec
    }

    fn execute(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        // Same fork label as the `SetIntersection` impl, so prepared
        // and cold executions draw identical coins.
        self.execute_with(chan, &coins.fork("tree"), side, input)
    }
}

/// The leaf ranges of every tree level: `levels[i]` lists, for each node at
/// height `i`, the half-open range of leaf indices it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TreeShape {
    levels: Vec<Vec<(usize, usize)>>,
}

impl TreeShape {
    /// Builds the height-`r` tree over `k` leaves.
    pub fn build(r: u32, k: u64, policy: DegreePolicy) -> Self {
        let k = k.max(1) as usize;
        let mut levels: Vec<Vec<(usize, usize)>> = vec![Vec::new(); r as usize + 1];
        levels[r as usize] = vec![(0, k)];
        for height in (0..r).rev() {
            let target = Self::span(r, k as u64, height, policy) as usize;
            let mut nodes = Vec::new();
            for &(a, b) in &levels[height as usize + 1] {
                let mut start = a;
                while start < b {
                    let end = (start + target).min(b);
                    nodes.push((start, end));
                    start = end;
                }
            }
            levels[height as usize] = nodes;
        }
        TreeShape { levels }
    }

    /// Leaves a node at `height` covers; [`build`](Self::build) cuts
    /// each parent into runs of this many.
    fn span(r: u32, k: u64, height: u32, policy: DegreePolicy) -> u64 {
        match policy {
            _ if height == 0 => 1,
            DegreePolicy::Paper => iter_log(r - height, k).max(1),
            DegreePolicy::Uniform => {
                // Uniform degree d = ceil(k^(1/r)); height h covers d^h.
                let d = (k as f64).powf(1.0 / r as f64).ceil().max(2.0) as u64;
                d.saturating_pow(height).min(k)
            }
        }
    }

    /// Node count and sum of squared node sizes at `height` of the tree
    /// [`build`](Self::build) makes, without building it: a node of
    /// `size` leaves has `size / span` children of `span` leaves and one
    /// of the remainder, so each level holds only a few distinct sizes.
    pub(crate) fn level_moments(r: u32, k: u64, height: u32, policy: DegreePolicy) -> (f64, f64) {
        fn walk(tree: (u32, u64, u32, DegreePolicy), size: u64, at: u32) -> (f64, f64) {
            let (r, k, height, policy) = tree;
            if at == height {
                return (1.0, (size * size) as f64);
            }
            let span = TreeShape::span(r, k, at - 1, policy);
            if span == 1 {
                // Spans only shrink downwards: every node below is a leaf.
                return (size as f64, size as f64);
            }
            let (nodes, squares) = walk(tree, span, at - 1);
            let (rest_nodes, rest_squares) = match size % span {
                0 => (0.0, 0.0),
                rest => walk(tree, rest, at - 1),
            };
            let full = (size / span) as f64;
            (full * nodes + rest_nodes, full * squares + rest_squares)
        }
        let k = k.max(1);
        walk((r, k, height, policy), k, r)
    }

    /// Nodes at height `i` as leaf ranges.
    pub fn level(&self, i: usize) -> &[(usize, usize)] {
        &self.levels[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sets::InputPair;
    use intersect_comm::runner::{run_two_party, RunConfig};
    use intersect_comm::stats::CostReport;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_tree(
        seed: u64,
        proto: TreeProtocol,
        spec: ProblemSpec,
        s: &ElementSet,
        t: &ElementSet,
    ) -> (ElementSet, ElementSet, CostReport) {
        let out = run_two_party(
            &RunConfig::with_seed(seed),
            |chan, coins| proto.run(chan, &coins.fork("tree"), Side::Alice, spec, s),
            |chan, coins| proto.run(chan, &coins.fork("tree"), Side::Bob, spec, t),
        )
        .unwrap();
        (out.alice, out.bob, out.report)
    }

    #[test]
    fn shape_covers_all_leaves_at_every_level() {
        for r in 1..=5u32 {
            for k in [1u64, 2, 7, 64, 1000, 4096] {
                let shape = TreeShape::build(r, k, DegreePolicy::Paper);
                assert_eq!(shape.levels.len() - 1, r as usize);
                for i in 0..=r as usize {
                    let nodes = shape.level(i);
                    // Contiguous, disjoint, total coverage.
                    let mut expect = 0usize;
                    for &(a, b) in nodes {
                        assert_eq!(a, expect);
                        assert!(b > a);
                        expect = b;
                    }
                    assert_eq!(expect, k.max(1) as usize, "r={r} k={k} level={i}");
                }
                // Leaves are singletons.
                assert!(shape.level(0).iter().all(|&(a, b)| b - a == 1));
                // Root covers everything.
                assert_eq!(shape.level(r as usize), &[(0, k.max(1) as usize)]);
            }
        }
    }

    #[test]
    fn level_moments_match_the_built_shape() {
        for policy in [DegreePolicy::Paper, DegreePolicy::Uniform] {
            for r in 1..=5u32 {
                for k in [1u64, 2, 7, 64, 1000, 1024, 4096] {
                    let shape = TreeShape::build(r, k, policy);
                    for height in 0..=r {
                        let sizes = shape
                            .level(height as usize)
                            .iter()
                            .map(|&(a, b)| (b - a) as f64);
                        let want = (sizes.clone().count() as f64, sizes.map(|s| s * s).sum());
                        let got = TreeShape::level_moments(r, k, height, policy);
                        assert_eq!(got, want, "{policy:?} r={r} k={k} height={height}");
                    }
                }
            }
        }
    }

    #[test]
    fn shape_level_sizes_follow_iterated_logs() {
        let k = 1u64 << 16;
        let r = 3;
        let shape = TreeShape::build(r, k, DegreePolicy::Paper);
        // Height-1 nodes cover log^(2) k = 4 leaves; height-2 cover 16.
        assert!(shape.level(1).iter().all(|&(a, b)| b - a <= 4));
        assert!(shape.level(2).iter().all(|&(a, b)| b - a <= 16));
    }

    #[test]
    fn recovers_intersection_for_all_round_budgets() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let spec = ProblemSpec::new(1 << 30, 64);
        for r in 1..=4u32 {
            for overlap in [0usize, 1, 32, 64] {
                let pair = InputPair::random_with_overlap(&mut rng, spec, 64, overlap);
                let truth = pair.ground_truth();
                let (a, b, report) = run_tree(
                    100 * r as u64 + overlap as u64,
                    TreeProtocol::new(r),
                    spec,
                    &pair.s,
                    &pair.t,
                );
                assert_eq!(a, truth, "r={r} overlap={overlap}");
                assert_eq!(b, truth, "r={r} overlap={overlap}");
                assert!(
                    report.rounds <= 6 * r as u64,
                    "r={r}: {} rounds",
                    report.rounds
                );
            }
        }
    }

    #[test]
    fn success_rate_is_high_across_seeds() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let spec = ProblemSpec::new(1 << 24, 128);
        let proto = TreeProtocol::new(2);
        let mut exact = 0;
        for seed in 0..60 {
            let pair = InputPair::random_with_overlap(&mut rng, spec, 128, 40);
            let truth = pair.ground_truth();
            let (a, b, _) = run_tree(seed, proto, spec, &pair.s, &pair.t);
            if a == truth && b == truth {
                exact += 1;
            }
        }
        assert!(exact >= 57, "{exact}/60 exact recoveries");
    }

    #[test]
    fn log_star_config_is_cheap_and_correct() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let spec = ProblemSpec::new(1 << 40, 256);
        let pair = InputPair::random_with_overlap(&mut rng, spec, 256, 100);
        let proto = TreeProtocol::log_star(256);
        let (a, b, report) = run_tree(5, proto, spec, &pair.s, &pair.t);
        assert_eq!(a, pair.ground_truth());
        assert_eq!(b, pair.ground_truth());
        // O(k) bits: generous constant, but far below k log k.
        assert!(
            report.total_bits() < 256 * 60,
            "total {} bits",
            report.total_bits()
        );
    }

    #[test]
    fn more_stages_cost_fewer_bits() {
        // The r = 1 → 2 crossover happens only at large k (the paper's
        // stage-error exponent of 4 makes stage-0 verification cost
        // ≈ 4·log^(2) k bits per leaf, which beats the r = 1 cost of
        // Θ(log k) bits per element only once log k ≫ 4·log log k).
        // At k = 1024, r = 3 is already cheaper than both r = 1 and r = 2;
        // experiment E1 maps the full crossover.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let spec = ProblemSpec::new(1 << 40, 1024);
        let pair = InputPair::random_with_overlap(&mut rng, spec, 1024, 512);
        let mut costs = Vec::new();
        for r in 1..=3u32 {
            // Average a few seeds to smooth re-run noise.
            let total: u64 = (0..5)
                .map(|s| {
                    run_tree(s, TreeProtocol::new(r), spec, &pair.s, &pair.t)
                        .2
                        .total_bits()
                })
                .sum();
            costs.push(total / 5);
        }
        assert!(
            costs[2] < costs[0] && costs[2] < costs[1],
            "r = 3 should beat r = 1 and r = 2 at k = 1024: {costs:?}"
        );
    }

    #[test]
    fn small_and_degenerate_inputs() {
        let spec = ProblemSpec::new(100, 1);
        let s = ElementSet::from_iter([42u64]);
        let t = ElementSet::from_iter([42u64]);
        let (a, b, _) = run_tree(1, TreeProtocol::new(2), spec, &s, &t);
        assert_eq!(a.as_slice(), &[42]);
        assert_eq!(b.as_slice(), &[42]);

        let empty = ElementSet::new();
        let (a, b, _) = run_tree(2, TreeProtocol::new(2), spec, &empty, &t);
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn identical_sets_come_back_whole() {
        let spec = ProblemSpec::new(1 << 20, 64);
        let s = ElementSet::from_iter((0..64u64).map(|i| i * 999 + 7));
        for r in 1..=3 {
            let (a, b, _) = run_tree(7, TreeProtocol::new(r), spec, &s, &s.clone());
            assert_eq!(a, s, "r = {r}");
            assert_eq!(b, s, "r = {r}");
        }
    }

    #[test]
    fn uniform_degree_ablation_still_correct() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let spec = ProblemSpec::new(1 << 24, 64);
        let pair = InputPair::random_with_overlap(&mut rng, spec, 64, 20);
        let proto = TreeProtocol {
            degree_policy: DegreePolicy::Uniform,
            ..TreeProtocol::new(3)
        };
        let (a, b, _) = run_tree(1, proto, spec, &pair.s, &pair.t);
        assert_eq!(a, pair.ground_truth());
        assert_eq!(b, pair.ground_truth());
    }

    #[test]
    fn loose_error_ablation_costs_less_but_may_err() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let spec = ProblemSpec::new(1 << 24, 256);
        let pair = InputPair::random_with_overlap(&mut rng, spec, 256, 128);
        let strict = TreeProtocol {
            error_policy: ErrorPolicy::FlatStrict,
            ..TreeProtocol::new(3)
        };
        let loose = TreeProtocol {
            error_policy: ErrorPolicy::FlatLoose,
            ..TreeProtocol::new(3)
        };
        let (_, _, rs) = run_tree(1, strict, spec, &pair.s, &pair.t);
        let (_, _, rl) = run_tree(1, loose, spec, &pair.s, &pair.t);
        assert!(rl.total_bits() < rs.total_bits());
    }

    #[test]
    fn small_universe_skips_reduction() {
        // n <= k^c: protocol must work directly on [n].
        let spec = ProblemSpec::new(64, 16);
        let s = ElementSet::from_iter((0..16u64).map(|i| i * 3));
        let t = ElementSet::from_iter((0..16u64).map(|i| i * 4));
        let (a, b, _) = run_tree(3, TreeProtocol::new(2), spec, &s, &t);
        let truth = s.intersection(&t);
        assert_eq!(a, truth);
        assert_eq!(b, truth);
    }
}
