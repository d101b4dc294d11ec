//! Sets, problem instances, and workload generation.
//!
//! The `INT_k` problem: Alice holds `S ⊆ [n]`, Bob holds `T ⊆ [n]`, with
//! `|S|, |T| ≤ k`, and both want to output `S ∩ T` exactly.

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;

/// A set of elements of a universe `[n]`, stored sorted and deduplicated.
///
/// # Examples
///
/// ```
/// use intersect_core::sets::ElementSet;
///
/// let s = ElementSet::from_iter([5u64, 1, 5, 3]);
/// assert_eq!(s.as_slice(), &[1, 3, 5]);
/// assert!(s.contains(3));
/// let t = ElementSet::from_iter([3u64, 4, 5]);
/// assert_eq!(s.intersection(&t).as_slice(), &[3, 5]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementSet {
    elems: Vec<u64>,
}

impl ElementSet {
    /// The empty set.
    pub fn new() -> Self {
        ElementSet { elems: Vec::new() }
    }

    /// Builds a set from a vector that is already strictly increasing.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the input is not strictly increasing.
    pub fn from_sorted(elems: Vec<u64>) -> Self {
        debug_assert!(
            elems.windows(2).all(|w| w[0] < w[1]),
            "input must be strictly increasing"
        );
        ElementSet { elems }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, x: u64) -> bool {
        self.elems.binary_search(&x).is_ok()
    }

    /// The elements in increasing order.
    pub fn as_slice(&self) -> &[u64] {
        &self.elems
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.elems.iter().copied()
    }

    /// The largest element, if any.
    pub fn max_element(&self) -> Option<u64> {
        self.elems.last().copied()
    }

    /// Set intersection.
    pub fn intersection(&self, other: &ElementSet) -> ElementSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.elems.len() && j < other.elems.len() {
            match self.elems[i].cmp(&other.elems[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.elems[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        ElementSet { elems: out }
    }

    /// Set union.
    pub fn union(&self, other: &ElementSet) -> ElementSet {
        let mut out: Vec<u64> = self.elems.iter().chain(&other.elems).copied().collect();
        out.sort_unstable();
        out.dedup();
        ElementSet { elems: out }
    }

    /// Symmetric difference `(S ∖ T) ∪ (T ∖ S)`.
    pub fn symmetric_difference(&self, other: &ElementSet) -> ElementSet {
        let union = self.union(other);
        let inter = self.intersection(other);
        ElementSet {
            elems: union
                .elems
                .into_iter()
                .filter(|x| !inter.contains(*x))
                .collect(),
        }
    }

    /// Elements of `self` not in `other`.
    pub fn difference(&self, other: &ElementSet) -> ElementSet {
        ElementSet {
            elems: self
                .elems
                .iter()
                .copied()
                .filter(|x| !other.contains(*x))
                .collect(),
        }
    }

    /// Keeps only elements satisfying the predicate.
    pub(crate) fn filtered(&self, mut pred: impl FnMut(u64) -> bool) -> ElementSet {
        ElementSet {
            elems: self.elems.iter().copied().filter(|&x| pred(x)).collect(),
        }
    }

    /// Applies an *injective-on-this-set* map, preserving set semantics.
    ///
    /// # Panics
    ///
    /// Panics if the map collides on the set (it would silently merge
    /// elements otherwise).
    pub fn mapped(&self, mut f: impl FnMut(u64) -> u64) -> ElementSet {
        let mut out: Vec<u64> = self.elems.iter().map(|&x| f(x)).collect();
        out.sort_unstable();
        let before = out.len();
        out.dedup();
        assert_eq!(out.len(), before, "map must be injective on the set");
        ElementSet { elems: out }
    }

    /// Samples a uniformly random `size`-subset of `[n]`.
    ///
    /// # Panics
    ///
    /// Panics if `size > n`.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, n: u64, size: usize) -> Self {
        assert!(size as u64 <= n, "cannot sample {size} elements from [{n}]");
        // Floyd's algorithm: uniform without replacement.
        let mut chosen = BTreeSet::new();
        for j in (n - size as u64)..n {
            let t = rng.gen_range(0..=j);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        ElementSet {
            elems: chosen.into_iter().collect(),
        }
    }
}

impl FromIterator<u64> for ElementSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut elems: Vec<u64> = iter.into_iter().collect();
        elems.sort_unstable();
        elems.dedup();
        ElementSet { elems }
    }
}

impl From<Vec<u64>> for ElementSet {
    fn from(v: Vec<u64>) -> Self {
        v.into_iter().collect()
    }
}

impl<'a> IntoIterator for &'a ElementSet {
    type Item = u64;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, u64>>;

    fn into_iter(self) -> Self::IntoIter {
        self.elems.iter().copied()
    }
}

/// The parameters of an `INT_k` instance, known to both parties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemSpec {
    /// Universe size: elements are drawn from `[n] = {0, …, n−1}`.
    pub n: u64,
    /// Cardinality bound: `|S|, |T| ≤ k`.
    pub k: u64,
}

impl ProblemSpec {
    /// Creates a spec, validating `1 ≤ k ≤ n`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > n`.
    pub fn new(n: u64, k: u64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        assert!(k <= n, "k = {k} exceeds universe size n = {n}");
        ProblemSpec { n, k }
    }

    /// Checks that `set` is a legal input for this spec.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    pub fn validate(&self, set: &ElementSet) -> Result<(), String> {
        if set.len() as u64 > self.k {
            return Err(format!(
                "set has {} elements, bound is k = {}",
                set.len(),
                self.k
            ));
        }
        if let Some(max) = set.max_element() {
            if max >= self.n {
                return Err(format!("element {max} outside universe [{}]", self.n));
            }
        }
        Ok(())
    }
}

/// A two-party input pair with known ground truth, for tests and benchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputPair {
    /// Alice's set.
    pub s: ElementSet,
    /// Bob's set.
    pub t: ElementSet,
}

impl InputPair {
    /// The true intersection (ground truth for checking protocol outputs).
    pub fn ground_truth(&self) -> ElementSet {
        self.s.intersection(&self.t)
    }

    /// Samples a pair of `k`-subsets of `[n]` whose intersection has exactly
    /// `overlap` elements (`overlap ≤ k`, `2k − overlap ≤ n`).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are infeasible.
    pub fn random_with_overlap<R: Rng + ?Sized>(
        rng: &mut R,
        spec: ProblemSpec,
        size: usize,
        overlap: usize,
    ) -> Self {
        assert!(overlap <= size, "overlap exceeds set size");
        assert!(size as u64 <= spec.k, "size exceeds spec bound k");
        let distinct = 2 * size - overlap;
        assert!(
            distinct as u64 <= spec.n,
            "need {distinct} distinct elements but universe has {}",
            spec.n
        );
        let pool = ElementSet::random(rng, spec.n, distinct);
        let mut elems: Vec<u64> = pool.iter().collect();
        elems.shuffle(rng);
        let shared: Vec<u64> = elems[..overlap].to_vec();
        let only_s: Vec<u64> = elems[overlap..size].to_vec();
        let only_t: Vec<u64> = elems[size..distinct].to_vec();
        let s: ElementSet = shared.iter().chain(&only_s).copied().collect();
        let t: ElementSet = shared.iter().chain(&only_t).copied().collect();
        debug_assert_eq!(s.intersection(&t).len(), overlap);
        InputPair { s, t }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn from_iter_sorts_and_dedups() {
        let s = ElementSet::from_iter([9u64, 1, 9, 4, 4, 0]);
        assert_eq!(s.as_slice(), &[0, 1, 4, 9]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn set_algebra_matches_btreeset_oracle() {
        let mut r = rng(1);
        for _ in 0..50 {
            let a: Vec<u64> = (0..30).map(|_| r.gen_range(0..100)).collect();
            let b: Vec<u64> = (0..30).map(|_| r.gen_range(0..100)).collect();
            let sa: ElementSet = a.iter().copied().collect();
            let sb: ElementSet = b.iter().copied().collect();
            let oa: BTreeSet<u64> = a.iter().copied().collect();
            let ob: BTreeSet<u64> = b.iter().copied().collect();

            let inter: Vec<u64> = oa.intersection(&ob).copied().collect();
            assert_eq!(sa.intersection(&sb).as_slice(), &inter[..]);

            let uni: Vec<u64> = oa.union(&ob).copied().collect();
            assert_eq!(sa.union(&sb).as_slice(), &uni[..]);

            let sym: Vec<u64> = oa.symmetric_difference(&ob).copied().collect();
            assert_eq!(sa.symmetric_difference(&sb).as_slice(), &sym[..]);

            let diff: Vec<u64> = oa.difference(&ob).copied().collect();
            assert_eq!(sa.difference(&sb).as_slice(), &diff[..]);
        }
    }

    #[test]
    fn random_sets_are_uniform_sized_and_in_range() {
        let mut r = rng(2);
        for _ in 0..20 {
            let s = ElementSet::random(&mut r, 1000, 100);
            assert_eq!(s.len(), 100);
            assert!(s.max_element().unwrap() < 1000);
        }
    }

    #[test]
    fn random_full_universe() {
        let mut r = rng(3);
        let s = ElementSet::random(&mut r, 10, 10);
        assert_eq!(s.as_slice(), &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn overlap_pairs_have_exact_overlap() {
        let mut r = rng(4);
        let spec = ProblemSpec::new(10_000, 128);
        for overlap in [0usize, 1, 64, 127, 128] {
            let pair = InputPair::random_with_overlap(&mut r, spec, 128, overlap);
            assert_eq!(pair.s.len(), 128);
            assert_eq!(pair.t.len(), 128);
            assert_eq!(pair.ground_truth().len(), overlap);
            spec.validate(&pair.s).unwrap();
            spec.validate(&pair.t).unwrap();
        }
    }

    #[test]
    fn spec_validation_rejects_bad_inputs() {
        let spec = ProblemSpec::new(100, 5);
        assert!(spec.validate(&ElementSet::from_iter(0..5u64)).is_ok());
        assert!(spec.validate(&ElementSet::from_iter(0..6u64)).is_err());
        assert!(spec.validate(&ElementSet::from_iter([100u64])).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds universe size")]
    fn spec_rejects_k_above_n() {
        ProblemSpec::new(4, 5);
    }

    #[test]
    fn filtered_and_mapped() {
        let s = ElementSet::from_iter(0..10u64);
        assert_eq!(s.filtered(|x| x % 3 == 0).as_slice(), &[0, 3, 6, 9]);
        assert_eq!(
            s.mapped(|x| 100 - x).as_slice(),
            &[91, 92, 93, 94, 95, 96, 97, 98, 99, 100]
        );
    }

    #[test]
    #[should_panic(expected = "injective")]
    fn mapped_rejects_collisions() {
        ElementSet::from_iter(0..10u64).mapped(|x| x / 2);
    }
}
