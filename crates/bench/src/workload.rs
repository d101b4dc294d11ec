//! Workload generation for the experiments.
//!
//! All experiments draw inputs from the same parameterized distribution:
//! `k`-subsets of `[n]` with a controlled intersection size, sampled by a
//! seeded generator so every table is exactly reproducible.

use intersect_core::sets::{ElementSet, InputPair, ProblemSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A reproducible two-party workload family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Problem parameters.
    pub spec: ProblemSpec,
    /// Actual set size used (≤ `spec.k`).
    pub size: usize,
    /// Fraction of each set shared with the other (`0.0..=1.0`).
    pub overlap: f64,
    /// Base seed; trial `t` uses `seed + t`.
    pub seed: u64,
}

impl Workload {
    /// A full-size workload (`size = k`) with the given overlap fraction.
    pub fn new(n: u64, k: u64, overlap: f64, seed: u64) -> Self {
        Workload {
            spec: ProblemSpec::new(n, k),
            size: k as usize,
            overlap: overlap.clamp(0.0, 1.0),
            seed,
        }
    }

    /// The intersection size this workload targets.
    pub(crate) fn overlap_count(&self) -> usize {
        ((self.size as f64) * self.overlap).round() as usize
    }

    /// Generates the input pair for trial `trial`.
    pub fn pair(&self, trial: u64) -> InputPair {
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.seed
                .wrapping_add(trial)
                .wrapping_mul(0x9e3779b97f4a7c15),
        );
        InputPair::random_with_overlap(&mut rng, self.spec, self.size, self.overlap_count())
    }

    /// Generates `m` sets sharing a common core of `common` elements, for
    /// the multi-party experiments. The global intersection is exactly the
    /// core (for `m ≥ 2`, private elements are sampled from disjoint
    /// per-player slices of the universe).
    pub(crate) fn multiparty_sets(&self, m: usize, common: usize, trial: u64) -> Vec<ElementSet> {
        assert!(common <= self.size);
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.seed
                .wrapping_add(trial)
                .wrapping_mul(0xc2b2ae3d27d4eb4f)
                ^ m as u64,
        );
        let n = self.spec.n;
        let core_zone = n / (m as u64 + 1);
        let core = ElementSet::random(&mut rng, core_zone, common);
        (0..m)
            .map(|p| {
                let lo = core_zone * (p as u64 + 1);
                let private = ElementSet::random(&mut rng, core_zone.max(1), self.size - common);
                core.iter().chain(private.iter().map(|x| lo + x)).collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_reproducible_and_sized() {
        let w = Workload::new(1 << 30, 256, 0.25, 7);
        let p1 = w.pair(3);
        let p2 = w.pair(3);
        assert_eq!(p1, p2);
        assert_eq!(p1.s.len(), 256);
        assert_eq!(p1.ground_truth().len(), 64);
        assert_ne!(p1, w.pair(4));
    }

    #[test]
    fn multiparty_sets_share_exactly_the_core() {
        let w = Workload::new(1 << 24, 64, 0.0, 1);
        let sets = w.multiparty_sets(7, 10, 0);
        assert_eq!(sets.len(), 7);
        let truth = sets
            .iter()
            .skip(1)
            .fold(sets[0].clone(), |acc, s| acc.intersection(s));
        assert_eq!(truth.len(), 10);
        for s in &sets {
            assert_eq!(s.len(), 64);
            assert!(s.max_element().unwrap() < 1 << 24);
        }
    }
}
