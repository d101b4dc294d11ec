//! The average-case multi-party protocol (Corollary 4.1).
//!
//! Players are partitioned into groups of at most `2k`. Within each group
//! a *coordinator* (the first member) runs the certified two-party
//! protocol with every other member **in parallel**, obtaining
//! `T_i = S_coord ∩ S_i`, and keeps `⋂ T_i` as its new set. Coordinators
//! then recurse among themselves until one player holds `⋂ᵢ Sᵢ`.
//!
//! With groups of `2k` the number of active players shrinks by that factor
//! per level, so there are `max(1, log m / log 2k)` levels and total
//! communication is dominated by the first: `O(k·log^{(r)} k)` *average*
//! bits per player, expected `O(r·max(1, log(m)/log(k)))` rounds, and —
//! thanks to the `2k`-bit certificates on every pairwise run — error
//! `2^{-Ω(k)}` (union-bounded over the `< m` edges).

use crate::common::{certified_pairwise, pair_label, partition, PairwiseConfig};
use intersect_comm::error::ProtocolError;
use intersect_comm::net::{run_network, NetworkConfig, PartyCtx};
use intersect_comm::runner::{contained, Side};
use intersect_comm::stats::NetworkReport;
use intersect_core::sets::{ElementSet, ProblemSpec};

/// The coordinator-recursion protocol of Corollary 4.1.
///
/// # Examples
///
/// ```
/// use intersect_multiparty::average::AverageCase;
/// use intersect_core::sets::{ElementSet, ProblemSpec};
///
/// let spec = ProblemSpec::new(1 << 20, 8);
/// let sets: Vec<ElementSet> = (0..5u64)
///     .map(|p| ElementSet::from_iter([1u64, 2, 100 + p]))
///     .collect();
/// let proto = AverageCase::new(spec, 2);
/// let out = proto.execute(&sets, 7)?;
/// assert_eq!(out.result.as_slice(), &[1, 2]);
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AverageCase {
    /// Problem parameters (shared by all players).
    pub spec: ProblemSpec,
    /// Pairwise-protocol parameters.
    pub pairwise: PairwiseConfig,
    /// Group size; defaults to `2k` as in the paper.
    pub group_size: usize,
}

/// Result of a multi-party intersection run.
#[derive(Debug, Clone)]
pub struct MultipartyOutcome {
    /// The computed intersection `⋂ᵢ Sᵢ`.
    pub result: ElementSet,
    /// The player left holding the result.
    pub holder: usize,
    /// Exact per-player communication and round accounting.
    pub report: NetworkReport,
}

impl AverageCase {
    /// The paper's parameterization: groups of `2k`, certified pairwise
    /// runs with round budget `tree_rounds`.
    pub fn new(spec: ProblemSpec, tree_rounds: u32) -> Self {
        AverageCase {
            spec,
            pairwise: PairwiseConfig::for_spec(spec, tree_rounds),
            group_size: (2 * spec.k as usize).max(2),
        }
    }

    /// Per-player behavior; returns `Some(result)` only at the final
    /// coordinator.
    ///
    /// Generic over the party context, so the same code drives in-process
    /// meshes and remote transports.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures.
    pub fn run<C: PartyCtx>(
        &self,
        ctx: &mut C,
        input: &ElementSet,
    ) -> Result<Option<ElementSet>, ProtocolError> {
        self.spec
            .validate(input)
            .map_err(ProtocolError::InvalidInput)?;
        let me = ctx.id();
        let mut actives: Vec<usize> = (0..ctx.players()).collect();
        let mut current = input.clone();
        let mut level = 0usize;

        while actives.len() > 1 {
            let groups = partition(&actives, self.group_size.max(2));
            let my_group = groups
                .iter()
                .find(|g| g.contains(&me))
                .expect("active player must be in a group")
                .clone();
            let coordinator = my_group[0];
            if me == coordinator {
                current = self.coordinate(ctx, level, &my_group, &current)?;
            } else {
                // Run the member side, then retire.
                let coins = ctx.coins().fork(&pair_label("avg", level, coordinator, me));
                let mut chan = ctx.link(coordinator);
                certified_pairwise(
                    self.pairwise,
                    &mut chan,
                    &coins,
                    Side::Bob,
                    self.spec,
                    &current,
                )?;
                return Ok(None);
            }
            actives = groups.into_iter().map(|g| g[0]).collect();
            level += 1;
        }
        Ok(Some(current))
    }

    /// Coordinator side of one level: all pairwise runs in parallel over
    /// detached links, then the local intersection of the results.
    fn coordinate<C: PartyCtx>(
        &self,
        ctx: &mut C,
        level: usize,
        group: &[usize],
        base: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        let me = ctx.id();
        let members: Vec<usize> = group[1..].to_vec();
        if members.is_empty() {
            return Ok(base.clone());
        }
        let mut taken: Vec<(usize, C::Link)> =
            members.iter().map(|&p| (p, ctx.take_link(p))).collect();
        let coins_root = ctx.coins().clone();
        let spec = self.spec;
        let pairwise = self.pairwise;
        let results: Vec<(usize, C::Link, Result<ElementSet, ProtocolError>)> =
            std::thread::scope(|scope| {
                taken
                    .drain(..)
                    .map(|(peer, mut link)| {
                        let coins = coins_root.fork(&pair_label("avg", level, me, peer));
                        let base = base.clone();
                        scope.spawn(move || {
                            // Contained here, so a panicking half fails
                            // its pairwise run and the link still returns.
                            let r = contained(Side::Alice, || {
                                certified_pairwise(
                                    pairwise,
                                    &mut link,
                                    &coins,
                                    Side::Alice,
                                    spec,
                                    &base,
                                )
                            });
                            (peer, link, r)
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .expect("a half's panic is contained inside its worker")
                    })
                    .collect()
            });
        let mut acc = base.clone();
        let mut first_err = None;
        for (peer, link, res) in results {
            ctx.return_link(peer, link);
            match res {
                Ok(t_i) => acc = acc.intersection(&t_i),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        Ok(acc)
    }

    /// Convenience executor: runs the whole network in-process.
    ///
    /// # Errors
    ///
    /// Propagates player failures; fails if no player ended up holding a
    /// result.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is empty.
    pub fn execute(
        &self,
        sets: &[ElementSet],
        seed: u64,
    ) -> Result<MultipartyOutcome, ProtocolError> {
        assert!(!sets.is_empty(), "need at least one player");
        let cfg = NetworkConfig::new(sets.len(), seed);
        let out = run_network(&cfg, |ctx| self.run(ctx, &sets[ctx.id()]))?;
        let (holder, result) = out
            .outputs
            .iter()
            .enumerate()
            .find_map(|(i, r)| r.clone().map(|set| (i, set)))
            .ok_or_else(|| ProtocolError::Internal("no player holds a result".into()))?;
        Ok(MultipartyOutcome {
            result,
            holder,
            report: out.report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn ground_truth(sets: &[ElementSet]) -> ElementSet {
        sets.iter()
            .skip(1)
            .fold(sets[0].clone(), |acc, s| acc.intersection(s))
    }

    fn random_sets(
        rng: &mut ChaCha8Rng,
        spec: ProblemSpec,
        m: usize,
        common: usize,
    ) -> Vec<ElementSet> {
        let shared = ElementSet::random(rng, spec.n / 2, common);
        (0..m)
            .map(|_| {
                let mut elems: Vec<u64> = shared.iter().collect();
                while elems.len() < spec.k as usize {
                    let x = rng.gen_range(spec.n / 2..spec.n);
                    if !elems.contains(&x) {
                        elems.push(x);
                    }
                }
                elems.into_iter().collect()
            })
            .collect()
    }

    #[test]
    fn two_players_match_two_party_result() {
        let spec = ProblemSpec::new(1 << 20, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sets = random_sets(&mut rng, spec, 2, 5);
        let out = AverageCase::new(spec, 2).execute(&sets, 3).unwrap();
        assert_eq!(out.result, ground_truth(&sets));
        assert_eq!(out.holder, 0);
    }

    #[test]
    fn many_players_compute_global_intersection() {
        let spec = ProblemSpec::new(1 << 20, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for m in [3usize, 8, 20, 33] {
            let sets = random_sets(&mut rng, spec, m, 6);
            let out = AverageCase::new(spec, 2).execute(&sets, m as u64).unwrap();
            assert_eq!(out.result, ground_truth(&sets), "m = {m}");
        }
    }

    #[test]
    fn empty_intersection_is_found() {
        let spec = ProblemSpec::new(1 << 16, 8);
        let sets: Vec<ElementSet> = (0..6u64)
            .map(|p| ElementSet::from_iter((0..8u64).map(|i| p * 1000 + i)))
            .collect();
        let out = AverageCase::new(spec, 2).execute(&sets, 1).unwrap();
        assert!(out.result.is_empty());
    }

    #[test]
    fn identical_sets_survive_whole() {
        let spec = ProblemSpec::new(1 << 16, 8);
        let s = ElementSet::from_iter([5u64, 99, 1234]);
        let sets = vec![s.clone(); 9];
        let out = AverageCase::new(spec, 3).execute(&sets, 2).unwrap();
        assert_eq!(out.result, s);
    }

    #[test]
    fn single_player_returns_own_set() {
        let spec = ProblemSpec::new(100, 4);
        let s = ElementSet::from_iter([1u64, 2]);
        let out = AverageCase::new(spec, 2)
            .execute(std::slice::from_ref(&s), 1)
            .unwrap();
        assert_eq!(out.result, s);
        assert_eq!(out.report.total_bits(), 0);
    }

    #[test]
    fn average_cost_per_player_is_flat_in_m() {
        let spec = ProblemSpec::new(1 << 24, 32);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut avg = Vec::new();
        for m in [8usize, 32] {
            let sets = random_sets(&mut rng, spec, m, 10);
            let out = AverageCase::new(spec, 2).execute(&sets, 5).unwrap();
            assert_eq!(out.result, ground_truth(&sets));
            avg.push(out.report.average_bits_per_player());
        }
        // Average per player should not grow with m (coordinator recursion
        // shrinks geometrically).
        assert!(avg[1] < avg[0] * 2.0, "{avg:?}");
    }

    #[test]
    fn rounds_stay_small_thanks_to_parallel_pairwise() {
        let spec = ProblemSpec::new(1 << 20, 16);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let sets = random_sets(&mut rng, spec, 32, 6);
        let out = AverageCase::new(spec, 2).execute(&sets, 6).unwrap();
        // One level (group 32 = 2k): pairwise runs in parallel — rounds are
        // bounded by a single certified pairwise run, not 31 of them.
        assert!(out.report.rounds <= 20, "rounds = {}", out.report.rounds);
    }
}
