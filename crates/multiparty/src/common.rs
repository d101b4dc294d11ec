//! Shared machinery for the multi-party protocols: group partitioning and
//! certified pairwise intersection.

use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::Side;
use intersect_core::amplify::Amplified;
use intersect_core::api::SetIntersection;
use intersect_core::sets::{ElementSet, ProblemSpec};
use intersect_core::tree::TreeProtocol;

// Group partitioning and pair labels are shared with the engine's
// prepared tournament plans (`intersect_core::topology`); re-exported
// here so protocol code and plans provably agree on the schedule.
pub use intersect_core::topology::{pair_label, partition};

/// Parameters of the certified two-party intersection every multi-party
/// protocol runs along its edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairwiseConfig {
    /// Round budget `r` of the inner verification-tree protocol.
    pub tree_rounds: u32,
    /// Certificate strength of the repeat-until-certified wrapper
    /// (the paper's `2k`-bit checks).
    pub certificate_bits: usize,
    /// Repetition cap.
    pub max_attempts: u32,
}

impl PairwiseConfig {
    /// The paper's parameters for cardinality bound `k`.
    pub fn for_spec(spec: ProblemSpec, tree_rounds: u32) -> Self {
        PairwiseConfig {
            tree_rounds,
            certificate_bits: (2 * spec.k as usize).clamp(16, 4096),
            max_attempts: 16,
        }
    }
}

/// Runs one certified two-party intersection over `chan`.
///
/// Coins must be forked identically by both endpoints (e.g. from the level
/// and the pair of player ids).
///
/// # Errors
///
/// Propagates transport and protocol failures.
pub(crate) fn certified_pairwise(
    cfg: PairwiseConfig,
    chan: &mut dyn Chan,
    coins: &CoinSource,
    side: Side,
    spec: ProblemSpec,
    input: &ElementSet,
) -> Result<ElementSet, ProtocolError> {
    let proto = Amplified {
        inner: TreeProtocol::new(cfg.tree_rounds),
        certificate_bits: Some(cfg.certificate_bits),
        max_attempts: cfg.max_attempts,
    };
    proto.run(chan, coins, side, spec, input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_respects_group_size() {
        let actives: Vec<usize> = (0..11).collect();
        let groups = partition(&actives, 4);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], vec![0, 1, 2, 3]);
        assert_eq!(groups[2], vec![8, 9, 10]);
        let flat: Vec<usize> = groups.concat();
        assert_eq!(flat, actives);
    }

    #[test]
    fn pair_label_is_symmetric() {
        assert_eq!(pair_label("avg", 2, 7, 3), pair_label("avg", 2, 3, 7));
        assert_ne!(pair_label("avg", 2, 7, 3), pair_label("avg", 1, 3, 7));
        assert_ne!(pair_label("avg", 2, 7, 3), pair_label("wc", 2, 3, 7));
    }

    #[test]
    fn pairwise_config_scales_with_k() {
        let spec = ProblemSpec::new(1 << 20, 64);
        let cfg = PairwiseConfig::for_spec(spec, 2);
        assert_eq!(cfg.certificate_bits, 128);
        let tiny = ProblemSpec::new(100, 2);
        assert_eq!(PairwiseConfig::for_spec(tiny, 2).certificate_bits, 16);
    }

    mod properties {
        use super::super::partition;
        use proptest::prelude::*;

        proptest! {
            // The tournament shapes lean on three partition invariants:
            // every active appears exactly once and in order, no group
            // exceeds the bound, and only the (possibly odd) tail group
            // may be smaller.
            #[test]
            fn partition_covers_actives_exactly_once(
                m in 1usize..100,
                group_size in 2usize..40,
            ) {
                let actives: Vec<usize> = (0..m).collect();
                let groups = partition(&actives, group_size);
                let flat: Vec<usize> = groups.concat();
                prop_assert_eq!(flat, actives);
            }

            #[test]
            fn partition_respects_group_size_bound(
                actives in proptest::collection::vec(0usize..10_000, 1..120),
                group_size in 2usize..40,
            ) {
                let groups = partition(&actives, group_size);
                prop_assert!(groups.iter().all(|g| !g.is_empty()));
                prop_assert!(groups.iter().all(|g| g.len() <= group_size));
            }

            #[test]
            fn partition_odd_tail_is_the_only_short_group(
                m in 1usize..100,
                group_size in 2usize..40,
            ) {
                let actives: Vec<usize> = (0..m).collect();
                let groups = partition(&actives, group_size);
                for g in &groups[..groups.len() - 1] {
                    prop_assert_eq!(g.len(), group_size);
                }
                let tail = groups.last().unwrap();
                prop_assert_eq!(tail.len(), if m % group_size == 0 { group_size } else { m % group_size });
            }
        }
    }
}
