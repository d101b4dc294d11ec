//! A closed catalogue of the multi-party protocols, for engine and
//! transport layers that pick one by name.
//!
//! [`MultipartyChoice`] is to the Section 4 protocols what
//! `ProtocolChoice` is to the two-party ones: a `Copy` tag with a stable
//! wire name, an executable per-player behavior ([`run_player`]), and a
//! derived tournament plan ([`plan`]) for conformance envelopes.
//!
//! [`run_player`]: MultipartyChoice::run_player
//! [`plan`]: MultipartyChoice::plan

use crate::average::AverageCase;
use crate::disjointness::MultipartyDisjointness;
use crate::worst_case::WorstCase;
use intersect_comm::error::ProtocolError;
use intersect_comm::net::PartyCtx;
use intersect_core::sets::{ElementSet, ProblemSpec};
use intersect_core::topology::{PartyTopology, PreparedTournament, TournamentKind};
use std::fmt;
use std::str::FromStr;

/// Which Section 4 protocol an m-party session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultipartyChoice {
    /// Corollary 4.1 — coordinator recursion, average-case optimal.
    AverageCase,
    /// Corollary 4.2 — balanced tournaments, worst-case balanced.
    WorstCase,
    /// Decision variant: all players learn whether `⋂ᵢ Sᵢ = ∅`.
    Disjointness,
}

impl MultipartyChoice {
    /// Every catalogue entry, in display order.
    pub const ALL: [MultipartyChoice; 3] = [
        MultipartyChoice::AverageCase,
        MultipartyChoice::WorstCase,
        MultipartyChoice::Disjointness,
    ];

    /// The stable wire/CLI name (`mp/average`, `mp/worst-case`,
    /// `mp/disjointness`).
    pub fn name(self) -> &'static str {
        match self {
            MultipartyChoice::AverageCase => "mp/average",
            MultipartyChoice::WorstCase => "mp/worst-case",
            MultipartyChoice::Disjointness => "mp/disjointness",
        }
    }

    /// The scheduling shape the protocol induces per level.
    pub(crate) fn tournament_kind(self) -> TournamentKind {
        match self {
            MultipartyChoice::AverageCase | MultipartyChoice::Disjointness => TournamentKind::Star,
            MultipartyChoice::WorstCase => TournamentKind::Bracket,
        }
    }

    /// Derives the prepared tournament plan for an `m`-player session of
    /// this protocol at `spec` — same partition, same match schedule as
    /// the executed recursion.
    pub fn plan(self, spec: ProblemSpec, players: usize) -> PreparedTournament {
        PreparedTournament::prepare(
            PartyTopology::for_spec(players, spec),
            self.tournament_kind(),
        )
    }

    /// Runs this player's half of the protocol over any conforming party
    /// context (in-process mesh or remote transport).
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol failures.
    pub fn run_player<C: PartyCtx>(
        self,
        spec: ProblemSpec,
        tree_rounds: u32,
        ctx: &mut C,
        input: &ElementSet,
    ) -> Result<PlayerOutput, ProtocolError> {
        match self {
            MultipartyChoice::AverageCase => {
                let r = AverageCase::new(spec, tree_rounds).run(ctx, input)?;
                Ok(PlayerOutput {
                    intersection: r,
                    verdict: None,
                })
            }
            MultipartyChoice::WorstCase => {
                let r = WorstCase::new(spec, tree_rounds).run(ctx, input)?;
                Ok(PlayerOutput {
                    intersection: r,
                    verdict: None,
                })
            }
            MultipartyChoice::Disjointness => {
                let v = MultipartyDisjointness::new(spec, tree_rounds).run(ctx, input)?;
                Ok(PlayerOutput {
                    intersection: None,
                    verdict: Some(v),
                })
            }
        }
    }
}

impl fmt::Display for MultipartyChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for MultipartyChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| format!("unknown multiparty protocol {s:?}"))
    }
}

/// One player's output from a multi-party session.
///
/// Intersection protocols leave `intersection = Some(..)` at exactly one
/// player (the holder); disjointness sets `verdict` at every player.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlayerOutput {
    /// The computed intersection, at the holding player only.
    pub intersection: Option<ElementSet>,
    /// The disjointness verdict, for decision protocols.
    pub verdict: Option<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use intersect_comm::net::{run_network, NetworkConfig};

    #[test]
    fn names_round_trip() {
        for c in MultipartyChoice::ALL {
            assert_eq!(c.name().parse::<MultipartyChoice>().unwrap(), c);
        }
        assert!("mp/nope".parse::<MultipartyChoice>().is_err());
    }

    #[test]
    fn run_player_matches_direct_execute() {
        let spec = ProblemSpec::new(1 << 16, 8);
        let sets: Vec<ElementSet> = (0..4u64)
            .map(|p| ElementSet::from_iter([1u64, 2, 500 + p]))
            .collect();
        for choice in MultipartyChoice::ALL {
            let out = run_network(&NetworkConfig::new(sets.len(), 7), |ctx| {
                choice.run_player(spec, 2, ctx, &sets[ctx.id()])
            })
            .unwrap();
            match choice {
                MultipartyChoice::Disjointness => {
                    assert!(out.outputs.iter().all(|o| o.verdict == Some(false)));
                }
                _ => {
                    let holder: Vec<&ElementSet> = out
                        .outputs
                        .iter()
                        .filter_map(|o| o.intersection.as_ref())
                        .collect();
                    assert_eq!(holder.len(), 1, "{choice}: exactly one holder");
                    assert_eq!(holder[0].as_slice(), &[1, 2], "{choice}");
                }
            }
        }
    }

    #[test]
    fn plans_mirror_the_executed_recursion_shape() {
        let spec = ProblemSpec::new(1 << 20, 4); // group size 8
        let plan = MultipartyChoice::WorstCase.plan(spec, 16);
        assert_eq!(plan.levels.len(), 2);
        // Level 0: two groups of 8, balanced brackets of 7 matches each.
        assert_eq!(plan.levels[0].matches.len(), 14);
        assert_eq!(plan.levels[0].winners, vec![0, 8]);
        let star = MultipartyChoice::AverageCase.plan(spec, 16);
        // Level 0: two coordinators playing 7 members each.
        assert_eq!(star.levels[0].matches.len(), 14);
        assert_eq!(star.levels[1].matches.len(), 1);
    }
}
