//! Party topologies: the session shape generalized from "a pair" to
//! `m` players.
//!
//! Everything above the transport used to assume exactly two parties.
//! This module is the shared vocabulary that lets the engine, the plan
//! cache, and the network plane reason about `m`-party sessions with the
//! pair as the `m = 2` special case:
//!
//! * [`PartyTopology`] — how many players and how they are grouped per
//!   recursion level (the paper's "groups of at most `2k`");
//! * [`SessionShape`] — pair vs. tournament, for dispatch and display;
//! * [`partition`] / [`pair_label`] — the grouping and coin-label
//!   functions the Section-4 protocols share (re-exported by
//!   `intersect-multiparty::common`, their historical home);
//! * [`PreparedTournament`] — a fully derived schedule (tree shape,
//!   per-level matches, apex certificate pairs, winners) that the
//!   engine's generation-tagged plan cache stores per
//!   `(protocol, spec, m)` so repeated `m`-party submissions skip the
//!   derivation, and from which per-player conformance envelopes are
//!   computed.
//!
//! The derivations here are *descriptive*: they mirror, move for move,
//! the schedules the protocols in `intersect-multiparty` execute (the
//! balanced bracket of Corollary 4.2 and the coordinator star of
//! Corollary 4.1), and equivalence is pinned by tests on both sides.

use crate::sets::ProblemSpec;

/// Splits the active player list into consecutive groups of at most
/// `group_size` (the paper's "groups of size at most 2k").
///
/// # Panics
///
/// Panics if `group_size < 2`.
pub fn partition(actives: &[usize], group_size: usize) -> Vec<Vec<usize>> {
    assert!(group_size >= 2, "groups must pair at least two players");
    actives.chunks(group_size).map(|c| c.to_vec()).collect()
}

/// A deterministic label for the coins of a pairwise run, identical on
/// both endpoints.
pub fn pair_label(scope: &str, level: usize, a: usize, b: usize) -> String {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    format!("mp/{scope}/level{level}/{lo}-{hi}")
}

/// The shape of a session: a plain pair, or an `m`-party tournament.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionShape {
    /// The classic two-party session every layer originally assumed.
    Pair,
    /// An `m`-party session recursing over `levels` grouping levels.
    Tournament {
        /// Number of players (`m > 2`).
        players: usize,
        /// Number of recursion levels until one player remains.
        levels: usize,
    },
}

/// How many players a session spans and how they group per level.
///
/// The pair is the `m = 2` special case ([`PartyTopology::pair`]): one
/// level, one group, one match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartyTopology {
    /// Number of players, `≥ 1`.
    pub players: usize,
    /// Maximum group size per recursion level, `≥ 2`.
    pub group_size: usize,
}

impl PartyTopology {
    /// The two-party special case.
    pub fn pair() -> PartyTopology {
        PartyTopology {
            players: 2,
            group_size: 2,
        }
    }

    /// An `m`-party topology with explicit group size.
    ///
    /// # Panics
    ///
    /// Panics if `players == 0` or `group_size < 2`.
    pub fn new(players: usize, group_size: usize) -> PartyTopology {
        assert!(players >= 1, "topology needs at least one player");
        assert!(group_size >= 2, "groups must pair at least two players");
        PartyTopology {
            players,
            group_size,
        }
    }

    /// The paper's parameterization for cardinality bound `k`: groups of
    /// `2k` (at least 2).
    pub fn for_spec(players: usize, spec: ProblemSpec) -> PartyTopology {
        PartyTopology::new(players, (2 * spec.k as usize).max(2))
    }

    /// `true` iff this is the two-party special case.
    pub(crate) fn is_pair(&self) -> bool {
        self.players <= 2
    }

    /// Number of recursion levels until a single active player remains.
    pub fn levels(&self) -> usize {
        let mut actives = self.players;
        let mut levels = 0;
        while actives > 1 {
            actives = actives.div_ceil(self.group_size);
            levels += 1;
        }
        levels
    }

    /// This topology's [`SessionShape`].
    pub fn shape(&self) -> SessionShape {
        if self.is_pair() {
            SessionShape::Pair
        } else {
            SessionShape::Tournament {
                players: self.players,
                levels: self.levels(),
            }
        }
    }
}

/// How matches inside each group are scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TournamentKind {
    /// Balanced in-group bracket with an apex certificate
    /// (Corollary 4.2, `WorstCase`).
    Bracket,
    /// Coordinator star: the group head plays every member in parallel
    /// (Corollary 4.1, `AverageCase` and disjointness on top of it).
    Star,
}

/// One pairwise match of a tournament level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TournamentMatch {
    /// The lower-bracket (Alice) side; carries the result upward.
    pub host: usize,
    /// The upper-bracket (Bob) side; eliminated after the match.
    pub guest: usize,
    /// Bracket step (`2^d` distance) the match belongs to; 0 for star
    /// levels, where all matches run in parallel.
    pub step: usize,
}

/// One recursion level of a prepared tournament.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TournamentLevel {
    /// The groups active players were partitioned into.
    pub groups: Vec<Vec<usize>>,
    /// Every pairwise match of the level, in schedule order.
    pub matches: Vec<TournamentMatch>,
    /// Apex certificate pairs `(winner, partner)` — bracket levels only.
    pub cert_pairs: Vec<(usize, usize)>,
    /// The players surviving into the next level (group heads).
    pub winners: Vec<usize>,
}

/// A fully derived `m`-party session plan: tree shape, per-level match
/// schedule, and the per-level pair labels the coin forks use.
///
/// Prepared once per `(protocol, spec, m)` and cached by the engine's
/// generation-tagged plan cache; consumed for per-player conformance
/// envelopes and the obs/TUI shape summaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedTournament {
    /// The topology the plan was derived for.
    pub topology: PartyTopology,
    /// Bracket or star scheduling.
    pub kind: TournamentKind,
    /// The derived levels, root-ward.
    pub levels: Vec<TournamentLevel>,
}

impl PreparedTournament {
    /// Derives the full schedule for `topology` under `kind`.
    ///
    /// The bracket derivation mirrors `WorstCase::group_tournament`
    /// (rank `i` with `i % 2^{d+1} == 0` hosts rank `i + 2^d`); the star
    /// derivation mirrors `AverageCase::coordinate` (head plays every
    /// member). Both take the group heads as winners, so the recursion
    /// shape is identical to the executed protocols'.
    pub fn prepare(topology: PartyTopology, kind: TournamentKind) -> PreparedTournament {
        let mut levels = Vec::new();
        let mut actives: Vec<usize> = (0..topology.players).collect();
        while actives.len() > 1 {
            let groups = partition(&actives, topology.group_size.max(2));
            let mut matches = Vec::new();
            let mut cert_pairs = Vec::new();
            for group in &groups {
                match kind {
                    TournamentKind::Bracket => {
                        let mut step_size = 1usize;
                        let mut apex: Option<(usize, usize)> = None;
                        while step_size < group.len() {
                            let last_step = step_size * 2 >= group.len();
                            for rank in (0..group.len()).step_by(2 * step_size) {
                                if rank + step_size < group.len() {
                                    matches.push(TournamentMatch {
                                        host: group[rank],
                                        guest: group[rank + step_size],
                                        step: step_size,
                                    });
                                    if last_step && rank == 0 {
                                        apex = Some((group[0], group[step_size]));
                                    }
                                }
                            }
                            step_size *= 2;
                        }
                        if let Some(pair) = apex {
                            cert_pairs.push(pair);
                        }
                    }
                    TournamentKind::Star => {
                        for &member in &group[1..] {
                            matches.push(TournamentMatch {
                                host: group[0],
                                guest: member,
                                step: 0,
                            });
                        }
                    }
                }
            }
            let winners: Vec<usize> = groups.iter().map(|g| g[0]).collect();
            levels.push(TournamentLevel {
                groups,
                matches,
                cert_pairs,
                winners: winners.clone(),
            });
            actives = winners;
        }
        PreparedTournament {
            topology,
            kind,
            levels,
        }
    }

    /// Per-player pairwise match counts over all levels (both sides of a
    /// match count once; apex certificates count as one extra match for
    /// each endpoint).
    pub(crate) fn match_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.topology.players];
        for level in &self.levels {
            for m in &level.matches {
                counts[m.host] += 1;
                counts[m.guest] += 1;
            }
            for &(a, b) in &level.cert_pairs {
                counts[a] += 1;
                counts[b] += 1;
            }
        }
        counts
    }

    /// The heaviest player's match count — the tournament's load bound.
    pub(crate) fn max_matches_per_player(&self) -> usize {
        self.match_counts().into_iter().max().unwrap_or(0)
    }

    /// A per-player communication envelope in bits: the player's match
    /// count times the predicted pairwise cost, widened by `slack` for
    /// certificate retries, plus the verdict broadcasts. Conformance
    /// checks compare a session's measured per-player maximum against
    /// this bound — generous by construction, like the two-party
    /// `theory_envelope`.
    pub fn player_envelope_bits(&self, pairwise_bits: f64, slack: f64) -> f64 {
        let worst = self.max_matches_per_player() as f64;
        let broadcast = self.topology.group_size as f64 + self.topology.players as f64;
        (worst * pairwise_bits).mul_add(slack.max(1.0), broadcast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_is_the_two_player_special_case() {
        let t = PartyTopology::pair();
        assert!(t.is_pair());
        assert_eq!(t.shape(), SessionShape::Pair);
        assert_eq!(t.levels(), 1);
        let plan = PreparedTournament::prepare(t, TournamentKind::Bracket);
        assert_eq!(plan.levels.len(), 1);
        assert_eq!(
            plan.levels[0].matches,
            vec![TournamentMatch {
                host: 0,
                guest: 1,
                step: 1
            }]
        );
        assert_eq!(plan.levels[0].winners, vec![0]);
        // One pairwise match plus the apex certificate exchange each.
        assert_eq!(plan.levels[0].cert_pairs, vec![(0, 1)]);
        assert_eq!(plan.match_counts(), vec![2, 2]);
    }

    #[test]
    fn levels_shrink_by_group_size() {
        let t = PartyTopology::new(40, 4);
        // 40 -> 10 -> 3 -> 1.
        assert_eq!(t.levels(), 3);
        assert_eq!(
            t.shape(),
            SessionShape::Tournament {
                players: 40,
                levels: 3
            }
        );
    }

    #[test]
    fn bracket_matches_cover_every_group_member_once_per_step() {
        let t = PartyTopology::new(16, 8);
        let plan = PreparedTournament::prepare(t, TournamentKind::Bracket);
        assert_eq!(plan.levels.len(), 2);
        let l0 = &plan.levels[0];
        assert_eq!(l0.groups.len(), 2);
        // A full bracket over 8 players has 4 + 2 + 1 matches per group.
        assert_eq!(l0.matches.len(), 2 * 7);
        assert_eq!(l0.cert_pairs, vec![(0, 4), (8, 12)]);
        assert_eq!(l0.winners, vec![0, 8]);
        // Every player is a guest at most once (single elimination).
        let mut guest_seen = [0usize; 16];
        for m in &l0.matches {
            guest_seen[m.guest] += 1;
        }
        assert!(guest_seen.iter().all(|&c| c <= 1));
    }

    #[test]
    fn star_levels_pair_the_head_with_every_member() {
        let t = PartyTopology::new(7, 4);
        let plan = PreparedTournament::prepare(t, TournamentKind::Star);
        let l0 = &plan.levels[0];
        assert_eq!(l0.groups, vec![vec![0, 1, 2, 3], vec![4, 5, 6]]);
        assert_eq!(l0.matches.len(), 3 + 2);
        assert!(l0.matches.iter().all(|m| m.host == 0 || m.host == 4));
        assert!(l0.cert_pairs.is_empty());
        // Second level: the two heads pair up.
        assert_eq!(plan.levels[1].matches.len(), 1);
        assert_eq!(plan.match_counts()[0], 3 + 1);
    }

    #[test]
    fn bracket_load_is_logarithmic_star_load_is_linear() {
        let t = PartyTopology::new(32, 32);
        let bracket = PreparedTournament::prepare(t, TournamentKind::Bracket);
        let star = PreparedTournament::prepare(t, TournamentKind::Star);
        // One full group of 32: bracket head plays log2(32) + cert = 6
        // matches, star head plays 31.
        assert_eq!(bracket.max_matches_per_player(), 6);
        assert_eq!(star.max_matches_per_player(), 31);
        assert!(bracket.player_envelope_bits(100.0, 2.0) < star.player_envelope_bits(100.0, 2.0));
    }

    #[test]
    fn pair_labels_match_protocol_label_format() {
        let plan = PreparedTournament::prepare(PartyTopology::new(3, 2), TournamentKind::Bracket);
        let first = &plan.levels[0].matches[0];
        assert_eq!(
            pair_label("wc-a0", 0, first.host, first.guest),
            "mp/wc-a0/level0/0-1"
        );
        assert!(plan.levels[1]
            .matches
            .iter()
            .any(|m| (m.host, m.guest) == (0, 2)));
    }

    #[test]
    fn odd_group_tails_keep_all_players_covered() {
        for m in [3usize, 5, 9, 11, 17] {
            let plan =
                PreparedTournament::prepare(PartyTopology::new(m, 4), TournamentKind::Bracket);
            // Every player either wins some level or is a guest exactly once.
            let mut eliminated = vec![false; m];
            for level in &plan.levels {
                for mt in &level.matches {
                    assert!(!eliminated[mt.guest], "m={m}: {mt:?} guest already out");
                    eliminated[mt.guest] = true;
                }
            }
            let survivors = eliminated.iter().filter(|&&e| !e).count();
            assert_eq!(survivors, 1, "m={m}: exactly one player survives");
        }
    }
}
