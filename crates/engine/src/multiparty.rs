//! m-party session workloads: requests, outcomes, and conformance
//! envelopes for engine-hosted multiparty sessions.
//!
//! A [`MultipartyRequest`] is the m-party analogue of
//! [`SessionRequest`](crate::SessionRequest): a one-line description —
//! universe, cardinality bound, party count, overlap, protocol, seed —
//! from which every player's input set regenerates deterministically.
//! The engine hosts such a session on one worker's reusable
//! [`LinkSet`](intersect_comm::net::LinkSet) (allocation-free at steady
//! state, like the two-party runner pairs), running all `m` player
//! halves on parallel threads with pairwise links per tournament level.
//! The defining invariant carries over from the pair path: an
//! engine-hosted m-party session is **bit-for-bit identical** to the
//! same request served by the harness-only
//! [`execute`](intersect_multiparty::AverageCase::execute) calls.

use crate::timeline::SessionTimeline;
use intersect_comm::error::ProtocolError;
use intersect_comm::stats::NetworkReport;
use intersect_core::api::ProtocolChoice;
use intersect_core::sets::{ElementSet, ProblemSpec};
use intersect_core::topology::PreparedTournament;
use intersect_multiparty::choice::MultipartyChoice;
use intersect_multiparty::common::PairwiseConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Default slack factor for per-player conformance envelopes: generous
/// enough to absorb certificate retries (an expected `O(1)` event) while
/// still catching protocols that blow their per-player budget outright.
pub const MULTIPARTY_ENVELOPE_SLACK: f64 = 8.0;

/// One m-party session to serve: workload parameters plus the protocol
/// choice, regenerable into exact inputs by anyone holding the line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultipartyRequest {
    /// Client-assigned session id (echoed in the outcome).
    pub id: u64,
    /// Seed for the input generator and the session's common random
    /// string.
    pub seed: u64,
    /// The `INT_k` instance parameters, shared by all players.
    pub spec: ProblemSpec,
    /// Number of players `m`.
    pub players: usize,
    /// Size of the common core planted in every player's set; the
    /// global intersection contains at least these `overlap` elements.
    pub overlap: usize,
    /// Which Section 4 protocol to run.
    pub choice: MultipartyChoice,
    /// Round budget `r` of the inner verification-tree protocol.
    pub tree_rounds: u32,
    /// For remote sessions: the player index the connecting client
    /// drives itself (the server hosts the rest). `None` for fully
    /// engine-hosted sessions.
    pub player: Option<usize>,
}

impl MultipartyRequest {
    /// A request with `seed = id` and tree round budget 2.
    pub fn new(
        id: u64,
        spec: ProblemSpec,
        players: usize,
        overlap: usize,
        choice: MultipartyChoice,
    ) -> Self {
        MultipartyRequest {
            id,
            seed: id,
            spec,
            players,
            overlap,
            choice,
            tree_rounds: 2,
            player: None,
        }
    }

    /// Checks the generator constraints.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.players == 0 {
            return Err("players must be positive".into());
        }
        if self.players > 4096 {
            return Err(format!("players {} exceeds the cap 4096", self.players));
        }
        if let Some(p) = self.player {
            if p >= self.players {
                return Err(format!(
                    "player index {p} out of range for {} players",
                    self.players
                ));
            }
        }
        if self.overlap as u64 > self.spec.k {
            return Err(format!(
                "overlap {} exceeds cardinality bound k = {}",
                self.overlap, self.spec.k
            ));
        }
        if self.overlap as u64 > self.spec.n / 2 {
            return Err(format!(
                "core of {} elements exceeds the lower half-universe {}",
                self.overlap,
                self.spec.n / 2
            ));
        }
        if self.spec.k > self.spec.n - self.spec.n / 2 {
            return Err(format!(
                "per-player fill needs up to k = {} elements but the upper half-universe has {}",
                self.spec.k,
                self.spec.n - self.spec.n / 2
            ));
        }
        Ok(())
    }

    /// Deterministically regenerates every player's input set: a common
    /// core of `overlap` elements from the lower half-universe, each
    /// player filled up to `k` with private elements from the upper half
    /// (the same generator the multiparty harness tests use). Anyone
    /// holding the request reproduces the exact inputs — the audit path
    /// for engine-hosted and remote m-party sessions alike.
    pub fn player_sets(&self) -> Vec<ElementSet> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let core = ElementSet::random(&mut rng, self.spec.n / 2, self.overlap);
        (0..self.players)
            .map(|_| {
                let mut elems: Vec<u64> = core.iter().collect();
                while elems.len() < self.spec.k as usize {
                    let x = rng.gen_range(self.spec.n / 2..self.spec.n);
                    if !elems.contains(&x) {
                        elems.push(x);
                    }
                }
                elems.into_iter().collect()
            })
            .collect()
    }

    /// The exact global intersection of [`player_sets`](Self::player_sets).
    pub fn ground_truth(&self) -> ElementSet {
        let sets = self.player_sets();
        sets.iter()
            .skip(1)
            .fold(sets[0].clone(), |acc, s| acc.intersection(s))
    }

    /// The session's per-player conformance envelope in bits, derived
    /// from the prepared tournament plan and the predicted
    /// [`PredictedCost`](intersect_core::cost::PredictedCost) of one
    /// certified pairwise run (at empty overlap, the tree's costliest).
    pub fn envelope_bits(&self, plan: &PreparedTournament) -> f64 {
        let pairwise = ProtocolChoice::Tree(self.tree_rounds)
            .predicted_cost(self.spec, None)
            .bits
            + PairwiseConfig::for_spec(self.spec, self.tree_rounds).certificate_bits as f64;
        plan.player_envelope_bits(pairwise, MULTIPARTY_ENVELOPE_SLACK)
    }

    /// Parses the line format emitted by [`to_line`](Self::to_line):
    /// whitespace-separated `key=value` tokens with keys `id`, `seed`,
    /// `n`, `k`, `overlap`, `players`, `player`, `mp`, `rounds`. The
    /// `players` and `mp` keys are what distinguish a multiparty Open
    /// line from a two-party one on the wire. Returns `Ok(None)` for
    /// blank lines and `#` comments.
    ///
    /// # Errors
    ///
    /// Rejects unknown keys, malformed values, and infeasible parameters.
    pub fn parse_line(line: &str) -> Result<Option<MultipartyRequest>, String> {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            return Ok(None);
        }
        let mut id = None;
        let mut seed = None;
        let mut n = None;
        let mut k = None;
        let mut overlap = 0usize;
        let mut players = None;
        let mut player = None;
        let mut choice = None;
        let mut tree_rounds = 2u32;
        for token in line.split_whitespace() {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {token:?}"))?;
            let int = || -> Result<u64, String> {
                parse_u64(value).ok_or_else(|| format!("bad integer for {key}: {value:?}"))
            };
            match key {
                "id" => id = Some(int()?),
                "seed" => seed = Some(int()?),
                "n" => n = Some(int()?),
                "k" => k = Some(int()?),
                "overlap" => overlap = int()? as usize,
                "players" => players = Some(int()? as usize),
                "player" => player = Some(int()? as usize),
                "mp" => choice = Some(value.parse::<MultipartyChoice>()?),
                "rounds" => tree_rounds = int()? as u32,
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        let n = n.ok_or("missing required key n")?;
        let k = k.ok_or("missing required key k")?;
        if k == 0 || k > n {
            return Err(format!("infeasible spec: n={n} k={k}"));
        }
        let id = id.unwrap_or(0);
        let req = MultipartyRequest {
            id,
            seed: seed.unwrap_or(id),
            spec: ProblemSpec::new(n, k),
            players: players.ok_or("missing required key players")?,
            overlap,
            choice: choice.ok_or("missing required key mp")?,
            tree_rounds,
            player,
        };
        req.validate()?;
        Ok(Some(req))
    }

    /// Renders the request in the [`parse_line`](Self::parse_line) format.
    pub fn to_line(&self) -> String {
        let mut out = format!(
            "id={} seed={} n={} k={} overlap={} players={} mp={} rounds={}",
            self.id,
            self.seed,
            self.spec.n,
            self.spec.k,
            self.overlap,
            self.players,
            self.choice,
            self.tree_rounds
        );
        if let Some(p) = self.player {
            out.push_str(&format!(" player={p}"));
        }
        out
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(exp) = s.strip_prefix("2^") {
        return 1u64.checked_shl(exp.parse().ok()?);
    }
    s.parse().ok()
}

/// The final record of one engine-hosted m-party session.
#[derive(Debug, Clone)]
pub struct MultipartySessionOutcome {
    /// The request that produced this session.
    pub request: MultipartyRequest,
    /// The player left holding the intersection (intersection protocols
    /// only).
    pub holder: Option<usize>,
    /// The computed global intersection, from the holder.
    pub result: Option<ElementSet>,
    /// Per-player disjointness verdicts (decision protocols only).
    pub verdicts: Vec<Option<bool>>,
    /// The primary failure, if any.
    pub error: Option<ProtocolError>,
    /// Exact per-player communication and round accounting, identical
    /// to what a harness-only `execute` call reports for this request.
    pub report: NetworkReport,
    /// The per-player conformance envelope the session was checked
    /// against (bits, from the prepared tournament plan).
    pub envelope_bits: f64,
    /// `true` iff the heaviest player stayed within the envelope.
    pub within_envelope: bool,
    /// Wall-clock admission-to-outcome latency in microseconds.
    pub latency_micros: u64,
    /// The session's latency waterfall; the same six segments tile
    /// m-party sessions too.
    pub timeline: SessionTimeline,
}

impl MultipartySessionOutcome {
    /// `true` iff every player half finished without error and the
    /// protocol produced its output (a holder, or unanimous verdicts).
    pub fn succeeded(&self) -> bool {
        if self.error.is_some() {
            return false;
        }
        match self.request.choice {
            MultipartyChoice::Disjointness => {
                let mut verdicts = self.verdicts.iter().flatten();
                match verdicts.next() {
                    Some(first) => verdicts.all(|v| v == first),
                    None => false,
                }
            }
            _ => self.holder.is_some() && self.result.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let spec = ProblemSpec::new(1 << 20, 16);
        let mut req = MultipartyRequest::new(7, spec, 8, 3, MultipartyChoice::WorstCase);
        let parsed = MultipartyRequest::parse_line(&req.to_line())
            .unwrap()
            .unwrap();
        assert_eq!(parsed, req);
        req.player = Some(2);
        let parsed = MultipartyRequest::parse_line(&req.to_line())
            .unwrap()
            .unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        // A two-party line is not a multiparty line and vice versa.
        assert!(MultipartyRequest::parse_line("n=1024 k=8").is_err()); // no players/mp
        assert!(MultipartyRequest::parse_line("n=1024 k=8 players=4").is_err()); // no mp
        assert!(MultipartyRequest::parse_line("n=1024 k=8 players=4 mp=warp").is_err());
        assert!(
            MultipartyRequest::parse_line("n=1024 k=8 players=4 mp=mp/average player=4").is_err()
        );
        assert!(
            MultipartyRequest::parse_line("n=1024 k=8 players=4 mp=mp/average size=8").is_err()
        );
        assert_eq!(MultipartyRequest::parse_line("# comment"), Ok(None));
    }

    #[test]
    fn player_sets_are_deterministic_and_honor_overlap() {
        let spec = ProblemSpec::new(1 << 16, 16);
        let req = MultipartyRequest::new(3, spec, 5, 4, MultipartyChoice::AverageCase);
        let a = req.player_sets();
        let b = req.player_sets();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|s| s.len() == 16));
        // The planted core survives into the global intersection.
        assert!(req.ground_truth().len() >= 4);
    }

    #[test]
    fn envelope_scales_with_the_plan() {
        let spec = ProblemSpec::new(1 << 20, 16);
        let small = MultipartyRequest::new(0, spec, 2, 4, MultipartyChoice::AverageCase);
        let large = MultipartyRequest::new(0, spec, 64, 4, MultipartyChoice::AverageCase);
        let e_small = small.envelope_bits(&small.choice.plan(spec, 2));
        let e_large = large.envelope_bits(&large.choice.plan(spec, 64));
        // The star coordinator of a 32-wide group carries more matches
        // than a pair's single match.
        assert!(e_large > e_small);
    }
}
