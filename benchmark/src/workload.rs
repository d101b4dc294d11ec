//! The six workloads and the seeded session pools they run.

use intersect_comm::stats::{CostReport, NetworkReport};
use intersect_core::api::ProtocolChoice;
use intersect_core::sets::{ElementSet, ProblemSpec};
use intersect_engine::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How a workload's sessions reach the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// Blocking `Engine::submit` of single sessions.
    Singles,
    /// Two pair streams, `Engine::submit_stream` in blocks of
    /// [`STREAM_BLOCK`].
    Stream,
    /// An in-process `NetServer` on loopback TCP and one `NetClient`
    /// connection per closed-loop driver thread.
    Net,
    /// `Engine::submit_multiparty` with this many players.
    Multiparty { players: usize },
}

/// Sessions per `submit_stream` call: the pair context's coin-block size.
pub const STREAM_BLOCK: usize = 64;

/// Core planted in every player's set of a multiparty session.
pub const MULTIPARTY_OVERLAP: usize = 8;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists; `BENCHMARK.json` carries the same line.
    pub why: &'static str,
    pub driver: Driver,
    /// Sessions (stream blocks, connections) the closed loop keeps in
    /// flight; the engine's admission queue is given the same depth.
    pub in_flight: usize,
    /// The pair protocol every session is pinned to. For the multiparty
    /// workload this is the tournament's inner pairwise protocol, which
    /// the ladder's two-party rungs run.
    pub choice: ProtocolChoice,
    pub spec: ProblemSpec,
    /// Distinct seeded sessions; the measured window cycles through them.
    /// Sized so one pass, which every set-up makes, takes 0.05 to 1 s
    /// at the workload's rate, and so that the pool's mean bits and rounds
    /// move less than 1 % with the seed.
    pub pool: usize,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "engine-trivial-k16",
        why: "2 messages and ~340 bits per session, one in flight: admission, dispatch, runner hand-off and outcome emission are nearly all the latency, so engine changes show here and core/hash changes do not",
        driver: Driver::Singles,
        in_flight: 1,
        choice: ProtocolChoice::Trivial,
        spec: ProblemSpec { n: 1 << 16, k: 16 },
        pool: 1024,
    },
    Workload {
        name: "engine-tree-k256",
        why: "the paper's headline log*-round tree at n=2^30, one in flight: core rounds, hashing and codecs are most of the latency; the control for engine changes and the target for hash/codec changes",
        driver: Driver::Singles,
        in_flight: 1,
        choice: ProtocolChoice::TreeLogStar,
        spec: ProblemSpec { n: 1 << 30, k: 256 },
        pool: 512,
    },
    Workload {
        name: "engine-sqrt-k64-serial",
        why: "~84 strictly alternating hops with one session in flight and idle cores: latency is rounds x the parked-peer wake-up of the comm channel, the one place hop-cost changes show undiluted",
        driver: Driver::Singles,
        in_flight: 1,
        choice: ProtocolChoice::Sqrt,
        spec: ProblemSpec { n: 1 << 20, k: 64 },
        pool: 512,
    },
    Workload {
        name: "engine-stream-oneround-k32",
        why: "pair streams in blocks of 64 use the engine and runner differently (pair contexts, coin blocks, no per-session rendezvous): a change that helps singles and costs streams shows here only",
        driver: Driver::Stream,
        in_flight: 2,
        choice: ProtocolChoice::OneRound,
        spec: ProblemSpec { n: 1 << 18, k: 32 },
        pool: 4096,
    },
    Workload {
        name: "net-trivial-k16",
        why: "the same sessions, bits and single closed-loop caller as engine-trivial-k16 but over loopback TCP, so the difference between the two rows is the net layer: frames, syscalls, per-session threads",
        driver: Driver::Net,
        in_flight: 1,
        choice: ProtocolChoice::Trivial,
        spec: ProblemSpec { n: 1 << 16, k: 16 },
        pool: 1024,
    },
    Workload {
        name: "multiparty-m8-k32",
        why: "8-player average-case tournaments on the LinkSet mesh with 8 player threads per session: guards multiparty, core::topology and the mesh, and bypasses the pair runner entirely",
        driver: Driver::Multiparty { players: 8 },
        in_flight: 2,
        choice: ProtocolChoice::Tree(2),
        spec: ProblemSpec { n: 1 << 16, k: 32 },
        pool: 256,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What the program is asked to run: the generated request and nothing
/// else of the benchmark's state.
#[derive(Debug, Clone)]
pub enum Case {
    Pair(SessionRequest),
    Mesh(MultipartyRequest),
}

/// The exact cost the system reported for one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Report {
    Pair(CostReport),
    Mesh(NetworkReport),
}

impl Report {
    pub fn bits(&self) -> u64 {
        match self {
            Report::Pair(r) => r.total_bits(),
            Report::Mesh(r) => r.total_bits(),
        }
    }

    pub fn rounds(&self) -> u64 {
        match self {
            Report::Pair(r) => r.rounds,
            Report::Mesh(r) => r.rounds,
        }
    }

    pub fn messages(&self) -> u64 {
        match self {
            Report::Pair(r) => r.messages,
            Report::Mesh(r) => r.messages,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Entry {
    pub case: Case,
    /// `S ∩ T` (multiparty: `⋂ᵢ Sᵢ`), computed by the benchmark from the
    /// regenerated inputs, never by the program.
    pub truth: ElementSet,
    /// The cost the system reported when the screening pass ran this
    /// entry; every later run of the entry must report the same.
    pub report: Option<Report>,
}

/// The workload's seeded sessions. Session `id` runs entry
/// `live[id % live.len()]`.
#[derive(Debug, Clone)]
pub struct Pool {
    entries: Vec<Entry>,
    live: Vec<usize>,
}

impl Pool {
    /// Derives every session's seed — its sets and its coins — from
    /// `seed`: the same seed gives the same pool.
    pub fn generate(workload: &Workload, seed: u64) -> Pool {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let spec = workload.spec;
        let entries: Vec<Entry> = (0..workload.pool as u64)
            .map(|i| {
                let session_seed: u64 = rng.gen();
                match workload.driver {
                    Driver::Multiparty { players } => {
                        let mut req = MultipartyRequest::new(
                            i,
                            spec,
                            players,
                            MULTIPARTY_OVERLAP,
                            MultipartyChoice::AverageCase,
                        );
                        req.seed = session_seed;
                        let truth = req.ground_truth();
                        Entry {
                            case: Case::Mesh(req),
                            truth,
                            report: None,
                        }
                    }
                    _ => {
                        // Overlaps sweep 0..=k in a fixed cycle rather than
                        // at random: costs depend on the overlap, and an
                        // even mix keeps bits_per_session from moving
                        // with the seed more than the sets themselves do.
                        let overlap = (i % (spec.k + 1)) as usize;
                        let mut req = SessionRequest::new(i, spec, overlap);
                        req.seed = session_seed;
                        req.protocol = Some(workload.choice);
                        let truth = req.input_pair().ground_truth();
                        Entry {
                            case: Case::Pair(req),
                            truth,
                            report: None,
                        }
                    }
                }
            })
            .collect();
        let live = (0..entries.len()).collect();
        Pool { entries, live }
    }

    pub fn live(&self) -> usize {
        self.live.len()
    }

    pub fn entry(&self, id: u64) -> &Entry {
        &self.entries[self.live[(id % self.live.len() as u64) as usize]]
    }

    /// The pair request of session `id`, restamped with that id.
    ///
    /// # Panics
    ///
    /// Panics on a multiparty pool.
    pub fn pair(&self, id: u64) -> SessionRequest {
        match &self.entry(id).case {
            Case::Pair(req) => {
                let mut req = req.clone();
                req.id = id;
                req
            }
            Case::Mesh(_) => panic!("pair request asked of a multiparty pool"),
        }
    }

    /// The multiparty request of session `id`, restamped with that id.
    ///
    /// # Panics
    ///
    /// Panics on a pair pool.
    pub fn mesh(&self, id: u64) -> MultipartyRequest {
        match &self.entry(id).case {
            Case::Mesh(req) => {
                let mut req = req.clone();
                req.id = id;
                req
            }
            Case::Pair(_) => panic!("multiparty request asked of a pair pool"),
        }
    }

    /// Folds the screening pass in: `seen[i]` is what session `i` of one
    /// full pass over the pool produced. Entries whose outputs were right
    /// keep the report they settled with; the others leave the pool.
    /// Returns how many left.
    pub fn screen(&mut self, seen: Vec<(bool, Report)>) -> usize {
        assert_eq!(seen.len(), self.entries.len(), "one result per entry");
        self.live.clear();
        for (i, (ok, report)) in seen.into_iter().enumerate() {
            if ok {
                self.entries[i].report = Some(report);
                self.live.push(i);
            }
        }
        self.entries.len() - self.live.len()
    }

    /// Mean of `f` over the live entries' screened reports: exact for a
    /// seed, because the pool and every session in it are.
    pub fn mean_report(&self, f: impl Fn(&Report) -> u64) -> f64 {
        let total: u64 = self
            .live
            .iter()
            .filter_map(|&i| self.entries[i].report.as_ref())
            .map(&f)
            .sum();
        total as f64 / self.live.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_a_pure_function_of_the_seed() {
        let w = find("engine-trivial-k16").unwrap();
        let (a, b, c) = (
            Pool::generate(w, 7),
            Pool::generate(w, 7),
            Pool::generate(w, 8),
        );
        assert_eq!(a.pair(3), b.pair(3));
        assert_ne!(a.pair(3).seed, c.pair(3).seed);
        assert_eq!(a.pair(w.pool as u64 + 3).seed, a.pair(3).seed);
        assert_eq!(a.pair(w.pool as u64 + 3).id, w.pool as u64 + 3);
    }

    #[test]
    fn screening_drops_failed_entries_and_remaps_ids() {
        let w = find("multiparty-m8-k32").unwrap();
        let mut pool = Pool::generate(w, 1);
        let dropped_seed = pool.mesh(1).seed;
        let seen = (0..w.pool)
            .map(|i| {
                (
                    i != 1,
                    Report::Pair(CostReport {
                        bits_alice: i as u64,
                        ..Default::default()
                    }),
                )
            })
            .collect();
        assert_eq!(pool.screen(seen), 1);
        assert_eq!(pool.live(), w.pool - 1);
        assert_ne!(pool.mesh(1).seed, dropped_seed);
        assert_eq!(pool.entry(1).report.as_ref().map(Report::bits), Some(2));
    }

    #[test]
    fn workload_names_are_unique_and_requests_valid() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            let pool = Pool::generate(w, 42);
            match &pool.entry(0).case {
                Case::Pair(req) => req.validate().unwrap(),
                Case::Mesh(req) => req.validate().unwrap(),
            }
        }
    }
}
