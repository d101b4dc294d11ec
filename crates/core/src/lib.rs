//! # intersect-core
//!
//! Protocols for distributed set intersection, reproducing
//! Brody–Chakrabarti–Kondapally–Woodruff–Yaroslavtsev, *Beyond Set
//! Disjointness: The Communication Complexity of Finding the Intersection*
//! (PODC 2014).
//!
//! Two players hold sets `S, T ⊆ [n]` with `|S|, |T| ≤ k` and want both to
//! output `S ∩ T`. The crate provides:
//!
//! | Module | Paper artifact | Bound |
//! |---|---|---|
//! | [`trivial`] | intro | deterministic, 1 exchange, `O(k log(n/k))` bits |
//! | [`one_round`] | intro | randomized, 1 round, `O(k log k)` bits |
//! | [`basic`] | Lemma 3.3 | `Basic-Intersection`, ≤ 4 messages |
//! | [`equality`] | Fact 3.5 | 2-round equality test, error `2^{-b}`, `O(b)` bits |
//! | [`fknn`] | Theorem 3.2 | amortized `EQ^n_k`: `O(k)` bits, `O(√k)` rounds |
//! | [`sqrt`] | Theorem 3.1 | `O(k)` bits, `O(√k)` rounds |
//! | [`tree`] | **Theorem 1.1** | `O(k·log^{(r)} k)` bits, `≤ 6r` rounds |
//! | [`tree_pipelined`] | open problem (§ concl.) | same cost in `2r + 1` messages |
//! | [`hw07`] | \[HW07\] baseline | disjointness, `O(k)` bits, `O(log k)` rounds |
//! | [`st13`] | \[ST13\] baseline | disjointness, `O(k·log^{(r)} k)` bits, `r` rounds |
//! | [`newman`] | §3.1 | constructive private coins, `+O(log k + log log n)` bits |
//! | [`amplify`] | §4 | success `1 − 2^{-k}` by repeat-until-certified |
//! | [`reduction`] | Fact 2.1 | `EQ^n_k` via any intersection protocol |
//! | [`reconcile`] | baseline (post-paper practice) | IBLT set reconciliation: `O(d·log n)` for difference `d` |
//! | [`prepared`] | — | two-phase plans: parameter derivation split from execution |
//! | [`api`] | — | object-safe traits, catalogue, executor |
//!
//! # Examples
//!
//! The headline result — `O(k)` bits in `O(log* k)` rounds:
//!
//! ```
//! use intersect_core::prelude::*;
//! use rand::SeedableRng;
//!
//! let spec = ProblemSpec::new(1 << 30, 64); // |S|,|T| ≤ 64 from [2^30]
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let pair = InputPair::random_with_overlap(&mut rng, spec, 64, 20);
//!
//! let protocol = TreeProtocol::log_star(spec.k);
//! let run = execute(&protocol, spec, &pair, 42)?;
//! assert!(run.matches(&pair.ground_truth()));
//! println!(
//!     "recovered {} common elements in {} bits, {} rounds",
//!     run.alice.len(),
//!     run.report.total_bits(),
//!     run.report.rounds,
//! );
//! # Ok::<(), intersect_comm::error::ProtocolError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod amplify;
pub mod api;
pub mod basic;
pub mod cost;
pub mod equality;
pub mod fknn;
pub mod hw07;
pub mod iterlog;
pub mod newman;
pub mod one_round;
pub mod prepared;
pub mod reconcile;
pub mod reduction;
pub mod sets;
pub mod sqrt;
pub mod st13;
pub mod topology;
pub mod tree;
pub mod tree_pipelined;
pub mod trivial;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::amplify::Amplified;
    pub use crate::api::{
        execute, DisjointnessViaIntersection, IntersectionRun, ProtocolChoice, SetDisjointness,
        SetIntersection,
    };
    pub use crate::basic::BasicIntersection;
    pub use crate::cost::PredictedCost;
    pub use crate::equality::EqualityTest;
    pub use crate::fknn::AmortizedEquality;
    pub use crate::hw07::HwDisjointness;
    pub use crate::iterlog::{iter_log, log_star};
    pub use crate::newman::PrivateCoin;
    pub use crate::one_round::OneRoundHash;
    pub use crate::prepared::{
        execute_prepared, execute_prepared_batch, execute_prepared_stream, PairContext,
        PreparedProtocol, SessionCtx,
    };
    pub use crate::reconcile::IbltReconcile;
    pub use crate::sets::{ElementSet, InputPair, ProblemSpec};
    pub use crate::sqrt::SqrtProtocol;
    pub use crate::st13::SparseDisjointness;
    pub use crate::topology::{PartyTopology, PreparedTournament, SessionShape, TournamentKind};
    pub use crate::tree::TreeProtocol;
    pub use crate::tree_pipelined::PipelinedTree;
    pub use crate::trivial::TrivialExchange;
}
