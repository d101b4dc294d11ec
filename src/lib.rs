//! # intersect
//!
//! A production-quality Rust implementation of the set-intersection
//! protocols of Brody, Chakrabarti, Kondapally, Woodruff, and Yaroslavtsev,
//! *Beyond Set Disjointness: The Communication Complexity of Finding the
//! Intersection* (PODC 2014).
//!
//! Two servers hold sets `S, T ⊆ [n]` of at most `k` elements and want to
//! compute `S ∩ T` exactly — the primitive underlying distributed joins,
//! duplicate detection, exact Jaccard similarity, and more. The naive
//! exchange costs `O(k·log(n/k))` bits; this crate implements the paper's
//! protocols that do it in `O(k)` bits and `O(log* k)` messages, the full
//! round/communication trade-off `O(k·log^{(r)} k)` in `O(r)` rounds, and
//! the `m`-player extensions — all over a bit-exact communication-cost
//! simulator, with the baselines the paper compares against.
//!
//! This is a facade crate: it re-exports the workspace members.
//!
//! * [`comm`] — the metered communication substrate.
//! * [`hash`] — hash families with transmittable seeds, and the \[FKS84\]
//!   mod-prime universe reduction.
//! * [`core`] — the protocols (see [`core::tree`] for the headline result).
//! * [`multiparty`] — the message-passing-model extensions.
//! * [`apps`] — joins, similarity statistics, duplicate detection.
//! * [`engine`] — the concurrent session engine (scheduler, router,
//!   aggregate metrics; see the `intersect-serve` binary).
//! * [`net`] — the framed network transport plane (remote sessions over
//!   TCP/Unix sockets, bit-identical to in-process runs).
//! * [`obs`] — structured tracing and metrics across all of the above
//!   (spans carrying bit/round deltas, streaming histograms, exporters).
//!
//! # Examples
//!
//! ```
//! use intersect::prelude::*;
//! use rand::SeedableRng;
//!
//! // |S|, |T| ≤ 1024 drawn from a 2^40 universe.
//! let spec = ProblemSpec::new(1 << 40, 1024);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let pair = InputPair::random_with_overlap(&mut rng, spec, 1024, 300);
//!
//! // O(k) bits, O(log* k) messages.
//! let protocol = TreeProtocol::log_star(spec.k);
//! let run = execute(&protocol, spec, &pair, 42)?;
//! assert!(run.matches(&pair.ground_truth()));
//! assert!(run.report.total_bits() < 60 * 1024); // ≈ 40 bits per element
//! # Ok::<(), intersect::comm::error::ProtocolError>(())
//! ```

#![warn(missing_docs)]

pub mod tui;
pub mod version;

pub use intersect_apps as apps;
pub use intersect_comm as comm;
pub use intersect_core as core;
pub use intersect_engine as engine;
pub use intersect_multiparty as multiparty;
pub use intersect_net as net;
pub use intersect_obs as obs;

/// Re-export of the hashing substrate.
pub use intersect_hash as hash;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use intersect_apps::{DedupProtocol, JoinProtocol, SimilarityProtocol};
    pub use intersect_comm::prelude::*;
    pub use intersect_core::prelude::*;
    pub use intersect_engine::prelude::*;
    pub use intersect_multiparty::{AverageCase, WorstCase};
}
