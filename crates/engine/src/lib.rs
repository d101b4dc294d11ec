//! # intersect-engine
//!
//! A concurrent session engine that serves intersection protocols at
//! scale: many two-party `INT_k` sessions multiplexed over a bounded
//! worker pool, with adaptive protocol routing, admission control, and
//! engine-wide cost accounting.
//!
//! The single-session story lives in `intersect-core` (the protocol
//! catalogue) and `intersect-comm` (the metered transport and
//! [`run_two_party`](intersect_comm::runner::run_two_party) executor).
//! This crate answers the operational question on top of them: *what
//! does it take to serve thousands of such sessions?* Four pieces:
//!
//! - [`SessionRequest`] — a one-line description of a session (universe,
//!   cardinality bound, set size, overlap, seed) from which the exact
//!   inputs are regenerated deterministically;
//! - [`route`] / [`RoutePolicy`] — picks a protocol per session from the
//!   catalogue using the cost model each protocol derives in
//!   `intersect_core`,
//!   with engine-wide and per-request overrides;
//! - [`Engine`] — the scheduler: a bounded admission queue (full ⇒
//!   [`SubmitError::Rejected`]), a dispatcher that caps sessions in
//!   flight, and a pool of workers each running *half* a session at a
//!   time (see `scheduler` module docs for the deadlock-freedom
//!   argument);
//! - [`EngineSnapshot`] — aggregated metrics (bits, rounds histogram,
//!   per-protocol tallies, latency percentiles), renderable as markdown
//!   or JSON.
//!
//! The engine's defining invariant: a session served by the pool is
//! **bit-for-bit identical** to the same request served by a dedicated
//! [`execute`](intersect_core::api::execute) call — same inputs, same
//! coins, same transcript, same [`CostReport`](intersect_comm::stats::CostReport).
//!
//! # Examples
//!
//! ```
//! use intersect_core::sets::ProblemSpec;
//! use intersect_engine::prelude::*;
//!
//! let engine = Engine::start(EngineConfig::new(4));
//! for id in 0..10 {
//!     engine.submit(SessionRequest::new(id, ProblemSpec::new(1 << 18, 32), 8))?;
//! }
//! let report = engine.finish();
//! assert!(report.outcomes.iter().all(|o| o.succeeded()));
//! println!("{}", report.snapshot.to_markdown());
//! # Ok::<(), intersect_engine::SubmitError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod multiparty;
pub mod pair_context;
pub mod plan_cache;
pub mod registry;
pub mod request;
pub mod router;
pub mod scheduler;
pub mod timeline;

pub use multiparty::{MultipartyRequest, MultipartySessionOutcome};
pub use pair_context::{PairContextCache, PairContextStats};
pub use plan_cache::{PlanCache, PlanCacheStats};
pub use registry::{
    EngineMetrics, EngineSnapshot, EngineWatch, LatencySummary, ProtocolTally, SessionSummary,
};
pub use request::SessionRequest;
pub use router::{route, theory_envelope, RoutePolicy};
pub use scheduler::{Engine, EngineConfig, EngineReport, SessionOutcome, StreamId, SubmitError};
pub use timeline::SessionTimeline;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::multiparty::{MultipartyRequest, MultipartySessionOutcome};
    pub use crate::pair_context::{PairContextCache, PairContextStats};
    pub use crate::plan_cache::{PlanCache, PlanCacheStats};
    pub use crate::registry::{EngineMetrics, EngineSnapshot, EngineWatch, LatencySummary};
    pub use crate::request::SessionRequest;
    pub use crate::router::{route, theory_envelope, RoutePolicy};
    pub use crate::scheduler::{
        Engine, EngineConfig, EngineReport, SessionOutcome, StreamId, SubmitError,
    };
    pub use crate::timeline::SessionTimeline;
    pub use intersect_multiparty::choice::MultipartyChoice;
}
