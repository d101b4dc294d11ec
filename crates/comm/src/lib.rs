//! # intersect-comm
//!
//! The communication substrate for the `intersect` project: everything
//! needed to *execute* and *meter* two-party and multi-party communication
//! protocols at bit granularity.
//!
//! The paper this project reproduces — Brody, Chakrabarti, Kondapally,
//! Woodruff, Yaroslavtsev, *Beyond Set Disjointness: The Communication
//! Complexity of Finding the Intersection* (PODC 2014) — states its results
//! in the classical two-party model of Yao and the message-passing model of
//! \[BEO+13\]. This crate realizes those models executably:
//!
//! * [`bits`] — [`bits::BitBuf`], the bit-exact message payload.
//! * [`encode`] — universal integer codes and optimal subset codes.
//! * [`bignat`] — big naturals backing the optimal binomial subset code.
//! * [`coins`] — the common random string, as a forkable deterministic
//!   coin source that parties consume without communicating.
//! * [`chan`] / [`runner`] — two-party channels and the protocol runner.
//! * [`net`] — the `m`-player message-passing network.
//! * [`stats`] — bit/message/round accounting, with rounds measured as the
//!   longest causal chain of messages.
//! * [`trace`] — transcript recording for protocol inspection.
//!
//! # Examples
//!
//! Run a toy protocol and read off its exact cost:
//!
//! ```
//! use intersect_comm::prelude::*;
//!
//! let out = run_two_party(
//!     &RunConfig::with_seed(1),
//!     |chan, _coins| {
//!         let mut m = BitBuf::new();
//!         m.push_bits(5, 3);
//!         chan.send(m)?;
//!         Ok(())
//!     },
//!     |chan, _coins| Ok(chan.recv()?.reader().read_bits(3)?),
//! )?;
//! assert_eq!(out.bob, 5);
//! assert_eq!(out.report.total_bits(), 3);
//! assert_eq!(out.report.rounds, 1);
//! # Ok::<(), intersect_comm::error::ProtocolError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bignat;
pub mod bits;
pub mod chan;
pub mod coins;
pub mod encode;
pub mod error;
pub mod net;
pub mod pool;
pub mod runner;
pub mod stats;
pub mod trace;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::bits::{bit_width_for, BitBuf, BitReader, INLINE_BITS};
    pub use crate::chan::{Chan, Endpoint};
    pub use crate::coins::CoinSource;
    pub use crate::error::{CodecError, ProtocolError};
    pub use crate::net::{run_network, NetOutcome, NetworkConfig, PlayerCtx};
    pub use crate::pool::SpillPool;
    pub use crate::runner::{
        assemble_report, run_two_party, RunConfig, RunOutcome, SessionParts, SessionRunner, Side,
    };
    pub use crate::stats::{ChannelStats, CostReport, NetworkReport};
}
