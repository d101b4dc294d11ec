//! # intersect-net
//!
//! The framed network transport plane: intersection sessions over real
//! sockets, with the exact bit accounting of the in-process substrate.
//!
//! Everything above this crate is written against the
//! [`Chan`](intersect_comm::chan::Chan) trait, whose in-process
//! implementation meters every payload bit and maintains a causal round
//! clock. This crate adds the missing production half: a
//! length-prefixed wire protocol ([`frame`]) carrying
//! [`BitBuf`](intersect_comm::bits::BitBuf) payloads with their exact
//! bit lengths plus session-multiplexing headers, a [`server`] that
//! demultiplexes many concurrent sessions per connection onto the
//! engine's router and plan cache, and a [`client`] exposing the same
//! session API against a remote endpoint.
//!
//! The design invariant, proven by experiment E21 and the integration
//! tests: **a remote session's transcript and
//! [`CostReport`](intersect_comm::stats::CostReport) are bit-identical
//! to the same session run in process.** Only
//! [`WireFrame::Msg`](frame::WireFrame::Msg) payload bits are metered;
//! framing (length prefixes, session ids, depth tags) and control
//! frames (Open/Accept/Fin/Done/Error/Goodbye) are transport overhead,
//! accounted separately in the `net_*` metrics ([`metrics`]).
//!
//! # Example
//!
//! ```
//! use intersect_net::prelude::*;
//! use intersect_core::sets::ProblemSpec;
//! use intersect_engine::SessionRequest;
//!
//! let mut server = NetServer::start(NetServerConfig::new(
//!     EndpointAddr::parse("tcp:127.0.0.1:0")?,
//! ))?;
//! let client = NetClient::connect(&server.local_addr().to_string())?;
//!
//! let req = SessionRequest::new(1, ProblemSpec::new(1 << 16, 16), 5);
//! let run = client.run(&req).expect("remote session");
//! assert!(run.matches(&req.input_pair().ground_truth()));
//!
//! drop(client);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod metrics;
pub mod server;
pub mod transport;

mod chan;
mod mux;

/// The commonly used surface of the transport plane.
pub mod prelude {
    pub use crate::client::{ClientTimeline, NetClient, RemoteMultipartyRun, RemoteRun};
    pub use crate::frame::{WireFrame, MAX_BODY_BYTES};
    pub use crate::metrics::describe_net_metrics;
    pub use crate::server::{NetServer, NetServerConfig, NetSummary};
    pub use crate::transport::EndpointAddr;
}

pub use client::{ClientTimeline, NetClient, RemoteMultipartyRun, RemoteRun};
pub use server::{NetServer, NetServerConfig, NetSummary};
pub use transport::EndpointAddr;
