//! `intersect-top`: a zero-dependency live ops view of the telemetry
//! plane.
//!
//! The scrape server made the engine observable; this module is the
//! operator's window on it: a terminal dashboard polling `/metrics`,
//! `/sessions`, `/version`, and `/healthz` and rendering
//! throughput/latency sparklines, per-protocol envelope health and
//! plan-cache hit rates.
//!
//! The design splits three layers so the interesting one is testable
//! without a terminal or a server:
//!
//! - [`scrape`] — fetches one [`Sample`](scrape::Sample) per tick over
//!   plain HTTP (the same zero-dependency `http_get` the smoke tests
//!   use); a sample can equally be built from captured bodies, which is
//!   how fixtures work;
//! - [`state`] — [`AppState`](state::AppState) plus a pure
//!   [`reduce`](state::AppState::reduce) folding each sample into
//!   history rings and derived rates (an Elm-style update function);
//! - [`render`] — a pure `AppState → String` frame renderer, pinned by
//!   a golden-frame test; the binary only adds the ANSI alt-screen and
//!   the poll loop around it.

pub mod render;
pub mod scrape;
pub mod state;

pub use render::render;
pub use scrape::Sample;
pub use state::AppState;
