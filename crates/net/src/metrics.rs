//! Network-plane metrics, following the `describe_engine_metrics`
//! convention: every series the transport emits gets a `# HELP` text so
//! the Prometheus exposition on `/metrics` is self-describing, and all
//! increments go through [`intersect_obs`] so they cost one relaxed
//! atomic load while no subscriber is installed.

use intersect_obs as obs;
use intersect_obs::metrics::labeled;

/// Registers `# HELP` texts for every metric the network plane emits.
/// No-op while no subscriber is installed.
pub(crate) fn describe_net_metrics() {
    for (name, help) in [
        (
            "net_connections_open",
            "Transport connections currently accepted and serving",
        ),
        (
            "net_connections_total",
            "Transport connections accepted since start",
        ),
        (
            "net_frames_total",
            "Wire frames moved by this process, by direction",
        ),
        (
            "net_frame_bytes_total",
            "Wire bytes moved by this process (length prefixes included), by direction",
        ),
        (
            "net_sessions_multiplexed",
            "Remote sessions opened over the transport",
        ),
        (
            "net_sessions_active",
            "Remote sessions currently executing on the server",
        ),
        (
            "net_sessions_rejected",
            "Remote session opens refused (malformed, draining, or at capacity)",
        ),
        (
            "net_client_segment_micros",
            "Client-side remote-session latency by waterfall segment (open-wait, rounds-execute, drain)",
        ),
        // The m-party families the server emits when it hosts a mesh
        // for a remote player. Help texts match `describe_engine_metrics`
        // exactly — the transport and engine paths feed one family each.
        (
            "multiparty_sessions_total",
            "Engine-hosted m-party sessions finished, labeled by party count m",
        ),
        (
            "multiparty_bits_total",
            "Total bits on the wire across engine-hosted m-party sessions",
        ),
        (
            "multiparty_player_bits",
            "Per-player bits (sent + received) per m-party session",
        ),
    ] {
        obs::describe(name, help);
    }
}

/// Records one frame crossing the process boundary in direction `dir`
/// (`"tx"` or `"rx"`), `bytes` long on the wire.
pub(crate) fn frame_observed(dir: &str, bytes: u64) {
    // Building the labelled series names allocates; skip it while no
    // subscriber would receive the increments.
    if !obs::enabled() {
        return;
    }
    obs::counter_add(&labeled("net_frames_total", &[("dir", dir)]), 1);
    obs::counter_add(&labeled("net_frame_bytes_total", &[("dir", dir)]), bytes);
}

/// Records a connection opening (`+1`) or closing (`-1`).
pub(crate) fn connection_delta(d: i64) {
    obs::gauge_add("net_connections_open", d);
    if d > 0 {
        obs::counter_add("net_connections_total", d as u64);
    }
}

/// Records one remote session admitted onto a connection.
pub(crate) fn session_opened() {
    obs::counter_add("net_sessions_multiplexed", 1);
    obs::gauge_add("net_sessions_active", 1);
}

/// Records one remote session leaving the active set.
pub(crate) fn session_closed() {
    obs::gauge_add("net_sessions_active", -1);
}

/// Records one refused session open.
pub(crate) fn session_rejected() {
    obs::counter_add("net_sessions_rejected", 1);
}
