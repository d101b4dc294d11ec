//! Adaptive protocol routing.
//!
//! Each admitted session is assigned a protocol from the catalogue in
//! `intersect_core::api`. By default the router ranks every candidate by
//! the cost model each protocol derives from its own parameters
//! ([`PredictedCost`]) and picks the cheapest under a configurable
//! bits-per-round trade-off; operators can pin a single protocol
//! engine-wide, and any request can override the router per session.

use crate::request::SessionRequest;
use intersect_core::api::ProtocolChoice;
use intersect_core::sets::ProblemSpec;
use intersect_obs::conformance::{ConformanceConfig, Envelope};
use std::sync::LazyLock;

#[cfg(doc)]
use intersect_core::prelude::PredictedCost;

/// How the engine picks a protocol for requests that do not name one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutePolicy {
    /// Rank the catalogue by [`PredictedCost::score`] and take the argmin.
    /// `round_penalty` is the number of extra bits the operator would pay
    /// to save one round; 0 ranks by bits alone.
    Auto {
        /// Bits-per-round toll fed to [`PredictedCost::score`].
        round_penalty: f64,
    },
    /// Serve every session with this protocol (manual override knob).
    Fixed(ProtocolChoice),
}

impl Default for RoutePolicy {
    /// Bit-optimal routing: rank candidates by predicted bits alone.
    fn default() -> Self {
        RoutePolicy::Auto { round_penalty: 0.0 }
    }
}

/// Deepest tree round budget the auto-router will consider. `log* k` for
/// any feasible `k` is at most 5, so budget 4 plus the explicit
/// [`ProtocolChoice::TreeLogStar`] entry covers the whole useful range.
pub const MAX_TREE_ROUNDS: u32 = 4;

/// Resolves a request to the protocol that will serve it.
///
/// Precedence: the request's own `protocol` field, then a
/// [`RoutePolicy::Fixed`] pin, then the cost-model argmin. The session's
/// declared overlap is forwarded to the model so difference-proportional
/// protocols are priced fairly.
///
/// # Examples
///
/// ```
/// use intersect_core::api::ProtocolChoice;
/// use intersect_core::sets::ProblemSpec;
/// use intersect_engine::{route, RoutePolicy, SessionRequest};
///
/// // Nearly identical sets: reconciliation beats everything.
/// let spec = ProblemSpec::new(1 << 30, 1024);
/// let warm = SessionRequest::new(1, spec, 1020);
/// assert_eq!(route(&warm, RoutePolicy::default()), ProtocolChoice::IbltReconcile);
///
/// // A per-request override always wins.
/// let mut pinned = warm.clone();
/// pinned.protocol = Some(ProtocolChoice::Trivial);
/// assert_eq!(route(&pinned, RoutePolicy::default()), ProtocolChoice::Trivial);
/// ```
pub fn route(request: &SessionRequest, policy: RoutePolicy) -> ProtocolChoice {
    if let Some(choice) = request.protocol {
        return choice;
    }
    let round_penalty = match policy {
        RoutePolicy::Fixed(choice) => return choice,
        RoutePolicy::Auto { round_penalty } => round_penalty,
    };
    let overlap = Some(request.overlap as u64);
    CANDIDATES
        .iter()
        .map(|&choice| {
            let score = choice
                .predicted_cost(request.spec, overlap)
                .score(round_penalty);
            (choice, score)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(choice, _)| choice)
        .expect("catalogue is never empty")
}

/// The auto-router's catalogue, built once so ranking allocates nothing.
static CANDIDATES: LazyLock<Vec<ProtocolChoice>> =
    LazyLock::new(|| ProtocolChoice::all(MAX_TREE_ROUNDS));

/// Additive bits floor on every envelope. The slack is multiplicative,
/// so tiny predictions leave no room for a session's luck — an IBLT
/// whose first table fails to peel doubles a few hundred bits. One
/// kilobit covers that without meaningfully loosening any envelope the
/// model prices in the thousands of bits.
const ENVELOPE_FLOOR_BITS: u64 = 1024;

/// Additive rounds floor on every envelope (request/response framing).
const ENVELOPE_FLOOR_ROUNDS: u64 = 2;

/// Derives the theoretical envelope for one session: the
/// cost model's prediction ([`PredictedCost`]) times the configured
/// slack, plus the additive floors above so tiny instances (where fixed
/// framing costs dominate) don't flap.
///
/// The conformance monitor checks every completed session's
/// `CostReport` against this envelope; at default slack a violation
/// means the implementation has drifted from the paper's bounds, not
/// that the model was coarse.
pub fn theory_envelope(
    choice: ProtocolChoice,
    protocol_name: &str,
    spec: ProblemSpec,
    overlap: Option<u64>,
    config: ConformanceConfig,
) -> Envelope {
    let predicted = choice.predicted_cost(spec, overlap);
    Envelope {
        protocol: protocol_name.to_string(),
        max_bits: (predicted.bits * config.bits_slack).ceil() as u64 + ENVELOPE_FLOOR_BITS,
        max_rounds: (predicted.rounds * config.rounds_slack).ceil() as u64 + ENVELOPE_FLOOR_ROUNDS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_pins_the_protocol() {
        let req = SessionRequest::new(1, ProblemSpec::new(1 << 20, 64), 0);
        let got = route(&req, RoutePolicy::Fixed(ProtocolChoice::Basic));
        assert_eq!(got, ProtocolChoice::Basic);
    }

    #[test]
    fn request_override_beats_fixed_policy() {
        let mut req = SessionRequest::new(1, ProblemSpec::new(1 << 20, 64), 0);
        req.protocol = Some(ProtocolChoice::Sqrt);
        let got = route(&req, RoutePolicy::Fixed(ProtocolChoice::Basic));
        assert_eq!(got, ProtocolChoice::Sqrt);
    }

    #[test]
    fn envelope_scales_with_slack_and_keeps_the_floor() {
        let spec = ProblemSpec::new(1 << 20, 256);
        let tight = theory_envelope(
            ProtocolChoice::Sqrt,
            "sqrt-fknn",
            spec,
            Some(0),
            ConformanceConfig::with_slack(1.0),
        );
        let loose = theory_envelope(
            ProtocolChoice::Sqrt,
            "sqrt-fknn",
            spec,
            Some(0),
            ConformanceConfig::with_slack(2.0),
        );
        assert_eq!(tight.protocol, "sqrt-fknn");
        // Doubling the slack doubles the model term (up to ceil rounding);
        // the additive floors are constant.
        let doubled = 2 * (tight.max_bits - ENVELOPE_FLOOR_BITS);
        assert!(loose.max_bits - ENVELOPE_FLOOR_BITS >= doubled.saturating_sub(2));
        assert!(loose.max_bits - ENVELOPE_FLOOR_BITS <= doubled);
        assert!(loose.max_rounds >= tight.max_rounds);
        assert!(
            tight.max_bits > 2 * ENVELOPE_FLOOR_BITS,
            "model term must dominate the floor"
        );

        // Zero slack leaves only the floor: the deliberate-violation knob.
        let zero = theory_envelope(
            ProtocolChoice::Sqrt,
            "sqrt-fknn",
            spec,
            Some(0),
            ConformanceConfig::with_slack(0.0),
        );
        assert_eq!(zero.max_bits, ENVELOPE_FLOOR_BITS);
        assert_eq!(zero.max_rounds, ENVELOPE_FLOOR_ROUNDS);
    }

    #[test]
    fn auto_routing_adapts_to_the_workload_shape() {
        // Large disjoint sets: the O(k)-bit bucketed protocol wins on bits.
        let big = SessionRequest::new(1, ProblemSpec::new(1 << 30, 1 << 12), 0);
        assert_eq!(
            route(&big, RoutePolicy::default()),
            ProtocolChoice::Sqrt,
            "bit-optimal routing should pick the Θ(k)-bit protocol"
        );

        // Same shape under a stiff round toll: √k rounds become untenable.
        let lan = route(
            &big,
            RoutePolicy::Auto {
                round_penalty: 1000.0,
            },
        );
        assert_ne!(lan, ProtocolChoice::Sqrt);

        // Nearly identical sets: difference-proportional reconciliation wins.
        let warm = SessionRequest::new(2, ProblemSpec::new(1 << 30, 1 << 12), (1 << 12) - 4);
        assert_eq!(
            route(&warm, RoutePolicy::default()),
            ProtocolChoice::IbltReconcile
        );
    }
}
