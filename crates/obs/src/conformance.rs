//! Online theory-conformance monitoring.
//!
//! The paper's results are *envelopes* — `O(k)` bits in `O(log* k)`
//! rounds, `O(k·log^{(r)} k)` bits within `O(r)` rounds — and the
//! repository's cost model turns each of them into concrete
//! per-session limits. This module checks live traffic against those
//! limits continuously instead of only in batch experiments:
//!
//! - an [`Envelope`] is the predicted limit for one session (computed
//!   upstream, where the cost model lives — this crate stays
//!   dependency-free and checks numbers it is handed);
//! - a [`ConformanceMonitor`] folds every completed session's observed
//!   bits and rounds against its envelope, tallies [`Violation`]s,
//!   increments `conformance_checks_total` and
//!   `conformance_violations_total{protocol,bound}` on the installed
//!   metrics registry, emits a `conformance` instant event per
//!   violation, and flips its shared [`Health`] to degraded;
//! - [`Health`] is what `/healthz` serves: `ok` until the first
//!   violation, degraded after.
//!
//! The monitor never changes what the protocols do — like the rest of
//! the crate it only observes — but it turns "does the implementation
//! still match the theorems" into a scrapeable production signal.

use crate::metrics::labeled;
use crate::subscriber;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many individual [`Violation`] records the monitor retains for
/// reporting; the *counts* keep growing past this cap.
const KEPT_VIOLATIONS: usize = 256;

/// Slack factors applied on top of the cost model when deriving an
/// [`Envelope`]. The model derives each protocol's expected cost from
/// its parameters and lands within 15 % of measured bits on average
/// inputs; the defaults leave room for a single session's luck, so a
/// violation at default slack means the implementation drifted from the
/// theory, not that the model was coarse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConformanceConfig {
    /// Multiplier on predicted bits.
    pub bits_slack: f64,
    /// Multiplier on predicted rounds.
    pub rounds_slack: f64,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        ConformanceConfig {
            bits_slack: 3.0,
            rounds_slack: 4.0,
        }
    }
}

impl ConformanceConfig {
    /// A configuration applying the same slack factor to both bounds —
    /// the operator-facing single knob (`--slack`).
    pub fn with_slack(slack: f64) -> Self {
        ConformanceConfig {
            bits_slack: slack,
            rounds_slack: slack,
        }
    }
}

/// The theoretical limit for one session: the cost model's
/// prediction times the configured slack (plus a small additive floor,
/// applied by the producer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Display name of the protocol the limits were derived for.
    pub protocol: String,
    /// Maximum admissible total bits on the wire.
    pub max_bits: u64,
    /// Maximum admissible round complexity.
    pub max_rounds: u64,
}

/// Which theoretical bound a violation breached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bound {
    /// The communication (total bits) envelope.
    Bits,
    /// The round-complexity envelope.
    Rounds,
}

impl Bound {
    /// A stable lowercase label (used as the `bound` metric label).
    pub fn label(self) -> &'static str {
        match self {
            Bound::Bits => "bits",
            Bound::Rounds => "rounds",
        }
    }
}

/// One observed breach of a session's envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Protocol whose envelope was breached.
    pub protocol: String,
    /// Which bound was breached.
    pub bound: Bound,
    /// The observed value.
    pub observed: u64,
    /// The envelope limit it exceeded.
    pub limit: u64,
}

/// A settled summary of everything a monitor saw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConformanceReport {
    /// Sessions checked.
    pub checked: u64,
    /// Total violations (every breach counts, even past the retention
    /// cap).
    pub violation_count: u64,
    /// The first `KEPT_VIOLATIONS` individual violations.
    pub violations: Vec<Violation>,
}

impl ConformanceReport {
    /// `true` when every checked session stayed inside its envelope.
    pub fn all_conformant(&self) -> bool {
        self.violation_count == 0
    }
}

/// Shared liveness/health state: `ok` until the first conformance
/// violation, degraded afterwards. The telemetry plane's `/healthz`
/// endpoint serves it.
#[derive(Debug, Default)]
pub struct Health {
    violations: AtomicU64,
}

impl Health {
    /// `true` while no violation has been recorded.
    pub fn ok(&self) -> bool {
        self.violations() == 0
    }

    /// Number of violations recorded so far.
    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::Relaxed)
    }

    /// Records `n` violations (flips [`ok`](Health::ok) to false).
    pub(crate) fn record_violations(&self, n: u64) {
        self.violations.fetch_add(n, Ordering::Relaxed);
    }
}

/// The online monitor: hand it each completed session's envelope and
/// observed cost; it keeps score.
///
/// # Examples
///
/// ```
/// use intersect_obs::conformance::{ConformanceMonitor, Envelope};
///
/// let monitor = ConformanceMonitor::new();
/// let envelope = Envelope { protocol: "sqrt".into(), max_bits: 1000, max_rounds: 50 };
/// assert_eq!(monitor.check(&envelope, 800, 40), 0);
/// assert_eq!(monitor.check(&envelope, 1200, 40), 1); // bits breached
/// let report = monitor.report();
/// assert_eq!(report.checked, 2);
/// assert_eq!(report.violation_count, 1);
/// assert!(!monitor.health().ok());
/// ```
#[derive(Debug, Default)]
pub struct ConformanceMonitor {
    health: Arc<Health>,
    inner: Mutex<ConformanceReport>,
}

impl ConformanceMonitor {
    /// A fresh monitor with healthy state.
    pub fn new() -> Self {
        ConformanceMonitor::default()
    }

    /// The shared health flag (`/healthz` keeps a clone).
    pub fn health(&self) -> Arc<Health> {
        Arc::clone(&self.health)
    }

    /// Checks one completed session against its envelope. Returns the
    /// number of bounds breached (0, 1, or 2); each breach is tallied,
    /// counted on the installed metrics registry, logged as a
    /// `conformance` instant event, and flips [`Health`] to degraded.
    pub fn check(&self, envelope: &Envelope, observed_bits: u64, observed_rounds: u64) -> usize {
        subscriber::counter_add("conformance_checks_total", 1);
        let mut breached = Vec::new();
        if observed_bits > envelope.max_bits {
            breached.push((Bound::Bits, observed_bits, envelope.max_bits));
        }
        if observed_rounds > envelope.max_rounds {
            breached.push((Bound::Rounds, observed_rounds, envelope.max_rounds));
        }
        let mut inner = self.inner.lock().expect("conformance monitor poisoned");
        inner.checked += 1;
        for &(bound, observed, limit) in &breached {
            inner.violation_count += 1;
            if inner.violations.len() < KEPT_VIOLATIONS {
                inner.violations.push(Violation {
                    protocol: envelope.protocol.clone(),
                    bound,
                    observed,
                    limit,
                });
            }
            subscriber::counter_add(
                &labeled(
                    "conformance_violations_total",
                    &[("protocol", &envelope.protocol), ("bound", bound.label())],
                ),
                1,
            );
            subscriber::instant(
                "conformance",
                format!(
                    "violation protocol={} bound={} observed={observed} limit={limit}",
                    envelope.protocol,
                    bound.label()
                ),
            );
        }
        drop(inner);
        for &(_, observed, limit) in &breached {
            crate::flight::record(crate::flight::CODE_CONFORMANCE, 0, observed, limit);
        }
        if !breached.is_empty() {
            self.health.record_violations(breached.len() as u64);
        }
        breached.len()
    }

    /// A copy of the running tally.
    pub fn report(&self) -> ConformanceReport {
        self.inner
            .lock()
            .expect("conformance monitor poisoned")
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscriber::Subscriber;
    use std::sync::MutexGuard;

    /// Every `check` counts on whichever subscriber is installed in the
    /// process, so a test that reads that counter and the tests that bump
    /// it run one at a time.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

    fn one_at_a_time() -> MutexGuard<'static, ()> {
        ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn envelope() -> Envelope {
        Envelope {
            protocol: "tree(r=2)".into(),
            max_bits: 500,
            max_rounds: 12,
        }
    }

    #[test]
    fn conforming_sessions_leave_health_ok() {
        let _guard = one_at_a_time();
        let m = ConformanceMonitor::new();
        for _ in 0..10 {
            assert_eq!(m.check(&envelope(), 499, 12), 0);
        }
        let report = m.report();
        assert_eq!(report.checked, 10);
        assert!(report.all_conformant());
        assert!(m.health().ok());
    }

    #[test]
    fn each_breached_bound_counts_separately() {
        let _guard = one_at_a_time();
        let m = ConformanceMonitor::new();
        assert_eq!(m.check(&envelope(), 501, 13), 2);
        assert_eq!(m.check(&envelope(), 501, 1), 1);
        let report = m.report();
        assert_eq!(report.checked, 2);
        assert_eq!(report.violation_count, 3);
        assert_eq!(report.violations[0].bound, Bound::Bits);
        assert_eq!(report.violations[0].observed, 501);
        assert_eq!(report.violations[0].limit, 500);
        assert_eq!(report.violations[1].bound, Bound::Rounds);
        assert_eq!(m.health().violations(), 3);
        assert!(!m.health().ok());
    }

    #[test]
    fn violations_reach_the_installed_metrics_registry() {
        let _guard = one_at_a_time();
        let sub = Subscriber::new();
        let _g = sub.install();
        let before_checks = sub.metrics().counter("conformance_checks_total");
        let m = ConformanceMonitor::new();
        m.check(&envelope(), 1000, 1);
        assert_eq!(
            sub.metrics().counter("conformance_checks_total"),
            before_checks + 1
        );
        assert!(
            sub.metrics()
                .counter("conformance_violations_total{protocol=\"tree(r=2)\",bound=\"bits\"}")
                >= 1
        );
        assert!(sub
            .events()
            .iter()
            .any(|e| e.target == "conformance" && e.name.contains("bound=bits")));
    }

    #[test]
    fn violation_retention_is_capped_but_counts_are_not() {
        let _guard = one_at_a_time();
        let m = ConformanceMonitor::new();
        for _ in 0..(KEPT_VIOLATIONS + 10) {
            m.check(&envelope(), 501, 1);
        }
        let report = m.report();
        assert_eq!(report.violation_count, (KEPT_VIOLATIONS + 10) as u64);
        assert_eq!(report.violations.len(), KEPT_VIOLATIONS);
    }
}
