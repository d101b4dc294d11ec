//! Table-driven theory-conformance coverage: every catalogue protocol,
//! across several set sizes and overlaps, must stay inside its
//! predicted envelope at the default slack — and a deliberately
//! inflated report must trip the monitor.

use intersect_core::api::ProtocolChoice;
use intersect_core::sets::ProblemSpec;
use intersect_engine::prelude::*;
use intersect_engine::EngineConfig;
use intersect_obs::conformance::{ConformanceConfig, ConformanceMonitor};

/// One engine per protocol, fed sessions at several `k` and overlap
/// shapes. Default slack must yield a 100 % envelope pass rate: the
/// cost model predicts mean bits and rounds from each protocol's own
/// parameters, and the envelope grants 3×/4× plus an additive floor.
#[test]
fn every_catalogue_protocol_conforms_at_default_slack() {
    for choice in ProtocolChoice::all(3) {
        let mut config = EngineConfig::new(2);
        config.policy = RoutePolicy::Fixed(choice);
        config.conformance = Some(ConformanceConfig::default());
        let engine = Engine::start(config);
        let mut id = 0u64;
        for k in [16u64, 64, 256] {
            let spec = ProblemSpec::new(1 << 20, k);
            for overlap in [0usize, (k / 2) as usize, (k - 1) as usize] {
                let mut req = SessionRequest::new(id, spec, overlap);
                req.seed = id.wrapping_mul(0x9e37_79b9) + 7;
                engine.submit(req).unwrap();
                id += 1;
            }
        }
        let report = engine.finish();
        assert!(
            report.outcomes.iter().all(|o| o.succeeded()),
            "{choice:?}: session failed"
        );
        let conf = report.conformance.expect("conformance configured");
        assert_eq!(conf.checked, 9, "{choice:?}");
        assert!(
            conf.all_conformant(),
            "{choice:?} breached its envelope at default slack: {:?}",
            conf.violations
        );
    }
}

/// The negative control: the same predicted envelopes reject a report
/// whose costs are inflated far beyond anything a correct run produces.
#[test]
fn inflated_reports_are_flagged_as_violations() {
    let spec = ProblemSpec::new(1 << 20, 64);
    let monitor = ConformanceMonitor::new();
    let mut checked = 0u64;
    for choice in ProtocolChoice::all(3) {
        let name = choice.build(spec).name();
        let envelope = theory_envelope(choice, &name, spec, Some(16), ConformanceConfig::default());
        // 100× the bit limit and 100× the round limit: both bounds breach.
        let breached = monitor.check(
            &envelope,
            envelope.max_bits * 100,
            envelope.max_rounds * 100,
        );
        assert_eq!(breached, 2, "{name}");
        checked += 1;
    }
    let report = monitor.report();
    assert_eq!(report.checked, checked);
    assert_eq!(report.violation_count, checked * 2);
    assert!(!monitor.health().ok());
    assert_eq!(monitor.health().violations(), checked * 2);
}

/// The operator-facing deliberate-violation knob (`--slack` near zero)
/// must degrade health on an otherwise honest workload end to end.
#[test]
fn near_zero_slack_degrades_health_on_honest_traffic() {
    let mut config = EngineConfig::new(2);
    config.conformance = Some(ConformanceConfig::with_slack(0.01));
    let engine = Engine::start(config);
    let health = engine.conformance_monitor().unwrap().health();
    assert!(health.ok());
    for id in 0..6 {
        let req = SessionRequest::new(id, ProblemSpec::new(1 << 18, 64), 16);
        engine.submit(req).unwrap();
    }
    let report = engine.finish();
    let conf = report.conformance.unwrap();
    assert_eq!(conf.checked, 6);
    assert!(conf.violation_count > 0, "0.01 slack must flag honest runs");
    assert!(!health.ok());
}
