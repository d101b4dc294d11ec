//! The calibration control loop's three claims, asserted on live engine
//! traffic: a router whose winner's predicted bits are inflated 8×
//! re-converges from residuals within a bounded session budget, honest
//! traffic never flaps the routing choice, and turning the loop on
//! changes no bit of well-calibrated traffic.

use intersect_core::api::ProtocolChoice;
use intersect_core::sets::ProblemSpec;
use intersect_engine::calibration::{k_bucket, CalibrationConfig};
use intersect_engine::prelude::*;
use intersect_engine::{route, route_calibrated, EngineConfig, RoutePolicy};
use intersect_obs as obs;

/// Sessions per wave of traffic.
const WAVE: u64 = 25;

/// The disjoint-sets regime the convergence test probes: large universe,
/// k = 4096, zero overlap. The uncalibrated router picks the Θ(k)-bit
/// bucketed protocol here with a wide margin, which is exactly what an
/// 8× inflation must overcome and the decay loop must win back.
fn probe_request(id: u64) -> SessionRequest {
    let mut req = SessionRequest::new(id, ProblemSpec::new(1 << 30, 1 << 12), 0);
    req.seed = id.wrapping_mul(0xE22) + 1;
    req
}

/// A high-overlap regime where difference-proportional reconciliation
/// wins by ~50×: the other large-margin shape the exactness test mixes.
fn warm_request(id: u64) -> SessionRequest {
    let k = 1u64 << 12;
    let mut req = SessionRequest::new(id, ProblemSpec::new(1 << 30, k), (k - 4) as usize);
    req.seed = id.wrapping_mul(0xE22) + 1;
    req
}

fn calibrated_engine() -> Engine {
    let mut config = EngineConfig::new(4);
    config.calibration = Some(CalibrationConfig::default());
    Engine::start(config)
}

/// Submits one wave and blocks until the engine has finished it.
fn drive_wave(engine: &Engine, requests: Vec<SessionRequest>) {
    let before = engine.snapshot().metrics;
    let target = before.completed + before.failed + before.rejected + requests.len() as u64;
    for req in requests {
        engine.submit(req).expect("engine is accepting");
    }
    loop {
        let m = engine.snapshot().metrics;
        if m.completed + m.failed + m.rejected >= target {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

fn probe_wave(engine: &Engine, first: u64) {
    drive_wave(engine, (first..first + WAVE).map(probe_request).collect());
}

#[test]
fn an_8x_miscalibrated_router_reconverges_from_residuals() {
    const BUDGET: u64 = 24 * WAVE;
    let policy = RoutePolicy::default();
    let sub = obs::Subscriber::new();
    let _guard = sub.install();
    let engine = calibrated_engine();
    let calibrator = engine.calibrator().expect("calibration armed");

    let probe = probe_request(0);
    let bucket = k_bucket(probe.spec.k);
    let honest = route(&probe, policy);
    assert_eq!(
        honest,
        ProtocolChoice::Sqrt,
        "the probe regime's uncalibrated winner moved; re-pick the regime"
    );
    calibrator.inject(honest, bucket, 8.0);
    assert_ne!(
        route_calibrated(&probe, policy, Some(&calibrator)),
        honest,
        "an 8x inflation must de-route the honest winner"
    );

    let mut driven = 0;
    while route_calibrated(&probe, policy, Some(&calibrator)) != honest {
        assert!(
            driven < BUDGET,
            "router did not re-converge within {BUDGET} sessions"
        );
        probe_wave(&engine, driven);
        driven += WAVE;
    }
    let report = engine.finish();
    assert_eq!(report.snapshot.metrics.failed, 0, "honest traffic only");

    // Recovery went through hysteresis snaps, and their labelled counter
    // reached the registry.
    let snaps: u64 = calibrator
        .snapshot()
        .entries
        .iter()
        .map(|e| e.recalibrations)
        .sum();
    assert!(snaps > 0, "recovery must go through hysteresis snaps");
    let metric_key = format!(
        "router_recalibration_total{{protocol=\"{honest}\",k_bucket=\"2^{bucket}\",bound=\"bits\"}}"
    );
    assert!(
        sub.metrics().counter(&metric_key) > 0,
        "recalibration counter {metric_key} must be exported"
    );
}

#[test]
fn honest_traffic_never_flaps_the_router() {
    let policy = RoutePolicy::default();
    let engine = calibrated_engine();
    let calibrator = engine.calibrator().expect("calibration armed");
    let probe = probe_request(0);
    let choices: Vec<ProtocolChoice> = (0..6)
        .map(|wave| {
            probe_wave(&engine, wave * WAVE);
            route_calibrated(&probe, policy, Some(&calibrator))
        })
        .collect();
    engine.finish();

    // Steady state starts after the first wave (initial residuals may
    // legitimately move an applied factor once); from there the choice
    // must be constant and agree with the uncalibrated router.
    let steady = &choices[1..];
    assert!(
        steady.windows(2).all(|w| w[0] == w[1]),
        "honest traffic flapped the router: {choices:?}"
    );
    assert_eq!(steady[steady.len() - 1], route(&probe, policy));
}

#[test]
fn the_loop_changes_no_bit_of_well_calibrated_traffic() {
    let run = |calibrate: bool| {
        let mut config = EngineConfig::new(4);
        config.calibration = calibrate.then(CalibrationConfig::default);
        let engine = Engine::start(config);
        drive_wave(
            &engine,
            (0..80)
                .map(|id| {
                    if id % 2 == 0 {
                        probe_request(id)
                    } else {
                        warm_request(id)
                    }
                })
                .collect(),
        );
        let m = engine.finish().snapshot.metrics;
        assert_eq!(m.failed, 0);
        (m.total_bits, m.completed)
    };
    assert_eq!(
        run(false),
        run(true),
        "enabling calibration on honest traffic must not change a single bit"
    );
}
