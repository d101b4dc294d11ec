//! The engine-hosted m-party invariant, table-driven: for every
//! multiparty protocol, party count m ∈ {2, 4, 8}, and cardinality bound
//! k ∈ {16, 64}, a session served by `Engine::submit_multiparty` is
//! bit-for-bit identical to the same request served by the harness-only
//! `execute` calls — same inputs, same coins, same per-player
//! communication accounting. Runs in the tier-1 `cargo test`.

use intersect_core::sets::ProblemSpec;
use intersect_engine::prelude::*;
use intersect_multiparty::{AverageCase, MultipartyDisjointness, WorstCase};

#[test]
fn engine_multiparty_sessions_are_bit_identical_to_harness_runs() {
    let mut table = Vec::new();
    let mut id = 0u64;
    for choice in MultipartyChoice::ALL {
        for m in [2usize, 4, 8] {
            for k in [16u64, 64] {
                let spec = ProblemSpec::new(1 << 16, k);
                let overlap = (k / 8) as usize;
                let mut req = MultipartyRequest::new(id, spec, m, overlap, choice);
                req.seed = id.wrapping_mul(0x9e37_79b9) + 1;
                table.push(req);
                id += 1;
            }
        }
    }

    let engine = Engine::start(EngineConfig::new(4));
    for req in &table {
        engine.submit_multiparty(req.clone()).unwrap();
    }
    let report = engine.finish();
    assert_eq!(report.multiparty.len(), table.len());
    assert_eq!(report.snapshot.metrics.completed, table.len() as u64);

    for (outcome, req) in report.multiparty.iter().zip(&table) {
        let label = format!("{} m={} k={}", req.choice, req.players, req.spec.k);
        assert!(outcome.succeeded(), "{label}: session failed");
        assert!(outcome.within_envelope, "{label}: envelope breached");
        let sets = req.player_sets();
        let truth = req.ground_truth();
        match req.choice {
            MultipartyChoice::AverageCase => {
                let reference = AverageCase::new(req.spec, req.tree_rounds)
                    .execute(&sets, req.seed)
                    .unwrap();
                assert_eq!(outcome.report, reference.report, "{label}");
                assert_eq!(outcome.result.as_ref(), Some(&reference.result), "{label}");
                assert_eq!(reference.result, truth, "{label}");
            }
            MultipartyChoice::WorstCase => {
                let reference = WorstCase::new(req.spec, req.tree_rounds)
                    .execute(&sets, req.seed)
                    .unwrap();
                assert_eq!(outcome.report, reference.report, "{label}");
                assert_eq!(outcome.result.as_ref(), Some(&reference.result), "{label}");
                assert_eq!(reference.result, truth, "{label}");
            }
            MultipartyChoice::Disjointness => {
                let reference = MultipartyDisjointness::new(req.spec, req.tree_rounds)
                    .execute(&sets, req.seed)
                    .unwrap();
                assert_eq!(outcome.report, reference.report, "{label}");
                assert_eq!(reference.disjoint, truth.is_empty(), "{label}");
                assert!(
                    outcome
                        .verdicts
                        .iter()
                        .all(|v| *v == Some(reference.disjoint)),
                    "{label}: verdicts diverge: {:?}",
                    outcome.verdicts
                );
            }
        }
    }
}
