//! Trial runners and aggregate statistics.

use crate::workload::Workload;
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::{run_two_party, RunConfig, Side};
use intersect_core::api::{execute, SetDisjointness, SetIntersection};

/// Aggregate cost statistics over repeated trials.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// Number of trials aggregated.
    pub trials: usize,
    /// Mean total bits.
    pub mean_bits: f64,
    /// Maximum total bits observed.
    pub max_bits: u64,
    /// Mean round count.
    pub mean_rounds: f64,
    /// Maximum round count observed.
    pub max_rounds: u64,
    /// Trials whose output was wrong on either side.
    pub failures: usize,
}

impl Sample {
    fn record(&mut self, bits: u64, rounds: u64, correct: bool) {
        self.trials += 1;
        self.mean_bits += bits as f64;
        self.max_bits = self.max_bits.max(bits);
        self.mean_rounds += rounds as f64;
        self.max_rounds = self.max_rounds.max(rounds);
        if !correct {
            self.failures += 1;
        }
    }

    fn finish(mut self) -> Self {
        if self.trials > 0 {
            self.mean_bits /= self.trials as f64;
            self.mean_rounds /= self.trials as f64;
        }
        self
    }

    /// Mean bits divided by `k`.
    pub(crate) fn bits_per(&self, k: u64) -> f64 {
        self.mean_bits / k as f64
    }
}

/// Runs `trials` seeded executions of an intersection protocol and checks
/// each output against the ground truth.
///
/// # Errors
///
/// Propagates transport-level failures (protocol *correctness* failures
/// are counted, not propagated).
pub(crate) fn measure_intersection(
    protocol: &dyn SetIntersection,
    workload: &Workload,
    trials: usize,
) -> Result<Sample, ProtocolError> {
    let mut sample = Sample::default();
    for t in 0..trials {
        let pair = workload.pair(t as u64);
        let truth = pair.ground_truth();
        let run = execute(
            protocol,
            workload.spec,
            &pair,
            workload.seed ^ (t as u64) << 17,
        )?;
        sample.record(
            run.report.total_bits(),
            run.report.rounds,
            run.matches(&truth),
        );
    }
    Ok(sample.finish())
}

/// Runs `trials` seeded executions of a disjointness protocol.
///
/// # Errors
///
/// Propagates transport-level failures.
pub(crate) fn measure_disjointness(
    protocol: &dyn SetDisjointness,
    workload: &Workload,
    trials: usize,
) -> Result<Sample, ProtocolError> {
    let mut sample = Sample::default();
    for t in 0..trials {
        let pair = workload.pair(t as u64);
        let truth = pair.ground_truth().is_empty();
        let out = run_two_party(
            &RunConfig::with_seed(workload.seed ^ (t as u64) << 17),
            |chan, coins| protocol.run(chan, coins, Side::Alice, workload.spec, &pair.s),
            |chan, coins| protocol.run(chan, coins, Side::Bob, workload.spec, &pair.t),
        )?;
        let correct = out.alice == truth && out.bob == truth;
        sample.record(out.report.total_bits(), out.report.rounds, correct);
    }
    Ok(sample.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use intersect_core::hw07::HwDisjointness;
    use intersect_core::tree::TreeProtocol;

    #[test]
    fn intersection_sample_aggregates() {
        let w = Workload::new(1 << 24, 64, 0.5, 3);
        let s = measure_intersection(&TreeProtocol::new(2), &w, 5).unwrap();
        assert_eq!(s.trials, 5);
        assert!(s.mean_bits > 0.0);
        assert!(s.max_bits as f64 >= s.mean_bits);
        assert!(s.failures <= 1);
        assert!(s.bits_per(64) > 1.0);
    }

    #[test]
    fn disjointness_sample_aggregates() {
        let w = Workload::new(1 << 24, 64, 0.0, 4);
        let s = measure_disjointness(&HwDisjointness::default(), &w, 5).unwrap();
        assert_eq!(s.trials, 5);
        assert_eq!(s.failures, 0);
    }
}
