//! Ablations A1–A4: the design choices of the verification tree and the
//! amortized-equality engine.

use crate::measure::measure_intersection;
use crate::table::{fmt_failures, fmt_per, Table};
use crate::workload::Workload;
use intersect_comm::bits::BitBuf;
use intersect_comm::runner::{run_two_party, RunConfig, Side};
use intersect_core::fknn::AmortizedEquality;
use intersect_core::tree::{DegreePolicy, ErrorPolicy, TreeProtocol};

/// A1 — degree schedule: the paper's `log^{(r-i)} k` fan-out vs a uniform
/// `k^{1/r}`-ary tree of the same depth.
pub(crate) fn a1(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "A1 — tree degree schedule (claim: the iterated-log fan-out concentrates \
         equality tests where they are cheap; a uniform-degree tree of equal depth \
         pays more)",
        &["k", "r", "degrees", "bits/k", "failures"],
    );
    let trials = if quick { 5 } else { 15 };
    let ks: Vec<u64> = if quick {
        vec![1 << 10]
    } else {
        vec![1 << 10, 1 << 12]
    };
    for k in ks {
        for r in [2u32, 3] {
            for (label, policy) in [
                ("paper log^(r-i)k", DegreePolicy::Paper),
                ("uniform k^(1/r)", DegreePolicy::Uniform),
            ] {
                let proto = TreeProtocol {
                    degree_policy: policy,
                    ..TreeProtocol::new(r)
                };
                let w = Workload::new(1 << 40, k, 0.5, 0xA1);
                let s = measure_intersection(&proto, &w, trials).unwrap();
                table.push_row(vec![
                    k.to_string(),
                    r.to_string(),
                    label.to_string(),
                    fmt_per(s.bits_per(k)),
                    fmt_failures(s.failures, s.trials),
                ]);
            }
        }
    }
    vec![table]
}

/// A2 — amortized-equality block size: `√k` vs constant vs one block.
pub fn a2(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "A2 — amortized-equality block size (claim: √k blocks balance the \
         per-block confirmation against the round count; tiny blocks overpay \
         confirmations, one big block overpays on mixed inputs)",
        &["k", "block", "bits/k", "mean rounds", "wrong verdicts"],
    );
    let k = if quick { 256usize } else { 1024 };
    let trials = if quick { 3 } else { 10 };
    let sqrt_k = (k as f64).sqrt().ceil() as usize;
    for (label, block) in [("4", 4usize), ("√k", sqrt_k), ("k", k)] {
        let mut bits = 0f64;
        let mut rounds = 0f64;
        let mut wrong = 0usize;
        for t in 0..trials {
            let xs: Vec<BitBuf> = (0..k)
                .map(|i| {
                    let mut b = BitBuf::new();
                    b.push_bits(i as u64, 32);
                    b
                })
                .collect();
            let ys: Vec<BitBuf> = (0..k)
                .map(|i| {
                    let mut b = BitBuf::new();
                    // Half equal, half unequal.
                    let v = if i % 2 == 0 {
                        i as u64
                    } else {
                        i as u64 + (1 << 20)
                    };
                    b.push_bits(v, 32);
                    b
                })
                .collect();
            let eq = AmortizedEquality::with_block_size(block);
            let out = run_two_party(
                &RunConfig::with_seed(0xA2 + t as u64),
                |chan, coins| eq.run(chan, &coins.fork("a2"), Side::Alice, &xs),
                |chan, coins| eq.run(chan, &coins.fork("a2"), Side::Bob, &ys),
            )
            .unwrap();
            bits += out.report.total_bits() as f64;
            rounds += out.report.rounds as f64;
            wrong += out
                .alice
                .iter()
                .enumerate()
                .filter(|(i, &v)| v != (i % 2 == 0))
                .count();
        }
        table.push_row(vec![
            k.to_string(),
            label.to_string(),
            fmt_per(bits / (trials * k) as f64),
            format!("{:.0}", rounds / trials as f64),
            wrong.to_string(),
        ]);
    }
    vec![table]
}

/// A3 — the per-level error schedule `1/(log^{(r-i-1)} k)^4` vs flat
/// schedules.
pub(crate) fn a3(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "A3 — equality-test error schedule (claim: the paper's level-tuned errors \
         match flat-strict reliability at flat-loose-like cost)",
        &["k", "r", "schedule", "bits/k", "failures"],
    );
    let trials = if quick { 10 } else { 40 };
    let k = 1u64 << 10;
    for r in [2u32, 3] {
        for (label, policy) in [
            ("paper (level-tuned)", ErrorPolicy::Paper),
            ("flat strict 1/k^4", ErrorPolicy::FlatStrict),
            ("flat loose 2^-4", ErrorPolicy::FlatLoose),
        ] {
            let proto = TreeProtocol {
                error_policy: policy,
                ..TreeProtocol::new(r)
            };
            let w = Workload::new(1 << 40, k, 0.5, 0xA3);
            let s = measure_intersection(&proto, &w, trials).unwrap();
            table.push_row(vec![
                k.to_string(),
                r.to_string(),
                label.to_string(),
                fmt_per(s.bits_per(k)),
                fmt_failures(s.failures, s.trials),
            ]);
        }
    }
    vec![table]
}

/// A4 — the universe-reduction exponent `c` in `N = k^c` (the paper
/// requires `c > 2`): smaller `c` saves nothing on the wire (seeds are
/// shared-coin) but raises the collision failure rate `O(k^{2-c})`.
pub(crate) fn a4(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "A4 — universe-reduction exponent c (N = k^c, paper requires c > 2): \
         the reduction is communication-free, so larger c is free insurance; \
         this measures both cost-neutrality and the failure cliff below c = 3 \
         (the library floors N at 2^28, so the cliff shows at larger k)",
        &["k", "c", "N", "bits/k", "failures"],
    );
    let trials = if quick { 10 } else { 30 };
    let k = 1u64 << 12;
    for c in [2u32, 3, 4] {
        let proto = TreeProtocol {
            reduction_exponent: c,
            ..TreeProtocol::new(3)
        };
        let w = Workload::new(1 << 40, k, 0.5, 0xA4);
        let s = measure_intersection(&proto, &w, trials).unwrap();
        table.push_row(vec![
            k.to_string(),
            c.to_string(),
            format!(
                "2^{}",
                (proto.reduced_universe(k) as f64).log2().round() as u32
            ),
            fmt_per(s.bits_per(k)),
            fmt_failures(s.failures, s.trials),
        ]);
    }
    vec![table]
}
