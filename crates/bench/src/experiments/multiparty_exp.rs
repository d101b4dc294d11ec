//! Multi-party experiments: E9 (Corollary 4.1) and E10 (Corollary 4.2).

use crate::table::{fmt_per, Table};
use crate::workload::Workload;
use intersect_core::sets::ElementSet;
use intersect_multiparty::average::AverageCase;
use intersect_multiparty::worst_case::WorstCase;

fn ground_truth(sets: &[ElementSet]) -> ElementSet {
    sets.iter()
        .skip(1)
        .fold(sets[0].clone(), |acc, s| acc.intersection(s))
}

fn m_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![4, 16]
    } else {
        vec![4, 16, 64, 128]
    }
}

/// E9 — Corollary 4.1: average `O(k·log^{(r)} k)` bits per player with a
/// round count growing only as `max(1, log m / log k)` recursion levels.
pub fn e9(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "E9 — Corollary 4.1 (average-case multi-party): avg bits/player/k flat in m, \
         rounds ∝ recursion depth, max-loaded player is the coordinator (≈ 2k× the average)",
        &[
            "m",
            "k",
            "avg bits/(player·k)",
            "max bits/(player·k)",
            "rounds",
            "correct",
        ],
    );
    let trials = if quick { 2 } else { 5 };
    for k in [16u64, 64] {
        for m in m_sweep(quick) {
            let w = Workload::new(1 << 30, k, 0.0, 0xE9);
            let mut avg = 0f64;
            let mut maxp = 0f64;
            let mut rounds = 0f64;
            let mut correct = 0usize;
            for t in 0..trials {
                let sets = w.multiparty_sets(m, (k / 4) as usize, t as u64);
                let truth = ground_truth(&sets);
                let out = AverageCase::new(w.spec, 2)
                    .execute(&sets, 0xE9 ^ (t as u64) << 20)
                    .unwrap();
                avg += out.report.average_bits_per_player();
                maxp += out.report.max_bits_per_player() as f64;
                rounds += out.report.rounds as f64;
                if out.result == truth {
                    correct += 1;
                }
            }
            table.push_row(vec![
                m.to_string(),
                k.to_string(),
                fmt_per(avg / trials as f64 / k as f64),
                fmt_per(maxp / trials as f64 / k as f64),
                format!("{:.0}", rounds / trials as f64),
                format!("{correct}/{trials}"),
            ]);
        }
    }
    vec![table]
}

/// E10 — Corollary 4.2: the tournament bounds the worst-loaded player at
/// the price of more rounds.
pub(crate) fn e10(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "E10 — Corollary 4.2 (worst-case multi-party): tournament cuts the max-loaded \
         player vs the coordinator protocol, trading rounds for balance",
        &[
            "m",
            "k",
            "scheme",
            "avg bits/(player·k)",
            "max bits/(player·k)",
            "rounds",
            "correct",
        ],
    );
    let trials = if quick { 2 } else { 4 };
    let k = 32u64;
    for m in m_sweep(quick) {
        let w = Workload::new(1 << 30, k, 0.0, 0xE10);
        for scheme in ["avg-case (Cor 4.1)", "worst-case (Cor 4.2)"] {
            let mut avg = 0f64;
            let mut maxp = 0f64;
            let mut rounds = 0f64;
            let mut correct = 0usize;
            for t in 0..trials {
                let sets = w.multiparty_sets(m, (k / 4) as usize, t as u64);
                let truth = ground_truth(&sets);
                let (result, report) = if scheme.starts_with("avg") {
                    let out = AverageCase::new(w.spec, 2)
                        .execute(&sets, 0xE10 ^ (t as u64) << 20)
                        .unwrap();
                    (out.result, out.report)
                } else {
                    let out = WorstCase::new(w.spec, 2)
                        .execute(&sets, 0xE10 ^ (t as u64) << 20)
                        .unwrap();
                    (out.result, out.report)
                };
                avg += report.average_bits_per_player();
                maxp += report.max_bits_per_player() as f64;
                rounds += report.rounds as f64;
                if result == truth {
                    correct += 1;
                }
            }
            table.push_row(vec![
                m.to_string(),
                k.to_string(),
                scheme.to_string(),
                fmt_per(avg / trials as f64 / k as f64),
                fmt_per(maxp / trials as f64 / k as f64),
                format!("{:.0}", rounds / trials as f64),
                format!("{correct}/{trials}"),
            ]);
        }
    }
    vec![table]
}
