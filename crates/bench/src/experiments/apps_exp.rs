//! E11 and E13 — the application layer: exact statistics and joins at
//! intersection cost, and the exact-vs-approximate contrast.

use crate::table::{fmt_bits, fmt_per, Table};
use crate::workload::Workload;
use intersect_apps::join::{JoinProtocol, Row, Table as DbTable};
use intersect_apps::similarity::SimilarityProtocol;
use intersect_apps::sketch::JaccardSketch;
use intersect_comm::runner::{run_two_party, RunConfig, Side};
use intersect_core::tree::TreeProtocol;
use intersect_core::trivial::TrivialExchange;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// E11 — exact Jaccard / union / Hamming / rarity, and the distributed
/// join, all at intersection cost (vs the ship-a-table baseline).
pub(crate) fn e11(quick: bool) -> Vec<Table> {
    let mut stats_table = Table::new(
        "E11a — exact similarity statistics at intersection cost \
         (claim: union size, Jaccard, Hamming distance, 1-/2-rarity all exact, \
         at O(k·log^(r) k) bits instead of k·log(n/k))",
        &[
            "k",
            "n/k",
            "stats bits/k",
            "exchange bits/k",
            "saving ×",
            "all exact",
        ],
    );
    let trials = if quick { 3 } else { 10 };
    let ks: Vec<u64> = if quick {
        vec![256]
    } else {
        vec![256, 1024, 4096]
    };
    for k in ks.clone() {
        for log_ratio in [10u32, 30] {
            let n = k << log_ratio;
            let w = Workload::new(n, k, 0.4, 0xE11);
            let mut stat_bits = 0f64;
            let mut exch_bits = 0f64;
            let mut exact = true;
            for t in 0..trials {
                let pair = w.pair(t as u64);
                let proto = SimilarityProtocol::new(TreeProtocol::log_star(k));
                let out = run_two_party(
                    &RunConfig::with_seed(0x11a + t as u64),
                    |chan, coins| proto.run(chan, coins, Side::Alice, w.spec, &pair.s),
                    |chan, coins| proto.run(chan, coins, Side::Bob, w.spec, &pair.t),
                )
                .unwrap();
                stat_bits += out.report.total_bits() as f64;
                let truth_i = pair.ground_truth();
                let truth_u = pair.s.union(&pair.t);
                exact &= out.alice.intersection == truth_i
                    && out.alice.union_size == truth_u.len() as u64
                    && out.alice == out.bob;

                let triv = TrivialExchange::default();
                let out2 = run_two_party(
                    &RunConfig::with_seed(0x11b + t as u64),
                    |chan, coins| triv.run(chan, coins, Side::Alice, w.spec, &pair.s),
                    |chan, coins| triv.run(chan, coins, Side::Bob, w.spec, &pair.t),
                )
                .unwrap();
                exch_bits += out2.report.total_bits() as f64;
            }
            stats_table.push_row(vec![
                k.to_string(),
                format!("2^{log_ratio}"),
                fmt_per(stat_bits / (trials as f64 * k as f64)),
                fmt_per(exch_bits / (trials as f64 * k as f64)),
                format!("{:.2}", exch_bits / stat_bits),
                exact.to_string(),
            ]);
        }
    }

    let mut join_table = Table::new(
        "E11b — distributed equi-join (claim: cost ≈ key-intersection + matching \
         payloads, far below shipping a table)",
        &[
            "rows/side",
            "matches",
            "join bits",
            "ship-table bits",
            "saving ×",
        ],
    );
    let sizes: Vec<usize> = if quick { vec![256] } else { vec![256, 1024] };
    for rows in sizes {
        let mut rng = ChaCha8Rng::seed_from_u64(0x11c);
        let spec = intersect_core::sets::ProblemSpec::new(1 << 40, rows as u64);
        let matches = rows / 16;
        let mut left = DbTable::new();
        let mut right = DbTable::new();
        for i in 0..rows {
            let shared = i < matches;
            let lkey = if shared {
                i as u64
            } else {
                (1 << 20) + rng.gen_range(0..1u64 << 39)
            };
            let rkey = if shared {
                i as u64
            } else {
                (1 << 39) + rng.gen_range(0..1u64 << 38)
            };
            left.insert(Row {
                key: lkey,
                fields: vec![rng.gen(), rng.gen()],
            });
            right.insert(Row {
                key: rkey,
                fields: vec![rng.gen()],
            });
        }
        let proto = JoinProtocol::default();
        let out = run_two_party(
            &RunConfig::with_seed(0x11d),
            |chan, coins| proto.run(chan, coins, Side::Alice, spec, &left),
            |chan, coins| proto.run(chan, coins, Side::Bob, spec, &right),
        )
        .unwrap();
        // Shipping the left table: keys (40 bits) + two 64-bit fields each.
        let ship = left.len() as f64 * (40.0 + 2.0 * 64.0);
        join_table.push_row(vec![
            rows.to_string(),
            out.alice.len().to_string(),
            fmt_bits(out.report.total_bits() as f64),
            fmt_bits(ship),
            format!("{:.2}", ship / out.report.total_bits() as f64),
        ]);
    }
    vec![stats_table, join_table]
}

/// E13 — exact recovery (this paper) vs one-message approximation
/// (the Pagh–Stöckel–Woodruff related-work contrast): what the extra
/// messages and bits buy.
pub(crate) fn e13(quick: bool) -> Vec<Table> {
    let mut table = Table::new(
        "E13 — exact intersection (Theorem 1.1) vs bottom-k sketch approximation \
         (one-way, PSW14-style): the sketch is cheap but inexact; exactness costs \
         O(k) bits and log* k messages (claim: the paper recovers the *actual* \
         intersection where sketches only estimate its size)",
        &[
            "k",
            "method",
            "bits/k",
            "messages",
            "|J−Ĵ| mean",
            "|∩| abs err",
            "members recovered",
        ],
    );
    let trials = if quick { 3 } else { 10 };
    let ks: Vec<u64> = if quick { vec![1024] } else { vec![1024, 4096] };
    for k in ks {
        let w = Workload::new(1 << 40, k, 0.33, 0xE13);
        let truth_overlap = w.overlap_count() as f64;
        // Exact: the tree protocol, then statistics.
        let mut exact_bits = 0f64;
        let mut exact_msgs = 0f64;
        for t in 0..trials {
            let pair = w.pair(t as u64);
            let proto = SimilarityProtocol::new(TreeProtocol::log_star(k));
            let out = run_two_party(
                &RunConfig::with_seed(0x13 + t as u64),
                |chan, coins| proto.run(chan, coins, Side::Alice, w.spec, &pair.s),
                |chan, coins| proto.run(chan, coins, Side::Bob, w.spec, &pair.t),
            )
            .unwrap();
            exact_bits += out.report.total_bits() as f64;
            exact_msgs += out.report.messages as f64;
        }
        table.push_row(vec![
            k.to_string(),
            "exact (tree log*)".into(),
            fmt_per(exact_bits / (trials as f64 * k as f64)),
            format!("{:.0}", exact_msgs / trials as f64),
            "0".into(),
            "0".into(),
            "all".into(),
        ]);
        // Approximate: bottom-k sketches of several sizes.
        for s in [64usize, 256, 1024] {
            let mut bits = 0f64;
            let mut j_err = 0f64;
            let mut i_err = 0f64;
            for t in 0..trials {
                let pair = w.pair(t as u64);
                let truth_j = truth_overlap / (pair.s.union(&pair.t).len() as f64);
                let proto = JaccardSketch::new(s);
                let out = run_two_party(
                    &RunConfig::with_seed(0x130 + t as u64),
                    |chan, coins| proto.run(chan, coins, Side::Alice, w.spec, &pair.s),
                    |chan, coins| proto.run(chan, coins, Side::Bob, w.spec, &pair.t),
                )
                .unwrap();
                bits += out.report.total_bits() as f64;
                j_err += (out.alice.jaccard - truth_j).abs();
                i_err += (out.alice.intersection_size - truth_overlap).abs();
            }
            table.push_row(vec![
                k.to_string(),
                format!("sketch s={s}"),
                fmt_per(bits / (trials as f64 * k as f64)),
                "2".into(),
                format!("{:.3}", j_err / trials as f64),
                format!("{:.0}", i_err / trials as f64),
                "none".into(),
            ]);
        }
    }
    vec![table]
}
