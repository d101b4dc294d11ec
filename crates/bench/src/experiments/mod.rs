//! The experiment registry: one entry per table/claim of the paper, as
//! indexed in DESIGN.md §3.

pub mod ablations;
pub mod apps_exp;
pub mod equality_exp;
pub mod multiparty_exp;
pub mod two_party;

use crate::table::Table;

/// A registered experiment.
pub struct Experiment {
    /// Identifier (`E1`…`E15`, `A1`…`A4`).
    pub id: &'static str,
    /// One-line description of the claim it reproduces.
    pub claim: &'static str,
    /// Runner; `quick = true` shrinks sweeps and trial counts.
    pub run: fn(bool) -> Vec<Table>,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Experiment({})", self.id)
    }
}

/// All experiments, in report order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "E1",
            claim: "Theorem 1.1/3.6: O(k·log^(r) k) bits within 6r rounds",
            run: two_party::e1,
        },
        Experiment {
            id: "E2",
            claim: "Headline: r = log* k gives O(k) bits in O(log* k) rounds",
            run: two_party::e2,
        },
        Experiment {
            id: "E3",
            claim: "Theorem 3.1: O(k) bits in O(√k) rounds; private coins +O(log k + loglog n)",
            run: two_party::e3,
        },
        Experiment {
            id: "E4",
            claim: "Intro: D1 = O(k log(n/k)) vs R1 = O(k log k), crossover in n/k",
            run: two_party::e4,
        },
        Experiment {
            id: "E5",
            claim: "HW07 baseline: INT within a constant factor of DISJ",
            run: two_party::e5,
        },
        Experiment {
            id: "E6",
            claim: "ST13 curve: tree INT tracks k·log^(r) k at every r",
            run: two_party::e6,
        },
        Experiment {
            id: "E7",
            claim: "Theorem 3.2: amortized EQ^n_k in O(k) bits / O(√k) rounds",
            run: equality_exp::e7,
        },
        Experiment {
            id: "E8",
            claim: "Fact 2.1: EQ^n_k via INT, improving FKNN round complexity",
            run: two_party::e8,
        },
        Experiment {
            id: "E9",
            claim: "Corollary 4.1: multi-party average O(k·log^(r) k) bits/player",
            run: multiparty_exp::e9,
        },
        Experiment {
            id: "E10",
            claim: "Corollary 4.2: multi-party worst-case load balancing",
            run: multiparty_exp::e10,
        },
        Experiment {
            id: "E11",
            claim: "Applications: exact Jaccard/union/rarity/Hamming + joins at INT cost",
            run: apps_exp::e11,
        },
        Experiment {
            id: "E12",
            claim: "Contrast: union needs Ω(k log(n/k)) for any r; INT escapes",
            run: two_party::e12,
        },
        Experiment {
            id: "E13",
            claim: "Exact recovery vs one-message sketch approximation (PSW14 contrast)",
            run: apps_exp::e13,
        },
        Experiment {
            id: "E14",
            claim: "Worst-case O(k) vs difference-proportional IBLT reconciliation",
            run: two_party::e14,
        },
        Experiment {
            id: "E15",
            claim: "Open problem: Algorithm 1 pipelined to 2r+1 messages at equal cost",
            run: two_party::e15,
        },
        Experiment {
            id: "A1",
            claim: "Ablation: iterated-log degree schedule vs uniform tree",
            run: ablations::a1,
        },
        Experiment {
            id: "A2",
            claim: "Ablation: amortized-equality block size √k vs constant vs k",
            run: ablations::a2,
        },
        Experiment {
            id: "A3",
            claim: "Ablation: level-tuned error schedule vs flat schedules",
            run: ablations::a3,
        },
        Experiment {
            id: "A4",
            claim: "Ablation: universe-reduction exponent c (failure vs free insurance)",
            run: ablations::a4,
        },
    ]
}

/// Looks up an experiment by (case-insensitive) id.
pub fn find(id: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.id.eq_ignore_ascii_case(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_planned_ids() {
        let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        let want = [
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
            "E14", "E15", "A1", "A2", "A3", "A4",
        ];
        assert_eq!(
            ids, want,
            "the registry holds the paper's experiments, in order"
        );
    }

    #[test]
    fn find_is_case_insensitive() {
        assert!(find("e1").is_some());
        assert!(find("A3").is_some());
        assert!(find("E99").is_none());
    }
}
