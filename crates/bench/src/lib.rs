//! # intersect-bench
//!
//! The experiment harness for the `intersect` reproduction of Brody et al.
//! (PODC 2014). The paper is a theory paper — its "evaluation" is a set of
//! theorems about communication and round complexity — so each experiment
//! here executes the corresponding protocol on seeded synthetic workloads
//! and prints a table verifying the claimed *shape*: growth curves,
//! crossovers, round caps, and failure rates. DESIGN.md §3 maps every
//! experiment id to its claim; EXPERIMENTS.md records claimed-vs-measured.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p intersect-bench --bin report -- --all
//! cargo run --release -p intersect-bench --bin report -- --exp E1
//! cargo run --release -p intersect-bench --bin report -- --all --quick
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod measure;
pub mod table;
pub mod workload;
