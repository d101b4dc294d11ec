//! The experiment report generator.
//!
//! Prints the paper-reproduction tables (DESIGN.md §3) as markdown.

use intersect_bench::experiments;
use intersect_bench::table::Table;
use serde::Serialize;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: report [--exp <ID>]... [--all] [--quick] [--json] [--list]\n\
         \n\
         --exp <ID>   run one experiment (E1..E15, A1..A4); repeatable\n\
         --all        run every experiment\n\
         --quick      smaller sweeps and trial counts\n\
         --json       emit results as JSON instead of markdown\n\
         --list       list experiment ids and claims"
    );
    std::process::exit(2);
}

/// One experiment's results in the `--json` output.
#[derive(Serialize)]
struct JsonResult {
    id: String,
    claim: String,
    seconds: f64,
    quick: bool,
    tables: Vec<Table>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut run_all = false;
    let mut json = false;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--all" => run_all = true,
            "--json" => json = true,
            "--list" => {
                for e in experiments::all() {
                    println!("{:4} {}", e.id, e.claim);
                }
                return;
            }
            "--exp" => match it.next() {
                Some(id) => ids.push(id.clone()),
                None => usage(),
            },
            _ => usage(),
        }
    }
    if run_all {
        ids = experiments::all()
            .iter()
            .map(|e| e.id.to_string())
            .collect();
    }
    if ids.is_empty() {
        usage();
    }
    let mut results: Vec<JsonResult> = Vec::new();
    for id in ids {
        let Some(exp) = experiments::find(&id) else {
            eprintln!("unknown experiment {id}; use --list");
            std::process::exit(2);
        };
        if !json {
            println!("## {} — {}\n", exp.id, exp.claim);
        }
        let start = Instant::now();
        let tables = (exp.run)(quick);
        let seconds = start.elapsed().as_secs_f64();
        if json {
            results.push(JsonResult {
                id: exp.id.to_string(),
                claim: exp.claim.to_string(),
                seconds,
                quick,
                tables,
            });
        } else {
            for table in tables {
                println!("{}", table.to_markdown());
            }
            // Timing goes to stderr so stdout is the same on every run.
            eprintln!(
                "({} completed in {seconds:.1}s{})",
                exp.id,
                if quick { ", quick mode" } else { "" }
            );
        }
    }
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&results).expect("results serialize")
        );
    }
}
