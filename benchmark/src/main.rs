//! The intersect workspace's benchmark. See `benchmark/README.md`.

mod alloc;
mod compare;
mod ladder;
mod procfs;
mod report;
mod spans;
mod stats;
mod timed;
mod workload;

use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 20140715;
/// `run_seconds` of `BENCHMARK.json`; a unit test keeps the two equal.
const DEFAULT_SECONDS: f64 = 15.0;
/// Blocks the measured window is split into.
const BLOCKS: usize = 5;

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--blocks B]
      one run of one workload; the last line of stdout is the result object
      (the measured window is split into B blocks, default 5)
  benchmark [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
      every workload, each in a fresh child process, collected into FILE
      (default benchmark/out/result.json); --trace 1 adds the ladder run
  benchmark --spread RUNS [--seed N] [--seconds S] [--out FILE]
      RUNS timed runs per workload on seeds N, N+1, ...: the spread each
      bound in BENCHMARK.json has to cover
  benchmark --compare A.json B.json
      applies the bounds in BENCHMARK.json to two result files";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    blocks: Option<usize>,
    out: Option<PathBuf>,
    spread: Option<usize>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                args.seed = Some(
                    value(&mut it, flag)?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => args.quick = true,
            "--blocks" => {
                let n: usize = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--blocks: {e}"))?;
                if n == 0 {
                    return Err("--blocks must be at least 1".into());
                }
                args.blocks = Some(n);
            }
            "--out" => args.out = Some(value(&mut it, flag)?.into()),
            "--spread" => {
                args.spread = Some(
                    value(&mut it, flag)?
                        .parse()
                        .map_err(|e| format!("--spread: {e}"))?,
                )
            }
            "--compare" => {
                args.compare = Some((value(&mut it, flag)?.into(), value(&mut it, flag)?.into()))
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// One run of one workload in this process: the driver's contract.
fn run_one(
    name: &str,
    seed: u64,
    seconds: f64,
    blocks: usize,
    trace: bool,
) -> Result<bool, String> {
    let workload = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", names.join(", "))
    })?;
    report::print_header(workload, seed, seconds);
    let outcome = if trace {
        let result = ladder::run(workload, seed, seconds)?;
        let path = PathBuf::from(format!("benchmark/out/trace-{}.json", workload.name));
        report::write_json(&path, &spans::to_json(result.recorder.spans()))?;
        println!("spans written to {}", path.display());
        report::ladder_outcome(&result)
    } else {
        report::timed_outcome(&timed::run(workload, seed, seconds, blocks)?)
    };
    outcome.print();
    Ok(outcome.correct)
}

/// Runs one workload in a child process of this same binary and parses
/// what it printed.
fn run_child(
    name: &str,
    seed: u64,
    seconds: f64,
    blocks: usize,
    trace: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(["--blocks", &blocks.to_string()])
        .output()
        .map_err(|e| format!("cannot start child for {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{name} exited with {}:\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    report::parse_child_output(&stdout).map_err(|e| format!("{name}: {e}"))
}

fn run_all(args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let (seconds, blocks) = if args.quick {
        (args.seconds.unwrap_or(1.0), 1)
    } else {
        (args.seconds.unwrap_or(DEFAULT_SECONDS), BLOCKS)
    };
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in &workload::WORKLOADS {
        eprintln!("== {} (timed, {seconds} s)", w.name);
        let timed = run_child(w.name, seed, seconds, blocks, false)?;
        report::print_child(w.name, &timed);
        all_correct &= timed["result"]["correct"].as_bool() == Some(true);
        let mut entry = vec![("timed".to_string(), timed)];
        if args.trace {
            eprintln!("== {} (traced ladder, {seconds} s)", w.name);
            let traced = run_child(w.name, seed, seconds, blocks, true)?;
            report::print_child(w.name, &traced);
            all_correct &= traced["result"]["correct"].as_bool() == Some(true);
            report::print_tracing_overhead(w, &entry[0].1, &traced);
            entry.push(("traced".to_string(), traced));
        }
        workloads.push((w.name.to_string(), Value::Object(entry)));
    }
    let file = Value::Object(vec![
        ("env".into(), report::env_json()),
        ("seed".into(), Value::U64(seed)),
        ("seconds".into(), Value::F64(seconds)),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| "benchmark/out/result.json".into());
    report::write_json(&out, &file)?;
    println!("result file: {}", out.display());
    Ok(all_correct)
}

fn run_spread(args: &Args, runs: usize) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let spec = compare::load_spec()?;
    let mut all_within = true;
    let mut file = Vec::new();
    for w in &workload::WORKLOADS {
        let mut children = Vec::new();
        for i in 0..runs {
            eprintln!(
                "== {} run {}/{runs} seed {}",
                w.name,
                i + 1,
                seed + i as u64
            );
            children.push(run_child(w.name, seed + i as u64, seconds, BLOCKS, false)?);
        }
        let (within, rows) = compare::spread_rows(&spec, w.name, &children);
        all_within &= within;
        file.push((w.name.to_string(), rows));
    }
    if let Some(out) = &args.out {
        report::write_json(out, &Value::Object(file))?;
    }
    Ok(all_within)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((a, b)) = &args.compare {
        return compare::compare_files(a, b);
    }
    if let Some(runs) = args.spread {
        return run_spread(&args, runs.max(2));
    }
    match &args.workload {
        Some(name) => run_one(
            name,
            args.seed.unwrap_or(DEFAULT_SEED),
            args.seconds.unwrap_or(DEFAULT_SECONDS),
            args.blocks.unwrap_or(BLOCKS),
            args.trace,
        ),
        None => run_all(&args),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_arguments_parse() {
        let argv: Vec<String> = "--workload net-trivial-k16 --seed 9 --seconds 2.5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload.as_deref(), Some("net-trivial-k16"));
        assert_eq!(args.seed, Some(9));
        assert_eq!(args.seconds, Some(2.5));
        assert!(args.trace);
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }
}
