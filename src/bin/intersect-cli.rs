//! Command-line front end: compute the intersection of two sets stored in
//! files, with any protocol from the catalogue, and report the exact
//! communication cost a real deployment would pay.
//!
//! ```text
//! intersect-cli --a alice.txt --b bob.txt [--protocol tree] [--rounds 3]
//!               [--universe 2^40] [--seed 7] [--repeat 100] [--quiet]
//! ```
//!
//! Set files contain one non-negative integer per line (decimal or
//! `0x`-prefixed hex); blank lines and `#` comments are ignored.

use intersect::prelude::*;
use std::path::Path;
use std::process::ExitCode;

struct Options {
    a_path: String,
    b_path: String,
    protocol: String,
    rounds: u32,
    universe: Option<u64>,
    seed: u64,
    repeat: u64,
    stream: u64,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: intersect-cli --a <file> --b <file> [options]\n\
         \n\
         options:\n\
           --protocol <name>   tree | tree-pipelined | sqrt | trivial |\n\
                               one-round | basic | iblt   (default: tree)\n\
           --rounds <r>        round budget for tree protocols (default: log* k)\n\
           --universe <n>      universe size (default: smallest power of two\n\
                               above the largest element; accepts 2^<e>)\n\
           --seed <s>          shared-randomness seed (default 0)\n\
           --repeat <N>        run N sessions with the same spec: repeat 0\n\
                               replays the file inputs, later repeats draw\n\
                               fresh random pairs of the same shape; the\n\
                               protocol is prepared once and every session\n\
                               reuses the plan (default 1)\n\
           --stream <N>        run N sessions as one client-pair stream:\n\
                               a per-pair context (seeded by --seed)\n\
                               precomputes correlated randomness once,\n\
                               session i draws coin seed\n\
                               stream_session_seed(seed, i); inputs as\n\
                               with --repeat (default 0: off)\n\
           --quiet             print only the intersection elements"
    );
    std::process::exit(2);
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(exp) = s.strip_prefix("2^") {
        let e: u32 = exp.parse().ok()?;
        return 1u64.checked_shl(e);
    }
    if let Some(hex) = s.strip_prefix("0x") {
        return u64::from_str_radix(hex, 16).ok();
    }
    s.parse().ok()
}

fn parse_args() -> Options {
    let mut opts = Options {
        a_path: String::new(),
        b_path: String::new(),
        protocol: "tree".into(),
        rounds: 0,
        universe: None,
        seed: 0,
        repeat: 1,
        stream: 0,
        quiet: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            match it.next() {
                Some(v) => v.clone(),
                None => {
                    eprintln!("missing value for {name}");
                    usage()
                }
            }
        };
        match arg.as_str() {
            "--a" => opts.a_path = value("--a"),
            "--b" => opts.b_path = value("--b"),
            "--protocol" => opts.protocol = value("--protocol"),
            "--rounds" => opts.rounds = value("--rounds").parse().unwrap_or_else(|_| usage()),
            "--universe" => {
                opts.universe = Some(parse_u64(&value("--universe")).unwrap_or_else(|| usage()))
            }
            "--seed" => opts.seed = parse_u64(&value("--seed")).unwrap_or_else(|| usage()),
            "--repeat" => {
                opts.repeat = parse_u64(&value("--repeat"))
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--stream" => {
                opts.stream = parse_u64(&value("--stream"))
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
    }
    if opts.a_path.is_empty() || opts.b_path.is_empty() {
        usage();
    }
    opts
}

fn load_set(path: &str) -> Result<ElementSet, String> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut elems = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let v = parse_u64(line)
            .ok_or_else(|| format!("{path}:{}: not an integer: {line:?}", lineno + 1))?;
        elems.push(v);
    }
    Ok(elems.into_iter().collect())
}

fn build_protocol(opts: &Options, spec: ProblemSpec) -> Result<Box<dyn SetIntersection>, String> {
    let r = if opts.rounds == 0 {
        log_star(spec.k.max(2)).max(1)
    } else {
        opts.rounds
    };
    Ok(match opts.protocol.as_str() {
        "tree" => Box::new(TreeProtocol::new(r)),
        "tree-pipelined" => Box::new(PipelinedTree::new(r)),
        "sqrt" => Box::new(SqrtProtocol::default()),
        "trivial" => Box::new(TrivialExchange::default()),
        "one-round" => ProtocolChoice::OneRound.build(spec),
        "basic" => ProtocolChoice::Basic.build(spec),
        "iblt" => Box::new(IbltReconcile::default()),
        other => return Err(format!("unknown protocol {other:?}; see --help")),
    })
}

/// Session inputs for multi-session modes: session 0 replays the file
/// inputs; sessions `1..count` draw fresh random pairs of the same
/// shape, seeded deterministically off `--seed`.
fn session_inputs(pair: &InputPair, spec: ProblemSpec, seed: u64, count: u64) -> Vec<InputPair> {
    let overlap = pair
        .ground_truth()
        .len()
        .max((2 * spec.k).saturating_sub(spec.n) as usize)
        .min(spec.k as usize);
    let mut pairs = vec![pair.clone()];
    for i in 1..count {
        pairs.push(SessionRequest::new(seed.wrapping_add(i), spec, overlap).input_pair());
    }
    pairs
}

fn main() -> ExitCode {
    let opts = parse_args();
    let (s, t) = match (load_set(&opts.a_path), load_set(&opts.b_path)) {
        (Ok(s), Ok(t)) => (s, t),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let max_elem = s
        .max_element()
        .into_iter()
        .chain(t.max_element())
        .max()
        .unwrap_or(0);
    let universe = opts
        .universe
        .unwrap_or_else(|| (max_elem + 1).next_power_of_two().max(16));
    if max_elem >= universe {
        eprintln!("error: element {max_elem} outside universe {universe}");
        return ExitCode::FAILURE;
    }
    let k = s.len().max(t.len()).max(1) as u64;
    let spec = ProblemSpec::new(universe, k);
    let protocol = match build_protocol(&opts, spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let pair = InputPair { s, t };
    let plan = protocol.prepare(spec);
    let started = std::time::Instant::now();
    let mut stream_ctx = None;
    let results = if opts.stream >= 1 {
        // One client-pair stream: the context forks the pair's coin
        // block (session i's coins come from stream_session_seed(seed,
        // i)) and presamples input-independent randomness once. Inputs
        // follow the --repeat convention: session 0 replays the files,
        // later sessions draw fresh pairs.
        let pairs = session_inputs(&pair, spec, opts.seed, opts.stream);
        let ctx = stream_ctx.insert(PairContext::new(std::sync::Arc::clone(&plan), opts.seed));
        execute_prepared_stream(ctx, &pairs)
    } else {
        // Repeat 0 replays the file inputs (bit-identical to a single run
        // with the same seed); later repeats draw fresh pairs of the same
        // shape. One prepared plan and one warm runner serve all sessions.
        let pairs = session_inputs(&pair, spec, opts.seed, opts.repeat);
        let seeds: Vec<u64> = (0..opts.repeat)
            .map(|i| opts.seed.wrapping_add(i))
            .collect();
        execute_prepared_batch(&plan, &pairs, &seeds)
    };
    let results = match results {
        Ok(results) => results,
        Err(e) => {
            eprintln!("protocol error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();
    let run = match &results[0] {
        Ok(run) => run.clone(),
        Err(e) => {
            eprintln!("protocol error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if run.alice != run.bob {
        eprintln!(
            "warning: the two parties disagree (a randomized failure; retry with another --seed)"
        );
    }

    for x in run.alice.iter() {
        println!("{x}");
    }
    if !opts.quiet {
        eprintln!(
            "\n# protocol {}  |S|={} |T|={} universe={}\n\
             # intersection: {} elements\n\
             # cost: {} bits total ({} from A, {} from B), {} messages, {} rounds",
            protocol.name(),
            pair.s.len(),
            pair.t.len(),
            universe,
            run.alice.len(),
            run.report.total_bits(),
            run.report.bits_alice,
            run.report.bits_bob,
            run.report.messages,
            run.report.rounds,
        );
        if results.len() > 1 || stream_ctx.is_some() {
            let ok: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
            let failed = results.len() - ok.len();
            let total_bits: u64 = ok.iter().map(|r| r.report.total_bits()).sum();
            let mean_bits = total_bits / ok.len().max(1) as u64;
            let per_sec = results.len() as f64 / elapsed.as_secs_f64().max(1e-9);
            let mode = if stream_ctx.is_some() {
                "stream"
            } else {
                "repeat"
            };
            eprintln!(
                "# {mode}: {} sessions over one prepared plan ({} ok, {} failed), \
                 mean {} bits/session, {:.0} sessions/s",
                results.len(),
                ok.len(),
                failed,
                mean_bits,
                per_sec,
            );
            if let Some(ctx) = &stream_ctx {
                eprintln!(
                    "# stream context: pair seed {}, {} sessions drawn, {} coin-block refills",
                    ctx.pair_seed(),
                    ctx.sessions(),
                    ctx.coin_refills(),
                );
            }
        }
    }
    ExitCode::SUCCESS
}
