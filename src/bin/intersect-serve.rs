//! Serve many intersection sessions from one process: the front end of
//! the `intersect-engine` session scheduler.
//!
//! ```text
//! intersect-serve [--file <path>] [options]      # line-delimited requests
//! intersect-serve --batch <count> [options]      # generated workload
//! ```
//!
//! Request lines are whitespace-separated `key=value` tokens — e.g.
//! `id=3 n=2^20 k=64 overlap=16 seed=7 protocol=tree-log-star` — with
//! blank lines and `#` comments ignored; see
//! [`SessionRequest::parse_line`]. Without `--file`, requests are read
//! from stdin. Batch mode generates `count` sessions from the
//! `--n/--k/--overlap/--seed` generator parameters instead.

use intersect::engine::prelude::*;
use std::io::{BufRead, Write as _};
use std::process::ExitCode;

struct Options {
    file: Option<String>,
    batch: Option<u64>,
    transport: Option<String>,
    n: u64,
    k: u64,
    overlap: Option<usize>,
    seed: u64,
    workers: usize,
    queue: usize,
    ring: usize,
    in_flight: Option<usize>,
    protocol: Option<String>,
    round_penalty: f64,
    debug_session: Option<u64>,
    no_wait: bool,
    json: bool,
    quiet: bool,
    trace_out: Option<String>,
    chrome_trace: Option<String>,
    metrics_out: Option<String>,
    listen: Option<String>,
    linger_ms: u64,
    slack: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: intersect-serve [--file <path>] [options]\n\
         \n\
         input (default: read request lines from stdin):\n\
           --file <path>       read request lines from a file\n\
           --batch <count>     generate <count> sessions instead of reading;\n\
                               shaped by --n, --k, --overlap, --seed\n\
           --n <n>             batch universe size (default 2^20; accepts 2^<e>)\n\
           --k <k>             batch cardinality bound (default 64)\n\
           --overlap <o>       batch intersection size (default k/4)\n\
           --seed <s>          batch base seed; session i uses s + i (default 1)\n\
         \n\
         network transport (see crates/net):\n\
           --transport <ep>    serve remote clients instead of reading\n\
                               request lines: tcp:HOST:PORT or unix:PATH\n\
                               (tcp port 0 picks a free port; the bound\n\
                               address is printed to stderr). Runs until\n\
                               SIGINT/SIGTERM, then drains in-flight\n\
                               sessions before exiting. --protocol,\n\
                               --round-penalty and --in-flight apply;\n\
                               --listen serves net_* metrics live\n\
         \n\
         engine:\n\
           --workers <w>       worker threads (default 4, min 2)\n\
           --queue <c>         admission queue capacity (default 64)\n\
           --ring <r>          recent-outcome ring capacity surfaced on\n\
                               /sessions (default 64, min 1)\n\
           --in-flight <m>     max concurrent sessions (default: workers)\n\
           --protocol <name>   pin every session to one protocol (default:\n\
                               cost-model routing; per-line overrides still win)\n\
           --round-penalty <b> bits one round is worth to the router (default 0)\n\
           --debug-session <i> dump a phase-by-phase bit breakdown for session i\n\
           --no-wait           reject when the queue is full instead of waiting\n\
         \n\
         output:\n\
           --json              emit the final snapshot as JSON on stdout\n\
                               (default: markdown tables on stderr)\n\
           --quiet             suppress per-session result lines\n\
           --trace-out <path>  write the observability event stream as JSONL\n\
           --chrome-trace <p>  write a Chrome trace-event JSON file (open in\n\
                               chrome://tracing or ui.perfetto.dev)\n\
           --metrics-out <p>   write metrics in Prometheus text format\n\
         \n\
         telemetry plane:\n\
           --listen <addr>     serve live telemetry over HTTP while the\n\
                               workload runs (port 0 picks a free port):\n\
                               /metrics, /healthz, /sessions, /profile,\n\
                               /version, /trace/<id>, /flightrecorder\n\
                               (SIGQUIT also dumps the flight recorder\n\
                               to stderr)\n\
           --linger-ms <ms>    keep the telemetry server up this long after\n\
                               the workload drains (default 0)\n\
           --slack <f>         theory-conformance slack factor on predicted\n\
                               bits and rounds (default 3x bits / 4x rounds;\n\
                               checking is on whenever --listen or --slack\n\
                               is given, and violations fail the run)"
    );
    std::process::exit(2);
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(exp) = s.strip_prefix("2^") {
        let e: u32 = exp.parse().ok()?;
        return 1u64.checked_shl(e);
    }
    s.parse().ok()
}

fn parse_args() -> Options {
    let mut opts = Options {
        file: None,
        batch: None,
        transport: None,
        n: 1 << 20,
        k: 64,
        overlap: None,
        seed: 1,
        workers: 4,
        queue: 64,
        ring: 64,
        in_flight: None,
        protocol: None,
        round_penalty: 0.0,
        debug_session: None,
        no_wait: false,
        json: false,
        quiet: false,
        trace_out: None,
        chrome_trace: None,
        metrics_out: None,
        listen: None,
        linger_ms: 0,
        slack: None,
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
        let int = |name: &str, v: String| -> u64 {
            parse_u64(&v).unwrap_or_else(|| {
                eprintln!("bad integer for {name}: {v:?}");
                usage()
            })
        };
        match arg.as_str() {
            "--file" => opts.file = Some(value("--file")),
            "--batch" => opts.batch = Some(int("--batch", value("--batch"))),
            "--transport" => opts.transport = Some(value("--transport")),
            "--n" => opts.n = int("--n", value("--n")),
            "--k" => opts.k = int("--k", value("--k")),
            "--overlap" => opts.overlap = Some(int("--overlap", value("--overlap")) as usize),
            "--seed" => opts.seed = int("--seed", value("--seed")),
            "--workers" => opts.workers = int("--workers", value("--workers")) as usize,
            "--queue" => opts.queue = int("--queue", value("--queue")) as usize,
            "--ring" => opts.ring = int("--ring", value("--ring")) as usize,
            "--in-flight" => {
                opts.in_flight = Some(int("--in-flight", value("--in-flight")) as usize)
            }
            "--protocol" => opts.protocol = Some(value("--protocol")),
            "--round-penalty" => {
                opts.round_penalty = value("--round-penalty").parse().unwrap_or_else(|_| usage())
            }
            "--debug-session" => {
                opts.debug_session = Some(int("--debug-session", value("--debug-session")))
            }
            "--no-wait" => opts.no_wait = true,
            "--json" => opts.json = true,
            "--quiet" => opts.quiet = true,
            "--trace-out" => opts.trace_out = Some(value("--trace-out")),
            "--chrome-trace" => opts.chrome_trace = Some(value("--chrome-trace")),
            "--metrics-out" => opts.metrics_out = Some(value("--metrics-out")),
            "--listen" => opts.listen = Some(value("--listen")),
            "--linger-ms" => opts.linger_ms = int("--linger-ms", value("--linger-ms")),
            "--slack" => opts.slack = Some(value("--slack").parse().unwrap_or_else(|_| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other}");
                usage()
            }
        }
    }
    opts
}

fn requests(opts: &Options) -> Result<Vec<SessionRequest>, String> {
    if let Some(count) = opts.batch {
        let spec = intersect::core::sets::ProblemSpec::new(opts.n, opts.k.clamp(1, opts.n));
        let overlap = opts.overlap.unwrap_or((opts.k / 4) as usize);
        return Ok((0..count)
            .map(|i| {
                let mut req = SessionRequest::new(i, spec, overlap);
                req.seed = opts.seed.wrapping_add(i);
                req
            })
            .collect());
    }
    let text = match &opts.file {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        None => {
            let mut buf = String::new();
            for line in std::io::stdin().lock().lines() {
                buf.push_str(&line.map_err(|e| format!("stdin: {e}"))?);
                buf.push('\n');
            }
            buf
        }
    };
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        match SessionRequest::parse_line(line) {
            Ok(Some(mut req)) => {
                // Default ids to the request's position so outcomes stay
                // attributable when the input omits them.
                if req.id == 0 && req.seed == 0 {
                    req.id = lineno as u64;
                    req.seed = lineno as u64;
                }
                out.push(req);
            }
            Ok(None) => {}
            Err(e) => return Err(format!("line {}: {e}", lineno + 1)),
        }
    }
    Ok(out)
}

/// Shutdown flag flipped from the signal handler. Signal dispositions
/// are process-wide; storing into an atomic is async-signal-safe.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);
    pub static DUMP: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" fn on_dump(_signum: i32) {
        DUMP.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
        install_dump();
    }

    /// SIGQUIT only: engine mode wants the flight-recorder dump without
    /// changing what SIGINT/SIGTERM do to a batch run.
    pub fn install_dump() {
        const SIGQUIT: i32 = 3;
        unsafe {
            signal(SIGQUIT, on_dump);
        }
    }

    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }

    /// True once per SIGQUIT: consumes the dump request.
    pub fn take_dump() -> bool {
        DUMP.swap(false, Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn install_dump() {}
    pub fn requested() -> bool {
        false
    }
    pub fn take_dump() -> bool {
        false
    }
}

/// Writes the flight-recorder ring to stderr, framed so operators can
/// find it in a busy log (the SIGQUIT / post-mortem path).
fn dump_flight_recorder(reason: &str) {
    eprintln!("flight recorder dump ({reason}):");
    eprint!("{}", intersect::obs::flight::dump_jsonl());
}

/// `--transport` mode: serve remote clients over the framed transport
/// plane until a shutdown signal arrives, then drain and report.
fn run_transport(spec: &str, opts: &Options, policy: RoutePolicy) -> ExitCode {
    let endpoint = match intersect::net::EndpointAddr::parse(spec) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let want_obs = opts.metrics_out.is_some() || opts.listen.is_some();
    let subscriber = want_obs.then(intersect::obs::Subscriber::new);
    let installed = subscriber.as_ref().map(|s| s.install());
    if want_obs {
        intersect::version::register_build_info();
    }

    let mut config = intersect::net::NetServerConfig::new(endpoint);
    config.policy = policy;
    if let Some(cap) = opts.in_flight {
        config.max_active_sessions = cap;
    }
    let mut server = match intersect::net::NetServer::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {spec}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Machine-parseable (scripts scrape it for the picked port), mirrors
    // the telemetry plane's "listening on" line.
    eprintln!("transport: listening on {}", server.local_addr());

    let telemetry = match &opts.listen {
        Some(addr) => {
            let metrics_sub = subscriber.clone().expect("listen implies a subscriber");
            let profile_sub = metrics_sub.clone();
            let trace_sub = metrics_sub.clone();
            let sources = intersect::obs::Sources {
                metrics: Box::new(move || {
                    intersect::obs::export::prometheus_with_help(
                        &metrics_sub.metrics().snapshot(),
                        &metrics_sub.metrics().help_snapshot(),
                    )
                }),
                // No engine in transport mode; remote sessions are
                // visible through the net_* metrics instead.
                sessions: Box::new(|| "[]".to_string()),
                profile: Box::new(move |w| {
                    intersect::obs::folded::folded_stacks(&profile_sub.events(), w)
                }),
                // Server-half spans only; the client half of the trace
                // lives in the remote process until stitched offline.
                trace: Box::new(move |session| {
                    let events: Vec<_> = trace_sub
                        .events()
                        .into_iter()
                        .filter(|e| e.session == Some(session))
                        .collect();
                    (!events.is_empty()).then(|| intersect::obs::export::chrome_trace(&events))
                }),
                version: Box::new(intersect::version::version_json),
                health: Default::default(),
                ..intersect::obs::Sources::empty()
            };
            match intersect::obs::TelemetryServer::start(addr, sources) {
                Ok(server) => {
                    eprintln!("telemetry: listening on {}", server.local_addr());
                    Some(server)
                }
                Err(e) => {
                    eprintln!("error: cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    sig::install();
    while !sig::requested() {
        if sig::take_dump() {
            dump_flight_recorder("SIGQUIT");
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    eprintln!("transport: shutdown signal received, draining");
    let summary = server.shutdown();
    eprintln!(
        "transport summary: connections={} served={} failed={} rejected={}",
        summary.connections,
        summary.sessions_served,
        summary.sessions_failed,
        summary.sessions_rejected,
    );

    if let Some(server) = telemetry {
        if opts.linger_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(opts.linger_ms));
        }
        server.shutdown();
    }
    drop(installed);

    if let (Some(path), Some(sub)) = (&opts.metrics_out, &subscriber) {
        let text = intersect::obs::export::prometheus(&sub.metrics().snapshot());
        match std::fs::write(path, text) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if summary.sessions_failed > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn print_outcome(out: &mut impl std::io::Write, outcome: &SessionOutcome) {
    let status = if outcome.succeeded() {
        "ok".to_string()
    } else {
        match &outcome.error {
            Some(e) => format!("error: {e}"),
            None => "disagree".to_string(),
        }
    };
    let _ = writeln!(
        out,
        "id={} protocol={} bits={} messages={} rounds={} latency_us={} {}",
        outcome.request.id,
        outcome.protocol,
        outcome.report.total_bits(),
        outcome.report.messages,
        outcome.report.rounds,
        outcome.latency_micros,
        status,
    );
    if let Some(trace) = &outcome.trace {
        let _ = writeln!(out, "# session {} phase breakdown:", outcome.request.id);
        for phase in trace {
            let _ = writeln!(
                out,
                "#   {:>10}: {:>8} bits sent, {:>8} bits received, {} messages",
                phase.label, phase.bits_sent, phase.bits_received, phase.messages
            );
        }
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    let policy = match &opts.protocol {
        None => RoutePolicy::Auto {
            round_penalty: opts.round_penalty,
        },
        Some(name) => match name.parse() {
            Ok(choice) => RoutePolicy::Fixed(choice),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    // Transport mode takes requests from the wire, not stdin.
    if let Some(spec) = &opts.transport {
        return run_transport(spec, &opts, policy);
    }
    let requests = match requests(&opts) {
        Ok(reqs) => reqs,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Conformance checking is armed whenever the telemetry plane is up
    // (so /healthz means something) or the operator set a slack.
    let conformance = (opts.listen.is_some() || opts.slack.is_some()).then(|| {
        opts.slack
            .map(intersect::obs::ConformanceConfig::with_slack)
            .unwrap_or_default()
    });
    let config = EngineConfig {
        workers: opts.workers,
        queue_capacity: opts.queue,
        ring: opts.ring,
        max_in_flight: opts.in_flight.unwrap_or(opts.workers),
        policy,
        debug_session: opts.debug_session,
        conformance,
    };

    // Tracing is paid for only when asked for: without an export flag or
    // a live telemetry listener no subscriber is installed and the
    // instrumented hot paths stay at a single relaxed atomic load.
    let want_obs = opts.trace_out.is_some()
        || opts.chrome_trace.is_some()
        || opts.metrics_out.is_some()
        || opts.listen.is_some();
    let subscriber = want_obs.then(intersect::obs::Subscriber::new);
    let installed = subscriber.as_ref().map(|s| s.install());

    if want_obs {
        intersect::version::register_build_info();
    }

    let engine = Engine::start(config);
    let server = match &opts.listen {
        Some(addr) => {
            let watch = engine.watch();
            let health = engine
                .conformance_monitor()
                .map(|m| m.health())
                .unwrap_or_default();
            let metrics_sub = subscriber.clone().expect("listen implies a subscriber");
            let profile_sub = metrics_sub.clone();
            let trace_sub = metrics_sub.clone();
            let sources = intersect::obs::Sources {
                metrics: Box::new(move || {
                    intersect::obs::export::prometheus_with_help(
                        &metrics_sub.metrics().snapshot(),
                        &metrics_sub.metrics().help_snapshot(),
                    )
                }),
                sessions: Box::new(move || watch.sessions_json()),
                profile: Box::new(move |w| {
                    intersect::obs::folded::folded_stacks(&profile_sub.events(), w)
                }),
                trace: Box::new(move |session| {
                    let events: Vec<_> = trace_sub
                        .events()
                        .into_iter()
                        .filter(|e| e.session == Some(session))
                        .collect();
                    (!events.is_empty()).then(|| intersect::obs::export::chrome_trace(&events))
                }),
                flight: Box::new(intersect::obs::flight::dump_jsonl),
                version: Box::new(intersect::version::version_json),
                health,
            };
            match intersect::obs::TelemetryServer::start(addr, sources) {
                Ok(server) => {
                    eprintln!("telemetry: listening on {}", server.local_addr());
                    Some(server)
                }
                Err(e) => {
                    eprintln!("error: cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    sig::install_dump();
    let mut invalid = 0u64;
    for req in requests {
        if sig::take_dump() {
            dump_flight_recorder("SIGQUIT");
        }
        let result = if opts.no_wait {
            engine.try_submit(req)
        } else {
            engine.submit(req)
        };
        match result {
            Ok(()) => {}
            Err(SubmitError::Rejected { queue_full }) => {
                // Counted in the snapshot's rejected column; nothing to do
                // per session unless the engine is gone entirely.
                if !queue_full {
                    eprintln!("error: engine stopped accepting sessions");
                    return ExitCode::FAILURE;
                }
            }
            Err(SubmitError::Invalid(why)) => {
                eprintln!("skipping invalid request: {why}");
                invalid += 1;
            }
        }
    }
    let report = engine.finish();
    if sig::take_dump() {
        dump_flight_recorder("SIGQUIT");
    }
    if let Some(server) = server {
        // Hold the scrape plane open so a collector can observe the
        // settled state before the process exits, still answering
        // SIGQUIT flight-recorder dumps while lingering.
        let mut remaining = opts.linger_ms;
        while remaining > 0 {
            let slice = remaining.min(50);
            std::thread::sleep(std::time::Duration::from_millis(slice));
            remaining -= slice;
            if sig::take_dump() {
                dump_flight_recorder("SIGQUIT");
            }
        }
        server.shutdown();
    }
    drop(installed);

    // stdout carries only machine-parseable output: the per-session
    // result lines and (with --json) the snapshot. Everything meant for
    // a human — the markdown snapshot, rejection tallies, export paths —
    // goes to stderr.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    if !opts.quiet {
        for outcome in &report.outcomes {
            print_outcome(&mut out, outcome);
        }
    }
    if opts.json {
        let _ = writeln!(out, "{}", report.snapshot.to_json());
    } else {
        eprint!("{}", report.snapshot.to_markdown());
    }
    let rejected = report.snapshot.metrics.rejected;
    if rejected > 0 {
        eprintln!("{rejected} session(s) rejected by admission control");
    }
    if invalid > 0 {
        eprintln!("{invalid} invalid request(s) skipped");
    }
    let mut conformance_failed = false;
    if let Some(conf) = &report.conformance {
        if conf.all_conformant() {
            eprintln!(
                "conformance: {} session(s) checked, all within envelope",
                conf.checked
            );
        } else {
            conformance_failed = true;
            eprintln!(
                "conformance: {} violation(s) across {} checked session(s)",
                conf.violation_count, conf.checked
            );
            for v in conf.violations.iter().take(8) {
                eprintln!(
                    "  {}: observed {} {} > limit {}",
                    v.protocol,
                    v.observed,
                    v.bound.label(),
                    v.limit
                );
            }
        }
    }

    let mut io_error = false;
    if let Some(sub) = &subscriber {
        let mut export = |path: &str, contents: String| match std::fs::write(path, contents) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {path}: {e}");
                io_error = true;
            }
        };
        let events = sub.take_events();
        if let Some(path) = &opts.trace_out {
            export(path, intersect::obs::export::jsonl(&events));
        }
        if let Some(path) = &opts.chrome_trace {
            export(path, intersect::obs::export::chrome_trace(&events));
        }
        if let Some(path) = &opts.metrics_out {
            export(
                path,
                intersect::obs::export::prometheus(&sub.metrics().snapshot()),
            );
        }
    }

    let failed = report.outcomes.iter().any(|o| !o.succeeded());
    // Post-mortem: the flight recorder holds the last moments before a
    // failure or envelope breach, so surface it while it is still warm.
    if failed || conformance_failed {
        dump_flight_recorder(if failed {
            "session failures"
        } else {
            "conformance violations"
        });
    }
    if failed || invalid > 0 || io_error || conformance_failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
