//! `intersect-top` — live ops view of a running `intersect-serve
//! --listen` telemetry plane.
//!
//! Polls `/metrics`, `/sessions`, `/version`, and `/healthz`, folds
//! each poll through the pure reducer in `intersect::tui::state`, and
//! draws the pure frame from
//! `intersect::tui::render`. The binary itself only owns argument
//! parsing, the poll loop, and the ANSI alternate screen; everything
//! worth testing lives in the library.
//!
//! `--once` (or `--frames N`) prints frames to stdout without touching
//! the terminal state — that is the headless mode CI's smoke test and
//! shell pipelines use.

use intersect::tui::{render, AppState, Sample};
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
intersect-top — live terminal dashboard for the intersect telemetry plane

usage: intersect-top [options]

options:
  --endpoint <addr>    telemetry address to poll (default 127.0.0.1:9184)
  --interval-ms <ms>   poll interval (default 1000, min 50)
  --once               scrape once, print one frame to stdout, exit
  --frames <n>         print n frames to stdout (headless; implies no
                       alternate screen), then exit
  --width <cols>       frame width in characters (default 100, min 40)
  --help               show this help

In live mode the dashboard runs on the ANSI alternate screen and exits
cleanly on Ctrl-C / SIGTERM. Point it at a server started with
`intersect-serve --listen <addr>`.
";

struct Options {
    endpoint: String,
    interval: Duration,
    frames: Option<u64>,
    width: usize,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            endpoint: "127.0.0.1:9184".to_string(),
            interval: Duration::from_millis(1000),
            frames: None,
            width: 100,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} requires a value"))
            };
            match arg.as_str() {
                "--endpoint" => opts.endpoint = value("--endpoint")?,
                "--interval-ms" => {
                    let ms: u64 = value("--interval-ms")?
                        .parse()
                        .map_err(|e| format!("--interval-ms: {e}"))?;
                    opts.interval = Duration::from_millis(ms.max(50));
                }
                "--once" => opts.frames = Some(1),
                "--frames" => {
                    let n: u64 = value("--frames")?
                        .parse()
                        .map_err(|e| format!("--frames: {e}"))?;
                    opts.frames = Some(n.max(1));
                }
                "--width" => {
                    let w: usize = value("--width")?
                        .parse()
                        .map_err(|e| format!("--width: {e}"))?;
                    opts.width = w.max(40);
                }
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(opts)
    }
}

/// Shutdown flag flipped from the signal handler (same pattern as
/// intersect-serve: process-wide dispositions, atomic store is
/// async-signal-safe).
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

fn resolve(endpoint: &str) -> Result<SocketAddr, String> {
    endpoint
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {endpoint}: {e}"))?
        .next()
        .ok_or_else(|| format!("{endpoint} resolved to no addresses"))
}

/// Headless mode: print `frames` frames to stdout, one poll apart.
fn run_headless(addr: SocketAddr, opts: &Options) -> ExitCode {
    let mut state = AppState::default();
    let mut last = Instant::now();
    for i in 0..opts.frames.unwrap_or(1) {
        if i > 0 {
            std::thread::sleep(opts.interval);
        }
        let sample = Sample::scrape(addr);
        let elapsed = last.elapsed().as_secs_f64().max(1e-3);
        last = Instant::now();
        state.reduce(&sample, elapsed);
        print!("{}", render(&state, opts.width));
    }
    if state.scrape_failures > 0 && state.ticks == state.scrape_failures {
        eprintln!("intersect-top: no endpoint reachable at {addr}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Live mode: alternate screen, redraw every interval, exit on signal.
fn run_live(addr: SocketAddr, opts: &Options) -> ExitCode {
    sig::install();
    // Enter the alternate screen and hide the cursor; both are restored
    // on every exit path below.
    print!("\x1b[?1049h\x1b[?25l");
    let mut state = AppState::default();
    let mut last = Instant::now();
    while !sig::requested() {
        let sample = Sample::scrape(addr);
        let elapsed = last.elapsed().as_secs_f64().max(1e-3);
        last = Instant::now();
        state.reduce(&sample, elapsed);
        // Home the cursor and clear below instead of a full clear to
        // avoid flicker on slow terminals.
        print!("\x1b[H\x1b[J{}", render(&state, opts.width));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        let deadline = Instant::now() + opts.interval;
        while Instant::now() < deadline && !sig::requested() {
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    print!("\x1b[?25h\x1b[?1049l");
    eprintln!("intersect-top: shutdown after {} tick(s)", state.ticks);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let addr = match resolve(&opts.endpoint) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.frames.is_some() {
        run_headless(addr, &opts)
    } else {
        run_live(addr, &opts)
    }
}
