//! End-to-end tests of the `intersect-serve` binary.

use std::io::Write;
use std::process::Command;

fn serve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_intersect-serve"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("intersect-serve-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn serves_a_request_file() {
    let dir = temp_dir("file");
    let path = dir.join("requests.txt");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "# three sessions, one pinned to the trivial protocol").unwrap();
    writeln!(f, "id=1 n=2^16 k=16 overlap=4 seed=11").unwrap();
    writeln!(f, "id=2 n=2^18 k=32 overlap=8 seed=12 protocol=trivial").unwrap();
    writeln!(f, "id=3 n=2^16 k=8 overlap=0 seed=13 protocol=tree:2").unwrap();
    drop(f);

    let out = serve()
        .args(["--file", path.to_str().unwrap(), "--workers", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("id=1"), "{stdout}");
    assert!(stdout.contains("id=2 protocol=trivial"), "{stdout}");
    assert!(stdout.contains("id=3 protocol=tree:2"), "{stdout}");
    assert_eq!(stdout.matches(" ok").count(), 3, "{stdout}");
    // The human-facing snapshot goes to stderr; stdout stays parseable.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!stdout.contains("### engine snapshot"), "{stdout}");
    assert!(
        stderr.contains("### engine snapshot — 2 workers"),
        "{stderr}"
    );
}

#[test]
fn batch_mode_emits_json_snapshot() {
    let out = serve()
        .args([
            "--batch",
            "20",
            "--n",
            "2^18",
            "--k",
            "32",
            "--overlap",
            "10",
            "--workers",
            "4",
            "--quiet",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let snapshot: intersect::engine::EngineSnapshot = serde_json::from_str(&stdout).unwrap();
    assert_eq!(snapshot.workers, 4);
    assert_eq!(snapshot.metrics.submitted, 20);
    assert_eq!(snapshot.metrics.completed, 20);
    assert_eq!(snapshot.metrics.rejected, 0);
    assert!(snapshot.metrics.total_bits > 0);
}

#[test]
fn debug_session_dumps_a_phase_breakdown() {
    let out = serve()
        .args([
            "--batch",
            "4",
            "--n",
            "2^16",
            "--k",
            "16",
            "--debug-session",
            "2",
            "--workers",
            "2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("# session 2 phase breakdown:"), "{stdout}");
    assert!(stdout.contains("round "), "{stdout}");
}

#[test]
fn stdin_requests_and_bad_lines_fail_cleanly() {
    use std::process::Stdio;
    let mut child = serve()
        .args(["--workers", "2", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"n=2^16 k=8 overlap=2 seed=5\nn=16 k=64\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn trace_exports_write_structured_files() {
    let dir = temp_dir("exports");
    let trace = dir.join("events.jsonl");
    let chrome = dir.join("trace.json");
    let metrics = dir.join("metrics.prom");
    let out = serve()
        .args([
            "--batch",
            "5",
            "--n",
            "2^16",
            "--k",
            "16",
            "--workers",
            "2",
            "--quiet",
            "--json",
            "--trace-out",
            trace.to_str().unwrap(),
            "--chrome-trace",
            chrome.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    for path in [&trace, &chrome, &metrics] {
        assert!(
            stderr.contains(&format!("wrote {}", path.to_str().unwrap())),
            "{stderr}"
        );
    }

    // stdout is still exactly the JSON snapshot.
    let snapshot: intersect::engine::EngineSnapshot =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(snapshot.metrics.completed, 5);

    // JSONL: every line is a JSON object with a timestamp and a kind.
    let jsonl = std::fs::read_to_string(&trace).unwrap();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert!(v.get("ts_us").is_some(), "{line}");
        assert!(v.get("kind").is_some(), "{line}");
    }

    // Chrome trace: a JSON array of records each carrying the fields the
    // trace viewer requires, with at least one complete span whose args
    // hold the session's bit accounting.
    let chrome_text = std::fs::read_to_string(&chrome).unwrap();
    let records: Vec<serde_json::Value> = serde_json::from_str(&chrome_text).unwrap();
    assert!(!records.is_empty());
    for r in &records {
        for field in ["name", "ph", "ts", "pid", "tid"] {
            assert!(r.get(field).is_some(), "missing {field}: {r:?}");
        }
    }
    assert!(
        records.iter().any(|r| {
            r.get("ph").and_then(|v| v.as_str()) == Some("X")
                && r.get("name").and_then(|v| v.as_str()) == Some("session")
                && r.get("args")
                    .and_then(|a| a.get("bits_sent"))
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0)
                    > 0
        }),
        "no engine session span in {chrome_text}"
    );

    // Prometheus text: the engine counters and latency summary are there.
    let prom = std::fs::read_to_string(&metrics).unwrap();
    assert!(
        prom.contains("# TYPE engine_sessions_completed counter"),
        "{prom}"
    );
    assert!(prom.contains("engine_sessions_completed 5"), "{prom}");
    assert!(
        prom.contains("engine_session_latency_micros_count 5"),
        "{prom}"
    );
}

#[test]
fn rejections_are_reported_on_stderr() {
    let out = serve()
        .args([
            "--batch",
            "500",
            "--n",
            "2^18",
            "--k",
            "32",
            "--workers",
            "2",
            "--queue",
            "1",
            "--no-wait",
            "--quiet",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snapshot: intersect::engine::EngineSnapshot =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(snapshot.metrics.submitted + snapshot.metrics.rejected, 500);
    assert!(snapshot.metrics.rejected > 0, "nothing was rejected");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains(&format!(
            "{} session(s) rejected by admission control",
            snapshot.metrics.rejected
        )),
        "{stderr}"
    );
}

#[test]
fn fixed_protocol_pin_applies_to_all_sessions() {
    let out = serve()
        .args([
            "--batch",
            "6",
            "--n",
            "2^16",
            "--k",
            "16",
            "--protocol",
            "sqrt",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.matches("protocol=sqrt").count(), 6, "{stdout}");
    // The per-protocol table (with the router's full protocol name) is
    // part of the stderr snapshot now.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("sqrt-fknn"), "{stderr}");
}

/// Spawns serve with `--listen`, scrapes the trace plane live, and
/// checks that `/trace/<id>` stitches the session's spans under its
/// minted trace id, `/flightrecorder` replays completed sessions, and
/// `--ring` bounds the `/sessions` recent ring.
#[test]
fn live_trace_plane_serves_stitched_traces_and_the_flight_recorder() {
    use std::io::{BufRead, BufReader};

    let dir = temp_dir("traceplane");
    let path = dir.join("requests.txt");
    let mut f = std::fs::File::create(&path).unwrap();
    for id in 1..=5u64 {
        writeln!(f, "id={id} n=2^16 k=16 overlap=4 seed={}", id + 10).unwrap();
    }
    drop(f);

    let mut child = serve()
        .args([
            "--file",
            path.to_str().unwrap(),
            "--workers",
            "2",
            "--ring",
            "3",
            "--quiet",
            "--json",
            "--listen",
            "127.0.0.1:0",
            "--linger-ms",
            "30000",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    let stderr = BufReader::new(child.stderr.take().unwrap());
    let mut addr: Option<std::net::SocketAddr> = None;
    for line in stderr.lines() {
        let line = line.unwrap();
        if let Some(rest) = line.strip_prefix("telemetry: listening on ") {
            addr = Some(rest.trim().parse().unwrap());
            break;
        }
    }
    let addr = addr.expect("serve printed the telemetry address");
    let get = |path: &str| intersect::obs::serve::http_get(addr, path).unwrap();

    // Wait until all five sessions have drained into the recorder.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        let (status, body) = get("/flightrecorder");
        assert_eq!(status, 200);
        if body.matches("session-complete").count() >= 5 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "flight recorder never saw 5 completions:\n{body}"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    // Every flight-recorder line is a self-contained JSON object.
    let (_, flight) = get("/flightrecorder");
    for line in flight.lines() {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        assert!(v.get("event").is_some(), "{line}");
    }

    // The stitched trace for session 3 carries its deterministic trace
    // id (a pure function of id and seed) on a session span.
    let expected = intersect::obs::TraceContext::mint(3, 13).trace_hex();
    let (status, trace) = get("/trace/3");
    assert_eq!(status, 200, "{trace}");
    let records: Vec<serde_json::Value> = serde_json::from_str(&trace).unwrap();
    assert!(
        records.iter().any(|r| {
            r.get("name").and_then(|v| v.as_str()) == Some("session")
                && r.get("args")
                    .and_then(|a| a.get("trace"))
                    .and_then(|v| v.as_str())
                    == Some(expected.as_str())
        }),
        "trace id {expected} not found on a session span in /trace/3:\n{trace}"
    );
    // Unknown sessions 404 instead of returning an empty trace.
    let (status, _) = get("/trace/99999");
    assert_eq!(status, 404);

    // --ring 3 bounds the recent ring and is echoed in the document.
    let (status, sessions) = get("/sessions");
    assert_eq!(status, 200);
    let doc: serde_json::Value = serde_json::from_str(&sessions).unwrap();
    assert_eq!(doc["ring"].as_u64(), Some(3), "{sessions}");
    assert_eq!(doc["recent"].as_array().unwrap().len(), 3, "{sessions}");

    child.kill().unwrap();
    child.wait().unwrap();
}

/// Runs `intersect-serve --batch 200 --json --quiet` plus `extra` and
/// returns the child with stdout and stderr piped.
fn spawn_batch(extra: &[&str]) -> std::process::Child {
    serve()
        .args([
            "--batch",
            "200",
            "--n",
            "2^18",
            "--k",
            "32",
            "--workers",
            "2",
            "--quiet",
            "--json",
        ])
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap()
}

/// Scraping every telemetry endpoint while the batch runs changes no
/// communication bit, and every honest session passes its theory
/// envelope at the default slack.
#[test]
fn scraping_under_load_changes_no_bits_and_every_session_conforms() {
    use std::io::{BufRead, BufReader, Read};

    let quiet = spawn_batch(&[]).wait_with_output().unwrap();
    assert!(quiet.status.success());
    let quiet: intersect::engine::EngineSnapshot =
        serde_json::from_str(&String::from_utf8_lossy(&quiet.stdout)).unwrap();

    let mut child = spawn_batch(&["--listen", "127.0.0.1:0", "--linger-ms", "300"]);
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut line = String::new();
    let addr: std::net::SocketAddr = loop {
        line.clear();
        assert!(stderr.read_line(&mut line).unwrap() > 0, "no address");
        if let Some(rest) = line.strip_prefix("telemetry: listening on ") {
            break rest.trim().parse().unwrap();
        }
    };
    // Until the server goes away after the linger.
    let paths = ["/metrics", "/healthz", "/sessions", "/profile?weight=bits"];
    let scrapes = (0..)
        .map_while(|i| intersect::obs::serve::http_get(addr, paths[i % paths.len()]).ok())
        .count();
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{rest}");
    assert!(scrapes > 0, "the scraper never reached the server");

    let scraped: intersect::engine::EngineSnapshot =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(scraped.metrics.completed, 200);
    assert_eq!(scraped.metrics, quiet.metrics, "scraping changed a session");
    assert!(
        rest.contains("conformance: 200 session(s) checked, all within envelope"),
        "{rest}"
    );
}

/// Over loopback TCP, both halves of a remote session emit their spans
/// under the trace id minted from `(id, seed)`, and the client's
/// waterfall tiles the latency it observed.
#[test]
fn remote_halves_share_one_trace_id_and_the_waterfall_tiles_latency() {
    use intersect::net::prelude::*;
    use intersect::obs;

    let sub = obs::Subscriber::new();
    let _installed = sub.install();
    let mut server = NetServer::start(NetServerConfig::new(
        EndpointAddr::parse("tcp:127.0.0.1:0").unwrap(),
    ))
    .unwrap();
    let client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    for (id, k) in [(1000u64, 16u64), (1001, 64)] {
        let mut req = intersect::engine::SessionRequest::new(
            id,
            intersect::core::sets::ProblemSpec::new(1 << 20, k),
            (k / 3) as usize,
        );
        req.seed = id.wrapping_mul(0xE24) + 7;
        let expected = obs::TraceContext::mint(req.id, req.seed);
        let t0 = std::time::Instant::now();
        let (run, timeline) = client.run_timed(&req).unwrap();
        let wall = t0.elapsed().as_micros() as u64;
        assert!(run.matches(&req.input_pair().ground_truth()), "k={k}");

        let events: Vec<obs::Event> = sub
            .events()
            .into_iter()
            .filter(|e| e.session == Some(id))
            .collect();
        let spans = events
            .iter()
            .filter(|e| matches!(e.kind, obs::EventKind::Span { .. }) && e.name == "session")
            .count();
        assert!(spans >= 2, "k={k}: {spans} session spans");
        assert!(
            events
                .iter()
                .all(|e| e.trace.is_none() || e.trace == Some(expected))
                && events.iter().any(|e| e.trace == Some(expected)),
            "k={k}: spans do not share trace {}",
            expected.trace_hex()
        );

        let segments = timeline.segments();
        assert_eq!(
            segments.iter().map(|(_, us)| us).sum::<u64>(),
            timeline.total_micros()
        );
        assert!(
            timeline.total_micros() <= wall + segments.len() as u64,
            "k={k}: waterfall {timeline:?} exceeds the {wall} µs observed"
        );
    }
    drop(client);
    assert_eq!(server.shutdown().sessions_failed, 0);
}
