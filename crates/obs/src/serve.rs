//! An embedded, zero-dependency HTTP telemetry server.
//!
//! Production systems expose their health over a scrape endpoint, not a
//! file dump. This module serves the live observability plane on a
//! [`std::net::TcpListener`] — no external crates, one accept thread,
//! bounded request parsing — with seven endpoints:
//!
//! | Path | Content | Source |
//! |---|---|---|
//! | `/metrics` | Prometheus text exposition of the live registry | [`Sources::metrics`] |
//! | `/healthz` | `200 ok` until a conformance violation, then `503 degraded` | [`Sources::health`] |
//! | `/sessions` | engine registry snapshot as JSON | [`Sources::sessions`] |
//! | `/profile` | folded flamegraph stacks (`?weight=wall\|bits`) | [`Sources::profile`] |
//! | `/version` | build identity (crate version, catalogue size, profile) as JSON | [`Sources::version`] |
//! | `/trace/<session>` | the session's stitched Chrome trace (404 for unknown sessions) | [`Sources::trace`] |
//! | `/flightrecorder` | the always-on flight recorder ring as JSONL | [`Sources::flight`] |
//!
//! The server renders each response by calling the corresponding source
//! closure at request time, so scrapes always see current state. Every
//! served request increments `telemetry_requests_total{path}` on the
//! installed metrics registry, making the scrape plane observable
//! through itself.
//!
//! # Boundedness
//!
//! Requests are handled one at a time on the accept thread: a scraper
//! cannot fan out unbounded handler threads, request heads are capped at
//! 8 KiB, and reads carry a 2-second timeout. That is the right shape
//! for a metrics plane (one or two scrapers, small responses) and keeps
//! the server from ever competing with the worker pool for threads.

use crate::conformance::Health;
use crate::folded::Weight;
use crate::metrics::labeled;
use crate::subscriber;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum bytes of request head (request line + headers) the server
/// will read.
const MAX_REQUEST_HEAD: usize = 8 * 1024;

/// The content providers behind the endpoints. Each closure is
/// called per request; keep them cheap and lock-scoped.
pub struct Sources {
    /// Body for `/metrics` (Prometheus text exposition).
    pub metrics: Box<dyn Fn() -> String + Send + Sync>,
    /// Body for `/sessions` (JSON).
    pub sessions: Box<dyn Fn() -> String + Send + Sync>,
    /// Body for `/profile`, parameterized by the requested weight.
    pub profile: Box<dyn Fn(Weight) -> String + Send + Sync>,
    /// Body for `/version` (JSON build identity).
    pub version: Box<dyn Fn() -> String + Send + Sync>,
    /// Body for `/trace/<session>`: the session's stitched Chrome trace,
    /// or `None` when the session is unknown (served as 404).
    pub trace: Box<dyn Fn(u64) -> Option<String> + Send + Sync>,
    /// Body for `/flightrecorder` (JSONL dump of the always-on ring).
    pub flight: Box<dyn Fn() -> String + Send + Sync>,
    /// Health state served by `/healthz`.
    pub health: Arc<Health>,
}

impl std::fmt::Debug for Sources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sources")
            .field("health_ok", &self.health.ok())
            .finish_non_exhaustive()
    }
}

impl Sources {
    /// Sources serving empty metrics/sessions/profile bodies and an
    /// always-ok health — a starting point for tests and tools that only
    /// need a subset of endpoints.
    pub fn empty() -> Sources {
        Sources {
            metrics: Box::new(String::new),
            sessions: Box::new(|| "{}".to_string()),
            profile: Box::new(|_| String::new()),
            version: Box::new(|| "{}".to_string()),
            trace: Box::new(|_| None),
            flight: Box::new(crate::flight::dump_jsonl),
            health: Arc::new(Health::default()),
        }
    }
}

/// A running telemetry server. Shuts down on [`shutdown`](TelemetryServer::shutdown)
/// or drop.
#[derive(Debug)]
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`; port 0 picks an ephemeral
    /// port — read it back from [`local_addr`](TelemetryServer::local_addr))
    /// and starts the accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission denied).
    pub fn start(addr: &str, sources: Sources) -> std::io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("telemetry-serve".into())
            .spawn(move || accept_loop(listener, sources, stop_flag))
            .expect("spawn telemetry accept thread");
        Ok(TelemetryServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop_now();
    }
}

fn accept_loop(listener: TcpListener, sources: Sources, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = handle_connection(&mut stream, &sources);
    }
}

/// Reads the request head (bounded), routes, and writes one response.
fn handle_connection(stream: &mut TcpStream, sources: &Sources) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let head = match read_head(stream) {
        Some(head) => head,
        None => {
            let result = respond(stream, 400, "Bad Request", "text/plain", "bad request\n");
            // Drain what the client already sent (bounded) so the close
            // is a clean FIN, not an RST that races the 400 response.
            let mut sink = [0u8; 1024];
            for _ in 0..64 {
                match stream.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            return result;
        }
    };
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return respond(stream, 400, "Bad Request", "text/plain", "bad request\n"),
    };
    if method != "GET" {
        return respond(
            stream,
            405,
            "Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    // `/trace/<session>` carries an unbounded id in the path; fold it to
    // one label value so the request counter's cardinality stays fixed.
    let path_label = if path.starts_with("/trace/") {
        "/trace"
    } else {
        path
    };
    subscriber::counter_add(
        &labeled("telemetry_requests_total", &[("path", path_label)]),
        1,
    );
    match path {
        "/metrics" => {
            let body = (sources.metrics)();
            respond(
                stream,
                200,
                "OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/healthz" => {
            let health = &sources.health;
            if health.ok() {
                respond(stream, 200, "OK", "text/plain", "ok\n")
            } else {
                let body = format!(
                    "degraded: {} conformance violation(s)\n",
                    health.violations()
                );
                respond(stream, 503, "Service Unavailable", "text/plain", &body)
            }
        }
        "/sessions" => {
            let body = (sources.sessions)();
            respond(stream, 200, "OK", "application/json", &body)
        }
        "/version" => {
            let body = (sources.version)();
            respond(stream, 200, "OK", "application/json", &body)
        }
        "/profile" => {
            let weight = query
                .split('&')
                .find_map(|kv| kv.strip_prefix("weight="))
                .map(Weight::parse)
                .unwrap_or(Some(Weight::WallMicros));
            match weight {
                Some(w) => {
                    let body = (sources.profile)(w);
                    respond(stream, 200, "OK", "text/plain", &body)
                }
                None => respond(
                    stream,
                    400,
                    "Bad Request",
                    "text/plain",
                    "unknown weight; use weight=wall or weight=bits\n",
                ),
            }
        }
        "/flightrecorder" => {
            let body = (sources.flight)();
            respond(stream, 200, "OK", "application/x-ndjson", &body)
        }
        p if p.starts_with("/trace/") => {
            let session = p["/trace/".len()..].parse::<u64>().ok();
            match session.and_then(|id| (sources.trace)(id)) {
                Some(body) => respond(stream, 200, "OK", "application/json", &body),
                None => respond(stream, 404, "Not Found", "text/plain", "unknown session\n"),
            }
        }
        _ => respond(stream, 404, "Not Found", "text/plain", "not found\n"),
    }
}

/// Reads until the end of headers (`\r\n\r\n`) or the size cap; `None`
/// on malformed/oversized/timed-out requests.
fn read_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
                {
                    return String::from_utf8(buf).ok();
                }
                if buf.len() > MAX_REQUEST_HEAD {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// A minimal blocking HTTP GET against `addr` (no external crates),
/// returning `(status_code, body)`. The scrape-side twin of the server:
/// used by experiments and smoke tests to exercise the endpoints.
///
/// # Errors
///
/// Propagates connection and read failures; malformed responses surface
/// as `InvalidData`.
pub fn http_get(addr: SocketAddr, path_and_query: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let request =
        format!("GET {path_and_query} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    let body = match text.find("\r\n\r\n") {
        Some(idx) => text[idx + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Every request counts itself on whichever subscriber is installed
    /// in the process, so the tests that read those counters and the
    /// tests that send requests run one at a time.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

    fn one_at_a_time() -> MutexGuard<'static, ()> {
        ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn test_sources(health: Arc<Health>) -> Sources {
        Sources {
            metrics: Box::new(|| "# TYPE up gauge\nup 1\n".to_string()),
            sessions: Box::new(|| "{\"sessions\":[]}".to_string()),
            profile: Box::new(|w| format!("root;{} 10\n", w.label())),
            version: Box::new(|| "{\"version\":\"0.1.0-test\"}".to_string()),
            trace: Box::new(|id| (id == 7).then(|| "[{\"pid\":7}]".to_string())),
            flight: Box::new(|| "{\"event\":\"session-complete\"}\n".to_string()),
            health,
        }
    }

    #[test]
    fn serves_all_endpoints() {
        let _guard = one_at_a_time();
        let health = Arc::new(Health::default());
        let server =
            TelemetryServer::start("127.0.0.1:0", test_sources(Arc::clone(&health))).unwrap();
        let addr = server.local_addr();

        let (status, body) = http_get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("up 1"));

        let (status, body) = http_get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");

        let (status, body) = http_get(addr, "/sessions").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("sessions"));

        let (status, body) = http_get(addr, "/profile").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "root;wall_micros 10\n");

        let (status, body) = http_get(addr, "/profile?weight=bits").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "root;bits 10\n");

        let (status, body) = http_get(addr, "/version").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("0.1.0-test"));

        let (status, body) = http_get(addr, "/trace/7").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "[{\"pid\":7}]");

        let (status, body) = http_get(addr, "/flightrecorder").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("session-complete"));

        server.shutdown();
    }

    #[test]
    fn trace_requests_404_on_unknown_or_malformed_sessions_and_fold_the_counter_label() {
        let _guard = one_at_a_time();
        let sub = crate::Subscriber::new();
        let _g = sub.install();
        let health = Arc::new(Health::default());
        let server =
            TelemetryServer::start("127.0.0.1:0", test_sources(Arc::clone(&health))).unwrap();
        let addr = server.local_addr();
        let (status, _) = http_get(addr, "/trace/8").unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_get(addr, "/trace/banana").unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_get(addr, "/trace/7").unwrap();
        assert_eq!(status, 200);
        // All three requests land on one bounded-cardinality series.
        assert_eq!(
            sub.metrics()
                .counter("telemetry_requests_total{path=\"/trace\"}"),
            3
        );
    }

    #[test]
    fn healthz_degrades_after_a_violation() {
        let _guard = one_at_a_time();
        let health = Arc::new(Health::default());
        let server =
            TelemetryServer::start("127.0.0.1:0", test_sources(Arc::clone(&health))).unwrap();
        health.record_violations(3);
        let (status, body) = http_get(server.local_addr(), "/healthz").unwrap();
        assert_eq!(status, 503);
        assert!(body.contains("degraded: 3 conformance violation(s)"));
    }

    #[test]
    fn unknown_paths_methods_and_weights_are_rejected() {
        let _guard = one_at_a_time();
        let server = TelemetryServer::start("127.0.0.1:0", Sources::empty()).unwrap();
        let addr = server.local_addr();
        let (status, _) = http_get(addr, "/nope").unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_get(addr, "/profile?weight=calories").unwrap();
        assert_eq!(status, 400);

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 405"));
    }

    #[test]
    fn scrapes_count_themselves_when_a_subscriber_is_installed() {
        let _guard = one_at_a_time();
        let sub = crate::Subscriber::new();
        let _g = sub.install();
        let server = TelemetryServer::start("127.0.0.1:0", Sources::empty()).unwrap();
        let before = sub
            .metrics()
            .counter("telemetry_requests_total{path=\"/metrics\"}");
        http_get(server.local_addr(), "/metrics").unwrap();
        http_get(server.local_addr(), "/metrics").unwrap();
        assert_eq!(
            sub.metrics()
                .counter("telemetry_requests_total{path=\"/metrics\"}"),
            before + 2
        );
    }

    #[test]
    fn oversized_request_heads_are_rejected() {
        let _guard = one_at_a_time();
        let server = TelemetryServer::start("127.0.0.1:0", Sources::empty()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let huge = format!("GET /{} HTTP/1.1\r\n", "x".repeat(MAX_REQUEST_HEAD + 1024));
        stream.write_all(huge.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400"));
    }
}
