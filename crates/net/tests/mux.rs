//! Tests for the connection multiplexer (`crates/net/src/mux.rs`): no
//! hand-over of the read role is lost under heavy multiplexing, waits
//! time out on time whoever holds the role, control frames ride with the
//! next message in a fixed order, and a pinned open that did not wait
//! for its Accept still sees a refusal or a wrong Accept as an error.

use intersect_comm::bits::BitBuf;
use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::{run_two_party, RunConfig, Side};
use intersect_comm::stats::{ChannelStats, CostReport};
use intersect_core::api::ProtocolChoice;
use intersect_core::sets::{ElementSet, ProblemSpec};
use intersect_engine::prelude::{MultipartyChoice, MultipartyRequest};
use intersect_engine::SessionRequest;
use intersect_multiparty::AverageCase;
use intersect_net::frame::{encode, read_frame, WireFrame};
use intersect_net::prelude::*;
use intersect_net::transport::{Listener, Stream};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn loopback() -> EndpointAddr {
    EndpointAddr::parse("tcp:127.0.0.1:0").unwrap()
}

fn request(id: u64, k: u64, protocol: Option<ProtocolChoice>) -> SessionRequest {
    let mut req = SessionRequest::new(id, ProblemSpec::new(1 << 20, k), (k / 3) as usize);
    req.seed = id.wrapping_mul(0x9E37).wrapping_add(7);
    req.protocol = protocol;
    req
}

/// The same request run in process: both outputs and the cost report.
fn reference(req: &SessionRequest, choice: ProtocolChoice) -> (ElementSet, ElementSet, CostReport) {
    let plan = choice.build(req.spec).prepare(req.spec);
    let pair = req.input_pair();
    let out = run_two_party(
        &RunConfig::with_seed(req.coin_seed()),
        |chan, coins| plan.execute(chan, coins, Side::Alice, &pair.s),
        |chan, coins| plan.execute(chan, coins, Side::Bob, &pair.t),
    )
    .expect("reference run");
    (out.alice, out.bob, out.report)
}

/// Asserts a remote run is bit-identical to the in-process one.
fn assert_identical(run: &RemoteRun, req: &SessionRequest) {
    let (alice, bob, report) = reference(req, run.protocol);
    assert_eq!((&run.alice, &run.bob), (&alice, &bob), "session {}", req.id);
    assert_eq!(run.report, report, "session {}", req.id);
}

/// Alice's first message of a pinned `trivial` session: what her half
/// sends before it first receives.
fn first_message(req: &SessionRequest) -> BitBuf {
    struct FirstSend(Option<BitBuf>);
    impl Chan for FirstSend {
        fn send(&mut self, msg: BitBuf) -> Result<(), ProtocolError> {
            self.0.get_or_insert(msg);
            Ok(())
        }
        fn recv(&mut self) -> Result<BitBuf, ProtocolError> {
            Err(ProtocolError::ChannelClosed)
        }
        fn stats(&self) -> ChannelStats {
            ChannelStats::default()
        }
    }
    let plan = ProtocolChoice::Trivial.build(req.spec).prepare(req.spec);
    let mut chan = FirstSend(None);
    let coins = CoinSource::from_seed(req.coin_seed());
    let _ = plan.execute(&mut chan, &coins, Side::Alice, &req.input_pair().s);
    chan.0.expect("alice speaks first in trivial")
}

/// (i) Eight threads share one connection: pinned and unpinned opens
/// mixed, an m-party session every 25th. Every report equals the
/// in-process reference; a lost hand-over of the read role would stall
/// sessions until their 30 s timeouts (the 60 s deadline catches it), a
/// frame routed before its session's inbox exists would fail the session
/// with `unknown session id`.
#[test]
fn heavy_multiplexing_loses_no_hand_over_and_no_frame() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 500;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut server = NetServer::start(NetServerConfig::new(loopback())).unwrap();
        let client = Arc::new(NetClient::connect(&server.local_addr().to_string()).unwrap());
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let id = 1 + t * PER_THREAD + i;
                        if i % 25 == 24 {
                            let spec = ProblemSpec::new(1 << 16, 16);
                            let mut req = MultipartyRequest::new(
                                id,
                                spec,
                                4,
                                2,
                                MultipartyChoice::AverageCase,
                            );
                            req.seed = id;
                            req.player = Some((id % 4) as usize);
                            let run = client.run_multiparty(&req).expect("m-party session");
                            let local = AverageCase::new(req.spec, req.tree_rounds)
                                .execute(&req.player_sets(), req.seed)
                                .unwrap();
                            assert_eq!(run.report, local.report, "session {id}");
                            assert_eq!(run.result.as_ref(), Some(&local.result));
                            continue;
                        }
                        let pin = match i % 3 {
                            0 => Some(ProtocolChoice::Trivial),
                            1 => Some(ProtocolChoice::OneRound),
                            _ => None,
                        };
                        let req = request(id, 16, pin);
                        let run = client
                            .run(&req)
                            .unwrap_or_else(|e| panic!("session {id} ({pin:?}): {e}"));
                        assert_identical(&run, &req);
                        if let Some(pin) = pin {
                            assert_eq!(run.protocol, pin);
                        }
                    }
                })
            })
            .collect();
        let panicked = workers.into_iter().filter_map(|w| w.join().err()).count();
        drop(client);
        let summary = server.shutdown();
        let _ = done_tx.send((panicked, summary));
    });
    let (panicked, summary) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("multiplexed sessions stalled: a hand-over of the read role was lost");
    assert_eq!(panicked, 0, "a worker failed");
    assert_eq!(summary.sessions_served, THREADS * PER_THREAD);
    assert_eq!(summary.sessions_failed, 0);
    assert_eq!(summary.sessions_rejected, 0);
    assert_eq!(summary.connections, 1);
}

/// (ii) The session deadline is per wait, not per `read`: it fires on
/// time for the thread that reads the socket while frames for others
/// keep arriving, and for a thread that sleeps while another reads.
#[test]
fn waits_time_out_on_time_whoever_reads() {
    let timeout = Duration::from_millis(400);
    let mut config = NetServerConfig::new(loopback());
    config.session_timeout = timeout;
    let mut server = NetServer::start(config).unwrap();
    let mut stream = Stream::connect(server.local_addr()).unwrap();
    // A timeout that never fires must fail this test, not hang it.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // Two sessions whose Bob halves wait for a first message that never
    // comes. The first runs on the connection thread, which therefore
    // reads the socket; it reads the second Open, whose half then sleeps
    // on a helper thread.
    let opened = Instant::now();
    for session in [1u64, 2] {
        let line = request(session, 16, Some(ProtocolChoice::Trivial)).to_line();
        stream
            .write_all(&encode(&WireFrame::Open { session, line }))
            .unwrap();
    }
    // Frames for somebody else (fins of long-gone sessions are dropped
    // silently) keep every blocking read short.
    let mut writer = stream.try_clone().unwrap();
    let chatterer = std::thread::spawn(move || {
        for _ in 0..150 {
            if writer
                .write_all(&encode(&WireFrame::Fin { session: 9999 }))
                .is_err()
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    let mut timed_out = Vec::new();
    let mut accepts = 0;
    while timed_out.len() < 2 {
        match read_frame(&mut stream).expect("read").expect("frame") {
            WireFrame::Accept { .. } => accepts += 1,
            WireFrame::Error { session, message } => {
                assert!(message.contains("timed out"), "{message}");
                timed_out.push((session, opened.elapsed()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    chatterer.join().unwrap();
    assert_eq!(accepts, 2);
    for (session, after) in timed_out {
        assert!(
            after >= timeout && after < timeout + Duration::from_millis(300),
            "session {session} timed out after {after:?}, configured {timeout:?}"
        );
    }
    drop(stream);
    let summary = server.shutdown();
    assert_eq!(summary.sessions_failed, 2);
}

/// (iii) Open and Alice's first message in a single `write` are served,
/// and the four answers of a `trivial` session come in the order Accept,
/// Msg, Fin, Done.
#[test]
fn open_and_first_message_in_one_write_are_served_in_order() {
    let mut server = NetServer::start(NetServerConfig::new(loopback())).unwrap();
    let mut stream = Stream::connect(server.local_addr()).unwrap();
    let req = request(7, 16, Some(ProtocolChoice::Trivial));
    let mut bytes = encode(&WireFrame::Open {
        session: 1,
        line: req.to_line(),
    });
    bytes.extend(encode(&WireFrame::Msg {
        session: 1,
        depth: 1,
        payload: first_message(&req),
    }));
    stream.write_all(&bytes).unwrap();

    let mut next = || read_frame(&mut stream).expect("read").expect("frame");
    match next() {
        WireFrame::Accept { session, protocol } => {
            assert_eq!((session, protocol.as_str()), (1, "trivial"));
        }
        other => panic!("expected Accept, got {other:?}"),
    }
    assert!(matches!(next(), WireFrame::Msg { session: 1, .. }));
    assert!(matches!(next(), WireFrame::Fin { session: 1 }));
    match next() {
        WireFrame::Done {
            session, result, ..
        } => {
            assert_eq!(session, 1);
            assert_eq!(result, req.input_pair().ground_truth().as_slice());
        }
        other => panic!("expected Done, got {other:?}"),
    }
    drop(stream);
    let summary = server.shutdown();
    assert_eq!(summary.sessions_served, 1);
}

/// Occupies one server session slot: an Open whose Alice never speaks.
fn hold_a_slot(server: &NetServer) -> Stream {
    let mut holder = Stream::connect(server.local_addr()).unwrap();
    let line = request(900, 16, Some(ProtocolChoice::Trivial)).to_line();
    holder
        .write_all(&encode(&WireFrame::Open { session: 1, line }))
        .unwrap();
    assert!(matches!(
        read_frame(&mut holder).unwrap(),
        Some(WireFrame::Accept { .. })
    ));
    holder
}

fn assert_refused(err: ProtocolError, why: &str) {
    match err {
        ProtocolError::Internal(msg) => {
            assert!(
                msg.starts_with("server refused: ") && msg.contains(why),
                "{msg}"
            )
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
}

/// (iii) A pinned open goes ahead without its Accept; a refusal at
/// capacity still reaches the caller as `server refused: …`, the stray
/// `unknown session id` answer to the early message is dropped, and the
/// connection serves the next session.
#[test]
fn pinned_open_refused_at_capacity_then_served() {
    let mut config = NetServerConfig::new(loopback());
    config.max_active_sessions = 1;
    let mut server = NetServer::start(config).unwrap();
    let holder = hold_a_slot(&server);

    let client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    let req = request(11, 16, Some(ProtocolChoice::Trivial));
    assert_refused(client.run(&req).unwrap_err(), "session capacity");

    drop(holder);
    while server.active_sessions() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let run = client.run(&req).expect("session after the refusal");
    assert!(run.matches(&req.input_pair().ground_truth()));
    assert_identical(&run, &req);
    drop(client);
    let summary = server.shutdown();
    assert_eq!(summary.sessions_rejected, 1);
    assert_eq!(summary.sessions_served, 1);
}

/// (iii) The same while the server drains.
#[test]
fn pinned_open_refused_while_draining() {
    let mut config = NetServerConfig::new(loopback());
    config.drain_timeout = Duration::from_secs(2);
    let mut server = NetServer::start(config).unwrap();
    let holder = hold_a_slot(&server);
    let client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    // (A connection the server has not accepted yet when the drain
    // starts is closed, not served: make sure this one is in.)
    let req = request(12, 16, Some(ProtocolChoice::Trivial));
    client.run(&req).expect("session before the drain");

    // The held session keeps the drain window open for its 2 s.
    let shutdown = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(100));
    assert_refused(client.run(&req).unwrap_err(), "draining");
    drop(holder);
    let summary = shutdown.join().unwrap();
    assert_eq!(summary.sessions_rejected, 1);
}

/// A scripted stand-in for the server's first answers, in front of a
/// real server: it reads the client's first Open and its early Msg,
/// answers with `script(session)`, and from then on relays bytes both
/// ways, so the connection's next session is served for real.
fn scripted_then_real(
    server: &NetServer,
    script: impl FnOnce(u64) -> Vec<WireFrame> + Send + 'static,
) -> EndpointAddr {
    let listener = Listener::bind(&loopback()).unwrap();
    let front = listener.local_addr();
    let real = server.local_addr().clone();
    std::thread::spawn(move || {
        let mut client = listener.accept().unwrap();
        let session = match read_frame(&mut client).unwrap() {
            Some(WireFrame::Open { session, .. }) => session,
            other => panic!("expected Open, got {other:?}"),
        };
        assert!(matches!(
            read_frame(&mut client).unwrap(),
            Some(WireFrame::Msg { .. })
        ));
        for frame in script(session) {
            client.write_all(&encode(&frame)).unwrap();
        }
        let upstream = Stream::connect(&real).unwrap();
        let pipe = |mut from: Stream, mut to: Stream| {
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                while let Ok(n @ 1..) = from.read(&mut buf) {
                    if to.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
                to.shutdown();
            })
        };
        let down = pipe(upstream.try_clone().unwrap(), client.try_clone().unwrap());
        pipe(client, upstream).join().unwrap();
        down.join().unwrap();
    });
    front
}

/// (iii) A request line the server cannot parse: refusal, stray answer
/// dropped, next session served.
#[test]
fn pinned_open_refused_for_a_bad_line_then_served() {
    let mut server = NetServer::start(NetServerConfig::new(loopback())).unwrap();
    let front = scripted_then_real(&server, |session| {
        vec![
            WireFrame::Error {
                session,
                message: "bad request: k exceeds n".into(),
            },
            WireFrame::Error {
                session,
                message: format!("unknown session id {session}"),
            },
        ]
    });
    let client = NetClient::connect(&front.to_string()).unwrap();
    let req = request(13, 16, Some(ProtocolChoice::Trivial));
    assert_refused(client.run(&req).unwrap_err(), "bad request");
    let run = client.run(&req).expect("session after the refusal");
    assert_identical(&run, &req);
    drop(client);
    server.shutdown();
}

/// (iii) An Accept that names another protocol than the request pinned
/// is an error, never a session run under the wrong plan.
#[test]
fn accept_contradicting_the_pin_is_an_error() {
    let mut server = NetServer::start(NetServerConfig::new(loopback())).unwrap();
    let front = scripted_then_real(&server, |session| {
        vec![WireFrame::Accept {
            session,
            protocol: ProtocolChoice::OneRound.to_string(),
        }]
    });
    let client = NetClient::connect(&front.to_string()).unwrap();
    let req = request(14, 16, Some(ProtocolChoice::Trivial));
    match client.run(&req).unwrap_err() {
        ProtocolError::Internal(msg) => assert!(msg.contains("server accepted"), "{msg}"),
        other => panic!("expected a pin mismatch, got {other:?}"),
    }
    drop(client);
    server.shutdown();
}

/// An Open and a framing violation in one `write`: the session admitted
/// from that buffer must not keep its slot when the connection dies with
/// it unrun — two slots, five such connections, then a real session.
#[test]
fn open_followed_by_garbage_releases_its_slot() {
    let mut config = NetServerConfig::new(loopback());
    config.max_active_sessions = 2;
    let mut server = NetServer::start(config).unwrap();
    for _ in 0..5 {
        let mut stream = Stream::connect(server.local_addr()).unwrap();
        let line = request(21, 16, Some(ProtocolChoice::Trivial)).to_line();
        let mut bytes = encode(&WireFrame::Open { session: 1, line });
        bytes.extend(u32::MAX.to_le_bytes()); // an oversized length prefix
        stream.write_all(&bytes).unwrap();
        let mut answers = Vec::new();
        while let Ok(Some(frame)) = read_frame(&mut stream) {
            answers.push(frame);
        }
        let reported = answers.iter().any(|frame| {
            matches!(frame, WireFrame::Error { session: 0, message } if message.contains("protocol violation"))
        });
        assert!(reported, "{answers:?}");
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.active_sessions() > 0 {
        assert!(Instant::now() < deadline, "a session slot leaked");
        std::thread::sleep(Duration::from_millis(1));
    }
    let client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    let req = request(22, 16, Some(ProtocolChoice::Trivial));
    assert_identical(&client.run(&req).expect("session after the leaks"), &req);
    drop(client);
    let summary = server.shutdown();
    assert_eq!(summary.sessions_rejected, 0);
    assert_eq!((summary.sessions_served, summary.sessions_failed), (1, 5));
}

/// Both halves of `basic` send their hashed sets before either receives.
/// At this `k` each message is larger than a Unix socket's buffers, so
/// each side's `write` can only finish if the other side reads meanwhile
/// — with one session on the connection, the writing threads themselves.
#[cfg(unix)]
#[test]
fn exchange_larger_than_the_socket_buffers_completes() {
    let path = std::env::temp_dir().join(format!("intersect-mux-{}.sock", std::process::id()));
    let endpoint = EndpointAddr::parse(&format!("unix:{}", path.display())).unwrap();
    let mut server = NetServer::start(NetServerConfig::new(endpoint)).unwrap();
    let client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    let started = Instant::now();
    let req = request(31, 1 << 17, Some(ProtocolChoice::Basic));
    let run = client.run(&req).expect("large exchange");
    assert!(run.report.bits_alice.min(run.report.bits_bob) / 8 > 512 * 1024);
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "writers waited for each other"
    );
    assert_identical(&run, &req);
    drop(client);
    server.shutdown();
}

/// With no background reader, `server_said_goodbye()` routes what has
/// arrived itself — also when the Goodbye sits behind more frames than
/// the read buffer holds at once.
#[test]
fn goodbye_behind_a_backlog_is_seen() {
    let listener = Listener::bind(&loopback()).unwrap();
    let client = NetClient::connect(&listener.local_addr().to_string()).unwrap();
    let mut peer = listener.accept().unwrap();
    let mut bytes = Vec::new();
    for session in 1..=8_000 {
        bytes.extend(encode(&WireFrame::Fin { session }));
    }
    assert!(bytes.len() > 3 * 16 * 1024);
    bytes.extend(encode(&WireFrame::Goodbye));
    peer.write_all(&bytes).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !client.server_said_goodbye() {
        assert!(Instant::now() < deadline, "the backlog hid the Goodbye");
        std::thread::sleep(Duration::from_millis(1));
    }
}
