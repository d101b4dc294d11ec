//! End-to-end transport tests: remote sessions over TCP and Unix
//! sockets are bit-identical to in-process runs, sessions multiplex
//! concurrently over one connection, protocol violations error cleanly,
//! and shutdown drains instead of dropping sessions mid-round.

use intersect_comm::runner::{run_two_party, RunConfig, Side};
use intersect_comm::trace::Traced;
use intersect_core::api::ProtocolChoice;
use intersect_core::sets::ProblemSpec;
use intersect_engine::SessionRequest;
use intersect_net::frame::{encode, read_frame, WireFrame};
use intersect_net::prelude::*;
use intersect_net::transport::Stream;
use std::io::Write;
use std::sync::Arc;

fn start_tcp_server() -> NetServer {
    NetServer::start(NetServerConfig::new(
        EndpointAddr::parse("tcp:127.0.0.1:0").unwrap(),
    ))
    .expect("bind server")
}

fn request(id: u64, k: u64, protocol: Option<ProtocolChoice>) -> SessionRequest {
    let spec = ProblemSpec::new(1 << 20, k);
    let mut req = SessionRequest::new(id, spec, (k / 3) as usize);
    req.seed = id.wrapping_mul(0x9E37).wrapping_add(7);
    req.protocol = protocol;
    req
}

/// In-process reference run of the same request: the routed plan over a
/// dedicated endpoint pair, Alice's transcript recorded.
fn reference(
    req: &SessionRequest,
    choice: ProtocolChoice,
) -> (
    intersect_core::sets::ElementSet,
    intersect_core::sets::ElementSet,
    intersect_comm::stats::CostReport,
    Vec<intersect_comm::trace::TraceEvent>,
) {
    let plan = choice.build(req.spec).prepare(req.spec);
    let pair = req.input_pair();
    // `coin_seed` collapses to `seed` for untagged requests and to the
    // pair-derived stream seed for stream-tagged ones.
    let cfg = RunConfig::with_seed(req.coin_seed());
    let out = run_two_party(
        &cfg,
        |chan, coins| {
            let mut traced = Traced::new(&mut *chan);
            let set = plan.execute(&mut traced, coins, Side::Alice, &pair.s)?;
            Ok((set, traced.into_events()))
        },
        |chan, coins| plan.execute(chan, coins, Side::Bob, &pair.t),
    )
    .expect("reference run");
    let (alice, events) = out.alice;
    (alice, out.bob, out.report, events)
}

#[test]
fn remote_run_is_bit_identical_to_in_process() {
    let mut server = start_tcp_server();
    let client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    let cells: Vec<(ProtocolChoice, u64)> = ProtocolChoice::all(3)
        .into_iter()
        .flat_map(|choice| [16, 32, 64].map(|k| (choice, k)))
        .collect();
    for (id, &(choice, k)) in (1..).zip(&cells) {
        let req = request(id, k, Some(choice));
        let (remote, events) = client.run_traced(&req).expect("remote session");
        let (ref_alice, ref_bob, ref_report, ref_events) = reference(&req, choice);
        let truth = req.input_pair().ground_truth();
        assert_eq!(remote.protocol, choice);
        assert_eq!(remote.alice, ref_alice, "{choice} k={k}: alice output");
        assert_eq!(remote.bob, ref_bob, "{choice} k={k}: bob output");
        assert!(remote.matches(&truth), "{choice} k={k}: ground truth");
        assert_eq!(remote.report, ref_report, "{choice} k={k}: cost report");
        assert_eq!(events, ref_events, "{choice} k={k}: transcript");
    }
    drop(client);
    let summary = server.shutdown();
    assert_eq!(summary.sessions_served, cells.len() as u64);
    assert_eq!(summary.sessions_failed, 0);
}

#[test]
fn stream_tagged_remote_sessions_share_pair_randomness_and_stay_exact() {
    let mut server = start_tcp_server();
    let client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    // One client pair streaming several sessions: each request line
    // carries pair=/stream= tags, so both halves derive their common
    // randomness from stream_session_seed(pair, i) — and a standalone
    // reference run of the tagged request reproduces the transcript.
    for i in 0..6u64 {
        let req = request(40 + i, 32, Some(ProtocolChoice::TreeLogStar)).in_stream(0xfeed, i);
        assert_ne!(req.coin_seed(), req.seed, "tags must move the coin seed");
        let (remote, events) = client.run_traced(&req).expect("streamed remote session");
        let (ref_alice, ref_bob, ref_report, ref_events) =
            reference(&req, ProtocolChoice::TreeLogStar);
        assert_eq!(remote.alice, ref_alice, "session {i}: alice output");
        assert_eq!(remote.bob, ref_bob, "session {i}: bob output");
        assert!(remote.matches(&req.input_pair().ground_truth()));
        assert_eq!(remote.report, ref_report, "session {i}: cost report");
        assert_eq!(events, ref_events, "session {i}: transcript");
    }
    drop(client);
    let summary = server.shutdown();
    assert_eq!(summary.sessions_served, 6);
    assert_eq!(summary.sessions_failed, 0);
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_works() {
    let path = std::env::temp_dir().join(format!("intersect-net-test-{}.sock", std::process::id()));
    let mut server = NetServer::start(NetServerConfig::new(EndpointAddr::Unix(
        path.to_string_lossy().into_owned(),
    )))
    .expect("bind unix server");
    let client = NetClient::connect(&server.local_addr().to_string()).unwrap();
    let req = request(5, 16, None);
    let run = client.run(&req).expect("unix session");
    assert!(run.matches(&req.input_pair().ground_truth()));
    drop(client);
    server.shutdown();
    assert!(!path.exists(), "socket file must be unlinked on shutdown");
}

#[test]
fn many_sessions_multiplex_over_one_connection() {
    let mut server = start_tcp_server();
    let client = Arc::new(NetClient::connect(&server.local_addr().to_string()).unwrap());
    let threads: Vec<_> = (0..8)
        .map(|t| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                for i in 0..4u64 {
                    let req = request(100 + t * 10 + i, 16 + 16 * (t % 3), None);
                    let run = client.run(&req).expect("multiplexed session");
                    assert!(run.matches(&req.input_pair().ground_truth()));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    drop(client);
    let summary = server.shutdown();
    assert_eq!(summary.sessions_served, 32);
    assert_eq!(summary.connections, 1, "all sessions shared one connection");
}

#[test]
fn unknown_session_id_errors_cleanly_and_connection_survives() {
    let mut server = start_tcp_server();
    let addr = server.local_addr().clone();
    let mut stream = Stream::connect(&addr).expect("raw connect");

    // A Msg for a session that was never opened must come back as a
    // clean Error frame addressed to that id.
    let mut payload = intersect_comm::bits::BitBuf::new();
    payload.push_bits(0b101, 3);
    stream
        .write_all(&encode(&WireFrame::Msg {
            session: 424242,
            depth: 1,
            payload,
        }))
        .unwrap();
    stream.flush().unwrap();
    match read_frame(&mut stream).expect("read error frame") {
        Some(WireFrame::Error { session, message }) => {
            assert_eq!(session, 424242);
            assert!(message.contains("unknown session"), "{message}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }

    // The connection is still usable: a well-formed Open afterwards is
    // accepted and served.
    let req = request(9, 16, Some(ProtocolChoice::Trivial));
    stream
        .write_all(&encode(&WireFrame::Open {
            session: 1,
            line: req.to_line(),
        }))
        .unwrap();
    stream.flush().unwrap();
    match read_frame(&mut stream).expect("read accept") {
        Some(WireFrame::Accept { session, protocol }) => {
            assert_eq!(session, 1);
            assert_eq!(protocol, "trivial");
        }
        other => panic!("expected Accept frame, got {other:?}"),
    }
    drop(stream);
    server.shutdown();
}

#[test]
fn malformed_open_line_is_refused_without_panic() {
    let mut server = start_tcp_server();
    let addr = server.local_addr().clone();
    let mut stream = Stream::connect(&addr).expect("raw connect");
    // k > n is infeasible; the server must refuse with an Error frame
    // and keep the connection serving.
    stream
        .write_all(&encode(&WireFrame::Open {
            session: 8,
            line: "n=16 k=64".into(),
        }))
        .unwrap();
    stream.flush().unwrap();
    match read_frame(&mut stream).expect("read refusal") {
        Some(WireFrame::Error { session, message }) => {
            assert_eq!(session, 8);
            assert!(message.contains("bad request"), "{message}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    // The connection is still usable afterwards.
    let good = request(2, 16, Some(ProtocolChoice::Trivial));
    stream
        .write_all(&encode(&WireFrame::Open {
            session: 9,
            line: good.to_line(),
        }))
        .unwrap();
    stream.flush().unwrap();
    match read_frame(&mut stream).expect("read accept") {
        Some(WireFrame::Accept { session, .. }) => assert_eq!(session, 9),
        other => panic!("expected Accept frame, got {other:?}"),
    }
    drop(stream);
    let summary = server.shutdown();
    assert_eq!(summary.sessions_rejected, 1);
}

/// Regression test for the graceful-shutdown fix: a shutdown issued
/// while sessions are in flight must drain them (they complete and
/// their reports remain bit-exact), say Goodbye on live connections,
/// and only then close — never drop the listener mid-round.
#[test]
fn shutdown_drains_in_flight_sessions_and_says_goodbye() {
    let mut server = start_tcp_server();
    let client = Arc::new(NetClient::connect(&server.local_addr().to_string()).unwrap());

    // Keep a stream of sessions in flight from several threads.
    let runner = {
        let client = Arc::clone(&client);
        std::thread::spawn(move || {
            let mut completed = 0u64;
            let mut rejected = 0u64;
            'outer: for round in 0..200u64 {
                for t in 0..4u64 {
                    let req = request(1000 + round * 8 + t, 64, None);
                    match client.run(&req) {
                        Ok(run) => {
                            assert!(
                                run.matches(&req.input_pair().ground_truth()),
                                "drained session must stay bit-exact"
                            );
                            completed += 1;
                        }
                        Err(_) => {
                            // Draining: opens are refused from here on.
                            rejected += 1;
                            break 'outer;
                        }
                    }
                }
            }
            (completed, rejected)
        })
    };

    // Let some sessions complete, then shut down concurrently with the
    // client still submitting.
    loop {
        if server.summary().sessions_served >= 3 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let summary = server.shutdown();
    let (completed, _rejected) = runner.join().expect("client thread");

    // Every session the server admitted ran to completion — nothing was
    // dropped mid-round by the shutdown.
    assert_eq!(summary.sessions_failed, 0, "no session died mid-round");
    assert!(summary.sessions_served >= 3);
    assert_eq!(
        summary.sessions_served, completed,
        "client saw every admitted session complete"
    );
    // The drain said goodbye on the live connection before closing it.
    assert!(client.server_said_goodbye(), "Goodbye must precede close");
}
