//! Remote sessions multiplexed on one connection — where the waiting
//! session reads the socket, control frames ride with the next message
//! and a pinned open does not wait for its Accept — report exactly what
//! the same sessions report in process. (The multiplexer's own tests are
//! in `crates/net/tests/mux.rs`; this one keeps it under `cargo test`.)

use intersect::comm::runner::{run_two_party, RunConfig, Side};
use intersect::core::api::ProtocolChoice;
use intersect::core::sets::ProblemSpec;
use intersect::engine::SessionRequest;
use intersect::net::prelude::*;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn multiplexed_remote_sessions_match_in_process_runs_bit_for_bit() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 100;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let endpoint = EndpointAddr::parse("tcp:127.0.0.1:0").unwrap();
        let mut server = NetServer::start(NetServerConfig::new(endpoint)).unwrap();
        let client = Arc::new(NetClient::connect(&server.local_addr().to_string()).unwrap());
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let id = 1 + t * PER_THREAD + i;
                        let spec = ProblemSpec::new(1 << 20, 16 + 16 * (i % 3));
                        let mut req = SessionRequest::new(id, spec, (i % 7) as usize);
                        req.seed = id.wrapping_mul(0x9E37);
                        // Pinned opens go ahead of their Accept; the
                        // others wait for the server's routing.
                        req.protocol = [
                            Some(ProtocolChoice::Trivial),
                            Some(ProtocolChoice::TreeLogStar),
                            None,
                        ][(i % 3) as usize];
                        let run = client.run(&req).expect("remote session");

                        let plan = run.protocol.build(req.spec).prepare(req.spec);
                        let pair = req.input_pair();
                        let local = run_two_party(
                            &RunConfig::with_seed(req.coin_seed()),
                            |chan, coins| plan.execute(chan, coins, Side::Alice, &pair.s),
                            |chan, coins| plan.execute(chan, coins, Side::Bob, &pair.t),
                        )
                        .expect("in-process run");
                        assert_eq!(run.report, local.report, "session {id}");
                        assert_eq!((&run.alice, &run.bob), (&local.alice, &local.bob));
                    }
                })
            })
            .collect();
        let failed = workers.into_iter().filter_map(|w| w.join().err()).count();
        drop(client);
        let _ = done_tx.send((failed, server.shutdown()));
    });
    // A lost hand-over of the read role stalls sessions for their 30 s
    // timeouts; the whole run takes about a second.
    let (failed, summary) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("multiplexed sessions stalled");
    assert_eq!(failed, 0, "a worker failed");
    assert_eq!(summary.sessions_served, THREADS * PER_THREAD);
    assert_eq!(summary.sessions_failed + summary.sessions_rejected, 0);
    assert_eq!(summary.connections, 1);
}
