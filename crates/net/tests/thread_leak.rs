//! Regression test for the thread-handle leak: the server used to keep
//! the `JoinHandle` of every session thread until its connection closed
//! and of every connection thread until shutdown, and a finished thread
//! that is never joined keeps its stack mapped — past ~32 000 sessions on
//! one connection the process ran out of memory maps and aborted. Alone
//! in its test binary: it counts this process's threads and mappings.

#![cfg(target_os = "linux")]

use intersect_core::api::ProtocolChoice;
use intersect_core::sets::ProblemSpec;
use intersect_engine::SessionRequest;
use intersect_net::prelude::*;
use std::sync::Arc;

fn request(id: u64) -> SessionRequest {
    let mut req = SessionRequest::new(id, ProblemSpec::new(1 << 20, 16), 5);
    req.seed = id;
    req.protocol = Some(ProtocolChoice::Trivial);
    req
}

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .unwrap()
        .lines()
        .count()
}

#[test]
fn sessions_and_connections_leave_no_threads_or_stacks_behind() {
    const WORKERS: u64 = 8;
    let mut server = NetServer::start(NetServerConfig::new(
        EndpointAddr::parse("tcp:127.0.0.1:0").unwrap(),
    ))
    .unwrap();
    let addr = server.local_addr().to_string();
    let (threads_before, maps_before) = (threads(), mappings());

    // 40 000 sessions multiplexed on one connection.
    let client = Arc::new(NetClient::connect(&addr).unwrap());
    let workers: Vec<_> = (0..WORKERS)
        .map(|t| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                for i in 0..5_000 {
                    client.run(&request(1 + t * 5_000 + i)).expect("session");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    // While the connection lives its threads are the connection thread
    // plus one helper per session that ran at once — a few per worker at
    // most (a worker's next Open can arrive while the helper of its last
    // session is still retiring it), not one per session.
    let live = threads() - threads_before;
    assert!(live <= 1 + 8 * WORKERS as usize, "{live} threads");
    drop(client);

    // 300 short-lived connections, one session each.
    for i in 0..300 {
        let client = NetClient::connect(&addr).unwrap();
        client.run(&request(100_000 + i)).expect("session");
    }
    // The last connection's thread may still be on its way out.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while threads() > threads_before && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(threads(), threads_before, "threads left behind");
    // An unjoined thread keeps two mappings (stack and guard page): 300
    // unreaped connection threads would be 600.
    let grown = mappings().saturating_sub(maps_before);
    assert!(grown < 100, "{grown} mappings left behind");

    let summary = server.shutdown();
    assert_eq!(summary.sessions_served, 40_300);
    assert_eq!(summary.sessions_failed, 0);
    assert_eq!(summary.connections, 301);
}
