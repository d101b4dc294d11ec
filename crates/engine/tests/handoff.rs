//! The dispatcher → worker hand-off: a worker blocks on its one inbox, so
//! work reaches it without waiting out a poll interval, and an engine
//! with nothing to do makes no wake-ups at all.

use intersect_core::api::ProtocolChoice;
use intersect_core::sets::ProblemSpec;
use intersect_engine::prelude::*;
use std::sync::Mutex;
use std::time::Duration;

/// Both tests read clocks that the other would disturb.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn request(id: u64) -> SessionRequest {
    let mut req = SessionRequest::new(id, ProblemSpec::new(1 << 16, 16), 4);
    req.protocol = Some(ProtocolChoice::Trivial);
    req
}

/// Blocks until `count` outcomes have settled.
fn settle(engine: &Engine, count: usize) -> Vec<SessionOutcome> {
    let mut outcomes = Vec::with_capacity(count);
    while outcomes.len() < count {
        outcomes.extend(engine.drain_outcomes());
        std::thread::yield_now();
    }
    outcomes
}

#[test]
fn stream_blocks_reach_their_worker_without_a_poll_delay() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const BLOCKS: u64 = 200;
    const BLOCK: u64 = 4;
    let engine = Engine::start(EngineConfig::new(2));
    let stream = engine.open_stream(7);
    let mut waits: Vec<u64> = (0..BLOCKS)
        .map(|block| {
            let requests = (block * BLOCK..(block + 1) * BLOCK).map(request).collect();
            engine.submit_stream(stream, requests).unwrap();
            let outcomes = settle(&engine, BLOCK as usize);
            assert!(outcomes.iter().all(|o| o.succeeded()));
            // Planned by the dispatcher → started on the pair's worker.
            outcomes[0].timeline.wire_wait_micros
        })
        .collect();
    engine.finish();
    waits.sort_unstable();
    let median = waits[waits.len() / 2];
    // A worker that polls a second queue for 1 ms at a time picks a block
    // up after 0–1 000 µs, median ~500; a parked worker after one wake-up.
    assert!(
        median < 100,
        "median inbox wait {median} µs over {BLOCKS} sequential stream blocks"
    );
}

/// User + system CPU of this process in milliseconds (`/proc/self/stat`
/// fields 14 and 15, counted from the `)` that ends the command name, in
/// ticks of `USER_HZ` = 100).
#[cfg(target_os = "linux")]
fn process_cpu_millis() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let after_comm = &stat[stat.rfind(')').expect("stat names the command") + 1..];
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("utime and stime are integers"))
        .sum();
    ticks * 10
}

#[cfg(target_os = "linux")]
#[test]
fn an_idle_engine_uses_no_cpu() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::start(EngineConfig::new(8));
    // Warm every layer once, then let the hot windows that follow a
    // finished item run out.
    engine.submit(request(0)).unwrap();
    assert!(settle(&engine, 1)[0].succeeded());
    std::thread::sleep(Duration::from_millis(20));

    let before = process_cpu_millis();
    std::thread::sleep(Duration::from_millis(300));
    let used = process_cpu_millis() - before;
    engine.finish();
    // Eight workers polling 1 000×/s each would show as tens of ms; no
    // poll and no residual spin shows as nothing.
    assert!(used < 10, "idle engine used {used} ms of CPU in 300 ms");
}
