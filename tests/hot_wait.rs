//! The hot hand-off between session halves changes when a receiver
//! sleeps, never what it receives: a long run of strictly alternating
//! sessions on one warm runner must meter exactly what dedicated
//! `run_two_party` calls meter.

use intersect::prelude::*;

const HOPS: usize = 40;

fn bits(n: usize) -> BitBuf {
    let mut b = BitBuf::new();
    for i in 0..n {
        b.push_bit(i % 3 == 0);
    }
    b
}

/// One half of a `HOPS`-hop ping-pong whose message widths depend on the
/// seed and on what the peer just sent, so a dropped, duplicated or
/// reordered frame changes the report.
fn half(starts: bool, seed: u64, chan: &mut Endpoint) -> Result<usize, ProtocolError> {
    let mut width = (seed % 61) as usize + 1;
    let mut received = 0;
    for hop in 0..HOPS {
        if (hop % 2 == 0) == starts {
            chan.send(bits(width))?;
        } else {
            let got = chan.recv()?.len();
            received += got;
            // Crosses the BitBuf inline capacity on some hops.
            width = (got * 7 + hop) % 300 + 1;
        }
    }
    Ok(received)
}

#[test]
fn two_thousand_ping_pong_sessions_match_dedicated_runs_bit_for_bit() {
    let mut runner = SessionRunner::start();
    for seed in 0..2000u64 {
        let cfg = RunConfig::with_seed(seed);
        let alice = move |chan: &mut Endpoint, _: &CoinSource| half(true, seed, chan);
        let bob = move |chan: &mut Endpoint, _: &CoinSource| half(false, seed, chan);
        let warm = runner.run(&cfg, alice, bob).unwrap();
        let dedicated = run_two_party(&cfg, alice, bob).unwrap();
        assert_eq!(warm.report, dedicated.report, "seed {seed}");
        assert_eq!(warm.report.rounds, HOPS as u64, "seed {seed}");
        assert_eq!(
            (warm.alice, warm.bob),
            (dedicated.alice, dedicated.bob),
            "seed {seed}"
        );
    }
}
