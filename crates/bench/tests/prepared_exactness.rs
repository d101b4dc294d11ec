//! Prepared-plan bit-exactness: the parameter phase may be hoisted and
//! cached, the transcript may not change.
//!
//! The `prepared` module's contract is that for every protocol,
//! `plan.execute(chan, coins, side, input)` transmits **byte-identical**
//! messages to a cold `SetIntersection::run` on the same channel with
//! the same coins. This test checks the contract exhaustively over the
//! catalogue — every [`ProtocolChoice`] at `k ∈ {16, 64, 256}` — and
//! through the engine's plan cache, so the plan under test is the shared
//! cached copy, not a fresh one:
//!
//! - every payload either party moves, byte for byte (a recording
//!   [`Chan`] wrapper on both sides);
//! - the [`CostReport`] (bits per direction, messages, rounds);
//! - both parties' output sets;
//! - and the warm-runner paths ([`execute_prepared`] and a block of
//!   sessions through [`execute_prepared_batch`]) agree with both.

use intersect_comm::bits::BitBuf;
use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::{run_two_party, RunConfig, Side};
use intersect_comm::stats::{ChannelStats, CostReport};
use intersect_core::prelude::*;
use intersect_engine::plan_cache::PlanCache;
use rand::SeedableRng;
use std::sync::Arc;

/// One party's view of a transcript: direction plus exact payload.
type Transcript = Vec<(Side, BitBuf)>;

/// A [`Chan`] adapter that logs every payload it moves, byte for byte.
/// Unlike `intersect_comm::trace::Traced` (sizes and labels only), this
/// keeps the bits themselves, which is what bit-exactness is about.
struct Recording<C> {
    inner: C,
    side: Side,
    log: Transcript,
}

impl<C: Chan> Recording<C> {
    fn new(inner: C, side: Side) -> Self {
        Recording {
            inner,
            side,
            log: Vec::new(),
        }
    }
}

impl<C: Chan> Chan for Recording<C> {
    fn send(&mut self, msg: BitBuf) -> Result<(), ProtocolError> {
        self.log.push((self.side, msg.clone()));
        self.inner.send(msg)
    }

    fn recv(&mut self) -> Result<BitBuf, ProtocolError> {
        let msg = self.inner.recv()?;
        self.log.push((self.side.peer(), msg.clone()));
        Ok(msg)
    }

    fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }
}

struct RecordedRun {
    alice: ElementSet,
    bob: ElementSet,
    report: CostReport,
    transcript_a: Transcript,
    transcript_b: Transcript,
}

/// Runs one session over a dedicated pair with recording channels on
/// both sides; `party` is either `SetIntersection::run` or
/// `PreparedProtocol::execute` partially applied.
fn record<F>(seed: u64, pair: &InputPair, party: F) -> RecordedRun
where
    F: Fn(&mut dyn Chan, &CoinSource, Side, &ElementSet) -> Result<ElementSet, ProtocolError>
        + Sync,
{
    let party = &party;
    let out = run_two_party(
        &RunConfig::with_seed(seed),
        |chan, coins| {
            let mut rec = Recording::new(&mut *chan, Side::Alice);
            let set = party(&mut rec, coins, Side::Alice, &pair.s)?;
            Ok((set, rec.log))
        },
        |chan, coins| {
            let mut rec = Recording::new(&mut *chan, Side::Bob);
            let set = party(&mut rec, coins, Side::Bob, &pair.t)?;
            Ok((set, rec.log))
        },
    )
    .expect("session infrastructure");
    RecordedRun {
        alice: out.alice.0,
        bob: out.bob.0,
        report: out.report,
        transcript_a: out.alice.1,
        transcript_b: out.bob.1,
    }
}

#[test]
fn cached_plans_transmit_byte_identical_transcripts_across_the_catalogue() {
    let cache = PlanCache::new();
    for choice in ProtocolChoice::all(3) {
        for k in [16u64, 64, 256] {
            let spec = ProblemSpec::new(1 << 20, k);
            // Distinct inputs and coins per cell, both deterministic.
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(k ^ 0xbeef);
            let pair = InputPair::random_with_overlap(&mut rng, spec, k as usize, (k / 4) as usize);
            let seed = 1000 + k;

            let proto = choice.build(spec);
            let cold = record(seed, &pair, |chan, coins, side, input| {
                proto.run(chan, coins, side, spec, input)
            });

            cache.get_or_prepare(choice, spec); // warm the entry…
            let plan = cache.get_or_prepare(choice, spec); // …then take the cached copy
            let plan_ref = &plan;
            let warm = record(seed, &pair, |chan, coins, side, input| {
                plan_ref.execute(chan, coins, side, input)
            });

            let cell = format!("{choice} k={k}");
            assert_eq!(
                cold.transcript_a, warm.transcript_a,
                "{cell}: Alice's transcript changed"
            );
            assert_eq!(
                cold.transcript_b, warm.transcript_b,
                "{cell}: Bob's transcript changed"
            );
            assert_eq!(cold.report, warm.report, "{cell}: cost report changed");
            assert_eq!(
                (cold.alice, cold.bob),
                (warm.alice.clone(), warm.bob.clone()),
                "{cell}: outputs changed"
            );

            // The warm-runner entry point drives the same plan through a
            // reused SessionRunner; it must agree with the dedicated pair.
            let runner = execute_prepared(&Arc::clone(&plan), &pair, seed)
                .expect("prepared execution succeeds");
            assert_eq!(runner.report, warm.report, "{cell}: runner cost differs");
            assert_eq!(
                (&runner.alice, &runner.bob),
                (&warm.alice, &warm.bob),
                "{cell}: runner outputs differ"
            );

            // A block of sessions on that runner: each one is the same
            // session again, so each must agree as well.
            let block = execute_prepared_batch(&plan, &[pair.clone(), pair], &[seed, seed])
                .expect("block executes");
            for run in block {
                let run = run.unwrap_or_else(|e| panic!("{cell} block session: {e}"));
                assert_eq!(run.report, warm.report, "{cell}: block cost differs");
                assert_eq!(
                    (&run.alice, &run.bob),
                    (&warm.alice, &warm.bob),
                    "{cell}: block outputs differ"
                );
            }
        }
    }
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        2 * stats.entries,
        "each catalogue cell looked up twice: one miss, one hit"
    );
}

/// The pair-stream contract: session `i` of a stream is **bit-identical**
/// to a one-shot prepared run with the pure derived seed
/// `stream_session_seed(pair_seed, i)` — streaming amortizes setup, it
/// never changes what crosses the wire. Checked over the whole catalogue
/// at `k ∈ {16, 64, 256}` with several distinct-input sessions per pair.
#[test]
fn streamed_sessions_match_one_shot_prepared_runs_across_the_catalogue() {
    use intersect_comm::coins::stream_session_seed;

    let cache = PlanCache::new();
    for choice in ProtocolChoice::all(3) {
        for k in [16u64, 64, 256] {
            let spec = ProblemSpec::new(1 << 20, k);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(k ^ 0x57ee);
            let pairs: Vec<InputPair> = (0..4)
                .map(|i| {
                    InputPair::random_with_overlap(
                        &mut rng,
                        spec,
                        k as usize,
                        ((k / 4 + i) % (k + 1)) as usize,
                    )
                })
                .collect();

            let plan = cache.get_or_prepare(choice, spec);
            let pair_seed = 0xab00 + k;
            let ctx = PairContext::new(Arc::clone(&plan), pair_seed);
            let streamed = execute_prepared_stream(&ctx, &pairs).expect("stream executes");
            assert_eq!(streamed.len(), pairs.len());

            for (i, (pair, run)) in pairs.iter().zip(&streamed).enumerate() {
                let cell = format!("{choice} k={k} session={i}");
                let run = run.as_ref().unwrap_or_else(|e| panic!("{cell}: {e}"));
                let one_shot =
                    execute_prepared(&plan, pair, stream_session_seed(pair_seed, i as u64))
                        .unwrap_or_else(|e| panic!("{cell} one-shot: {e}"));
                assert_eq!(run.report, one_shot.report, "{cell}: cost report differs");
                assert_eq!(run.alice, one_shot.alice, "{cell}: alice output differs");
                assert_eq!(run.bob, one_shot.bob, "{cell}: bob output differs");
            }
            assert_eq!(
                ctx.sessions(),
                pairs.len() as u64,
                "{choice} k={k}: context must account every drawn session"
            );
        }
    }
}
