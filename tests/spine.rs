//! The pair spine: a one-shot, a batch and a pair stream are the same
//! block of sessions, told apart only by where a session's seed comes
//! from. Every catalogue protocol, at two cardinalities, must settle the
//! same requests identically — outputs and exact `CostReport` — whether
//! they are submitted one by one, as one request-seeded block, or as one
//! pair-stream block (checked against tagged one-shot reruns, since a
//! stream draws its coin seeds from the pair) — and a cold plan cache
//! moves work, never bits. A stream also amortizes per-pair setup: the
//! Newman private-coin setup crosses the wire once per pair.

use intersect::core::api::ProtocolChoice;
use intersect::engine::{Engine, EngineConfig, SessionOutcome, SessionRequest};
use intersect::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SESSIONS: u64 = 6;
const PAIR: u64 = 0x5eed;

fn requests(spec: ProblemSpec, choice: ProtocolChoice) -> Vec<SessionRequest> {
    (0..SESSIONS)
        .map(|id| {
            let overlap = (id * spec.k / (SESSIONS - 1)) as usize;
            let mut req = SessionRequest::new(id, spec, overlap);
            req.seed = id * 0x9e37 + spec.k;
            req.protocol = Some(choice);
            req
        })
        .collect()
}

/// Serves `requests` on a fresh engine through `submit` and returns the
/// outcomes sorted by id.
fn serve(
    requests: Vec<SessionRequest>,
    submit: impl FnOnce(&Engine, Vec<SessionRequest>),
) -> Vec<SessionOutcome> {
    let engine = Engine::start(EngineConfig::new(2));
    submit(&engine, requests);
    engine.finish().outcomes
}

fn assert_same(what: &str, ours: &[SessionOutcome], theirs: &[SessionOutcome]) {
    assert_eq!(ours.len(), theirs.len(), "{what}");
    for (a, b) in ours.iter().zip(theirs) {
        let what = format!("{what}, session {}", a.request.id);
        assert_eq!(a.request, b.request, "{what}");
        assert_eq!(a.report, b.report, "{what}");
        assert_eq!(a.alice, b.alice, "{what}");
        assert_eq!(a.bob, b.bob, "{what}");
        assert_eq!(a.error, b.error, "{what}");
        assert_eq!(a.protocol_name, b.protocol_name, "{what}");
    }
}

#[test]
fn singles_blocks_and_pair_streams_settle_identically() {
    for k in [16u64, 64] {
        let spec = ProblemSpec::new(1 << 20, k);
        for choice in ProtocolChoice::all(3) {
            let what = format!("{choice} k={k}");
            let singles = serve(requests(spec, choice), |engine, requests| {
                for req in requests {
                    engine.submit(req).unwrap();
                }
            });
            for outcome in &singles {
                let truth = outcome.request.input_pair().ground_truth();
                assert_eq!(outcome.alice.as_ref(), Some(&truth), "{what}");
                assert_eq!(outcome.bob.as_ref(), Some(&truth), "{what}");
            }
            let cold = serve(requests(spec, choice), |engine, requests| {
                for req in requests {
                    engine.plan_cache().invalidate();
                    engine.submit(req).unwrap();
                }
            });
            assert_same(&format!("{what}: cold plans vs singles"), &cold, &singles);
            let block = serve(requests(spec, choice), |engine, requests| {
                engine.submit_batch(requests).unwrap();
            });
            assert_same(&format!("{what}: block vs singles"), &block, &singles);

            let streamed = serve(requests(spec, choice), |engine, requests| {
                let stream = engine.open_stream(PAIR);
                engine.submit_stream(stream, requests).unwrap();
            });
            // The stream tagged every request with its pair and index;
            // resubmitted alone, each must reproduce its streamed session.
            let tagged: Vec<SessionRequest> = streamed.iter().map(|o| o.request.clone()).collect();
            for (i, req) in tagged.iter().enumerate() {
                assert_eq!((req.pair, req.stream), (Some(PAIR), Some(i as u64)));
            }
            let reruns = serve(tagged, |engine, requests| {
                for req in requests {
                    engine.submit(req).unwrap();
                }
            });
            assert_same(
                &format!("{what}: stream vs tagged reruns"),
                &streamed,
                &reruns,
            );
        }
    }
}

/// Theorem 3.1's private-coin setup (universe reduction plus session
/// seed) is paid once per pair: over one `PairRandomness` stream,
/// amortized bits per session strictly fall with the stream length and
/// beat the one-shot cost from two sessions on.
#[test]
fn newman_setup_bits_amortize_over_a_pair_stream() {
    let spec = ProblemSpec::new(1 << 20, 16);
    let pair = InputPair::random_with_overlap(&mut ChaCha8Rng::seed_from_u64(0x5eed), spec, 16, 4);
    let truth = pair.ground_truth();
    let proto = PrivateCoin::new(TrivialExchange::default());
    let one = run_two_party(
        &RunConfig::with_seed(7),
        |chan, coins| proto.run(chan, coins, Side::Alice, spec, &pair.s),
        |chan, coins| proto.run(chan, coins, Side::Bob, spec, &pair.t),
    )
    .unwrap();
    assert_eq!(one.alice, truth);
    let one_shot = one.report.total_bits() as f64;

    let streamed = |sessions: u64| {
        let stream = |chan: &mut Endpoint, coins: &CoinSource, side: Side, input: &ElementSet| {
            let mut state = None;
            let mut out = ElementSet::new();
            for _ in 0..sessions {
                out = proto.run_streamed(chan, coins, side, spec, input, &mut state)?;
            }
            Ok(out)
        };
        let run = run_two_party(
            &RunConfig::with_seed(7),
            |chan, coins| stream(chan, coins, Side::Alice, &pair.s),
            |chan, coins| stream(chan, coins, Side::Bob, &pair.t),
        )
        .unwrap();
        assert_eq!(run.alice, truth, "{sessions} streamed sessions");
        run.report.total_bits() as f64 / sessions as f64
    };
    let curve = [1, 2, 4, 8, 16, 32].map(streamed);
    for w in curve.windows(2) {
        assert!(w[1] < w[0], "amortized bits must fall: {curve:?}");
        assert!(w[1] < one_shot, "must beat one-shot {one_shot}: {curve:?}");
    }
}
