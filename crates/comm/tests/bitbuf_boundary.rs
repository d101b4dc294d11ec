//! The inline→spill boundary of `BitBuf` is invisible.
//!
//! Buffers up to [`INLINE_BITS`] bits live inline; beyond, words spill
//! to the heap; `with_capacity` can even pre-spill a buffer that ends up
//! short. Every one of those representations must round-trip bits
//! exactly and agree under `Clone`/`Eq`/`Hash` — the representation is
//! an allocation detail, never an observable.

use intersect_comm::bits::{BitBuf, INLINE_BITS};
use intersect_comm::chan::{Chan, Endpoint};
use intersect_comm::coins::CoinSource;
use intersect_comm::error::ProtocolError;
use intersect_comm::runner::{RunConfig, SessionRunner};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

/// A deterministic bit pattern long enough to cross the boundary.
fn pattern_bit(seed: u64, i: usize) -> bool {
    (seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i as u64))
    .count_ones()
        % 2
        == 1
}

fn build(seed: u64, len: usize, capacity: usize) -> BitBuf {
    let mut buf = BitBuf::with_capacity(capacity);
    for i in 0..len {
        buf.push_bit(pattern_bit(seed, i));
    }
    buf
}

fn hash_of(buf: &BitBuf) -> u64 {
    let mut h = DefaultHasher::new();
    buf.hash(&mut h);
    h.finish()
}

#[test]
fn round_trips_exactly_at_the_boundary() {
    for len in [
        0,
        1,
        63,
        64,
        65,
        INLINE_BITS - 1,
        INLINE_BITS,
        INLINE_BITS + 1,
        2 * INLINE_BITS,
        1000,
    ] {
        let buf = build(7, len, 0);
        assert_eq!(buf.len(), len);
        for i in 0..len {
            assert_eq!(buf.get(i), Some(pattern_bit(7, i)), "len {len}, bit {i}");
        }
        assert_eq!(buf.get(len), None);
        let mut r = buf.reader();
        for i in 0..len {
            assert_eq!(
                r.read_bit().unwrap(),
                pattern_bit(7, i),
                "len {len}, bit {i}"
            );
        }
        assert!(r.read_bit().is_err());
    }
}

#[test]
fn wide_pushes_round_trip_across_the_boundary() {
    // Push 64-bit words so a push straddles the 128-bit boundary from
    // every possible offset.
    for offset in 0..64usize {
        let mut buf = BitBuf::new();
        if offset > 0 {
            buf.push_bits((1 << offset) - 1, offset);
        }
        let vals = [u64::MAX, 0, 0xdead_beef_cafe_f00d, u64::MAX / 3];
        for &v in &vals {
            buf.push_bits(v, 64);
        }
        let mut r = buf.reader();
        if offset > 0 {
            assert_eq!(r.read_bits(offset).unwrap(), (1 << offset) - 1);
        }
        for &v in &vals {
            assert_eq!(r.read_bits(64).unwrap(), v, "offset {offset}");
        }
    }
}

#[test]
fn clone_eq_hash_agree_across_inline_and_spilled_representations() {
    for len in [0, 1, 64, INLINE_BITS - 1, INLINE_BITS] {
        // Same bits, three representations: naturally inline,
        // pre-spilled by an over-sized with_capacity, and a clone of the
        // spilled one (which normalizes back to inline).
        let inline = build(13, len, 0);
        let spilled = build(13, len, 4 * INLINE_BITS);
        let clone_of_spilled = spilled.clone();

        assert_eq!(inline, spilled, "len {len}");
        assert_eq!(inline, clone_of_spilled, "len {len}");
        assert_eq!(hash_of(&inline), hash_of(&spilled), "len {len}");
        assert_eq!(hash_of(&inline), hash_of(&clone_of_spilled), "len {len}");
        assert_eq!(inline.words(), spilled.words(), "len {len}");

        // And unequal content stays unequal in every representation.
        if len > 0 {
            let mut other = BitBuf::with_capacity(4 * INLINE_BITS);
            for i in 0..len {
                // Flip the final bit.
                other.push_bit(pattern_bit(13, i) ^ (i == len - 1));
            }
            assert_ne!(inline, other);
            assert_ne!(spilled, other);
        }
    }
}

#[test]
fn extend_from_agrees_across_representations() {
    for head in [0usize, 5, 64, 127, 128, 129] {
        for tail in [0usize, 1, 64, 128, 200] {
            let mut grown = build(3, head, 0);
            grown.extend_from(&build(4, tail, 0));

            let mut grown_spilled = build(3, head, 4 * INLINE_BITS);
            grown_spilled.extend_from(&build(4, tail, 4 * INLINE_BITS));

            let mut reference = BitBuf::new();
            for i in 0..head {
                reference.push_bit(pattern_bit(3, i));
            }
            for i in 0..tail {
                reference.push_bit(pattern_bit(4, i));
            }
            assert_eq!(grown, reference, "head {head}, tail {tail}");
            assert_eq!(grown_spilled, reference, "head {head}, tail {tail}");
            assert_eq!(hash_of(&grown), hash_of(&reference));
        }
    }
}

#[test]
fn reader_read_buf_crosses_the_boundary() {
    let buf = build(21, 3 * INLINE_BITS, 0);
    let mut r = buf.reader();
    let first = r.read_buf(INLINE_BITS - 1).unwrap(); // inline
    let second = r.read_buf(INLINE_BITS + 5).unwrap(); // spilled
    assert_eq!(first.len(), INLINE_BITS - 1);
    assert_eq!(second.len(), INLINE_BITS + 5);
    for i in 0..first.len() {
        assert_eq!(first.get(i), Some(pattern_bit(21, i)));
    }
    for i in 0..second.len() {
        assert_eq!(second.get(i), Some(pattern_bit(21, INLINE_BITS - 1 + i)));
    }
}

#[test]
fn endpoint_pairs_recycle_spill_storage_through_the_shared_pool() {
    // The pair's SpillPool is the reclaim path for spilled payloads:
    // with it installed, dropping a spilled buffer shelves its storage
    // (never leaks), re-spilling draws the same storage back (never
    // double-recycles — the shelf count goes 0 → 1 → 0), and bits read
    // from recycled storage are exact.
    let (a, _b) = Endpoint::pair(None, Duration::from_secs(1));
    let pool = Arc::clone(a.pool());
    let scope = pool.install();
    assert_eq!(pool.pooled(), 0);

    let spilled = build(9, 3 * INLINE_BITS, 0);
    drop(spilled);
    assert_eq!(pool.pooled(), 1, "dropped spill storage must shelve");

    let recycled = build(9, 3 * INLINE_BITS, 0);
    assert_eq!(pool.pooled(), 0, "re-spilling must draw from the shelf");
    for i in 0..recycled.len() {
        assert_eq!(
            recycled.get(i),
            Some(pattern_bit(9, i)),
            "bit {i} corrupted on recycled storage"
        );
    }

    // An inline buffer has no spill storage and must not touch the pool.
    drop(build(9, INLINE_BITS - 1, 0));
    assert_eq!(pool.pooled(), 0);
    drop(recycled);
    assert_eq!(pool.pooled(), 1);
    drop(scope);
}

/// Property test for the satellite contract: interleaved
/// `Endpoint::reset`/`rearm` (driven through every reuse path of one
/// `SessionRunner` — single runs and blocks of sessions) plus
/// spill/reclaim through the shared pool never corrupts a payload. Each
/// session moves payloads whose widths straddle `INLINE_BITS` from both
/// sides of the boundary, and every echoed payload is compared to the
/// deterministic pattern it was built from — a leak, double-recycle, or
/// stale frame surviving a reset would surface as a mismatch or hang.
#[test]
fn interleaved_session_resets_and_spill_reclaim_stay_exact() {
    let mut runner = SessionRunner::start();
    for seed in 0..8u64 {
        let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..6u64 {
            let depth = 1 + (next() % 5) as usize;
            // Widths hug the inline→spill boundary from both sides so
            // consecutive sessions keep migrating storage between the
            // inline representation and the pool.
            let widths: Vec<usize> = (0..depth)
                .map(|_| match next() % 4 {
                    0 => (next() % 64) as usize,
                    1 => INLINE_BITS - 1 - (next() % 3) as usize,
                    2 => INLINE_BITS + (next() % 3) as usize,
                    _ => 2 * INLINE_BITS + (next() % 200) as usize,
                })
                .collect();
            let pattern_seeds: Vec<u64> = (0..depth as u64)
                .map(|i| seed * 1000 + round * 10 + i)
                .collect();
            let seeds: Vec<u64> = pattern_seeds.clone();

            fn echo_bob(chan: &mut Endpoint, _: &CoinSource) -> Result<(), ProtocolError> {
                let msg = chan.recv()?;
                chan.send(msg)?;
                Ok(())
            }
            let alice = |i: usize, chan: &mut Endpoint, _: &CoinSource| {
                let sent = build(pattern_seeds[i], widths[i], 0);
                chan.send(sent.clone())?;
                let echo = chan.recv()?;
                Ok(echo == sent)
            };
            let bob = |_: usize, chan: &mut Endpoint, coins: &CoinSource| echo_bob(chan, coins);

            let cell = format!("seed {seed}, round {round}, depth {depth}");
            let exact: Vec<bool> = match next() % 3 {
                // Single run: full reset (drains the queue) per session.
                0 => seeds
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| {
                        runner
                            .run(
                                &RunConfig::with_seed(s),
                                |chan: &mut Endpoint, c: &CoinSource| alice(i, chan, c),
                                echo_bob,
                            )
                            .expect(&cell)
                            .alice
                    })
                    .collect(),
                // Block: rearm only between sessions, one fin at the end.
                _ => {
                    let mut exact = Vec::new();
                    runner
                        .run_block(&RunConfig::default(), &seeds, alice, bob, |_, parts| {
                            exact.push(parts.alice.expect(&cell))
                        })
                        .expect(&cell);
                    exact
                }
            };
            assert_eq!(exact.len(), depth, "{cell}: session lost");
            for (i, ok) in exact.iter().enumerate() {
                assert!(ok, "{cell}: session {i} echoed a corrupted payload");
            }
        }
    }
}

#[test]
fn randomized_operation_sequences_match_a_bit_vector_model() {
    // A light property test: drive BitBuf with a deterministic mix of
    // push_bit / push_bits / extend_from and compare against Vec<bool>.
    for seed in 0..20u64 {
        let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut buf = BitBuf::with_capacity((next() % 300) as usize);
        let mut model: Vec<bool> = Vec::new();
        for _ in 0..80 {
            match next() % 3 {
                0 => {
                    let b = next() % 2 == 1;
                    buf.push_bit(b);
                    model.push(b);
                }
                1 => {
                    let width = (next() % 65) as usize;
                    let value = if width == 64 {
                        next()
                    } else {
                        next() % (1u64 << width)
                    };
                    buf.push_bits(value, width);
                    for i in 0..width {
                        model.push((value >> i) & 1 == 1);
                    }
                }
                _ => {
                    let other_len = (next() % 100) as usize;
                    let other_seed = next();
                    let other = build(other_seed, other_len, (next() % 200) as usize);
                    buf.extend_from(&other);
                    for i in 0..other_len {
                        model.push(pattern_bit(other_seed, i));
                    }
                }
            }
        }
        assert_eq!(buf.len(), model.len(), "seed {seed}");
        for (i, &b) in model.iter().enumerate() {
            assert_eq!(buf.get(i), Some(b), "seed {seed}, bit {i}");
        }
        let copy = buf.clone();
        assert_eq!(copy, buf);
        assert_eq!(hash_of(&copy), hash_of(&buf));
    }
}
