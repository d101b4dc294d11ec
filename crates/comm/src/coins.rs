//! The common random string model.
//!
//! In the shared-randomness model both players read the same infinite random
//! string without communicating. We realize it as a [`CoinSource`]: a 256-bit
//! seed plus a labelled-fork operation. Both parties hold clones of the same
//! source and derive identical pseudorandom streams by forking with equal
//! labels (`coins.fork("stage3/bucket17")`), so shared hash functions never
//! cost communication and parties can never desynchronize by consuming
//! different amounts of a single stream.
//!
//! In the *private* randomness model each party forks its source from a
//! party-unique label; any randomness that must be shared is then sampled by
//! one party and **transmitted** (and its bits are counted), which is exactly
//! the constructive Newman transform the paper describes.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A deterministic, forkable source of shared random coins.
///
/// # Examples
///
/// ```
/// use intersect_comm::coins::CoinSource;
/// use rand::Rng;
///
/// let alice = CoinSource::from_seed(42);
/// let bob = CoinSource::from_seed(42);
/// // Equal labels yield identical streams — no communication needed.
/// let a: u64 = alice.fork("round1").rng().gen();
/// let b: u64 = bob.fork("round1").rng().gen();
/// assert_eq!(a, b);
/// // Different labels yield independent-looking streams.
/// let c: u64 = bob.fork("round2").rng().gen();
/// assert_ne!(a, c);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct CoinSource {
    state: [u64; 4],
}

impl std::fmt::Debug for CoinSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CoinSource({:016x}…)", self.state[0])
    }
}

/// SplitMix64 step: the standard 64-bit finalizer with good avalanche.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl CoinSource {
    /// Creates a source from a 64-bit seed (expanded to 256 bits).
    pub fn from_seed(seed: u64) -> Self {
        let mut state = [0u64; 4];
        let mut z = seed;
        for lane in &mut state {
            z = splitmix(z ^ 0xa076_1d64_78bd_642f);
            *lane = z;
        }
        CoinSource { state }
    }

    /// Derives a child source whose stream is determined by `(self, label)`.
    ///
    /// Forking is cheap and side-effect free: the parent can be forked with
    /// the same label again and will produce the same child.
    pub fn fork(&self, label: &str) -> CoinSource {
        let mut state = self.state;
        for (i, chunk) in label.as_bytes().chunks(8).enumerate() {
            let mut word = 0u64;
            for (j, &b) in chunk.iter().enumerate() {
                word |= (b as u64) << (8 * j);
            }
            let lane = i % 4;
            state[lane] =
                splitmix(state[lane] ^ word ^ (i as u64).wrapping_mul(0xff51_afd7_ed55_8ccd));
        }
        // Diffuse across lanes so labels differing in one chunk affect all.
        for round in 0..2u64 {
            for lane in 0..4 {
                let prev = state[(lane + 3) % 4];
                state[lane] = splitmix(state[lane] ^ prev.rotate_left(17) ^ round);
            }
        }
        CoinSource { state }
    }

    /// Derives a child source from an integer label.
    pub fn fork_index(&self, index: u64) -> CoinSource {
        let mut state = self.state;
        for (lane, s) in state.iter_mut().enumerate() {
            *s = splitmix(*s ^ index.rotate_left(13 * lane as u32) ^ 0xc2b2_ae3d_27d4_eb4f);
        }
        CoinSource { state }
    }

    /// Instantiates a reproducible RNG reading this source's stream.
    pub fn rng(&self) -> ChaCha8Rng {
        let mut seed = [0u8; 32];
        for (lane, chunk) in self.state.iter().zip(seed.chunks_mut(8)) {
            chunk.copy_from_slice(&lane.to_le_bytes());
        }
        ChaCha8Rng::from_seed(seed)
    }

    /// A cheap deterministic 64-bit hash of `(self, a, b)`.
    ///
    /// Used where a protocol must evaluate a *lazily defined* shared random
    /// object at enormous indices — e.g. "is element `x` in the `j`-th
    /// random set of the common random string?" — without instantiating an
    /// RNG per query. Not a cryptographic PRF; statistically well-mixed.
    pub fn mix64(&self, a: u64, b: u64) -> u64 {
        let mut z = self.state[0] ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = splitmix(z);
        z ^= self.state[1] ^ b.wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        z = splitmix(z);
        z ^= self.state[2].rotate_left(31) ^ self.state[3];
        splitmix(z)
    }
}

/// The seed of stream session `index` for a pair whose correlated
/// randomness is rooted at `pair_seed`.
///
/// A *stream* is many sessions run by one client pair off a single
/// shared root. Deriving each session's common random string as a pure
/// function of `(pair_seed, index)` is what makes cross-session
/// amortization exact: a streamed session is bit-identical to a
/// one-shot run seeded with `stream_session_seed(pair_seed, index)`,
/// so precomputing blocks of these seeds (and anything sampled from
/// them) off the hot path can never change a transcript.
///
/// # Examples
///
/// ```
/// use intersect_comm::coins::{stream_session_seed, CoinSource};
///
/// let s = stream_session_seed(42, 7);
/// // Pure: the same pair and index always yield the same seed …
/// assert_eq!(s, stream_session_seed(42, 7));
/// // … and the derived coins match a one-shot source with that seed.
/// assert_eq!(CoinSource::from_seed(s), CoinSource::from_seed(s));
/// assert_ne!(s, stream_session_seed(42, 8));
/// assert_ne!(s, stream_session_seed(43, 7));
/// ```
pub fn stream_session_seed(pair_seed: u64, index: u64) -> u64 {
    CoinSource::from_seed(pair_seed)
        .fork("stream")
        .fork_index(index)
        .mix64(index, 0x73_74_72_65_61_6d) // "stream"
}

/// How many session seeds a [`CoinBlock`] pre-derives per refill.
pub const COIN_BLOCK_LEN: usize = 64;

/// A pre-forked block of per-session coin seeds for one client pair.
///
/// The offline/online split: a pair context fills a whole block of
/// [`stream_session_seed`]s in one step (the *offline* phase), and the
/// per-session hot path only indexes into it. When a session index
/// falls outside the current block the block refills deterministically
/// — the seeds depend only on `(pair_seed, index)`, never on refill
/// history — and the refill is counted (`coin_block_refills_total`).
///
/// # Examples
///
/// ```
/// use intersect_comm::coins::{stream_session_seed, CoinBlock, COIN_BLOCK_LEN};
///
/// let mut block = CoinBlock::new(9);
/// assert_eq!(block.session_seed(3), stream_session_seed(9, 3));
/// // Jumping far ahead refills, deterministically.
/// let far = 10 * COIN_BLOCK_LEN as u64 + 5;
/// assert_eq!(block.session_seed(far), stream_session_seed(9, far));
/// assert_eq!(block.refills(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CoinBlock {
    pair_seed: u64,
    base: u64,
    seeds: Vec<u64>,
    refills: u64,
}

impl CoinBlock {
    /// Pre-derives the first block of session seeds for `pair_seed`.
    pub fn new(pair_seed: u64) -> CoinBlock {
        let mut block = CoinBlock {
            pair_seed,
            base: 0,
            seeds: Vec::with_capacity(COIN_BLOCK_LEN),
            refills: 0,
        };
        block.fill(0);
        block
    }

    fn fill(&mut self, base: u64) {
        self.base = base;
        self.seeds.clear();
        self.seeds.extend(
            (base..base.saturating_add(COIN_BLOCK_LEN as u64))
                .map(|i| stream_session_seed(self.pair_seed, i)),
        );
    }

    /// The seed of stream session `index`, refilling the block if the
    /// index lies outside it. Always equals
    /// `stream_session_seed(self.pair_seed(), index)`.
    pub fn session_seed(&mut self, index: u64) -> u64 {
        if index < self.base || index >= self.base + self.seeds.len() as u64 {
            self.fill(index - index % COIN_BLOCK_LEN as u64);
            self.refills += 1;
            intersect_obs::counter_add("coin_block_refills_total", 1);
        }
        self.seeds[(index - self.base) as usize]
    }

    /// The seeds of sessions `start .. start + count`, in order.
    pub fn take(&mut self, start: u64, count: usize) -> Vec<u64> {
        (start..start + count as u64)
            .map(|i| self.session_seed(i))
            .collect()
    }

    /// The pair seed this block derives from.
    pub fn pair_seed(&self) -> u64 {
        self.pair_seed
    }

    /// First session index of the current block.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// How many times the block has refilled since construction.
    pub fn refills(&self) -> u64 {
        self.refills
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn equal_seeds_and_labels_agree() {
        let a = CoinSource::from_seed(123).fork("x").fork_index(9);
        let b = CoinSource::from_seed(123).fork("x").fork_index(9);
        let xa: [u64; 4] = a.rng().gen();
        let xb: [u64; 4] = b.rng().gen();
        assert_eq!(xa, xb);
    }

    #[test]
    fn different_labels_diverge() {
        let root = CoinSource::from_seed(5);
        let x: u64 = root.fork("alpha").rng().gen();
        let y: u64 = root.fork("beta").rng().gen();
        let z: u64 = root.fork("alph").rng().gen();
        assert_ne!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn different_seeds_diverge() {
        let x: u64 = CoinSource::from_seed(1).rng().gen();
        let y: u64 = CoinSource::from_seed(2).rng().gen();
        assert_ne!(x, y);
    }

    #[test]
    fn long_labels_affect_all_lanes() {
        let root = CoinSource::from_seed(7);
        // Two labels that differ only in the 4th 8-byte chunk.
        let l1 = "aaaaaaaabbbbbbbbccccccccdddddddd";
        let l2 = "aaaaaaaabbbbbbbbcccccccceeeeeeee";
        let a = root.fork(l1);
        let b = root.fork(l2);
        assert_ne!(a.state, b.state);
        // All four lanes should differ thanks to diffusion.
        let differing = a.state.iter().zip(&b.state).filter(|(x, y)| x != y).count();
        assert!(differing >= 3, "only {differing} lanes differ");
    }

    #[test]
    fn index_forks_are_distinct_for_many_indices() {
        let root = CoinSource::from_seed(99);
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(root.fork_index(i).state), "collision at {i}");
        }
    }

    #[test]
    fn fork_is_pure() {
        let root = CoinSource::from_seed(11);
        assert_eq!(root.fork("same"), root.fork("same"));
    }

    #[test]
    fn stream_seeds_are_pure_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            let s = stream_session_seed(77, i);
            assert_eq!(s, stream_session_seed(77, i), "pure at {i}");
            assert!(seen.insert(s), "collision at {i}");
        }
        assert_ne!(stream_session_seed(1, 0), stream_session_seed(2, 0));
    }

    #[test]
    fn coin_block_matches_direct_derivation_across_refills() {
        let mut block = CoinBlock::new(5);
        // In-block, sequential, random-access, and far-jump indices all
        // agree with the pure derivation.
        for i in [0u64, 3, 63, 64, 65, 200, 1, 4096, 4097] {
            assert_eq!(block.session_seed(i), stream_session_seed(5, i), "{i}");
        }
        assert!(block.refills() >= 4, "jumps must refill");
        // Refill history never perturbs the seeds.
        let mut fresh = CoinBlock::new(5);
        assert_eq!(fresh.session_seed(4097), block.session_seed(4097));
    }

    #[test]
    fn coin_block_take_is_contiguous_and_refill_counted() {
        let mut block = CoinBlock::new(11);
        let seeds = block.take(60, 10); // spans a block boundary
        assert_eq!(seeds.len(), 10);
        for (j, &s) in seeds.iter().enumerate() {
            assert_eq!(s, stream_session_seed(11, 60 + j as u64));
        }
        assert_eq!(block.refills(), 1, "crossed into the next block once");
        assert_eq!(block.pair_seed(), 11);
        assert_eq!(block.base(), 64);
    }

    #[test]
    fn rng_stream_is_stable_across_calls() {
        let c = CoinSource::from_seed(31);
        let mut r1 = c.rng();
        let mut r2 = c.rng();
        for _ in 0..10 {
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>());
        }
    }
}
