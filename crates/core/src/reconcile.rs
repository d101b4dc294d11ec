//! Difference-proportional intersection via invertible Bloom lookup
//! tables (IBLTs) — a modern-practice baseline the paper predates.
//!
//! Set-reconciliation folklore (Eppstein–Goodrich–Uyeda–Varghese's
//! "What's the Difference?", and the Minisketch line of work) recovers the
//! *symmetric difference* `S Δ T` at cost `O(d·(log n + λ))` bits where
//! `d = |S Δ T|` — independent of `k`. Since
//! `S ∩ T = S ∖ (S ∖ T)`, this also recovers the intersection, and for
//! *mostly-overlapping* sets (`d ≪ k / log n`) it beats the paper's
//! `O(k)` bound; for small overlaps (`d ≈ 2k`) it degrades to
//! `O(k·log n)` — worse than even the trivial exchange. Experiment E14
//! locates the crossover. The paper's protocols are optimal in the
//! worst case over inputs with `|S|,|T| ≤ k`; this baseline shows what
//! input-adaptivity (parameterizing by `d` instead of `k`) buys.
//!
//! The IBLT here is the classic 3-subtable design: each element occupies
//! one cell per subtable; a cell holds a signed count, an XOR of keys, and
//! an XOR of key checksums. Alice sends her table; Bob subtracts his and
//! *peels* pure cells (count ±1 with a matching checksum) until the table
//! drains. Since neither party knows `d` in advance, the protocol doubles
//! the table size until peeling succeeds — expected `O(log d)` attempts
//! from a small initial size, each a 2-message round trip.

use crate::api::SetIntersection;
use crate::cost::{gamma_bits, rice_bits, PredictedCost};
use crate::sets::{ElementSet, ProblemSpec};
use intersect_comm::bits::{bit_width_for, BitBuf};
use intersect_comm::chan::Chan;
use intersect_comm::coins::CoinSource;
use intersect_comm::encode::{get_gamma0, put_gamma0, RiceSubsetCodec};
use intersect_comm::error::{CodecError, ProtocolError};
use intersect_comm::runner::Side;
use intersect_hash::tabulation::TabulationHash;

/// Number of subtables (hash functions); 3 gives the classic peeling
/// threshold of ≈ 1.22·d cells.
const SUBTABLES: usize = 3;

/// One IBLT cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cell {
    count: i64,
    key_sum: u64,
    check_sum: u64,
}

impl Cell {
    fn is_empty(&self) -> bool {
        self.count == 0 && self.key_sum == 0 && self.check_sum == 0
    }
}

/// An invertible Bloom lookup table over `u64` keys.
///
/// Typically used through [`IbltReconcile`]; exposed for direct use and
/// testing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Iblt {
    /// `SUBTABLES` contiguous regions of `per_table` cells each.
    cells: Vec<Cell>,
    per_table: usize,
}

/// The hash functions an [`Iblt`] indexes with; both parties must build
/// them from the same coins, with the same checksum width (checksums are
/// truncated on the wire, so they must be truncated identically locally).
#[derive(Debug, Clone)]
pub struct IbltHasher {
    index: Vec<TabulationHash>,
    check: TabulationHash,
    check_bits: usize,
}

impl IbltHasher {
    /// Derives the hasher from shared coins.
    pub fn from_coins(coins: &CoinSource, check_bits: usize) -> Self {
        IbltHasher {
            index: (0..SUBTABLES)
                .map(|i| TabulationHash::sample(&mut coins.fork_index(i as u64).rng()))
                .collect(),
            check: TabulationHash::sample(&mut coins.fork("check").rng()),
            check_bits: check_bits.clamp(8, 64),
        }
    }

    fn checksum(&self, key: u64) -> u64 {
        self.check.eval(key) & mask(self.check_bits)
    }
}

impl Iblt {
    /// An empty table with `per_table` cells per subtable
    /// (`3 · per_table` total).
    pub fn new(per_table: usize) -> Self {
        Iblt {
            cells: vec![Cell::default(); SUBTABLES * per_table.max(1)],
            per_table: per_table.max(1),
        }
    }

    /// Total cell count.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    fn slots(&self, h: &IbltHasher, key: u64) -> [usize; SUBTABLES] {
        let mut out = [0usize; SUBTABLES];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = i * self.per_table + h.index[i].eval_range(key, self.per_table as u64) as usize;
        }
        out
    }

    /// Inserts a key (toward positive counts).
    pub fn insert(&mut self, h: &IbltHasher, key: u64) {
        let check = h.checksum(key);
        for slot in self.slots(h, key) {
            let cell = &mut self.cells[slot];
            cell.count += 1;
            cell.key_sum ^= key;
            cell.check_sum ^= check;
        }
    }

    /// Cell-wise subtraction: the result encodes `self Δ other` with signs.
    pub fn subtract(&self, other: &Iblt) -> Iblt {
        assert_eq!(self.per_table, other.per_table, "table geometry mismatch");
        let cells = self
            .cells
            .iter()
            .zip(&other.cells)
            .map(|(a, b)| Cell {
                count: a.count - b.count,
                key_sum: a.key_sum ^ b.key_sum,
                check_sum: a.check_sum ^ b.check_sum,
            })
            .collect();
        Iblt {
            cells,
            per_table: self.per_table,
        }
    }

    /// Peels the table. On success returns `(positives, negatives)` — the
    /// keys with net count `+1` and `−1` respectively; `None` if peeling
    /// stalls (table too small or corrupt).
    ///
    /// A consistent table holds each key once and at most one key per
    /// cell, so peeling stops with `None` at the first key seen twice or
    /// past `cell_count()` peels: a corrupt or false-peeled table can
    /// otherwise cycle forever.
    pub fn peel(mut self, h: &IbltHasher) -> Option<(Vec<u64>, Vec<u64>)> {
        let mut positives = Vec::new();
        let mut negatives = Vec::new();
        let mut peeled = std::collections::HashSet::new();
        let mut queue: Vec<usize> = (0..self.cells.len()).collect();
        while let Some(slot) = queue.pop() {
            let cell = self.cells[slot];
            if cell.count.abs() != 1 {
                continue;
            }
            let key = cell.key_sum;
            if h.checksum(key) != cell.check_sum {
                continue; // not pure (multiple keys collided here)
            }
            if peeled.len() == self.cells.len() || !peeled.insert(key) {
                return None;
            }
            let sign = cell.count;
            if sign > 0 {
                positives.push(key);
            } else {
                negatives.push(key);
            }
            let check = cell.check_sum;
            for s in self.slots(h, key) {
                let c = &mut self.cells[s];
                c.count -= sign;
                c.key_sum ^= key;
                c.check_sum ^= check;
                queue.push(s);
            }
        }
        if self.cells.iter().all(Cell::is_empty) {
            positives.sort_unstable();
            negatives.sort_unstable();
            Some((positives, negatives))
        } else {
            None
        }
    }

    /// Serializes the table: non-empty cells are sparse-coded by index.
    pub fn write(&self, buf: &mut BitBuf, key_bits: usize, check_bits: usize) {
        put_gamma0(buf, self.per_table as u64);
        let occupied: Vec<usize> = (0..self.cells.len())
            .filter(|&i| !self.cells[i].is_empty())
            .collect();
        put_gamma0(buf, occupied.len() as u64);
        let mut prev = 0u64;
        for &i in &occupied {
            put_gamma0(buf, i as u64 - prev);
            prev = i as u64;
            let cell = &self.cells[i];
            // Zigzag the signed count.
            let zig = if cell.count >= 0 {
                (cell.count as u64) << 1
            } else {
                ((-cell.count as u64) << 1) - 1
            };
            put_gamma0(buf, zig);
            buf.push_bits(cell.key_sum & mask(key_bits), key_bits);
            buf.push_bits(cell.check_sum & mask(check_bits), check_bits);
        }
    }

    /// Deserializes a table written by [`write`](Self::write), refusing
    /// one with more than `max_per_table` cells per subtable before
    /// allocating it.
    ///
    /// # Errors
    ///
    /// Returns a codec error on malformed input or an over-sized table.
    pub fn read(
        r: &mut intersect_comm::bits::BitReader<'_>,
        key_bits: usize,
        check_bits: usize,
        max_per_table: usize,
    ) -> Result<Self, ProtocolError> {
        let per_table = get_gamma0(r)?;
        if per_table > max_per_table as u64 {
            return Err(ProtocolError::Codec(CodecError::ValueOutOfRange {
                value: per_table,
                bound: max_per_table as u64 + 1,
            }));
        }
        let mut table = Iblt::new(per_table as usize);
        let occupied = get_gamma0(r)?;
        let mut idx = 0u64;
        for j in 0..occupied {
            let gap = get_gamma0(r)?;
            idx = if j == 0 { gap } else { idx.saturating_add(gap) };
            let zig = get_gamma0(r)?;
            let count = if zig & 1 == 0 {
                (zig >> 1) as i64
            } else {
                -(((zig + 1) >> 1) as i64)
            };
            let key_sum = r.read_bits(key_bits)?;
            let check_sum = r.read_bits(check_bits)?;
            let cell = table
                .cells
                .get_mut(idx as usize)
                .ok_or(ProtocolError::Internal(
                    "iblt cell index out of range".into(),
                ))?;
            *cell = Cell {
                count,
                key_sum,
                check_sum,
            };
        }
        Ok(table)
    }
}

fn mask(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Difference-proportional intersection by IBLT reconciliation with table
/// doubling.
///
/// # Examples
///
/// ```
/// use intersect_core::reconcile::IbltReconcile;
/// use intersect_core::api::{execute, SetIntersection};
/// use intersect_core::sets::{InputPair, ProblemSpec};
/// use rand::SeedableRng;
///
/// let spec = ProblemSpec::new(1 << 30, 512);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
/// // Mostly-overlapping sets: the sweet spot for reconciliation.
/// let pair = InputPair::random_with_overlap(&mut rng, spec, 512, 490);
/// let run = execute(&IbltReconcile::default(), spec, &pair, 7)?;
/// assert!(run.matches(&pair.ground_truth()));
/// # Ok::<(), intersect_comm::error::ProtocolError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IbltReconcile {
    /// Initial cells per subtable (doubles on failure).
    pub initial_cells: usize,
    /// Checksum width: false-peel probability ≈ `2^-checksum_bits` per cell.
    pub checksum_bits: usize,
    /// Doubling cap.
    pub max_attempts: u32,
}

impl Default for IbltReconcile {
    fn default() -> Self {
        IbltReconcile {
            initial_cells: 8,
            checksum_bits: 32,
            max_attempts: 16,
        }
    }
}

/// Peeling threshold of a random 3-uniform hypergraph, keys per cell:
/// `min_{x>0} x / (3(1 − e^{−x})²)`. Below it the 2-core is empty with
/// high probability and the table drains; above it peeling stalls.
pub(crate) const PEEL_THRESHOLD: f64 = 0.818_47;

impl IbltReconcile {
    /// Expected cost on two `k`-element sets sharing `overlap`: every
    /// attempt sends Alice's whole table (its occupied cells coded as
    /// [`Iblt::write`] does) and gets one verdict bit back; the table
    /// doubles until the `d = 2(k − overlap)` keys of the difference peel,
    /// then Bob's reply carries `S ∖ T` as a Rice code.
    pub(crate) fn predicted_cost(&self, spec: ProblemSpec, overlap: u64) -> PredictedCost {
        let d = 2 * (spec.k - overlap);
        let key_bits = bit_width_for(spec.n.max(2)) as f64;
        let check_bits = self.checksum_bits.clamp(8, 64) as f64;
        let mut per_table = self.initial_cells.max(1) as u64;
        let (mut reach, mut bits, mut rounds) = (1.0, 0.0, 0.0);
        for _ in 0..self.max_attempts.max(1) {
            bits += reach * (table_bits(per_table, spec.k, key_bits + check_bits) + 1.0);
            rounds += reach * 2.0;
            reach *= peel_failure(d, per_table);
            if reach < 1e-6 {
                break;
            }
            per_table *= 2;
        }
        PredictedCost {
            bits: bits + rice_bits(spec.n, spec.k, spec.k - overlap),
            rounds,
        }
    }
}

/// Expected bits of [`Iblt::write`] for `keys` keys in `3 · per_table`
/// cells, each occupied cell carrying `payload` key and checksum bits.
/// A subtable cell holds `c ~ Poi(λ)` keys, `λ = keys / per_table`, and
/// is occupied with probability `q = 1 − e^{−λ}`. Index gaps are then
/// geometric, `P(gap ≥ j) = e^{−λ(j−1)}`, and cost
/// `E[γ(gap + 1)] = 3 + 2·Σ_{i≥1} e^{−λ(2^{i+1}−2)}` bits (summed to
/// `i = 3`: the next term is `e^{−30λ}`); the zigzagged
/// count `2c` costs `γ(2c + 1)`, about `2·log₂(2λ/q + 1)` bits at the
/// mean of an occupied cell's count.
fn table_bits(per_table: u64, keys: u64, payload: f64) -> f64 {
    let lambda = keys as f64 / per_table as f64;
    let empty = (-lambda).exp();
    let q = 1.0 - empty;
    let occupied = 3.0 * per_table as f64 * q;
    let gap = 3.0 + 2.0 * [2, 6, 14].map(|j| empty.powi(j)).iter().sum::<f64>();
    let count = 2.0 * (2.0 * lambda / q + 1.0).log2();
    gamma_bits(per_table + 1) + gamma_bits(occupied as u64 + 1) + occupied * (gap + count + payload)
}

/// Probability that `d` difference keys fail to peel from `3 · per_table`
/// cells: certain above [`PEEL_THRESHOLD`], else the chance that some
/// pair of keys shares all three cells (the smallest stopping set).
fn peel_failure(d: u64, per_table: u64) -> f64 {
    let m = per_table as f64;
    if d as f64 > PEEL_THRESHOLD * 3.0 * m {
        return 1.0;
    }
    (d as f64 * (d as f64 - 1.0) / 2.0 / (m * m * m)).min(1.0)
}

impl SetIntersection for IbltReconcile {
    fn name(&self) -> String {
        "iblt-reconcile".to_string()
    }

    // Table sizes double on peel failure — transcript-dependent, so
    // nothing input-independent can be hoisted.
    fn prepare(&self, spec: ProblemSpec) -> std::sync::Arc<dyn crate::prepared::PreparedProtocol> {
        std::sync::Arc::new(crate::prepared::FallbackPlan::new(*self, spec))
    }

    fn run(
        &self,
        chan: &mut dyn Chan,
        coins: &CoinSource,
        side: Side,
        spec: ProblemSpec,
        input: &ElementSet,
    ) -> Result<ElementSet, ProtocolError> {
        spec.validate(input).map_err(ProtocolError::InvalidInput)?;
        let key_bits = bit_width_for(spec.n.max(2));
        let check_bits = self.checksum_bits.clamp(8, 64);
        let mut per_table = self.initial_cells.max(1);
        for attempt in 0..self.max_attempts.max(1) {
            // Early returns drop the guard, emitting duration without a
            // delta; the fall-through (failed attempt) finishes with one.
            let attempt_span = intersect_obs::phase::span("core", "attempt");
            let before = chan.stats();
            let hasher =
                IbltHasher::from_coins(&coins.fork(&format!("iblt/a{attempt}")), check_bits);
            match side {
                Side::Alice => {
                    // Send my table; learn (success, S∖T) back.
                    let mut table = Iblt::new(per_table);
                    for x in input.iter() {
                        table.insert(&hasher, x);
                    }
                    let mut msg = BitBuf::new();
                    table.write(&mut msg, key_bits, check_bits);
                    chan.send(msg)?;
                    let reply = chan.recv()?;
                    let mut r = reply.reader();
                    if r.read_bit().map_err(ProtocolError::Codec)? {
                        let codec = RiceSubsetCodec::new(spec.n, spec.k);
                        let mine_only = codec.decode(&mut r)?;
                        let missing: ElementSet = mine_only.into_iter().collect();
                        // Sanity: everything Bob claims I hold alone must
                        // really be mine. A violation means a false peel
                        // slipped past the checksums (probability
                        // ≈ 2^-checksum_bits); Bob has already accepted, so
                        // surface the failure instead of desynchronizing.
                        if !missing.iter().all(|x| input.contains(x)) {
                            return Err(ProtocolError::Internal(
                                "reconciliation produced foreign elements".into(),
                            ));
                        }
                        return Ok(input.difference(&missing));
                    }
                }
                Side::Bob => {
                    // An honest Alice sends exactly this attempt's size.
                    let msg = chan.recv()?;
                    let theirs = Iblt::read(&mut msg.reader(), key_bits, check_bits, per_table)?;
                    let mut mine = Iblt::new(theirs.per_table);
                    for y in input.iter() {
                        mine.insert(&hasher, y);
                    }
                    let diff = theirs.subtract(&mine);
                    let mut reply = BitBuf::new();
                    match diff.peel(&hasher) {
                        Some((alice_only, bob_only))
                            if alice_only.len() + bob_only.len() <= 2 * spec.k as usize
                                && bob_only.iter().all(|y| input.contains(*y))
                                && alice_only.len() as u64 <= spec.k =>
                        {
                            reply.push_bit(true);
                            let codec = RiceSubsetCodec::new(spec.n, spec.k);
                            let valid: Vec<u64> =
                                alice_only.iter().copied().filter(|&x| x < spec.n).collect();
                            reply.extend_from(&codec.encode(&valid));
                            chan.send(reply)?;
                            let bob_only: ElementSet = bob_only.into_iter().collect();
                            return Ok(input.difference(&bob_only));
                        }
                        _ => {
                            reply.push_bit(false);
                            chan.send(reply)?;
                        }
                    }
                }
            }
            attempt_span.finish(chan.stats().delta_since(&before));
            per_table *= 2;
        }
        Err(ProtocolError::Internal(
            "iblt reconciliation did not converge".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::execute;
    use crate::sets::InputPair;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn hasher(seed: u64) -> IbltHasher {
        IbltHasher::from_coins(&CoinSource::from_seed(seed), 32)
    }

    #[test]
    fn iblt_insert_subtract_peel_round_trip() {
        let h = hasher(1);
        let mut a = Iblt::new(32);
        let mut b = Iblt::new(32);
        for x in [1u64, 2, 3, 100, 200] {
            a.insert(&h, x);
        }
        for y in [3u64, 100, 999, 1234] {
            b.insert(&h, y);
        }
        let (pos, neg) = a.subtract(&b).peel(&h).expect("peel succeeds");
        assert_eq!(pos, vec![1, 2, 200]); // in a only
        assert_eq!(neg, vec![999, 1234]); // in b only
    }

    #[test]
    fn identical_tables_peel_to_nothing() {
        let h = hasher(2);
        let mut a = Iblt::new(4);
        for x in 0..100u64 {
            a.insert(&h, x * 17);
        }
        let (pos, neg) = a.subtract(&a.clone()).peel(&h).unwrap();
        assert!(pos.is_empty() && neg.is_empty());
    }

    #[test]
    fn undersized_table_fails_to_peel() {
        let h = hasher(3);
        let mut a = Iblt::new(2);
        let b = Iblt::new(2);
        for x in 0..200u64 {
            a.insert(&h, x * 3 + 1);
        }
        assert!(a.subtract(&b).peel(&h).is_none());
    }

    #[test]
    fn serialization_round_trip() {
        let h = hasher(4);
        let mut a = Iblt::new(16);
        for x in [5u64, 50, 500] {
            a.insert(&h, x);
        }
        let mut buf = BitBuf::new();
        a.write(&mut buf, 40, 32);
        let back = Iblt::read(&mut buf.reader(), 40, 32, 16).unwrap();
        // Checksums are truncated to 32 bits on the wire; compare by
        // peeling behaviour on the truncated domain instead of raw cells.
        assert_eq!(back.per_table, a.per_table);
        assert_eq!(back.cell_count(), a.cell_count());
    }

    #[test]
    fn protocol_recovers_intersection_across_overlaps() {
        let spec = ProblemSpec::new(1 << 30, 256);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for overlap in [256usize, 250, 200, 128, 10, 0] {
            let pair = InputPair::random_with_overlap(&mut rng, spec, 256, overlap);
            let run = execute(&IbltReconcile::default(), spec, &pair, overlap as u64).unwrap();
            assert!(
                run.matches(&pair.ground_truth()),
                "overlap {overlap}: got {} elements",
                run.alice.len()
            );
        }
    }

    #[test]
    fn cost_scales_with_difference_not_cardinality() {
        let spec = ProblemSpec::new(1 << 40, 4096);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        // d = 16 vs d = 1024 at the same k.
        let near = InputPair::random_with_overlap(&mut rng, spec, 4096, 4088);
        let far = InputPair::random_with_overlap(&mut rng, spec, 4096, 3584);
        let run_near = execute(&IbltReconcile::default(), spec, &near, 1).unwrap();
        let run_far = execute(&IbltReconcile::default(), spec, &far, 1).unwrap();
        assert!(run_near.matches(&near.ground_truth()));
        assert!(run_far.matches(&far.ground_truth()));
        assert!(
            run_near.report.total_bits() * 8 < run_far.report.total_bits(),
            "near {} vs far {}",
            run_near.report.total_bits(),
            run_far.report.total_bits()
        );
        // And the near case must beat O(k): fewer bits than even 4 bits/elem.
        assert!(run_near.report.total_bits() < 4 * 4096);
    }

    #[test]
    fn equal_sets_cost_only_the_initial_table() {
        // d = 0: cost is the initial 3·initial_cells table (every cell is
        // occupied by sums over S, but there are only O(initial) cells) —
        // constant in k.
        let spec = ProblemSpec::new(1 << 30, 1024);
        let s: ElementSet = (0..1024u64).map(|i| i * 331).collect();
        let pair = InputPair {
            s: s.clone(),
            t: s.clone(),
        };
        let run = execute(&IbltReconcile::default(), spec, &pair, 2).unwrap();
        assert_eq!(run.alice, s);
        let proto = IbltReconcile::default();
        let floor = (3 * proto.initial_cells) as u64 * (30 + proto.checksum_bits as u64 + 25);
        assert!(
            run.report.total_bits() < floor,
            "{} vs floor {floor}",
            run.report.total_bits()
        );
        // Constant in k: far below one bit per element… times a few.
        assert!(run.report.total_bits() < 4 * 1024);
    }

    /// Dense universe (n/k = 64), half overlap: peeling used to cycle on
    /// a false peel here and grow its queue until the allocator aborted
    /// the process.
    #[test]
    fn tuple_n2p16_k1024_seed17024_overlap512_session3_ends_cleanly() {
        let spec = ProblemSpec::new(1 << 16, 1024);
        let mut rng = ChaCha8Rng::seed_from_u64(17024);
        let pair = InputPair::random_with_overlap(&mut rng, spec, 1024, 512);
        if let Ok(run) = execute(&IbltReconcile::default(), spec, &pair, 3) {
            assert!(run.matches(&pair.ground_truth()));
        }
    }

    /// A table size no honest Alice sends is refused before Bob builds
    /// anything, with a typed codec error.
    #[test]
    fn oversized_table_on_the_wire_is_refused() {
        let mut forged = BitBuf::new();
        put_gamma0(&mut forged, 1 << 40); // per_table
        put_gamma0(&mut forged, 0); // no occupied cells
        assert_eq!(
            Iblt::read(&mut forged.reader(), 16, 32, 8),
            Err(ProtocolError::Codec(CodecError::ValueOutOfRange {
                value: 1 << 40,
                bound: 9
            }))
        );

        let spec = ProblemSpec::new(1 << 16, 16);
        let t: ElementSet = (0..16u64).collect();
        let out = intersect_comm::runner::run_two_party(
            &intersect_comm::runner::RunConfig::with_seed(1),
            |chan, _| chan.send(forged.clone()),
            |chan, coins| {
                Ok(IbltReconcile::default()
                    .run(chan, coins, Side::Bob, spec, &t)
                    .unwrap_err())
            },
        )
        .unwrap();
        assert!(
            matches!(
                out.bob,
                ProtocolError::Codec(CodecError::ValueOutOfRange { .. })
            ),
            "{:?}",
            out.bob
        );
    }

    #[test]
    fn empty_sets() {
        let spec = ProblemSpec::new(1000, 8);
        let pair = InputPair {
            s: ElementSet::new(),
            t: ElementSet::from_iter([1u64, 2]),
        };
        let run = execute(&IbltReconcile::default(), spec, &pair, 3).unwrap();
        assert!(run.alice.is_empty() && run.bob.is_empty());
    }
}
