//! Bit-level codes used by the protocols.
//!
//! Three families:
//!
//! * **Universal integer codes** (Elias gamma/delta, unary, Golomb–Rice) for
//!   values whose magnitude the receiver cannot predict, e.g. the index a
//!   player announces in the Håstad–Wigderson protocol.
//! * **Fixed-width codes** for values with a known bound.
//! * **Subset codes** for transmitting a whole set `S ⊆ [n]`, `|S| ≤ k`:
//!   [`BinomialSubsetCodec`] achieves the information-theoretic optimum
//!   `⌈log₂ Σᵢ C(n,i)⌉` bits via the combinatorial number system, and
//!   [`RiceSubsetCodec`] achieves `k·(log₂(n/k) + O(1))` bits with
//!   word-speed encoding, and [`EliasFanoSubsetCodec`] matches it with the
//!   upper-bits structure standard in inverted indexes. All three realize
//!   the paper's trivial deterministic bound `D⁽¹⁾(INT_k) = O(k log(n/k))`.

use crate::bignat::{binomial, BigNat};
use crate::bits::{bit_width_for, BitBuf, BitReader};
use crate::error::CodecError;

/// Appends `v ≥ 1` in Elias gamma code: `⌊log₂ v⌋` zeros, a one, then the
/// low `⌊log₂ v⌋` bits of `v`.
///
/// Costs `2⌊log₂ v⌋ + 1` bits.
///
/// # Panics
///
/// Panics if `v == 0` (gamma codes positive integers only; use
/// [`put_gamma0`] for non-negative values).
pub fn put_gamma(buf: &mut BitBuf, v: u64) {
    assert!(v >= 1, "Elias gamma encodes positive integers");
    let n = bit_width_for(v + 1).max(1); // number of significant bits of v
    debug_assert!(v >> (n - 1) == 1);
    for _ in 0..n - 1 {
        buf.push_bit(false);
    }
    buf.push_bit(true);
    if n > 1 {
        buf.push_bits(v & ((1u64 << (n - 1)) - 1), n - 1);
    }
}

/// Reads an Elias-gamma-coded positive integer.
///
/// # Errors
///
/// Returns a [`CodecError`] if the stream ends inside the code.
pub fn get_gamma(r: &mut BitReader<'_>) -> Result<u64, CodecError> {
    let mut zeros = 0usize;
    while !r.read_bit()? {
        zeros += 1;
        if zeros >= 64 {
            return Err(CodecError::Malformed("gamma prefix longer than 63"));
        }
    }
    let low = if zeros > 0 { r.read_bits(zeros)? } else { 0 };
    Ok((1u64 << zeros) | low)
}

/// Appends `v ≥ 0` as gamma code of `v + 1`.
pub fn put_gamma0(buf: &mut BitBuf, v: u64) {
    assert!(v < u64::MAX, "value too large for shifted gamma");
    put_gamma(buf, v + 1);
}

/// Reads a value written by [`put_gamma0`].
///
/// # Errors
///
/// Returns a [`CodecError`] if the stream ends inside the code.
pub fn get_gamma0(r: &mut BitReader<'_>) -> Result<u64, CodecError> {
    Ok(get_gamma(r)? - 1)
}

/// Appends `v ≥ 1` in Elias delta code: gamma code of the bit length,
/// followed by the remaining bits. Costs `log₂ v + O(log log v)` bits.
///
/// # Panics
///
/// Panics if `v == 0`.
pub fn put_delta(buf: &mut BitBuf, v: u64) {
    assert!(v >= 1, "Elias delta encodes positive integers");
    let n = bit_width_for(v + 1).max(1);
    put_gamma(buf, n as u64);
    if n > 1 {
        buf.push_bits(v & ((1u64 << (n - 1)) - 1), n - 1);
    }
}

/// Reads an Elias-delta-coded positive integer.
///
/// # Errors
///
/// Returns a [`CodecError`] if the stream ends inside the code.
pub fn get_delta(r: &mut BitReader<'_>) -> Result<u64, CodecError> {
    let n = get_gamma(r)? as usize;
    if n == 0 || n > 64 {
        return Err(CodecError::Malformed("delta length out of range"));
    }
    let low = if n > 1 { r.read_bits(n - 1)? } else { 0 };
    Ok((1u64 << (n - 1)) | low)
}

/// Appends `v ≥ 0` in Golomb–Rice code with parameter `b`:
/// quotient `v >> b` in unary, then the low `b` bits.
pub fn put_rice(buf: &mut BitBuf, v: u64, b: usize) {
    assert!(b < 64, "Rice parameter must be below 64");
    let q = v >> b;
    assert!(
        q < 1 << 20,
        "Rice quotient unreasonably large; wrong parameter?"
    );
    for _ in 0..q {
        buf.push_bit(true);
    }
    buf.push_bit(false);
    if b > 0 {
        buf.push_bits(v & ((1u64 << b) - 1), b);
    }
}

/// Reads a Golomb–Rice-coded value with parameter `b`.
///
/// # Errors
///
/// Returns a [`CodecError`] if the stream ends inside the code.
pub fn get_rice(r: &mut BitReader<'_>, b: usize) -> Result<u64, CodecError> {
    let mut q = 0u64;
    while r.read_bit()? {
        q += 1;
        if q >= 1 << 20 {
            return Err(CodecError::Malformed("rice quotient overflow"));
        }
    }
    let low = if b > 0 { r.read_bits(b)? } else { 0 };
    Ok((q << b) | low)
}

/// The information-theoretically optimal code for subsets of `[n]` of size
/// at most `k`, via the combinatorial number system.
///
/// Encodes the size `s` in `⌈log₂(k+1)⌉` bits, then the colexicographic rank
/// of the subset among all `s`-subsets in `⌈log₂ C(n,s)⌉` bits. For
/// `s = k ≪ n` this is `k log₂(n/k) + O(k)` bits — the optimum the paper's
/// trivial protocol refers to.
///
/// Encoding and decoding are `O((n + k) · L)` where `L` is the limb count of
/// `C(n,k)`; prefer [`RiceSubsetCodec`] when `n` is large and optimality to
/// the last bit is not required.
///
/// # Examples
///
/// ```
/// use intersect_comm::encode::BinomialSubsetCodec;
///
/// let codec = BinomialSubsetCodec::new(100, 10);
/// let set = [3u64, 14, 15, 92];
/// let buf = codec.encode(&set);
/// assert_eq!(codec.decode(&mut buf.reader()).unwrap(), set);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinomialSubsetCodec {
    n: u64,
    k: u64,
}

impl BinomialSubsetCodec {
    /// Creates a codec for subsets of `[n]` with at most `k` elements.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn new(n: u64, k: u64) -> Self {
        assert!(k <= n, "subset size bound {k} exceeds universe size {n}");
        BinomialSubsetCodec { n, k }
    }

    /// Bits needed to address any rank in `[0, bound)`.
    fn rank_width(bound: &BigNat) -> usize {
        let mut max_rank = bound.clone();
        if max_rank.is_zero() {
            return 0;
        }
        max_rank.sub_assign(&BigNat::one());
        max_rank.bit_len()
    }

    /// Encodes a strictly increasing slice of elements `< n`.
    ///
    /// # Panics
    ///
    /// Panics if the slice is not strictly increasing, has more than `k`
    /// elements, or contains an element `≥ n`.
    pub fn encode(&self, set: &[u64]) -> BitBuf {
        let s = set.len() as u64;
        assert!(s <= self.k, "set larger than codec bound");
        let mut buf = BitBuf::new();
        buf.push_bits(s, bit_width_for(self.k + 1));
        if s == 0 {
            return buf;
        }
        let mut prev = None;
        let mut rank = BigNat::zero();
        for (i, &x) in set.iter().enumerate() {
            assert!(x < self.n, "element {x} outside universe [{}]", self.n);
            if let Some(p) = prev {
                assert!(x > p, "set must be strictly increasing");
            }
            prev = Some(x);
            rank.add_assign(&binomial(x, i as u64 + 1));
        }
        let bound = binomial(self.n, s);
        debug_assert!(rank.cmp_nat(&bound).is_lt());
        rank.write_bits(&mut buf, Self::rank_width(&bound));
        buf
    }

    /// Decodes a subset written by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or out-of-range input.
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<Vec<u64>, CodecError> {
        let s = r.read_bits(bit_width_for(self.k + 1))?;
        if s > self.k {
            return Err(CodecError::ValueOutOfRange {
                value: s,
                bound: self.k + 1,
            });
        }
        if s == 0 {
            return Ok(Vec::new());
        }
        let bound = binomial(self.n, s);
        let mut rank = BigNat::read_bits(r, Self::rank_width(&bound))?;
        if rank.cmp_nat(&bound).is_ge() {
            return Err(CodecError::Malformed("subset rank out of range"));
        }
        // Colexicographic unranking: for coordinate i from s down to 1, the
        // element is the largest x with C(x, i) ≤ rank. Walk x downward from
        // n-1 once in total, maintaining c = C(x, i) incrementally.
        let mut out = vec![0u64; s as usize];
        let mut i = s; // current coordinate (number of elements still to place)
        let mut x = self.n - 1;
        let mut c = binomial(x, i);
        loop {
            if c.cmp_nat(&rank).is_le() {
                // x is the element for coordinate i. (When c = 0, x < i and
                // the range check above guarantees rank = 0 here, forcing the
                // remaining elements to be i-1, i-2, …, 0.)
                rank.sub_assign(&c);
                out[i as usize - 1] = x;
                if i == 1 {
                    break;
                }
                if x == 0 {
                    return Err(CodecError::Malformed("subset decoder underflow"));
                }
                // c := C(x-1, i-1) = C(x, i) · i / x (exact division).
                c.mul_assign_u64(i);
                let rem = c.div_assign_rem_u64(x);
                debug_assert_eq!(rem, 0);
                i -= 1;
                x -= 1;
            } else {
                // c > rank ≥ 0 implies c ≥ 1, hence x ≥ i: x - i is safe.
                // c := C(x-1, i) = C(x, i) · (x - i) / x (exact division).
                c.mul_assign_u64(x - i);
                let rem = c.div_assign_rem_u64(x);
                debug_assert_eq!(rem, 0);
                x -= 1;
            }
        }
        Ok(out)
    }
}

/// A fast near-optimal subset code: sorted elements are gap-encoded with
/// Golomb–Rice using parameter `b ≈ log₂(n/k)`.
///
/// Costs `|S|·(log₂(n/|S|) + O(1)) + O(log k)` bits — within a small constant
/// of [`BinomialSubsetCodec`] but with word-speed encode/decode.
///
/// # Examples
///
/// ```
/// use intersect_comm::encode::RiceSubsetCodec;
///
/// let codec = RiceSubsetCodec::new(1 << 20, 256);
/// let set = [17u64, 400_000, 900_001];
/// let buf = codec.encode(&set);
/// assert_eq!(codec.decode(&mut buf.reader()).unwrap(), set);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RiceSubsetCodec {
    n: u64,
    k: u64,
}

impl RiceSubsetCodec {
    /// Creates a codec for subsets of `[n]` with at most `k` elements.
    ///
    /// # Panics
    ///
    /// Panics if `k > n` or `n == 0`.
    pub fn new(n: u64, k: u64) -> Self {
        assert!(n > 0, "universe must be non-empty");
        assert!(k <= n, "subset size bound {k} exceeds universe size {n}");
        RiceSubsetCodec { n, k }
    }

    fn rice_param(&self, s: u64) -> usize {
        if s == 0 {
            return 0;
        }
        // Mean gap is about n/s; Rice is near-optimal at b = floor(log2(mean)).
        let mean = (self.n / s).max(1);
        bit_width_for(mean + 1).saturating_sub(1)
    }

    /// Encodes a strictly increasing slice of elements `< n`.
    ///
    /// # Panics
    ///
    /// Panics if the slice is not strictly increasing, has more than `k`
    /// elements, or contains an element `≥ n`.
    pub fn encode(&self, set: &[u64]) -> BitBuf {
        let s = set.len() as u64;
        assert!(s <= self.k, "set larger than codec bound");
        let mut buf = BitBuf::new();
        buf.push_bits(s, bit_width_for(self.k + 1));
        let b = self.rice_param(s);
        let mut prev: Option<u64> = None;
        for &x in set {
            assert!(x < self.n, "element {x} outside universe [{}]", self.n);
            let gap = match prev {
                None => x,
                Some(p) => {
                    assert!(x > p, "set must be strictly increasing");
                    x - p - 1
                }
            };
            prev = Some(x);
            put_rice(&mut buf, gap, b);
        }
        buf
    }

    /// Decodes a subset written by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or out-of-range input.
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<Vec<u64>, CodecError> {
        let s = r.read_bits(bit_width_for(self.k + 1))?;
        if s > self.k {
            return Err(CodecError::ValueOutOfRange {
                value: s,
                bound: self.k + 1,
            });
        }
        let b = self.rice_param(s);
        let mut out = Vec::with_capacity(s as usize);
        let mut prev: Option<u64> = None;
        for _ in 0..s {
            let gap = get_rice(r, b)?;
            let x = match prev {
                None => gap,
                Some(p) => p + 1 + gap,
            };
            if x >= self.n {
                return Err(CodecError::ValueOutOfRange {
                    value: x,
                    bound: self.n,
                });
            }
            prev = Some(x);
            out.push(x);
        }
        Ok(out)
    }
}

/// The Elias–Fano code for monotone sequences, as a subset code:
/// `|S|·(⌈log₂(n/|S|)⌉ + 2) + O(log k)` bits, with streaming decode.
///
/// Splits each element into `l = ⌊log₂(n/s)⌋` explicit low bits and a
/// unary-coded sequence of high-part gaps; the high part totals at most
/// `s + n/2^l ≤ 3s` bits. Within ~2 bits/element of the information
/// optimum, like [`RiceSubsetCodec`], but with the upper-bits structure
/// that makes Elias–Fano the standard succinct representation in inverted
/// indexes — a natural fit for the paper's database motivation.
///
/// # Examples
///
/// ```
/// use intersect_comm::encode::EliasFanoSubsetCodec;
///
/// let codec = EliasFanoSubsetCodec::new(1 << 20, 100);
/// let set = [3u64, 900, 500_000, 1_000_000];
/// let buf = codec.encode(&set);
/// assert_eq!(codec.decode(&mut buf.reader()).unwrap(), set);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EliasFanoSubsetCodec {
    n: u64,
    k: u64,
}

impl EliasFanoSubsetCodec {
    /// Creates a codec for subsets of `[n]` with at most `k` elements.
    ///
    /// # Panics
    ///
    /// Panics if `k > n` or `n == 0`.
    pub fn new(n: u64, k: u64) -> Self {
        assert!(n > 0, "universe must be non-empty");
        assert!(k <= n, "subset size bound {k} exceeds universe size {n}");
        EliasFanoSubsetCodec { n, k }
    }

    /// Low-bit width for a subset of size `s`: `⌊log₂(n/s)⌋`.
    fn low_bits(&self, s: u64) -> usize {
        if s == 0 {
            return 0;
        }
        let per = (self.n / s).max(1);
        bit_width_for(per + 1).saturating_sub(1)
    }

    /// Encodes a strictly increasing slice of elements `< n`.
    ///
    /// # Panics
    ///
    /// Panics if the slice is not strictly increasing, has more than `k`
    /// elements, or contains an element `≥ n`.
    pub fn encode(&self, set: &[u64]) -> BitBuf {
        let s = set.len() as u64;
        assert!(s <= self.k, "set larger than codec bound");
        let mut buf = BitBuf::new();
        buf.push_bits(s, bit_width_for(self.k + 1));
        let l = self.low_bits(s);
        let mut prev_high = 0u64;
        let mut prev: Option<u64> = None;
        // High part: unary gaps between successive high values.
        for &x in set {
            assert!(x < self.n, "element {x} outside universe [{}]", self.n);
            if let Some(p) = prev {
                assert!(x > p, "set must be strictly increasing");
            }
            prev = Some(x);
            let high = x >> l;
            for _ in 0..(high - prev_high) {
                buf.push_bit(false);
            }
            buf.push_bit(true);
            prev_high = high;
        }
        // Low part: fixed-width explicit bits.
        if l > 0 {
            for &x in set {
                buf.push_bits(x & ((1u64 << l) - 1), l);
            }
        }
        buf
    }

    /// Decodes a subset written by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or out-of-range input.
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<Vec<u64>, CodecError> {
        let s = r.read_bits(bit_width_for(self.k + 1))?;
        if s > self.k {
            return Err(CodecError::ValueOutOfRange {
                value: s,
                bound: self.k + 1,
            });
        }
        let l = self.low_bits(s);
        let mut highs = Vec::with_capacity(s as usize);
        let mut high = 0u64;
        for _ in 0..s {
            while !r.read_bit()? {
                high += 1;
                if (high << l) >= self.n.max(1) {
                    return Err(CodecError::Malformed("elias-fano high part overflow"));
                }
            }
            highs.push(high);
        }
        let mut out = Vec::with_capacity(s as usize);
        for h in highs {
            let low = if l > 0 { r.read_bits(l)? } else { 0 };
            let x = (h << l) | low;
            if x >= self.n {
                return Err(CodecError::ValueOutOfRange {
                    value: x,
                    bound: self.n,
                });
            }
            out.push(x);
        }
        if out.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CodecError::Malformed("elias-fano output not increasing"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_round_trip() {
        let values = [1u64, 2, 3, 4, 5, 7, 8, 100, 1023, 1024, u32::MAX as u64];
        let mut buf = BitBuf::new();
        for &v in &values {
            put_gamma(&mut buf, v);
        }
        let mut r = buf.reader();
        for &v in &values {
            assert_eq!(get_gamma(&mut r).unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn gamma_cost_is_2logv_plus_1() {
        for &(v, bits) in &[(1u64, 1usize), (2, 3), (3, 3), (4, 5), (255, 15), (256, 17)] {
            let mut buf = BitBuf::new();
            put_gamma(&mut buf, v);
            assert_eq!(buf.len(), bits, "gamma({v})");
        }
    }

    #[test]
    fn gamma0_encodes_zero() {
        let mut buf = BitBuf::new();
        put_gamma0(&mut buf, 0);
        put_gamma0(&mut buf, 41);
        let mut r = buf.reader();
        assert_eq!(get_gamma0(&mut r).unwrap(), 0);
        assert_eq!(get_gamma0(&mut r).unwrap(), 41);
    }

    #[test]
    fn delta_round_trip_and_beats_gamma_for_large() {
        let v = u64::MAX / 3;
        let mut g = BitBuf::new();
        let mut d = BitBuf::new();
        // gamma cannot encode values that big within its 63-zero guard when
        // reading, but writing works; compare at a large-but-legal value.
        put_gamma(&mut g, v);
        put_delta(&mut d, v);
        assert!(d.len() < g.len());
        let mut r = d.reader();
        assert_eq!(get_delta(&mut r).unwrap(), v);
    }

    #[test]
    fn rice_round_trip_various_params() {
        for b in [0usize, 1, 3, 8, 16] {
            let mut buf = BitBuf::new();
            let values = [0u64, 1, 5, (1 << b) as u64, (7 << b) as u64 + 3];
            for &v in &values {
                put_rice(&mut buf, v, b);
            }
            let mut r = buf.reader();
            for &v in &values {
                assert_eq!(get_rice(&mut r, b).unwrap(), v, "b={b}");
            }
        }
    }

    #[test]
    fn truncated_codes_error_cleanly() {
        let mut buf = BitBuf::new();
        put_gamma(&mut buf, 1000);
        // Drop the last bits by copying a prefix.
        let mut prefix = BitBuf::new();
        let mut r = buf.reader();
        let cut = r.read_buf(buf.len() - 4).unwrap();
        prefix.extend_from(&cut);
        assert!(get_gamma(&mut prefix.reader()).is_err());
    }

    #[test]
    fn binomial_subset_round_trip_exhaustive_small() {
        let codec = BinomialSubsetCodec::new(9, 4);
        // Every subset of [9] with ≤ 4 elements round-trips.
        for mask in 0u32..(1 << 9) {
            if mask.count_ones() > 4 {
                continue;
            }
            let set: Vec<u64> = (0..9).filter(|i| mask >> i & 1 == 1).collect();
            let buf = codec.encode(&set);
            let back = codec.decode(&mut buf.reader()).unwrap();
            assert_eq!(back, set, "mask {mask:b}");
        }
    }

    #[test]
    fn binomial_subset_is_information_optimal() {
        let n = 64u64;
        let k = 8u64;
        let codec = BinomialSubsetCodec::new(n, k);
        let set: Vec<u64> = (0..k).map(|i| i * 7 + 3).collect();
        let buf = codec.encode(&set);
        let optimal = binomial(n, k).bit_len(); // ≈ log2 C(64,8) ≈ 32.9 -> 33
                                                // size header (4 bits) + rank ≤ optimal + 1
        assert!(buf.len() <= optimal + 4 + 1, "{} vs {}", buf.len(), optimal);
    }

    #[test]
    fn binomial_subset_empty_and_full() {
        let codec = BinomialSubsetCodec::new(12, 12);
        for set in [vec![], (0..12u64).collect::<Vec<_>>()] {
            let buf = codec.encode(&set);
            assert_eq!(codec.decode(&mut buf.reader()).unwrap(), set);
        }
    }

    #[test]
    fn rice_subset_round_trip_random() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let n = rng.gen_range(1..100_000u64);
            let k = rng.gen_range(0..=n.min(200));
            let codec = RiceSubsetCodec::new(n, k);
            let mut elems: Vec<u64> = (0..k).map(|_| rng.gen_range(0..n)).collect();
            elems.sort_unstable();
            elems.dedup();
            let buf = codec.encode(&elems);
            assert_eq!(codec.decode(&mut buf.reader()).unwrap(), elems);
        }
    }

    #[test]
    fn rice_subset_cost_tracks_k_log_n_over_k() {
        let n = 1u64 << 20;
        let k = 1u64 << 10;
        let codec = RiceSubsetCodec::new(n, k);
        let set: Vec<u64> = (0..k).map(|i| i * (n / k) + 5).collect();
        let buf = codec.encode(&set);
        let per_elem = buf.len() as f64 / k as f64;
        let target = ((n / k) as f64).log2();
        assert!(
            per_elem < target + 3.0,
            "per-element cost {per_elem:.2} vs log2(n/k) = {target:.2}"
        );
    }

    #[test]
    fn subset_decode_rejects_garbage_size() {
        // bit_width_for(3) = 2 allows an encoded size field of 3 > k = 2:
        // decoders must reject it rather than trust the wire.
        let bcodec = BinomialSubsetCodec::new(100, 2);
        let mut bad = BitBuf::new();
        bad.push_bits(3, 2);
        assert!(bcodec.decode(&mut bad.reader()).is_err());
        let rcodec = RiceSubsetCodec::new(100, 2);
        assert!(rcodec.decode(&mut bad.reader()).is_err());
    }

    #[test]
    fn elias_fano_round_trip_random() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let n = rng.gen_range(1..500_000u64);
            let k = rng.gen_range(0..=n.min(300));
            let codec = EliasFanoSubsetCodec::new(n, k);
            let mut elems: Vec<u64> = (0..k).map(|_| rng.gen_range(0..n)).collect();
            elems.sort_unstable();
            elems.dedup();
            let buf = codec.encode(&elems);
            assert_eq!(codec.decode(&mut buf.reader()).unwrap(), elems);
        }
    }

    #[test]
    fn elias_fano_cost_is_near_optimal() {
        let n = 1u64 << 24;
        let k = 1u64 << 10;
        let codec = EliasFanoSubsetCodec::new(n, k);
        let set: Vec<u64> = (0..k).map(|i| i * (n / k) + 11).collect();
        let buf = codec.encode(&set);
        let per_elem = buf.len() as f64 / k as f64;
        let target = ((n / k) as f64).log2();
        assert!(
            per_elem < target + 2.5,
            "per-element {per_elem:.2} vs log2(n/k) = {target:.2}"
        );
    }

    #[test]
    fn elias_fano_edge_cases() {
        let codec = EliasFanoSubsetCodec::new(10, 10);
        for set in [
            vec![],
            vec![0u64],
            vec![9u64],
            (0..10u64).collect::<Vec<_>>(),
        ] {
            let buf = codec.encode(&set);
            assert_eq!(codec.decode(&mut buf.reader()).unwrap(), set, "{set:?}");
        }
    }

    #[test]
    fn elias_fano_rejects_truncation() {
        let codec = EliasFanoSubsetCodec::new(1000, 8);
        let buf = codec.encode(&[5, 500, 900]);
        let mut r = buf.reader();
        let cut = r.read_buf(buf.len() - 3).unwrap();
        assert!(codec.decode(&mut cut.reader()).is_err());
    }
}
