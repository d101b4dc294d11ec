//! Arbitrary-precision natural numbers.
//!
//! The deterministic one-round protocol encodes a `k`-subset of `[n]` with
//! the information-theoretically optimal `⌈log₂ C(n,k)⌉` bits via the
//! combinatorial number system. Binomial coefficients of that size do not fit
//! in machine words, so this module provides a small, dependency-free
//! big-natural type with exactly the operations the subset codec needs:
//! addition, subtraction, comparison, multiplication and division by a word,
//! and bit-level import/export.

use crate::bits::{BitBuf, BitReader};
use crate::error::CodecError;
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision natural number (little-endian 64-bit limbs).
///
/// # Examples
///
/// ```
/// use intersect_comm::bignat::BigNat;
///
/// let mut x = BigNat::from(u64::MAX);
/// x.add_assign(&BigNat::from(1u64));
/// assert_eq!(x.bit_len(), 65);
/// assert_eq!(x.to_string(), "18446744073709551616");
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct BigNat {
    /// Invariant: no trailing zero limbs (canonical form); empty means zero.
    limbs: Vec<u64>,
}

impl BigNat {
    /// The number zero.
    pub fn zero() -> Self {
        BigNat { limbs: Vec::new() }
    }

    /// The number one.
    pub fn one() -> Self {
        BigNat { limbs: vec![1] }
    }

    /// Returns `true` if the value is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Number of bits in the binary representation (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (LSB is bit 0); bits beyond `bit_len` are zero.
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &BigNat) {
        let mut carry = 0u64;
        for i in 0..other.limbs.len().max(self.limbs.len()) {
            if i == self.limbs.len() {
                self.limbs.push(0);
            }
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = self.limbs[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            self.limbs.push(carry);
        }
    }

    /// `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (naturals cannot go negative).
    pub fn sub_assign(&mut self, other: &BigNat) {
        assert!(
            self.cmp_nat(other) != Ordering::Less,
            "BigNat subtraction underflow"
        );
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, c1) = self.limbs[i].overflowing_sub(b);
            let (d2, c2) = d1.overflowing_sub(borrow);
            self.limbs[i] = d2;
            borrow = (c1 as u64) + (c2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        self.normalize();
    }

    /// `self *= m`.
    pub fn mul_assign_u64(&mut self, m: u64) {
        if m == 0 {
            self.limbs.clear();
            return;
        }
        let mut carry = 0u128;
        for limb in &mut self.limbs {
            let prod = (*limb as u128) * (m as u128) + carry;
            *limb = prod as u64;
            carry = prod >> 64;
        }
        if carry > 0 {
            self.limbs.push(carry as u64);
        }
    }

    /// Replaces `self` with `self / d` and returns the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn div_assign_rem_u64(&mut self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let mut rem = 0u128;
        for limb in self.limbs.iter_mut().rev() {
            let cur = (rem << 64) | (*limb as u128);
            *limb = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        self.normalize();
        rem as u64
    }

    /// Total ordering on naturals (named to avoid clashing with `Ord::cmp`).
    pub fn cmp_nat(&self, other: &BigNat) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Writes exactly `width` bits (LSB first) of the value to `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `width` bits.
    pub fn write_bits(&self, buf: &mut BitBuf, width: usize) {
        assert!(
            self.bit_len() <= width,
            "value of {} bits does not fit in {} bits",
            self.bit_len(),
            width
        );
        let mut written = 0;
        let mut limb_idx = 0;
        while written < width {
            let take = (width - written).min(64);
            let limb = self.limbs.get(limb_idx).copied().unwrap_or(0);
            let value = if take == 64 {
                limb
            } else {
                limb & ((1u64 << take) - 1)
            };
            buf.push_bits(value, take);
            written += take;
            limb_idx += 1;
        }
    }

    /// Reads exactly `width` bits (LSB first) as a natural number.
    ///
    /// # Errors
    ///
    /// Propagates [`CodecError::UnexpectedEnd`] if the reader is short.
    pub fn read_bits(reader: &mut BitReader<'_>, width: usize) -> Result<Self, CodecError> {
        let mut limbs = Vec::with_capacity(width.div_ceil(64));
        let mut read = 0;
        while read < width {
            let take = (width - read).min(64);
            limbs.push(reader.read_bits(take)?);
            read += take;
        }
        let mut n = BigNat { limbs };
        n.normalize();
        Ok(n)
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some((self.limbs[1] as u128) << 64 | self.limbs[0] as u128),
            _ => None,
        }
    }
}

impl From<u64> for BigNat {
    fn from(v: u64) -> Self {
        let mut n = BigNat { limbs: vec![v] };
        n.normalize();
        n
    }
}

impl From<u128> for BigNat {
    fn from(v: u128) -> Self {
        let mut n = BigNat {
            limbs: vec![v as u64, (v >> 64) as u64],
        };
        n.normalize();
        n
    }
}

impl PartialOrd for BigNat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigNat {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_nat(other)
    }
}

impl fmt::Display for BigNat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut tmp = self.clone();
        while !tmp.is_zero() {
            digits.push(tmp.div_assign_rem_u64(10) as u8);
        }
        for d in digits.iter().rev() {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigNat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigNat({self})")
    }
}

/// Computes the binomial coefficient `C(n, k)` exactly.
///
/// Uses the multiplicative formula with exact intermediate division, so every
/// step stays integral.
///
/// # Examples
///
/// ```
/// use intersect_comm::bignat::binomial;
/// assert_eq!(binomial(5, 2).to_u64(), Some(10));
/// assert_eq!(binomial(0, 0).to_u64(), Some(1));
/// assert_eq!(binomial(3, 7).to_u64(), Some(0));
/// ```
pub fn binomial(n: u64, k: u64) -> BigNat {
    if k > n {
        return BigNat::zero();
    }
    let k = k.min(n - k);
    let mut c = BigNat::one();
    for i in 0..k {
        // c = c * (n - i) / (i + 1); division is exact because c holds
        // C(n, i+1) * (i+1)! / (i+1)! style prefix products.
        c.mul_assign_u64(n - i);
        let rem = c.div_assign_rem_u64(i + 1);
        debug_assert_eq!(rem, 0, "binomial intermediate division must be exact");
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat(v: u128) -> BigNat {
        BigNat::from(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigNat::zero().is_zero());
        assert_eq!(BigNat::zero().bit_len(), 0);
        assert_eq!(BigNat::one().to_u64(), Some(1));
        assert_eq!(BigNat::one().bit_len(), 1);
    }

    #[test]
    fn add_with_carry_chain() {
        let mut x = nat(u128::MAX);
        x.add_assign(&BigNat::one());
        assert_eq!(x.bit_len(), 129);
        assert!(x.bit(128));
        for i in 0..128 {
            assert!(!x.bit(i));
        }
    }

    #[test]
    fn sub_round_trips_add() {
        let mut x = nat(0x1234_5678_9abc_def0_1111_2222_3333_4444);
        let y = nat(0x0f0f_0f0f_0f0f_0f0f_0f0f);
        let orig = x.clone();
        x.add_assign(&y);
        x.sub_assign(&y);
        assert_eq!(x, orig);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let mut x = nat(5);
        x.sub_assign(&nat(6));
    }

    #[test]
    fn mul_div_round_trip_against_u128() {
        let mut x = nat(987_654_321_987_654_321);
        x.mul_assign_u64(1_000_000_007);
        let expect = 987_654_321_987_654_321u128 * 1_000_000_007u128;
        assert_eq!(x.to_u128(), Some(expect));
        let rem = x.div_assign_rem_u64(123_456_789);
        assert_eq!(x.to_u128(), Some(expect / 123_456_789));
        assert_eq!(rem as u128, expect % 123_456_789);
    }

    #[test]
    fn mul_by_zero_is_zero() {
        let mut x = nat(u128::MAX);
        x.mul_assign_u64(0);
        assert!(x.is_zero());
    }

    #[test]
    fn ordering_matches_values() {
        assert!(nat(100) < nat(101));
        let big = {
            let mut b = nat(u128::MAX);
            b.add_assign(&BigNat::one());
            b
        };
        assert!(big > nat(u128::MAX));
        assert_eq!(nat(42).cmp_nat(&nat(42)), std::cmp::Ordering::Equal);
    }

    #[test]
    fn display_decimal() {
        assert_eq!(BigNat::zero().to_string(), "0");
        assert_eq!(
            nat(1234567890123456789012345678901234567).to_string(),
            "1234567890123456789012345678901234567"
        );
    }

    #[test]
    fn bits_round_trip() {
        let v = nat(0xdead_beef_cafe_babe_0123_4567_89ab_cdef);
        let width = v.bit_len() + 7;
        let mut buf = BitBuf::new();
        v.write_bits(&mut buf, width);
        assert_eq!(buf.len(), width);
        let mut r = buf.reader();
        let back = BigNat::read_bits(&mut r, width).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn binomial_small_values() {
        assert_eq!(binomial(10, 3).to_u64(), Some(120));
        assert_eq!(binomial(52, 5).to_u64(), Some(2_598_960));
        assert_eq!(binomial(100, 0).to_u64(), Some(1));
        assert_eq!(binomial(100, 100).to_u64(), Some(1));
        assert_eq!(binomial(4, 5).to_u64(), Some(0));
    }

    #[test]
    fn binomial_pascal_identity() {
        for n in 1..40u64 {
            for k in 1..n {
                let mut lhs = binomial(n - 1, k - 1);
                lhs.add_assign(&binomial(n - 1, k));
                assert_eq!(lhs, binomial(n, k), "C({n},{k})");
            }
        }
    }

    #[test]
    fn binomial_large_bit_length_is_near_entropy() {
        // log2 C(2^16, 2^8) ≈ k log2(n/k) + O(k) = 256*8 + ...; sanity-check range.
        let c = binomial(1 << 16, 1 << 8);
        let bits = c.bit_len() as f64;
        assert!(bits > 2048.0 && bits < 3500.0, "bits = {bits}");
    }
}
