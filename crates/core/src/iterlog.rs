//! Iterated logarithms.
//!
//! The paper's round/communication trade-off is stated in terms of
//! `log^(r) k` — the logarithm applied `r` times (`log^(0) k = k`,
//! `log^(1) k = log k`, …) — and `log* k`, the number of applications
//! needed to reach 1. We work over the integers with `log x = ⌈log₂ x⌉`,
//! clamped so the sequence stabilizes at 1.

/// `⌈log₂ x⌉` for `x ≥ 1` (0 for `x = 1`).
///
/// # Panics
///
/// Panics if `x == 0`.
pub fn ceil_log2(x: u64) -> u64 {
    assert!(x > 0, "log of zero");
    (64 - (x - 1).leading_zeros()) as u64
}

/// `⌊log₂ x⌋` for `x ≥ 1`.
///
/// # Panics
///
/// Panics if `x == 0`.
pub(crate) fn floor_log2(x: u64) -> u64 {
    assert!(x > 0, "log of zero");
    (63 - x.leading_zeros()) as u64
}

/// The iterated logarithm `log^(r) k` (integer version, clamped at 1):
/// `log^(0) k = k`, `log^(i+1) k = max(1, ⌈log₂(log^(i) k)⌉)`.
///
/// # Examples
///
/// ```
/// use intersect_core::iterlog::iter_log;
/// assert_eq!(iter_log(0, 1 << 16), 1 << 16);
/// assert_eq!(iter_log(1, 1 << 16), 16);
/// assert_eq!(iter_log(2, 1 << 16), 4);
/// assert_eq!(iter_log(3, 1 << 16), 2);
/// assert_eq!(iter_log(4, 1 << 16), 1);
/// assert_eq!(iter_log(100, 1 << 16), 1);
/// ```
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn iter_log(r: u32, k: u64) -> u64 {
    let mut v = k.max(1);
    assert!(k > 0, "iterated log of zero");
    for _ in 0..r {
        if v <= 1 {
            return 1;
        }
        v = ceil_log2(v).max(1);
    }
    v.max(1)
}

/// `log* k`: the number of `⌈log₂⌉` applications needed to bring `k` to 1.
///
/// # Examples
///
/// ```
/// use intersect_core::iterlog::log_star;
/// assert_eq!(log_star(1), 0);
/// assert_eq!(log_star(2), 1);
/// assert_eq!(log_star(4), 2);
/// assert_eq!(log_star(16), 3);
/// assert_eq!(log_star(1 << 16), 4);
/// assert_eq!(log_star(u64::MAX), 5);
/// ```
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn log_star(k: u64) -> u32 {
    assert!(k > 0, "log* of zero");
    let mut v = k;
    let mut r = 0;
    while v > 1 {
        v = ceil_log2(v).max(1);
        r += 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
        assert_eq!(ceil_log2(u64::MAX), 64);
    }

    #[test]
    fn floor_log2_values() {
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(4), 2);
        assert_eq!(floor_log2(u64::MAX), 63);
    }

    #[test]
    fn iter_log_decreases_monotonically_in_r() {
        for k in [2u64, 17, 1 << 10, 1 << 20, u64::MAX] {
            for r in 0..8 {
                assert!(iter_log(r + 1, k) <= iter_log(r, k).max(1), "k={k} r={r}");
            }
        }
    }

    #[test]
    fn iter_log_stabilizes_at_one() {
        assert_eq!(iter_log(10, u64::MAX), 1);
        assert_eq!(iter_log(0, 1), 1);
        assert_eq!(iter_log(1, 1), 1);
    }

    #[test]
    fn log_star_is_consistent_with_iter_log() {
        for k in [1u64, 2, 3, 4, 5, 16, 17, 65_536, 65_537, u64::MAX] {
            let r = log_star(k);
            assert_eq!(iter_log(r, k), 1, "k = {k}");
            if r > 0 {
                assert!(iter_log(r - 1, k) > 1, "k = {k}");
            }
        }
    }

    #[test]
    fn log_star_is_tiny_for_all_practical_k() {
        assert!(log_star(u64::MAX) <= 5);
    }
}
