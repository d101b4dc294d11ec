//! Order statistics shared by the timed run, the ladder and `--compare`.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `sorted` by nearest rank: the
/// smallest element with at least `p·len` elements at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` in place and returns its `p`-quantile.
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    values.sort_unstable();
    percentile_sorted(values, p)
}

/// The median of `values`, averaging the two middle elements of an
/// even-length sample.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A timing metric reported as the median over the measured blocks,
/// with the extremes kept beside it so a reader sees the spread.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub blocks: Vec<f64>,
}

impl BlockStat {
    /// Folds one value per block.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty.
    pub fn of(blocks: Vec<f64>) -> BlockStat {
        BlockStat {
            median: median(&blocks),
            min: blocks.iter().copied().fold(f64::INFINITY, f64::min),
            max: blocks.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            blocks,
        }
    }
}

/// First and third quartile by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`, which is what the
/// acceptance rule for a bound is written in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale; like the Python
        // implementation the index is clamped to the sample but the
        // interpolation weight is not.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the spread the
/// bounds in `BENCHMARK.json` are judged against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), 50);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        assert_eq!(percentile_sorted(&[7u64], 0.99), 7);
        let mut unsorted = vec![9, 1, 5];
        assert_eq!(percentile(&mut unsorted, 0.5), 5);
    }

    #[test]
    fn p99_leaves_one_percent_beyond() {
        let sorted: Vec<u64> = (0..5000).collect();
        let p99 = percentile_sorted(&sorted, 0.99);
        assert_eq!(sorted.iter().filter(|&&x| x > p99).count(), 50);
    }

    #[test]
    fn median_of_blocks_ignores_one_bad_block() {
        let stat = BlockStat::of(vec![100.0, 101.0, 40.0, 99.0, 102.0]);
        assert_eq!(stat.median, 100.0);
        assert_eq!(stat.min, 40.0);
        assert_eq!(stat.max, 102.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let (q1, q3) = quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 45.0).abs() < 1e-12);
        assert!((iqr_share(&[50.0, 10.0, 40.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
    }
}
