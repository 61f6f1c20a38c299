//! Order statistics the benchmark reports: medians, percentiles with a
//! sample-count guard, block medians for throughput, quartile spread.

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 50.0)
}

/// Percentile `p` (0..=100) of an ascending slice, linearly
/// interpolated between the two closest ranks. `None` when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = p.clamp(0.0, 100.0) / 100.0 * (n - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// A tail percentile, reported only when at least ten samples lie
/// beyond it — below that the number is one outlier, not a percentile.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let beyond = (sorted.len() as f64 * (100.0 - p) / 100.0).floor() as usize;
    if beyond >= 10 {
        percentile_sorted(sorted, p)
    } else {
        None
    }
}

/// A point in the timed window: `ops` completed by `ns` since its start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    /// Ops completed so far.
    pub ops: u64,
    /// Nanoseconds since the window opened.
    pub ns: u64,
}

/// Split the window's marks into at most `blocks` equal-count blocks
/// (the window opens at `Mark { 0, 0 }`; a remainder at the tail is
/// dropped so blocks stay equal) and return each block's ops per second.
pub fn block_rates(marks: &[Mark], blocks: usize) -> Vec<f64> {
    let blocks = blocks.min(marks.len());
    if blocks == 0 {
        return Vec::new();
    }
    let per = marks.len() / blocks;
    let mut prev = Mark { ops: 0, ns: 0 };
    let mut rates = Vec::with_capacity(blocks);
    for b in 0..blocks {
        let end = marks[(b + 1) * per - 1];
        let ns = end.ns.saturating_sub(prev.ns).max(1);
        rates.push((end.ops - prev.ops) as f64 * 1e9 / ns as f64);
        prev = end;
    }
    rates
}

/// Quartiles the way Python's `statistics.quantiles(values, n=4)` gives
/// them (the default "exclusive" method). Needs two values or more.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // rank i*(n+1)/4 (1-based) clamped to the data; the weight is
        // taken after clamping, so short inputs extrapolate as Python's do
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread the acceptance rule uses.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&v, 95.0), Some(96.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(101.0));
        assert_eq!(percentile_sorted(&[1.0, 2.0], 50.0), Some(1.5));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0), None); // 9.95 -> 9 beyond
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(tail_percentile(&v, 95.0).is_some());
        assert_eq!(tail_percentile(&v, 99.0), None);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(tail_percentile(&v, 99.0).is_some());
    }

    #[test]
    fn block_rates_are_equal_count_and_drop_the_tail() {
        // 1 op per ms for 20 marks, then one slow op: 23 marks, 10 blocks
        // of 2 marks, the last 3 marks dropped.
        let mut marks: Vec<Mark> = (1..=22u64)
            .map(|i| Mark {
                ops: i,
                ns: i * 1_000_000,
            })
            .collect();
        marks.push(Mark {
            ops: 23,
            ns: 1_000_000_000,
        });
        let rates = block_rates(&marks, 10);
        assert_eq!(rates.len(), 10);
        assert!(rates.iter().all(|r| (r - 1000.0).abs() < 1e-9), "{rates:?}");
        // fewer marks than blocks: one block per mark
        assert_eq!(block_rates(&marks[..3], 10).len(), 3);
        assert!(block_rates(&[], 10).is_empty());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
        let odd = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        assert_eq!(quartiles(&odd), Some([1.0, 3.0, 5.0]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = quartile_spread(&v).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
    }
}
