//! Order statistics the benchmark reports: nearest-rank percentiles,
//! windowed-median throughput, and relative RMSE.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q · n` samples at or below it (`q` in `(0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Nearest-rank median of unsorted samples; `None` when there are none.
pub fn median<T: Copy + PartialOrd>(values: &[T]) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are ordered"));
    Some(nearest_rank(&sorted, 0.5))
}

/// Throughput as the median, over consecutive windows of `window`
/// completions, of each window's completion rate in operations per
/// second. `done_ns[i]` is when operation `i` completed, in nanoseconds
/// since the timed phase began. A trailing partial window is dropped; with
/// less than one full window the whole phase is a single window.
pub fn windowed_median_rate(done_ns: &[u64], window: usize) -> f64 {
    assert!(window > 0, "window must hold at least one operation");
    let Some(&last) = done_ns.last() else {
        return 0.0;
    };
    if done_ns.len() < window {
        return done_ns.len() as f64 / (last.max(1) as f64 * 1e-9);
    }
    let mut rates: Vec<f64> = Vec::with_capacity(done_ns.len() / window);
    let mut begin = 0u64;
    for chunk in done_ns.chunks_exact(window) {
        let end = chunk[window - 1];
        rates.push(window as f64 / (end.saturating_sub(begin).max(1) as f64 * 1e-9));
        begin = end;
    }
    median(&rates).expect("at least one full window")
}

/// `√mean(((n̂ − n)/n)²)` over `(estimate, truth)` pairs; 0 for none.
pub fn rel_rmse(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let (mut sum, mut count) = (0.0, 0usize);
    for (estimate, truth) in pairs {
        let e = (estimate - truth) / truth;
        sum += e * e;
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        (sum / count as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&v, 0.5), 5);
        assert_eq!(nearest_rank(&v, 0.51), 6);
        assert_eq!(nearest_rank(&v, 0.99), 10);
        assert_eq!(nearest_rank(&v, 1.0), 10);
        assert_eq!(nearest_rank(&v, 0.01), 1);
        assert_eq!(nearest_rank(&[7u64], 0.5), 7);
        // 100 samples: p99 is the 99th, not an interpolation.
        let w: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&w, 0.99), 99);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.0));
        assert_eq!(median::<u64>(&[]), None);
    }

    #[test]
    fn windowed_rate_is_the_median_window() {
        // Windows of 2 ops: 2 ops in 1 ms, 2 in 2 ms, 2 in 4 ms; the
        // trailing single op is dropped.
        let done = [
            500_000, 1_000_000, 2_000_000, 3_000_000, 5_000_000, 7_000_000, 7_100_000,
        ];
        let rate = windowed_median_rate(&done, 2);
        assert!((rate - 1000.0).abs() < 1e-9, "{rate}");
        // A stall in one window moves the whole-phase mean, not the median.
        let steady: Vec<u64> = (1..=40).map(|i| i * 1_000_000).collect();
        let mut stalled = steady.clone();
        for t in stalled.iter_mut().skip(10) {
            *t += 50_000_000;
        }
        assert_eq!(
            windowed_median_rate(&steady, 4),
            windowed_median_rate(&stalled, 4)
        );
        // Fewer ops than one window: the whole phase.
        assert!((windowed_median_rate(&[1_000_000, 2_000_000], 5) - 1000.0).abs() < 1e-9);
        assert_eq!(windowed_median_rate(&[], 5), 0.0);
    }

    #[test]
    fn rel_rmse_is_relative() {
        assert!((rel_rmse([(110.0, 100.0), (90.0, 100.0)]) - 0.1).abs() < 1e-15);
        assert!((rel_rmse([(2.0, 1.0), (1.0, 1.0)]) - 0.5f64.sqrt()).abs() < 1e-15);
        assert_eq!(rel_rmse(std::iter::empty()), 0.0);
    }
}
