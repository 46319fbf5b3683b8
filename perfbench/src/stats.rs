//! Summary statistics the benchmark reports: nearest-rank quantiles, the
//! tail-percentile reporting rule, and failure accounting.

/// Nearest-rank quantile `q` (0 < q ≤ 1) of `sorted`, which must be in
/// ascending order: the smallest sample such that at least `q·n` samples
/// are at or below it. `None` on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Samples strictly beyond the nearest-rank `q` quantile's position.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported at all; with fewer it is little more than the maximum.
pub const MIN_BEYOND_TAIL: usize = 10;

/// The `q` tail quantile of `sorted`, reported only when at least
/// [`MIN_BEYOND_TAIL`] samples lie beyond it.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    if samples_beyond(sorted.len(), q) >= MIN_BEYOND_TAIL {
        nearest_rank(sorted, q)
    } else {
        None
    }
}

/// Median of unsorted samples (nearest rank).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5)
}

/// Statement outcomes of a run. A statement that returns an error counts
/// once as failed and is never also checked for a wrong result.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Statements sent to the engine.
    pub attempted: u64,
    /// Statements the engine answered with an error.
    pub errors: u64,
    /// Statements whose answer disagreed with the benchmark's oracle.
    pub wrong: u64,
}

impl Tally {
    /// Statements that did not produce a correct result.
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    /// (Failed + wrong-result statements) ÷ attempted statements.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&v, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.01), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank ⌈989.01⌉ = 990, so 9 lie beyond — not reported.
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(samples_beyond(v.len(), 0.99), 9);
        assert_eq!(tail(&v, 0.99), None);
        // 1000 samples: rank 990, 10 beyond — reported.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(samples_beyond(v.len(), 0.99), 10);
        assert_eq!(tail(&v, 0.99), Some(989.0));
        // p90 of 100 samples has exactly 10 beyond it.
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v, 0.9), Some(89.0));
        assert_eq!(tail(&v[..99], 0.9), None);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn error_rate_counts_errors_and_wrong_results_once_each() {
        let t = Tally {
            attempted: 200,
            errors: 3,
            wrong: 2,
        };
        assert_eq!(t.failed(), 5);
        assert!((t.error_rate() - 0.025).abs() < 1e-15);
        assert_eq!(Tally::default().error_rate(), 0.0);
        assert_eq!(
            Tally {
                attempted: 10,
                ..Tally::default()
            }
            .error_rate(),
            0.0
        );
    }
}
