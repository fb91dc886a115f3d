//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank rule on a sorted copy. A tail
//! percentile is only trusted when enough samples lie beyond it: with
//! `n` samples, the p90 has `n - rank(p90)` samples above it, and the
//! benchmark reports it as resolved only when that count is at least
//! [`TAIL_MIN_BEYOND`].

/// Samples that must lie strictly beyond a tail percentile before it
/// counts as resolved.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`; `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let rank = rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// The median (nearest-rank p50); `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// A tail percentile together with how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile value.
    pub value: f64,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
}

impl Tail {
    /// Whether at least [`TAIL_MIN_BEYOND`] samples lie beyond it.
    pub fn resolved(&self) -> bool {
        self.beyond >= TAIL_MIN_BEYOND
    }
}

/// Nearest-rank percentile `p` with the count of samples beyond its
/// rank; `None` when there are no samples.
pub fn tail(samples: &[f64], p: f64) -> Option<Tail> {
    let sorted = sorted(samples);
    let rank = rank(sorted.len(), p)?;
    Some(Tail {
        value: sorted[rank - 1],
        beyond: sorted.len() - rank,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// 1-based nearest rank: the smallest rank whose cumulative share
/// reaches `p` percent.
fn rank(len: usize, p: f64) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let rank = (p / 100.0 * len as f64).ceil() as usize;
    Some(rank.clamp(1, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers have to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples = ramp(10);
        assert_eq!(median(&samples), Some(5.0));
        assert_eq!(percentile(&samples, 90.0), Some(9.0));
        assert_eq!(percentile(&samples, 100.0), Some(10.0));
        assert_eq!(percentile(&[3.0], 90.0), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 99 samples: rank(p90) = 90, so 9 lie beyond — not resolved.
        let short = tail(&ramp(99), 90.0).expect("samples");
        assert_eq!((short.value, short.beyond), (90.0, 9));
        assert!(!short.resolved());
        // 100 samples: rank 90, 10 beyond — the first resolved count.
        let enough = tail(&ramp(100), 90.0).expect("samples");
        assert_eq!((enough.value, enough.beyond), (90.0, 10));
        assert!(enough.resolved());
        // A short in-process run (15 calls) leaves one sample beyond.
        let grid = tail(&ramp(15), 90.0).expect("samples");
        assert_eq!(grid.beyond, 1);
        assert!(!grid.resolved());
    }
}
