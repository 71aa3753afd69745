//! Summary statistics that always carry their sample count.

/// A summary value and the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The value.
    pub value: f64,
    /// Samples it summarizes.
    pub samples: usize,
}

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`: the smallest
/// sample with at least `p`% of the samples at or below it.
///
/// Returns `None` when fewer than [`MIN_BEYOND`] samples lie beyond that
/// rank: with too few samples in the tail, a "p99" is just the slowest
/// sample, and reads the same as p99.9 would.
pub fn percentile(samples: &[f64], p: f64) -> Option<Summary> {
    let n = samples.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Median of a few repeated measurements (the mean of the two middle
/// values for an even count). Unlike [`percentile`] it needs no tail: it
/// summarizes whole repeated runs, not a latency distribution.
pub fn median(samples: &[f64]) -> Option<Summary> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let value = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    };
    Some(Summary { value, samples: n })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so sorting is exercised.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_values_and_counts() {
        let s = ramp(100);
        assert_eq!(
            percentile(&s, 50.0),
            Some(Summary {
                value: 50.0,
                samples: 100
            })
        );
        assert_eq!(percentile(&s, 90.0).map(|q| q.value), Some(90.0));
        assert_eq!(percentile(&ramp(1000), 99.0).map(|q| q.value), Some(990.0));
        assert_eq!(percentile(&ramp(1000), 99.0).map(|q| q.samples), Some(1000));
        // Rank rounds up: p50 of 21 samples is the 11th.
        assert_eq!(percentile(&ramp(21), 50.0).map(|q| q.value), Some(11.0));
    }

    #[test]
    fn refuses_percentiles_without_ten_samples_beyond() {
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&ramp(100), 99.0), None);
        // p99.9 of 1000 samples has one beyond; p99 of 1000 has ten.
        assert_eq!(percentile(&ramp(1000), 99.9), None);
        assert!(percentile(&ramp(1000), 99.0).is_some());
        // The boundary: exactly ten beyond is allowed, nine is not.
        assert!(percentile(&ramp(20), 50.0).is_some());
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(100), 0.0), None);
        assert_eq!(percentile(&ramp(100), 101.0), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).map(|m| m.value), Some(2.0));
        assert_eq!(
            median(&[4.0, 1.0, 3.0, 2.0]),
            Some(Summary {
                value: 2.5,
                samples: 4
            })
        );
        assert_eq!(median(&[]), None);
    }
}
