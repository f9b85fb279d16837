//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is a nearest-rank order
//! statistic of the raw per-operation samples: the value at 1-based rank
//! `ceil(p/100 · n)` of the sorted samples. No bucketing, no
//! interpolation, so two sample sets with different medians always
//! report different medians.

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `samples`.
/// `None` on an empty set.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The `p`-th percentile only when at least `min_beyond` samples lie
/// beyond it, so a tail figure is never read off a handful of points.
pub fn tail_percentile(samples: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    let beyond = samples.len() as f64 * (1.0 - p / 100.0);
    if beyond + 1e-9 < min_beyond as f64 {
        return None;
    }
    percentile(samples, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_tells_apart_what_power_of_two_buckets_merge() {
        // Both sets land in the same 2^24 ns bucket of a power-of-two
        // histogram; their true medians are 19 ms and 31 ms.
        let low = [17.0, 18.0, 19.0, 20.0, 33.0];
        let high = [17.0, 30.0, 31.0, 32.0, 33.0];
        assert_eq!(median(&low), Some(19.0));
        assert_eq!(median(&high), Some(31.0));
        assert_ne!(median(&low), median(&high));
    }

    #[test]
    fn nearest_rank_edges() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 100.0), Some(5.0));
        assert_eq!(percentile(&s, 20.0), Some(1.0));
        assert_eq!(percentile(&s, 21.0), Some(2.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tails_need_enough_samples_beyond_them() {
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 99.0, 10), None);
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&s, 99.0, 10), Some(990.0));
    }
}
