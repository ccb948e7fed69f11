//! Order statistics with the benchmark's reporting rule: a percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-percentile of `samples` (any order), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    if n - 1 - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank])
}

/// The median of `samples`; `None` when empty. Unlike [`percentile`] the
/// median needs no tail beyond it, so it serves per-epoch figures too.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0), "10 samples beyond p99 of 1000");
        assert_eq!(percentile(&thousand[..999], 0.99), None, "only 9 beyond p99 of 999");
        assert_eq!(percentile(&thousand[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&thousand[..19], 0.5), None, "9 beyond the median of 19");
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut shuffled: Vec<f64> = (0..500).map(|i| ((i * 7919) % 500) as f64).collect();
        assert_eq!(percentile(&shuffled, 0.9), Some(449.0));
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.9), Some(449.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
