//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it. `p` is a share in `(0, 1]`.
/// Returns `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Percentiles a report may quote, lowest first.
pub const REPORTABLE: [f64; 4] = [0.5, 0.95, 0.99, 0.999];

/// The highest of [`REPORTABLE`] that still has at least ten samples beyond
/// it among `n`; fewer than that and the percentile is mostly one outlier.
pub fn highest_supported(n: usize) -> Option<f64> {
    REPORTABLE
        .iter()
        .copied()
        .rfind(|p| samples_beyond(n, *p) >= 10)
}

/// Samples strictly above the nearest-rank position of `p` among `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.95), Some(95.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v[..7], 0.5), Some(4.0));
        assert_eq!(percentile(&v[..1], 0.99), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(199), Some(0.5));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(999), Some(0.95));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
