//! Order statistics over the samples of one run.

/// Sorts `xs` ascending; every sample here is a finite measurement.
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Nearest-rank percentile of ascending `sorted`, `p` in `(0, 1]`:
/// the smallest sample with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (mean of the two middle ones when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (exclusive method), because
/// the acceptance rule for this benchmark is stated in those terms.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2
}

/// Whether `n` samples leave at least ten beyond percentile `p` — the
/// condition under which that percentile is reported at all.
pub fn resolves(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p) >= 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        assert_eq!(spread(&[16.0, 1.0, 4.0, 2.0, 8.0]), 10.5 / 4.0);
    }

    #[test]
    fn tail_percentiles_need_samples_beyond_them() {
        assert!(resolves(200, 0.95));
        assert!(!resolves(199, 0.95));
        assert!(resolves(1000, 0.99));
        assert!(!resolves(999, 0.99));
    }
}
