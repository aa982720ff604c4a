//! Order statistics used by every workload and by `calibrate`/`compare`.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median, or 0 when the layer recorded nothing (a per-layer metric of a
/// layer the workload never entered reads 0).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The tail statistic of the benchmark: the highest order statistic that
/// still has at least ten samples beyond it, and never below the median.
/// With 250 samples that is p96, with 100 samples p89; with fewer than 21
/// samples no percentile above the median is supported, so the median is
/// returned. Failed operations are passed in as `f64::INFINITY` and sort
/// last, so more than ten failures make the tail infinite.
pub fn tail(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "tail of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let supported = if v.len() > 10 { v[v.len() - 11] } else { v[0] };
    supported.max(median(&v))
}

/// The `q`-quantile (0..=1) by nearest rank, for per-layer percentiles.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the rule the acceptance driver applies to ten runs.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median (the driver's spread).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 250 samples 1..=250: ten values (241..=250) lie beyond 240.
        let v: Vec<f64> = (1..=250).map(f64::from).collect();
        assert_eq!(tail(&v), 240.0);
        // 100 samples: the 89th percentile.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), 90.0);
        // Exactly 21 samples: one value above the median qualifies.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&v), 11.0);
        assert_eq!(median(&v), 11.0);
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        // 12 samples: the order statistic with ten beyond it is the 2nd
        // smallest, which is no tail at all; the median is reported.
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v), 6.5);
        assert_eq!(tail(&[3.0]), 3.0);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        // Ten failures: they are exactly the ten samples beyond the tail.
        v.extend(std::iter::repeat_n(f64::INFINITY, 10));
        assert_eq!(tail(&v), 100.0);
        // An eleventh failure reaches the reported percentile.
        v.push(f64::INFINITY);
        assert_eq!(tail(&v), f64::INFINITY);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
