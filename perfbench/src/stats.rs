//! Percentile, quartile and window arithmetic.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `sorted` by nearest rank on
/// `(n - 1) · p`. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// Sorts ascending (no sample is ever NaN: they are elapsed times).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    values
}

/// The median, averaging the two middle values of an even count.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive*
/// method) computes them, so `compare` judges spread the way the
/// acceptance check does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |i: usize| {
        // Python: j = i * (n + 1) // 4 clamped to 1..=n-1; delta = i*(n+1) - j*4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread the acceptance check bounds.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The `q`-quantile of the wait a request arriving at a uniformly
/// random instant would see, given back-to-back operations of the
/// `durations` a closed-loop client measured: an arrival during an
/// operation of length `L` waits uniformly in `0..L` for it to return,
/// and is as likely to fall into an operation as that operation is
/// long. Solves `Σ min(x, Lⱼ) = q · Σ Lⱼ` for `x`.
///
/// Sample percentiles of a closed loop under-count stalls — one stalled
/// request stands for every request that would have arrived meanwhile
/// (coordinated omission); weighting by time puts them back.
pub fn time_weighted_quantile(durations: &[f64], q: f64) -> f64 {
    let s = sorted(durations.to_vec());
    assert!(!s.is_empty(), "quantile of no operations");
    let target = q * s.iter().sum::<f64>();
    let mut shorter = 0.0;
    for (k, &len) in s.iter().enumerate() {
        // With x in (s[k-1], s[k]]: Σ min = shorter + x · (n - k).
        let x = (target - shorter) / (s.len() - k) as f64;
        if x <= len {
            return x;
        }
        shorter += len;
    }
    s[s.len() - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_by_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 51.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[4.0], 0.95), 4.0);
    }

    #[test]
    fn time_weighting_restores_what_a_stall_hides() {
        // One operation: an arrival waits uniformly in 0..L.
        assert!((time_weighted_quantile(&[8.0], 0.5) - 4.0).abs() < 1e-12);
        assert!((time_weighted_quantile(&[8.0], 0.95) - 7.6).abs() < 1e-12);
        // 90 fast replies of 1 ms and one 910 ms stall: by samples the
        // median is 1 ms, but 91 % of the time lies inside the stall.
        let mut ops = vec![1.0; 90];
        ops.push(910.0);
        assert_eq!(percentile(&sorted(ops.clone()), 0.5), 1.0);
        let p50 = time_weighted_quantile(&ops, 0.5);
        // Σ min(x, L) = 90·1 + x = 500  →  x = 410.
        assert!((p50 - 410.0).abs() < 1e-9, "{p50}");
        assert!(time_weighted_quantile(&ops, 0.95) > 800.0);
        // Equal operations: uniform over one of them.
        assert!((time_weighted_quantile(&[2.0; 10], 0.25) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn median_of_windows() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow window does not move the reported rate.
        assert_eq!(median(&[100.0, 101.0, 20.0, 99.0, 100.5]), 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
