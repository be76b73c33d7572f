//! Order statistics used for every reported number.
//!
//! A run's value for a metric is the median over its repetitions, and the
//! A/A procedure compares medians and inter-quartile ranges of whole runs;
//! both sit here so the driver-side arithmetic (Python's
//! `statistics.quantiles(values, n=4)`) and ours agree to the digit.

/// Median of `values` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample at
/// or below which at least `p` (0..=1) of the samples fall. `NaN` when
/// empty.
pub fn percentile_sorted(sorted: &[f32], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// returns them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile range as a share of the median — the spread figure the
/// benchmark contract bounds. `None` below two values or at a zero median.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Little's law, solved for the time a packet spends in the system: with
/// `window` packets outstanding and `throughput` completing per second,
/// each waits `window / throughput` seconds. On the closed-loop workloads
/// this *is* the lateness, which is why they do not report one.
pub fn littles_latency_s(window: f64, throughput_per_s: f64) -> f64 {
    window / throughput_per_s
}

/// Little's law, solved for the window that keeps a server busy: below
/// `throughput × floor latency` outstanding packets the modeled link
/// delay, not the server, bounds a closed loop.
pub fn littles_window(throughput_per_s: f64, latency_s: f64) -> f64 {
    throughput_per_s * latency_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f32> = (1..=10).map(|x| x as f32).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 5.0);
        assert_eq!(percentile_sorted(&v, 0.9), 9.0);
        assert_eq!(percentile_sorted(&v, 0.91), 10.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 1.0), 10.0);
        assert!(percentile_sorted(&[], 0.5).is_nan());
    }

    /// Reference values from CPython:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` → 2.75, 5.5, 8.25
    /// `statistics.quantiles([10.0, 12.0, 11.0, 15.0, 9.0], n=4)` → 9.5, 11, 13.5
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[10.0, 12.0, 11.0, 15.0, 9.0]), Some((9.5, 13.5)));
        assert_eq!(quartiles(&[1.0]), None);
        let share = iqr_share(&ten).unwrap();
        assert!((share - 1.0).abs() < 1e-12, "{share}");
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn littles_law_round_trips() {
        // 256 outstanding at 100 k/s wait 2.56 ms each.
        let w = littles_latency_s(256.0, 100_000.0);
        assert!((w - 0.00256).abs() < 1e-12);
        assert!((littles_window(100_000.0, w) - 256.0).abs() < 1e-9);
    }
}
