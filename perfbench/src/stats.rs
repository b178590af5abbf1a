//! Order statistics and rates used by every workload's report.
//!
//! The reporting rules:
//!
//! * a timing is reported as its median plus one tail percentile, and a
//!   percentile is only reported when at least [`MIN_BEYOND`] samples lie
//!   beyond it — otherwise the "tail" would be a handful of outliers;
//! * quartiles use the same method as Python's
//!   `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
//!   spread the benchmark reports is the spread a reader recomputes;
//! * the error rate is failures over attempts, never over successes.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The percentile behind `op_tail_ms`. Each workload's report also prints
/// its own tail (p99 where a run has the samples for it), but on a shared
/// two-core host a p99 moves with every stall of a neighbour; p90 is the
/// highest percentile steady enough to bound.
pub const BOUNDED_TAIL: f64 = 0.90;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median; the mean of the two middle values for an even count.
/// `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` computes them. `None` for fewer than
/// two samples (Python raises there).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let len = values.len();
    if len < 2 {
        return None;
    }
    let sorted = sorted(values);
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// Inter-quartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let median = median(values)?;
    (median != 0.0).then(|| (q3 - q1) / median)
}

/// The nearest-rank `p`-quantile (`0 < p < 1`), reported only when at least
/// [`MIN_BEYOND`] samples lie strictly beyond its rank. Returns the value
/// and the number of samples beyond it, or `None` when the run is too short
/// to report that percentile.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<(f64, usize)> {
    if values.is_empty() || !(0.0..1.0).contains(&p) {
        return None;
    }
    let sorted = sorted(values);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    (beyond >= MIN_BEYOND).then(|| (sorted[rank - 1], beyond))
}

/// Failed operations over attempted operations. An empty run has no rate.
pub fn error_rate(failed: u64, attempted: u64) -> Option<f64> {
    (attempted > 0).then(|| failed as f64 / attempted as f64)
}

/// The Theil–Sen line through `points` as `(intercept, slope)`: the slope
/// is the median of the slopes between every two points, the intercept the
/// median of `y − slope·x`. Unlike least squares it ignores a minority of
/// outlying points. `None` when no two points differ in `x`.
pub fn theil_sen(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let mut slopes = Vec::new();
    for (i, (x1, y1)) in points.iter().enumerate() {
        for (x2, y2) in &points[i + 1..] {
            if x1 != x2 {
                slopes.push((y2 - y1) / (x2 - x1));
            }
        }
    }
    let slope = median(&slopes)?;
    let offsets: Vec<f64> = points.iter().map(|(x, y)| y - slope * x).collect();
    Some((median(&offsets)?, slope))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([7, 1, 3, 5, 9], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 5.0, 9.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 0.99), Some((990.0, 10)));
        // One sample short: p99 of 999 samples has only 9 beyond it.
        assert_eq!(tail_percentile(&thousand[..999], 0.99), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.90), Some((90.0, 10)));
        assert_eq!(tail_percentile(&hundred, 0.99), None);
        // Order of arrival does not matter.
        let reversed: Vec<f64> = hundred.iter().rev().copied().collect();
        assert_eq!(tail_percentile(&reversed, 0.90), Some((90.0, 10)));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn theil_sen_recovers_a_line_despite_an_outlier() {
        let mut points: Vec<(f64, f64)> = (0..9)
            .map(|i| {
                let x = f64::from(i) / 10.0;
                (x, 700.0 - 1_500.0 * x)
            })
            .collect();
        let fits = |points: &[(f64, f64)]| {
            let (intercept, slope) = theil_sen(points).unwrap();
            (intercept - 700.0).abs() < 1e-6 && (slope + 1_500.0).abs() < 1e-6
        };
        assert!(fits(&points));
        // A stalled window far off the line does not move the fit.
        points.push((0.05, 100.0));
        assert!(fits(&points));
        // No spread in x: no line.
        assert_eq!(theil_sen(&[(0.1, 1.0), (0.1, 2.0)]), None);
        assert_eq!(theil_sen(&[]), None);
    }

    #[test]
    fn error_rate_divides_failures_by_attempts() {
        assert_eq!(error_rate(0, 1_000), Some(0.0));
        assert_eq!(error_rate(3, 4), Some(0.75));
        assert_eq!(error_rate(0, 0), None);
    }
}
