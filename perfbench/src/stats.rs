//! Order statistics used to summarise repeated measurements.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty or when a value is NaN.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs)?;
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) by linear interpolation
/// between closest ranks; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let s = sorted(xs)?;
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (s.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(s[lo] + (s[hi] - s[lo]) * (rank - lo as f64))
}

/// The three cut points that split `xs` into quarters, computed as
/// Python's `statistics.quantiles(xs, n=4)` does (its default
/// `exclusive` method). Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs)?;
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a bound is compared against.
pub fn relative_iqr(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// `a / b`, or zero when `b` is not positive: a rate over no work.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn sorted(xs: &[f64]) -> Option<Vec<f64>> {
    if xs.is_empty() || xs.iter().any(|x| x.is_nan()) {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 50.0), Some(6.0));
        assert_eq!(percentile(&xs, 100.0), Some(11.0));
        assert!((percentile(&xs, 99.0).unwrap() - 10.9).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&xs).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[2.0; 10]), Some(0.0));
        assert_eq!(relative_iqr(&[0.0; 4]), None);
    }
}
