//! Folds of per-design and per-sample values into one metric value.

/// Sum of the values (0 for none).
pub fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// Geometric mean; `None` when there are no values or any is not a
/// positive finite number.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let mean_log = values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64;
    Some(mean_log.exp())
}

/// Quantile `q` in `[0, 1]` with linear interpolation between the two
/// nearest order statistics; `None` for no values.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median; `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0 (an undefined ratio is reported as 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_adds_every_value() {
        assert_eq!(sum(&[]), 0.0);
        assert_eq!(sum(&[1.5, 2.5, 4.0]), 8.0);
    }

    #[test]
    fn geomean_is_the_nth_root_of_the_product() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        let g = geomean(&[1.0, 10.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[7.25]), Some(7.25));
    }

    #[test]
    fn geomean_rejects_empty_and_non_positive_input() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        assert_eq!(geomean(&[f64::NAN]), None);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(quantile(&[0.0, 10.0], 0.9), Some(9.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn undefined_ratios_read_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }
}
