//! Order statistics shared by every workload: the reporting rule for
//! percentiles, Python-compatible quartiles, medians and the
//! single-class aggregation of latency populations.

/// A reported percentile must leave at least this many samples above it,
/// so that one stray sample can never be the reported value.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `values`, refusing to
/// report when fewer than [`MIN_BEYOND`] samples lie above the rank.
pub fn percentile(values: &[f64], q: f64) -> Result<f64, String> {
    assert!(q > 0.0 && q < 1.0, "percentile rank {q} outside (0, 1)");
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} needs {} samples beyond it; {n} samples leave {}",
            q * 100.0,
            MIN_BEYOND,
            n.saturating_sub(rank)
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Quartiles `[q1, q2, q3]` with the interpolation of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Median (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile `q` over several job classes: the percentile is taken
/// within each class (never over the mixture, whose percentiles jump
/// between the classes' modes) and the per-class values are combined
/// by their geometric mean, which weights every class equally.
pub fn class_percentile(classes: &[Vec<f64>], q: f64) -> Result<f64, String> {
    let mut log_sum = 0.0;
    let mut count = 0usize;
    for c in classes.iter().filter(|c| !c.is_empty()) {
        log_sum += percentile(c, q)?.max(f64::MIN_POSITIVE).ln();
        count += 1;
    }
    if count == 0 {
        return Err("no samples in any class".into());
    }
    Ok((log_sum / count as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_requires_ten_samples_beyond_the_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples is rank 90, leaving exactly 10 above.
        assert_eq!(percentile(&v, 0.9), Ok(90.0));
        assert!(percentile(&v[..99], 0.9).is_err());
        assert_eq!(percentile(&v[..20], 0.5), Ok(10.0));
        assert!(percentile(&v[..19], 0.5).is_err());
        assert!(percentile(&v, 0.99).is_err());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..50).map(|i| f64::from((i * 37) % 50)).collect();
        let a = percentile(&v, 0.5).unwrap();
        v.reverse();
        assert_eq!(percentile(&v, 0.5).unwrap(), a);
        assert_eq!(a, 24.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn class_percentile_is_the_geometric_mean_of_class_percentiles() {
        let fast: Vec<f64> = (1..=20).map(|_| 1.0).collect();
        let slow: Vec<f64> = (1..=20).map(|_| 4.0).collect();
        let got = class_percentile(&[fast.clone(), slow.clone()], 0.5).unwrap();
        assert!((got - 2.0).abs() < 1e-12);
        // Changing the class proportions does not move it.
        let mut more_fast = fast.clone();
        more_fast.extend(fast.iter().copied());
        let got2 = class_percentile(&[more_fast, slow], 0.5).unwrap();
        assert!((got2 - 2.0).abs() < 1e-12);
        // A class too small for the rank makes the whole value unreportable.
        assert!(class_percentile(&[fast, vec![1.0; 5]], 0.5).is_err());
    }
}
