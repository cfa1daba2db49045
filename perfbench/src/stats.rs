//! Order statistics and failure arithmetic shared by every workload.

/// The `p`-th percentile (`0.0..=1.0`) of `values`, interpolating
/// linearly between the two nearest ranks (the "type 7" estimator that
/// spreadsheets and NumPy use by default). Returns `None` for an empty
/// slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// How many of `values` lie strictly above their `p`-th percentile: the
/// sample count behind a reported tail percentile.
pub fn count_above(values: &[f64], p: f64) -> usize {
    match percentile(values, p) {
        Some(cut) => values.iter().filter(|&&v| v > cut).count(),
        None => 0,
    }
}

/// Failed operations as a share of attempted ones (0 when nothing was
/// attempted).
pub fn failed_frac(failed: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        // rank 0.9 * 3 = 2.7 → 3 + 0.7 * (4 - 3)
        let p90 = percentile(&v, 0.9).unwrap();
        assert!((p90 - 3.7).abs() < 1e-12, "{p90}");
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn percentile_matches_python_statistics_inclusive() {
        // statistics.quantiles(range(1, 11), n=10, method="inclusive")[-1]
        // == 9.1; the same type-7 rule.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let p90 = percentile(&v, 0.9).unwrap();
        assert!((p90 - 9.1).abs() < 1e-12, "{p90}");
    }

    #[test]
    fn tail_count_backs_the_p90() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(count_above(&v, 0.9), 10);
        assert_eq!(count_above(&[], 0.9), 0);
    }

    #[test]
    fn failed_frac_is_a_share_of_attempts() {
        assert_eq!(failed_frac(4, 40), 0.1);
        assert_eq!(failed_frac(0, 29), 0.0);
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(2, 2), 1.0);
    }
}
