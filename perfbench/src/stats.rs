//! The arithmetic behind the reported figures.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Failed spec runs over spec runs attempted (0 when nothing ran).
pub fn fail_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Share of a parallel pass's worker capacity that ran no spec:
/// `1 − Σspec / (threads × wall)`, reported as measured (it can dip below
/// zero when specs run faster side by side than one at a time).
pub fn idle_frac(serial_s: f64, threads: usize, wall_s: f64) -> f64 {
    1.0 - serial_s / (threads as f64 * wall_s)
}

/// |simulated − paper| / paper, in percent.
pub fn err_pct(simulated: f64, paper: f64) -> f64 {
    (simulated - paper).abs() / paper * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn fail_ratio_counts_against_attempts() {
        assert_eq!(fail_ratio(0, 90), 0.0);
        assert_eq!(fail_ratio(3, 12), 0.25);
        assert_eq!(fail_ratio(0, 0), 0.0);
    }

    #[test]
    fn idle_frac_is_unused_worker_capacity() {
        // 2 threads for 1 s offer 2 s of capacity; 1.5 s of specs leaves 25 % idle.
        assert!((idle_frac(1.5, 2, 1.0) - 0.25).abs() < 1e-12);
        assert_eq!(idle_frac(2.0, 2, 1.0), 0.0);
        assert!(idle_frac(2.2, 2, 1.0) < 0.0);
    }

    #[test]
    fn err_pct_is_symmetric_in_sign() {
        assert!((err_pct(1089.0, 990.0) - 10.0).abs() < 1e-9);
        assert!((err_pct(891.0, 990.0) - 10.0).abs() < 1e-9);
    }
}
