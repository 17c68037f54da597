//! Error metrics and error histograms.
//!
//! The paper reports prediction accuracy as the *absolute error* `|measured −
//! predicted|` and the *percent error* `100 · absolute / measured` (Eqs. 5–6),
//! aggregated per thread count (Tables IV–V) and as histograms of absolute errors
//! (Figs. 7–8).  This module provides those metrics plus the usual regression scores.

/// Absolute errors `|measured - predicted|`, element-wise.
pub fn absolute_errors(measured: &[f64], predicted: &[f64]) -> Vec<f64> {
    measured
        .iter()
        .zip(predicted)
        .map(|(m, p)| (m - p).abs())
        .collect()
}

/// Percent errors `100 * |measured - predicted| / measured`, element-wise.
/// Rows with a zero measured value are reported as 0 to avoid dividing by zero.
fn percent_errors(measured: &[f64], predicted: &[f64]) -> Vec<f64> {
    measured
        .iter()
        .zip(predicted)
        .map(|(m, p)| {
            if m.abs() < f64::EPSILON {
                0.0
            } else {
                100.0 * (m - p).abs() / m.abs()
            }
        })
        .collect()
}

/// Mean absolute error (Eq. 5 averaged over the evaluation set).
pub fn mean_absolute_error(measured: &[f64], predicted: &[f64]) -> f64 {
    mean(&absolute_errors(measured, predicted))
}

/// Mean absolute percent error (Eq. 6 averaged over the evaluation set), in percent.
pub fn mean_absolute_percent_error(measured: &[f64], predicted: &[f64]) -> f64 {
    mean(&percent_errors(measured, predicted))
}

/// Root mean squared error.
pub fn root_mean_squared_error(measured: &[f64], predicted: &[f64]) -> f64 {
    if measured.is_empty() {
        return 0.0;
    }
    let mse = measured
        .iter()
        .zip(predicted)
        .map(|(m, p)| (m - p) * (m - p))
        .sum::<f64>()
        / measured.len() as f64;
    mse.sqrt()
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Histogram of (absolute) prediction errors with explicit bin upper bounds, matching
/// the presentation of the paper's Figs. 7 and 8.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorHistogram {
    upper_bounds: Vec<f64>,
    counts: Vec<u64>,
    overflow: u64,
}

impl ErrorHistogram {
    /// The bin upper bounds used for the host error histogram in the paper's Fig. 7.
    pub fn paper_host_bins() -> Vec<f64> {
        vec![0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.1, 0.15, 0.2]
    }

    /// The bin upper bounds used for the device error histogram in the paper's Fig. 8.
    pub fn paper_device_bins() -> Vec<f64> {
        vec![
            0.015, 0.03, 0.04, 0.05, 0.08, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.0, 1.5, 2.0,
        ]
    }

    /// Build a histogram of `errors` using the (strictly increasing) `upper_bounds`.
    /// Errors larger than the last bound are counted in the overflow bucket.
    pub fn new(mut upper_bounds: Vec<f64>, errors: &[f64]) -> Self {
        upper_bounds.sort_by(f64::total_cmp);
        upper_bounds.dedup();
        let mut counts = vec![0u64; upper_bounds.len()];
        let mut overflow = 0u64;
        for &error in errors {
            match upper_bounds.iter().position(|&bound| error <= bound) {
                Some(bin) => counts[bin] += 1,
                None => overflow += 1,
            }
        }
        ErrorHistogram {
            upper_bounds,
            counts,
            overflow,
        }
    }

    /// The bin upper bounds.
    pub fn upper_bounds(&self) -> &[f64] {
        &self.upper_bounds
    }

    /// Counts per bin (same order as [`ErrorHistogram::upper_bounds`]).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of errors larger than the last bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of errors accounted for.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_and_percent_errors_match_the_paper_formulas() {
        let measured = vec![2.0, 4.0];
        let predicted = vec![1.5, 5.0];
        assert_eq!(absolute_errors(&measured, &predicted), vec![0.5, 1.0]);
        assert_eq!(percent_errors(&measured, &predicted), vec![25.0, 25.0]);
        assert!((mean_absolute_error(&measured, &predicted) - 0.75).abs() < 1e-12);
        assert!((mean_absolute_percent_error(&measured, &predicted) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn zero_measured_values_do_not_divide_by_zero() {
        let e = percent_errors(&[0.0, 1.0], &[1.0, 1.0]);
        assert_eq!(e[0], 0.0);
        assert_eq!(e[1], 0.0);
    }

    #[test]
    fn rmse_is_zero_for_exact_predictions_and_positive_otherwise() {
        let measured = vec![1.0, 2.0, 3.0, 4.0];
        let exact = measured.clone();
        assert_eq!(root_mean_squared_error(&measured, &exact), 0.0);

        let constant = vec![2.5; 4];
        assert!(root_mean_squared_error(&measured, &constant) > 0.0);

        // degenerate inputs
        assert_eq!(root_mean_squared_error(&[], &[]), 0.0);
    }

    #[test]
    fn histogram_counts_and_overflow() {
        let errors = vec![0.005, 0.015, 0.02, 0.09, 5.0];
        let hist = ErrorHistogram::new(vec![0.01, 0.02, 0.1], &errors);
        assert_eq!(hist.counts(), &[1, 2, 1]);
        assert_eq!(hist.overflow(), 1);
        assert_eq!(hist.total(), 5);
    }

    #[test]
    fn histogram_sorts_and_dedups_bounds() {
        let hist = ErrorHistogram::new(vec![0.2, 0.1, 0.2], &[0.15]);
        assert_eq!(hist.upper_bounds(), &[0.1, 0.2]);
        assert_eq!(hist.counts(), &[0, 1]);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let hist = ErrorHistogram::new(vec![0.1], &[]);
        assert_eq!(hist.total(), 0);
    }

    #[test]
    fn paper_bins_are_increasing() {
        for bins in [
            ErrorHistogram::paper_host_bins(),
            ErrorHistogram::paper_device_bins(),
        ] {
            for pair in bins.windows(2) {
                assert!(pair[0] < pair[1] || (pair[0] - pair[1]).abs() < 1e-12);
            }
        }
    }
}
