//! Error type for the ML crate.

use std::fmt;

/// Errors produced while building datasets or fitting models.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// The dataset contains no rows.
    EmptyDataset,
    /// A row's feature count does not match the dataset schema.
    DimensionMismatch {
        /// Number of features the dataset expects.
        expected: usize,
        /// Number of features the row carries.
        actual: usize,
    },
    /// A feature or target value is NaN or infinite.
    NonFiniteValue {
        /// Description of where the value was found.
        context: String,
    },
    /// A row index names no row of the dataset.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of rows in the dataset.
        rows: usize,
    },
    /// The model has not been fitted yet.
    NotFitted,
    /// Model-specific failure (e.g. a singular normal-equation system).
    FitFailed {
        /// Explanation of the failure.
        reason: String,
    },
    /// The targets are invalid for the model (e.g. negative counts for Poisson).
    InvalidTarget {
        /// Explanation of why the target is invalid.
        reason: String,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyDataset => write!(f, "dataset contains no rows"),
            MlError::DimensionMismatch { expected, actual } => {
                write!(f, "expected {expected} features per row, got {actual}")
            }
            MlError::NonFiniteValue { context } => {
                write!(f, "non-finite value encountered in {context}")
            }
            MlError::IndexOutOfRange { index, rows } => {
                write!(f, "row index {index} is out of range for {rows} rows")
            }
            MlError::NotFitted => write!(f, "model has not been fitted"),
            MlError::FitFailed { reason } => write!(f, "model fitting failed: {reason}"),
            MlError::InvalidTarget { reason } => write!(f, "invalid target: {reason}"),
        }
    }
}

impl std::error::Error for MlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = MlError::DimensionMismatch {
            expected: 7,
            actual: 3,
        };
        assert!(err.to_string().contains('7'));
        assert!(err.to_string().contains('3'));
        for e in [
            MlError::EmptyDataset,
            MlError::NotFitted,
            MlError::IndexOutOfRange { index: 9, rows: 4 },
            MlError::NonFiniteValue {
                context: "row 4".into(),
            },
            MlError::FitFailed {
                reason: "singular".into(),
            },
            MlError::InvalidTarget {
                reason: "negative".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
