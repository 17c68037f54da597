//! Feature normalisation.
//!
//! The paper's training pipeline (Fig. 4) normalises the data before fitting the
//! Boosted Decision Tree Regression model.  Tree ensembles are scale-invariant, but the
//! linear and Poisson baselines are not, so the normaliser is part of the shared
//! pipeline.

use crate::dataset::Dataset;
use crate::error::MlError;

/// Normalisation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Normalization {
    /// Scale every feature into `[0, 1]` using its training min/max.
    MinMax,
    /// Standardise every feature to zero mean / unit variance.
    ZScore,
    /// Leave features untouched.
    None,
}

/// Per-feature statistics captured on the training set and applied to any later data.
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    strategy: Normalization,
    /// (offset, scale) per feature: `normalised = (x - offset) / scale`.
    params: Vec<(f64, f64)>,
}

impl Normalizer {
    /// Fit a normaliser on the dataset's features.
    pub fn fit(data: &Dataset, strategy: Normalization) -> Result<Self, MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let n_features = data.n_features();
        let mut params = Vec::with_capacity(n_features);
        for feature in 0..n_features {
            let column: Vec<f64> = (0..data.len()).map(|i| data.features(i)[feature]).collect();
            let (offset, scale) = match strategy {
                Normalization::None => (0.0, 1.0),
                Normalization::MinMax => {
                    let min = column.iter().cloned().fold(f64::INFINITY, f64::min);
                    let max = column.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    let range = max - min;
                    (min, if range > 0.0 { range } else { 1.0 })
                }
                Normalization::ZScore => {
                    let mean = column.iter().sum::<f64>() / column.len() as f64;
                    let var = column.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
                        / column.len() as f64;
                    let std = var.sqrt();
                    (mean, if std > 0.0 { std } else { 1.0 })
                }
            };
            params.push((offset, scale));
        }
        Ok(Normalizer { strategy, params })
    }

    /// The strategy this normaliser was fitted with.
    pub fn strategy(&self) -> Normalization {
        self.strategy
    }

    /// Normalise a single feature vector.
    pub fn transform_row(&self, features: &[f64]) -> Vec<f64> {
        features
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let (offset, scale) = self.params.get(i).copied().unwrap_or((0.0, 1.0));
                (v - offset) / scale
            })
            .collect()
    }

    /// Normalise a whole dataset (targets are left untouched).
    ///
    /// Fails with [`MlError::NonFiniteValue`] when a normalised value overflows
    /// (a feature far outside the range the normaliser was fitted on).
    pub fn transform_dataset(&self, data: &Dataset) -> Result<Dataset, MlError> {
        let mut out = Dataset::new(data.feature_names().to_vec());
        for i in 0..data.len() {
            out.push(self.transform_row(data.features(i)), data.target(i))?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        let mut d = Dataset::new(vec!["x".into(), "y".into()]);
        d.push(vec![0.0, 100.0], 1.0).unwrap();
        d.push(vec![5.0, 200.0], 2.0).unwrap();
        d.push(vec![10.0, 300.0], 3.0).unwrap();
        d
    }

    #[test]
    fn minmax_maps_into_unit_interval() {
        let d = dataset();
        let norm = Normalizer::fit(&d, Normalization::MinMax).unwrap();
        let t = norm.transform_dataset(&d).unwrap();
        for &v in t.feature_matrix() {
            assert!((0.0..=1.0).contains(&v));
        }
        assert_eq!(t.features(0), &[0.0, 0.0]);
        assert_eq!(t.features(2), &[1.0, 1.0]);
        // targets untouched
        assert_eq!(t.targets(), d.targets());
    }

    #[test]
    fn zscore_centres_and_scales() {
        let d = dataset();
        let norm = Normalizer::fit(&d, Normalization::ZScore).unwrap();
        let t = norm.transform_dataset(&d).unwrap();
        for feature in 0..2 {
            let mean: f64 =
                (0..t.len()).map(|i| t.features(i)[feature]).sum::<f64>() / t.len() as f64;
            assert!(mean.abs() < 1e-12);
        }
    }

    #[test]
    fn none_is_identity() {
        let d = dataset();
        let norm = Normalizer::fit(&d, Normalization::None).unwrap();
        assert_eq!(norm.transform_dataset(&d).unwrap(), d);
    }

    #[test]
    fn constant_features_do_not_divide_by_zero() {
        let mut d = Dataset::new(vec!["c".into()]);
        d.push(vec![4.0], 1.0).unwrap();
        d.push(vec![4.0], 2.0).unwrap();
        for strategy in [Normalization::MinMax, Normalization::ZScore] {
            let norm = Normalizer::fit(&d, strategy).unwrap();
            let t = norm.transform_dataset(&d).unwrap();
            assert!(t.feature_matrix().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn overflowing_normalisation_is_a_typed_error() {
        // the fitted range overflows to infinity, so the max maps to inf / inf
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(vec![-1e308], 1.0).unwrap();
        d.push(vec![1e308], 2.0).unwrap();
        let norm = Normalizer::fit(&d, Normalization::MinMax).unwrap();
        assert!(matches!(
            norm.transform_dataset(&d),
            Err(MlError::NonFiniteValue { .. })
        ));
    }

    #[test]
    fn fitting_on_empty_data_fails() {
        let d = Dataset::new(vec!["x".into()]);
        assert!(Normalizer::fit(&d, Normalization::MinMax).is_err());
    }

    #[test]
    fn transform_applies_training_statistics_to_new_rows() {
        let d = dataset();
        let norm = Normalizer::fit(&d, Normalization::MinMax).unwrap();
        // 20 is beyond the training max of 10 -> value > 1, using training scale
        let row = norm.transform_row(&[20.0, 100.0]);
        assert!((row[0] - 2.0).abs() < 1e-12);
        assert!((row[1] - 0.0).abs() < 1e-12);
    }
}
