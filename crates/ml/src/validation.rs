//! Model validation: k-fold cross-validation.
//!
//! The paper uses a single 50/50 train/evaluation split; k-fold extends that protocol
//! so the model-selection comparison (boosted trees vs. linear vs. Poisson) runs with
//! lower variance.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::metrics;
use crate::model::Regressor;

/// Result of a k-fold cross-validation.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossValidation {
    /// Mean absolute percent error of every fold.
    pub fold_mape: Vec<f64>,
    /// Root-mean-squared error of every fold.
    pub fold_rmse: Vec<f64>,
}

impl CrossValidation {
    /// Mean of the per-fold MAPE values.
    pub fn mean_mape(&self) -> f64 {
        mean(&self.fold_mape)
    }

    /// Mean of the per-fold RMSE values.
    pub fn mean_rmse(&self) -> f64 {
        mean(&self.fold_rmse)
    }

    /// Standard deviation of the per-fold MAPE values (spread across folds).
    pub fn mape_std(&self) -> f64 {
        std_dev(&self.fold_mape)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Batch-predict every row of `data`, covering the degenerate zero-feature schema
/// (which the row-major matrix cannot represent: an empty matrix is ambiguous between
/// "no rows" and "n rows of no features", so it is looped through `predict_one`).
fn predict_dataset<M: Regressor>(model: &M, data: &Dataset) -> Vec<f64> {
    if data.n_features() == 0 {
        (0..data.len()).map(|_| model.predict_one(&[])).collect()
    } else {
        model.predict_batch(data.feature_matrix(), data.n_features())
    }
}

fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64).sqrt()
}

/// Run k-fold cross-validation of a model produced by `factory` on `data`.
///
/// The factory is called once per fold so every fold trains a fresh model.
pub fn k_fold_cross_validation<M, F>(
    data: &Dataset,
    folds: usize,
    seed: u64,
    factory: F,
) -> Result<CrossValidation, MlError>
where
    M: Regressor,
    F: Fn() -> M,
{
    if data.is_empty() {
        return Err(MlError::EmptyDataset);
    }
    let folds = folds.clamp(2, data.len().max(2));
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);

    let mut fold_mape = Vec::with_capacity(folds);
    let mut fold_rmse = Vec::with_capacity(folds);
    for fold in 0..folds {
        let mut train = Dataset::new(data.feature_names().to_vec());
        let mut test = Dataset::new(data.feature_names().to_vec());
        for (rank, &row) in order.iter().enumerate() {
            let destination = if rank % folds == fold {
                &mut test
            } else {
                &mut train
            };
            destination.push_row_from(data, row);
        }
        if train.is_empty() || test.is_empty() {
            continue;
        }
        let mut model = factory();
        model.fit(&train)?;
        let predictions = predict_dataset(&model, &test);
        fold_mape.push(metrics::mean_absolute_percent_error(
            test.targets(),
            &predictions,
        ));
        fold_rmse.push(metrics::root_mean_squared_error(
            test.targets(),
            &predictions,
        ));
    }
    Ok(CrossValidation {
        fold_mape,
        fold_rmse,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boosting::{BoostedTreesRegressor, BoostingParams};
    use crate::linear::LinearRegressor;

    /// y depends strongly on x0 and not at all on x1.
    fn dataset(n: usize) -> Dataset {
        let mut data = Dataset::new(vec!["signal".into(), "noise".into()]);
        for i in 0..n {
            let signal = (i % 37) as f64;
            let noise = ((i * 17) % 11) as f64;
            data.push(vec![signal, noise], 3.0 * signal + 5.0).unwrap();
        }
        data
    }

    #[test]
    fn cross_validation_reports_low_error_for_a_learnable_target() {
        let data = dataset(300);
        let cv = k_fold_cross_validation(&data, 5, 1, || {
            BoostedTreesRegressor::new(BoostingParams::fast())
        })
        .unwrap();
        assert_eq!(cv.fold_mape.len(), 5);
        assert!(cv.mean_mape() < 10.0, "MAPE {}", cv.mean_mape());
        assert!(cv.mean_rmse() < 10.0);
        assert!(cv.mape_std() >= 0.0);
    }

    #[test]
    fn cross_validation_rejects_empty_data_and_clamps_folds() {
        let empty = Dataset::new(vec!["x".into()]);
        assert!(k_fold_cross_validation(&empty, 5, 1, LinearRegressor::new).is_err());

        let data = dataset(10);
        // 100 folds get clamped to the number of rows
        let cv = k_fold_cross_validation(&data, 100, 1, LinearRegressor::new).unwrap();
        assert!(cv.fold_mape.len() <= 10);
    }

    #[test]
    fn zero_feature_datasets_still_produce_one_prediction_per_row() {
        // Regression test: the row-major predict_batch matrix cannot represent rows
        // of zero features, so cross-validation must fall back to predict_one —
        // a zero-feature dataset yields the mean model, not empty/NaN metrics.
        let mut data = Dataset::new(vec![]);
        for i in 0..12 {
            data.push(vec![], 5.0 + (i % 3) as f64).unwrap();
        }
        let cv = k_fold_cross_validation(&data, 3, 1, || {
            BoostedTreesRegressor::new(BoostingParams::fast())
        })
        .unwrap();
        assert_eq!(cv.fold_mape.len(), 3);
        assert!(cv.mean_mape().is_finite());
        assert!(cv.mean_rmse().is_finite() && cv.mean_rmse() > 0.0);
    }
}
