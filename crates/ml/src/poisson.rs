//! Poisson regression (one of the paper's baseline models).
//!
//! A generalised linear model with a log link: `E[y | x] = exp(β₀ + βᵀx)`.  Fitted by
//! iteratively re-weighted least squares (IRLS).  Although execution times are not
//! counts, the paper lists Poisson regression among the candidate models it evaluated,
//! so it is one of the candidates `repro model-selection` compares.

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::linear::solve_linear_system;
use crate::model::Regressor;

/// Poisson (log-link) regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonRegressor {
    /// Maximum number of IRLS iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the coefficient update norm.
    pub tolerance: f64,
    /// Ridge term stabilising the weighted normal equations.
    pub ridge_lambda: f64,
    coefficients: Vec<f64>,
    fitted: bool,
}

impl Default for PoissonRegressor {
    fn default() -> Self {
        PoissonRegressor {
            max_iterations: 50,
            tolerance: 1e-8,
            ridge_lambda: 1e-8,
            coefficients: Vec::new(),
            fitted: false,
        }
    }
}

impl PoissonRegressor {
    /// Create a model with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fitted coefficients (`[intercept, beta_1, ...]`), empty before fitting.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    fn linear_predictor(&self, features: &[f64]) -> f64 {
        let mut eta = self.coefficients[0];
        for (idx, beta) in self.coefficients.iter().skip(1).enumerate() {
            eta += beta * features.get(idx).copied().unwrap_or(0.0);
        }
        eta
    }
}

impl Regressor for PoissonRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyDataset);
        }
        if data.targets().iter().any(|&y| y < 0.0) {
            return Err(MlError::InvalidTarget {
                reason: "Poisson regression requires non-negative targets".to_string(),
            });
        }

        let p = data.n_features() + 1;
        // initialise with the log of the mean target
        let mean = data.target_mean().max(1e-9);
        self.coefficients = vec![0.0; p];
        self.coefficients[0] = mean.ln();

        let mut row = vec![0.0; p];
        for _ in 0..self.max_iterations {
            // IRLS: weights w_i = mu_i, working response z_i = eta_i + (y_i - mu_i)/mu_i
            let mut xtwx = vec![vec![0.0; p]; p];
            let mut xtwz = vec![0.0; p];
            for i in 0..data.len() {
                row[0] = 1.0;
                row[1..].copy_from_slice(data.features(i));
                let eta = {
                    let mut e = self.coefficients[0];
                    for (idx, beta) in self.coefficients.iter().skip(1).enumerate() {
                        e += beta * row[idx + 1];
                    }
                    e.clamp(-30.0, 30.0)
                };
                let mu = eta.exp().max(1e-12);
                let z = eta + (data.target(i) - mu) / mu;
                for a in 0..p {
                    xtwz[a] += mu * row[a] * z;
                    for b in 0..p {
                        xtwx[a][b] += mu * row[a] * row[b];
                    }
                }
            }
            for (d, r) in xtwx.iter_mut().enumerate() {
                r[d] += self.ridge_lambda;
            }
            let new_coefficients =
                solve_linear_system(xtwx, xtwz).ok_or_else(|| MlError::FitFailed {
                    reason: "IRLS system is singular".to_string(),
                })?;
            let delta: f64 = new_coefficients
                .iter()
                .zip(&self.coefficients)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            self.coefficients = new_coefficients;
            if delta < self.tolerance {
                break;
            }
        }
        self.fitted = true;
        Ok(())
    }

    fn predict_one(&self, features: &[f64]) -> f64 {
        if self.coefficients.is_empty() {
            return 0.0;
        }
        self.linear_predictor(features).clamp(-30.0, 30.0).exp()
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn name(&self) -> &'static str {
        "poisson-regression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_a_log_linear_relationship() {
        // y = exp(0.5 + 0.3 x)
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..100 {
            let x = i as f64 / 10.0;
            d.push(vec![x], (0.5 + 0.3 * x).exp()).unwrap();
        }
        let mut model = PoissonRegressor::new();
        model.fit(&d).unwrap();
        let c = model.coefficients();
        assert!((c[0] - 0.5).abs() < 1e-3, "intercept {}", c[0]);
        assert!((c[1] - 0.3).abs() < 1e-3, "slope {}", c[1]);
        let prediction = model.predict_one(&[5.0]);
        assert!((prediction - (0.5f64 + 1.5).exp()).abs() / prediction < 1e-3);
    }

    #[test]
    fn predictions_are_always_positive() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..50 {
            d.push(vec![i as f64], (i % 7) as f64).unwrap();
        }
        let mut model = PoissonRegressor::new();
        model.fit(&d).unwrap();
        for x in [-100.0, 0.0, 3.0, 1e6] {
            assert!(model.predict_one(&[x]) > 0.0);
        }
    }

    #[test]
    fn negative_targets_are_rejected() {
        let mut d = Dataset::new(vec!["x".into()]);
        d.push(vec![1.0], -1.0).unwrap();
        let mut model = PoissonRegressor::new();
        assert!(matches!(model.fit(&d), Err(MlError::InvalidTarget { .. })));
    }

    #[test]
    fn empty_dataset_is_rejected() {
        let mut model = PoissonRegressor::new();
        assert!(model.fit(&Dataset::new(vec!["x".into()])).is_err());
    }

    #[test]
    fn unfitted_model_predicts_zero() {
        let model = PoissonRegressor::new();
        assert!(!model.is_fitted());
        assert_eq!(model.predict_one(&[1.0]), 0.0);
    }
}
