//! # wd-ml
//!
//! A small, dependency-light supervised-learning library providing the regression
//! models used by *Memeti & Pllana, Combinatorial Optimization of Work Distribution on
//! Heterogeneous Systems, ICPP Workshops 2016*:
//!
//! * [`BoostedTreesRegressor`] — gradient-boosted decision-tree regression, the model
//!   the paper selects for execution-time prediction,
//! * [`LinearRegressor`] and [`PoissonRegressor`] — the baselines the paper reports
//!   having considered,
//! * [`RegressionTree`] — the CART building block,
//! * dataset handling, train/test splitting and the error metrics the
//!   paper reports (absolute error, percent error, error histograms).
//!
//! ## Example
//!
//! ```
//! use wd_ml::{Dataset, BoostedTreesRegressor, BoostingParams, Regressor, metrics};
//!
//! // y = 3 x0 + noiseless offset; the booster should learn it closely (the exact
//! // error depends on the seeded train/test split).
//! let mut data = Dataset::new(vec!["x0".into()]);
//! for i in 0..200 {
//!     let x = i as f64 / 10.0;
//!     data.push(vec![x], 3.0 * x + 1.0).unwrap();
//! }
//! let (train, test) = data.train_test_split(0.5, 42);
//! let mut model = BoostedTreesRegressor::new(BoostingParams::default());
//! model.fit(&train).unwrap();
//! let predictions = model.predict_batch(test.feature_matrix(), test.n_features());
//! let mape = metrics::mean_absolute_percent_error(test.targets(), &predictions);
//! assert!(mape < 15.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod boosting;
pub mod dataset;
pub mod error;
pub mod linear;
pub mod metrics;
pub mod model;
pub mod poisson;
pub mod tree;
pub mod validation;

pub use boosting::{BoostedTreesRegressor, BoostingParams};
pub use dataset::Dataset;
pub use error::MlError;
pub use linear::LinearRegressor;
pub use metrics::ErrorHistogram;
pub use model::Regressor;
pub use poisson::PoissonRegressor;
pub use tree::{FlatTree, RegressionTree, TreeParams};
pub use validation::{k_fold_cross_validation, CrossValidation};
