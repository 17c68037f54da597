//! Selection of the performance-prediction model family.
//!
//! Section III-B of the paper: "we have considered various supervised machine learning
//! approaches, including Linear Regression, Poisson Regression, and the Boosted
//! Decision Tree Regression.  In our performance prediction experiments, we achieved
//! more accurate prediction results with the Boosted Decision Tree Regression."
//!
//! This module reproduces that comparison: it cross-validates the three candidate
//! families on the training-campaign data and reports which one wins.

use hetero_platform::HeterogeneousPlatform;
use wd_ml::{
    k_fold_cross_validation, BoostedTreesRegressor, BoostingParams, Dataset, LinearRegressor,
    MlError, PoissonRegressor,
};

use crate::training::TrainingCampaign;

/// A candidate model family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Gradient-boosted decision trees (the paper's choice).
    BoostedTrees,
    /// Ordinary least-squares linear regression.
    Linear,
    /// Poisson (log-link) regression.
    Poisson,
}

impl ModelFamily {
    /// All candidate families the paper mentions.
    pub const ALL: [ModelFamily; 3] = [
        ModelFamily::BoostedTrees,
        ModelFamily::Linear,
        ModelFamily::Poisson,
    ];

    /// Human readable name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelFamily::BoostedTrees => "boosted decision trees",
            ModelFamily::Linear => "linear regression",
            ModelFamily::Poisson => "poisson regression",
        }
    }
}

impl std::fmt::Display for ModelFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cross-validated accuracy of one family on one side of the platform.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyScore {
    /// The model family.
    pub family: ModelFamily,
    /// Mean absolute percent error across folds.
    pub mape: f64,
    /// Mean RMSE across folds (seconds).
    pub rmse: f64,
}

/// The full comparison for the host model and one comparison per accelerator model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelComparison {
    /// Scores on the host-side campaign data.
    pub host: Vec<FamilyScore>,
    /// Scores on each accelerator's campaign data, in device order.
    pub devices: Vec<Vec<FamilyScore>>,
}

impl ModelComparison {
    /// Compare all families with `folds`-fold cross-validation on the campaign's data
    /// (every accelerator of the platform is cross-validated separately).
    ///
    /// Fails with the first cross-validation error, e.g. [`MlError::EmptyDataset`] when
    /// a side of the campaign yields no rows.
    pub fn run(
        platform: &HeterogeneousPlatform,
        campaign: &TrainingCampaign,
        boosting: BoostingParams,
        folds: usize,
        seed: u64,
    ) -> Result<Self, MlError> {
        let host_data = campaign.host_dataset(platform);
        let devices = (0..campaign.device_axes.len())
            .map(|index| {
                let device_data = campaign.device_dataset(platform, index);
                Self::score_all(&device_data, boosting, folds, seed)
            })
            .collect::<Result<_, _>>()?;
        Ok(ModelComparison {
            host: Self::score_all(&host_data, boosting, folds, seed)?,
            devices,
        })
    }

    fn score_all(
        data: &Dataset,
        boosting: BoostingParams,
        folds: usize,
        seed: u64,
    ) -> Result<Vec<FamilyScore>, MlError> {
        ModelFamily::ALL
            .iter()
            .map(|&family| {
                let cv = match family {
                    ModelFamily::BoostedTrees => k_fold_cross_validation(data, folds, seed, || {
                        BoostedTreesRegressor::new(boosting)
                    }),
                    ModelFamily::Linear => {
                        k_fold_cross_validation(data, folds, seed, LinearRegressor::new)
                    }
                    ModelFamily::Poisson => {
                        k_fold_cross_validation(data, folds, seed, PoissonRegressor::new)
                    }
                }?;
                Ok(FamilyScore {
                    family,
                    mape: cv.mean_mape(),
                    rmse: cv.mean_rmse(),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boosted_trees_win_the_model_comparison() {
        // Reproduces the paper's model-selection claim on the reduced campaign: the
        // boosted decision trees beat the linear and Poisson baselines on both sides.
        let platform = HeterogeneousPlatform::emil();
        let comparison = ModelComparison::run(
            &platform,
            &TrainingCampaign::reduced(),
            BoostingParams::fast(),
            4,
            3,
        )
        .unwrap();
        assert_eq!(comparison.host.len(), 3);
        assert_eq!(comparison.devices.len(), 1);
        assert_eq!(comparison.devices[0].len(), 3);
        for scores in std::iter::once(&comparison.host).chain(&comparison.devices) {
            let boosted = scores
                .iter()
                .find(|score| score.family == ModelFamily::BoostedTrees)
                .unwrap();
            assert!(
                scores.iter().all(|score| boosted.mape <= score.mape),
                "{scores:?}"
            );
        }
        for score in comparison
            .host
            .iter()
            .chain(comparison.devices.iter().flatten())
        {
            assert!(score.mape.is_finite() && score.mape >= 0.0);
            assert!(score.rmse.is_finite() && score.rmse >= 0.0);
        }
    }

    #[test]
    fn an_empty_campaign_is_a_typed_error() {
        let campaign = TrainingCampaign {
            genomes: vec![],
            ..TrainingCampaign::reduced()
        };
        let result = ModelComparison::run(
            &HeterogeneousPlatform::emil(),
            &campaign,
            BoostingParams::fast(),
            4,
            3,
        );
        assert_eq!(result, Err(MlError::EmptyDataset));
    }

    #[test]
    fn family_names_are_stable() {
        assert_eq!(ModelFamily::ALL.len(), 3);
        assert_eq!(
            ModelFamily::BoostedTrees.to_string(),
            "boosted decision trees"
        );
        assert_eq!(ModelFamily::Linear.name(), "linear regression");
        assert_eq!(ModelFamily::Poisson.name(), "poisson regression");
    }
}
