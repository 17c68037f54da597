//! High-level autotuning façade.
//!
//! [`Autotuner`] ties the pieces together for the common use case: describe the
//! platform and the workload once, let the tuner train its prediction models (lazily,
//! only when a prediction-based method is requested) and ask for a near-optimal system
//! configuration with the method and iteration budget of your choice.

use dna_analysis::Genome;
use hetero_platform::{HeterogeneousPlatform, WorkloadProfile};
use wd_ml::BoostingParams;

use crate::config::ConfigurationSpace;
use crate::methods::{MethodKind, MethodOutcome, MethodRunner};
use crate::speedup::SpeedupReport;
use crate::training::{TrainedModels, TrainingCampaign};

/// End-to-end autotuner for work distribution on a heterogeneous platform.
pub struct Autotuner {
    platform: HeterogeneousPlatform,
    workload: WorkloadProfile,
    space: ConfigurationSpace,
    grid: ConfigurationSpace,
    campaign: TrainingCampaign,
    boosting: BoostingParams,
    models: Option<TrainedModels>,
    seed: u64,
}

impl Autotuner {
    /// Create an autotuner for an arbitrary platform and workload with the paper's
    /// search space, enumeration grid and training campaign.
    pub fn new(platform: HeterogeneousPlatform, workload: WorkloadProfile, seed: u64) -> Self {
        Autotuner {
            platform,
            workload,
            space: ConfigurationSpace::paper(),
            grid: ConfigurationSpace::enumeration_grid(),
            campaign: TrainingCampaign::paper(),
            boosting: BoostingParams::default(),
            models: None,
            seed,
        }
    }

    /// The paper's full setup: the simulated "Emil" machine, the human-genome DNA
    /// workload, the Table I search space and the 7 200-experiment training campaign.
    pub fn paper_setup(seed: u64) -> Self {
        Self::new(
            HeterogeneousPlatform::emil_with_seed(seed),
            Genome::Human.workload(),
            seed,
        )
    }

    /// A scaled-down setup (reduced training campaign, fast boosting parameters) that
    /// finishes in well under a second — intended for examples, tests and doc tests.
    pub fn quick_setup(seed: u64) -> Self {
        Self::new(
            HeterogeneousPlatform::emil_with_seed(seed),
            Genome::Human.workload(),
            seed,
        )
        .with_campaign(TrainingCampaign::reduced())
        .with_boosting(BoostingParams::fast())
    }

    /// Replace the workload being tuned (invalidates nothing: the prediction models
    /// depend only on the platform, not on the particular genome).
    pub fn with_workload(mut self, workload: WorkloadProfile) -> Self {
        self.workload = workload;
        self
    }

    /// Replace the training campaign (drops any already-trained models).
    fn with_campaign(mut self, campaign: TrainingCampaign) -> Self {
        self.campaign = campaign;
        self.models = None;
        self
    }

    /// Replace the boosting hyper-parameters (drops any already-trained models).
    fn with_boosting(mut self, boosting: BoostingParams) -> Self {
        self.boosting = boosting;
        self.models = None;
        self
    }

    /// Replace the simulated-annealing search space.
    pub fn with_space(mut self, space: ConfigurationSpace) -> Self {
        self.space = space;
        self
    }

    /// Replace the enumeration grid used by EM/EML.
    pub fn with_grid(mut self, grid: ConfigurationSpace) -> Self {
        self.grid = grid;
        self
    }

    /// The platform being tuned.
    pub fn platform(&self) -> &HeterogeneousPlatform {
        &self.platform
    }

    /// The workload being tuned.
    pub fn workload(&self) -> &WorkloadProfile {
        &self.workload
    }

    /// Train (or return the already-trained) prediction models.
    pub fn models(&mut self) -> &TrainedModels {
        self.models
            .get_or_insert_with(|| self.campaign.run(&self.platform, self.boosting))
    }

    /// Run one of the paper's methods with the given simulated-annealing iteration
    /// budget (ignored by EM/EML).  Prediction-based methods trigger lazy training.
    pub fn run(&mut self, method: MethodKind, iterations: usize) -> Result<MethodOutcome, String> {
        if method.uses_prediction() {
            self.models();
        }
        let runner = MethodRunner::new(
            &self.platform,
            &self.workload,
            self.models.as_ref(),
            self.seed,
        )
        .with_space(self.space.clone())
        .with_grid(self.grid.clone());
        runner.run(method, iterations)
    }

    /// Speedup of an outcome against the host-only and device-only baselines.
    ///
    /// # Errors
    ///
    /// The [`hetero_platform::PlatformError`] of a baseline the platform cannot run.
    pub fn speedup(
        &self,
        outcome: &MethodOutcome,
    ) -> Result<SpeedupReport, hetero_platform::PlatformError> {
        SpeedupReport::for_combined_time(&self.platform, &self.workload, outcome.measured_energy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_setup_runs_every_method() {
        let mut tuner = Autotuner::quick_setup(3)
            .with_grid(ConfigurationSpace::tiny())
            .with_space(ConfigurationSpace::tiny());
        assert!(tuner.models.is_none());

        let sam = tuner.run(MethodKind::Sam, 100).unwrap();
        assert!(tuner.models.is_none(), "SAM must not trigger training");

        let saml = tuner.run(MethodKind::Saml, 100).unwrap();
        assert!(tuner.models.is_some(), "SAML triggers lazy training");

        let em = tuner.run(MethodKind::Em, 0).unwrap();
        let eml = tuner.run(MethodKind::Eml, 0).unwrap();

        for outcome in [&sam, &saml, &em, &eml] {
            assert!(outcome.measured_energy > 0.0 && outcome.measured_energy.is_finite());
        }
        // EM is the optimum of the (tiny) grid
        assert!(em.measured_energy <= sam.measured_energy + 1e-9);
    }

    #[test]
    fn speedup_report_uses_the_tuned_workload() {
        let mut tuner = Autotuner::quick_setup(5)
            .with_grid(ConfigurationSpace::tiny())
            .with_space(ConfigurationSpace::tiny());
        let em = tuner.run(MethodKind::Em, 0).unwrap();
        let speedup = tuner.speedup(&em).unwrap();
        assert!(speedup.host_only_seconds > 0.0);
        assert!(speedup.device_only_seconds > 0.0);
        assert!(
            speedup.speedup_vs_host() > 1.0,
            "the optimum beats host-only execution"
        );
        assert!(speedup.speedup_vs_device() > 1.0);
    }

    #[test]
    fn changing_the_campaign_invalidates_models() {
        let mut tuner = Autotuner::quick_setup(7)
            .with_grid(ConfigurationSpace::tiny())
            .with_space(ConfigurationSpace::tiny());
        let _ = tuner.models();
        assert!(tuner.models.is_some());
        let tuner = tuner.with_campaign(TrainingCampaign::reduced());
        assert!(tuner.models.is_none());
    }

    #[test]
    fn workload_can_be_swapped_without_retraining() {
        let mut tuner = Autotuner::quick_setup(9)
            .with_grid(ConfigurationSpace::tiny())
            .with_space(ConfigurationSpace::tiny());
        let _ = tuner.models();
        let mut tuner = tuner.with_workload(Genome::Dog.workload());
        assert!(tuner.models.is_some());
        assert_eq!(tuner.workload().name, "dog");
        let outcome = tuner.run(MethodKind::Saml, 60).unwrap();
        assert!(outcome.measured_energy > 0.0);
    }
}
