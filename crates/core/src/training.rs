//! The training campaign and the performance-prediction models.
//!
//! Section III-B / IV-B of the paper: 7 200 experiments (2 880 on the host, 4 320 on
//! the device) are executed over the four genomes, all thread counts, affinities and
//! input fractions; half of the experiments train a Boosted Decision Tree Regression
//! model per device, the other half evaluate prediction accuracy (absolute error,
//! percent error, error histograms — Figs. 5–8 and Tables IV–V).
//!
//! The campaign executes as rayon-parallel batches (see
//! [`TrainingCampaign::host_dataset`] and friends): the 7 200 simulated experiments
//! spread over all cores while remaining bit-identical to a sequential run.

use dna_analysis::Genome;
use hetero_platform::{Affinity, ExecutionConfig, HeterogeneousPlatform, WorkloadProfile};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use wd_ml::{BoostedTreesRegressor, BoostingParams, Dataset, ErrorHistogram, Regressor};

use crate::config::{side_axis, DeviceAxis};
use crate::evaluator::PredictionEvaluator;
use crate::features::{feature_names, features};

/// One experiment of the training campaign, with its metadata retained so accuracy can
/// be reported per thread count / affinity / input size.
#[derive(Debug, Clone)]
struct ExperimentRecord {
    features: Vec<f64>,
    threads: u32,
    affinity: Affinity,
    genome: Genome,
    input_bytes: u64,
    measured: f64,
}

/// A measured-vs-predicted pair on the evaluation half of the campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionRow {
    /// Thread count of the experiment.
    pub threads: u32,
    /// Thread affinity of the experiment.
    pub affinity: Affinity,
    /// Genome the input fraction was taken from.
    pub genome: Genome,
    /// Size of the scanned input in megabytes.
    pub input_megabytes: f64,
    /// Measured (simulated) execution time in seconds.
    pub measured: f64,
    /// Model-predicted execution time in seconds.
    pub predicted: f64,
}

impl PredictionRow {
    /// Absolute prediction error `|measured − predicted|` (the paper's Eq. 5).
    pub fn absolute_error(&self) -> f64 {
        (self.measured - self.predicted).abs()
    }

    /// Percent prediction error (the paper's Eq. 6).
    pub fn percent_error(&self) -> f64 {
        if self.measured.abs() < f64::EPSILON {
            0.0
        } else {
            100.0 * self.absolute_error() / self.measured
        }
    }
}

/// Prediction accuracy on the evaluation half of a campaign.
#[derive(Debug, Clone, Default)]
pub struct AccuracyReport {
    /// One row per evaluation experiment.
    pub rows: Vec<PredictionRow>,
}

impl AccuracyReport {
    /// Mean absolute error over all evaluation experiments, in seconds.
    pub fn mean_absolute_error(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(PredictionRow::absolute_error)
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Mean percent error over all evaluation experiments.
    pub fn mean_percent_error(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(PredictionRow::percent_error)
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Per-thread-count accuracy: `(threads, mean absolute error, mean percent error)`,
    /// sorted by thread count — the rows of the paper's Tables IV and V.
    pub fn by_threads(&self) -> Vec<(u32, f64, f64)> {
        let mut thread_counts: Vec<u32> = self.rows.iter().map(|r| r.threads).collect();
        thread_counts.sort_unstable();
        thread_counts.dedup();
        thread_counts
            .into_iter()
            .map(|threads| {
                let rows: Vec<&PredictionRow> =
                    self.rows.iter().filter(|r| r.threads == threads).collect();
                let absolute =
                    rows.iter().map(|r| r.absolute_error()).sum::<f64>() / rows.len() as f64;
                let percent =
                    rows.iter().map(|r| r.percent_error()).sum::<f64>() / rows.len() as f64;
                (threads, absolute, percent)
            })
            .collect()
    }

    /// Histogram of absolute errors (the paper's Figs. 7–8).
    pub fn histogram(&self, upper_bounds: Vec<f64>) -> ErrorHistogram {
        let errors: Vec<f64> = self
            .rows
            .iter()
            .map(PredictionRow::absolute_error)
            .collect();
        ErrorHistogram::new(upper_bounds, &errors)
    }

    /// Measured/predicted series for one (threads, affinity) pair, sorted by input size
    /// — one pair of curves in the paper's Figs. 5–6.  Returns
    /// `(input MB, measured, predicted)` triples.
    pub fn series(&self, threads: u32, affinity: Affinity) -> Vec<(f64, f64, f64)> {
        let mut points: Vec<(f64, f64, f64)> = self
            .rows
            .iter()
            .filter(|r| r.threads == threads && r.affinity == affinity)
            .map(|r| (r.input_megabytes, r.measured, r.predicted))
            .collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        points
    }
}

/// The host and per-accelerator prediction models plus their accuracy reports.
#[derive(Debug, Clone)]
pub struct TrainedModels {
    /// Model predicting host execution times.
    pub host_model: BoostedTreesRegressor,
    /// One model per accelerator predicting that device's execution times (including
    /// offload overheads, since the device-side training measurements include them).
    pub device_models: Vec<BoostedTreesRegressor>,
    /// Accuracy of the host model on its evaluation half.
    pub host_accuracy: AccuracyReport,
    /// Accuracy of each device model on its evaluation half.
    pub device_accuracies: Vec<AccuracyReport>,
    /// Number of host experiments performed for training + evaluation.
    pub host_experiments: usize,
    /// Number of device experiments performed for training + evaluation (all
    /// accelerators combined).
    pub device_experiments: usize,
}

impl TrainedModels {
    /// Total number of experiments performed by the campaign.
    pub fn total_experiments(&self) -> usize {
        self.host_experiments + self.device_experiments
    }

    /// Number of accelerators the campaign trained models for.
    pub fn device_model_count(&self) -> usize {
        self.device_models.len()
    }

    /// The first accelerator's accuracy report (the paper's single-device view).
    pub fn device_accuracy(&self) -> &AccuracyReport {
        &self.device_accuracies[0]
    }

    /// Build a [`PredictionEvaluator`] for `workload`, backed by clones of the trained
    /// models (one per accelerator).
    pub fn prediction_evaluator(&self, workload: WorkloadProfile) -> PredictionEvaluator {
        PredictionEvaluator::new(
            Box::new(self.host_model.clone()),
            self.device_models
                .iter()
                .map(|model| Box::new(model.clone()) as Box<dyn wd_ml::Regressor + Send + Sync>)
                .collect(),
            workload,
        )
    }
}

/// The experiment campaign that generates training/evaluation data.
///
/// One [`DeviceAxis`] per accelerator: the campaign characterises each accelerator of
/// the platform separately (`device_axes.len()` must match the platform's accelerator
/// count when the campaign runs), and fits one model per device.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingCampaign {
    /// Host thread counts exercised.
    pub host_threads: Vec<u32>,
    /// Host affinities exercised.
    pub host_affinities: Vec<Affinity>,
    /// Thread counts and affinities exercised per accelerator.
    pub device_axes: Vec<DeviceAxis>,
    /// Input fractions of each genome (0..=1).
    pub fractions: Vec<f64>,
    /// Genomes sampled.
    pub genomes: Vec<Genome>,
    /// Fraction of experiments held out for evaluation (the paper uses 0.5).
    pub evaluation_fraction: f64,
    /// Seed of the deterministic train/evaluation split.
    pub split_seed: u64,
}

impl TrainingCampaign {
    /// The paper's campaign: 2 880 host experiments (6 thread counts × 3 affinities ×
    /// 4 genomes × 40 fractions) and 4 320 device experiments (9 × 3 × 4 × 40), with a
    /// 50/50 train/evaluation split.
    pub fn paper() -> Self {
        TrainingCampaign {
            host_threads: vec![2, 6, 12, 24, 36, 48],
            host_affinities: Affinity::HOST.to_vec(),
            device_axes: vec![DeviceAxis::paper_phi()],
            fractions: (1..=40).map(|s| s as f64 * 0.025).collect(),
            genomes: Genome::ALL.to_vec(),
            evaluation_fraction: 0.5,
            split_seed: 0x7261_1e55,
        }
    }

    /// A much smaller campaign for unit tests, examples and quick starts (a few hundred
    /// experiments instead of 7 200).
    pub fn reduced() -> Self {
        TrainingCampaign {
            host_threads: vec![2, 6, 12, 24, 48],
            host_affinities: vec![Affinity::Scatter],
            device_axes: vec![DeviceAxis::new(
                vec![8, 30, 60, 120, 240],
                vec![Affinity::Balanced],
            )],
            fractions: (1..=16).map(|s| s as f64 / 16.0).collect(),
            genomes: vec![Genome::Human, Genome::Cat],
            evaluation_fraction: 0.5,
            split_seed: 0x7261_1e55,
        }
    }

    /// The reduced campaign adapted to an arbitrary platform (a coarse thread ladder
    /// per accelerator), for examples and tests of multi-accelerator nodes.
    pub fn reduced_for(platform: &HeterogeneousPlatform) -> Self {
        Self::reduced().with_device_axes(
            platform
                .accelerators
                .iter()
                .map(|accel| {
                    DeviceAxis::with_ladder(
                        &[8, 30, 60, 120, 240],
                        accel.max_threads(),
                        vec![Affinity::Balanced],
                    )
                })
                .collect(),
        )
    }

    /// Replace the per-accelerator axes.
    fn with_device_axes(mut self, device_axes: Vec<DeviceAxis>) -> Self {
        assert!(
            !device_axes.is_empty(),
            "at least one device axis is required"
        );
        self.device_axes = device_axes;
        self
    }

    /// Number of host-side experiments this campaign performs.
    fn host_experiment_count(&self) -> usize {
        self.host_threads.len()
            * self.host_affinities.len()
            * self.fractions.len()
            * self.genomes.len()
    }

    /// Number of device-side experiments this campaign performs (all accelerators).
    fn device_experiment_count(&self) -> usize {
        self.device_axes
            .iter()
            .map(|axis| axis.threads.len() * axis.affinities.len())
            .sum::<usize>()
            * self.fractions.len()
            * self.genomes.len()
    }

    /// Total number of experiments (host + device).
    pub fn total_experiment_count(&self) -> usize {
        self.host_experiment_count() + self.device_experiment_count()
    }

    /// Execute the host half of the campaign and return it as a dataset
    /// (features per [`crate::features::feature_names`], targets in seconds).
    pub fn host_dataset(&self, platform: &HeterogeneousPlatform) -> wd_ml::Dataset {
        self.dataset(platform, 0)
    }

    /// Execute the campaign half of accelerator `device_index` and return it as a
    /// dataset.
    pub fn device_dataset(
        &self,
        platform: &HeterogeneousPlatform,
        device_index: usize,
    ) -> wd_ml::Dataset {
        self.dataset(platform, device_index + 1)
    }

    /// Side `side`'s experiments as a dataset (side 0 is the host, `d + 1`
    /// accelerator `d`).
    fn dataset(&self, platform: &HeterogeneousPlatform, side: usize) -> wd_ml::Dataset {
        let mut data = wd_ml::Dataset::new(feature_names(side));
        for record in self.generate(platform, side) {
            data.push(record.features, record.measured)
                .expect("campaign rows match the feature schema");
        }
        data
    }

    /// Execute the campaign on `platform` and fit one prediction model per side
    /// (the host and each accelerator).  The fits run concurrently; each depends
    /// only on its own side's records, so the result does not depend on how the
    /// fits are scheduled.
    ///
    /// # Panics
    ///
    /// Panics when the number of device axes does not match the platform's
    /// accelerator count (the campaign would otherwise silently train models for
    /// devices that do not exist, or skip devices that do).
    pub fn run(&self, platform: &HeterogeneousPlatform, boosting: BoostingParams) -> TrainedModels {
        assert_eq!(
            self.device_axes.len(),
            platform.accelerator_count(),
            "campaign describes {} device axes but the platform has {} accelerator(s)",
            self.device_axes.len(),
            platform.accelerator_count()
        );
        // every side's records first (each side a parallel batch), then one boosted
        // fit per side, all sides concurrently; results come back in side order (the
        // host is side 0)
        let sides: Vec<(usize, Vec<ExperimentRecord>)> = (0..self.device_axes.len() + 1)
            .map(|side| (side, self.generate(platform, side)))
            .collect();
        let host_experiments = sides[0].1.len();
        let device_experiments = sides[1..].iter().map(|(_, records)| records.len()).sum();
        let mut fits: Vec<(BoostedTreesRegressor, AccuracyReport)> = sides
            .into_par_iter()
            .map(|(side, records)| self.fit_side(&records, feature_names(side), boosting))
            .collect();
        let (device_models, device_accuracies) = fits.split_off(1).into_iter().unzip();
        let (host_model, host_accuracy) = fits.remove(0);

        TrainedModels {
            host_model,
            device_models,
            host_accuracy,
            device_accuracies,
            host_experiments,
            device_experiments,
        }
    }

    /// The deterministic experiment order of one side of the campaign (side 0 is the
    /// host, `d + 1` accelerator `d`).
    fn experiment_list(&self, side: usize) -> Vec<(Genome, WorkloadProfile, u32, Affinity)> {
        let (threads_list, affinity_list) = side_axis(
            (&self.host_threads, &self.host_affinities),
            &self.device_axes,
            side,
        );
        let mut experiments: Vec<(Genome, WorkloadProfile, u32, Affinity)> = Vec::with_capacity(
            threads_list.len() * affinity_list.len() * self.fractions.len() * self.genomes.len(),
        );
        for &genome in &self.genomes {
            for &fraction in &self.fractions {
                let share = genome.workload_fraction(fraction);
                if share.is_empty() {
                    continue;
                }
                for &threads in threads_list {
                    for &affinity in affinity_list {
                        experiments.push((genome, share.clone(), threads, affinity));
                    }
                }
            }
        }
        experiments
    }

    /// Run all experiments for one side of the platform as one rayon-parallel batch.
    ///
    /// The simulator is stateless and its noise model is a pure hash of the
    /// experiment context, so the records are identical to a sequential campaign,
    /// in the same deterministic order.
    fn generate(&self, platform: &HeterogeneousPlatform, side: usize) -> Vec<ExperimentRecord> {
        let experiments = self.experiment_list(side);
        let run_one =
            |(genome, share, threads, affinity): (Genome, WorkloadProfile, u32, Affinity)| {
                let measured = platform
                    .side_time(side, &share, 1.0, &ExecutionConfig::new(threads, affinity))
                    .expect("valid campaign experiment");
                ExperimentRecord {
                    features: features(side, threads, affinity, share.bytes),
                    threads,
                    affinity,
                    genome,
                    input_bytes: share.bytes,
                    measured,
                }
            };
        experiments.into_par_iter().map(run_one).collect()
    }

    /// Split the records, train the model on the training half and evaluate it on the
    /// held-out half.
    fn fit_side(
        &self,
        records: &[ExperimentRecord],
        feature_names: Vec<String>,
        boosting: BoostingParams,
    ) -> (BoostedTreesRegressor, AccuracyReport) {
        assert!(!records.is_empty(), "the campaign produced no experiments");
        let mut order: Vec<usize> = (0..records.len()).collect();
        let mut rng = StdRng::seed_from_u64(self.split_seed);
        order.shuffle(&mut rng);
        let eval_len =
            ((records.len() as f64) * self.evaluation_fraction.clamp(0.0, 0.9)).round() as usize;
        let (eval_indices, train_indices) = order.split_at(eval_len.min(records.len() - 1));

        let mut train = Dataset::new(feature_names);
        for &i in train_indices {
            train
                .push(records[i].features.clone(), records[i].measured)
                .expect("training row matches the schema");
        }
        let mut model = BoostedTreesRegressor::new(boosting);
        model.fit(&train).expect("training set is non-empty");

        let rows = eval_indices
            .iter()
            .map(|&i| {
                let record = &records[i];
                PredictionRow {
                    threads: record.threads,
                    affinity: record.affinity,
                    genome: record.genome,
                    input_megabytes: record.input_bytes as f64 / 1e6,
                    measured: record.measured,
                    predicted: model.predict_one(&record.features).max(0.0),
                }
            })
            .collect();

        (model, AccuracyReport { rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_campaign_matches_the_reported_experiment_counts() {
        let campaign = TrainingCampaign::paper();
        assert_eq!(campaign.host_experiment_count(), 2880);
        assert_eq!(campaign.device_experiment_count(), 4320);
        assert_eq!(campaign.total_experiment_count(), 7200);
    }

    #[test]
    fn reduced_campaign_trains_accurate_models() {
        let platform = HeterogeneousPlatform::emil();
        let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());

        assert!(models.host_model.is_fitted());
        assert!(models.device_models[0].is_fitted());
        assert_eq!(models.device_model_count(), 1);
        assert_eq!(
            models.host_experiments,
            TrainingCampaign::reduced().host_experiment_count()
        );
        assert!(!models.host_accuracy.rows.is_empty());
        assert!(!models.device_accuracy().rows.is_empty());

        // The paper reports ~5.2 % host and ~3.1 % device error; the reduced campaign is
        // coarser, so accept anything clearly better than a naive predictor.
        assert!(
            models.host_accuracy.mean_percent_error() < 20.0,
            "host percent error {}",
            models.host_accuracy.mean_percent_error()
        );
        assert!(
            models.device_accuracy().mean_percent_error() < 20.0,
            "device percent error {}",
            models.device_accuracy().mean_percent_error()
        );
    }

    #[test]
    fn concurrent_side_fits_match_serial_fits() {
        // three sides (host + two accelerators) exercise the parallel map's chunking
        let platform = HeterogeneousPlatform::emil_with_gpu();
        let campaign = TrainingCampaign::reduced_for(&platform);
        let boosting = BoostingParams::fast();
        let models = campaign.run(&platform, boosting);
        let serial = |side: usize, names: Vec<String>| {
            let records = campaign.generate(&platform, side);
            campaign.fit_side(&records, names, boosting)
        };

        let (host_model, host_accuracy) = serial(0, feature_names(0));
        assert_eq!(
            format!("{:?}", models.host_model),
            format!("{host_model:?}")
        );
        assert_eq!(
            format!("{:?}", models.host_accuracy),
            format!("{host_accuracy:?}")
        );
        assert_eq!(models.device_models.len(), 2);
        for index in 0..2 {
            let (model, accuracy) = serial(index + 1, feature_names(index + 1));
            assert_eq!(
                format!("{:?}", models.device_models[index]),
                format!("{model:?}"),
                "device {index}"
            );
            assert_eq!(
                format!("{:?}", models.device_accuracies[index]),
                format!("{accuracy:?}"),
                "device {index}"
            );
        }
    }

    #[test]
    fn multi_accelerator_campaign_trains_one_model_per_device() {
        let platform = HeterogeneousPlatform::emil_with_gpu();
        let campaign = TrainingCampaign::reduced_for(&platform);
        assert_eq!(campaign.device_axes.len(), 2);
        // the GPU axis is clipped/extended to the device capacity
        assert_eq!(campaign.device_axes[1].threads.last(), Some(&448));

        let models = campaign.run(&platform, BoostingParams::fast());
        assert_eq!(models.device_model_count(), 2);
        for (index, (model, accuracy)) in models
            .device_models
            .iter()
            .zip(&models.device_accuracies)
            .enumerate()
        {
            assert!(model.is_fitted(), "device {index}");
            assert!(!accuracy.rows.is_empty(), "device {index}");
            assert!(
                accuracy.mean_percent_error() < 25.0,
                "device {index} percent error {}",
                accuracy.mean_percent_error()
            );
        }
        assert_eq!(
            models.device_experiments,
            campaign.device_experiment_count()
        );

        // the two devices are genuinely different: their models disagree on the same
        // share
        let features = features(1, 60, Affinity::Balanced, 1_000_000_000);
        let phi = models.device_models[0].predict_one(&features);
        let gpu = models.device_models[1].predict_one(&features);
        assert!(phi > 0.0 && gpu > 0.0);
        assert!(
            (phi - gpu).abs() / phi.max(gpu) > 0.05,
            "Phi ({phi}) and GPU ({gpu}) models should disagree"
        );
    }

    #[test]
    fn campaign_rejects_mismatched_device_axes() {
        let platform = HeterogeneousPlatform::emil_with_gpu();
        let campaign = TrainingCampaign::reduced(); // one axis, two accelerators
        let result = std::panic::catch_unwind(|| campaign.run(&platform, BoostingParams::fast()));
        assert!(result.is_err());
    }

    #[test]
    fn accuracy_report_groups_by_threads() {
        let report = AccuracyReport {
            rows: vec![
                PredictionRow {
                    threads: 2,
                    affinity: Affinity::Scatter,
                    genome: Genome::Human,
                    input_megabytes: 100.0,
                    measured: 1.0,
                    predicted: 1.1,
                },
                PredictionRow {
                    threads: 2,
                    affinity: Affinity::Scatter,
                    genome: Genome::Human,
                    input_megabytes: 200.0,
                    measured: 2.0,
                    predicted: 1.8,
                },
                PredictionRow {
                    threads: 48,
                    affinity: Affinity::Scatter,
                    genome: Genome::Human,
                    input_megabytes: 100.0,
                    measured: 0.5,
                    predicted: 0.5,
                },
            ],
        };
        let by_threads = report.by_threads();
        assert_eq!(by_threads.len(), 2);
        assert_eq!(by_threads[0].0, 2);
        assert!((by_threads[0].1 - 0.15).abs() < 1e-12);
        assert!((by_threads[0].2 - 10.0).abs() < 1e-12);
        assert_eq!(by_threads[1], (48, 0.0, 0.0));

        // error histogram and series
        let histogram = report.histogram(vec![0.05, 0.15, 0.5]);
        assert_eq!(histogram.total(), 3);
        let series = report.series(2, Affinity::Scatter);
        assert_eq!(series.len(), 2);
        assert!(series[0].0 < series[1].0);
    }

    #[test]
    fn prediction_row_errors_match_the_paper_formulas() {
        let row = PredictionRow {
            threads: 12,
            affinity: Affinity::Compact,
            genome: Genome::Dog,
            input_megabytes: 50.0,
            measured: 2.0,
            predicted: 1.5,
        };
        assert!((row.absolute_error() - 0.5).abs() < 1e-12);
        assert!((row.percent_error() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn empty_accuracy_report_is_safe() {
        let report = AccuracyReport::default();
        assert_eq!(report.mean_absolute_error(), 0.0);
        assert_eq!(report.mean_percent_error(), 0.0);
        assert!(report.by_threads().is_empty());
        assert!(report.series(48, Affinity::Scatter).is_empty());
    }
}
