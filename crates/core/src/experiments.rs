//! Canonical experiment definitions shared by the `repro` harness, the Criterion
//! benches, the examples and the integration tests.
//!
//! Every figure and table of the paper's evaluation maps to a function or type here:
//!
//! | paper artifact | entry point |
//! |---|---|
//! | Fig. 2a–c (motivation)            | [`motivation_experiment`] |
//! | Figs. 5–8, Tables IV–V (accuracy) | [`TrainingCampaign::run`](crate::TrainingCampaign) via [`prediction_study`] |
//! | Fig. 9, Tables VI–VII             | [`ConvergenceStudy`] |
//! | Tables VIII–IX (speedups)         | [`ConvergenceStudy::speedup_rows`] |

use dna_analysis::Genome;
use hetero_platform::{
    Affinity, ExecutionConfig, ExecutionRequest, HeterogeneousPlatform, WorkloadProfile,
};
use rayon::prelude::*;
use wd_ml::BoostingParams;

use crate::config::{ConfigurationSpace, SystemConfiguration};
use crate::evaluator::MeasurementEvaluator;
use crate::methods::{MethodKind, MethodOutcome, MethodRunner};
use crate::training::{TrainedModels, TrainingCampaign};

/// The iteration budgets reported in the paper's Tables VI–IX and Fig. 9.
pub fn paper_iteration_budgets() -> Vec<usize> {
    vec![250, 500, 750, 1000, 1250, 1500, 1750, 2000]
}

/// One point of the motivational experiment (Fig. 2): a work-distribution ratio and its
/// execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct MotivationPoint {
    /// Human-readable ratio label ("CPU only", "90/10", ..., "Phi only").
    pub label: String,
    /// Host share in percent.
    pub host_percent: u32,
    /// Simulated execution time in seconds.
    pub seconds: f64,
    /// Execution time normalised into the range 1–10 as in the paper's plots.
    pub normalized: f64,
}

/// Reproduce one sub-figure of Fig. 2: scan `input_megabytes` MB with `host_threads`
/// host threads (scatter affinity) and all 240 device threads (balanced affinity),
/// varying the work-distribution ratio over the paper's eleven values.
///
/// All eleven ratios are measured as one batched
/// [`HeterogeneousPlatform::execute_many`] call.
pub fn motivation_experiment(
    platform: &HeterogeneousPlatform,
    input_megabytes: u64,
    host_threads: u32,
) -> Vec<MotivationPoint> {
    let workload = WorkloadProfile::dna_scan(
        &format!("motivation-{input_megabytes}MB"),
        input_megabytes * 1_000_000,
    );
    let host_cfg = ExecutionConfig::new(host_threads, Affinity::Scatter);
    let device_cfg = ExecutionConfig::new(240, Affinity::Balanced);

    let ratios: Vec<u32> = (0..=10u32).rev().map(|step| step * 10).collect();
    let requests: Vec<ExecutionRequest> = ratios
        .iter()
        .map(|&host_percent| {
            ExecutionRequest::two_way(f64::from(host_percent) / 100.0, host_cfg, device_cfg)
                .expect("motivation ratios lie in [0, 1]")
        })
        .collect();
    let mut points: Vec<MotivationPoint> = platform
        .execute_many(&workload, &requests)
        .into_iter()
        .zip(&ratios)
        .map(|(measurement, &host_percent)| {
            let label = match host_percent {
                100 => "CPU only".to_string(),
                0 => "Phi only".to_string(),
                p => format!("{p}/{d}", d = 100 - p),
            };
            MotivationPoint {
                label,
                host_percent,
                seconds: measurement
                    .expect("motivation configuration is valid")
                    .t_total,
                normalized: 0.0,
            }
        })
        .collect();

    // normalise into 1..10 as the paper does
    let min = points
        .iter()
        .map(|p| p.seconds)
        .fold(f64::INFINITY, f64::min);
    let max = points
        .iter()
        .map(|p| p.seconds)
        .fold(f64::NEG_INFINITY, f64::max);
    let range = (max - min).max(f64::MIN_POSITIVE);
    for point in &mut points {
        point.normalized = 1.0 + 9.0 * (point.seconds - min) / range;
    }
    points
}

/// Run the prediction study (the paper's Section IV-B): execute the training campaign
/// and fit/evaluate the host and device models.
pub fn prediction_study(
    platform: &HeterogeneousPlatform,
    campaign: &TrainingCampaign,
    boosting: BoostingParams,
) -> TrainedModels {
    campaign.run(platform, boosting)
}

/// The three [`WorkloadProfile`] kinds at one input size: the paper's DNA scan plus
/// the synthetic compute-bound and streaming (transfer-bound) workloads.  This is the
/// standard mix the multi-workload studies and benches iterate over (ROADMAP "More
/// workloads").
pub fn workload_mix(bytes: u64) -> Vec<WorkloadProfile> {
    vec![
        WorkloadProfile::dna_scan("dna-scan", bytes),
        WorkloadProfile::compute_bound("compute-bound", bytes, 6.0),
        WorkloadProfile::streaming("streaming", bytes),
    ]
}

/// Convergence results for one workload case (one genome of the paper's study, or any
/// other [`WorkloadProfile`]).
#[derive(Debug, Clone)]
pub struct CaseConvergence {
    /// Row label of this case in the tables (genome name or workload name).
    pub label: String,
    /// The genome, when this case came from the paper's per-genome study.
    pub genome: Option<Genome>,
    /// The workload being analysed.
    pub workload: WorkloadProfile,
    /// Enumeration + Measurements (the reference optimum).
    pub em: MethodOutcome,
    /// Enumeration + Machine Learning.
    pub eml: MethodOutcome,
    /// Simulated Annealing + Measurements, per iteration budget.
    pub sam: Vec<(usize, MethodOutcome)>,
    /// Simulated Annealing + Machine Learning, per iteration budget.
    pub saml: Vec<(usize, MethodOutcome)>,
    /// Genetic Algorithm + Machine Learning (this crate's extension beyond the
    /// paper's Table II), per iteration budget — same budgets, seeds and
    /// median-of-repeats selection as the annealing rows.
    pub gaml: Vec<(usize, MethodOutcome)>,
    /// Host-only baseline (48 threads) in seconds.
    pub host_only_seconds: f64,
    /// Device-only baseline (240 threads) in seconds.
    pub device_only_seconds: f64,
}

/// The convergence study behind the paper's Fig. 9 and Tables VI–IX, generalised to
/// arbitrary workload cases.
#[derive(Debug, Clone)]
pub struct ConvergenceStudy {
    /// The simulated-annealing iteration budgets examined.
    pub budgets: Vec<usize>,
    /// Per-case results (one per genome for the paper's study, one per workload for
    /// the multi-workload studies).
    pub cases: Vec<CaseConvergence>,
}

/// Deterministic per-case seed salt derived from the case label (FNV-1a), so every
/// case gets an independent annealing stream regardless of its position in the study.
fn label_seed(label: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in label.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Which baseline a speedup table compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedupBaseline {
    /// Compare against host-only execution (Table VIII).
    HostOnly,
    /// Compare against device-only execution (Table IX).
    DeviceOnly,
}

impl ConvergenceStudy {
    /// Run the study with the default number of annealing repetitions per budget.
    ///
    /// See [`ConvergenceStudy::run_with_repeats`]; three repetitions keep the
    /// run-to-run variance of the stochastic annealer from obscuring the
    /// convergence trend, matching the smooth curves the paper plots.
    pub fn run(
        platform: &HeterogeneousPlatform,
        models: &TrainedModels,
        genomes: &[Genome],
        budgets: &[usize],
        seed: u64,
    ) -> Self {
        Self::run_with_repeats(platform, models, genomes, budgets, seed, 3)
    }

    /// Run the study: for every genome run EM and EML once and, per iteration budget,
    /// run SAM/SAML `repeats` times with independent seeds and keep the run with the
    /// median measured execution time.
    pub fn run_with_repeats(
        platform: &HeterogeneousPlatform,
        models: &TrainedModels,
        genomes: &[Genome],
        budgets: &[usize],
        seed: u64,
        repeats: usize,
    ) -> Self {
        let cases: Vec<(String, Option<Genome>, WorkloadProfile)> = genomes
            .iter()
            .map(|&genome| (genome.name().to_string(), Some(genome), genome.workload()))
            .collect();
        Self::run_cases_scaled(
            platform,
            models,
            &cases,
            budgets,
            seed,
            repeats,
            &ConfigurationSpace::enumeration_grid(),
            &ConfigurationSpace::paper(),
        )
    }

    /// Run the study over arbitrary workload profiles (ROADMAP "More workloads"): the
    /// compute-bound and streaming kinds go through exactly the same EM/EML/SAM/SAML
    /// pipeline as the paper's DNA scans.  Case labels are the workload names.
    pub fn run_workloads(
        platform: &HeterogeneousPlatform,
        models: &TrainedModels,
        workloads: &[WorkloadProfile],
        budgets: &[usize],
        seed: u64,
    ) -> Self {
        Self::run_workloads_scaled(
            platform,
            models,
            workloads,
            budgets,
            seed,
            3,
            &ConfigurationSpace::enumeration_grid(),
            &ConfigurationSpace::paper(),
        )
    }

    /// [`ConvergenceStudy::run_workloads`] with explicit repeats, enumeration grid and
    /// annealing space — the knob tests and benches use to shrink the study.
    #[allow(clippy::too_many_arguments)]
    pub fn run_workloads_scaled(
        platform: &HeterogeneousPlatform,
        models: &TrainedModels,
        workloads: &[WorkloadProfile],
        budgets: &[usize],
        seed: u64,
        repeats: usize,
        grid: &ConfigurationSpace,
        space: &ConfigurationSpace,
    ) -> Self {
        let cases: Vec<(String, Option<Genome>, WorkloadProfile)> = workloads
            .iter()
            .map(|workload| (workload.name.clone(), None, workload.clone()))
            .collect();
        Self::run_cases_scaled(
            platform, models, &cases, budgets, seed, repeats, grid, space,
        )
    }

    /// The study engine shared by the genome, workload and sharded drivers: EM/EML
    /// through the default [`MethodRunner`] enumeration path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_cases_scaled(
        platform: &HeterogeneousPlatform,
        models: &TrainedModels,
        cases: &[(String, Option<Genome>, WorkloadProfile)],
        budgets: &[usize],
        seed: u64,
        repeats: usize,
        grid: &ConfigurationSpace,
        space: &ConfigurationSpace,
    ) -> Self {
        let reference = |workload: &WorkloadProfile, case_seed: u64, method: MethodKind| {
            MethodRunner::new(platform, workload, Some(models), case_seed)
                .with_grid(grid.clone())
                .with_space(space.clone())
                .run(method, 0)
                .expect("enumeration methods cannot fail with models present")
        };
        Self::run_cases(
            platform, models, cases, budgets, seed, repeats, grid, space, &reference,
        )
    }

    /// The innermost engine: the caller supplies how the enumeration references (EM
    /// and EML) are produced — the sharded driver routes them through a
    /// `wd_dist::ShardedCampaign` — while the annealing methods always run locally.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_cases(
        platform: &HeterogeneousPlatform,
        models: &TrainedModels,
        cases: &[(String, Option<Genome>, WorkloadProfile)],
        budgets: &[usize],
        seed: u64,
        repeats: usize,
        grid: &ConfigurationSpace,
        space: &ConfigurationSpace,
        reference: &(dyn Fn(&WorkloadProfile, u64, MethodKind) -> MethodOutcome + Sync),
    ) -> Self {
        let repeats = repeats.max(1);

        // run one method at every budget, `repeats` times in parallel (each annealing
        // repeat has an independent seed, so repeats are order-independent), keeping
        // the run with the median measured execution time
        let run_annealer = |workload: &WorkloadProfile, method: MethodKind, case_seed: u64| {
            budgets
                .iter()
                .map(|&budget| {
                    let mut outcomes: Vec<MethodOutcome> = (0..repeats)
                        .collect::<Vec<_>>()
                        .into_par_iter()
                        .map(|repeat| {
                            let run_seed =
                                case_seed ^ (repeat as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                            MethodRunner::new(platform, workload, Some(models), run_seed)
                                .with_grid(grid.clone())
                                .with_space(space.clone())
                                .run(method, budget)
                                .expect("annealing methods cannot fail with models present")
                        })
                        .collect();
                    outcomes.sort_by(|a, b| a.measured_energy.total_cmp(&b.measured_energy));
                    (budget, outcomes.swap_remove(outcomes.len() / 2))
                })
                .collect::<Vec<_>>()
        };

        let cases = cases
            .iter()
            .map(|(label, genome, workload)| {
                let case_seed = seed ^ label_seed(label);
                let em = reference(workload, case_seed, MethodKind::Em);
                let eml = reference(workload, case_seed, MethodKind::Eml);
                let sam = run_annealer(workload, MethodKind::Sam, case_seed);
                let saml = run_annealer(workload, MethodKind::Saml, case_seed);
                let gaml = run_annealer(workload, MethodKind::Gaml, case_seed);
                let measurement = MeasurementEvaluator::new(platform.clone(), workload.clone());
                use wd_opt::Objective as _;
                let accelerators = platform.accelerator_count();
                let baselines = measurement.evaluate_batch(&[
                    SystemConfiguration::host_only_baseline_for(accelerators),
                    SystemConfiguration::device_only_baseline_for(accelerators),
                ]);
                CaseConvergence {
                    label: label.clone(),
                    genome: *genome,
                    workload: workload.clone(),
                    em,
                    eml,
                    sam,
                    saml,
                    gaml,
                    host_only_seconds: baselines[0],
                    device_only_seconds: baselines[1],
                }
            })
            .collect();
        ConvergenceStudy {
            budgets: budgets.to_vec(),
            cases,
        }
    }

    /// Table VI: percent difference between the SAML configuration at each budget and
    /// the EM optimum, per genome, plus the average row.  Rows are
    /// `(label, one value per budget)`.
    pub fn percent_difference_rows(&self) -> Vec<(String, Vec<f64>)> {
        self.difference_rows(|saml, em| 100.0 * (saml - em).abs() / em)
    }

    /// Table VII: absolute difference \[s\] between SAML and EM.
    pub fn absolute_difference_rows(&self) -> Vec<(String, Vec<f64>)> {
        self.difference_rows(|saml, em| (saml - em).abs())
    }

    fn difference_rows(&self, difference: impl Fn(f64, f64) -> f64) -> Vec<(String, Vec<f64>)> {
        let mut rows: Vec<(String, Vec<f64>)> = self
            .cases
            .iter()
            .map(|case| {
                let values = case
                    .saml
                    .iter()
                    .map(|(_, outcome)| {
                        difference(outcome.measured_energy, case.em.measured_energy)
                    })
                    .collect();
                (case.label.clone(), values)
            })
            .collect();
        if !rows.is_empty() {
            let columns = self.budgets.len();
            let average: Vec<f64> = (0..columns)
                .map(|c| rows.iter().map(|(_, v)| v[c]).sum::<f64>() / rows.len() as f64)
                .collect();
            rows.push(("average".to_string(), average));
        }
        rows
    }

    /// Tables VIII and IX: speedup of the SAML configuration at each budget (and of the
    /// EM optimum, as the final column) over the selected baseline.  Rows are
    /// `(label, one value per budget, EM value)`.
    pub fn speedup_rows(&self, baseline: SpeedupBaseline) -> Vec<(String, Vec<f64>, f64)> {
        self.cases
            .iter()
            .map(|case| {
                let reference = match baseline {
                    SpeedupBaseline::HostOnly => case.host_only_seconds,
                    SpeedupBaseline::DeviceOnly => case.device_only_seconds,
                };
                let budget_speedups = case
                    .saml
                    .iter()
                    .map(|(_, outcome)| reference / outcome.measured_energy)
                    .collect();
                let em_speedup = reference / case.em.measured_energy;
                (case.label.clone(), budget_speedups, em_speedup)
            })
            .collect()
    }

    /// Fig. 9 data for one genome: `(budget, SAML, SAM)` measured execution times plus
    /// the EM and EML reference lines.
    pub fn figure9_series(&self, genome: Genome) -> Option<Figure9Series> {
        let case = self.cases.iter().find(|c| c.genome == Some(genome))?;
        self.case_series(&case.label)
    }

    /// Fig.-9-shaped data for one case, by label (works for the workload studies too).
    pub fn case_series(&self, label: &str) -> Option<Figure9Series> {
        self.cases
            .iter()
            .find(|case| case.label == label)
            .map(|case| Figure9Series {
                label: case.label.clone(),
                budgets: self.budgets.clone(),
                saml: case.saml.iter().map(|(_, o)| o.measured_energy).collect(),
                sam: case.sam.iter().map(|(_, o)| o.measured_energy).collect(),
                gaml: case.gaml.iter().map(|(_, o)| o.measured_energy).collect(),
                em: case.em.measured_energy,
                eml: case.eml.measured_energy,
            })
    }
}

/// The data behind one sub-plot of the paper's Fig. 9.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure9Series {
    /// Case label of this sub-plot (genome or workload name).
    pub label: String,
    /// Iteration budgets (x-axis).
    pub budgets: Vec<usize>,
    /// Measured execution time of the SAML-suggested configuration per budget.
    pub saml: Vec<f64>,
    /// Measured execution time of the SAM-suggested configuration per budget.
    pub sam: Vec<f64>,
    /// Measured execution time of the GAML-suggested configuration per budget (this
    /// crate's extension; not part of the paper's Fig. 9).
    pub gaml: Vec<f64>,
    /// The EM optimum (solid horizontal line).
    pub em: f64,
    /// The EML optimum re-measured (dashed horizontal line).
    pub eml: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigurationSpace;

    fn platform() -> HeterogeneousPlatform {
        HeterogeneousPlatform::emil()
    }

    #[test]
    fn motivation_experiment_has_eleven_normalized_points() {
        let points = motivation_experiment(&platform(), 3250, 48);
        assert_eq!(points.len(), 11);
        assert_eq!(points.first().unwrap().label, "CPU only");
        assert_eq!(points.last().unwrap().label, "Phi only");
        for point in &points {
            assert!(point.normalized >= 1.0 - 1e-9 && point.normalized <= 10.0 + 1e-9);
            assert!(point.seconds > 0.0);
        }
        // at least one point touches each end of the normalised range
        assert!(points.iter().any(|p| (p.normalized - 1.0).abs() < 1e-9));
        assert!(points.iter().any(|p| (p.normalized - 10.0).abs() < 1e-9));
    }

    #[test]
    fn motivation_small_input_prefers_cpu_only() {
        // Fig. 2a: for a 190 MB input with 48 threads the CPU-only point is the fastest.
        let points = motivation_experiment(&platform(), 190, 48);
        let cpu_only = points.iter().find(|p| p.host_percent == 100).unwrap();
        let best = points
            .iter()
            .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
            .unwrap();
        assert_eq!(best.host_percent, cpu_only.host_percent);
    }

    #[test]
    fn motivation_large_input_prefers_a_mixed_split() {
        // Fig. 2b: for a 3250 MB input with 48 threads a 60/40-ish split wins.
        let points = motivation_experiment(&platform(), 3250, 48);
        let best = points
            .iter()
            .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
            .unwrap();
        assert!(best.host_percent > 0 && best.host_percent < 100);
    }

    #[test]
    fn motivation_few_host_threads_prefers_the_device() {
        // Fig. 2c: with only 4 host threads most of the work should go to the device.
        let points = motivation_experiment(&platform(), 3250, 4);
        let best = points
            .iter()
            .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
            .unwrap();
        assert!(
            best.host_percent <= 40,
            "best host share {}",
            best.host_percent
        );
    }

    #[test]
    fn convergence_study_on_a_tiny_space_is_consistent() {
        let platform = platform();
        let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());
        // shrink the study so the test stays fast: tiny grid, two budgets, one genome
        let workload = Genome::Cat.workload();
        let runner = MethodRunner::new(&platform, &workload, Some(&models), 3)
            .with_grid(ConfigurationSpace::tiny())
            .with_space(ConfigurationSpace::tiny());
        let em = runner.run(MethodKind::Em, 0).unwrap();
        let saml = runner.run(MethodKind::Saml, 200).unwrap();
        assert!(em.measured_energy > 0.0);
        // EM is optimal on the grid, so SAML (restricted to the same space) cannot beat
        // it by more than the measurement noise
        assert!(saml.measured_energy >= em.measured_energy * 0.9);
    }

    #[test]
    fn workload_mix_covers_all_three_profile_kinds() {
        let mix = workload_mix(1_000_000_000);
        assert_eq!(mix.len(), 3);
        let names: Vec<&str> = mix.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, vec!["dna-scan", "compute-bound", "streaming"]);
        for workload in &mix {
            workload.validate().unwrap();
            assert_eq!(workload.bytes, 1_000_000_000);
        }
        // the kinds are genuinely different regimes
        assert!(mix[1].cost_factor > mix[0].cost_factor);
        assert!(mix[2].cost_factor < mix[0].cost_factor);
    }

    #[test]
    fn convergence_study_runs_compute_bound_and_streaming_workloads() {
        let platform = platform();
        let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());
        let study = ConvergenceStudy::run_workloads_scaled(
            &platform,
            &models,
            &workload_mix(800_000_000),
            &[100],
            7,
            1,
            &ConfigurationSpace::tiny(),
            &ConfigurationSpace::tiny(),
        );
        assert_eq!(study.cases.len(), 3);
        for case in &study.cases {
            assert!(case.genome.is_none());
            assert!(case.em.measured_energy > 0.0, "{}", case.label);
            assert!(case.host_only_seconds > 0.0 && case.device_only_seconds > 0.0);
            assert_eq!(case.saml.len(), 1);
            // EM is optimal on the shared grid, so SAML cannot beat it by more than
            // the measurement noise
            assert!(
                case.saml[0].1.measured_energy >= case.em.measured_energy * 0.9,
                "{}",
                case.label
            );
        }
        // rows carry the workload names plus the average row
        let rows = study.percent_difference_rows();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().any(|(label, _)| label == "streaming"));
        assert!(study.case_series("compute-bound").is_some());
        assert!(study.case_series("no-such-case").is_none());
        // streaming workloads are transfer-bound: offloading rarely pays off, so the
        // optimum keeps a clear majority of the work on the host
        let streaming = &study.cases[2];
        assert!(
            streaming.em.best_config.host_permille() >= 500,
            "streaming optimum sent {} permille to the host",
            streaming.em.best_config.host_permille()
        );
    }

    #[test]
    fn convergence_study_gaml_row_matches_a_direct_gaml_run_bit_for_bit() {
        let platform = platform();
        let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());
        let tiny = ConfigurationSpace::tiny();
        let (seed, budget) = (11u64, 120usize);
        let study = ConvergenceStudy::run_cases_scaled(
            &platform,
            &models,
            &[("cat".to_string(), Some(Genome::Cat), Genome::Cat.workload())],
            &[budget],
            seed,
            1,
            &tiny,
            &tiny,
        );
        let case = &study.cases[0];
        assert_eq!(case.gaml.len(), 1);
        let (row_budget, gaml) = &case.gaml[0];
        assert_eq!(*row_budget, budget);
        assert_eq!(gaml.method, MethodKind::Gaml);

        // with repeats = 1 the study's run seed is exactly the case seed, so the row
        // must reproduce a direct MethodRunner GAML run bit for bit
        let workload = Genome::Cat.workload();
        let case_seed = seed ^ label_seed("cat");
        let direct = MethodRunner::new(&platform, &workload, Some(&models), case_seed)
            .with_grid(tiny.clone())
            .with_space(tiny.clone())
            .run(MethodKind::Gaml, budget)
            .unwrap();
        assert_eq!(gaml.best_config, direct.best_config);
        assert_eq!(gaml.search_energy.to_bits(), direct.search_energy.to_bits());
        assert_eq!(
            gaml.measured_energy.to_bits(),
            direct.measured_energy.to_bits()
        );
        assert_eq!(gaml.evaluations, direct.evaluations);
        assert_eq!(gaml.trace.records(), direct.trace.records());
        assert_eq!(gaml.stats, direct.stats);

        // the Fig.-9-shaped series surfaces the row next to SAM/SAML
        let series = study.case_series("cat").unwrap();
        assert_eq!(series.gaml, vec![gaml.measured_energy]);
        assert_eq!(series.saml.len(), series.gaml.len());
    }

    #[test]
    fn paper_iteration_budgets_match_the_tables() {
        assert_eq!(
            paper_iteration_budgets(),
            vec![250, 500, 750, 1000, 1250, 1500, 1750, 2000]
        );
    }
}
