//! `paper-study`: the reproduction's unit of truth, the same work as
//! `repro all` at paper scale.  One operation is `TrainingCampaign::paper().run`
//! on `emil_with_seed(seed)` followed by `ConvergenceStudy::run` over the four
//! genomes and the eight paper budgets with three repeats.
//!
//! The traced variant composes the same study from public entry points so each
//! layer can be timed from outside: the campaign's datasets (simulator), the
//! boosted-tree fits, and every method run through `MethodRunner::run_observed`
//! into a `wd_obs::Registry`.  Its outputs must equal the untraced study's.

use std::time::Instant;

use dna_analysis::Genome;
use hetero_autotune::experiments::paper_iteration_budgets;
use hetero_autotune::{
    AccuracyReport, ConfigurationSpace, ConvergenceStudy, MeasurementEvaluator, MethodKind,
    MethodOutcome, MethodRunner, SystemConfiguration, TrainedModels, TrainingCampaign,
};
use hetero_platform::HeterogeneousPlatform;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use wd_ml::{BoostedTreesRegressor, BoostingParams, Dataset, Regressor};
use wd_obs::{MetricsSnapshot, Registry};
use wd_opt::ParallelEnumeration;

use crate::util::{hit_ratio, median, overhead_pct, peak_rss_mb, percentile, Report};
use crate::{DEFAULT_SEED, HELD_OUT_SEED};

/// Expected study digests, one per seed they were recorded at.
const DIGESTS: [(u64, &str); 2] = [
    (
        DEFAULT_SEED,
        include_str!("../expected/paper-study-1164798316.txt"),
    ),
    (
        HELD_OUT_SEED,
        include_str!("../expected/paper-study-20161021.txt"),
    ),
];

/// The SAML budget whose Table VI average row is reported as `saml_gap_pct`.
const GAP_BUDGET: usize = 1000;
/// Annealing repeats per budget (the `ConvergenceStudy::run` default).
const REPEATS: usize = 3;
const SETUP_REPEATS: usize = 15;
/// Studies timed per run at least, whatever `--seconds` says.
const MIN_STUDIES: usize = 3;
/// Untraced and traced studies of a `--trace 1` run (each, alternating).
const TRACED_STUDIES: usize = 5;

/// What the checks compare for one genome: the EM and EML suggestions with
/// their energies, and the measured energy of the median SAML run per budget.
#[derive(Debug, PartialEq)]
struct CaseSummary {
    label: String,
    em_config: SystemConfiguration,
    em_search: f64,
    em_measured: f64,
    eml_config: SystemConfiguration,
    eml_search: f64,
    eml_measured: f64,
    saml_measured: Vec<f64>,
}

impl CaseSummary {
    fn new(
        label: &str,
        em: &MethodOutcome,
        eml: &MethodOutcome,
        saml: impl Iterator<Item = f64>,
    ) -> Self {
        CaseSummary {
            label: label.to_string(),
            em_config: em.best_config.clone(),
            em_search: em.search_energy,
            em_measured: em.measured_energy,
            eml_config: eml.best_config.clone(),
            eml_search: eml.search_energy,
            eml_measured: eml.measured_energy,
            saml_measured: saml.collect(),
        }
    }
}

#[derive(Debug, PartialEq)]
struct StudySummary {
    budgets: Vec<usize>,
    cases: Vec<CaseSummary>,
}

impl StudySummary {
    fn from_study(study: &ConvergenceStudy) -> Self {
        StudySummary {
            budgets: study.budgets.clone(),
            cases: study
                .cases
                .iter()
                .map(|case| {
                    CaseSummary::new(
                        &case.label,
                        &case.em,
                        &case.eml,
                        case.saml.iter().map(|(_, o)| o.measured_energy),
                    )
                })
                .collect(),
        }
    }

    /// Table VI's average row, summed in case order exactly as
    /// `ConvergenceStudy::percent_difference_rows` does.
    fn table6(&self) -> Vec<f64> {
        let rows = self.cases.len() as f64;
        (0..self.budgets.len())
            .map(|column| {
                self.cases
                    .iter()
                    .map(|case| {
                        100.0 * (case.saml_measured[column] - case.em_measured).abs()
                            / case.em_measured
                    })
                    .sum::<f64>()
                    / rows
            })
            .collect()
    }

    fn saml_gap_pct(&self) -> f64 {
        let column = self.budgets.iter().position(|&b| b == GAP_BUDGET);
        column.map_or(0.0, |c| self.table6()[c])
    }

    /// One line per genome plus the Table VI row, energies as IEEE-754 bits.
    fn digest(&self) -> String {
        let mut lines: Vec<String> = self
            .cases
            .iter()
            .map(|case| {
                format!(
                    "{} em {:?} {:016x} {:016x} eml {:?} {:016x} {:016x}",
                    case.label,
                    case.em_config,
                    case.em_search.to_bits(),
                    case.em_measured.to_bits(),
                    case.eml_config,
                    case.eml_search.to_bits(),
                    case.eml_measured.to_bits()
                )
            })
            .collect();
        let row: Vec<String> = self
            .table6()
            .iter()
            .map(|v| format!("{:016x}", v.to_bits()))
            .collect();
        lines.push(format!("table6 {}", row.join(" ")));
        lines.join("\n") + "\n"
    }
}

/// The untraced operation: exactly what `repro all` runs.
fn study(platform: &HeterogeneousPlatform, seed: u64) -> (StudySummary, Vec<f64>) {
    let models = TrainingCampaign::paper().run(platform, BoostingParams::default());
    let study = ConvergenceStudy::run(
        platform,
        &models,
        &Genome::ALL,
        &paper_iteration_budgets(),
        seed,
    );
    let average = study
        .percent_difference_rows()
        .pop()
        .map(|(_, row)| row)
        .unwrap_or_default();
    (StudySummary::from_study(&study), average)
}

/// The digest of the untraced study at `seed`, for recording expected files.
pub fn digest(seed: u64) -> String {
    study(&HeterogeneousPlatform::emil_with_seed(seed), seed)
        .0
        .digest()
}

/// The EM optimum of every genome by a direct `ParallelEnumeration` over a
/// `MeasurementEvaluator`, bypassing `MethodRunner` and its cache.
fn reference_optima(platform: &HeterogeneousPlatform) -> Vec<(SystemConfiguration, f64)> {
    let grid = ConfigurationSpace::enumeration_grid();
    Genome::ALL
        .iter()
        .map(|genome| {
            let measurement = MeasurementEvaluator::new(platform.clone(), genome.workload());
            let outcome = ParallelEnumeration::new().run(&grid, &measurement);
            (outcome.best_config, outcome.best_energy)
        })
        .collect()
}

/// Time spent in the training layers of one composed campaign.
#[derive(Debug, Default)]
pub struct TrainingLayers {
    pub measure_s: f64,
    pub measure_calls: usize,
    pub fit_s: f64,
    pub fit_rows: usize,
}

/// `TrainingCampaign::run` composed from its public pieces: the simulated
/// datasets, then one boosted-tree fit per side on the training half chosen by
/// the campaign's seeded split.  The models equal the campaign's own.
pub fn traced_training(
    platform: &HeterogeneousPlatform,
    campaign: &TrainingCampaign,
) -> Result<(TrainedModels, TrainingLayers), String> {
    let mut layers = TrainingLayers::default();
    let started = Instant::now();
    let host = campaign.host_dataset(platform);
    let devices: Vec<Dataset> = (0..campaign.device_axes.len())
        .map(|index| campaign.device_dataset(platform, index))
        .collect();
    layers.measure_s = started.elapsed().as_secs_f64();
    layers.measure_calls = host.len() + devices.iter().map(Dataset::len).sum::<usize>();

    let mut fit = |data: &Dataset| -> Result<BoostedTreesRegressor, String> {
        let train = training_half(campaign, data)?;
        let started = Instant::now();
        let mut model = BoostedTreesRegressor::new(BoostingParams::default());
        model.fit(&train).map_err(|e| format!("fit: {e:?}"))?;
        layers.fit_s += started.elapsed().as_secs_f64();
        layers.fit_rows += train.len();
        Ok(model)
    };
    let host_model = fit(&host)?;
    let device_models = devices
        .iter()
        .map(&mut fit)
        .collect::<Result<Vec<_>, _>>()?;
    let models = TrainedModels {
        host_model,
        device_accuracies: vec![AccuracyReport::default(); device_models.len()],
        device_models,
        host_accuracy: AccuracyReport::default(),
        host_experiments: host.len(),
        device_experiments: devices.iter().map(Dataset::len).sum(),
    };
    Ok((models, layers))
}

/// The campaign's train/evaluation split: a seeded shuffle of the row order,
/// the first `evaluation_fraction` of it held out.
fn training_half(campaign: &TrainingCampaign, data: &Dataset) -> Result<Dataset, String> {
    let rows = data.len();
    if rows == 0 {
        return Err("the campaign produced no experiments".to_string());
    }
    let mut order: Vec<usize> = (0..rows).collect();
    order.shuffle(&mut StdRng::seed_from_u64(campaign.split_seed));
    let eval_len = ((rows as f64) * campaign.evaluation_fraction.clamp(0.0, 0.9)).round() as usize;
    let width = data.n_features();
    let mut train = Dataset::new(data.feature_names().to_vec());
    for &row in &order[eval_len.min(rows - 1)..] {
        let features = data.feature_matrix()[row * width..(row + 1) * width].to_vec();
        train
            .push(features, data.targets()[row])
            .map_err(|e| format!("training row: {e:?}"))?;
    }
    Ok(train)
}

/// FNV-1a of the case label: the per-case seed salt of `ConvergenceStudy`.
fn label_seed(label: &str) -> u64 {
    label.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One genome of the study, every method run observed into `registry`.
fn observed_case(
    platform: &HeterogeneousPlatform,
    models: &TrainedModels,
    genome: Genome,
    seed: u64,
    budgets: &[usize],
    registry: &Registry,
    evaluations: &mut usize,
) -> Result<CaseSummary, String> {
    let workload = genome.workload();
    let case_seed = seed ^ label_seed(genome.name());
    let run = |method: MethodKind, budget: usize, run_seed: u64| {
        MethodRunner::new(platform, &workload, Some(models), run_seed)
            .run_observed(method, budget, registry)
    };
    let em = run(MethodKind::Em, 0, case_seed)?;
    let eml = run(MethodKind::Eml, 0, case_seed)?;
    *evaluations += em.evaluations + eml.evaluations;
    let mut saml = Vec::with_capacity(budgets.len());
    for method in [MethodKind::Sam, MethodKind::Saml, MethodKind::Gaml] {
        for &budget in budgets {
            let mut outcomes = (0..REPEATS)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|repeat| {
                    run(
                        method,
                        budget,
                        case_seed ^ (repeat as u64).wrapping_mul(0xA076_1D64_78BD_642F),
                    )
                })
                .collect::<Vec<_>>()
                .into_iter()
                .collect::<Result<Vec<MethodOutcome>, String>>()?;
            *evaluations += outcomes.iter().map(|o| o.evaluations).sum::<usize>();
            outcomes.sort_by(|a, b| a.measured_energy.total_cmp(&b.measured_energy));
            let chosen = outcomes.swap_remove(outcomes.len() / 2);
            if method == MethodKind::Saml {
                saml.push(chosen.measured_energy);
            }
        }
    }
    Ok(CaseSummary::new(genome.name(), &em, &eml, saml.into_iter()))
}

/// Per-layer totals of one traced study.
struct StudyLayers {
    training: TrainingLayers,
    evaluations: usize,
    snapshot: MetricsSnapshot,
}

fn traced_study(
    platform: &HeterogeneousPlatform,
    seed: u64,
) -> Result<(StudySummary, StudyLayers), String> {
    let budgets = paper_iteration_budgets();
    let (models, training) = traced_training(platform, &TrainingCampaign::paper())?;
    let registry = Registry::new();
    let mut evaluations = 0;
    let cases = Genome::ALL
        .iter()
        .map(|&genome| {
            observed_case(
                platform,
                &models,
                genome,
                seed,
                &budgets,
                &registry,
                &mut evaluations,
            )
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((
        StudySummary { budgets, cases },
        StudyLayers {
            training,
            evaluations,
            snapshot: registry.snapshot(),
        },
    ))
}

/// Checks every study against the first one of the run (determinism), and
/// the first against the direct EM references and, at a recorded seed, the
/// expected digest.
struct Checker {
    seed: u64,
    references: Vec<(SystemConfiguration, f64)>,
    first: Option<StudySummary>,
}

impl Checker {
    fn check(&mut self, report: &mut Report, summary: StudySummary) {
        if let Some(first) = &self.first {
            report.check(&summary == first, || {
                "paper-study: a repeated study differs from the first".to_string()
            });
            return;
        }
        for (case, (config, energy)) in summary.cases.iter().zip(&self.references) {
            report.check(
                case.em_config == *config && case.em_search.to_bits() == energy.to_bits(),
                || {
                    format!(
                        "paper-study: EM for {} differs from direct enumeration",
                        case.label
                    )
                },
            );
        }
        if let Some((_, expected)) = DIGESTS.iter().find(|(seed, _)| *seed == self.seed) {
            report.check(summary.digest() == *expected, || {
                format!(
                    "paper-study: digest differs from the recorded one at seed {}",
                    self.seed
                )
            });
        }
        self.first = Some(summary);
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut fixture = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let platform = HeterogeneousPlatform::emil_with_seed(seed);
        let references = reference_optima(&platform);
        setup.push(started.elapsed().as_secs_f64());
        fixture = Some((platform, references));
    }
    let Some((platform, references)) = fixture else {
        return report;
    };
    let mut checker = Checker {
        seed,
        references,
        first: None,
    };

    let mut times = Vec::new();
    let mut traced_times = Vec::new();
    let mut traced_layers = Vec::new();
    let mut gap = 0.0;
    let loop_started = Instant::now();
    loop {
        let done = if trace {
            times.len() >= TRACED_STUDIES
        } else {
            times.len() >= MIN_STUDIES && loop_started.elapsed().as_secs_f64() >= seconds
        };
        if done {
            break;
        }
        report.attempted += 1;
        let started = Instant::now();
        let (summary, average) = study(&platform, seed);
        times.push(started.elapsed().as_secs_f64());
        report.check(
            summary
                .table6()
                .iter()
                .map(|v| v.to_bits())
                .eq(average.iter().map(|v| v.to_bits())),
            || "paper-study: Table VI row differs from percent_difference_rows".to_string(),
        );
        gap = summary.saml_gap_pct();
        checker.check(&mut report, summary);

        // traced runs alternate with untraced ones, so drift hits both alike
        if trace {
            report.attempted += 1;
            let started = Instant::now();
            match traced_study(&platform, seed) {
                Ok((summary, layers)) => {
                    traced_times.push(started.elapsed().as_secs_f64());
                    checker.check(&mut report, summary);
                    traced_layers.push(layers);
                }
                Err(err) => report.check(false, || format!("paper-study traced: {err}")),
            }
        }
    }
    let loop_s = loop_started.elapsed().as_secs_f64();

    report.detail("study_s", median(&times), "s");
    report.detail("saml_gap_pct", gap, "%");
    report.detail("error_rate", report.error_rate(), "ratio");
    if trace {
        publish_layers(&mut report, &traced_layers);
        report.layer("quality.saml_gap_pct", gap);
        report.layer(
            "obs.trace_overhead_pct",
            overhead_pct(median(&traced_times), median(&times)),
        );
    } else {
        report.metric("setup_s", median(&setup), "s");
        report.metric("op_p50_ms", 1e3 * median(&times), "ms");
        report.metric("op_p90_ms", 1e3 * percentile(&times, 90.0), "ms");
        report.metric("ops_per_s", times.len() as f64 / loop_s, "1/s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    report
}

/// Per-study means of the traced layers.
fn publish_layers(report: &mut Report, studies: &[StudyLayers]) {
    if studies.is_empty() {
        return;
    }
    let n = studies.len() as f64;
    let mean = |f: &dyn Fn(&StudyLayers) -> f64| studies.iter().map(f).sum::<f64>() / n;
    let counter =
        |s: &StudyLayers, name: &str| s.snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    let span = |s: &StudyLayers, name: &str| {
        s.snapshot
            .spans
            .get(name)
            .map_or(0.0, |span| span.total_seconds)
    };

    // simulator: the campaign's experiments, every distinct EM/SAM
    // measurement, and the final re-measurement of each method run
    report.layer(
        "platform.measure_calls",
        mean(&|s| {
            let runs: u64 = s.snapshot.spans.values().map(|span| span.count).sum();
            s.training.measure_calls as f64
                + counter(s, "em.cache.misses")
                + counter(s, "sam.cache.misses")
                + runs as f64
        }),
    );
    report.layer("platform.measure_s", mean(&|s| s.training.measure_s));
    report.layer("ml.fit_s", mean(&|s| s.training.fit_s));
    report.layer("ml.fit_rows", mean(&|s| s.training.fit_rows as f64));

    for method in ["em", "eml", "sam", "saml", "gaml"] {
        report.layer(
            format!("methods.{method}.run_s"),
            mean(&|s| span(s, &format!("{method}.run"))),
        );
        let experiments = if method == "saml" || method == "gaml" {
            format!("{method}.lazy.model_walks")
        } else {
            format!("{method}.cache.misses")
        };
        report.layer(
            format!("methods.{method}.experiments"),
            mean(&|s| counter(s, &experiments)),
        );
    }

    let probes = mean(&|s| counter(s, "saml.lazy.probes") + counter(s, "gaml.lazy.probes"));
    let walks =
        mean(&|s| counter(s, "saml.lazy.model_walks") + counter(s, "gaml.lazy.model_walks"));
    report.layer("evaluator.lazy_probes", probes);
    report.layer("evaluator.lazy_model_queries", walks);
    report.layer(
        "evaluator.lazy_hit_ratio",
        hit_ratio(probes - walks, probes),
    );
    report.layer("ml.predict_rows", walks);

    let hits = mean(&|s| {
        ["em", "eml", "sam"]
            .iter()
            .map(|m| counter(s, &format!("{m}.cache.hits")))
            .sum()
    });
    let misses = mean(&|s| {
        ["em", "eml", "sam"]
            .iter()
            .map(|m| counter(s, &format!("{m}.cache.misses")))
            .sum()
    });
    report.layer("opt.cache_hit_ratio", hit_ratio(hits, hits + misses));
    report.layer("opt.evaluations", mean(&|s| s.evaluations as f64));
    let (accepted, iterations) = studies
        .iter()
        .flat_map(|s| s.snapshot.iterations.values())
        .fold((0u64, 0u64), |(a, n), it| (a + it.accepted, n + it.count));
    report.layer(
        "opt.accept_ratio",
        hit_ratio(accepted as f64, iterations as f64),
    );
}
