//! The four optimization methods of the paper (Table II): EM, EML, SAM and SAML.

use std::borrow::Cow;
use std::fmt;
use std::sync::OnceLock;
use std::time::Instant;

use hetero_platform::{ExecutionStats, HeterogeneousPlatform, WorkloadProfile};
use wd_obs::{FieldValue, NoopRecorder, Recorder};
use wd_opt::{
    CacheStats, CachedObjective, GeneticAlgorithm, Outcome, ParallelEnumeration, SimulatedAnnealing,
};

use crate::config::{ConfigurationSpace, SystemConfiguration};
use crate::evaluator::MeasurementEvaluator;
use crate::training::TrainedModels;

/// One of the paper's optimization methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Enumeration + Measurements: exhaustive, optimal, very expensive.
    Em,
    /// Enumeration + Machine Learning: exhaustive over predicted times.
    Eml,
    /// Simulated Annealing + Measurements.
    Sam,
    /// Simulated Annealing + Machine Learning: the paper's proposal.
    Saml,
    /// Genetic Algorithm + Machine Learning: an extension beyond the paper's Table II,
    /// running the GA's incremental (delta) recombination path over the same lazy
    /// per-device prediction tables as SAML.
    Gaml,
}

impl MethodKind {
    /// All four methods in the paper's order.  [`MethodKind::Gaml`] is deliberately
    /// not listed: it is this crate's extension, not part of Table II.
    pub const ALL: [MethodKind; 4] = [
        MethodKind::Em,
        MethodKind::Eml,
        MethodKind::Sam,
        MethodKind::Saml,
    ];

    /// Short name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::Em => "EM",
            MethodKind::Eml => "EML",
            MethodKind::Sam => "SAM",
            MethodKind::Saml => "SAML",
            MethodKind::Gaml => "GAML",
        }
    }

    /// Does this method explore the space exhaustively?
    pub fn uses_enumeration(&self) -> bool {
        matches!(self, MethodKind::Em | MethodKind::Eml)
    }

    /// Does this method evaluate configurations with the ML models?
    pub fn uses_prediction(&self) -> bool {
        matches!(self, MethodKind::Eml | MethodKind::Saml | MethodKind::Gaml)
    }

    /// The qualitative properties listed in the paper's Table II.
    pub fn properties(&self) -> MethodProperties {
        match self {
            MethodKind::Em => MethodProperties {
                space_exploration: "Enumeration",
                evaluation: "Measurements",
                effort: "high",
                accuracy: "optimal",
                prediction: false,
            },
            MethodKind::Eml => MethodProperties {
                space_exploration: "Enumeration",
                evaluation: "Machine Learning",
                effort: "high",
                accuracy: "near-optimal",
                prediction: true,
            },
            MethodKind::Sam => MethodProperties {
                space_exploration: "Simulated Annealing",
                evaluation: "Measurements",
                effort: "medium",
                accuracy: "near-optimal",
                prediction: false,
            },
            MethodKind::Saml => MethodProperties {
                space_exploration: "Simulated Annealing",
                evaluation: "Machine Learning",
                effort: "medium",
                accuracy: "near-optimal",
                prediction: true,
            },
            MethodKind::Gaml => MethodProperties {
                space_exploration: "Genetic Algorithm",
                evaluation: "Machine Learning",
                effort: "medium",
                accuracy: "near-optimal",
                prediction: true,
            },
        }
    }
}

impl fmt::Display for MethodKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Qualitative properties of a method (the paper's Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodProperties {
    /// How the configuration space is explored.
    pub space_exploration: &'static str,
    /// How proposed configurations are evaluated.
    pub evaluation: &'static str,
    /// Qualitative optimization effort.
    pub effort: &'static str,
    /// Qualitative solution accuracy.
    pub accuracy: &'static str,
    /// Whether the method can predict the performance of unseen configurations.
    pub prediction: bool,
}

/// Result of running one method on one workload.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// The method that produced this outcome.
    pub method: MethodKind,
    /// The best configuration the method suggests.
    pub best_config: SystemConfiguration,
    /// Energy of the suggested configuration according to the evaluator used during the
    /// search (predicted times for EML/SAML, measured times for EM/SAM).
    pub search_energy: f64,
    /// Energy of the suggested configuration re-measured on the platform — the paper
    /// compares methods on measured values "for fair comparison".
    pub measured_energy: f64,
    /// Number of configuration evaluations *requested* during the search.
    pub evaluations: usize,
    /// Hit/miss counters of the method's evaluation path.  `misses` is the real
    /// evaluation cost (not `evaluations`, the request count); the granularity
    /// depends on the method's fast path:
    ///
    /// * EM/EML enumerate uncached — a grid point is never visited twice — so the
    ///   counters are `{hits: 0, misses: evaluations}`: every grid point is one of
    ///   the paper's "experiments";
    /// * SAM, the only method that memoizes whole configurations
    ///   ([`wd_opt::CachedObjective`]): `misses` is the number of distinct
    ///   configurations evaluated;
    /// * SAML/GAML memoize per-device table entries
    ///   ([`crate::LazyTabulatedPredictionEvaluator::stats`]): `misses` is the number
    ///   of boosted-tree model walks, `hits` every per-device probe answered without
    ///   one.
    pub cache: CacheStats,
    /// Execution breakdown of the final re-measurement behind
    /// [`MethodOutcome::measured_energy`] — bytes, threads, rates and the
    /// transfer/launch/compute split of running the suggested configuration on the
    /// platform.
    pub stats: ExecutionStats,
    /// Per-iteration trace (empty for enumeration).
    pub trace: wd_opt::OptimizationTrace,
}

impl MethodOutcome {
    /// The method's real evaluation cost (cache misses): distinct configurations
    /// scored for EM/EML/SAM, boosted-tree model walks for SAML/GAML (see
    /// [`MethodOutcome::cache`]).
    pub fn experiments(&self) -> usize {
        self.cache.misses
    }
}

/// Runs the paper's methods on one workload.
pub struct MethodRunner<'a> {
    platform: &'a HeterogeneousPlatform,
    workload: &'a WorkloadProfile,
    space: Cow<'a, ConfigurationSpace>,
    grid: Cow<'a, ConfigurationSpace>,
    models: Option<&'a TrainedModels>,
    seed: u64,
}

/// The paper's search space and enumeration grid, built once per process: every
/// runner borrows them, so a request neither rebuilds them nor their split-move
/// index.
fn paper_spaces() -> &'static (ConfigurationSpace, ConfigurationSpace) {
    static SPACES: OnceLock<(ConfigurationSpace, ConfigurationSpace)> = OnceLock::new();
    SPACES.get_or_init(|| {
        (
            ConfigurationSpace::paper(),
            ConfigurationSpace::enumeration_grid(),
        )
    })
}

impl<'a> MethodRunner<'a> {
    /// Create a runner with the paper's search space and enumeration grid.
    ///
    /// `models` may be `None` if only the measurement-based methods (EM, SAM) are used.
    pub fn new(
        platform: &'a HeterogeneousPlatform,
        workload: &'a WorkloadProfile,
        models: Option<&'a TrainedModels>,
        seed: u64,
    ) -> Self {
        let (space, grid) = paper_spaces();
        MethodRunner {
            platform,
            workload,
            space: Cow::Borrowed(space),
            grid: Cow::Borrowed(grid),
            models,
            seed,
        }
    }

    /// Replace the simulated-annealing search space.
    pub fn with_space(mut self, space: ConfigurationSpace) -> Self {
        self.space = Cow::Owned(space);
        self
    }

    /// Replace the enumeration grid.
    pub fn with_grid(mut self, grid: ConfigurationSpace) -> Self {
        self.grid = Cow::Owned(grid);
        self
    }

    /// The enumeration grid used by EM/EML.
    pub fn grid(&self) -> &ConfigurationSpace {
        &self.grid
    }

    /// Run `method`.  `iterations` is the simulated-annealing budget and is ignored by
    /// the enumeration-based methods.
    ///
    /// Every method evaluates through the unified layer, each on its fast path:
    ///
    /// * EM enumerates the grid uncached through the batched [`ParallelEnumeration`]
    ///   path, which reaches the simulator's parallel `execute_many`;
    /// * EML scans the grid by index over per-device time tables it fills in
    ///   batches first ([`crate::LazyTabulatedPredictionEvaluator::scan`]), also
    ///   uncached: no configuration is built per grid point;
    /// * SAM (measurement) runs behind a [`CachedObjective`], the only
    ///   whole-configuration cache, because annealing revisits configurations;
    /// * SAML runs the annealer's incremental path
    ///   ([`wd_opt::SimulatedAnnealing::run_delta`]) over the same tables filled on
    ///   first touch ([`crate::LazyTabulatedPredictionEvaluator`]): each move re-scores only the
    ///   device it touched, and each distinct `(threads, affinity, share)` triple
    ///   queries the boosted-tree model exactly once — bit-identical to annealing over
    ///   the direct prediction evaluator; GAML runs the genetic search's delta path
    ///   over the same lazy tables.
    ///
    /// The resulting hit/miss counters are surfaced on the [`MethodOutcome`]; note
    /// their granularity differs per path (see [`MethodOutcome::cache`]).
    ///
    /// Returns an error message if a prediction-based method is requested without
    /// trained models or with a grid (EML) or space (SAML, GAML) that describes more
    /// accelerators than the models cover, or if the enumeration grid is empty.
    pub fn run(&self, method: MethodKind, iterations: usize) -> Result<MethodOutcome, String> {
        self.run_observed(method, iterations, &NoopRecorder)
    }

    /// [`MethodRunner::run`] with the run's telemetry published to `recorder`: per
    /// iteration events from the annealing/genetic walks (scoped by the lowercase
    /// method name), the cache/table counters of the evaluation fast path, the
    /// [`ExecutionStats`] of the final re-measurement, and one `{method}.run` span
    /// carrying wall-clock seconds, iterations, evaluations and energies.
    ///
    /// The recorder only observes: counters are read post-hoc from the same atomics
    /// the unobserved path maintains (for the uncached EM/EML, from the outcome's
    /// evaluation count), and iteration events are emitted strictly after
    /// each trace record, so outcomes are bit-identical to [`MethodRunner::run`].
    pub fn run_observed(
        &self,
        method: MethodKind,
        iterations: usize,
        recorder: &dyn Recorder,
    ) -> Result<MethodOutcome, String> {
        let started = Instant::now();
        let scope = method.name().to_ascii_lowercase();
        let measurement = MeasurementEvaluator::new(self.platform.clone(), self.workload.clone());
        let (outcome, cache) = match method {
            MethodKind::Em | MethodKind::Eml => {
                // Enumeration never revisits a configuration, so it runs uncached and
                // every evaluation is a distinct experiment.
                let outcome = if method == MethodKind::Em {
                    ParallelEnumeration::new().try_run(&*self.grid, &measurement)
                } else {
                    // EML fast path: the energy is separable per device, so the grid
                    // is scored by index from precomputed per-device time tables
                    // (Σ axis sizes model queries instead of |grid| × (N + 1)) —
                    // bit-identical to enumerating through the direct prediction
                    // evaluator.
                    let models = self.require_models(method, &self.grid)?;
                    let prediction = models.prediction_evaluator(self.workload.clone());
                    prediction
                        .lazy_tabulated()
                        .scan(&self.grid)
                        .map(|indexed| indexed.outcome)
                }
                .map_err(|error| format!("{method}: {error}"))?;
                let cache = CacheStats {
                    hits: 0,
                    misses: outcome.evaluations,
                };
                if recorder.enabled() {
                    recorder.counter(&format!("{scope}.cache.hits"), 0);
                    recorder.counter(&format!("{scope}.cache.misses"), cache.misses as u64);
                }
                (outcome, cache)
            }
            MethodKind::Sam => {
                let cached = CachedObjective::new(&measurement);
                let outcome =
                    self.annealer(iterations)
                        .run_observed(&*self.space, &cached, recorder, &scope);
                cached.publish_stats(recorder, &scope);
                (outcome, cached.stats())
            }
            MethodKind::Saml | MethodKind::Gaml => {
                // SAML/GAML fast path: lazy per-device tables + incremental (delta)
                // re-scoring of each neighbour move (SAML) or each recombination's
                // two-parent merge footprint (GAML).  Bit-identical to the classic
                // direct walk: same RNG stream, same accepted moves, same energies —
                // only the model cost drops.
                let models = self.require_models(method, &self.space)?;
                let prediction = models.prediction_evaluator(self.workload.clone());
                let lazy = prediction.lazy_tabulated();
                let outcome = if method == MethodKind::Gaml {
                    self.genetic(iterations).run_delta_observed(
                        &*self.space,
                        &lazy,
                        recorder,
                        &scope,
                    )
                } else {
                    self.annealer(iterations).run_delta_observed(
                        &*self.space,
                        &lazy,
                        recorder,
                        &scope,
                    )
                };
                lazy.publish_stats(recorder, &scope);
                (outcome, lazy.stats())
            }
        };
        Ok(self.finish(
            method,
            outcome,
            cache,
            &measurement,
            recorder,
            &scope,
            started,
        ))
    }

    fn genetic(&self, iterations: usize) -> GeneticAlgorithm {
        // same per-budget seed mixing as `annealer`: each budget is an independent run
        let seed = self.seed ^ (iterations as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        GeneticAlgorithm::with_budget(iterations.max(8), seed)
    }

    fn annealer(&self, iterations: usize) -> SimulatedAnnealing {
        // Mixing the iteration budget into the seed mirrors the paper's procedure of
        // "adjusting the cooling function" per budget: each budget is an independent
        // annealing run, not a prefix of one long run.  The temperature range is scaled
        // to the energy differences of this domain (execution times in seconds differ by
        // hundredths of a second between neighbouring configurations).
        let seed = self.seed ^ (iterations as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        SimulatedAnnealing::with_budget_and_range(iterations.max(8), 2.0, 0.02, seed)
    }

    /// The trained models `method` predicts with over `space`, which must describe no
    /// more accelerators than there are device models.
    fn require_models(
        &self,
        method: MethodKind,
        space: &ConfigurationSpace,
    ) -> Result<&TrainedModels, String> {
        let models = self.models.ok_or_else(|| {
            format!("{method} requires trained prediction models; run the training campaign first")
        })?;
        if space.accelerator_count() > models.device_models.len() {
            return Err(format!(
                "{method}: the configuration space describes {} accelerators but only {} device models are trained",
                space.accelerator_count(),
                models.device_models.len()
            ));
        }
        Ok(models)
    }

    #[allow(clippy::too_many_arguments)] // internal plumbing shared by run/run_observed
    fn finish(
        &self,
        method: MethodKind,
        outcome: Outcome<SystemConfiguration>,
        cache: CacheStats,
        measurement: &MeasurementEvaluator,
        recorder: &dyn Recorder,
        scope: &str,
        started: Instant,
    ) -> MethodOutcome {
        let measured = measurement.measure(&outcome.best_config);
        let measured_energy = measured.t_host.max(measured.t_device);
        if recorder.enabled() {
            measured.stats.publish(recorder, scope);
            recorder.span(
                &format!("{scope}.run"),
                started.elapsed().as_secs_f64(),
                &[
                    ("iterations", FieldValue::U64(outcome.trace.len() as u64)),
                    ("evaluations", FieldValue::U64(outcome.evaluations as u64)),
                    ("cache_hits", FieldValue::U64(cache.hits as u64)),
                    ("cache_misses", FieldValue::U64(cache.misses as u64)),
                    ("search_energy", FieldValue::F64(outcome.best_energy)),
                    ("measured_energy", FieldValue::F64(measured_energy)),
                ],
            );
        }
        MethodOutcome {
            method,
            best_config: outcome.best_config,
            search_energy: outcome.best_energy,
            measured_energy,
            evaluations: outcome.evaluations,
            cache,
            stats: measured.stats,
            trace: outcome.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_analysis::Genome;
    use wd_ml::BoostingParams;

    use crate::training::TrainingCampaign;

    fn platform() -> HeterogeneousPlatform {
        HeterogeneousPlatform::emil()
    }

    #[test]
    fn table_ii_properties() {
        assert_eq!(MethodKind::ALL.len(), 4);
        assert_eq!(MethodKind::Em.properties().accuracy, "optimal");
        assert!(!MethodKind::Em.properties().prediction);
        assert!(MethodKind::Eml.properties().prediction);
        assert_eq!(MethodKind::Sam.properties().effort, "medium");
        assert_eq!(
            MethodKind::Saml.properties().space_exploration,
            "Simulated Annealing"
        );
        assert!(MethodKind::Saml.uses_prediction() && !MethodKind::Saml.uses_enumeration());
        assert!(MethodKind::Em.uses_enumeration() && !MethodKind::Em.uses_prediction());
        assert_eq!(MethodKind::Saml.to_string(), "SAML");
        // GAML is this crate's extension: prediction-backed, non-enumerating, and
        // deliberately absent from the paper's Table II listing
        assert!(!MethodKind::ALL.contains(&MethodKind::Gaml));
        assert!(MethodKind::Gaml.uses_prediction() && !MethodKind::Gaml.uses_enumeration());
        assert_eq!(
            MethodKind::Gaml.properties().space_exploration,
            "Genetic Algorithm"
        );
        assert_eq!(MethodKind::Gaml.to_string(), "GAML");
    }

    #[test]
    fn prediction_methods_require_models() {
        let platform = platform();
        let workload = Genome::Cat.workload();
        let runner = MethodRunner::new(&platform, &workload, None, 1);
        assert!(runner.run(MethodKind::Saml, 50).is_err());
        assert!(runner.run(MethodKind::Eml, 50).is_err());
        assert!(runner.run(MethodKind::Sam, 50).is_ok());
    }

    #[test]
    fn prediction_methods_reject_spaces_wider_than_the_models() {
        let platform = platform();
        let workload = Genome::Cat.workload();
        let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());
        assert_eq!(models.device_models.len(), 1);
        let runner = MethodRunner::new(&platform, &workload, Some(&models), 1)
            .with_grid(ConfigurationSpace::tiny_multi())
            .with_space(ConfigurationSpace::tiny_multi());
        for method in [MethodKind::Eml, MethodKind::Saml, MethodKind::Gaml] {
            let error = runner.run(method, 50).unwrap_err();
            assert!(error.contains("2 accelerators"), "{method}: {error}");
        }
    }

    #[test]
    fn sam_with_a_small_grid_finds_a_good_configuration() {
        let platform = platform();
        let workload = Genome::Human.workload();
        let runner = MethodRunner::new(&platform, &workload, None, 7)
            .with_grid(ConfigurationSpace::tiny())
            .with_space(ConfigurationSpace::tiny());

        let em = runner.run(MethodKind::Em, 0).unwrap();
        let sam = runner.run(MethodKind::Sam, 300).unwrap();

        assert_eq!(
            em.evaluations as u128,
            ConfigurationSpace::tiny().total_configurations()
        );
        // enumeration never revisits a configuration: it runs uncached, all misses
        assert_eq!(em.cache.hits, 0);
        assert_eq!(em.experiments(), em.evaluations);
        assert!(sam.evaluations < em.evaluations);
        // annealing on a tiny space revisits configurations; the cache absorbs those
        assert!(
            sam.cache.hits > 0,
            "SAM should hit the cache on a tiny space"
        );
        assert_eq!(sam.cache.requests(), sam.evaluations);
        assert!(sam.experiments() <= sam.evaluations);
        // SAM should land within 25 % of the optimum on this tiny space
        assert!(
            sam.measured_energy <= em.measured_energy * 1.25,
            "SAM {} vs EM {}",
            sam.measured_energy,
            em.measured_energy
        );
        // EM's search energy is also its measured energy (same evaluator)
        assert!((em.search_energy - em.measured_energy).abs() < 1e-9);
    }

    #[test]
    fn saml_fast_path_is_bit_identical_to_direct_annealing() {
        use wd_opt::SimulatedAnnealing;

        let platform = platform();
        let workload = Genome::Human.workload();
        let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());
        let space = ConfigurationSpace::tiny();
        let runner = MethodRunner::new(&platform, &workload, Some(&models), 13)
            .with_grid(ConfigurationSpace::tiny())
            .with_space(space.clone());
        let iterations = 200;
        let saml = runner.run(MethodKind::Saml, iterations).unwrap();

        // hand-rolled classic walk: same annealer parameters, full re-evaluation of
        // the direct prediction evaluator on every proposal
        let seed = 13u64 ^ (iterations as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let sa = SimulatedAnnealing::with_budget_and_range(iterations, 2.0, 0.02, seed);
        let prediction = models.prediction_evaluator(workload.clone());
        let reference = sa.run(&space, &prediction);

        assert_eq!(saml.best_config, reference.best_config);
        assert_eq!(
            saml.search_energy.to_bits(),
            reference.best_energy.to_bits()
        );
        assert_eq!(saml.evaluations, reference.evaluations);
        assert_eq!(saml.trace.records(), reference.trace.records());
        // the lazy tables bound the model cost by the distinct axis triples visited
        // (≤ 66 host + 66 device on the tiny space), well below the 2 × evaluations
        // walks of the direct path
        assert!(
            saml.cache.misses < reference.evaluations,
            "lazy SAML walked the models {} times over {} evaluations",
            saml.cache.misses,
            reference.evaluations
        );
    }

    #[test]
    fn gaml_fast_path_is_bit_identical_to_direct_genetic_search() {
        use wd_opt::GeneticAlgorithm;

        let platform = platform();
        let workload = Genome::Human.workload();
        let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());
        let space = ConfigurationSpace::tiny();
        let runner = MethodRunner::new(&platform, &workload, Some(&models), 13)
            .with_grid(ConfigurationSpace::tiny())
            .with_space(space.clone());
        let iterations = 200;
        let gaml = runner.run(MethodKind::Gaml, iterations).unwrap();

        // hand-rolled classic GA: same parameters, full re-evaluation of the direct
        // prediction evaluator on every child
        let seed = 13u64 ^ (iterations as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let ga = GeneticAlgorithm::with_budget(iterations, seed);
        let prediction = models.prediction_evaluator(workload.clone());
        let reference = ga.run(&space, &prediction);

        assert_eq!(gaml.best_config, reference.best_config);
        assert_eq!(
            gaml.search_energy.to_bits(),
            reference.best_energy.to_bits()
        );
        assert_eq!(gaml.evaluations, reference.evaluations);
        assert_eq!(gaml.trace.records(), reference.trace.records());
        // every child re-scored against its first parent's retained per-device times
        // plus lazy-table memoization keeps the model cost well below the
        // (N + 1) × evaluations walks of the direct path
        assert!(
            gaml.cache.misses < reference.evaluations,
            "lazy GAML walked the models {} times over {} evaluations",
            gaml.cache.misses,
            reference.evaluations
        );
    }

    #[test]
    fn saml_uses_far_fewer_evaluations_than_em() {
        let platform = platform();
        let workload = Genome::Human.workload();
        let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());
        let runner = MethodRunner::new(&platform, &workload, Some(&models), 11)
            .with_grid(ConfigurationSpace::tiny());

        let em = runner.run(MethodKind::Em, 0).unwrap();
        let saml = runner.run(MethodKind::Saml, 150).unwrap();

        assert!(saml.evaluations <= 200);
        assert!(em.evaluations >= 100);
        assert!(saml.measured_energy.is_finite() && saml.measured_energy > 0.0);
        // the SAML search energy is a prediction, so it differs from the measured energy,
        // but it should be in the same ballpark (the models are trained on this platform)
        let ratio = saml.search_energy / saml.measured_energy;
        assert!(
            ratio > 0.4 && ratio < 2.5,
            "prediction/measurement ratio {ratio}"
        );
    }
}
