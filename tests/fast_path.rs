//! Acceptance tests for the zero-materialization enumeration + factorized prediction
//! fast path:
//!
//! * property: the factorized [`LazyTabulatedPredictionEvaluator`] is
//!   **bit-identical** to the direct [`PredictionEvaluator`] over randomly sampled
//!   1/2/3-accelerator configuration spaces, and its by-index `scan`, from cold or
//!   partially warm tables, reaches the same winner as enumerating the direct
//!   evaluator (ties to the earliest index, pinned on a plateau) while walking each
//!   table entry's model once;
//! * property: lazy indexed enumeration (`space_len` / `config_at`) visits exactly the
//!   same configurations in the same global order as `enumerate()`;
//! * sharded campaigns over a 3-accelerator space run without ever materialising the
//!   full configuration `Vec` — asserted through the lazy space's instrumentation and
//!   a max-batch-recording objective (peak per-worker materialisation is bounded by
//!   the campaign's chunk size);
//! * EML through the `MethodRunner` (which now takes the fast path internally) is
//!   bit-identical to enumerating the direct prediction evaluator by hand.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workdist::autotune::{
    ConfigurationSpace, DeviceAxis, LazyTabulatedPredictionEvaluator, MethodKind, MethodRunner,
    PredictionEvaluator, TrainingCampaign,
};
use workdist::dist::{MemoryStore, ShardedCampaign};
use workdist::ml::{BoostingParams, Dataset, MlError, Regressor};
use workdist::opt::{
    CachedObjective, InstrumentedSpace, MaterializedOnly, Objective, ParallelEnumeration,
    SearchSpace,
};
use workdist::platform::{Affinity, HeterogeneousPlatform, WorkloadProfile};

/// A deterministic, nonlinear dummy regressor: cheap enough for property tests, wavy
/// enough that a wrong table lookup almost surely produces a different energy.
struct Wavy {
    salt: f64,
}

impl Regressor for Wavy {
    fn fit(&mut self, _data: &Dataset) -> Result<(), MlError> {
        Ok(())
    }
    fn predict_one(&self, features: &[f64]) -> f64 {
        let threads = features[0];
        let gigabytes = features[4];
        (threads * self.salt).sin().abs() * 0.5 + gigabytes * (1.0 + features[1] * 0.125)
            - features[2] * 0.0625
    }
    fn is_fitted(&self) -> bool {
        true
    }
    fn name(&self) -> &'static str {
        "wavy"
    }
}

/// Build a random configuration space with `accelerators` accelerators, small enough
/// to enumerate exhaustively inside a property test.
fn space_from(
    accelerators: usize,
    host_threads: Vec<u32>,
    device_threads: Vec<u32>,
    step_index: usize,
) -> ConfigurationSpace {
    let steps = [
        [100u32, 200, 250], // 1 accelerator: 11 / 6 / 5 splits
        [200, 250, 500],    // 2 accelerators: 21 / 15 / 6 splits
        [250, 500, 500],    // 3 accelerators: 35 / 10 / 10 splits
    ];
    let step = steps[accelerators - 1][step_index % 3];
    ConfigurationSpace::multi_accelerator(
        host_threads,
        vec![Affinity::Scatter, Affinity::Compact],
        (0..accelerators)
            .map(|device| {
                DeviceAxis::new(
                    device_threads.iter().map(|&t| t + device as u32).collect(),
                    vec![Affinity::Balanced],
                )
            })
            .collect(),
        step,
    )
}

fn wavy_evaluator(accelerators: usize, bytes: u64) -> PredictionEvaluator {
    PredictionEvaluator::new(
        Box::new(Wavy { salt: 0.37 }),
        (0..accelerators)
            .map(|device| {
                Box::new(Wavy {
                    salt: 0.11 + device as f64 * 0.07,
                }) as Box<dyn Regressor + Send + Sync>
            })
            .collect(),
        WorkloadProfile::dna_scan("prop", bytes),
    )
    .with_device_overhead(0.03)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Prefilled energies are bit-identical to the direct prediction path over the
    /// whole enumeration of random 1/2/3-accelerator spaces, enumerating the
    /// prefilled tables walks no model, and the by-index scan over partially warm
    /// tables (`warm` random configurations scored first) reports the direct
    /// enumeration's outcome exactly while walking each entry's model once.
    #[test]
    fn tabulated_prediction_is_bit_identical(
        accelerators in 1usize..=3,
        host_threads in proptest::sample::select(vec![vec![2u32, 48], vec![12, 24, 48], vec![4]]),
        device_threads in proptest::sample::select(vec![vec![30u32, 240], vec![60], vec![8, 64, 448]]),
        step_index in 0usize..3,
        bytes in 500_000_000u64..4_000_000_000,
        warm in 0usize..4,
        warm_seed in 0u64..1_000,
    ) {
        let space = space_from(accelerators, host_threads, device_threads, step_index);
        let evaluator = wavy_evaluator(accelerators, bytes);
        let tabulated = evaluator.tabulated(&space);
        let cold_queries = tabulated.model_queries();
        for config in space.enumerate().unwrap() {
            let direct = evaluator.energy(&config);
            let fast = tabulated.energy(&config);
            prop_assert_eq!(direct.to_bits(), fast.to_bits(), "config {}", config);
        }
        prop_assert_eq!(tabulated.model_queries(), cold_queries);

        let tables = LazyTabulatedPredictionEvaluator::new(&evaluator);
        let mut rng = StdRng::seed_from_u64(warm_seed);
        for _ in 0..warm {
            let config = space.random(&mut rng);
            prop_assert_eq!(tables.energy(&config).to_bits(), evaluator.energy(&config).to_bits());
        }
        let scanned = tables.scan(&space).unwrap();
        let reference = ParallelEnumeration::new().run_indexed(&space, &evaluator);
        prop_assert_eq!(scanned.best_index, reference.best_index);
        prop_assert_eq!(&scanned.outcome.best_config, &reference.outcome.best_config);
        prop_assert_eq!(
            scanned.outcome.best_energy.to_bits(),
            reference.outcome.best_energy.to_bits()
        );
        prop_assert_eq!(scanned.outcome.evaluations, reference.outcome.evaluations);
        // the warm entries are not walked again: each non-zero-share entry once
        prop_assert_eq!(tables.model_queries(), cold_queries);
    }

    /// Lazy indexed enumeration serves exactly the `enumerate()` sequence: same
    /// configurations, same global order, and `config_at` is `None` past the end.
    #[test]
    fn lazy_enumeration_matches_the_materialized_order(
        accelerators in 1usize..=3,
        host_threads in proptest::sample::select(vec![vec![2u32, 48], vec![12, 24, 48], vec![4]]),
        device_threads in proptest::sample::select(vec![vec![30u32, 240], vec![60], vec![8, 64, 448]]),
        step_index in 0usize..3,
    ) {
        let space = space_from(accelerators, host_threads, device_threads, step_index);
        let all = space.enumerate().unwrap();
        prop_assert_eq!(space.space_len(), Some(all.len()));
        for (index, config) in all.iter().enumerate() {
            let at = space.config_at(index);
            prop_assert_eq!(at.as_ref(), Some(config), "index {}", index);
        }
        prop_assert_eq!(space.config_at(all.len()), None);

        // and the streaming driver reaches the same winner as the materialising one
        let objective = |config: &workdist::autotune::SystemConfiguration| {
            config.split().iter().enumerate()
                .map(|(i, &s)| f64::from(s) * (0.8 + i as f64 * 0.1)).sum::<f64>()
                + f64::from(config.host_threads)
        };
        let lazy = ParallelEnumeration::with_batch_size(37).run_indexed(&space, &objective);
        let materialized = ParallelEnumeration::with_batch_size(37)
            .run_indexed(&MaterializedOnly::new(&space), &objective);
        prop_assert_eq!(lazy.best_index, materialized.best_index);
        prop_assert_eq!(&lazy.outcome.best_config, &materialized.outcome.best_config);
        prop_assert_eq!(
            lazy.outcome.best_energy.to_bits(),
            materialized.outcome.best_energy.to_bits()
        );
    }
}

/// A regressor predicting the same time for every row: with it every configuration
/// that gives any side work has the same energy.
struct Flat;

impl Regressor for Flat {
    fn fit(&mut self, _data: &Dataset) -> Result<(), MlError> {
        Ok(())
    }
    fn predict_one(&self, _features: &[f64]) -> f64 {
        1.5
    }
    fn is_fitted(&self) -> bool {
        true
    }
    fn name(&self) -> &'static str {
        "flat"
    }
}

#[test]
fn tabulated_scan_breaks_plateau_ties_towards_the_earliest_index() {
    for accelerators in 1..=3 {
        let space = space_from(accelerators, vec![12, 48], vec![30, 240], 0);
        let evaluator = PredictionEvaluator::new(
            Box::new(Flat),
            (0..accelerators)
                .map(|_| Box::new(Flat) as Box<dyn Regressor + Send + Sync>)
                .collect(),
            WorkloadProfile::dna_scan("plateau", 2_000_000_000),
        );
        let configs = space.enumerate().unwrap();
        assert!(configs.iter().all(|config| evaluator.energy(config) == 1.5));

        let scanned = evaluator.lazy_tabulated().scan(&space).unwrap();
        let reference = ParallelEnumeration::new().run_indexed(&space, &evaluator);
        assert_eq!(scanned.best_index, 0, "{accelerators} accelerators");
        assert_eq!(reference.best_index, 0);
        assert_eq!(scanned.outcome.best_config, configs[0]);
        assert_eq!(scanned.outcome.best_energy.to_bits(), 1.5f64.to_bits());
        assert_eq!(scanned.outcome.evaluations, configs.len());
    }
}

/// An objective recording the largest batch it was ever asked to score: with the
/// streaming drivers this bounds how many configurations a worker materialises at
/// once.
struct MaxBatch<'a, O: ?Sized> {
    inner: &'a O,
    max: AtomicUsize,
}

impl<C, O: Objective<C> + ?Sized> Objective<C> for MaxBatch<'_, O> {
    fn evaluate(&self, config: &C) -> f64 {
        self.max.fetch_max(1, Ordering::Relaxed);
        self.inner.evaluate(config)
    }
    fn evaluate_batch(&self, configs: &[C]) -> Vec<f64> {
        self.max.fetch_max(configs.len(), Ordering::Relaxed);
        self.inner.evaluate_batch(configs)
    }
}

#[test]
fn sharded_three_accelerator_campaign_never_materializes_the_grid() {
    // host + 3 accelerators, 25 % split steps: C(7,3) = 35 splits × 2 × 2×2×2 = 560
    let space = ConfigurationSpace::multi_accelerator(
        vec![24, 48],
        vec![Affinity::Scatter],
        vec![
            DeviceAxis::new(vec![60, 240], vec![Affinity::Balanced]),
            DeviceAxis::new(vec![112, 448], vec![Affinity::Balanced]),
            DeviceAxis::new(vec![64, 128], vec![Affinity::Balanced]),
        ],
        250,
    );
    let total = space.space_len().unwrap();
    let evaluator = wavy_evaluator(3, 3_170_000_000);
    let tabulated = evaluator.tabulated(&space);

    let instrumented = InstrumentedSpace::new(&space);
    let batch_size = 64;
    let objective = MaxBatch {
        inner: &tabulated,
        max: AtomicUsize::new(0),
    };
    let store = MemoryStore::new();
    let shards = 4;
    let outcome = ShardedCampaign::new(shards)
        .with_batch_size(batch_size)
        .run(&instrumented, &objective, &store)
        .unwrap();

    // the full configuration Vec was never built: the space only ever served single
    // configurations by index, in chunk-sized batches
    assert_eq!(
        instrumented.enumerate_calls(),
        0,
        "the lazy campaign must not materialise the space"
    );
    assert_eq!(
        instrumented.config_at_calls(),
        total + 1,
        "every config streams once, plus the global winner's re-materialisation"
    );
    assert!(
        objective.max.load(Ordering::Relaxed) <= batch_size,
        "peak per-worker materialisation must be bounded by the chunk size"
    );
    assert_eq!(outcome.evaluations, total);

    // bit-identical to the forced-materialization fallback on the same space
    let reference = ShardedCampaign::new(shards)
        .with_batch_size(batch_size)
        .run(
            &MaterializedOnly::new(&space),
            &tabulated,
            &MemoryStore::new(),
        )
        .unwrap();
    assert_eq!(outcome.best_config, reference.best_config);
    assert_eq!(outcome.best_index, reference.best_index);
    assert_eq!(
        outcome.best_energy.to_bits(),
        reference.best_energy.to_bits()
    );
}

#[test]
fn eml_through_the_method_runner_takes_the_fast_path_bit_identically() {
    let platform = HeterogeneousPlatform::emil_with_gpu();
    let models = TrainingCampaign::reduced_for(&platform).run(&platform, BoostingParams::fast());
    let workload = WorkloadProfile::dna_scan("human", 3_170_000_000);
    let grid = ConfigurationSpace::tiny_multi();

    // hand-rolled direct EML: enumerate the cached prediction evaluator, no tables
    let prediction = models.prediction_evaluator(workload.clone());
    let cached = CachedObjective::new(&prediction);
    let direct = ParallelEnumeration::new().run(&grid, &cached);

    // the MethodRunner's EML goes through the factorized tables internally
    let eml = MethodRunner::new(&platform, &workload, Some(&models), 3)
        .with_grid(grid.clone())
        .run(MethodKind::Eml, 0)
        .unwrap();

    assert_eq!(eml.best_config, direct.best_config);
    assert_eq!(eml.search_energy.to_bits(), direct.best_energy.to_bits());
    assert_eq!(eml.evaluations, direct.evaluations);
    assert_eq!(eml.cache.misses as u128, grid.total_configurations());
}
