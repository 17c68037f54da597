//! Integration tests for the unified evaluation layer: caching, batching and the
//! parallel enumeration path must all be observationally identical to plain
//! one-at-a-time evaluation.

use workdist::autotune::{
    ConfigurationSpace, MeasurementEvaluator, MethodKind, MethodRunner, SystemConfiguration,
    TrainingCampaign,
};
use workdist::dna::Genome;
use workdist::ml::BoostingParams;
use workdist::opt::{
    CachedObjective, Enumeration, Objective, ParallelEnumeration, SearchSpace, SimulatedAnnealing,
};
use workdist::platform::HeterogeneousPlatform;

fn evaluator() -> MeasurementEvaluator {
    MeasurementEvaluator::new(HeterogeneousPlatform::emil(), Genome::Human.workload())
}

#[test]
fn cached_evaluation_is_identical_to_uncached_evaluation() {
    let evaluator = evaluator();
    let cached = CachedObjective::new(&evaluator);
    let space = ConfigurationSpace::tiny();
    let configs = space.enumerate().unwrap();

    for config in &configs {
        assert_eq!(
            cached.evaluate(config),
            evaluator.evaluate(config),
            "cold pass, {config}"
        );
    }
    for config in &configs {
        assert_eq!(
            cached.evaluate(config),
            evaluator.evaluate(config),
            "warm pass, {config}"
        );
    }
    let stats = cached.stats();
    assert_eq!(stats.misses, configs.len());
    assert_eq!(stats.hits, configs.len());
    assert_eq!(cached.len(), configs.len());
}

#[test]
fn batch_evaluation_matches_one_at_a_time_evaluation() {
    let evaluator = evaluator();
    let configs = ConfigurationSpace::tiny().enumerate().unwrap();
    let singles: Vec<f64> = configs.iter().map(|c| evaluator.evaluate(c)).collect();
    assert_eq!(evaluator.evaluate_batch(&configs), singles);

    // the prediction evaluator honours the same contract
    let platform = HeterogeneousPlatform::emil();
    let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());
    let prediction = models.prediction_evaluator(Genome::Human.workload());
    let singles: Vec<f64> = configs.iter().map(|c| prediction.evaluate(c)).collect();
    assert_eq!(prediction.evaluate_batch(&configs), singles);
}

#[test]
fn parallel_enumeration_is_deterministic_across_partitionings() {
    // The batched parallel path must return the same best configuration and energy as
    // the sequential scan for every batch size (and therefore for every thread count:
    // work distribution over rayon workers only changes which worker scores which
    // batch, never the reduction result).  On the tiny grid and on the paper's
    // 19 926-point Table-I enumeration grid.
    let evaluator = evaluator();
    for grid in [
        ConfigurationSpace::tiny(),
        ConfigurationSpace::enumeration_grid(),
    ] {
        let reference = Enumeration.run(&grid, &evaluator).unwrap();
        for batch_size in [1usize, 3, 17, 128, 4096] {
            let outcome = ParallelEnumeration::with_batch_size(batch_size).run(&grid, &evaluator);
            assert_eq!(
                outcome.best_config, reference.best_config,
                "batch size {batch_size}"
            );
            assert_eq!(
                outcome.best_energy, reference.best_energy,
                "batch size {batch_size}"
            );
            assert_eq!(outcome.evaluations, reference.evaluations);
        }
    }
}

#[test]
fn annealing_behind_the_cache_is_identical_to_uncached_annealing() {
    // Memoization must not change the search trajectory, only skip re-measurement.
    let evaluator = evaluator();
    let space = ConfigurationSpace::tiny();
    let sa = SimulatedAnnealing::with_budget_and_range(400, 2.0, 0.02, 99);

    let plain = sa.run(&space, &evaluator);
    let cached = CachedObjective::new(&evaluator);
    let memoized = sa.run(&space, &cached);

    assert_eq!(plain.best_config, memoized.best_config);
    assert_eq!(plain.best_energy, memoized.best_energy);
    assert_eq!(plain.evaluations, memoized.evaluations);
    let stats = cached.stats();
    assert_eq!(stats.requests(), memoized.evaluations);
    assert!(
        stats.hits > 0,
        "a 400-iteration walk on a tiny space must revisit configurations"
    );
    assert!(stats.misses <= ConfigurationSpace::tiny().total_configurations() as usize);
}

#[test]
fn method_outcomes_surface_cache_counters() {
    let platform = HeterogeneousPlatform::emil();
    let workload = Genome::Cat.workload();
    let runner = MethodRunner::new(&platform, &workload, None, 5)
        .with_grid(ConfigurationSpace::tiny())
        .with_space(ConfigurationSpace::tiny());

    let em = runner.run(MethodKind::Em, 0).unwrap();
    assert_eq!(
        em.cache.hits, 0,
        "enumeration never revisits a configuration"
    );
    assert_eq!(em.cache.misses, em.evaluations);
    assert_eq!(em.experiments(), em.evaluations);

    let sam = runner.run(MethodKind::Sam, 500).unwrap();
    assert_eq!(sam.cache.requests(), sam.evaluations);
    assert!(sam.cache.hits > 0);
    assert!(
        sam.experiments() < sam.evaluations,
        "with memoization SAM performs fewer experiments ({}) than requests ({})",
        sam.experiments(),
        sam.evaluations
    );
}

#[test]
fn warm_cache_answers_full_enumeration_without_new_experiments() {
    let evaluator = evaluator();
    let grid = ConfigurationSpace::tiny();
    let cached = CachedObjective::new(&evaluator);

    let cold = ParallelEnumeration::new().run(&grid, &cached);
    let experiments_after_cold = cached.stats().misses;
    let warm = ParallelEnumeration::new().run(&grid, &cached);

    assert_eq!(cold.best_config, warm.best_config);
    assert_eq!(cold.best_energy, warm.best_energy);
    assert_eq!(
        cached.stats().misses,
        experiments_after_cold,
        "the warm pass must be answered entirely from the cache"
    );
    assert_eq!(cached.stats().hits as u128, grid.total_configurations());
}

#[test]
fn baseline_configs_evaluate_identically_through_every_path() {
    // One configuration, four routes to its energy: direct, trait, batch, cached.
    let evaluator = evaluator();
    let config = SystemConfiguration::host_only_baseline();
    let direct = evaluator.energy(&config);
    let via_trait = Objective::evaluate(&evaluator, &config);
    let via_batch = evaluator.evaluate_batch(std::slice::from_ref(&config))[0];
    let cached = CachedObjective::new(&evaluator);
    let via_cache = cached.evaluate(&config);
    assert_eq!(direct, via_trait);
    assert_eq!(direct, via_batch);
    assert_eq!(direct, via_cache);
}
