//! Acceptance tests for the `wd_dist` subsystem: a sharded campaign over the paper's
//! Table-I enumeration grid is bit-identical to single-node enumeration, and a
//! repeated campaign against a warm on-disk store performs zero new evaluations.

use std::path::PathBuf;

use workdist::autotune::{
    campaign_context, run_enumeration_sharded, ConfigurationSpace, MeasurementEvaluator,
    MethodKind, MethodRunner, SystemConfiguration, TrainingCampaign,
};
use workdist::dist::{JsonlStore, MemoryStore, ResultStore, ShardedCampaign};
use workdist::dna::Genome;
use workdist::ml::BoostingParams;
use workdist::opt::{CacheStats, CountingObjective, ParallelEnumeration, SearchSpace};
use workdist::platform::HeterogeneousPlatform;

fn evaluator() -> MeasurementEvaluator {
    MeasurementEvaluator::new(HeterogeneousPlatform::emil(), Genome::Human.workload())
}

fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("workdist-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn four_shard_campaign_over_the_table_i_grid_is_bit_identical_and_resumes_free() {
    let evaluator = evaluator();
    let grid = ConfigurationSpace::enumeration_grid();
    let single = ParallelEnumeration::new().run(&grid, &evaluator);
    assert_eq!(single.evaluations, 19_926);

    let path = temp_store("acceptance");
    let _ = std::fs::remove_file(&path);
    let context = campaign_context(MethodKind::Em, &Genome::Human.workload());

    // cold campaign: 4 shards, every configuration evaluated exactly once
    {
        let store: JsonlStore<SystemConfiguration> =
            JsonlStore::open_with_context(&path, &context).unwrap();
        let counting = CountingObjective::new(&evaluator);
        let cold = ShardedCampaign::new(4)
            .run(&grid, &counting, &store)
            .unwrap();
        assert_eq!(counting.evaluations(), 19_926);
        assert_eq!(
            cold.stats,
            CacheStats {
                hits: 0,
                misses: 19_926
            }
        );
        assert_eq!(cold.shards.len(), 4);
        assert_eq!(cold.best_config, single.best_config);
        assert_eq!(cold.best_energy.to_bits(), single.best_energy.to_bits());
    }

    // a campaign over a different objective cannot hijack this store
    assert!(JsonlStore::<SystemConfiguration>::open_with_context(
        &path,
        &campaign_context(MethodKind::Em, &Genome::Cat.workload())
    )
    .is_err());

    // warm campaign from a *fresh* store instance (reloaded from disk): zero new
    // evaluations, identical result
    {
        let store: JsonlStore<SystemConfiguration> =
            JsonlStore::open_with_context(&path, &context).unwrap();
        assert_eq!(store.len(), 19_926);
        assert_eq!(store.skipped_lines(), 0);
        let counting = CountingObjective::new(&evaluator);
        let warm = ShardedCampaign::new(4)
            .run(&grid, &counting, &store)
            .unwrap();
        assert_eq!(
            counting.evaluations(),
            0,
            "a warm on-disk store must answer the whole campaign"
        );
        assert_eq!(
            warm.stats,
            CacheStats {
                hits: 19_926,
                misses: 0
            }
        );
        assert_eq!(warm.best_config, single.best_config);
        assert_eq!(warm.best_energy.to_bits(), single.best_energy.to_bits());
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn sharding_is_invisible_for_every_shard_count() {
    let evaluator = evaluator();
    let grid = ConfigurationSpace::tiny();
    let single = ParallelEnumeration::new().run(&grid, &evaluator);
    for shards in [1usize, 2, 3, 5, 8, 64] {
        let store = MemoryStore::new();
        let outcome = ShardedCampaign::new(shards)
            .run(&grid, &evaluator, &store)
            .unwrap();
        assert_eq!(outcome.best_config, single.best_config, "{shards} shards");
        assert_eq!(outcome.best_energy.to_bits(), single.best_energy.to_bits());
        assert_eq!(outcome.evaluations, single.evaluations);
    }
}

#[test]
fn sharded_em_through_the_method_layer_matches_the_method_runner() {
    let platform = HeterogeneousPlatform::emil();
    let workload = Genome::Cat.workload();
    let grid = ConfigurationSpace::tiny();
    let runner_outcome = MethodRunner::new(&platform, &workload, None, 1)
        .with_grid(grid.clone())
        .run(MethodKind::Em, 0)
        .unwrap();

    let store = MemoryStore::new();
    let sharded =
        run_enumeration_sharded(&platform, &workload, None, MethodKind::Em, &grid, 4, &store)
            .unwrap();
    assert_eq!(sharded.best_config, runner_outcome.best_config);
    assert_eq!(
        sharded.search_energy.to_bits(),
        runner_outcome.search_energy.to_bits()
    );
    assert_eq!(
        sharded.measured_energy.to_bits(),
        runner_outcome.measured_energy.to_bits()
    );

    // the store now answers a repeated sharded EM for free, even at another node count
    let resumed =
        run_enumeration_sharded(&platform, &workload, None, MethodKind::Em, &grid, 9, &store)
            .unwrap();
    assert_eq!(resumed.cache.misses, 0);
    assert_eq!(resumed.best_config, runner_outcome.best_config);
}

#[test]
fn sharded_eml_matches_the_method_runner_cold_and_warm() {
    let platform = HeterogeneousPlatform::emil();
    let workload = Genome::Dog.workload();
    let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());
    let grid = ConfigurationSpace::tiny();
    let runner_outcome = MethodRunner::new(&platform, &workload, Some(&models), 1)
        .with_grid(grid.clone())
        .run(MethodKind::Eml, 0)
        .unwrap();

    for shards in [1usize, 3] {
        let store = MemoryStore::new();
        for pass in ["cold", "warm"] {
            let sharded = run_enumeration_sharded(
                &platform,
                &workload,
                Some(&models),
                MethodKind::Eml,
                &grid,
                shards,
                &store,
            )
            .unwrap();
            let context = format!("{shards} shards, {pass}");
            assert_eq!(sharded.best_config, runner_outcome.best_config, "{context}");
            assert_eq!(
                sharded.search_energy.to_bits(),
                runner_outcome.search_energy.to_bits(),
                "{context}"
            );
            assert_eq!(
                sharded.measured_energy.to_bits(),
                runner_outcome.measured_energy.to_bits(),
                "{context}"
            );
            assert_eq!(sharded.evaluations, runner_outcome.evaluations, "{context}");
            let expected_misses = if pass == "cold" {
                grid.space_len()
            } else {
                Some(0)
            };
            assert_eq!(Some(sharded.cache.misses), expected_misses, "{context}");
        }
    }
}
