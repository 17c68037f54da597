//! Acceptance tests for the host + N accelerator generalisation: a two-accelerator
//! campaign (host + Xeon Phi + GPU) runs end-to-end through EM and SAML via the
//! standard method pipeline, sharded N-way campaigns are bit-identical to single-node
//! enumeration and resume for free from a warm store, and the `ConfigKey` encoding
//! round-trips for every configuration of the old and new spaces.

use workdist::autotune::{
    campaign_context, run_enumeration_sharded, ConfigurationSpace, DeviceAxis,
    MeasurementEvaluator, MethodKind, MethodRunner, SystemConfiguration, TrainingCampaign,
};
use workdist::dist::{ConfigKey, JsonlStore, MemoryStore, ResultStore};
use workdist::ml::BoostingParams;
use workdist::opt::{ParallelEnumeration, SearchSpace};
use workdist::platform::{Affinity, HeterogeneousPlatform, Partition, WorkloadProfile};

fn two_accelerator_grid() -> ConfigurationSpace {
    ConfigurationSpace::tiny_multi()
}

#[test]
fn two_accelerator_campaign_runs_em_and_saml_through_the_standard_pipeline() {
    let platform = HeterogeneousPlatform::emil_with_gpu();
    let workload = WorkloadProfile::dna_scan("human", 3_170_000_000);
    let grid = two_accelerator_grid();
    assert_eq!(grid.accelerator_count(), platform.accelerator_count());

    // one trained model per accelerator
    let models = TrainingCampaign::reduced_for(&platform).run(&platform, BoostingParams::fast());
    assert_eq!(models.device_model_count(), 2);

    // EM and SAML run through the exact same MethodRunner the host+1 pipeline uses
    let runner = MethodRunner::new(&platform, &workload, Some(&models), 7)
        .with_grid(grid.clone())
        .with_space(grid.clone());
    let em = runner.run(MethodKind::Em, 0).unwrap();
    let saml = runner.run(MethodKind::Saml, 300).unwrap();

    assert_eq!(em.evaluations as u128, grid.total_configurations());
    assert_eq!(em.best_config.accelerator_count(), 2);
    assert!(em.measured_energy > 0.0 && em.measured_energy.is_finite());
    assert!(saml.measured_energy.is_finite());
    assert_eq!(saml.best_config.accelerator_count(), 2);
    assert!(saml.evaluations < em.evaluations);
    // EM is the optimum of the grid; SAML on the same space cannot beat it beyond noise
    assert!(saml.measured_energy >= em.measured_energy * 0.9);

    // splitting across host + two accelerators beats the single-accelerator optimum of
    // the comparable host + Phi sub-space (the whole point of N-way distribution)
    let single_grid = ConfigurationSpace::two_way(
        grid.host_threads.clone(),
        grid.host_affinities.clone(),
        grid.device_axes[0].threads.clone(),
        grid.device_axes[0].affinities.clone(),
        (0..=10).map(|p| p * 100).collect(),
    );
    let single_platform = HeterogeneousPlatform::emil();
    let single_em = MethodRunner::new(&single_platform, &workload, None, 7)
        .with_grid(single_grid)
        .run(MethodKind::Em, 0)
        .unwrap();
    assert!(
        em.measured_energy < single_em.measured_energy,
        "three-way optimum ({}) should beat the host+Phi optimum ({})",
        em.measured_energy,
        single_em.measured_energy
    );
}

#[test]
fn sharded_n_way_enumeration_is_bit_identical_and_resumes_for_free() {
    let platform = HeterogeneousPlatform::emil_with_gpu();
    let workload = WorkloadProfile::dna_scan("human", 3_170_000_000);
    let grid = two_accelerator_grid();

    // single-node reference over the N-way grid
    let evaluator = MeasurementEvaluator::new(platform.clone(), workload.clone());
    let single = ParallelEnumeration::new().run(&grid, &evaluator);

    // sharded campaigns match bit-for-bit at every shard count
    for shards in [1usize, 3, 8] {
        let store = MemoryStore::new();
        let sharded = run_enumeration_sharded(
            &platform,
            &workload,
            None,
            MethodKind::Em,
            &grid,
            shards,
            &store,
        )
        .unwrap();
        assert_eq!(sharded.best_config, single.best_config, "{shards} shards");
        assert_eq!(
            sharded.search_energy.to_bits(),
            single.best_energy.to_bits()
        );
        assert_eq!(sharded.evaluations, single.evaluations);
    }

    // a persistent store resumes the N-way campaign with zero evaluations
    let path =
        std::env::temp_dir().join(format!("workdist-multi-accel-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let context = campaign_context(MethodKind::Em, &workload);
    let cold = {
        let store: JsonlStore<SystemConfiguration> =
            JsonlStore::open_with_context(&path, &context).unwrap();
        run_enumeration_sharded(&platform, &workload, None, MethodKind::Em, &grid, 4, &store)
            .unwrap()
    };
    assert_eq!(cold.cache.hits, 0);
    assert_eq!(cold.cache.misses as u128, grid.total_configurations());

    let store: JsonlStore<SystemConfiguration> =
        JsonlStore::open_with_context(&path, &context).unwrap();
    assert_eq!(store.len() as u128, grid.total_configurations());
    let warm =
        run_enumeration_sharded(&platform, &workload, None, MethodKind::Em, &grid, 4, &store)
            .unwrap();
    assert_eq!(warm.cache.misses, 0, "warm N-way store answers everything");
    assert_eq!(warm.best_config, cold.best_config);
    assert_eq!(warm.search_energy.to_bits(), cold.search_energy.to_bits());
    assert_eq!(warm.best_config, single.best_config);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn config_keys_round_trip_for_the_whole_paper_space() {
    // every configuration of the paper's (single-accelerator) Table I space
    let space = ConfigurationSpace::paper();
    for config in space.enumerate().unwrap() {
        let key = config.encode_key();
        assert!(!key.contains(['"', '\\', '\n', '\r']));
        assert_eq!(
            SystemConfiguration::decode_key(&key),
            Some(config),
            "key {key}"
        );
    }
}

#[test]
fn config_keys_round_trip_and_partitions_validate_for_n_way_spaces() {
    // a two- and a three-accelerator space
    let spaces = [
        two_accelerator_grid(),
        ConfigurationSpace::multi_accelerator(
            vec![24, 48],
            vec![Affinity::Scatter],
            vec![
                DeviceAxis::new(vec![240], vec![Affinity::Balanced]),
                DeviceAxis::new(vec![448], vec![Affinity::Balanced]),
                DeviceAxis::new(vec![64], vec![Affinity::Compact]),
            ],
            250,
        ),
    ];
    for space in spaces {
        let all = space.enumerate().unwrap();
        assert_eq!(all.len() as u128, space.total_configurations());
        for config in all {
            // the key encoding round-trips
            let key = config.encode_key();
            assert!(!key.contains(['"', '\\', '\n', '\r']));
            assert_eq!(
                SystemConfiguration::decode_key(&key),
                Some(config.clone()),
                "key {key}"
            );
            // and the N-way partition always satisfies Partition::new's validation
            let fractions: Vec<f64> = config
                .split()
                .iter()
                .map(|&p| f64::from(p) / 1000.0)
                .collect();
            let partition = Partition::new(fractions).expect("simplex split is a valid partition");
            assert_eq!(partition.accelerator_count(), space.accelerator_count());
            assert_eq!(config.partition(), partition);
        }
    }
}

#[test]
fn neighbor_moves_stay_on_the_simplex_for_n_way_spaces() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let space = two_accelerator_grid();
    let mut rng = StdRng::seed_from_u64(11);
    let mut config = space.random(&mut rng);
    for _ in 0..500 {
        config = space.neighbor_move(&config, &mut rng);
        assert_eq!(config.split().iter().sum::<u32>(), 1000);
        // the partition the evaluator would build is always valid
        let _ = config.partition();
    }
}
