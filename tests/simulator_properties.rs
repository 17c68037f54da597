//! Property-based integration tests: invariants that must hold across the
//! configuration space, the platform simulator and the evaluators.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workdist::autotune::{ConfigurationSpace, MeasurementEvaluator, SystemConfiguration};
use workdist::opt::{Objective, SearchSpace};
use workdist::platform::{Affinity, HeterogeneousPlatform};

fn host_affinities() -> impl Strategy<Value = Affinity> {
    prop_oneof![
        Just(Affinity::None),
        Just(Affinity::Scatter),
        Just(Affinity::Compact),
    ]
}

fn device_affinities() -> impl Strategy<Value = Affinity> {
    prop_oneof![
        Just(Affinity::Balanced),
        Just(Affinity::Scatter),
        Just(Affinity::Compact),
    ]
}

fn arb_config() -> impl Strategy<Value = SystemConfiguration> {
    (
        proptest::sample::select(vec![2u32, 4, 6, 12, 24, 36, 48]),
        host_affinities(),
        proptest::sample::select(vec![2u32, 4, 8, 16, 30, 60, 120, 180, 240]),
        device_affinities(),
        0u32..=100,
    )
        .prop_map(|(ht, ha, dt, da, pct)| {
            SystemConfiguration::with_host_percent(ht, ha, dt, da, pct)
        })
}

fn evaluator_for(bytes: u64) -> MeasurementEvaluator {
    MeasurementEvaluator::new(
        HeterogeneousPlatform::emil(),
        workdist::platform::WorkloadProfile::dna_scan("w", bytes),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every configuration of the paper's space evaluates to a finite, positive energy,
    /// and the energy equals max(T_host, T_device).
    #[test]
    fn every_configuration_evaluates(config in arb_config(), gb in 1u64..4) {
        let evaluator = evaluator_for(gb * 1_000_000_000);
        let (host, device) = evaluator.evaluate_times(&config).unwrap();
        prop_assert!(host.is_finite() && host >= 0.0);
        prop_assert!(device.is_finite() && device >= 0.0);
        let energy = evaluator.energy(&config);
        prop_assert!((energy - host.max(device)).abs() < 1e-12);
        prop_assert!(energy > 0.0);
        if config.uses_host() { prop_assert!(host > 0.0); } else { prop_assert!(host == 0.0); }
        if config.uses_device() { prop_assert!(device > 0.0); } else { prop_assert!(device == 0.0); }
    }

    /// The evaluator is deterministic: evaluating the same configuration twice yields
    /// bit-identical energies (the foundation of reproducible studies), and the batched
    /// path agrees bit-exactly with single evaluations.
    #[test]
    fn evaluation_is_deterministic_and_batch_consistent(config in arb_config()) {
        let evaluator = MeasurementEvaluator::new(
            HeterogeneousPlatform::emil(),
            workdist::dna::Genome::Mouse.workload(),
        );
        prop_assert_eq!(evaluator.energy(&config), evaluator.energy(&config));
        let batch = vec![config.clone(), config.clone(), SystemConfiguration::host_only_baseline()];
        let energies = evaluator.evaluate_batch(&batch);
        prop_assert_eq!(energies[0], evaluator.energy(&config));
        prop_assert_eq!(energies[1], energies[0]);
        prop_assert_eq!(energies[2], evaluator.energy(&SystemConfiguration::host_only_baseline()));
    }

    /// Host-only energy is monotone non-increasing in the host thread count (more
    /// threads never hurt in the calibrated model), for every affinity.
    #[test]
    fn host_only_energy_monotone_in_threads(affinity in host_affinities(), gb in 1u64..4) {
        let evaluator = MeasurementEvaluator::new(
            HeterogeneousPlatform::emil().without_noise(),
            workdist::platform::WorkloadProfile::dna_scan("w", gb * 1_000_000_000),
        );
        let mut previous = f64::INFINITY;
        for threads in [2u32, 4, 6, 12, 24, 36, 48] {
            let config = SystemConfiguration::with_host_percent(threads, affinity, 240, Affinity::Balanced, 100);
            let energy = evaluator.energy(&config);
            prop_assert!(energy <= previous * 1.001,
                "host-only energy increased from {} to {} at {} threads", previous, energy, threads);
            previous = energy;
        }
    }

    /// Random samples and neighbour moves of the paper's search space always produce
    /// configurations that the platform accepts (no validation errors).
    #[test]
    fn space_samples_are_always_valid(seed in 0u64..1000, steps in 1usize..50) {
        let space = ConfigurationSpace::paper();
        let evaluator = MeasurementEvaluator::new(
            HeterogeneousPlatform::emil(),
            workdist::dna::Genome::Human.workload(),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut config = space.random(&mut rng);
        for _ in 0..steps {
            // energy() panics if the platform rejects the configuration
            let energy = evaluator.energy(&config);
            prop_assert!(energy.is_finite() && energy > 0.0);
            config = space.neighbor_move(&config, &mut rng);
        }
    }

    /// The best achievable split is never worse than either single-device execution
    /// (running concurrently cannot lose to running alone), once fixed offload overhead
    /// is accounted for by the optimizer being free to choose 100 % host.
    #[test]
    fn best_split_is_at_least_as_good_as_host_only(gb in 1u64..4) {
        let evaluator = MeasurementEvaluator::new(
            HeterogeneousPlatform::emil().without_noise(),
            workdist::platform::WorkloadProfile::dna_scan("w", gb * 1_000_000_000),
        );
        let host_only = evaluator.energy(&SystemConfiguration::host_only_baseline());
        let sweep: Vec<SystemConfiguration> = (0..=100u32)
            .map(|pct| SystemConfiguration::with_host_percent(48, Affinity::Scatter, 240, Affinity::Balanced, pct))
            .collect();
        let best = evaluator
            .evaluate_batch(&sweep)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        prop_assert!(best <= host_only * 1.0001);
    }
}
