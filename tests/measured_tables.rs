//! Acceptance tests for the measured per-side tables behind EM and SAM
//! (`MeasurementEvaluator::lazy_tabulated`):
//!
//! * property: over random 1–3-accelerator platforms (noise on and off) and spaces
//!   (zero shares, infeasible thread counts, near-empty workloads), the measured
//!   table energies and their by-index `scan` equal the evaluator's own path — one
//!   real `HeterogeneousPlatform::execute` per configuration, singly and batched —
//!   and `ParallelEnumeration::run_indexed` over it, bit for bit;
//! * rayon workers filling one set of tables concurrently serve the same bits;
//! * tables over a rebound evaluator never serve the old workload's times;
//! * exact guards: a Table-I EM scan fills 738 host + 1 107 device entries, and SAM's
//!   cache counters and winner on a seeded run are those of one execution per
//!   distinct configuration;
//! * `MethodRunner` rejects a grid or space the platform cannot run before searching.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use workdist::autotune::{
    ConfigurationSpace, DeviceAxis, LazyTabulatedEvaluator, MeasurementEvaluator, MethodKind,
    MethodRunner, SystemConfiguration,
};
use workdist::dna::Genome;
use workdist::opt::{CacheStats, Objective, ParallelEnumeration, SearchSpace};
use workdist::platform::{
    Affinity, DeviceSpec, HeterogeneousPlatform, NoiseModel, OffloadModel, PerfModel,
    WorkloadProfile,
};

/// Host + `accelerators` accelerators, alternating Xeon Phi (240 threads) and GPU
/// (448 threads), with the paper's noise or none.
fn platform(accelerators: usize, noise: Option<u64>) -> HeterogeneousPlatform {
    HeterogeneousPlatform::new(
        DeviceSpec::xeon_e5_2695v2_dual(),
        (0..accelerators)
            .map(|device| {
                if device % 2 == 0 {
                    DeviceSpec::xeon_phi_7120p()
                } else {
                    DeviceSpec::generic_gpu()
                }
            })
            .collect(),
        OffloadModel::pcie_gen2_x16(),
        noise.map_or_else(NoiseModel::disabled, NoiseModel::paper_default),
        PerfModel::default(),
    )
}

/// A random space small enough to enumerate inside a property test.  Its splits give
/// every side zero shares; 448 device threads exceed the Xeon Phi's 240, so those
/// configurations cannot run wherever the Phi gets work.
fn space(
    accelerators: usize,
    host_threads: Vec<u32>,
    device_threads: Vec<u32>,
    step_index: usize,
) -> ConfigurationSpace {
    let steps = [[100u32, 200, 250], [200, 250, 500], [250, 500, 500]];
    ConfigurationSpace::multi_accelerator(
        host_threads,
        vec![Affinity::Scatter, Affinity::Compact],
        (0..accelerators)
            .map(|_| DeviceAxis::new(device_threads.clone(), vec![Affinity::Balanced]))
            .collect(),
        steps[accelerators - 1][step_index % 3],
    )
}

/// Eq. 2 from one real execution; `+∞` for a configuration the platform rejects.
fn executed(measurement: &MeasurementEvaluator, config: &SystemConfiguration) -> f64 {
    measurement
        .measure(config)
        .map_or(f64::INFINITY, |m| m.t_host.max(m.t_device))
}

/// Distinct `(threads, affinity, share)` entries of every side of `space`.
fn side_entries(space: &ConfigurationSpace) -> Vec<usize> {
    let distinct_shares = |position: usize| {
        let mut shares: Vec<u32> = space.splits().iter().map(|s| s[position]).collect();
        shares.sort_unstable();
        shares.dedup();
        shares.len()
    };
    std::iter::once(space.host_threads.len() * space.host_affinities.len() * distinct_shares(0))
        .chain(space.device_axes.iter().enumerate().map(|(index, axis)| {
            axis.threads.len() * axis.affinities.len() * distinct_shares(index + 1)
        }))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Table energies (cold, lazily filled) and the by-index scan over partially warm
    /// tables equal one real execution per configuration — as do the evaluator's own
    /// single and batched objective paths — and the scan reports `run_indexed`'s
    /// outcome exactly.
    #[test]
    fn measured_tables_are_bit_identical_to_execute(
        accelerators in 1usize..=3,
        host_threads in proptest::sample::select(vec![vec![2u32, 48], vec![12, 24, 48], vec![4]]),
        device_threads in proptest::sample::select(vec![vec![30u32, 240], vec![60], vec![8, 64, 448]]),
        step_index in 0usize..3,
        bytes in prop_oneof![1u64..40, 500_000_000u64..4_000_000_000],
        noise in prop_oneof![Just(None), (0u64..1_000).prop_map(Some)],
        warm in 0usize..4,
        warm_seed in 0u64..1_000,
    ) {
        let space = space(accelerators, host_threads, device_threads, step_index);
        let measurement = MeasurementEvaluator::new(
            platform(accelerators, noise),
            WorkloadProfile::dna_scan("prop", bytes),
        );
        let configs = space.enumerate().unwrap();
        let direct: Vec<f64> = configs.iter().map(|c| executed(&measurement, c)).collect();
        let batched = measurement.evaluate_batch(&configs);
        for ((config, a), b) in configs.iter().zip(&batched).zip(&direct) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
            prop_assert_eq!(measurement.evaluate(config).to_bits(), b.to_bits());
        }

        let tables = measurement.lazy_tabulated();
        let mut rng = StdRng::seed_from_u64(warm_seed);
        for _ in 0..warm {
            let config = space.random(&mut rng);
            prop_assert_eq!(
                tables.energy(&config).to_bits(),
                executed(&measurement, &config).to_bits()
            );
        }

        let scanned = tables.scan(&space).unwrap();
        let reference = ParallelEnumeration::new()
            .run_indexed(&space, &|c: &SystemConfiguration| executed(&measurement, c));
        prop_assert_eq!(scanned.best_index, reference.best_index);
        prop_assert_eq!(&scanned.outcome.best_config, &reference.outcome.best_config);
        prop_assert_eq!(
            scanned.outcome.best_energy.to_bits(),
            reference.outcome.best_energy.to_bits()
        );
        prop_assert_eq!(scanned.outcome.evaluations, reference.outcome.evaluations);
        // the scan filled every side entry of the space, each once
        prop_assert_eq!(tables.table_lens(), side_entries(&space));
        let filled = tables.model_queries();

        for (config, &energy) in configs.iter().zip(&direct) {
            prop_assert_eq!(tables.energy(config).to_bits(), energy.to_bits(), "config {}", config);
        }
        // scoring the whole space from warm tables simulated nothing more
        prop_assert_eq!(tables.model_queries(), filled);
    }
}

#[test]
fn rayon_workers_fill_one_set_of_tables_identically() {
    let space = ConfigurationSpace::tiny_multi();
    let measurement = MeasurementEvaluator::new(
        HeterogeneousPlatform::emil_with_gpu(),
        Genome::Dog.workload(),
    );
    let configs = space.enumerate().unwrap();
    let direct: Vec<f64> = configs.iter().map(|c| executed(&measurement, c)).collect();

    // eight workers score every configuration, racing on each fresh entry of the one
    // set of tables
    let tables = measurement.lazy_tabulated();
    let workers: Vec<usize> = (0..8).collect();
    let energies: Vec<Vec<u64>> = workers
        .par_iter()
        .map(|_| configs.iter().map(|c| tables.energy(c).to_bits()).collect())
        .collect();
    for worker in &energies {
        assert_eq!(
            worker,
            &direct.iter().map(|e| e.to_bits()).collect::<Vec<_>>()
        );
    }
    // racing fills insert each entry once; duplicate simulations are counted
    let entries = side_entries(&space);
    assert_eq!(tables.table_lens(), entries);
    assert!(tables.model_queries() <= 8 * entries.iter().sum::<usize>());

    // a concurrent scan over the warm tables simulates nothing new
    let simulations = tables.model_queries();
    let scans: Vec<_> = workers
        .par_iter()
        .map(|_| tables.scan(&space).unwrap())
        .collect();
    let reference = ParallelEnumeration::new().run_indexed(&space, &measurement);
    for scan in scans {
        assert_eq!(scan.best_index, reference.best_index);
        assert_eq!(
            scan.outcome.best_energy.to_bits(),
            reference.outcome.best_energy.to_bits()
        );
    }
    assert_eq!(tables.model_queries(), simulations);
}

#[test]
fn a_rebound_evaluator_never_serves_the_old_workloads_times() {
    let grid = ConfigurationSpace::tiny();
    let human = MeasurementEvaluator::new(HeterogeneousPlatform::emil(), Genome::Human.workload());
    let human_tables = human.lazy_tabulated();
    human_tables.scan(&grid).unwrap();
    assert!(human_tables.table_len() > 0);

    // tables borrow their evaluator, so a rebound evaluator needs tables of its own
    let cat = human.clone().with_workload(Genome::Cat.workload());
    assert_eq!(cat.workload().name, "cat");
    let cat_tables = cat.lazy_tabulated();
    assert_eq!(cat_tables.table_len(), 0);

    let mut differs = 0;
    for config in grid.enumerate().unwrap() {
        let energy = cat_tables.energy(&config);
        assert_eq!(energy.to_bits(), executed(&cat, &config).to_bits());
        differs += usize::from(energy != human_tables.energy(&config));
    }
    // the two workloads' times genuinely differ, so a stale entry would show
    assert!(differs > 0);
}

#[test]
fn a_table_i_em_scan_fills_exactly_the_grids_side_entries() {
    let measurement =
        MeasurementEvaluator::new(HeterogeneousPlatform::emil(), Genome::Cat.workload());
    let tables = measurement.lazy_tabulated();
    let em = MethodRunner::from_tables(&tables, None, 1)
        .run(MethodKind::Em, 0)
        .unwrap();
    assert_eq!(em.evaluations, 19_926);
    assert_eq!(
        em.cache,
        CacheStats {
            hits: 0,
            misses: 19_926
        }
    );
    // 6 host threads × 3 affinities × 41 shares, 9 × 3 × 41 on the device
    assert_eq!(tables.table_lens(), vec![738, 1_107]);
    // the zero-share entries (18 host, 27 device) cost no simulation
    assert_eq!(tables.model_queries(), 1_800);
    // the winner as one execution per grid point finds it
    assert_eq!(em.best_config.split(), vec![600, 400]);
    assert_eq!(em.best_config.host_threads, 48);
    assert_eq!(em.search_energy.to_bits(), 0x3fd7_1f89_65d9_adca);
    assert_eq!(em.measured_energy.to_bits(), em.search_energy.to_bits());

    // a second scan, and a fresh runner's scan, simulate nothing new
    MethodRunner::from_tables(&tables, None, 2)
        .run(MethodKind::Em, 0)
        .unwrap();
    assert_eq!(tables.model_queries(), 1_800);
}

#[test]
fn sam_counts_distinct_configurations_as_one_execution_each_did() {
    let platform = HeterogeneousPlatform::emil();
    let workload = Genome::Cat.workload();
    // pinned from one real execution per distinct configuration
    let pinned = CacheStats {
        hits: 297,
        misses: 705,
    };
    let fresh = MethodRunner::new(&platform, &workload, None, 7)
        .run(MethodKind::Sam, 1_000)
        .unwrap();
    assert_eq!(fresh.cache, pinned);
    assert_eq!(fresh.evaluations, 1_002);
    assert_eq!(fresh.best_config.split(), vec![630, 370]);
    assert_eq!(fresh.search_energy.to_bits(), 0x3fd6_8d5b_7dd3_8573);
    assert_eq!(
        fresh.measured_energy.to_bits(),
        fresh.search_energy.to_bits()
    );

    // over tables an EM scan already warmed: the same walk, the same counters
    let measurement = MeasurementEvaluator::new(platform.clone(), workload.clone());
    let tables = measurement.lazy_tabulated();
    tables
        .scan(&ConfigurationSpace::enumeration_grid())
        .unwrap();
    let shared = MethodRunner::from_tables(&tables, None, 7)
        .run(MethodKind::Sam, 1_000)
        .unwrap();
    assert_eq!(shared.cache, pinned);
    assert_eq!(shared.best_config, fresh.best_config);
    assert_eq!(shared.trace.records(), fresh.trace.records());
    // the walk's misses are table probes: far fewer side simulations than the
    // 2 × 705 one execution per distinct configuration runs
    assert!(tables.model_queries() < 1_800 + 2 * 705);
}

#[test]
fn the_runner_rejects_what_the_platform_cannot_run_before_searching() {
    let platform = HeterogeneousPlatform::emil();
    let workload = Genome::Human.workload();
    // 64 host threads exceed the dual Xeon's 48
    let too_wide = ConfigurationSpace::two_way(
        vec![24, 64],
        vec![Affinity::Scatter],
        vec![240],
        vec![Affinity::Balanced],
        vec![0, 500, 1000],
    );
    let runner = MethodRunner::new(&platform, &workload, None, 1)
        .with_grid(too_wide.clone())
        .with_space(too_wide);
    for method in [MethodKind::Em, MethodKind::Sam] {
        let error = runner.run(method, 50).unwrap_err();
        assert!(error.starts_with(&format!("{method}: ")), "{error}");
        assert!(error.contains("at most 48"), "{error}");
    }

    // a host that never receives work is never validated, as in `execute`
    let idle_host = ConfigurationSpace::two_way(
        vec![64],
        vec![Affinity::Scatter],
        vec![240],
        vec![Affinity::Balanced],
        vec![0],
    );
    let em = MethodRunner::new(&platform, &workload, None, 1)
        .with_grid(idle_host)
        .run(MethodKind::Em, 0)
        .unwrap();
    assert!(em.measured_energy.is_finite());

    // two accelerators on a one-accelerator platform
    let runner = MethodRunner::new(&platform, &workload, None, 1)
        .with_grid(ConfigurationSpace::tiny_multi())
        .with_space(ConfigurationSpace::tiny_multi());
    for method in [MethodKind::Em, MethodKind::Sam] {
        let error = runner.run(method, 50).unwrap_err();
        assert!(error.contains("2 accelerator(s)"), "{error}");
    }

    // the objective and its tables score what cannot run as +∞ instead of panicking
    let measurement = MeasurementEvaluator::new(platform, workload);
    let bad =
        SystemConfiguration::with_host_percent(64, Affinity::Scatter, 240, Affinity::Balanced, 50);
    assert_eq!(measurement.evaluate(&bad), f64::INFINITY);
    assert_eq!(
        measurement.evaluate_batch(std::slice::from_ref(&bad)),
        vec![f64::INFINITY]
    );
    assert_eq!(measurement.lazy_tabulated().energy(&bad), f64::INFINITY);
    assert!(measurement.measure(&bad).is_err());
    assert!(measurement.evaluate_times(&bad).is_err());
    // ...as does a configuration with fewer accelerators than the platform
    let two = MeasurementEvaluator::new(
        HeterogeneousPlatform::emil_with_gpu(),
        Genome::Human.workload(),
    );
    let one =
        SystemConfiguration::with_host_percent(48, Affinity::Scatter, 240, Affinity::Balanced, 50);
    assert_eq!(two.evaluate(&one), f64::INFINITY);
    assert_eq!(
        LazyTabulatedEvaluator::new(&two).energy(&one),
        f64::INFINITY
    );
    assert!(two.measure(&one).is_err());
}
