//! Contract tests for the delta/observability entry points across the facade:
//!
//! * [`LazyTabulatedEvaluator`]'s `evaluate_move` scores a configuration against
//!   *any* scored base, not only a neighbour, and re-queries only the sides whose
//!   key differs;
//! * `ShardedCampaign::run_observed` is bit-identical to `ShardedCampaign::run`;
//! * the `neighbor_move` / `crossover_move` streams of `ConfigurationSpace` match
//!   their recorded digests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use workdist::autotune::{
    ConfigurationSpace, LazyTabulatedEvaluator, PredictionEvaluator, SystemConfiguration,
};
use workdist::dist::{MemoryStore, ShardedCampaign};
use workdist::ml::{Dataset, MlError, Regressor};
use workdist::obs::Registry;
use workdist::opt::{DeltaObjective, Objective, SearchSpace};
use workdist::platform::{Affinity, WorkloadProfile};

/// Cheap deterministic stand-in for the predicted work-distribution energy: wavy in
/// every configuration parameter so a wrong move almost surely shows.
struct Synthetic;

impl Objective<SystemConfiguration> for Synthetic {
    fn evaluate(&self, config: &SystemConfiguration) -> f64 {
        let mut energy =
            (config.host_threads as f64 * 0.37).sin().abs() + config.host_permille() as f64 * 1e-3;
        for (index, device) in config.devices().iter().enumerate() {
            energy += (device.threads as f64 * (0.11 + index as f64 * 0.05))
                .cos()
                .abs()
                + device.permille as f64 * 2e-3;
        }
        energy
    }
}

/// A wavy dummy model that counts its walks, so a test sees which sides were queried.
struct CountingWavy {
    salt: f64,
    walks: Arc<AtomicUsize>,
}

impl Regressor for CountingWavy {
    fn fit(&mut self, _data: &Dataset) -> Result<(), MlError> {
        Ok(())
    }
    fn predict_one(&self, features: &[f64]) -> f64 {
        self.walks.fetch_add(1, Ordering::Relaxed);
        (features[0] * self.salt).sin().abs() + features[4] * (1.0 + features[1] * 0.125)
    }
    fn is_fitted(&self) -> bool {
        true
    }
    fn name(&self) -> &'static str {
        "counting-wavy"
    }
}

/// Each side's table key: the host first, then each accelerator.
fn side_keys(config: &SystemConfiguration) -> Vec<(u32, Affinity, u32)> {
    let mut keys = vec![(
        config.host_threads,
        config.host_affinity,
        config.host_permille(),
    )];
    keys.extend(
        config
            .devices()
            .iter()
            .map(|device| (device.threads, device.affinity, device.permille)),
    );
    keys
}

#[test]
fn lazy_tabulated_evaluate_move_scores_any_base_and_queries_only_differing_sides() {
    let space = ConfigurationSpace::tiny_multi();
    let walks: Vec<Arc<AtomicUsize>> = (0..3).map(|_| Arc::default()).collect();
    let model = |side: usize| -> Box<dyn Regressor + Send + Sync> {
        Box::new(CountingWavy {
            salt: 0.3 + side as f64 * 0.17,
            walks: Arc::clone(&walks[side]),
        })
    };
    let evaluator = PredictionEvaluator::new(
        model(0),
        vec![model(1), model(2)],
        WorkloadProfile::dna_scan("x", 2_500_000_000),
    );

    let mut rng = StdRng::seed_from_u64(0x0a11_ba5e);
    let (mut non_neighbours, mut reused_sides, mut queried_sides) = (0, 0, 0);
    for pair in 0..800 {
        let a = space.random(&mut rng);
        let other = space.random(&mut rng);
        // alternate independent pairs with crossover children of `a`, which share
        // some sides with it
        let b = if pair % 2 == 0 {
            other
        } else {
            space.crossover_move(&a, &other, &mut rng)
        };
        let (keys_a, keys_b) = (side_keys(&a), side_keys(&b));
        // a neighbour move changes at most two parameters
        let changed = usize::from(a.host_threads != b.host_threads)
            + usize::from(a.host_affinity != b.host_affinity)
            + usize::from(a.split() != b.split())
            + a.devices()
                .iter()
                .zip(b.devices())
                .map(|(x, y)| {
                    usize::from(x.threads != y.threads) + usize::from(x.affinity != y.affinity)
                })
                .sum::<usize>();
        if changed <= 2 {
            continue;
        }
        non_neighbours += 1;

        let lazy = LazyTabulatedEvaluator::new(&evaluator);
        let (_, state) = lazy.evaluate_with_state(&a);
        let before: Vec<usize> = walks.iter().map(|w| w.load(Ordering::Relaxed)).collect();
        let probes = lazy.probes();
        let (energy, _) = lazy.evaluate_move(&a, &state, &b);
        // only the differing sides are even looked up
        let differing = keys_a.iter().zip(&keys_b).filter(|(x, y)| x != y).count();
        assert_eq!(lazy.probes() - probes, differing, "pair {pair}");
        for side in 0..3 {
            // fresh tables hold only `a`'s keys: a side is queried iff its key
            // differs and it receives work (an idle side costs no query)
            let expected = usize::from(keys_a[side] != keys_b[side] && keys_b[side].2 > 0);
            reused_sides += usize::from(keys_a[side] == keys_b[side]);
            queried_sides += expected;
            assert_eq!(
                walks[side].load(Ordering::Relaxed) - before[side],
                expected,
                "pair {pair}, side {side}: {a:?} -> {b:?}"
            );
        }
        assert_eq!(
            energy.to_bits(),
            evaluator.energy(&b).to_bits(),
            "pair {pair}"
        );
    }
    assert!(
        non_neighbours >= 150,
        "only {non_neighbours} non-neighbour pairs"
    );
    assert!(reused_sides > 0 && queried_sides > 0);
}

#[test]
fn sharded_campaign_run_observed_is_bit_identical_to_run() {
    let space = ConfigurationSpace::tiny_multi();
    let objective = Synthetic;
    let campaign = ShardedCampaign::new(3);

    let plain_store: MemoryStore<SystemConfiguration> = MemoryStore::new();
    let plain = campaign.run(&space, &objective, &plain_store).unwrap();

    let observed_store: MemoryStore<SystemConfiguration> = MemoryStore::new();
    let registry = Registry::new();
    let observed = campaign
        .run_observed(
            &space,
            &objective,
            &observed_store,
            &registry,
            "campaign-contract",
        )
        .unwrap();

    assert_eq!(observed.best_config, plain.best_config);
    assert_eq!(observed.best_energy.to_bits(), plain.best_energy.to_bits());
    assert_eq!(observed.evaluations, plain.evaluations);
    assert_eq!(observed.shards.len(), plain.shards.len());
    assert!(!registry.snapshot().events.is_empty());
}

/// FNV-1a over the `Debug` text of every configuration a move produces.
fn digest_moves(space: &ConfigurationSpace, seed: u64, steps: usize) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |config: &SystemConfiguration| {
        for byte in format!("{config:?};").bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = space.random(&mut rng);
    let mut mate = space.random(&mut rng);
    for _ in 0..steps {
        let next = space.neighbor_move(&current, &mut rng);
        feed(&next);
        let child = space.crossover_move(&next, &mate, &mut rng);
        feed(&child);
        mate = next;
        current = child;
    }
    digest
}

#[test]
fn neighbor_and_crossover_move_streams_match_their_recorded_digests() {
    // an unsorted host-share list with duplicates: moves start from the first
    // occurrence of a split, and a duplicate is a distance-0 neighbour
    let unsorted = ConfigurationSpace::two_way(
        vec![4, 48],
        vec![Affinity::Scatter],
        vec![60, 240],
        vec![Affinity::Balanced],
        vec![500, 100, 500, 1000, 0, 250, 100, 750, 900],
    );
    let spaces = [
        ("paper", ConfigurationSpace::paper()),
        ("tiny_multi", ConfigurationSpace::tiny_multi()),
        ("unsorted", unsorted),
    ];
    let mut digests = Vec::new();
    for (name, space) in &spaces {
        for seed in [1_164_798_316u64, 20_161_021] {
            digests.push((*name, seed, digest_moves(space, seed, 10_000)));
        }
    }
    // digests of the configuration streams the brute-force split scans produced;
    // the split-move index must reproduce them
    let expected = [
        ("paper", 1_164_798_316, 0x237d_9111_08ba_44e7),
        ("paper", 20_161_021, 0x29e1_849e_847e_1b9b),
        ("tiny_multi", 1_164_798_316, 0x1564_0750_cf32_5bfb),
        ("tiny_multi", 20_161_021, 0xd773_4382_7a02_f0e6),
        ("unsorted", 1_164_798_316, 0x1e05_6eb1_8850_b186),
        ("unsorted", 20_161_021, 0xb3c0_6fcb_7337_1eb1),
    ];
    assert_eq!(digests, expected);
}
