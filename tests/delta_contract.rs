//! Contract tests for the delta/observability entry points across the facade:
//!
//! * the [`Touched`] footprints of `ConfigurationSpace::neighbor_move` /
//!   `ConfigurationSpace::crossover_move` match the actual per-component diff;
//! * `ShardedCampaign::run_observed` is bit-identical to `ShardedCampaign::run`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use workdist::autotune::{ConfigurationSpace, SystemConfiguration};
use workdist::dist::{MemoryStore, ShardedCampaign};
use workdist::obs::Registry;
use workdist::opt::{Objective, SearchSpace, Touched};

/// Cheap deterministic stand-in for the predicted work-distribution energy: wavy in
/// every configuration parameter so a wrong move or footprint almost surely shows.
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

/// The footprint convention of `ConfigurationSpace`: component 0 is the host,
/// component `i + 1` is accelerator `i`.
fn diff_components(a: &SystemConfiguration, b: &SystemConfiguration) -> Vec<usize> {
    let mut touched = Vec::new();
    if a.host_threads != b.host_threads
        || a.host_affinity != b.host_affinity
        || a.host_permille() != b.host_permille()
    {
        touched.push(0);
    }
    for (index, (da, db)) in a.devices().iter().zip(b.devices()).enumerate() {
        if da != db {
            touched.push(index + 1);
        }
    }
    touched
}

#[test]
fn configuration_space_neighbor_move_reports_its_exact_footprint() {
    for space in [ConfigurationSpace::tiny(), ConfigurationSpace::tiny_multi()] {
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut current = space.random(&mut StdRng::seed_from_u64(seed ^ 0x5EED));
            for _ in 0..50 {
                let (moved, touched) = space.neighbor_move(&current, &mut rng);
                assert_eq!(
                    touched,
                    Touched::Components(diff_components(&moved, &current)),
                    "seed {seed}"
                );
                current = moved;
            }
        }
    }
}

#[test]
fn configuration_space_crossover_move_reports_its_exact_footprint() {
    for space in [ConfigurationSpace::tiny(), ConfigurationSpace::tiny_multi()] {
        for seed in 0..16u64 {
            let mut setup = StdRng::seed_from_u64(seed.wrapping_mul(31));
            let parent_a = space.random(&mut setup);
            let parent_b = space.random(&mut setup);
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..50 {
                let (child, touched) = space.crossover_move(&parent_a, &parent_b, &mut rng);
                assert_eq!(
                    touched,
                    Touched::Components(diff_components(&child, &parent_a)),
                    "seed {seed}"
                );
            }
        }
    }
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

/// FNV-1a over the `Debug` text of every move: the configuration and its footprint.
fn digest_moves(space: &ConfigurationSpace, seed: u64, steps: usize) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |config: &SystemConfiguration, touched: &Touched| {
        for byte in format!("{config:?} {touched:?};").bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = space.random(&mut rng);
    let mut mate = space.random(&mut rng);
    for _ in 0..steps {
        let (next, touched) = space.neighbor_move(&current, &mut rng);
        feed(&next, &touched);
        let (child, touched) = space.crossover_move(&next, &mate, &mut rng);
        feed(&child, &touched);
        mate = next;
        current = child;
    }
    digest
}

#[test]
fn neighbor_and_crossover_move_streams_match_their_recorded_digests() {
    use workdist::platform::Affinity;
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
    // recorded with the brute-force split scans the split-move index must reproduce
    let expected = [
        ("paper", 1_164_798_316, 0xb5a6_8846_8ce0_50bd),
        ("paper", 20_161_021, 0x0dbb_2652_4523_4358),
        ("tiny_multi", 1_164_798_316, 0x716c_3aa7_0be7_ff12),
        ("tiny_multi", 20_161_021, 0xbd80_64fd_7ab6_236e),
        ("unsorted", 1_164_798_316, 0x44bb_e877_6312_1650),
        ("unsorted", 20_161_021, 0x3b0c_6d3e_7feb_6f78),
    ];
    assert_eq!(digests, expected);
}
