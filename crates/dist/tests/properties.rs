//! Property-based tests for the campaign coordinator: for random grids, shard counts
//! and batch sizes, the shard-merged outcome equals the single-node
//! `ParallelEnumeration` outcome bit-for-bit — for any shard completion order — and a
//! warm store answers a repeated campaign without a single new evaluation.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use wd_dist::{merge_shard_bests, MemoryStore, ShardReport, ShardedCampaign};
use wd_opt::space::GridSpace;
use wd_opt::{CountingObjective, ParallelEnumeration};

/// A deterministic objective with deliberately many exact ties (energies are small
/// integers), so the lowest-energy/earliest-global-index merge rule is exercised on
/// almost every case.
fn quantized(salt: u64) -> impl Fn(&(u32, u32)) -> f64 + Sync {
    move |config: &(u32, u32)| {
        let mixed = (u64::from(config.0) << 32 | u64::from(config.1))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ salt;
        (mixed % 5) as f64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: sharding is invisible in the result.
    #[test]
    fn sharded_campaign_is_bit_identical_to_single_node(
        width in 1u32..28,
        height in 1u32..20,
        shards in 1usize..12,
        batch in 1usize..70,
        salt in 0u64..1_000_000,
    ) {
        let space = GridSpace { width, height };
        let objective = quantized(salt);
        let reference = ParallelEnumeration::new().run_indexed(&space, &objective);

        let store = MemoryStore::new();
        let campaign = ShardedCampaign::new(shards).with_batch_size(batch);
        let outcome = campaign.run(&space, &objective, &store).unwrap();

        prop_assert_eq!(&outcome.best_config, &reference.outcome.best_config);
        prop_assert_eq!(
            outcome.best_energy.to_bits(),
            reference.outcome.best_energy.to_bits()
        );
        prop_assert_eq!(outcome.best_index, reference.best_index);
        prop_assert_eq!(outcome.evaluations, (width * height) as usize);
    }

    /// Shard results may arrive in any order: every permutation of the per-shard
    /// bests merges to the same winner.
    #[test]
    fn merge_is_independent_of_shard_completion_order(
        width in 1u32..24,
        height in 1u32..18,
        shards in 2usize..10,
        salt in 0u64..1_000_000,
        shuffle_seed in 0u64..10_000,
    ) {
        let space = GridSpace { width, height };
        let objective = quantized(salt);
        let store = MemoryStore::new();
        let outcome = ShardedCampaign::new(shards).run(&space, &objective, &store).unwrap();

        let mut bests: Vec<(usize, f64)> =
            outcome.shards.iter().map(ShardReport::best).collect();
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        for _ in 0..4 {
            bests.shuffle(&mut rng);
            let (index, energy) = merge_shard_bests(bests.iter().copied()).unwrap();
            prop_assert_eq!(index, outcome.best_index);
            prop_assert_eq!(energy.to_bits(), outcome.best_energy.to_bits());
        }
    }

    /// Resume-for-free: a repeated campaign against the warm store performs zero new
    /// evaluations and reproduces the cold result exactly, even when the shard count
    /// changes between runs.
    #[test]
    fn warm_store_resumes_any_shard_count_with_zero_evaluations(
        width in 1u32..24,
        height in 1u32..18,
        cold_shards in 1usize..10,
        warm_shards in 1usize..10,
        salt in 0u64..1_000_000,
    ) {
        let space = GridSpace { width, height };
        let objective = quantized(salt);
        let store = MemoryStore::new();

        let cold = ShardedCampaign::new(cold_shards).run(&space, &objective, &store).unwrap();
        prop_assert_eq!(cold.stats.misses, (width * height) as usize);

        let counting = CountingObjective::new(&objective);
        let warm = ShardedCampaign::new(warm_shards).run(&space, &counting, &store).unwrap();
        prop_assert_eq!(counting.evaluations(), 0);
        prop_assert_eq!(&warm.best_config, &cold.best_config);
        prop_assert_eq!(warm.best_energy.to_bits(), cold.best_energy.to_bits());
        prop_assert_eq!(warm.best_index, cold.best_index);
        prop_assert_eq!(warm.stats.hits, (width * height) as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `RetryPolicy::backoff_ticks` over the full `base`/`cap`/`retry_index`
    /// range: capped, monotone non-decreasing, exact doubling below the cap,
    /// and saturating (never panicking) for shift counts past 63.
    #[test]
    fn backoff_ticks_is_capped_monotone_and_saturating(
        base in 0u64..=u64::MAX,
        cap in 0u64..=u64::MAX,
        retry_index in 0usize..200,
    ) {
        let policy = wd_dist::RetryPolicy {
            max_attempts: 4,
            backoff_base: base,
            backoff_cap: cap,
            lease_ticks: 3,
        };
        let ticks = policy.backoff_ticks(retry_index);
        prop_assert!(ticks <= cap, "backoff {ticks} exceeds cap {cap}");
        prop_assert_eq!(policy.backoff_ticks(0), base.min(cap));
        if retry_index > 0 {
            let previous = policy.backoff_ticks(retry_index - 1);
            prop_assert!(previous <= ticks, "backoff shrank: {previous} -> {ticks}");
            // Below the cap nothing clamps or saturates, so the schedule is
            // exactly exponential.
            if ticks < cap {
                prop_assert_eq!(ticks, previous.saturating_mul(2));
            }
        }
        if base > 0 && retry_index >= 63 {
            // The shift would overflow; saturation must pin the result at the cap.
            prop_assert_eq!(ticks, cap);
        }
        if base == 0 {
            prop_assert_eq!(ticks, 0);
        }
    }
}
