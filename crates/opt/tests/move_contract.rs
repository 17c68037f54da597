//! Contract tests for the `*_move` entry points of [`SearchSpace`]: the move
//! variants must consume **exactly** the same RNG draws as their footprint-free
//! counterparts (`neighbor` / `crossover`), so that delta-evaluated trajectories are
//! bit-identical to full re-evaluation, and the reported [`Touched`] footprint must
//! never under-approximate the actual per-component diff.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wd_opt::space::GridSpace;
use wd_opt::{InstrumentedSpace, MaterializedOnly, SearchSpace, Touched};

/// After replaying the same move sequence through two RNG clones, both streams must
/// be at the same position: drawing once more yields the same value.
fn assert_rngs_in_sync(a: &mut StdRng, b: &mut StdRng) {
    assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "RNG streams diverged");
}

#[test]
fn grid_neighbor_move_is_bit_identical_to_neighbor_and_footprint_is_exact() {
    let space = GridSpace {
        width: 13,
        height: 7,
    };
    for seed in 0..32u64 {
        let mut plain_rng = StdRng::seed_from_u64(seed);
        let mut move_rng = StdRng::seed_from_u64(seed);
        let mut current = space.random(&mut StdRng::seed_from_u64(seed ^ 0xA5A5));
        for _ in 0..200 {
            let plain = space.neighbor(&current, &mut plain_rng);
            let (moved, touched) = space.neighbor_move(&current, &mut move_rng);
            assert_eq!(plain, moved, "seed {seed}");
            let Touched::Components(components) = touched else {
                panic!("GridSpace must report an exact footprint");
            };
            assert_eq!(components.contains(&0), moved.0 != current.0, "seed {seed}");
            assert_eq!(components.contains(&1), moved.1 != current.1, "seed {seed}");
            current = moved;
        }
        assert_rngs_in_sync(&mut plain_rng, &mut move_rng);
    }
}

#[test]
fn grid_crossover_move_is_bit_identical_to_crossover_and_diffs_against_parent_a() {
    let space = GridSpace {
        width: 64,
        height: 64,
    };
    for seed in 0..32u64 {
        let mut setup = StdRng::seed_from_u64(seed.wrapping_mul(977));
        let parent_a = space.random(&mut setup);
        let parent_b = space.random(&mut setup);
        let mut plain_rng = StdRng::seed_from_u64(seed);
        let mut move_rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let plain = space.crossover(&parent_a, &parent_b, &mut plain_rng);
            let (child, touched) = space.crossover_move(&parent_a, &parent_b, &mut move_rng);
            assert_eq!(plain, child, "seed {seed}");
            let Touched::Components(components) = touched else {
                panic!("GridSpace must report an exact crossover footprint");
            };
            assert_eq!(
                components.contains(&0),
                child.0 != parent_a.0,
                "seed {seed}"
            );
            assert_eq!(
                components.contains(&1),
                child.1 != parent_a.1,
                "seed {seed}"
            );
        }
        assert_rngs_in_sync(&mut plain_rng, &mut move_rng);
    }
}

/// The wrappers must forward both move entry points verbatim — same configs, same
/// footprints, same RNG consumption as the wrapped space.
#[test]
fn wrappers_forward_moves_verbatim() {
    let grid = GridSpace {
        width: 9,
        height: 11,
    };
    let instrumented = InstrumentedSpace::new(&grid);
    let materialized_only = MaterializedOnly::new(&grid);

    for seed in 0..16u64 {
        let mut setup = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let current = grid.random(&mut setup);
        let other = grid.random(&mut setup);

        let mut base_rng = StdRng::seed_from_u64(seed);
        let base = grid.neighbor_move(&current, &mut base_rng);
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(instrumented.neighbor_move(&current, &mut rng), base);
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(materialized_only.neighbor_move(&current, &mut rng), base);

        let mut base_rng = StdRng::seed_from_u64(seed);
        let base = grid.crossover_move(&current, &other, &mut base_rng);
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(
            instrumented.crossover_move(&current, &other, &mut rng),
            base
        );
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(
            materialized_only.crossover_move(&current, &other, &mut rng),
            base
        );
    }
}

/// A space that overrides only the footprint-free entry points: the trait's default
/// `neighbor_move` / `crossover_move` must delegate (same configs, same RNG draws)
/// and report [`Touched::Unknown`] — the safe over-approximation.
struct OpaquePair;

impl SearchSpace for OpaquePair {
    type Config = (u32, u32);

    fn random(&self, rng: &mut StdRng) -> (u32, u32) {
        (rng.gen_range(0..100), rng.gen_range(0..100))
    }

    fn neighbor(&self, config: &(u32, u32), rng: &mut StdRng) -> (u32, u32) {
        (config.0 ^ rng.gen_range(1..4u32), config.1)
    }

    fn cardinality(&self) -> Option<u128> {
        None
    }

    fn enumerate(&self) -> Option<Vec<(u32, u32)>> {
        None
    }
}

#[test]
fn default_moves_delegate_and_report_unknown() {
    let space = OpaquePair;
    for seed in 0..16u64 {
        let mut setup = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let current = space.random(&mut setup);
        let other = space.random(&mut setup);

        let mut plain_rng = StdRng::seed_from_u64(seed);
        let mut move_rng = StdRng::seed_from_u64(seed);
        let plain = space.neighbor(&current, &mut plain_rng);
        let (moved, touched) = space.neighbor_move(&current, &mut move_rng);
        assert_eq!(plain, moved);
        assert_eq!(touched, Touched::Unknown);
        let plain = space.crossover(&current, &other, &mut plain_rng);
        let (child, touched) = space.crossover_move(&current, &other, &mut move_rng);
        assert_eq!(plain, child);
        assert_eq!(touched, Touched::Unknown);
        assert_rngs_in_sync(&mut plain_rng, &mut move_rng);
    }
}
