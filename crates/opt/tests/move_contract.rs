//! Contract tests for the move entry points of [`SearchSpace`]
//! (`neighbor_move` / `crossover_move`): the reported [`Touched`] footprint must
//! never under-approximate the actual per-component diff, or delta-evaluated
//! trajectories stop being bit-identical to full re-evaluation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wd_opt::space::GridSpace;
use wd_opt::{InstrumentedSpace, SearchSpace, Touched};

#[test]
fn grid_neighbor_move_footprint_is_exact() {
    let space = GridSpace {
        width: 13,
        height: 7,
    };
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut current = space.random(&mut StdRng::seed_from_u64(seed ^ 0xA5A5));
        for _ in 0..200 {
            let (moved, touched) = space.neighbor_move(&current, &mut rng);
            let Touched::Components(components) = touched else {
                panic!("GridSpace must report an exact footprint");
            };
            assert_eq!(components.contains(&0), moved.0 != current.0, "seed {seed}");
            assert_eq!(components.contains(&1), moved.1 != current.1, "seed {seed}");
            current = moved;
        }
    }
}

#[test]
fn grid_crossover_move_footprint_diffs_against_parent_a() {
    let space = GridSpace {
        width: 64,
        height: 64,
    };
    for seed in 0..32u64 {
        let mut setup = StdRng::seed_from_u64(seed.wrapping_mul(977));
        let parent_a = space.random(&mut setup);
        let parent_b = space.random(&mut setup);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let (child, touched) = space.crossover_move(&parent_a, &parent_b, &mut rng);
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
    }
}

/// The instrumentation wrapper must forward both move entry points verbatim — same
/// configs, same footprints, same RNG consumption as the wrapped space.
#[test]
fn wrappers_forward_moves_verbatim() {
    let grid = GridSpace {
        width: 9,
        height: 11,
    };
    let instrumented = InstrumentedSpace::new(&grid);

    for seed in 0..16u64 {
        let mut setup = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let current = grid.random(&mut setup);
        let other = grid.random(&mut setup);

        let mut base_rng = StdRng::seed_from_u64(seed);
        let base = grid.neighbor_move(&current, &mut base_rng);
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(instrumented.neighbor_move(&current, &mut rng), base);

        let mut base_rng = StdRng::seed_from_u64(seed);
        let base = grid.crossover_move(&current, &other, &mut base_rng);
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(
            instrumented.crossover_move(&current, &other, &mut rng),
            base
        );
    }
}
