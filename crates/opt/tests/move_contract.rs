//! Contract tests for the move entry points of [`SearchSpace`]
//! (`neighbor_move` / `crossover_move`) across wrappers.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wd_opt::space::GridSpace;
use wd_opt::{InstrumentedSpace, SearchSpace};

/// The instrumentation wrapper must forward both move entry points verbatim — same
/// configs, same RNG consumption as the wrapped space.
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
