//! The search-space abstraction.

use rand::rngs::StdRng;
use rand::Rng;

/// A discrete configuration space that heuristics can sample and perturb.
///
/// Implementations describe *how the space looks* (random configurations, moves,
/// optional indexed enumeration); they know nothing about the objective.
pub trait SearchSpace {
    /// The configuration type.
    type Config: Clone;

    /// Draw a uniformly random configuration.
    fn random(&self, rng: &mut StdRng) -> Self::Config;

    /// Produce a configuration "close to" `config` (one or a few parameters changed).
    fn neighbor_move(&self, config: &Self::Config, rng: &mut StdRng) -> Self::Config;

    /// The whole enumeration order as one `Vec`, when the space can build it.
    ///
    /// No driver calls this: the enumeration drivers stream the space through
    /// [`SearchSpace::space_len`] / [`SearchSpace::config_at`] instead.  It is the
    /// reference order that tests check `config_at` against.
    fn enumerate(&self) -> Option<Vec<Self::Config>> {
        None
    }

    /// Number of configurations reachable through [`SearchSpace::config_at`], when the
    /// space supports indexed access to its enumeration order.  The enumeration
    /// drivers (the paper's EM and EML) require it and reject spaces that return
    /// `None`.
    ///
    /// Returning `Some(n)` is a contract: `config_at(i)` must return `Some` for every
    /// `i < n` and `None` for `i >= n`, and the sequence `config_at(0), ...,
    /// config_at(n - 1)` must be exactly the [`SearchSpace::enumerate`] sequence
    /// whenever both are provided.  It bounds a driver's peak allocation by its
    /// chunk size instead of the space cardinality.
    fn space_len(&self) -> Option<usize> {
        None
    }

    /// The configuration at position `index` of the enumeration order, when the space
    /// supports indexed access (see [`SearchSpace::space_len`]).
    fn config_at(&self, index: usize) -> Option<Self::Config> {
        let _ = index;
        None
    }

    /// Recombine two parent configurations (used by the genetic algorithm).  The
    /// genetic algorithm scores the child against the **first** parent (`parent_a`),
    /// so a [`crate::DeltaObjective`] recomputes only the components in which the
    /// two differ.
    ///
    /// The default implementation returns one of the parents unchanged, which
    /// degrades the GA into a mutation-only evolutionary algorithm but keeps the
    /// trait easy to implement.
    fn crossover_move(
        &self,
        parent_a: &Self::Config,
        parent_b: &Self::Config,
        rng: &mut StdRng,
    ) -> Self::Config {
        if rng.gen_bool(0.5) {
            parent_a.clone()
        } else {
            parent_b.clone()
        }
    }
}

/// A small, fully enumerable test space used by the crate's own unit tests: the grid
/// `{0..width} x {0..height}` with ±1 neighbourhood moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSpace {
    /// Exclusive upper bound of the first coordinate.
    pub width: u32,
    /// Exclusive upper bound of the second coordinate.
    pub height: u32,
}

impl SearchSpace for GridSpace {
    type Config = (u32, u32);

    fn random(&self, rng: &mut StdRng) -> Self::Config {
        (rng.gen_range(0..self.width), rng.gen_range(0..self.height))
    }

    /// The ±1 move in each coordinate, clamped to the grid.
    fn neighbor_move(&self, config: &Self::Config, rng: &mut StdRng) -> Self::Config {
        let (x, y) = *config;
        let dx: i64 = rng.gen_range(-1..=1);
        let dy: i64 = rng.gen_range(-1..=1);
        (
            (x as i64 + dx).clamp(0, self.width as i64 - 1) as u32,
            (y as i64 + dy).clamp(0, self.height as i64 - 1) as u32,
        )
    }

    fn enumerate(&self) -> Option<Vec<Self::Config>> {
        let mut all = Vec::with_capacity((self.width * self.height) as usize);
        for x in 0..self.width {
            for y in 0..self.height {
                all.push((x, y));
            }
        }
        Some(all)
    }

    fn space_len(&self) -> Option<usize> {
        Some(self.width as usize * self.height as usize)
    }

    fn config_at(&self, index: usize) -> Option<Self::Config> {
        if index >= self.width as usize * self.height as usize {
            return None;
        }
        // x-major, y-minor: the `enumerate` order
        Some((
            (index / self.height as usize) as u32,
            (index % self.height as usize) as u32,
        ))
    }

    /// Uniform per-coordinate crossover.
    fn crossover_move(
        &self,
        parent_a: &Self::Config,
        parent_b: &Self::Config,
        rng: &mut StdRng,
    ) -> Self::Config {
        (
            if rng.gen_bool(0.5) {
                parent_a.0
            } else {
                parent_b.0
            },
            if rng.gen_bool(0.5) {
                parent_a.1
            } else {
                parent_b.1
            },
        )
    }
}

/// Instrumentation wrapper around any [`SearchSpace`]: counts how many single
/// configurations the wrapped space serves by index ([`SearchSpace::config_at`]).
///
/// Tests use it to *prove* that the streaming drivers never materialise a space:
/// after a run, every configuration must have flowed through `config_at` one chunk
/// at a time.  It forwards everything a driver calls, which excludes
/// [`SearchSpace::enumerate`].
pub struct InstrumentedSpace<'a, S> {
    inner: &'a S,
    config_at_calls: std::sync::atomic::AtomicUsize,
}

impl<'a, S> InstrumentedSpace<'a, S> {
    /// Wrap a space with a zeroed counter.
    pub fn new(inner: &'a S) -> Self {
        InstrumentedSpace {
            inner,
            config_at_calls: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// How many single configurations were served by index.
    pub fn config_at_calls(&self) -> usize {
        self.config_at_calls
            .load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl<S: SearchSpace> SearchSpace for InstrumentedSpace<'_, S> {
    type Config = S::Config;

    fn random(&self, rng: &mut StdRng) -> S::Config {
        self.inner.random(rng)
    }

    fn neighbor_move(&self, config: &S::Config, rng: &mut StdRng) -> S::Config {
        self.inner.neighbor_move(config, rng)
    }

    fn space_len(&self) -> Option<usize> {
        self.inner.space_len()
    }

    fn config_at(&self, index: usize) -> Option<S::Config> {
        self.config_at_calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.config_at(index)
    }

    fn crossover_move(
        &self,
        parent_a: &S::Config,
        parent_b: &S::Config,
        rng: &mut StdRng,
    ) -> S::Config {
        self.inner.crossover_move(parent_a, parent_b, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn grid_space_samples_within_bounds() {
        let space = GridSpace {
            width: 7,
            height: 3,
        };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let (x, y) = space.random(&mut rng);
            assert!(x < 7 && y < 3);
        }
    }

    #[test]
    fn grid_neighbors_stay_close_and_in_bounds() {
        let space = GridSpace {
            width: 5,
            height: 5,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut config = (2u32, 2u32);
        for _ in 0..500 {
            let next = space.neighbor_move(&config, &mut rng);
            assert!((next.0 as i64 - config.0 as i64).abs() <= 1);
            assert!((next.1 as i64 - config.1 as i64).abs() <= 1);
            assert!(next.0 < 5 && next.1 < 5);
            config = next;
        }
    }

    #[test]
    fn grid_enumeration_matches_cardinality() {
        let space = GridSpace {
            width: 6,
            height: 4,
        };
        let all = space.enumerate().unwrap();
        assert_eq!(Some(all.len()), space.space_len());
        // no duplicates
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn grid_indexed_access_matches_enumeration_order() {
        let space = GridSpace {
            width: 6,
            height: 4,
        };
        let all = space.enumerate().unwrap();
        assert_eq!(space.space_len(), Some(all.len()));
        for (index, config) in all.iter().enumerate() {
            assert_eq!(space.config_at(index), Some(*config));
        }
        assert_eq!(space.config_at(all.len()), None);
    }

    #[test]
    fn instrumented_space_counts_indexed_access() {
        let space = GridSpace {
            width: 3,
            height: 3,
        };
        let instrumented = InstrumentedSpace::new(&space);
        assert_eq!(instrumented.config_at_calls(), 0);
        assert_eq!(instrumented.space_len(), Some(9));
        let _ = instrumented.config_at(4);
        let _ = instrumented.config_at(5);
        assert_eq!(instrumented.config_at_calls(), 2);
    }

    #[test]
    fn default_crossover_returns_one_parent() {
        struct Unit;
        impl SearchSpace for Unit {
            type Config = u8;
            fn random(&self, _rng: &mut StdRng) -> u8 {
                0
            }
            fn neighbor_move(&self, c: &u8, _rng: &mut StdRng) -> u8 {
                *c
            }
        }
        let mut rng = StdRng::seed_from_u64(3);
        let child = Unit.crossover_move(&1, &2, &mut rng);
        assert!(child == 1 || child == 2);
        assert_eq!(Unit.space_len(), None);
        assert!(Unit.enumerate().is_none());
    }

    #[test]
    fn grid_crossover_mixes_coordinates() {
        let space = GridSpace {
            width: 10,
            height: 10,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let mut saw_mix = false;
        for _ in 0..100 {
            let child = space.crossover_move(&(0, 0), &(9, 9), &mut rng);
            assert!(child == (0, 0) || child == (9, 9) || child == (0, 9) || child == (9, 0));
            if child == (0, 9) || child == (9, 0) {
                saw_mix = true;
            }
        }
        assert!(
            saw_mix,
            "uniform crossover should sometimes mix coordinates"
        );
    }
}
