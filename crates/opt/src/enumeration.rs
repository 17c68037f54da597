//! Exhaustive enumeration ("brute force") of the configuration space.
//!
//! Enumeration underlies the paper's EM and EML reference methods: it is guaranteed to
//! find the optimum but requires one evaluation per configuration — 19 926 experiments
//! for the paper's grid — which is exactly the cost the SA-based methods avoid.
//!
//! Two drivers are provided:
//!
//! * [`ParallelEnumeration`] — the driver the tuner runs: the space is cut into
//!   contiguous batches which are scored through [`Objective::evaluate_batch`] on
//!   rayon workers, letting batch-capable objectives (the platform's
//!   `execute_many`, vectorised prediction models, a shared
//!   [`crate::CachedObjective`]) amortise per-call overheads.  Results are
//!   bit-identical to the sequential scan regardless of thread count or batch size:
//!   ties are broken towards the earliest configuration in enumeration order.
//! * [`Enumeration`] — the one-configuration-at-a-time reference scan that tests
//!   compare the batched driver against.
//!
//! Both drivers read the space through its indexed contract only
//! ([`SearchSpace::space_len`] / [`SearchSpace::config_at`]) and are
//! **zero-materialization**: configurations are produced by global index in
//! fixed-size chunks and dropped as soon as their batch is scored, so peak allocation
//! is bounded by the batch size (times the number of workers), not by the space
//! cardinality.  A space without `space_len` is rejected with
//! [`EnumerationError::NotEnumerable`].

use rayon::prelude::*;

use crate::objective::{CountingObjective, Objective};
use crate::outcome::{better_indexed as better, IndexedOutcome, Outcome};
use crate::space::SearchSpace;
use crate::trace::OptimizationTrace;

/// The indexed-contract clause quoted by [`EnumerationError::MissingConfig`]: a space
/// claims `space_len()` coverage, so `config_at` must succeed inside it.
const COVERAGE: &str = "space_len() implies config_at() coverage for every index below it";

/// Why an enumeration run could not produce an outcome.
///
/// These are contract violations of the *space*, not evaluation failures:
/// [`Enumeration::run`] and [`ParallelEnumeration::try_run_indexed`] surface them as
/// values so long-lived callers can recover, and the panicking
/// [`ParallelEnumeration::run`] raises them for exploratory code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnumerationError {
    /// The space has no indexed access ([`SearchSpace::space_len`] returns `None`).
    NotEnumerable,
    /// The space reported zero configurations.
    Empty,
    /// The space promised `space_len()` coverage but `config_at(index)` returned
    /// `None` inside that range.
    MissingConfig {
        /// The enumeration index that failed to materialise.
        index: usize,
    },
}

impl std::fmt::Display for EnumerationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnumerationError::NotEnumerable => write!(
                f,
                "enumeration requires an enumerable search space (one with space_len())"
            ),
            EnumerationError::Empty => write!(f, "cannot enumerate an empty space"),
            EnumerationError::MissingConfig { index } => write!(
                f,
                "search space broke its indexing contract ({COVERAGE}): \
                 config_at({index}) returned None"
            ),
        }
    }
}

impl std::error::Error for EnumerationError {}

/// The number of configurations `space` serves by index.
fn indexed_len<S: SearchSpace>(space: &S) -> Result<usize, EnumerationError> {
    match space.space_len() {
        None => Err(EnumerationError::NotEnumerable),
        Some(0) => Err(EnumerationError::Empty),
        Some(len) => Ok(len),
    }
}

/// The configuration at `index`, which `space` promised through its `space_len`.
fn config_at<S: SearchSpace>(space: &S, index: usize) -> Result<S::Config, EnumerationError> {
    space
        .config_at(index)
        .ok_or(EnumerationError::MissingConfig { index })
}

/// Exhaustive search over an enumerable space, one evaluation at a time: the
/// sequential reference scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Enumeration;

impl Enumeration {
    /// Run the exhaustive search.
    ///
    /// # Errors
    ///
    /// [`EnumerationError::NotEnumerable`] when the space has no indexed access,
    /// [`EnumerationError::Empty`] for zero configurations, and
    /// [`EnumerationError::MissingConfig`] when `config_at` breaks the `space_len()`
    /// coverage contract.
    pub fn run<S, O>(
        &self,
        space: &S,
        objective: &O,
    ) -> Result<Outcome<S::Config>, EnumerationError>
    where
        S: SearchSpace,
        O: Objective<S::Config> + ?Sized,
    {
        let len = indexed_len(space)?;
        let counting = CountingObjective::new(objective);
        // streaming fold: the scan never holds more than one configuration
        let mut best: Option<(usize, f64)> = None;
        for index in 0..len {
            let scored = (index, counting.evaluate(&config_at(space, index)?));
            best = Some(best.map_or(scored, |incumbent| better(incumbent, scored)));
        }
        let (best_index, best_energy) = best.ok_or(EnumerationError::Empty)?;
        Ok(Outcome {
            best_config: config_at(space, best_index)?,
            best_energy,
            evaluations: counting.evaluations(),
            trace: OptimizationTrace::new(),
        })
    }
}

/// Default number of configurations per batch of [`ParallelEnumeration`].
pub const DEFAULT_BATCH_SIZE: usize = 512;

/// Exhaustive search that scores the space in parallel batches via
/// [`Objective::evaluate_batch`].
///
/// This is the enumeration driver the tuner runs: for objectives with a batch-capable
/// backend every batch becomes one bulk request, and for plain objectives the batches
/// still spread over rayon workers.  Each worker materialises at most one batch of
/// configurations at a time.  The outcome is deterministic — identical to
/// [`Enumeration`] — independent of thread count and batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelEnumeration {
    /// Number of configurations per [`Objective::evaluate_batch`] call.
    pub batch_size: usize,
}

impl Default for ParallelEnumeration {
    fn default() -> Self {
        ParallelEnumeration {
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }
}

impl ParallelEnumeration {
    /// Batched enumeration with the default batch size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the batch size (values below 1 are clamped to 1).
    pub fn with_batch_size(batch_size: usize) -> Self {
        ParallelEnumeration {
            batch_size: batch_size.max(1),
        }
    }

    /// Run the exhaustive batched search.
    ///
    /// Delegates to [`ParallelEnumeration::run_indexed`] — there is exactly one
    /// chunk/merge implementation.
    ///
    /// # Panics
    ///
    /// Panics on any [`EnumerationError`];
    /// [`ParallelEnumeration::try_run_indexed`] surfaces the same conditions as
    /// values.
    pub fn run<S, O>(&self, space: &S, objective: &O) -> Outcome<S::Config>
    where
        S: SearchSpace + Sync,
        S::Config: Send + Sync,
        O: Objective<S::Config> + Sync + ?Sized,
    {
        self.run_indexed(space, objective).outcome
    }

    /// Run the exhaustive batched search and also report the enumeration-order index of
    /// the best configuration.
    ///
    /// The index is what distributed drivers need: merging per-node bests by global
    /// enumeration index with [`crate::better_indexed`] reproduces the single-node
    /// result exactly.
    ///
    /// # Panics
    ///
    /// Panics on any [`EnumerationError`];
    /// [`ParallelEnumeration::try_run_indexed`] surfaces the same conditions as
    /// values.
    pub fn run_indexed<S, O>(&self, space: &S, objective: &O) -> IndexedOutcome<S::Config>
    where
        S: SearchSpace + Sync,
        S::Config: Send + Sync,
        O: Objective<S::Config> + Sync + ?Sized,
    {
        self.try_run_indexed(space, objective)
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// Run the exhaustive batched search, reporting the enumeration-order index of
    /// the best configuration and surfacing space-contract violations as values.
    ///
    /// # Errors
    ///
    /// [`EnumerationError::NotEnumerable`] when the space has no indexed access,
    /// [`EnumerationError::Empty`] for zero configurations, and
    /// [`EnumerationError::MissingConfig`] when `config_at` breaks the `space_len()`
    /// coverage contract.
    pub fn try_run_indexed<S, O>(
        &self,
        space: &S,
        objective: &O,
    ) -> Result<IndexedOutcome<S::Config>, EnumerationError>
    where
        S: SearchSpace + Sync,
        S::Config: Send + Sync,
        O: Objective<S::Config> + Sync + ?Sized,
    {
        let len = indexed_len(space)?;
        let counting = CountingObjective::new(objective);
        let batch_size = self.batch_size.max(1);

        // Score each contiguous chunk on a rayon worker, reducing every chunk to its
        // local best before the (cheap, sequential) global reduction.  The chunk's
        // configurations are materialised here and dropped at the end of the
        // closure — the full grid never exists at once.
        let chunk_count = len.div_ceil(batch_size);
        let best = (0..chunk_count)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|chunk| -> Result<(usize, f64), EnumerationError> {
                let start = chunk * batch_size;
                let end = (start + batch_size).min(len);
                let batch = (start..end)
                    .map(|index| config_at(space, index))
                    .collect::<Result<Vec<_>, _>>()?;
                counting
                    .evaluate_batch(&batch)
                    .into_iter()
                    .enumerate()
                    .map(|(local, energy)| (start + local, energy))
                    .reduce(better)
                    // chunk ranges are non-empty by construction (start < end <= len)
                    .ok_or(EnumerationError::Empty)
            })
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .reduce(better)
            .ok_or(EnumerationError::Empty)?;

        Ok(IndexedOutcome {
            best_index: best.0,
            outcome: Outcome {
                best_config: config_at(space, best.0)?,
                best_energy: best.1,
                evaluations: counting.evaluations(),
                trace: OptimizationTrace::new(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::CachedObjective;
    use crate::space::{GridSpace, InstrumentedSpace};
    use rand::rngs::StdRng;

    fn bowl(config: &(u32, u32)) -> f64 {
        let dx = config.0 as f64 - 13.0;
        let dy = config.1 as f64 - 5.0;
        dx * dx + dy * dy
    }

    /// A space with neither indexed access nor an enumeration.
    struct Opaque;

    impl SearchSpace for Opaque {
        type Config = u8;
        fn random(&self, _rng: &mut StdRng) -> u8 {
            0
        }
        fn neighbor_move(&self, c: &u8, _rng: &mut StdRng) -> u8 {
            *c
        }
    }

    /// A space that can build its enumeration `Vec` but serves no index: the
    /// drivers must reject it instead of materialising it.
    struct EnumerateOnly;

    impl SearchSpace for EnumerateOnly {
        type Config = u8;
        fn random(&self, _rng: &mut StdRng) -> u8 {
            0
        }
        fn neighbor_move(&self, c: &u8, _rng: &mut StdRng) -> u8 {
            *c
        }
        fn enumerate(&self) -> Option<Vec<u8>> {
            Some((0..8).collect())
        }
    }

    #[test]
    fn finds_the_exact_optimum() {
        let space = GridSpace {
            width: 40,
            height: 20,
        };
        let outcome = Enumeration.run(&space, &bowl).unwrap();
        assert_eq!(outcome.best_config, (13, 5));
        assert_eq!(outcome.best_energy, 0.0);
        assert_eq!(outcome.evaluations, 40 * 20);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let space = GridSpace {
            width: 64,
            height: 48,
        };
        let sequential = Enumeration.run(&space, &bowl).unwrap();
        let parallel = ParallelEnumeration::new().run(&space, &bowl);
        assert_eq!(sequential.best_config, parallel.best_config);
        assert_eq!(sequential.best_energy, parallel.best_energy);
        assert_eq!(sequential.evaluations, parallel.evaluations);
    }

    #[test]
    fn batched_enumeration_matches_sequential_for_any_batch_size() {
        let space = GridSpace {
            width: 37,
            height: 29,
        };
        let sequential = Enumeration.run(&space, &bowl).unwrap();
        for batch_size in [1usize, 7, 64, 512, 10_000] {
            let batched = ParallelEnumeration::with_batch_size(batch_size).run(&space, &bowl);
            assert_eq!(
                batched.best_config, sequential.best_config,
                "batch {batch_size}"
            );
            assert_eq!(batched.best_energy, sequential.best_energy);
            assert_eq!(batched.evaluations, 37 * 29);
        }
    }

    #[test]
    fn lazy_and_materialized_paths_are_bit_identical() {
        let space = GridSpace {
            width: 41,
            height: 17,
        };
        // the reference: a fold over the materialised `enumerate()` order
        let configs = space.enumerate().unwrap();
        let (best_index, best_energy) =
            configs.iter().map(bowl).enumerate().reduce(better).unwrap();
        for batch_size in [1usize, 13, 512] {
            let driver = ParallelEnumeration::with_batch_size(batch_size);
            let lazy = driver.run_indexed(&space, &bowl);
            assert_eq!(lazy.best_index, best_index);
            assert_eq!(lazy.outcome.best_config, configs[best_index]);
            assert_eq!(lazy.outcome.best_energy.to_bits(), best_energy.to_bits());
            assert_eq!(lazy.outcome.evaluations, configs.len());
        }
    }

    #[test]
    fn indexed_spaces_are_never_materialized() {
        let space = GridSpace {
            width: 30,
            height: 30,
        };
        let instrumented = InstrumentedSpace::new(&space);
        let outcome = ParallelEnumeration::with_batch_size(64).run(&instrumented, &bowl);
        assert_eq!(outcome.best_config, (13, 5));
        // every configuration was served by index, plus one re-materialisation of
        // the winner
        assert_eq!(instrumented.config_at_calls(), 900 + 1);

        let instrumented = InstrumentedSpace::new(&space);
        let classic = Enumeration.run(&instrumented, &bowl).unwrap();
        assert_eq!(classic.best_config, (13, 5));
        assert_eq!(instrumented.config_at_calls(), 900 + 1);
    }

    #[test]
    fn run_indexed_reports_the_enumeration_position_of_the_best() {
        let space = GridSpace {
            width: 20,
            height: 10,
        };
        let indexed = ParallelEnumeration::with_batch_size(17).run_indexed(&space, &bowl);
        let configs = space.enumerate().unwrap();
        assert_eq!(configs[indexed.best_index], indexed.outcome.best_config);
        assert_eq!(indexed.outcome.best_config, (13, 5));
        assert_eq!(indexed.outcome.evaluations, 200);
    }

    #[test]
    fn ties_break_towards_the_earliest_configuration() {
        // A plateau objective: every configuration has the same energy, so the winner
        // must be the first configuration in enumeration order for every driver.
        let space = GridSpace {
            width: 9,
            height: 11,
        };
        let flat = |_: &(u32, u32)| 1.0;
        let first = space.enumerate().unwrap()[0];
        assert_eq!(Enumeration.run(&space, &flat).unwrap().best_config, first);
        assert_eq!(
            ParallelEnumeration::with_batch_size(13)
                .run(&space, &flat)
                .best_config,
            first
        );
    }

    #[test]
    fn batched_enumeration_through_a_cache_evaluates_each_config_once() {
        let space = GridSpace {
            width: 16,
            height: 16,
        };
        let cached = CachedObjective::new(&bowl);
        let cold = ParallelEnumeration::new().run(&space, &cached);
        assert_eq!(cached.stats().misses, 256);
        assert_eq!(cached.stats().hits, 0);

        // a warm re-run answers everything from the cache and returns the same result
        let warm = ParallelEnumeration::new().run(&space, &cached);
        assert_eq!(cached.stats().misses, 256);
        assert_eq!(cached.stats().hits, 256);
        assert_eq!(warm.best_config, cold.best_config);
        assert_eq!(warm.best_energy, cold.best_energy);
    }

    #[test]
    fn evaluation_count_equals_cardinality() {
        let space = GridSpace {
            width: 17,
            height: 23,
        };
        let outcome = ParallelEnumeration::new().run(&space, &bowl);
        assert_eq!(Some(outcome.evaluations), space.space_len());
    }

    #[test]
    #[should_panic(expected = "enumeration requires an enumerable search space")]
    fn batched_enumeration_also_requires_an_enumerable_space() {
        let _ = ParallelEnumeration::new().run(&Opaque, &|c: &u8| *c as f64);
    }

    #[test]
    fn try_runs_surface_contract_violations_as_values() {
        let objective = |c: &u8| f64::from(*c);
        // neither an index nor an enumeration, and an enumeration without an index:
        // both are rejected, neither is materialised
        assert_eq!(
            Enumeration.run(&Opaque, &objective).unwrap_err(),
            EnumerationError::NotEnumerable
        );
        assert_eq!(
            ParallelEnumeration::new()
                .try_run_indexed(&Opaque, &objective)
                .unwrap_err(),
            EnumerationError::NotEnumerable
        );
        assert_eq!(
            Enumeration.run(&EnumerateOnly, &objective).unwrap_err(),
            EnumerationError::NotEnumerable
        );
        assert_eq!(
            ParallelEnumeration::new()
                .try_run_indexed(&EnumerateOnly, &objective)
                .unwrap_err(),
            EnumerationError::NotEnumerable
        );

        let empty = GridSpace {
            width: 0,
            height: 5,
        };
        let grid_objective = |_: &(u32, u32)| 0.0;
        assert_eq!(
            Enumeration.run(&empty, &grid_objective).unwrap_err(),
            EnumerationError::Empty
        );
        assert_eq!(
            ParallelEnumeration::new()
                .try_run_indexed(&empty, &grid_objective)
                .unwrap_err(),
            EnumerationError::Empty
        );

        // the Ok path agrees with the panicking drivers bit for bit
        let space = GridSpace {
            width: 19,
            height: 7,
        };
        let indexed = ParallelEnumeration::with_batch_size(11)
            .try_run_indexed(&space, &bowl)
            .unwrap();
        let reference = ParallelEnumeration::with_batch_size(11).run_indexed(&space, &bowl);
        assert_eq!(indexed.best_index, reference.best_index);
        assert_eq!(indexed.outcome.best_config, reference.outcome.best_config);
        assert_eq!(
            indexed.outcome.best_energy.to_bits(),
            reference.outcome.best_energy.to_bits()
        );

        // errors display the condition (the panic wrappers re-raise these strings)
        assert!(EnumerationError::NotEnumerable
            .to_string()
            .contains("enumerable"));
        assert!(EnumerationError::Empty.to_string().contains("empty"));
        assert!(EnumerationError::MissingConfig { index: 3 }
            .to_string()
            .contains("config_at(3)"));
    }
}
