//! # wd-opt
//!
//! Combinatorial-optimization heuristics for discrete configuration spaces, built for
//! the reproduction of *Memeti & Pllana, Combinatorial Optimization of Work
//! Distribution on Heterogeneous Systems, ICPP Workshops 2016*.
//!
//! The paper's proposal uses **Simulated Annealing** (Section III-A, Fig. 3) to explore
//! the space of system configurations and compares it against exhaustive
//! **enumeration**.  Of the alternative meta-heuristics Section III-A lists, the
//! genetic algorithm is provided as well: it drives the GAML method.
//!
//! The crate is generic: anything implementing [`SearchSpace`] (how to sample and
//! perturb configurations) and [`Objective`] (how to score one configuration — lower is
//! better) can be optimized.
//!
//! [`Objective`] is the workspace's **single evaluation layer**: besides one-at-a-time
//! scoring it exposes [`Objective::evaluate_batch`] for bulk evaluation, which
//! batch-capable backends override to run many configurations in one parallel pass.
//! [`CachedObjective`] adds config-keyed memoization (with [`CacheStats`] hit/miss
//! counters) on top of any objective, and [`ParallelEnumeration`] drives an exhaustive
//! search through the batched path.  Separable objectives additionally implement
//! [`DeltaObjective`], the incremental-evaluation contract: the drivers
//! ([`SimulatedAnnealing::run_delta`], [`GeneticAlgorithm::run_delta`]) then re-score
//! each move by recomputing only the components the move touched
//! ([`SearchSpace::neighbor_move`]), bit-identically to full re-evaluation.
//!
//! ## Example
//!
//! ```
//! use wd_opt::{Objective, SearchSpace, SimulatedAnnealing};
//! use rand::rngs::StdRng;
//! use rand::Rng;
//!
//! /// Search space: integers 0..=1000; neighbours differ by at most ±10.
//! struct IntSpace;
//! impl SearchSpace for IntSpace {
//!     type Config = i64;
//!     fn random(&self, rng: &mut StdRng) -> i64 { rng.gen_range(0..=1000) }
//!     fn neighbor(&self, config: &i64, rng: &mut StdRng) -> i64 {
//!         (config + rng.gen_range(-10i64..=10)).clamp(0, 1000)
//!     }
//!     fn cardinality(&self) -> Option<u128> { Some(1001) }
//! }
//!
//! /// Objective: distance to 640 (minimum 0).
//! struct Distance;
//! impl Objective<i64> for Distance {
//!     fn evaluate(&self, config: &i64) -> f64 { (config - 640).abs() as f64 }
//! }
//!
//! let sa = SimulatedAnnealing::with_iteration_budget(500, 100.0, 42);
//! let outcome = sa.run(&IntSpace, &Distance);
//! assert!(outcome.best_energy < 25.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod delta;
pub mod enumeration;
pub mod genetic;
pub mod objective;
pub mod outcome;
pub mod sa;
pub mod schedule;
pub mod shard;
pub mod space;
mod sync;
pub mod trace;

pub use delta::{DeltaObjective, FullDelta, Touched};
pub use enumeration::{Enumeration, EnumerationError, ParallelEnumeration};
pub use genetic::{GeneticAlgorithm, GeneticParams};
pub use objective::{CacheStats, CachedObjective, CountingObjective, Objective};
pub use outcome::{better_indexed, IndexedOutcome, Outcome, ResilienceStats};
pub use sa::SimulatedAnnealing;
pub use schedule::CoolingSchedule;
pub use shard::ShardPlan;
pub use space::{InstrumentedSpace, MaterializedOnly, SearchSpace};
pub use trace::{IterationRecord, OptimizationTrace};
