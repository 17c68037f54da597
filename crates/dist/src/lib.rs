//! # wd-dist
//!
//! Sharded multi-node campaign coordinator with a persistent result store, the layer
//! between search ([`wd_opt`]) and evaluation for production-scale configuration
//! sweeps.
//!
//! The paper's reference methods enumerate the whole configuration grid on one
//! machine.  This crate scales that campaign out and makes it durable:
//!
//! * [`ShardedCampaign`] cuts any enumerable [`wd_opt::SearchSpace`] into
//!   deterministic contiguous shards ([`wd_opt::ShardPlan`]), scans each shard
//!   concurrently — one task per shard, each standing in for a node — in
//!   store-first batches, and merges per-shard bests with the
//!   lowest-energy/earliest-global-index rule ([`wd_opt::better_indexed`]).  The
//!   merged result is **bit-identical** to a single-node run for every shard count,
//!   batch size and shard completion order.
//! * [`ResultStore`] persists every `(configuration, energy)` pair as it is produced
//!   plus the merged [`wd_opt::CacheStats`] of each run.  [`JsonlStore`] is the
//!   on-disk implementation (append-only JSON lines, exact IEEE-754 round trip,
//!   tolerant of truncated tails), [`MemoryStore`] the in-process one.  A killed or
//!   repeated campaign resumes against a warm store with **zero** re-evaluations.
//! * [`ShardedCampaign::run_supervised`] adds fault tolerance on top: per-shard
//!   leases on a logical clock, capped-exponential-backoff retries, work-stealing
//!   of dead shards and idempotent store-first recovery, with deterministic fault
//!   injection ([`FaultPlan`]) to prove the whole stack converges to the
//!   bit-identical fault-free answer.  [`ShardedCampaign::run`] is its fault-free
//!   case, and [`ProcCampaign`] runs the same policy across worker processes: one
//!   pure [`scheduler::Scheduler`] makes every queue, retry, steal and abandon
//!   decision for both.  A torn line is skipped on reload and counted in
//!   [`JsonlStore::skipped_lines`], never half-parsed into a record.
//!
//! ## Example
//!
//! ```
//! use wd_dist::{MemoryStore, ShardedCampaign};
//! use wd_opt::space::GridSpace;
//! use wd_opt::{CountingObjective, ParallelEnumeration};
//!
//! let space = GridSpace { width: 20, height: 10 };
//! let objective = |c: &(u32, u32)| (c.0 as f64 - 7.0).abs() + (c.1 as f64 - 3.0).abs();
//!
//! // 4 "nodes", one persistent store
//! let store = MemoryStore::new();
//! let counting = CountingObjective::new(&objective);
//! let campaign = ShardedCampaign::new(4);
//! let outcome = campaign.run(&space, &counting, &store).unwrap();
//!
//! // bit-identical to the single-node scan
//! let reference = ParallelEnumeration::new().run(&space, &objective);
//! assert_eq!(outcome.best_config, reference.best_config);
//! assert_eq!(counting.evaluations(), 200);
//!
//! // a repeated campaign is answered entirely from the store
//! let counting = CountingObjective::new(&objective);
//! let resumed = campaign.run(&space, &counting, &store).unwrap();
//! assert_eq!(counting.evaluations(), 0);
//! assert_eq!(resumed.best_config, reference.best_config);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coordinator;
pub mod error;
pub mod fault;
pub mod key;
pub mod proc;
pub mod scheduler;
pub mod store;
pub mod supervisor;
mod sync;

pub use coordinator::{merge_shard_bests, CampaignOutcome, ShardReport, ShardedCampaign};
pub use error::CampaignError;
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultyObjective, FaultyStore};
pub use key::ConfigKey;
pub use proc::{
    ProcCampaign, ProcManifest, ProcOutcome, ProcReport, WorkDir, WorkloadSpec,
    PROC_MANIFEST_VERSION,
};
pub use scheduler::RetryPolicy;
pub use store::{
    read_result_records, JsonlStore, MemoryStore, ResultStore, StoreIoStats, STORE_SCHEMA_VERSION,
};
pub use supervisor::{AttemptRecord, FailureReason, SupervisedOutcome, SupervisionReport};
