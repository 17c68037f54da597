//! The campaign coordinator: shard, evaluate, merge.
//!
//! A [`ShardedCampaign`] partitions an enumerable [`SearchSpace`] with a deterministic
//! [`wd_opt::ShardPlan`], scans every shard concurrently (one rayon task per shard —
//! each task standing in for one node of a cluster), and merges the per-shard bests
//! with [`wd_opt::better_indexed`] over global enumeration indices.  The merge is a
//! strict minimum under the `(energy, index)` order, so the campaign result is
//! bit-identical to a single-node scan for every shard count and every completion
//! order.
//!
//! [`ShardedCampaign::run`] is the fault-free case of the supervised runner
//! ([`crate::supervisor`]): the same [`crate::scheduler::Scheduler`] hands out the
//! shards and the same store-first scan evaluates them.  Results already present in
//! the campaign's [`ResultStore`] are returned without touching the objective, and
//! fresh results are recorded as they are produced, so against a warm store a
//! repeated (or killed-and-restarted) campaign performs **zero** new evaluations.

use std::ops::Range;

use wd_obs::{NoopRecorder, Recorder};
use wd_opt::enumeration::DEFAULT_BATCH_SIZE;
use wd_opt::{better_indexed, CacheStats, Objective, SearchSpace};

use crate::error::CampaignError;
use crate::fault::FaultPlan;
use crate::scheduler::RetryPolicy;
use crate::store::ResultStore;

/// What one shard (one simulated node) reported back to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard position in the plan.
    pub shard_index: usize,
    /// Global enumeration-index range this shard covered.
    pub range: Range<usize>,
    /// Global enumeration index of the shard's best configuration.
    pub best_index: usize,
    /// Energy of the shard's best configuration.
    pub best_energy: f64,
    /// Evaluation requests the shard issued (its share of the space).
    pub evaluations: usize,
    /// Store hit/miss counters of the shard.
    pub stats: CacheStats,
}

impl ShardReport {
    /// The `(global_index, energy)` pair the merge consumes.
    pub fn best(&self) -> (usize, f64) {
        (self.best_index, self.best_energy)
    }
}

/// Merged result of a sharded campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome<C> {
    /// The globally best configuration.
    pub best_config: C,
    /// Its energy.
    pub best_energy: f64,
    /// Its global enumeration index.
    pub best_index: usize,
    /// Total evaluation requests across all shards (the cardinality of the space).
    pub evaluations: usize,
    /// Merged store hit/miss counters of this run; `stats.misses` is the number of
    /// configurations this run actually evaluated (0 against a warm store).
    pub stats: CacheStats,
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
}

impl<C> CampaignOutcome<C> {
    /// Number of fresh evaluations this run performed (store misses).
    pub fn experiments(&self) -> usize {
        self.stats.misses
    }
}

/// Merge per-shard `(global_index, energy)` bests.  The reduction is associative and
/// commutative, so *any* arrival order of shard results produces the same winner —
/// the coordinator does not need to wait for shards in order.
///
/// Returns `None` when `bests` is empty (no shard reported — the campaign-level
/// callers turn this into [`CampaignError::EmptySpace`]).
pub fn merge_shard_bests(bests: impl IntoIterator<Item = (usize, f64)>) -> Option<(usize, f64)> {
    bests.into_iter().reduce(better_indexed)
}

/// A sharded, store-backed exhaustive campaign over an enumerable search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedCampaign {
    /// Number of shards (simulated nodes) to partition the space into; clamped to the
    /// space cardinality at run time.
    pub shard_count: usize,
    /// Evaluation batch size of each shard's scan.
    pub batch_size: usize,
}

impl ShardedCampaign {
    /// A campaign over `shard_count` shards with the default batch size.
    pub fn new(shard_count: usize) -> Self {
        ShardedCampaign {
            shard_count: shard_count.max(1),
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }

    /// Override the per-shard evaluation batch size (values below 1 are clamped to 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Run the campaign: shard `space`, evaluate every shard through `store`-backed
    /// `objective`, merge, and record the merged stats into the store.
    ///
    /// On spaces with indexed access ([`SearchSpace::space_len`] /
    /// [`SearchSpace::config_at`]) the campaign is **zero-materialization**: every
    /// shard streams its global index range one batch at a time and folds its best
    /// by index, so the full configuration `Vec` never exists — peak allocation is
    /// bounded by `batch_size` per concurrent shard, not by the space cardinality —
    /// and only the global winner is built again at the end.  Spaces without
    /// indexed access fall back to materialising the enumeration once.
    ///
    /// The result is bit-identical to [`wd_opt::ParallelEnumeration::run`] on the
    /// whole space, for every shard count, batch size and shard completion order.
    /// The store is flushed before returning.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::NotEnumerable`] if the space is neither indexed nor
    /// enumerable, [`CampaignError::EmptySpace`] if it holds no configurations, and
    /// [`CampaignError::Store`] if flushing the store fails (a persistent campaign
    /// that cannot persist is not resumable — surfacing the error beats silently
    /// re-evaluating everything next run).
    pub fn run<S, O, R>(
        &self,
        space: &S,
        objective: &O,
        store: &R,
    ) -> Result<CampaignOutcome<S::Config>, CampaignError>
    where
        S: SearchSpace + Sync,
        S::Config: Clone + Send + Sync,
        O: Objective<S::Config> + Sync,
        R: ResultStore<S::Config> + Sync,
    {
        self.run_observed(space, objective, store, &NoopRecorder, "campaign")
    }

    /// [`ShardedCampaign::run`] with the campaign's lifecycle published to `recorder`
    /// under `scope`: a `shard_started` / `shard_completed` event pair per shard
    /// (index, range, best, evaluations, store hits/misses) and one final `merged`
    /// event carrying the campaign result.  This is
    /// [`ShardedCampaign::run_supervised_observed`] under [`FaultPlan::none`]; the
    /// recorder only observes, so outcomes are bit-identical to the unobserved run.
    pub fn run_observed<S, O, R>(
        &self,
        space: &S,
        objective: &O,
        store: &R,
        recorder: &dyn Recorder,
        scope: &str,
    ) -> Result<CampaignOutcome<S::Config>, CampaignError>
    where
        S: SearchSpace + Sync,
        S::Config: Clone + Send + Sync,
        O: Objective<S::Config> + Sync,
        R: ResultStore<S::Config> + Sync,
    {
        self.run_supervised_observed(
            space,
            objective,
            store,
            &FaultPlan::none(),
            &RetryPolicy::default(),
            recorder,
            scope,
        )
        .map(|supervised| supervised.outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;
    use wd_opt::space::GridSpace;
    use wd_opt::{CountingObjective, ParallelEnumeration};

    fn bowl(config: &(u32, u32)) -> f64 {
        let dx = config.0 as f64 - 13.0;
        let dy = config.1 as f64 - 5.0;
        dx * dx + dy * dy
    }

    #[test]
    fn sharded_campaign_matches_single_node_for_every_shard_count() {
        let space = GridSpace {
            width: 37,
            height: 23,
        };
        let reference = ParallelEnumeration::new().run(&space, &bowl);
        for shards in [1usize, 2, 3, 4, 7, 16, 1000] {
            let store = MemoryStore::new();
            let outcome = ShardedCampaign::new(shards)
                .with_batch_size(19)
                .run(&space, &bowl, &store)
                .unwrap();
            assert_eq!(
                outcome.best_config, reference.best_config,
                "{shards} shards"
            );
            assert_eq!(
                outcome.best_energy.to_bits(),
                reference.best_energy.to_bits()
            );
            assert_eq!(outcome.evaluations, 37 * 23);
            assert_eq!(outcome.experiments(), 37 * 23);
        }
    }

    #[test]
    fn indexed_spaces_stream_without_materializing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use wd_opt::{InstrumentedSpace, MaterializedOnly, Objective};

        let space = GridSpace {
            width: 25,
            height: 20,
        };

        // an objective that records the largest batch it was ever asked to score —
        // with the streaming driver this bounds the per-worker materialisation
        struct MaxBatch<'a, O>(&'a O, AtomicUsize);
        impl<C, O: Objective<C>> Objective<C> for MaxBatch<'_, O> {
            fn evaluate(&self, config: &C) -> f64 {
                self.1.fetch_max(1, Ordering::Relaxed);
                self.0.evaluate(config)
            }
            fn evaluate_batch(&self, configs: &[C]) -> Vec<f64> {
                self.1.fetch_max(configs.len(), Ordering::Relaxed);
                self.0.evaluate_batch(configs)
            }
        }

        let instrumented = InstrumentedSpace::new(&space);
        let store = MemoryStore::new();
        let objective = MaxBatch(&bowl, AtomicUsize::new(0));
        let batch_size = 32;
        let outcome = ShardedCampaign::new(4)
            .with_batch_size(batch_size)
            .run(&instrumented, &objective, &store)
            .unwrap();

        assert_eq!(
            instrumented.enumerate_calls(),
            0,
            "a lazy campaign must never materialise the space"
        );
        // every configuration streamed by index, plus one re-materialisation of the
        // global winner (shards fold their bests by index)
        assert_eq!(instrumented.config_at_calls(), 500 + 1);
        assert!(objective.1.load(Ordering::Relaxed) <= batch_size);

        // and the result is bit-identical to the forced-materialization fallback
        let hidden = MaterializedOnly::new(&space);
        let reference = ShardedCampaign::new(4)
            .with_batch_size(batch_size)
            .run(&hidden, &bowl, &MemoryStore::new())
            .unwrap();
        assert_eq!(outcome.best_config, reference.best_config);
        assert_eq!(outcome.best_index, reference.best_index);
        assert_eq!(
            outcome.best_energy.to_bits(),
            reference.best_energy.to_bits()
        );
    }

    #[test]
    fn shard_reports_partition_the_space() {
        let space = GridSpace {
            width: 16,
            height: 9,
        };
        let store = MemoryStore::new();
        let outcome = ShardedCampaign::new(5).run(&space, &bowl, &store).unwrap();
        assert_eq!(outcome.shards.len(), 5);
        let mut next = 0usize;
        for (index, report) in outcome.shards.iter().enumerate() {
            assert_eq!(report.shard_index, index);
            assert_eq!(report.range.start, next);
            assert!(report.range.contains(&report.best_index));
            assert_eq!(report.evaluations, report.range.len());
            next = report.range.end;
        }
        assert_eq!(next, 16 * 9);
    }

    #[test]
    fn warm_store_resumes_with_zero_evaluations() {
        let space = GridSpace {
            width: 12,
            height: 12,
        };
        let store = MemoryStore::new();
        let campaign = ShardedCampaign::new(4);

        let counting = CountingObjective::new(&bowl);
        let cold = campaign.run(&space, &counting, &store).unwrap();
        assert_eq!(counting.evaluations(), 144);
        assert_eq!(
            cold.stats,
            CacheStats {
                hits: 0,
                misses: 144
            }
        );

        // a fresh objective wrapper proves the store, not the wrapper, remembers
        let counting = CountingObjective::new(&bowl);
        let warm = campaign.run(&space, &counting, &store).unwrap();
        assert_eq!(
            counting.evaluations(),
            0,
            "warm campaigns re-evaluate nothing"
        );
        assert_eq!(
            warm.stats,
            CacheStats {
                hits: 144,
                misses: 0
            }
        );
        assert_eq!(warm.best_config, cold.best_config);
        assert_eq!(warm.best_energy.to_bits(), cold.best_energy.to_bits());
        assert_eq!(warm.best_index, cold.best_index);

        // the store audit trail accumulated both runs
        assert_eq!(
            store.recorded_stats(),
            CacheStats {
                hits: 144,
                misses: 144
            }
        );
    }

    #[test]
    fn partially_warm_store_evaluates_only_the_missing_configurations() {
        let space = GridSpace {
            width: 10,
            height: 10,
        };
        let store = MemoryStore::new();
        // pre-record half the space with the true energies
        let configs = space.enumerate().unwrap();
        for config in configs.iter().take(50) {
            store.record(config, bowl(config));
        }
        let counting = CountingObjective::new(&bowl);
        let outcome = ShardedCampaign::new(3)
            .run(&space, &counting, &store)
            .unwrap();
        assert_eq!(counting.evaluations(), 50);
        assert_eq!(
            outcome.stats,
            CacheStats {
                hits: 50,
                misses: 50
            }
        );
        let reference = ParallelEnumeration::new().run(&space, &bowl);
        assert_eq!(outcome.best_config, reference.best_config);
    }

    #[test]
    fn merge_is_shard_completion_order_independent() {
        let space = GridSpace {
            width: 9,
            height: 8,
        };
        // a plateau with many global ties exercises the earliest-index rule
        let plateau = |config: &(u32, u32)| f64::from((config.0 + config.1).is_multiple_of(3));
        let store = MemoryStore::new();
        let outcome = ShardedCampaign::new(6)
            .run(&space, &plateau, &store)
            .unwrap();

        let mut bests: Vec<(usize, f64)> = outcome.shards.iter().map(ShardReport::best).collect();
        // try every rotation and the reverse — all must merge to the same winner
        for rotation in 0..bests.len() {
            bests.rotate_left(1);
            assert_eq!(
                merge_shard_bests(bests.iter().copied()),
                Some((outcome.best_index, outcome.best_energy)),
                "rotation {rotation}"
            );
        }
        bests.reverse();
        assert_eq!(
            merge_shard_bests(bests.iter().copied()),
            Some((outcome.best_index, outcome.best_energy))
        );
        let reference = ParallelEnumeration::new().run(&space, &plateau);
        assert_eq!(outcome.best_config, reference.best_config);
    }

    #[test]
    fn observed_campaigns_are_bit_identical_and_publish_lifecycle_events() {
        let space = GridSpace {
            width: 21,
            height: 14,
        };
        let registry = wd_obs::Registry::new();
        let unobserved = ShardedCampaign::new(6)
            .run(&space, &bowl, &MemoryStore::new())
            .unwrap();
        let observed = ShardedCampaign::new(6)
            .run_observed(&space, &bowl, &MemoryStore::new(), &registry, "campaign")
            .unwrap();
        assert_eq!(observed.best_config, unobserved.best_config);
        assert_eq!(
            observed.best_energy.to_bits(),
            unobserved.best_energy.to_bits()
        );
        assert_eq!(observed.best_index, unobserved.best_index);
        assert_eq!(observed.shards, unobserved.shards);

        // one started/completed pair per shard, one merge
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.events.get("campaign/shard_started"), Some(&6));
        assert_eq!(snapshot.events.get("campaign/shard_completed"), Some(&6));
        assert_eq!(snapshot.events.get("campaign/merged"), Some(&1));
    }

    #[test]
    fn non_enumerable_spaces_are_rejected() {
        use rand::rngs::StdRng;
        struct Opaque;
        impl SearchSpace for Opaque {
            type Config = u8;
            fn random(&self, _rng: &mut StdRng) -> u8 {
                0
            }
            fn neighbor(&self, c: &u8, _rng: &mut StdRng) -> u8 {
                *c
            }
        }
        let store: MemoryStore<u8> = MemoryStore::new();
        let error = ShardedCampaign::new(2)
            .run(&Opaque, &|c: &u8| *c as f64, &store)
            .unwrap_err();
        assert!(matches!(error, CampaignError::NotEnumerable));
    }

    #[test]
    fn empty_merges_and_empty_spaces_surface_as_errors() {
        assert_eq!(merge_shard_bests(std::iter::empty()), None);
        let space = GridSpace {
            width: 0,
            height: 5,
        };
        let store = MemoryStore::new();
        let error = ShardedCampaign::new(2)
            .run(&space, &bowl, &store)
            .unwrap_err();
        assert!(matches!(error, CampaignError::EmptySpace));
    }
}
