//! Deterministic sharding of enumerable search spaces.
//!
//! A distributed campaign cuts one enumerable [`crate::SearchSpace`] into contiguous
//! shards, hands each shard to a different node, and merges the per-shard bests.
//! [`ShardPlan`] is the pure arithmetic of the partition: shard `i` of `n` always
//! covers the same contiguous index range of the enumeration order, with sizes
//! differing by at most one configuration.
//!
//! Merging per-shard results is the job of [`crate::better_indexed`] over *global*
//! enumeration indices: since that reduction is a strict minimum under the
//! `(energy, index)` order, the merged outcome is bit-identical to a single-node scan
//! for every shard count and every merge order.

use std::ops::Range;

/// The deterministic partition of `total` enumeration indices into contiguous shards.
///
/// The requested shard count is clamped to `1..=total` (a shard must hold at least one
/// configuration; enumeration drivers reject empty spaces), and the first
/// `total % shards` shards receive one extra configuration so sizes are balanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    total: usize,
    shards: usize,
}

impl ShardPlan {
    /// Plan `requested_shards` shards over `total` configurations.
    pub fn new(total: usize, requested_shards: usize) -> Self {
        ShardPlan {
            total,
            shards: requested_shards.clamp(1, total.max(1)),
        }
    }

    /// Effective number of shards (after clamping).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The contiguous index range covered by `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn range(&self, shard: usize) -> Range<usize> {
        assert!(
            shard < self.shards,
            "shard {shard} out of range (plan has {} shards)",
            self.shards
        );
        let base = self.total / self.shards;
        let extra = self.total % self.shards;
        let start = shard * base + shard.min(extra);
        let len = base + usize::from(shard < extra);
        start..start + len
    }

    /// All shard ranges, in shard order; they partition `0..total` exactly.
    pub fn ranges(&self) -> Vec<Range<usize>> {
        (0..self.shards).map(|shard| self.range(shard)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::better_indexed;
    use crate::space::{GridSpace, SearchSpace};
    use crate::ParallelEnumeration;

    #[test]
    fn plan_partitions_every_index_exactly_once() {
        for total in [1usize, 2, 7, 19, 100, 19_926] {
            for shards in [1usize, 2, 3, 4, 5, 16, 100, 50_000] {
                let plan = ShardPlan::new(total, shards);
                assert!(plan.shard_count() >= 1 && plan.shard_count() <= total);
                let mut next = 0usize;
                for range in plan.ranges() {
                    assert_eq!(range.start, next, "total {total}, shards {shards}");
                    assert!(!range.is_empty());
                    next = range.end;
                }
                assert_eq!(next, total);
            }
        }
    }

    #[test]
    fn plan_balances_shard_sizes_within_one() {
        let plan = ShardPlan::new(19_926, 4);
        let sizes: Vec<usize> = plan.ranges().iter().map(Range::len).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 19_926);
    }

    #[test]
    fn plan_clamps_degenerate_requests() {
        assert_eq!(ShardPlan::new(5, 0).shard_count(), 1);
        assert_eq!(ShardPlan::new(5, 9).shard_count(), 5);
        assert_eq!(ShardPlan::new(0, 3).shard_count(), 1);
        assert!(ShardPlan::new(0, 3).range(0).is_empty());
    }

    #[test]
    fn sharded_scan_merged_by_global_index_matches_the_full_scan() {
        let space = GridSpace {
            width: 23,
            height: 17,
        };
        let objective = |c: &(u32, u32)| ((c.0 * 7 + c.1 * 13) % 29) as f64;
        let reference = ParallelEnumeration::new().run_indexed(&space, &objective);

        let configs = space.enumerate().unwrap();
        for shards in [1usize, 2, 3, 5, 8] {
            let plan = ShardPlan::new(configs.len(), shards);
            let merged = plan
                .ranges()
                .into_iter()
                .map(|range| {
                    range
                        .map(|index| (index, objective(&configs[index])))
                        .reduce(better_indexed)
                        .unwrap()
                })
                .reduce(better_indexed)
                .unwrap();
            assert_eq!(merged.0, reference.best_index, "{shards} shards");
            assert_eq!(merged.1.to_bits(), reference.outcome.best_energy.to_bits());
        }
    }
}
