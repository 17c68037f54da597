//! The result returned by every optimization method, plus the deterministic
//! outcome-merge helper shared by the batched and sharded enumeration drivers.

use crate::trace::OptimizationTrace;

/// Pick the best `(global_index, energy)` pair: lowest energy, earliest index on ties.
///
/// Energies are ordered by [`f64::total_cmp`]; objectives are expected to return real
/// (non-NaN) energies — under `total_cmp` a positive NaN sorts after every real energy
/// (it loses), while a sign-bit-set NaN sorts before them (it would win).
///
/// For distinct indices this is a strict minimum under the lexicographic
/// `(energy, index)` order, so reductions built on it are associative and commutative:
/// batched, parallel and sharded enumerations merge partial results in *any* order and
/// still produce the result of a sequential scan, bit for bit.
pub fn better_indexed(best: (usize, f64), candidate: (usize, f64)) -> (usize, f64) {
    match candidate.1.total_cmp(&best.1) {
        std::cmp::Ordering::Less => candidate,
        std::cmp::Ordering::Equal if candidate.0 < best.0 => candidate,
        _ => best,
    }
}

/// An [`Outcome`] that also reports *where* in enumeration order the best configuration
/// sits.  Produced by [`crate::ParallelEnumeration::run_indexed`]; the global index is
/// what distributed drivers need to merge per-shard results deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedOutcome<C> {
    /// Position of the best configuration in the enumeration order of the space that
    /// was scanned (shard-local when a shard view was scanned).
    pub best_index: usize,
    /// The regular outcome.
    pub outcome: Outcome<C>,
}

/// Counters describing how much supervision a fault-tolerant run needed: how many
/// shard attempts were started, how many of those were retries after a failure, how
/// many leases expired, and how many abandoned ranges were work-stolen by survivors.
///
/// Like [`crate::CacheStats`] this is a plain mergeable counter set: per-shard values
/// sum into a campaign total in any order.  A fault-free run reports one attempt per
/// shard and zeros everywhere else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceStats {
    /// Shard attempts started (first tries and retries alike).
    pub attempts: usize,
    /// Attempts that were retries of a previously failed attempt.
    pub retries: usize,
    /// Lease expiries observed (a stalled shard fencing itself off).
    pub lease_expiries: usize,
    /// Ranges taken over from a dead shard by a surviving one.
    pub steals: usize,
}

impl ResilienceStats {
    /// Whether any recovery action was needed at all.
    pub fn recovered_from_faults(&self) -> bool {
        self.retries > 0 || self.lease_expiries > 0 || self.steals > 0
    }

    /// Combine two counter sets (e.g. the per-shard stats of a supervised campaign).
    pub fn merged(self, other: ResilienceStats) -> ResilienceStats {
        ResilienceStats {
            attempts: self.attempts + other.attempts,
            retries: self.retries + other.retries,
            lease_expiries: self.lease_expiries + other.lease_expiries,
            steals: self.steals + other.steals,
        }
    }
}

impl std::ops::Add for ResilienceStats {
    type Output = ResilienceStats;

    fn add(self, other: ResilienceStats) -> ResilienceStats {
        self.merged(other)
    }
}

impl std::ops::AddAssign for ResilienceStats {
    fn add_assign(&mut self, other: ResilienceStats) {
        *self = self.merged(other);
    }
}

impl std::iter::Sum for ResilienceStats {
    fn sum<I: Iterator<Item = ResilienceStats>>(iter: I) -> ResilienceStats {
        iter.fold(ResilienceStats::default(), ResilienceStats::merged)
    }
}

/// Result of running an optimization method.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome<C> {
    /// The best configuration found.
    pub best_config: C,
    /// Its energy (objective value).
    pub best_energy: f64,
    /// How many objective evaluations the method performed — the paper's measure of
    /// optimization effort ("number of experiments").
    pub evaluations: usize,
    /// Per-iteration trace (empty for enumeration, which has no meaningful iteration
    /// order).
    pub trace: OptimizationTrace,
}

impl<C> Outcome<C> {
    /// Map the configuration type (useful when adapting generic outcomes to
    /// domain-specific reports).
    pub fn map_config<D>(self, f: impl FnOnce(C) -> D) -> Outcome<D> {
        Outcome {
            best_config: f(self.best_config),
            best_energy: self.best_energy,
            evaluations: self.evaluations,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn better_indexed_prefers_lower_energy_then_earlier_index() {
        assert_eq!(better_indexed((3, 1.0), (9, 0.5)), (9, 0.5));
        assert_eq!(better_indexed((3, 0.5), (9, 1.0)), (3, 0.5));
        // ties break towards the earliest global index, in either argument order
        assert_eq!(better_indexed((3, 1.0), (9, 1.0)), (3, 1.0));
        assert_eq!(better_indexed((9, 1.0), (3, 1.0)), (3, 1.0));
    }

    #[test]
    fn better_indexed_reduces_order_independently() {
        let pairs = [(4usize, 2.0), (1, 3.0), (7, 2.0), (2, 5.0), (11, 2.0)];
        let forward = pairs.iter().copied().reduce(better_indexed).unwrap();
        let backward = pairs.iter().rev().copied().reduce(better_indexed).unwrap();
        assert_eq!(forward, (4, 2.0));
        assert_eq!(forward, backward);
    }

    #[test]
    fn resilience_stats_sum_order_independently() {
        let a = ResilienceStats {
            attempts: 3,
            retries: 2,
            lease_expiries: 1,
            steals: 0,
        };
        let b = ResilienceStats {
            attempts: 1,
            retries: 0,
            lease_expiries: 0,
            steals: 1,
        };
        assert_eq!(a + b, b + a);
        assert_eq!([a, b].into_iter().sum::<ResilienceStats>(), a.merged(b));
        assert!(a.recovered_from_faults());
        assert!(!ResilienceStats {
            attempts: 4,
            ..ResilienceStats::default()
        }
        .recovered_from_faults());
    }

    #[test]
    fn map_config_preserves_everything_else() {
        let outcome = Outcome {
            best_config: 42u32,
            best_energy: 1.5,
            evaluations: 10,
            trace: OptimizationTrace::new(),
        };
        let mapped = outcome.map_config(|c| format!("cfg-{c}"));
        assert_eq!(mapped.best_config, "cfg-42");
        assert_eq!(mapped.best_energy, 1.5);
        assert_eq!(mapped.evaluations, 10);
    }
}
