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
}
