//! The objective (energy) abstraction and evaluation bookkeeping.
//!
//! This module is the workspace's **single scoring layer**: every evaluator — the
//! simulated platform, the trained prediction models, plain closures in tests — plugs
//! into the optimizers by implementing [`Objective`].  On top of the one-at-a-time
//! [`Objective::evaluate`] the trait offers a batched entry point,
//! [`Objective::evaluate_batch`], which implementations backed by batch-capable
//! engines (e.g. `HeterogeneousPlatform::execute_many`) override to evaluate many
//! configurations in one parallel pass.
//!
//! Two wrappers provide the bookkeeping every driver needs:
//!
//! * [`CountingObjective`] counts evaluation *requests* (the paper's "number of
//!   experiments" effort metric);
//! * [`CachedObjective`] memoizes results by configuration, so revisited
//!   configurations cost nothing, and reports [`CacheStats`] hit/miss counters.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::RwLock;

use crate::sync::{read_lock, write_lock};

/// An objective function over configurations of type `C`.  Lower values are better
/// ("energy" in the simulated-annealing terminology of the paper, execution time in the
/// work-distribution instantiation).
pub trait Objective<C> {
    /// Evaluate one configuration.
    fn evaluate(&self, config: &C) -> f64;

    /// Evaluate a batch of configurations, returning one energy per configuration in
    /// order.
    ///
    /// The default implementation evaluates sequentially; implementations backed by a
    /// batch-capable engine (a parallel simulator, a vectorised model) should override
    /// it.  Overrides must be observationally identical to the default: same values,
    /// same order.
    fn evaluate_batch(&self, configs: &[C]) -> Vec<f64> {
        configs.iter().map(|config| self.evaluate(config)).collect()
    }
}

/// Blanket implementation so plain closures can be used as objectives.
impl<C, F> Objective<C> for F
where
    F: Fn(&C) -> f64,
{
    fn evaluate(&self, config: &C) -> f64 {
        self(config)
    }
}

/// Wrapper that counts how many times the inner objective is evaluated.
///
/// The paper's headline result is about *how many experiments* each method needs
/// (SAML evaluates ≈5 % of what enumeration needs); this wrapper is how the drivers
/// report that number.  Batched evaluations count one request per configuration.
pub struct CountingObjective<'a, O: ?Sized> {
    inner: &'a O,
    count: AtomicUsize,
}

impl<'a, O: ?Sized> CountingObjective<'a, O> {
    /// Wrap an objective.
    pub fn new(inner: &'a O) -> Self {
        CountingObjective {
            inner,
            count: AtomicUsize::new(0),
        }
    }

    /// Number of evaluations performed so far.
    pub fn evaluations(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }
}

impl<C, O> Objective<C> for CountingObjective<'_, O>
where
    O: Objective<C> + ?Sized,
{
    fn evaluate(&self, config: &C) -> f64 {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(config)
    }

    fn evaluate_batch(&self, configs: &[C]) -> Vec<f64> {
        self.count.fetch_add(configs.len(), Ordering::Relaxed);
        self.inner.evaluate_batch(configs)
    }
}

/// Hit/miss counters of a [`CachedObjective`].
///
/// `misses` is the number of *distinct* configurations the inner objective actually
/// evaluated — with caching enabled this, not the request count, is the real
/// measurement cost of a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests answered from the cache (including duplicates within one batch).
    pub hits: usize,
    /// Requests that reached the inner objective.
    pub misses: usize,
}

impl CacheStats {
    /// Total number of evaluation requests seen.
    pub fn requests(&self) -> usize {
        self.hits + self.misses
    }

    /// Fraction of requests answered from the cache.
    ///
    /// Guaranteed to be a real number: with zero requests the rate is defined as 0.0
    /// (never `NaN`), so reports can divide/format it unconditionally.
    pub fn hit_rate(&self) -> f64 {
        if self.requests() == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests() as f64
        }
    }

    /// Combine two counter sets (e.g. the per-shard stats of a distributed campaign).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
        }
    }
}

impl std::ops::Add for CacheStats {
    type Output = CacheStats;

    fn add(self, other: CacheStats) -> CacheStats {
        self.merged(other)
    }
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, other: CacheStats) {
        *self = self.merged(other);
    }
}

impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        iter.fold(CacheStats::default(), CacheStats::merged)
    }
}

/// Config-keyed memoization wrapper around any [`Objective`].
///
/// Thread-safe: the cache is behind a [`RwLock`] and the counters are atomic, so a
/// `CachedObjective` can be shared by the parallel enumeration path.  Batch requests
/// deduplicate configurations before reaching the inner objective.  Hits probe with
/// the borrowed key under the shared lock and allocate nothing; a distinct
/// configuration is cloned exactly once, when its key enters the cache.  `misses`
/// counts *distinct* configurations: insertion re-checks under the write lock, so when
/// two threads race on the same uncached configuration the inner objective may be
/// invoked redundantly (objectives are deterministic, so the values agree), but the
/// configuration is recorded as exactly one miss and the loser of the race as a hit.
///
/// No method of the workspace runs behind it — separable evaluators memoise per-side
/// times instead.  Its users are the repository benchmark's `tune-stream` EML lane
/// and the tests, where it is the one-evaluation-per-distinct-configuration reference
/// that SAM's counters are checked against.
pub struct CachedObjective<'a, C, O: ?Sized> {
    inner: &'a O,
    cache: RwLock<HashMap<C, f64>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<'a, C, O: ?Sized> CachedObjective<'a, C, O>
where
    C: Eq + Hash + Clone,
{
    /// Wrap an objective with an empty cache.
    pub fn new(inner: &'a O) -> Self {
        CachedObjective {
            inner,
            cache: RwLock::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct configurations cached so far.
    pub fn len(&self) -> usize {
        read_lock(&self.cache).len()
    }

    /// Whether the cache is still empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<C, O> Objective<C> for CachedObjective<'_, C, O>
where
    C: Eq + Hash + Clone,
    O: Objective<C> + ?Sized,
{
    fn evaluate(&self, config: &C) -> f64 {
        // Read-then-write fast path: hits (the common case under annealing) probe the
        // shared lock with the borrowed key and allocate nothing.
        if let Some(&energy) = read_lock(&self.cache).get(config) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return energy;
        }
        let energy = self.inner.evaluate(config);
        let mut cache = write_lock(&self.cache);
        // another thread may have filled this configuration while we evaluated; its
        // value is identical (objectives are deterministic) — count us as a hit so
        // `misses` keeps counting distinct configurations, and skip the key clone
        if let Some(&existing) = cache.get(config) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return existing;
        }
        cache.insert(config.clone(), energy);
        self.misses.fetch_add(1, Ordering::Relaxed);
        energy
    }

    fn evaluate_batch(&self, configs: &[C]) -> Vec<f64> {
        let mut energies = vec![0.0f64; configs.len()];
        let mut pending: Vec<usize> = Vec::new();
        {
            let cache = read_lock(&self.cache);
            for (index, config) in configs.iter().enumerate() {
                match cache.get(config) {
                    Some(&energy) => energies[index] = energy,
                    None => pending.push(index),
                }
            }
        }
        self.hits
            .fetch_add(configs.len() - pending.len(), Ordering::Relaxed);
        if pending.is_empty() {
            return energies;
        }

        // Deduplicate the uncached configurations so the inner objective sees each
        // distinct configuration once; duplicates within the batch count as hits.
        // The position map borrows its keys from the request slice, so each distinct
        // configuration is cloned exactly once — for the inner batch call — and that
        // clone is later *moved* into the cache rather than cloned again.
        let mut unique: Vec<C> = Vec::with_capacity(pending.len());
        let mut position: HashMap<&C, usize> = HashMap::with_capacity(pending.len());
        for &index in &pending {
            let config = &configs[index];
            if !position.contains_key(config) {
                position.insert(config, unique.len());
                unique.push(config.clone());
            }
        }
        self.hits
            .fetch_add(pending.len() - unique.len(), Ordering::Relaxed);

        let fresh = self.inner.evaluate_batch(&unique);
        debug_assert_eq!(fresh.len(), unique.len());
        for &index in &pending {
            energies[index] = fresh[position[&configs[index]]];
        }
        {
            let mut cache = write_lock(&self.cache);
            let mut new_misses = 0;
            let mut race_hits = 0;
            for (config, &energy) in unique.into_iter().zip(&fresh) {
                match cache.entry(config) {
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(energy);
                        new_misses += 1;
                    }
                    // filled by a concurrent caller while we evaluated; identical
                    // value, counted as a hit so `misses` stays "distinct configs"
                    std::collections::hash_map::Entry::Occupied(_) => race_hits += 1,
                }
            }
            self.misses.fetch_add(new_misses, Ordering::Relaxed);
            self.hits.fetch_add(race_hits, Ordering::Relaxed);
        }
        energies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_objectives() {
        let objective = |x: &f64| x * x;
        assert_eq!(objective.evaluate(&3.0), 9.0);
        assert_eq!(
            objective.evaluate_batch(&[1.0, 2.0, 3.0]),
            vec![1.0, 4.0, 9.0]
        );
    }

    #[test]
    fn counting_objective_counts_and_passes_values_through() {
        let inner = |x: &i32| *x as f64;
        let counting = CountingObjective::new(&inner);
        assert_eq!(counting.evaluations(), 0);
        for i in 0..17 {
            let _ = counting.evaluate(&i);
        }
        assert_eq!(counting.evaluations(), 17);
        // value passes through unchanged
        assert_eq!(counting.evaluate(&5), 5.0);
    }

    #[test]
    fn counting_objective_counts_batches_per_item() {
        let inner = |x: &i32| f64::from(*x);
        let counting = CountingObjective::new(&inner);
        let batch: Vec<i32> = (0..13).collect();
        assert_eq!(
            counting.evaluate_batch(&batch),
            batch.iter().map(|&x| f64::from(x)).collect::<Vec<_>>()
        );
        assert_eq!(counting.evaluations(), 13);
    }

    #[test]
    fn hit_rate_is_zero_not_nan_for_zero_requests() {
        // Regression test: an empty counter set must report a rate of exactly 0.0 so
        // downstream percentage formatting never sees NaN.
        let stats = CacheStats::default();
        assert_eq!(stats.requests(), 0);
        assert!(!stats.hit_rate().is_nan());
        assert_eq!(stats.hit_rate(), 0.0);
        // and a miss-only counter set reports 0.0 as well, not NaN or negative
        let misses_only = CacheStats { hits: 0, misses: 7 };
        assert_eq!(misses_only.hit_rate(), 0.0);
    }

    #[test]
    fn cache_stats_merge_and_sum() {
        let a = CacheStats { hits: 3, misses: 4 };
        let b = CacheStats {
            hits: 10,
            misses: 1,
        };
        assert_eq!(
            a.merged(b),
            CacheStats {
                hits: 13,
                misses: 5
            }
        );
        assert_eq!(a + b, b + a);
        let mut acc = CacheStats::default();
        acc += a;
        acc += b;
        assert_eq!(
            acc,
            CacheStats {
                hits: 13,
                misses: 5
            }
        );
        let total: CacheStats = [a, b, CacheStats::default()].into_iter().sum();
        assert_eq!(
            total,
            CacheStats {
                hits: 13,
                misses: 5
            }
        );
        assert!((total.hit_rate() - 13.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn cache_returns_identical_results_and_counts_hits() {
        let calls = AtomicUsize::new(0);
        let inner = |x: &u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            f64::from(*x) * 1.5
        };
        let cached = CachedObjective::new(&inner);

        assert_eq!(cached.evaluate(&4), 6.0);
        assert_eq!(cached.evaluate(&4), 6.0);
        assert_eq!(cached.evaluate(&2), 3.0);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "4 evaluated once, 2 once");
        assert_eq!(cached.stats(), CacheStats { hits: 1, misses: 2 });
        assert_eq!(cached.len(), 2);
    }

    #[test]
    fn cached_batches_deduplicate_and_match_uncached() {
        let calls = AtomicUsize::new(0);
        let inner = |x: &u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            f64::from(*x).sqrt()
        };
        let cached = CachedObjective::new(&inner);

        let batch = vec![9u32, 4, 9, 16, 4, 9];
        let expected: Vec<f64> = batch.iter().map(|&x| f64::from(x).sqrt()).collect();
        let energies = cached.evaluate_batch(&batch);
        assert_eq!(energies, expected);
        // only the three distinct configurations reached the inner objective
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(cached.stats(), CacheStats { hits: 3, misses: 3 });

        // a second identical batch is answered fully from the cache
        let again = cached.evaluate_batch(&batch);
        assert_eq!(again, energies);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(cached.stats(), CacheStats { hits: 9, misses: 3 });
        assert!((cached.stats().hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mixed_single_and_batch_requests_share_the_cache() {
        let calls = AtomicUsize::new(0);
        let inner = |x: &u32| {
            calls.fetch_add(1, Ordering::Relaxed);
            f64::from(*x) + 0.5
        };
        let cached = CachedObjective::new(&inner);
        let _ = cached.evaluate(&7);
        let energies = cached.evaluate_batch(&[7, 8]);
        assert_eq!(energies, vec![7.5, 8.5]);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        let _ = cached.evaluate(&8);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }
}
