//! Deterministic fault injection for supervised campaigns.
//!
//! A [`FaultPlan`] is an explicit, finite schedule of [`FaultEvent`]s: *worker slot
//! `s`, on its `a`-th attempt, fails after scanning `b` batches, in this way*.  The
//! scheduler ([`crate::scheduler`]) looks up each grant's fault in the plan; the
//! supervisor routes it through the matching wrapper — [`FaultyObjective`] for
//! evaluation errors, [`FaultyStore`] for torn writes — and the process transport
//! hands it to the worker, so every fault fires at a reproducible point of the
//! scan, independent of thread interleaving.
//!
//! Because the schedule is finite and every attempt consumes at most one event
//! (attempt counters only move forward), a supervised campaign under *any* plan
//! performs finitely many failures and then converges; the store-first scan makes
//! the recovery idempotent (persisted keys are never re-evaluated).
//!
//! [`FaultPlan::random`] derives a schedule from a seed with an embedded
//! splitmix64 generator, so chaos runs are reproducible from a single integer.
//! Plans round-trip through a one-line-per-event text format
//! (`shard:attempt:after_batches:kind`, see [`FaultPlan::parse`]) for chaos-run
//! artifacts and hand-written scenarios.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use wd_opt::Objective;

use crate::store::ResultStore;

/// The failure modes the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The objective fails to produce energies for a batch (the batch is *not*
    /// recorded; the attempt aborts before the store sees anything).
    EvalError,
    /// The worker dies between batches: the attempt aborts cleanly, everything
    /// recorded so far stays persisted.
    ShardDeath,
    /// The worker stalls and stops renewing its lease; it observes its own lease
    /// expiry on the logical clock and fences itself off.
    Stall,
    /// The store write of a batch is torn: all but the last record land, a
    /// truncated unparseable line is durably appended in its place, and the
    /// attempt aborts (a crash mid-`write(2)`).
    TornWrite,
}

impl FaultKind {
    const ALL: [FaultKind; 4] = [
        FaultKind::EvalError,
        FaultKind::ShardDeath,
        FaultKind::Stall,
        FaultKind::TornWrite,
    ];

    /// Stable text code used by the plan's line format and by events.
    pub fn code(self) -> &'static str {
        match self {
            FaultKind::EvalError => "eval-error",
            FaultKind::ShardDeath => "death",
            FaultKind::Stall => "stall",
            FaultKind::TornWrite => "torn-write",
        }
    }

    pub(crate) fn from_code(code: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|kind| kind.code() == code)
    }
}

/// One scheduled failure: worker slot `slot`, on its `attempt`-th attempt (a
/// per-slot counter covering its own range *and* any ranges it steals), fails after
/// completing `after_batches` scan batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultEvent {
    /// Executing worker slot the fault targets (the plan position of the worker,
    /// not of the range it happens to be scanning).
    pub slot: usize,
    /// The slot's cumulative attempt counter value at which the fault fires.
    pub attempt: usize,
    /// Number of scan batches the attempt completes before the fault fires (for
    /// [`FaultKind::EvalError`]: evaluation batches, i.e. batches with at least one
    /// unpersisted configuration).
    pub after_batches: usize,
    /// What goes wrong.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}:{}",
            self.slot,
            self.attempt,
            self.after_batches,
            self.kind.code()
        )
    }
}

/// A finite, reproducible schedule of [`FaultEvent`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// splitmix64: a tiny, high-quality, dependency-free PRNG step — good enough to
/// scatter fault kinds and offsets, and stable across platforms.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The empty plan: a supervised run under it behaves exactly like the plain run.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Build a plan from explicit events.
    pub fn from_events(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// Derive a reproducible plan from `seed`: each of the `slots` workers gets
    /// between 0 and `max_faults_per_slot` consecutive failing attempts (attempts
    /// `0..k`, so every scheduled event actually fires before the slot's first
    /// success), each failing after 0 to `max_after_batches` scan batches with a
    /// seed-chosen [`FaultKind`].
    pub fn random(
        seed: u64,
        slots: usize,
        max_faults_per_slot: usize,
        max_after_batches: usize,
    ) -> Self {
        let mut state = seed ^ 0x77d1_5e01_5f4a_7c15;
        let mut events = Vec::new();
        for slot in 0..slots {
            let faults = if max_faults_per_slot == 0 {
                0
            } else {
                (splitmix64(&mut state) % (max_faults_per_slot as u64 + 1)) as usize
            };
            for attempt in 0..faults {
                let kind = FaultKind::ALL[(splitmix64(&mut state) % 4) as usize];
                let after_batches =
                    (splitmix64(&mut state) % (max_after_batches as u64 + 1)) as usize;
                events.push(FaultEvent {
                    slot,
                    attempt,
                    after_batches,
                    kind,
                });
            }
        }
        FaultPlan { events }
    }

    /// The fault scheduled for `slot`'s `attempt`-th attempt, if any.
    pub fn fate(&self, slot: usize, attempt: usize) -> Option<FaultEvent> {
        self.events
            .iter()
            .find(|event| event.slot == slot && event.attempt == attempt)
            .copied()
    }

    /// Every scheduled event, in plan order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parse the text format written by [`FaultPlan`]'s `Display`: one
    /// `slot:attempt:after_batches:kind` event per line, blank lines and `#`
    /// comments ignored.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split(':');
            let event = (|| {
                let slot = parts.next()?.parse().ok()?;
                let attempt = parts.next()?.parse().ok()?;
                let after_batches = parts.next()?.parse().ok()?;
                let kind = FaultKind::from_code(parts.next()?)?;
                if parts.next().is_some() {
                    return None;
                }
                Some(FaultEvent {
                    slot,
                    attempt,
                    after_batches,
                    kind,
                })
            })()
            .ok_or_else(|| format!("line {}: malformed fault event {line:?}", number + 1))?;
            events.push(event);
        }
        Ok(FaultPlan { events })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for event in &self.events {
            writeln!(f, "{event}")?;
        }
        Ok(())
    }
}

/// An [`Objective`] wrapper that injects one scheduled [`FaultKind::EvalError`].
///
/// Evaluation goes through [`FaultyObjective::try_evaluate_batch`]: on the
/// scheduled evaluation batch the wrapper fails *before* touching the inner
/// objective, so nothing is computed and nothing can be recorded — exactly the
/// footprint of an evaluation backend erroring out.  All other batches (and plans
/// without an eval-error for this attempt) pass straight through.
pub struct FaultyObjective<'a, O: ?Sized> {
    inner: &'a O,
    fault: Option<FaultEvent>,
    eval_batches: AtomicUsize,
}

impl<'a, O: ?Sized> FaultyObjective<'a, O> {
    /// Wrap `inner` for one attempt; `fault` is that attempt's scheduled event (any
    /// non-`EvalError` kind is ignored here — the supervisor and the store wrapper
    /// handle those).
    pub fn new(inner: &'a O, fault: Option<FaultEvent>) -> Self {
        FaultyObjective {
            inner,
            fault: fault.filter(|event| event.kind == FaultKind::EvalError),
            eval_batches: AtomicUsize::new(0),
        }
    }

    /// Evaluate a batch, or fail if this is the scheduled evaluation batch.
    ///
    /// # Errors
    ///
    /// Returns [`FaultKind::EvalError`] when the injected fault fires.
    pub fn try_evaluate_batch<C>(&self, configs: &[C]) -> Result<Vec<f64>, FaultKind>
    where
        O: Objective<C>,
    {
        let batch = self.eval_batches.fetch_add(1, Ordering::Relaxed);
        if let Some(event) = self.fault {
            if batch == event.after_batches {
                return Err(FaultKind::EvalError);
            }
        }
        Ok(self.inner.evaluate_batch(configs))
    }
}

/// A [`ResultStore`] wrapper that injects one scheduled [`FaultKind::TornWrite`].
///
/// On the scheduled record batch the wrapper persists every record *except the
/// last*, asks the inner store to durably append a torn (truncated, unparseable)
/// line in its place ([`ResultStore::inject_torn_write`]), and trips a flag the
/// supervisor checks to abort the attempt — the footprint of a worker crashing in
/// the middle of `write(2)`.  The lost record is simply absent, so the retry
/// re-evaluates exactly that configuration; the torn line is what a later
/// [`crate::JsonlStore::open`] skips and counts in
/// [`crate::JsonlStore::skipped_lines`].
pub struct FaultyStore<'a, R: ?Sized> {
    inner: &'a R,
    fault: Option<FaultEvent>,
    record_batches: AtomicUsize,
    tripped: AtomicBool,
}

impl<'a, R: ?Sized> FaultyStore<'a, R> {
    /// Wrap `store` for one attempt; `fault` is that attempt's scheduled event (any
    /// non-`TornWrite` kind is ignored here).
    pub fn new(inner: &'a R, fault: Option<FaultEvent>) -> Self {
        FaultyStore {
            inner,
            fault: fault.filter(|event| event.kind == FaultKind::TornWrite),
            record_batches: AtomicUsize::new(0),
            tripped: AtomicBool::new(false),
        }
    }

    /// Whether the scheduled torn write has fired (checked by the supervisor after
    /// every recorded batch).
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }
}

impl<C, R> ResultStore<C> for FaultyStore<'_, R>
where
    R: ResultStore<C> + ?Sized,
{
    fn lookup(&self, config: &C) -> Option<f64> {
        self.inner.lookup(config)
    }

    fn lookup_batch(&self, configs: &[C]) -> Vec<Option<f64>> {
        self.inner.lookup_batch(configs)
    }

    fn record(&self, config: &C, energy: f64) {
        self.inner.record(config, energy);
    }

    fn record_batch(&self, configs: &[C], energies: &[f64]) {
        let batch = self.record_batches.fetch_add(1, Ordering::Relaxed);
        if let Some(event) = self.fault {
            if batch == event.after_batches && !configs.is_empty() {
                let keep = configs.len() - 1;
                self.inner.record_batch(&configs[..keep], &energies[..keep]);
                self.inner.inject_torn_write("injected-torn-write");
                self.tripped.store(true, Ordering::Relaxed);
                return;
            }
        }
        self.inner.record_batch(configs, energies);
    }

    fn record_stats(&self, stats: wd_opt::CacheStats) {
        self.inner.record_stats(stats);
    }

    fn recorded_stats(&self) -> wd_opt::CacheStats {
        self.inner.recorded_stats()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn flush(&self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;

    #[test]
    fn random_plans_are_reproducible_and_fire_consecutively() {
        let a = FaultPlan::random(42, 6, 3, 5);
        let b = FaultPlan::random(42, 6, 3, 5);
        assert_eq!(a, b);
        let c = FaultPlan::random(43, 6, 3, 5);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
        // per slot, scheduled attempts are exactly 0..k so each event fires
        for slot in 0..6 {
            let mut attempts: Vec<usize> = a
                .events()
                .iter()
                .filter(|event| event.slot == slot)
                .map(|event| event.attempt)
                .collect();
            attempts.sort_unstable();
            assert_eq!(attempts, (0..attempts.len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn plans_round_trip_through_the_text_format() {
        let plan = FaultPlan::random(7, 4, 2, 3);
        let text = plan.to_string();
        assert_eq!(FaultPlan::parse(&text).unwrap(), plan);
        let commented = format!("# chaos seed 7\n\n{text}");
        assert_eq!(FaultPlan::parse(&commented).unwrap(), plan);
        assert!(FaultPlan::parse("1:2:3:not-a-kind").is_err());
        assert!(FaultPlan::parse("1:2:3").is_err());
        assert!(FaultPlan::parse("1:2:3:stall:extra").is_err());
    }

    #[test]
    fn fate_matches_slot_and_attempt() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            slot: 2,
            attempt: 1,
            after_batches: 0,
            kind: FaultKind::Stall,
        }]);
        assert_eq!(plan.fate(2, 1).map(|e| e.kind), Some(FaultKind::Stall));
        assert_eq!(plan.fate(2, 0), None);
        assert_eq!(plan.fate(1, 1), None);
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 1);
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn faulty_objective_fails_only_the_scheduled_eval_batch() {
        let objective = |c: &u32| f64::from(*c) * 2.0;
        let event = FaultEvent {
            slot: 0,
            attempt: 0,
            after_batches: 1,
            kind: FaultKind::EvalError,
        };
        let faulty = FaultyObjective::new(&objective, Some(event));
        assert_eq!(faulty.try_evaluate_batch(&[1, 2]).unwrap(), vec![2.0, 4.0]);
        assert_eq!(
            faulty.try_evaluate_batch(&[3]).unwrap_err(),
            FaultKind::EvalError
        );
        // batches after the scheduled one pass again (the attempt already aborted
        // in practice, but the wrapper itself is single-shot)
        assert!(faulty.try_evaluate_batch(&[4]).is_ok());

        // non-eval faults are ignored by the objective wrapper
        let stall = FaultEvent {
            kind: FaultKind::Stall,
            ..event
        };
        let faulty = FaultyObjective::new(&objective, Some(stall));
        assert!(faulty.try_evaluate_batch(&[1]).is_ok());
        assert!(faulty.try_evaluate_batch(&[1]).is_ok());
    }

    #[test]
    fn faulty_store_tears_the_last_record_of_the_scheduled_batch() {
        let store: MemoryStore<u32> = MemoryStore::new();
        let event = FaultEvent {
            slot: 0,
            attempt: 0,
            after_batches: 0,
            kind: FaultKind::TornWrite,
        };
        let faulty = FaultyStore::new(&store, Some(event));
        faulty.record_batch(&[1, 2, 3], &[1.0, 2.0, 3.0]);
        assert!(faulty.tripped());
        // the torn (last) record never landed; the prefix did
        assert_eq!(store.lookup(&1), Some(1.0));
        assert_eq!(store.lookup(&2), Some(2.0));
        assert_eq!(store.lookup(&3), None);

        // without a scheduled torn write everything is forwarded verbatim
        let clean: MemoryStore<u32> = MemoryStore::new();
        let passthrough = FaultyStore::new(&clean, None);
        passthrough.record_batch(&[7, 8], &[7.0, 8.0]);
        assert!(!passthrough.tripped());
        assert_eq!(clean.len(), 2);
    }
}
