//! Deterministic fault injection for multi-process campaigns.
//!
//! A [`FaultPlan`] is an explicit, finite schedule of [`FaultEvent`]s: *worker slot
//! `s`, on its `a`-th attempt, fails after scanning `b` batches, in this way*.  The
//! scheduler ([`crate::scheduler`]) looks up each grant's fault in the plan and
//! [`crate::ProcCampaign`] hands it to the worker process it spawns for the grant,
//! so every fault fires at a reproducible point of the scan, independent of
//! process timing.
//!
//! Because the schedule is finite and every attempt consumes at most one event
//! (attempt counters only move forward), a campaign under *any* plan performs
//! finitely many failures and then converges; workers skip every key the merged
//! store already holds, so recovery is idempotent (persisted keys are never
//! re-evaluated).
//!
//! [`FaultPlan::random`] derives a schedule from a seed with an embedded
//! splitmix64 generator, so chaos runs are reproducible from a single integer.
//! Plans round-trip through a one-line-per-event text format
//! (`shard:attempt:after_batches:kind`, see [`FaultPlan::parse`]) for chaos-run
//! artifacts and hand-written scenarios.

use std::fmt;

/// The failure modes the harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The objective fails to produce energies for a batch: the worker exits
    /// before anything of that batch is recorded.
    EvalError,
    /// The worker dies between batches (the process aborts); everything recorded
    /// so far stays persisted.
    ShardDeath,
    /// The worker stalls and its segment stops growing; the coordinator fences
    /// its lease, and the woken worker finds the lease gone and abandons.
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
    /// Number of scan batches the attempt completes before the fault fires.
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
    /// The empty plan: a campaign under it runs fault-free.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
