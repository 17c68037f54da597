//! Exhaustive model check of the pure campaign [`Scheduler`].
//!
//! For every fleet of at most 3 slots, every queue of at most 4 ranges and a
//! retry budget of 1 or 2 tries, a depth-first search walks **every**
//! interleaving of grants, completions and failures (at most 2 failures per
//! initial range), one durable-range shortcut and one fleet resize that grows
//! or shrinks the fleet.  As in both drivers, free slots are offered work in
//! slot order; the clock moves to the next retry's ready tick whenever no slot
//! can start anything.  Single tries fail plainly and retried ones are fenced
//! (the two differ only in the token bump), so every fenced zombie outlives a
//! re-grant of its slot.  States are deduplicated by hash, so each reachable
//! state is expanded once.
//!
//! Invariants:
//!
//! * every index commits exactly once, and the committed ranges of a finished
//!   run partition the space;
//! * a report from a fenced or otherwise stale generation is `Stale` and never
//!   commits;
//! * no backoff exceeds `backoff_cap`;
//! * a stolen range that exhausts its tries ends in `RangeAbandoned` — as does a
//!   queue no live slot can take — never in a silent drop;
//! * every run terminates: a state with nothing left to do is finished;
//! * the merged `(index, energy)` of a finished run equals the fault-free scan
//!   of a plateau objective.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Range;

use wd_dist::scheduler::{Event, Grant, Scheduler, Verdict};
use wd_dist::{merge_shard_bests, CampaignError, FaultPlan, RetryPolicy};
use wd_opt::better_indexed;

const MAX_SLOTS: usize = 3;
const MAX_RANGES: usize = 4;
const RANGE_LEN: usize = 2;
const FAILURES_PER_RANGE: usize = 2;

/// A plateau with exact ties: the fault-free best is the earliest minimum.
fn plateau(index: usize) -> f64 {
    f64::from(u8::from(index % 3 != 1))
}

fn scan(range: Range<usize>) -> Option<(usize, f64)> {
    range
        .map(|index| (index, plateau(index)))
        .reduce(better_indexed)
}

/// An attempt the model has been granted and not yet reported.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Live {
    slot: usize,
    generation: u64,
    range: Range<usize>,
    tries: usize,
    stolen: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State<'a> {
    scheduler: Scheduler<'a>,
    now: u64,
    live: Vec<Live>,
    /// Failures so far per initial range (split halves share their parent's).
    failures: BTreeMap<usize, usize>,
    committed: Vec<Range<usize>>,
    attempts: [usize; MAX_SLOTS],
    /// Slots backing off, with the tick their retry becomes ready.
    ready: BTreeMap<usize, u64>,
    resized: bool,
    durable_used: bool,
}

impl State<'_> {
    fn commit(&mut self, range: Range<usize>) {
        assert!(
            self.committed
                .iter()
                .all(|done| done.end <= range.start || range.end <= done.start),
            "{range:?} committed twice (already committed: {:?})",
            self.committed
        );
        self.committed.push(range);
        self.committed.sort_by_key(|range| range.start);
    }
}

/// Reporting `generation` of `slot` again is `Stale` and changes nothing.
fn assert_stale(scheduler: &Scheduler<'_>, slot: usize, generation: u64) {
    let mut replay = scheduler.clone();
    for event in [Event::Completed, Event::Failed, Event::Fenced] {
        assert!(
            matches!(
                replay.report(slot, generation, event, 0),
                Ok(Verdict::Stale)
            ),
            "generation {generation} of slot {slot} is not stale"
        );
    }
    assert_eq!(&replay, scheduler, "a stale report changes nothing");
}

struct Explorer<'a> {
    policy: RetryPolicy,
    /// How every attempt of this run fails: `Failed` or `Fenced`.
    failure: Event,
    /// The fleet size of the run's one resize.
    resize_to: usize,
    faults: &'a FaultPlan,
    total: usize,
    visited: HashSet<u64>,
    finished: usize,
    abandoned: usize,
}

impl<'a> Explorer<'a> {
    fn explore(&mut self, state: State<'a>) {
        let mut hasher = DefaultHasher::new();
        state.hash(&mut hasher);
        if !self.visited.insert(hasher.finish()) {
            return;
        }
        let mut granted = false;
        // both drivers offer work to free slots in slot order, so only the
        // lowest slot that can start something does
        for slot in 0..MAX_SLOTS {
            for durable in [false, true] {
                if durable && state.durable_used {
                    continue;
                }
                granted |= self.grant(&state, slot, durable);
            }
            if granted {
                break;
            }
        }
        let mut moved = granted;
        for index in 0..state.live.len() {
            let lease = &state.live[index];
            let budget = state
                .failures
                .get(&(lease.range.start / RANGE_LEN))
                .copied()
                .unwrap_or(0)
                < FAILURES_PER_RANGE;
            self.report(&state, index, Event::Completed);
            if budget {
                self.report(&state, index, self.failure);
            }
            moved = true;
        }
        // nothing can start now: let time run to the next retry
        let wake = state.ready.values().filter(|&&at| at > state.now).min();
        if let (false, Some(&wake)) = (granted, wake) {
            let mut next = state.clone();
            next.now = wake;
            self.explore(next);
            moved = true;
        }
        if !state.resized {
            self.resize(&state, self.resize_to);
            moved = true;
        }
        if !moved {
            self.finish(&state);
        }
    }

    /// Ask for `slot`'s next lease; with `durable`, the first range offered is
    /// already durable and commits unleased.
    fn grant(&mut self, state: &State<'a>, slot: usize, durable: bool) -> bool {
        let mut next = state.clone();
        let mut offered = None;
        let generation = next.scheduler.generation(slot);
        let now = next.now;
        let grant = next.scheduler.next(slot, now, |range| {
            if durable && offered.is_none() {
                offered = Some(range.clone());
                true
            } else {
                false
            }
        });
        if durable && offered.is_none() {
            return false;
        }
        if let Some(range) = offered {
            next.commit(range);
            next.durable_used = true;
            next.ready.remove(&slot);
        }
        match grant {
            Some(grant) => {
                self.check_grant(&next, &grant, generation);
                next.attempts[slot] += 1;
                next.ready.remove(&slot);
                next.live.push(Live {
                    slot,
                    generation: grant.generation,
                    range: grant.range,
                    tries: grant.tries,
                    stolen: grant.stolen_from.is_some(),
                });
            }
            None if !durable => return false,
            None => {}
        }
        self.explore(next);
        true
    }

    fn check_grant(&self, state: &State<'a>, grant: &Grant, generation: u64) {
        assert!(
            grant.slot < state.scheduler.fleet(),
            "{grant:?} outside the fleet"
        );
        assert_eq!(
            grant.generation,
            generation + 1,
            "every grant bumps the token"
        );
        assert_eq!(grant.attempt, state.attempts[grant.slot]);
        assert_eq!(grant.fault, self.faults.fate(grant.slot, grant.attempt));
        assert!(!grant.range.is_empty() && grant.range.end <= self.total);
        assert!(grant.tries < self.policy.max_attempts);
        let busy = state
            .committed
            .iter()
            .chain(state.live.iter().map(|live| &live.range));
        for other in busy {
            assert!(
                other.end <= grant.range.start || grant.range.end <= other.start,
                "{grant:?} overlaps {other:?}"
            );
        }
        // every earlier generation of the slot — a fenced zombie, a finished
        // attempt — is stale now
        for old in 1..grant.generation {
            assert_stale(&state.scheduler, grant.slot, old);
        }
    }

    fn report(&mut self, state: &State<'a>, index: usize, event: Event) {
        let mut next = state.clone();
        let lease = next.live.remove(index);
        let now = next.now;
        if event != Event::Completed {
            *next
                .failures
                .entry(lease.range.start / RANGE_LEN)
                .or_insert(0) += 1;
        }
        let exhausted = lease.tries + 1 >= self.policy.max_attempts;
        // a failure that puts the range back in the queue while no slot of the
        // fleet is left alive must abandon it, as must a stolen range's last try
        let queued = exhausted || lease.slot >= next.scheduler.fleet();
        let dead = next.scheduler.dead_slots();
        let no_live_slot = (0..next.scheduler.fleet())
            .all(|slot| dead.contains(&slot) || (exhausted && slot == lease.slot));
        let abandon =
            event != Event::Completed && ((lease.stolen && exhausted) || (queued && no_live_slot));
        let result = next
            .scheduler
            .report(lease.slot, lease.generation, event, now);

        if result.is_ok() {
            assert_stale(&next.scheduler, lease.slot, lease.generation);
        }

        match result {
            Ok(Verdict::Committed) => {
                assert_eq!(event, Event::Completed);
                next.commit(lease.range.clone());
            }
            Ok(_) if abandon => panic!("{lease:?} should have been abandoned"),
            Ok(Verdict::Retry { backoff }) => {
                assert_ne!(event, Event::Completed);
                assert!(!exhausted, "{lease:?} retried past its budget");
                assert!(
                    backoff <= self.policy.backoff_cap,
                    "backoff {backoff} over the cap"
                );
                assert_eq!(backoff, self.policy.backoff_ticks(lease.tries));
                if lease.slot < next.scheduler.fleet() {
                    next.ready.insert(lease.slot, now + backoff);
                }
            }
            Ok(Verdict::Stolen) => {
                assert_ne!(event, Event::Completed);
                assert!(exhausted && !lease.stolen, "{lease:?} stolen");
                assert!(next.scheduler.dead_slots().contains(&lease.slot));
            }
            Ok(Verdict::Stale) => panic!("the live lease {lease:?} was reported stale"),
            Err(CampaignError::RangeAbandoned { range }) => {
                assert!(abandon, "{lease:?} abandoned with tries or live slots left");
                if lease.stolen && exhausted {
                    assert_eq!(range, lease.range, "the stolen range itself is abandoned");
                } else {
                    self.check_abandoned(&next, &range);
                }
                self.abandoned += 1;
                return;
            }
            Err(error) => panic!("unexpected {error}"),
        }
        next.live.sort_by_key(|live| (live.slot, live.generation));
        self.explore(next);
    }

    fn resize(&mut self, state: &State<'a>, slots: usize) {
        let mut next = state.clone();
        next.resized = true;
        next.ready.retain(|&slot, _| slot < slots);
        let dead = next.scheduler.dead_slots();
        let stranded = (0..slots).all(|slot| dead.contains(&slot));
        match next.scheduler.resize(slots, RANGE_LEN) {
            Ok(_) => {
                assert_eq!(next.scheduler.fleet(), slots);
                self.explore(next);
            }
            Err(CampaignError::RangeAbandoned { range }) => {
                assert!(
                    stranded,
                    "resize to {slots} abandoned {range:?} with live slots"
                );
                self.check_abandoned(&next, &range);
                self.abandoned += 1;
            }
            Err(error) => panic!("unexpected {error}"),
        }
    }

    fn check_abandoned(&self, state: &State<'a>, range: &Range<usize>) {
        assert!(!range.is_empty() && range.end <= self.total);
        assert!(
            state
                .committed
                .iter()
                .all(|done| done.end <= range.start || range.end <= done.start),
            "abandoned {range:?} was already committed"
        );
    }

    /// A state with nothing left to do must be a finished campaign.
    fn finish(&mut self, state: &State<'a>) {
        assert!(
            state.scheduler.is_done(),
            "stuck with {} open range(s): {state:?}",
            state.scheduler.open()
        );
        assert!(state.scheduler.finish().is_ok());
        let mut next = 0;
        for range in &state.committed {
            assert_eq!(range.start, next, "gap before {range:?}");
            next = range.end;
        }
        assert_eq!(next, self.total, "committed ranges must cover the space");
        let merged = merge_shard_bests(state.committed.iter().cloned().filter_map(scan));
        assert_eq!(
            merged,
            scan(0..self.total),
            "merged best differs from the full scan"
        );
        self.finished += 1;
    }
}

/// Every fleet and queue size, with one resize that cycles the fleet
/// (1 → 2 → 3 → 1 slots: it grows and shrinks).
fn configs() -> impl Iterator<Item = (usize, usize, usize)> {
    (1..=MAX_SLOTS).flat_map(|slots| {
        (1..=MAX_RANGES).map(move |ranges| (slots, ranges, slots % MAX_SLOTS + 1))
    })
}

#[test]
fn every_small_interleaving_commits_each_range_exactly_once() {
    let faults = FaultPlan::random(3, MAX_SLOTS, 2, 1);
    let mut finished = 0;
    let mut abandoned = 0;
    let mut states = 0;
    for max_attempts in 1..=2 {
        // the cap binds from the first retry on
        let policy = RetryPolicy {
            max_attempts,
            backoff_base: 2,
            backoff_cap: 1,
        };
        let failure = if max_attempts == 1 {
            Event::Failed
        } else {
            Event::Fenced
        };
        for (slots, ranges, resize_to) in configs() {
            let total = ranges * RANGE_LEN;
            let plan: Vec<Range<usize>> = (0..ranges)
                .map(|range| range * RANGE_LEN..(range + 1) * RANGE_LEN)
                .collect();
            let mut explorer = Explorer {
                policy,
                failure,
                resize_to,
                faults: &faults,
                total,
                visited: HashSet::new(),
                finished: 0,
                abandoned: 0,
            };
            explorer.explore(State {
                scheduler: Scheduler::new(plan, slots, policy, &faults),
                now: 0,
                live: Vec::new(),
                failures: BTreeMap::new(),
                committed: Vec::new(),
                attempts: [0; MAX_SLOTS],
                ready: BTreeMap::new(),
                resized: false,
                durable_used: false,
            });
            assert!(explorer.finished > 0, "no run of {slots}x{ranges} finished");
            finished += explorer.finished;
            abandoned += explorer.abandoned;
            states += explorer.visited.len();
        }
    }
    assert!(abandoned > 0, "the abandonment paths were never reached");
    eprintln!("{states} states, {finished} finished runs, {abandoned} abandoned runs");
}
