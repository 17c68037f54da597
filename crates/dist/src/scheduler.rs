//! The campaign scheduler: the pure state machine behind the fault-tolerant
//! campaign driver.
//!
//! A [`Scheduler`] decides which range runs on which worker slot, and what
//! happens after an attempt ends.  It does no IO and reads no clock: time
//! arrives as an integer `now` in ticks.  [`crate::ProcCampaign`] executes its
//! decisions with worker processes, passing elapsed time divided by its tick;
//! the state machine alone is model-checked over every small interleaving.
//!
//! The policy, in one place:
//!
//! * **Queue.**  Ranges wait in a FIFO queue; a free slot takes the front one.
//! * **Leases.**  Every grant bumps the slot's lease generation (the fencing
//!   token) and its cumulative attempt counter (the key of [`FaultPlan::fate`]).
//!   A report carries the generation it was granted under; a report whose
//!   generation is no longer current — a fenced zombie, a duplicate — is
//!   [`Verdict::Stale`] and never commits.
//! * **Retries.**  A failed or fenced attempt is retried by the *same* slot
//!   after [`RetryPolicy::backoff_ticks`], up to [`RetryPolicy::max_attempts`]
//!   tries per range.  The slot takes no other work while it backs off.
//! * **Stealing.**  A slot that exhausts its tries on a range is dead: it gets no
//!   further grants, and its range goes to the back of the queue for any live
//!   slot to steal.
//! * **Abandonment.**  A stolen range that exhausts its thief's tries, or a
//!   queued range no live slot can take, ends the campaign with
//!   [`CampaignError::RangeAbandoned`] — never a silent drop.
//! * **Resize.**  Slots at or beyond the fleet size get no new grants, and their
//!   pending retries go back to the queue.  When free live slots outnumber the
//!   queued ranges, the largest queued range is split in half.

use std::collections::VecDeque;
use std::ops::Range;

use crate::error::CampaignError;
use crate::fault::{FaultEvent, FaultPlan};

/// Retry parameters of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Tries a slot makes on one range before it is declared dead and the range
    /// goes to the steal queue (at least 1).
    pub max_attempts: usize,
    /// Backoff before the first retry, in ticks.
    pub backoff_base: u64,
    /// Upper bound on the backoff, in ticks.
    pub backoff_cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: 1,
            backoff_cap: 8,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry_index` (0-based):
    /// `min(backoff_base · 2^retry_index, backoff_cap)` ticks, saturating.
    pub fn backoff_ticks(&self, retry_index: usize) -> u64 {
        let factor = if retry_index >= 63 {
            u64::MAX
        } else {
            1u64 << retry_index
        };
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// A range on its way through the campaign.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Work {
    shard: usize,
    range: Range<usize>,
    tries: usize,
    stolen_from: Option<usize>,
}

/// What a slot is doing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
enum Hold {
    #[default]
    Idle,
    Leased(Work),
    Backoff {
        work: Work,
        ready_at: u64,
    },
    Dead,
}

#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Slot {
    attempts: usize,
    generation: u64,
    hold: Hold,
}

/// One lease: run `range` on `slot` under fencing token `generation`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// The worker slot that runs the range.
    pub slot: usize,
    /// The lease generation (fencing token) the attempt must report with.
    pub generation: u64,
    /// The slot's cumulative attempt counter for this attempt.
    pub attempt: usize,
    /// The fault the [`FaultPlan`] schedules for this attempt.
    pub fault: Option<FaultEvent>,
    /// Position of the range in the initial list (split tails are numbered
    /// after it).
    pub shard: usize,
    /// Global enumeration-index range to scan.
    pub range: Range<usize>,
    /// Failed tries on this range by its current holder (0 on a first try).
    pub tries: usize,
    /// The dead slot this range was stolen from, if any.
    pub stolen_from: Option<usize>,
}

/// How an attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The attempt scanned and persisted its whole range.
    Completed,
    /// The attempt died before finishing its range.
    Failed,
    /// The attempt's lease expired: the generation moves on, so any later
    /// report from the same attempt is stale.
    Fenced,
}

/// What the scheduler made of a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The range is committed.
    Committed,
    /// The report's generation is not the slot's live lease; it was ignored.
    Stale,
    /// The range is retried after `backoff` ticks (by the same slot, unless the
    /// slot has left the fleet).
    Retry {
        /// Ticks before the retry is granted.
        backoff: u64,
    },
    /// The slot is dead; its range waits in the queue for a thief.
    Stolen,
}

/// The pure campaign state machine (see the module docs for its policy).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Scheduler<'a> {
    policy: RetryPolicy,
    faults: &'a FaultPlan,
    fleet: usize,
    slots: Vec<Slot>,
    queue: VecDeque<Work>,
    open: usize,
    next_shard: usize,
}

impl<'a> Scheduler<'a> {
    /// Schedule `ranges` (empty ones are skipped) over `slots` worker slots.
    pub fn new(
        ranges: Vec<Range<usize>>,
        slots: usize,
        policy: RetryPolicy,
        faults: &'a FaultPlan,
    ) -> Self {
        let next_shard = ranges.len();
        let queue: VecDeque<Work> = ranges
            .into_iter()
            .enumerate()
            .filter(|(_, range)| !range.is_empty())
            .map(|(shard, range)| Work {
                shard,
                range,
                tries: 0,
                stolen_from: None,
            })
            .collect();
        let fleet = slots.max(1);
        Scheduler {
            policy,
            faults,
            fleet,
            slots: vec![Slot::default(); fleet],
            open: queue.len(),
            queue,
            next_shard,
        }
    }

    /// Whether every range is committed.
    pub fn is_done(&self) -> bool {
        self.open == 0
    }

    /// Ranges not yet committed.
    pub fn open(&self) -> usize {
        self.open
    }

    /// Current fleet size: slots `0..fleet` may receive grants.
    pub fn fleet(&self) -> usize {
        self.fleet
    }

    /// The current lease generation of `slot` (0 before its first grant).
    pub fn generation(&self, slot: usize) -> u64 {
        self.slots.get(slot).map_or(0, |state| state.generation)
    }

    /// Slots that exhausted their tries on a range, in slot order.
    pub fn dead_slots(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&slot| self.slots[slot].hold == Hold::Dead)
            .collect()
    }

    /// The next lease for `slot` at time `now`, if it should start one: its own
    /// retry once the backoff has passed, otherwise the front of the queue.
    ///
    /// `durable` is asked about each range before it is granted; a range it
    /// reports as already durable is committed on the spot, with no lease, no
    /// generation bump and no attempt.
    pub fn next(
        &mut self,
        slot: usize,
        now: u64,
        mut durable: impl FnMut(&Range<usize>) -> bool,
    ) -> Option<Grant> {
        if slot >= self.fleet {
            return None;
        }
        let state = self.slots.get_mut(slot)?;
        loop {
            let work = match &state.hold {
                Hold::Idle => self.queue.pop_front()?,
                Hold::Backoff { work, ready_at } if *ready_at <= now => {
                    let work = work.clone();
                    state.hold = Hold::Idle;
                    work
                }
                _ => return None,
            };
            if durable(&work.range) {
                self.open -= 1;
                continue;
            }
            state.generation += 1;
            let attempt = state.attempts;
            state.attempts += 1;
            let grant = Grant {
                slot,
                generation: state.generation,
                attempt,
                fault: self.faults.fate(slot, attempt),
                shard: work.shard,
                range: work.range.clone(),
                tries: work.tries,
                stolen_from: work.stolen_from,
            };
            state.hold = Hold::Leased(work);
            return Some(grant);
        }
    }

    /// Feed back how the attempt `slot` ran under `generation` ended, at time
    /// `now`.
    ///
    /// # Errors
    ///
    /// [`CampaignError::RangeAbandoned`] when the failure leaves a range that no
    /// slot may try again.
    pub fn report(
        &mut self,
        slot: usize,
        generation: u64,
        event: Event,
        now: u64,
    ) -> Result<Verdict, CampaignError> {
        let state = match self.slots.get_mut(slot) {
            Some(state) if state.generation == generation => state,
            _ => return Ok(Verdict::Stale),
        };
        let Hold::Leased(mut work) = state.hold.clone() else {
            return Ok(Verdict::Stale);
        };
        state.hold = Hold::Idle;
        match event {
            Event::Completed => {
                self.open -= 1;
                return Ok(Verdict::Committed);
            }
            Event::Fenced => state.generation += 1,
            Event::Failed => {}
        }

        work.tries += 1;
        if work.tries < self.policy.max_attempts.max(1) {
            let backoff = self.policy.backoff_ticks(work.tries - 1);
            if slot < self.fleet {
                state.hold = Hold::Backoff {
                    work,
                    ready_at: now.saturating_add(backoff),
                };
            } else {
                // a slot that left the fleet cannot wait out its backoff; the
                // range is retried by whichever slot is free first
                self.queue.push_back(work);
                self.check_stranded()?;
            }
            return Ok(Verdict::Retry { backoff });
        }
        if work.stolen_from.is_some() {
            return Err(CampaignError::RangeAbandoned { range: work.range });
        }
        state.hold = Hold::Dead;
        work.tries = 0;
        work.stolen_from = Some(slot);
        self.queue.push_back(work);
        self.check_stranded()?;
        Ok(Verdict::Stolen)
    }

    /// Change the fleet to `slots` worker slots; returns how many queued ranges
    /// were split (ranges shorter than `min_split` never are).
    ///
    /// # Errors
    ///
    /// [`CampaignError::RangeAbandoned`] when ranges are queued but no live slot
    /// is left in the fleet.
    pub fn resize(&mut self, slots: usize, min_split: usize) -> Result<usize, CampaignError> {
        self.fleet = slots.max(1);
        if self.slots.len() < self.fleet {
            self.slots.resize_with(self.fleet, Slot::default);
        }
        for state in self.slots.iter_mut().skip(self.fleet) {
            if let Hold::Backoff { work, .. } = &state.hold {
                self.queue.push_back(work.clone());
                state.hold = Hold::Idle;
            }
        }

        let free = self.slots[..self.fleet]
            .iter()
            .filter(|state| state.hold == Hold::Idle)
            .count();
        let mut splits = 0;
        while free > self.queue.len() {
            let largest = self
                .queue
                .iter()
                .enumerate()
                .filter(|(_, work)| work.range.len() >= min_split.max(2))
                .max_by_key(|(_, work)| work.range.len())
                .map(|(pos, _)| pos);
            let Some(head) = largest.and_then(|pos| self.queue.get_mut(pos)) else {
                break;
            };
            let mid = head.range.start + head.range.len() / 2;
            let tail = Work {
                shard: self.next_shard,
                range: mid..head.range.end,
                tries: 0,
                stolen_from: head.stolen_from,
            };
            head.range.end = mid;
            self.queue.push_back(tail);
            self.next_shard += 1;
            self.open += 1;
            splits += 1;
        }
        self.check_stranded()?;
        Ok(splits)
    }

    /// Declare the campaign over from the driver's side: every range must be
    /// committed by now.
    ///
    /// # Errors
    ///
    /// [`CampaignError::RangeAbandoned`] naming an uncommitted range.
    pub fn finish(&self) -> Result<(), CampaignError> {
        let held = self.slots.iter().find_map(|state| match &state.hold {
            Hold::Leased(work) | Hold::Backoff { work, .. } => Some(work),
            Hold::Idle | Hold::Dead => None,
        });
        match self.queue.front().or(held) {
            Some(work) if !self.is_done() => Err(CampaignError::RangeAbandoned {
                range: work.range.clone(),
            }),
            _ => Ok(()),
        }
    }

    /// Abandon the front of the queue when no live slot in the fleet can ever
    /// take it.
    fn check_stranded(&self) -> Result<(), CampaignError> {
        let live = self.slots[..self.fleet]
            .iter()
            .any(|state| state.hold != Hold::Dead);
        match self.queue.front() {
            Some(work) if !live => Err(CampaignError::RangeAbandoned {
                range: work.range.clone(),
            }),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wd_opt::ShardPlan;

    fn policy(max_attempts: usize) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let policy = RetryPolicy {
            max_attempts: 10,
            backoff_base: 2,
            backoff_cap: 12,
        };
        assert_eq!(policy.backoff_ticks(0), 2);
        assert_eq!(policy.backoff_ticks(1), 4);
        assert_eq!(policy.backoff_ticks(2), 8);
        assert_eq!(policy.backoff_ticks(3), 12, "capped");
        assert_eq!(policy.backoff_ticks(200), 12, "no overflow at huge retries");
    }

    #[test]
    fn slots_take_the_queue_in_order_and_commit() {
        let faults = FaultPlan::none();
        let mut scheduler = Scheduler::new(vec![0..4, 4..8, 8..9], 2, policy(2), &faults);
        let a = scheduler.next(0, 0, |_| false).unwrap();
        let b = scheduler.next(1, 0, |_| false).unwrap();
        assert_eq!((a.range.clone(), b.range.clone()), (0..4, 4..8));
        assert_eq!(scheduler.next(0, 0, |_| false), None, "slot 0 is busy");
        assert_eq!(
            scheduler
                .report(0, a.generation, Event::Completed, 0)
                .unwrap(),
            Verdict::Committed
        );
        let c = scheduler.next(0, 0, |_| false).unwrap();
        assert_eq!((c.range, c.attempt, c.generation), (8..9, 1, 2));
        scheduler
            .report(1, b.generation, Event::Completed, 0)
            .unwrap();
        scheduler
            .report(0, c.generation, Event::Completed, 0)
            .unwrap();
        assert!(scheduler.is_done());
        scheduler.finish().unwrap();
    }

    #[test]
    fn failures_retry_on_the_same_slot_then_get_stolen() {
        let faults = FaultPlan::none();
        let mut scheduler = Scheduler::new(vec![0..4, 4..8], 2, policy(2), &faults);
        let a = scheduler.next(0, 0, |_| false).unwrap();
        let b = scheduler.next(1, 0, |_| false).unwrap();
        assert_eq!(
            scheduler
                .report(0, a.generation, Event::Failed, 10)
                .unwrap(),
            Verdict::Retry { backoff: 1 }
        );
        assert_eq!(scheduler.next(0, 10, |_| false), None, "backing off");
        let retry = scheduler.next(0, 11, |_| false).unwrap();
        assert_eq!((retry.range.clone(), retry.tries), (0..4, 1));
        assert_eq!(
            scheduler
                .report(0, retry.generation, Event::Fenced, 11)
                .unwrap(),
            Verdict::Stolen
        );
        // the zombie's late report is stale; the dead slot gets nothing more
        assert_eq!(
            scheduler
                .report(0, retry.generation, Event::Completed, 12)
                .unwrap(),
            Verdict::Stale
        );
        assert_eq!(scheduler.next(0, 12, |_| false), None);
        assert_eq!(scheduler.dead_slots(), vec![0]);
        scheduler
            .report(1, b.generation, Event::Completed, 12)
            .unwrap();
        let stolen = scheduler.next(1, 12, |_| false).unwrap();
        assert_eq!((stolen.range.clone(), stolen.stolen_from), (0..4, Some(0)));
        assert_eq!(
            scheduler
                .report(1, stolen.generation, Event::Failed, 13)
                .unwrap(),
            Verdict::Retry { backoff: 1 }
        );
        let retry = scheduler.next(1, 14, |_| false).unwrap();
        let error = scheduler
            .report(1, retry.generation, Event::Failed, 14)
            .unwrap_err();
        assert!(matches!(error, CampaignError::RangeAbandoned { range } if range == (0..4)));
    }

    #[test]
    fn durable_ranges_commit_without_a_lease() {
        let faults = FaultPlan::none();
        let mut scheduler = Scheduler::new(vec![0..4, 4..8], 1, policy(2), &faults);
        let grant = scheduler.next(0, 0, |range| range.start == 0).unwrap();
        assert_eq!((grant.range, grant.generation, grant.attempt), (4..8, 1, 0));
        assert_eq!(scheduler.open(), 1);
    }

    #[test]
    fn growing_the_fleet_splits_queued_ranges() {
        let faults = FaultPlan::none();
        let mut scheduler = Scheduler::new(ShardPlan::new(8, 1).ranges(), 1, policy(2), &faults);
        assert_eq!(scheduler.resize(3, 2).unwrap(), 2);
        let ranges: Vec<Range<usize>> = (0..3)
            .filter_map(|slot| scheduler.next(slot, 0, |_| false))
            .map(|grant| grant.range)
            .collect();
        assert_eq!(ranges, vec![0..4, 4..6, 6..8]);
        assert_eq!(scheduler.open(), 3);
    }

    #[test]
    fn a_fleet_of_dead_slots_abandons_the_queue() {
        let faults = FaultPlan::none();
        let mut scheduler = Scheduler::new(ShardPlan::new(4, 1).ranges(), 1, policy(1), &faults);
        let grant = scheduler.next(0, 0, |_| false).unwrap();
        let error = scheduler
            .report(0, grant.generation, Event::Failed, 0)
            .unwrap_err();
        assert!(matches!(error, CampaignError::RangeAbandoned { range } if range == (0..4)));
    }
}
