//! The supervised campaign runner: a thin driver of the [`Scheduler`] on rayon
//! threads and a logical clock.
//!
//! [`ShardedCampaign::run_supervised`] partitions the space with a deterministic
//! [`ShardPlan`] — one range per worker slot — and runs in rounds: it asks the
//! [`Scheduler`] for a grant for every slot, scans the granted ranges
//! concurrently, then feeds the results back in slot order.  Retries with capped
//! backoff, stealing from dead slots and abandonment are the scheduler's
//! decisions; this module only scans:
//!
//! * **Logical clock.**  The clock ticks once per scan batch (the heartbeat) and
//!   by each retry's backoff.  A worker that stalls ([`FaultKind::Stall`]) stops
//!   heartbeating for `lease_ticks + 1` ticks, outliving its lease, and fences
//!   itself off — emitting `shard.lease_expired`.
//! * **Store-first scan.**  Every attempt looks each batch up in the store before
//!   evaluating it: persisted keys are **never re-evaluated**, so a retry or a
//!   thief only pays for the records the fault actually lost.  The attempt's
//!   scheduled fault is routed through [`FaultyObjective`] and [`FaultyStore`].
//! * **Deterministic report.**  The scheduler is consulted only between rounds,
//!   in slot order, so the [`SupervisionReport`] of a fixed plan never depends
//!   on thread timing.
//!
//! The hard invariant: under *any* injected [`FaultPlan`] a supervised campaign
//! converges to the bit-identical `(best_config, best_energy, best_index)` of the
//! fault-free run.  Faults only decide *who* evaluates a configuration and *when*
//! — never the value, and never the `(energy, index)` merge order.

use std::ops::Range;

use rayon::prelude::*;

use wd_obs::{FieldValue, NoopRecorder, Recorder};
use wd_opt::{better_indexed, CacheStats, Objective, ResilienceStats, SearchSpace, ShardPlan};

use crate::coordinator::{merge_shard_bests, CampaignOutcome, ShardReport, ShardedCampaign};
use crate::error::CampaignError;
use crate::fault::{FaultKind, FaultPlan, FaultyObjective, FaultyStore};
use crate::scheduler::{Event, Grant, RetryPolicy, Scheduler, Verdict};
use crate::store::ResultStore;

/// Why one supervised attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// The objective failed to evaluate a batch (nothing was recorded).
    EvalError,
    /// The worker died between batches.
    ShardDeath,
    /// The worker stalled and its lease expired on the logical clock.
    LeaseExpired,
    /// A batch append was torn mid-write (the prefix persisted, the attempt died).
    TornWrite,
}

/// One attempt a worker made on a range, successful or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// Executing worker slot.
    pub slot: usize,
    /// The slot's cumulative attempt counter at the time.
    pub attempt: usize,
    /// Global enumeration-index range scanned.
    pub range: Range<usize>,
    /// When the range was stolen: the slot that originally owned (and abandoned)
    /// it.
    pub stolen_from: Option<usize>,
    /// `None` for a completed scan, otherwise why the attempt aborted.
    pub failure: Option<FailureReason>,
}

/// How much supervision a campaign needed, beyond the merged result itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Merged attempt/retry/lease/steal counters.
    pub resilience: ResilienceStats,
    /// Store hit/miss counters accumulated by attempts that *failed*.  Misses here
    /// are evaluations whose results were persisted before the fault — the
    /// store-first rescan reuses them, so they are spent once, not wasted.
    pub failed_stats: CacheStats,
    /// Every attempt in deterministic `(slot, attempt)` order.
    pub attempts: Vec<AttemptRecord>,
    /// Worker slots that exhausted their retries on their own range (their ranges
    /// were completed by work-stealing).
    pub dead_slots: Vec<usize>,
    /// Final value of the campaign's logical clock.
    pub final_clock: u64,
}

/// A [`CampaignOutcome`] plus the [`SupervisionReport`] describing how it was won.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedOutcome<C> {
    /// The merged campaign result — bit-identical to the fault-free run.
    pub outcome: CampaignOutcome<C>,
    /// What supervision had to do to get there.
    pub supervision: SupervisionReport,
}

/// What one scan attempt did.
struct Scanned {
    /// Logical-clock ticks the attempt spent: one per batch, plus a stall.
    ticks: u64,
    /// Evaluation requests issued (store hits and misses alike).
    requests: usize,
    stats: CacheStats,
    /// The range's `(index, energy)` best, or why the attempt aborted.
    result: Result<Option<(usize, f64)>, FailureReason>,
}

/// The read-only half of a supervised campaign: what an attempt scans, and
/// through what.
struct Scan<'a, S: SearchSpace, O, R> {
    space: &'a S,
    materialized: Option<&'a [S::Config]>,
    objective: &'a O,
    store: &'a R,
    batch_size: usize,
    lease_ticks: u64,
}

impl<S, O, R> Scan<'_, S, O, R>
where
    S: SearchSpace + Sync,
    S::Config: Clone + Send + Sync,
    O: Objective<S::Config> + Sync,
    R: ResultStore<S::Config> + Sync,
{
    /// Materialise the configurations of one batch.
    fn configs_for(&self, range: &Range<usize>) -> Result<Vec<S::Config>, CampaignError> {
        if let Some(all) = self.materialized {
            return all
                .get(range.clone())
                .map(<[S::Config]>::to_vec)
                .ok_or(CampaignError::MissingConfig { index: range.start });
        }
        range
            .clone()
            .map(|index| {
                self.space
                    .config_at(index)
                    .ok_or(CampaignError::MissingConfig { index })
            })
            .collect()
    }

    /// One full scan of the granted range: store-first lookups, fallible
    /// evaluation, one heartbeat tick per batch, and the attempt's scheduled
    /// fault routed through the wrappers.
    fn attempt(&self, grant: &Grant) -> Result<Scanned, CampaignError> {
        let faulty_objective = FaultyObjective::new(self.objective, grant.fault);
        let faulty_store = FaultyStore::new(self.store, grant.fault);
        let mut scanned = Scanned {
            ticks: 0,
            requests: 0,
            stats: CacheStats::default(),
            result: Ok(None),
        };
        let mut best: Option<(usize, f64)> = None;
        let range = grant.range.clone();
        for (batch_index, start) in range.clone().step_by(self.batch_size).enumerate() {
            let end = start.saturating_add(self.batch_size).min(range.end);
            scanned.ticks += 1;

            // scheduled between-batch faults
            match grant.fault {
                Some(event) if event.after_batches == batch_index => match event.kind {
                    FaultKind::ShardDeath => {
                        scanned.result = Err(FailureReason::ShardDeath);
                        return Ok(scanned);
                    }
                    FaultKind::Stall => {
                        // a stalled worker stops heartbeating: once the clock has
                        // moved `lease_ticks + 1` past its last renewal the lease
                        // is gone and the worker fences itself off
                        scanned.ticks = scanned
                            .ticks
                            .saturating_add(self.lease_ticks.saturating_add(1));
                        scanned.result = Err(FailureReason::LeaseExpired);
                        return Ok(scanned);
                    }
                    FaultKind::EvalError | FaultKind::TornWrite => {}
                },
                _ => {}
            }

            let configs = self.configs_for(&(start..end))?;
            scanned.requests += configs.len();

            let mut energies = vec![0.0f64; configs.len()];
            let mut pending: Vec<usize> = Vec::new();
            for (offset, found) in faulty_store.lookup_batch(&configs).into_iter().enumerate() {
                match found {
                    Some(energy) => energies[offset] = energy,
                    None => pending.push(offset),
                }
            }
            scanned.stats.hits += configs.len() - pending.len();
            if !pending.is_empty() {
                let pending_configs: Vec<S::Config> = pending
                    .iter()
                    .map(|&offset| configs[offset].clone())
                    .collect();
                // evaluate-then-record: an injected evaluation error aborts BEFORE
                // anything reaches the store, so the store never holds a value the
                // fault-free run would not have produced
                let Ok(fresh) = faulty_objective.try_evaluate_batch(&pending_configs) else {
                    scanned.result = Err(FailureReason::EvalError);
                    return Ok(scanned);
                };
                faulty_store.record_batch(&pending_configs, &fresh);
                scanned.stats.misses += pending_configs.len();
                for (&offset, &energy) in pending.iter().zip(&fresh) {
                    energies[offset] = energy;
                }
                if faulty_store.tripped() {
                    // the torn record was evaluated but never persisted; the retry
                    // re-evaluates exactly that configuration
                    scanned.result = Err(FailureReason::TornWrite);
                    return Ok(scanned);
                }
            }

            for (offset, &energy) in energies.iter().enumerate() {
                let candidate = (start + offset, energy);
                best = Some(best.map_or(candidate, |current| better_indexed(current, candidate)));
            }
        }
        scanned.result = Ok(best);
        Ok(scanned)
    }
}

impl ShardedCampaign {
    /// [`ShardedCampaign::run`] under supervision: leases with a logical-clock
    /// heartbeat, capped-exponential-backoff retries, work-stealing of dead
    /// shards, and idempotent store-first resume — with `faults` injected on the
    /// deterministic schedule of the [`FaultPlan`] (pass [`FaultPlan::none`] for a
    /// production run without injection).
    ///
    /// The merged `(best_config, best_energy, best_index)` is **bit-identical** to
    /// the fault-free [`ShardedCampaign::run`] for every plan, policy, shard count
    /// and batch size; keys persisted in `store` are never re-evaluated, so
    /// recovery only pays for what a fault actually lost.
    ///
    /// # Errors
    ///
    /// The same conditions as [`ShardedCampaign::run`], plus
    /// [`CampaignError::RangeAbandoned`] when a stolen range exhausts its thief's
    /// retries or every slot is dead.
    pub fn run_supervised<S, O, R>(
        &self,
        space: &S,
        objective: &O,
        store: &R,
        faults: &FaultPlan,
        policy: &RetryPolicy,
    ) -> Result<SupervisedOutcome<S::Config>, CampaignError>
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
            faults,
            policy,
            &NoopRecorder,
            "campaign",
        )
    }

    /// [`ShardedCampaign::run_supervised`] with every supervision decision
    /// published to `recorder` under `scope`: the coordinator lifecycle events
    /// (`shard_started` / `shard_completed` / `merged`) plus
    /// `shard.lease_expired`, `shard.retried` and `shard.stolen`.  The recorder
    /// only observes, so outcomes are bit-identical to the unobserved run.
    #[allow(clippy::too_many_arguments)]
    pub fn run_supervised_observed<S, O, R>(
        &self,
        space: &S,
        objective: &O,
        store: &R,
        faults: &FaultPlan,
        policy: &RetryPolicy,
        recorder: &dyn Recorder,
        scope: &str,
    ) -> Result<SupervisedOutcome<S::Config>, CampaignError>
    where
        S: SearchSpace + Sync,
        S::Config: Clone + Send + Sync,
        O: Objective<S::Config> + Sync,
        R: ResultStore<S::Config> + Sync,
    {
        let (materialized, total) = match space.space_len() {
            Some(len) => (None, len),
            None => {
                let configs = space.enumerate().ok_or(CampaignError::NotEnumerable)?;
                let len = configs.len();
                (Some(configs), len)
            }
        };
        if total == 0 {
            return Err(CampaignError::EmptySpace);
        }
        let plan = ShardPlan::new(total, self.shard_count);
        let slots = plan.shard_count();
        let scan = Scan {
            space,
            materialized: materialized.as_deref(),
            objective,
            store,
            batch_size: self.batch_size.max(1),
            lease_ticks: policy.lease_ticks,
        };
        let mut scheduler = Scheduler::new(plan.ranges(), slots, *policy, faults);
        let emit = |kind: &str, fields: &[(&str, FieldValue)]| {
            if recorder.enabled() {
                recorder.event(scope, kind, fields);
            }
        };
        let u64_of = |value: usize| FieldValue::U64(value as u64);

        let mut clock = 0u64;
        let mut reports: Vec<ShardReport> = Vec::with_capacity(slots);
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let mut resilience = ResilienceStats::default();
        let mut failed_stats = CacheStats::default();
        loop {
            let grants: Vec<Grant> = (0..slots)
                .filter_map(|slot| scheduler.next(slot, clock, |_| false))
                .collect();
            if grants.is_empty() {
                break;
            }
            for grant in &grants {
                resilience.attempts += 1;
                let (start, len) = (u64_of(grant.range.start), u64_of(grant.range.len()));
                match grant.stolen_from {
                    None if grant.tries == 0 => emit(
                        "shard_started",
                        &[
                            ("shard", u64_of(grant.shard)),
                            ("start", start),
                            ("len", len),
                        ],
                    ),
                    Some(owner) if grant.tries == 0 => {
                        resilience.steals += 1;
                        emit(
                            "shard.stolen",
                            &[
                                ("shard", u64_of(grant.shard)),
                                ("owner", u64_of(owner)),
                                ("thief", u64_of(grant.slot)),
                                ("start", start),
                                ("len", len),
                            ],
                        );
                    }
                    _ => {}
                }
            }
            let scans: Vec<Result<Scanned, CampaignError>> =
                grants.par_iter().map(|grant| scan.attempt(grant)).collect();

            for (grant, scanned) in grants.into_iter().zip(scans) {
                let scanned = scanned?;
                clock = clock.saturating_add(scanned.ticks);
                attempts.push(AttemptRecord {
                    slot: grant.slot,
                    attempt: grant.attempt,
                    range: grant.range.clone(),
                    stolen_from: grant.stolen_from,
                    failure: scanned.result.err(),
                });
                match scanned.result {
                    Ok(Some((best_index, best_energy))) => {
                        let verdict = scheduler.report(
                            grant.slot,
                            grant.generation,
                            Event::Completed,
                            clock,
                        )?;
                        if verdict != Verdict::Committed {
                            continue;
                        }
                        let report = ShardReport {
                            shard_index: grant.shard,
                            range: grant.range,
                            best_index,
                            best_energy,
                            evaluations: scanned.requests,
                            stats: scanned.stats,
                        };
                        emit(
                            "shard_completed",
                            &[
                                ("shard", u64_of(report.shard_index)),
                                ("best_index", u64_of(report.best_index)),
                                ("best_energy", FieldValue::F64(report.best_energy)),
                                ("evaluations", u64_of(report.evaluations)),
                                ("hits", u64_of(report.stats.hits)),
                                ("misses", u64_of(report.stats.misses)),
                            ],
                        );
                        reports.push(report);
                    }
                    // an empty range has no best to commit; `finish` reports it
                    Ok(None) => {}
                    Err(reason) => {
                        failed_stats += scanned.stats;
                        let event = if reason == FailureReason::LeaseExpired {
                            resilience.lease_expiries += 1;
                            emit(
                                "shard.lease_expired",
                                &[
                                    ("shard", u64_of(grant.slot)),
                                    ("attempt", u64_of(grant.attempt)),
                                    ("clock", FieldValue::U64(clock)),
                                ],
                            );
                            Event::Fenced
                        } else {
                            Event::Failed
                        };
                        let verdict =
                            scheduler.report(grant.slot, grant.generation, event, clock)?;
                        if let Verdict::Retry { backoff } = verdict {
                            resilience.retries += 1;
                            clock = clock.saturating_add(backoff);
                            emit(
                                "shard.retried",
                                &[
                                    ("shard", u64_of(grant.slot)),
                                    ("attempt", u64_of(grant.attempt + 1)),
                                    ("backoff_ticks", FieldValue::U64(backoff)),
                                ],
                            );
                        }
                    }
                }
            }
        }
        scheduler.finish()?;

        // reports in plan order (one completed range per plan shard)
        reports.sort_by_key(|report| report.range.start);
        let (best_index, best_energy) = merge_shard_bests(reports.iter().map(ShardReport::best))
            .ok_or(CampaignError::EmptySpace)?;
        let stats: CacheStats = reports.iter().map(|report| report.stats).sum();
        emit(
            "merged",
            &[
                ("shards", u64_of(reports.len())),
                ("best_index", u64_of(best_index)),
                ("best_energy", FieldValue::F64(best_energy)),
                ("hits", u64_of(stats.hits)),
                ("misses", u64_of(stats.misses)),
            ],
        );
        // the audit trail records everything that ran, failed attempts included
        store.record_stats(stats + failed_stats);
        store.flush()?;

        let best_config = match materialized {
            Some(mut configs) if best_index < configs.len() => configs.swap_remove(best_index),
            Some(_) => return Err(CampaignError::MissingConfig { index: best_index }),
            None => space
                .config_at(best_index)
                .ok_or(CampaignError::MissingConfig { index: best_index })?,
        };
        attempts.sort_by_key(|a| (a.slot, a.attempt));

        Ok(SupervisedOutcome {
            outcome: CampaignOutcome {
                best_config,
                best_energy,
                best_index,
                evaluations: reports.iter().map(|report| report.evaluations).sum(),
                stats,
                shards: reports,
            },
            supervision: SupervisionReport {
                resilience,
                failed_stats,
                attempts,
                dead_slots: scheduler.dead_slots(),
                final_clock: clock,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;
    use crate::store::MemoryStore;
    use wd_opt::space::GridSpace;

    fn bowl(config: &(u32, u32)) -> f64 {
        let dx = config.0 as f64 - 13.0;
        let dy = config.1 as f64 - 5.0;
        dx * dx + dy * dy
    }

    #[test]
    fn fault_free_supervision_matches_the_plain_run() {
        let space = GridSpace {
            width: 23,
            height: 17,
        };
        let reference = ShardedCampaign::new(4)
            .run(&space, &bowl, &MemoryStore::new())
            .unwrap();
        let supervised = ShardedCampaign::new(4)
            .run_supervised(
                &space,
                &bowl,
                &MemoryStore::new(),
                &FaultPlan::none(),
                &RetryPolicy::default(),
            )
            .unwrap();
        assert_eq!(supervised.outcome.best_config, reference.best_config);
        assert_eq!(
            supervised.outcome.best_energy.to_bits(),
            reference.best_energy.to_bits()
        );
        assert_eq!(supervised.outcome.best_index, reference.best_index);
        assert_eq!(supervised.outcome.evaluations, 23 * 17);
        assert_eq!(
            supervised.supervision.resilience,
            ResilienceStats {
                attempts: 4,
                ..ResilienceStats::default()
            }
        );
        assert!(supervised.supervision.dead_slots.is_empty());
        assert!(!supervised.supervision.resilience.recovered_from_faults());
    }

    #[test]
    fn every_fault_kind_recovers_to_the_reference_result() {
        let space = GridSpace {
            width: 19,
            height: 11,
        };
        let reference = ShardedCampaign::new(3)
            .run(&space, &bowl, &MemoryStore::new())
            .unwrap();
        for kind in [
            FaultKind::EvalError,
            FaultKind::ShardDeath,
            FaultKind::Stall,
            FaultKind::TornWrite,
        ] {
            let faults = FaultPlan::from_events(vec![FaultEvent {
                slot: 1,
                attempt: 0,
                after_batches: 1,
                kind,
            }]);
            let supervised = ShardedCampaign::new(3)
                .with_batch_size(16)
                .run_supervised(
                    &space,
                    &bowl,
                    &MemoryStore::new(),
                    &faults,
                    &RetryPolicy::default(),
                )
                .unwrap();
            assert_eq!(
                supervised.outcome.best_config, reference.best_config,
                "{kind:?}"
            );
            assert_eq!(
                supervised.outcome.best_energy.to_bits(),
                reference.best_energy.to_bits(),
                "{kind:?}"
            );
            assert_eq!(supervised.outcome.best_index, reference.best_index);
            let resilience = supervised.supervision.resilience;
            assert_eq!(resilience.retries, 1, "{kind:?}");
            assert_eq!(
                resilience.lease_expiries,
                usize::from(kind == FaultKind::Stall),
                "{kind:?}"
            );
            assert_eq!(
                supervised
                    .supervision
                    .attempts
                    .iter()
                    .filter(|attempt| attempt.failure.is_some())
                    .count(),
                1
            );
        }
    }

    #[test]
    fn dead_shards_are_work_stolen_and_the_result_still_matches() {
        let space = GridSpace {
            width: 21,
            height: 13,
        };
        let reference = ShardedCampaign::new(4)
            .run(&space, &bowl, &MemoryStore::new())
            .unwrap();
        // slot 2 dies on every attempt it is allowed: it must be declared dead and
        // its range completed by someone else
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let faults = FaultPlan::from_events(
            (0..2)
                .map(|attempt| FaultEvent {
                    slot: 2,
                    attempt,
                    after_batches: 0,
                    kind: FaultKind::ShardDeath,
                })
                .collect(),
        );
        let supervised = ShardedCampaign::new(4)
            .with_batch_size(8)
            .run_supervised(&space, &bowl, &MemoryStore::new(), &faults, &policy)
            .unwrap();
        assert_eq!(supervised.outcome.best_config, reference.best_config);
        assert_eq!(
            supervised.outcome.best_energy.to_bits(),
            reference.best_energy.to_bits()
        );
        assert_eq!(supervised.supervision.dead_slots, vec![2]);
        assert!(supervised.supervision.resilience.steals >= 1);
        // the stolen range was still completed exactly once per plan shard
        assert_eq!(supervised.outcome.shards.len(), 4);
        let mut next = 0usize;
        for report in &supervised.outcome.shards {
            assert_eq!(report.range.start, next);
            next = report.range.end;
        }
        assert_eq!(next, 21 * 13);
    }

    #[test]
    fn supervision_report_is_deterministically_ordered() {
        let space = GridSpace {
            width: 12,
            height: 12,
        };
        let faults = FaultPlan::random(99, 3, 2, 2);
        let run = || {
            ShardedCampaign::new(3)
                .with_batch_size(10)
                .run_supervised(
                    &space,
                    &bowl,
                    &MemoryStore::new(),
                    &faults,
                    &RetryPolicy::default(),
                )
                .map(|supervised| supervised.supervision.attempts)
        };
        let attempts = run().unwrap();
        assert_eq!(
            attempts,
            run().unwrap(),
            "the same plan schedules the same attempts"
        );
        for window in attempts.windows(2) {
            assert!(
                (window[0].slot, window[0].attempt) < (window[1].slot, window[1].attempt),
                "attempts are sorted and unique per (slot, attempt)"
            );
        }
    }
}
