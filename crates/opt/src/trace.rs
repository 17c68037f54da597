//! Per-iteration optimization traces.

use wd_obs::IterationEvent;

/// One record per optimizer iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationRecord {
    /// Iteration number (0-based).
    pub iteration: usize,
    /// Energy of the configuration proposed in this iteration.
    pub proposed_energy: f64,
    /// Energy of the configuration the optimizer holds after this iteration.
    pub current_energy: f64,
    /// Best energy seen so far.
    pub best_energy: f64,
    /// Temperature (or an analogous control parameter; 0 for methods without one).
    pub temperature: f64,
    /// Whether the proposal was accepted.
    pub accepted: bool,
}

impl From<IterationRecord> for IterationEvent {
    fn from(record: IterationRecord) -> Self {
        IterationEvent {
            iteration: record.iteration,
            proposed_energy: record.proposed_energy,
            current_energy: record.current_energy,
            best_energy: record.best_energy,
            temperature: record.temperature,
            accepted: record.accepted,
        }
    }
}

impl From<IterationEvent> for IterationRecord {
    fn from(event: IterationEvent) -> Self {
        IterationRecord {
            iteration: event.iteration,
            proposed_energy: event.proposed_energy,
            current_energy: event.current_energy,
            best_energy: event.best_energy,
            temperature: event.temperature,
            accepted: event.accepted,
        }
    }
}

/// A sequence of [`IterationRecord`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptimizationTrace {
    records: Vec<IterationRecord>,
}

impl OptimizationTrace {
    /// Create an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reconstruct a trace from the iteration events published by an observed run
    /// (`run_delta_observed` and friends).  Because observed runs emit one event per
    /// trace record with identical values, a trace rebuilt from a recorder's event
    /// stream — e.g. a replayed [`wd_obs::JsonlExporter`] file, whose `*_bits` fields
    /// preserve exact IEEE-754 energies — equals the original trace bit for bit.
    pub fn from_events(events: &[IterationEvent]) -> Self {
        OptimizationTrace {
            records: events.iter().map(|&event| event.into()).collect(),
        }
    }

    /// Append one record.
    pub fn push(&mut self, record: IterationRecord) {
        self.records.push(record);
    }

    /// All records.
    pub fn records(&self) -> &[IterationRecord] {
        &self.records
    }

    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Best energy after each iteration (a non-increasing series).
    pub fn best_energy_series(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.best_energy).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: usize, best: f64, accepted: bool) -> IterationRecord {
        IterationRecord {
            iteration: i,
            proposed_energy: best + 1.0,
            current_energy: best,
            best_energy: best,
            temperature: 10.0 / (i + 1) as f64,
            accepted,
        }
    }

    #[test]
    fn trace_accumulates_records() {
        let mut trace = OptimizationTrace::new();
        assert!(trace.is_empty());
        for i in 0..5 {
            trace.push(record(i, 10.0 - i as f64, i % 2 == 0));
        }
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.best_energy_series(), vec![10.0, 9.0, 8.0, 7.0, 6.0]);
    }

    #[test]
    fn empty_trace_metrics_are_safe() {
        let trace = OptimizationTrace::new();
        assert!(trace.best_energy_series().is_empty());
    }

    #[test]
    fn records_round_trip_through_iteration_events() {
        let mut trace = OptimizationTrace::new();
        for i in 0..4 {
            trace.push(record(i, 9.0 - i as f64, i % 2 == 0));
        }
        let events: Vec<IterationEvent> = trace.records().iter().map(|&r| r.into()).collect();
        let rebuilt = OptimizationTrace::from_events(&events);
        assert_eq!(rebuilt, trace);
        assert_eq!(rebuilt.records(), trace.records());
    }
}
