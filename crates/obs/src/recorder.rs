//! The [`Recorder`] sink trait and its zero-overhead default, [`NoopRecorder`].

/// One typed value attached to a span or structured event.
///
/// The variants cover everything the workspace publishes; keeping the set closed (no
/// strings, no nesting) means emitting a field never allocates and serializing one is
/// a single `format!` arm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer (counts, sizes, indices).
    U64(u64),
    /// A floating-point value (energies, seconds, rates).
    F64(f64),
    /// A flag.
    Bool(bool),
}

/// One iteration of an optimization loop, as published by the observed search
/// drivers.
///
/// This mirrors `wd_opt::IterationRecord` field for field (the conversion lives in
/// `wd_opt`, which depends on this crate), so a recorded stream of iteration events
/// carries enough information to reconstruct the optimizer's full trace — the
/// [`crate::JsonlExporter`] additionally persists the exact IEEE-754 bits of every
/// energy so the reconstruction is bit-exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationEvent {
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

/// A sink for metrics and trace events.
///
/// Implementations must be cheap and thread-safe: recorders are shared by reference
/// across rayon workers (shard tasks, batched evaluations) and called from hot loops.
/// Hot paths guard every emission with [`Recorder::enabled`], so the disabled
/// [`NoopRecorder`] costs one virtual call per would-be event and never constructs
/// the event payload.
///
/// All methods default to doing nothing, so a custom recorder only implements the
/// signals it cares about.
///
/// ```
/// use wd_obs::{FieldValue, Recorder, Registry};
///
/// let registry = Registry::new();
/// let recorder: &dyn Recorder = &registry;
/// recorder.counter("cache.hits", 3);
/// recorder.span("saml", 0.25, &[("iterations", FieldValue::U64(2000))]);
/// assert_eq!(registry.snapshot().counters["cache.hits"], 3);
/// ```
pub trait Recorder: Send + Sync {
    /// Whether this recorder consumes events at all.  Hot loops skip event
    /// construction entirely when this returns `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Add `delta` to the monotonic counter `name`.
    fn counter(&self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Set the gauge `name` to `value` (last write wins).
    fn gauge(&self, name: &str, value: f64) {
        let _ = (name, value);
    }

    /// Record a completed span: a named unit of work that took `seconds`, with
    /// structured attributes.
    fn span(&self, name: &str, seconds: f64, fields: &[(&str, FieldValue)]) {
        let _ = (name, seconds, fields);
    }

    /// Record one optimizer iteration under `scope` (the method or loop name).
    fn iteration(&self, scope: &str, event: IterationEvent) {
        let _ = (scope, event);
    }

    /// Record a structured progress event of kind `kind` under `scope` (e.g. a shard
    /// start/completion in a campaign).
    fn event(&self, scope: &str, kind: &str, fields: &[(&str, FieldValue)]) {
        let _ = (scope, kind, fields);
    }
}

/// The default recorder: discards everything and reports itself disabled, so
/// instrumented code paths skip event construction.  Observed entry points delegate
/// here from their unobserved counterparts, which keeps the unobserved paths
/// bit-identical and (measured, see the `observability_overhead` bench) within noise
/// of the pre-instrumentation code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_is_disabled_and_accepts_everything() {
        let recorder = NoopRecorder;
        assert!(!Recorder::enabled(&recorder));
        recorder.counter("c", 1);
        recorder.gauge("g", 2.0);
        recorder.span("s", 0.1, &[("k", FieldValue::Bool(true))]);
        recorder.iteration(
            "scope",
            IterationEvent {
                iteration: 0,
                proposed_energy: 1.0,
                current_energy: 1.0,
                best_energy: 1.0,
                temperature: 0.0,
                accepted: true,
            },
        );
        recorder.event("scope", "kind", &[("k", FieldValue::U64(1))]);
    }

    #[test]
    fn noop_recorder_is_object_safe_and_shareable() {
        fn takes_dyn(r: &dyn Recorder) -> bool {
            r.enabled()
        }
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NoopRecorder>();
        assert!(!takes_dyn(&NoopRecorder));
    }
}
