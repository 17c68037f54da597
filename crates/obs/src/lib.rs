//! # wd_obs
//!
//! The workspace-wide observability layer for the reproduction of *Memeti & Pllana,
//! Combinatorial Optimization of Work Distribution on Heterogeneous Systems, ICPP
//! Workshops 2016*.
//!
//! The paper compares its methods by model invocations, evaluated configurations and
//! wall-clock; this crate gives those signals one home so every layer — cached
//! objectives, lazy prediction tables, annealing/GA loops, sharded campaigns, the
//! on-disk result store, and the platform simulator's execution breakdowns — reports
//! through a single [`Recorder`] trait instead of scattering point-in-time structs.
//!
//! * [`Recorder`] — the sink trait: counters, gauges, histogram observations,
//!   spans, per-iteration events and structured progress events.
//! * [`NoopRecorder`] — the zero-overhead default; hot loops guard emissions with
//!   [`Recorder::enabled`], so unobserved runs stay bit-identical and within noise
//!   of the pre-instrumentation code (asserted by the `observability_overhead`
//!   bench).
//! * [`Registry`] — thread-safe in-memory aggregation, snapshotted into a
//!   [`MetricsSnapshot`] and serialized with [`MetricsSnapshot::to_json`] (the
//!   `repro --metrics <path>` artifact).
//! * [`JsonlExporter`] — streams every event to disk as one flushed JSON line
//!   (the same durable append discipline as the dist store), with exact IEEE-754
//!   `*_bits` fields on every float.
//! * [`EventLog`] — replays an exporter file back into typed [`ObsEvent`]s; an
//!   optimizer's best-energy series is reconstructible from the file alone, bit for
//!   bit.
//!
//! Like the `crates/compat/*` shims, the crate is vendored and dependency-free so
//! the workspace keeps building offline.
//!
//! ## Example
//!
//! ```
//! use wd_obs::{IterationEvent, Recorder, Registry};
//!
//! let registry = Registry::new();
//! registry.counter("cache.misses", 2);
//! registry.iteration(
//!     "saml",
//!     IterationEvent {
//!         iteration: 0,
//!         proposed_energy: 1.5,
//!         current_energy: 1.5,
//!         best_energy: 1.5,
//!         temperature: 2.0,
//!         accepted: true,
//!     },
//! );
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.iterations["saml"].count, 1);
//! assert!(snapshot.to_json().contains("\"cache.misses\": 2"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exporter;
pub mod recorder;
pub mod registry;
pub mod replay;
mod sync;

pub use exporter::JsonlExporter;
pub use recorder::{FieldValue, IterationEvent, NoopRecorder, Recorder};
pub use registry::{
    HistogramSummary, IterationSummary, MetricsSnapshot, Registry, SpanSummary,
    METRICS_SCHEMA_VERSION,
};
pub use replay::{EventLog, ObsEvent};

/// Schema identifier stamped as the first line of every exporter file.
pub const EVENT_SCHEMA_VERSION: &str = "wd-obs-events/v1";

/// Escape a string for embedding in a JSON double-quoted literal (backslash and
/// quote only — names and scopes are ASCII identifiers in practice).
pub(crate) fn escape_json(raw: &str) -> String {
    if !raw.contains(['"', '\\']) {
        return raw.to_string();
    }
    let mut out = String::with_capacity(raw.len() + 2);
    for c in raw.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_json_handles_quotes_and_backslashes() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
    }
}
