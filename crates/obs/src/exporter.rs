//! [`JsonlExporter`]: a [`Recorder`] that streams every event to disk as one JSON
//! line, in the same durable append style as `wd_dist::JsonlStore`.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::recorder::{FieldValue, IterationEvent, Recorder};
use crate::sync::lock;
use crate::{escape_json, EVENT_SCHEMA_VERSION};

/// A recorder that appends every event to a JSON-lines file.
///
/// Durability follows `JsonlStore`: each event is written *and flushed* as its own
/// line, so a killed process loses at most the event being written, and the replay
/// loader ([`crate::EventLog::read`]) skips a truncated tail.  Write errors are
/// parked on first occurrence (the `Recorder` methods cannot return them) and
/// surfaced by [`JsonlExporter::flush`]; once a write fails the exporter drops
/// subsequent events rather than recording a stream with a hole in the middle.
///
/// Every energy and temperature is serialized twice: as a human-readable decimal and
/// as the exact IEEE-754 bit pattern (`*_bits` hex fields, authoritative on replay),
/// so a trace reconstructed from the file matches the in-process trace bit for bit.
#[derive(Debug)]
pub struct JsonlExporter {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
    write_error: Mutex<Option<io::Error>>,
    events_written: AtomicU64,
    bytes_written: AtomicU64,
}

impl JsonlExporter {
    /// Create (or truncate) the event file at `path` and stamp the schema header.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut writer = BufWriter::new(file);
        writeln!(writer, "{{\"schema\":\"{EVENT_SCHEMA_VERSION}\"}}")?;
        writer.flush()?;
        Ok(JsonlExporter {
            path,
            writer: Mutex::new(writer),
            write_error: Mutex::new(None),
            events_written: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// The file this exporter appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of events successfully appended so far (excluding the schema header).
    pub fn events_written(&self) -> u64 {
        self.events_written.load(Ordering::Relaxed)
    }

    /// Number of payload bytes successfully appended so far (including the newline
    /// terminators, excluding the schema header).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Flush the underlying writer and surface the first parked write error, if any.
    pub fn flush(&self) -> io::Result<()> {
        if let Some(err) = lock(&self.write_error).take() {
            return Err(err);
        }
        lock(&self.writer).flush()
    }

    fn append_line(&self, line: &str) {
        let mut error_slot = lock(&self.write_error);
        if error_slot.is_some() {
            // a previous write failed: drop the event instead of recording a stream
            // with a silent gap before this point
            return;
        }
        let mut writer = lock(&self.writer);
        let outcome = writeln!(writer, "{line}").and_then(|()| writer.flush());
        match outcome {
            Ok(()) => {
                self.events_written.fetch_add(1, Ordering::Relaxed);
                self.bytes_written
                    .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
            }
            Err(err) => *error_slot = Some(err),
        }
    }
}

/// Render structured fields as `,"f.<name>":<value>` suffix pairs (flat keys keep the
/// replay parser line-oriented, like the store's).
fn render_fields(fields: &[(&str, FieldValue)]) -> String {
    let mut out = String::new();
    for (name, value) in fields {
        let name = escape_json(name);
        match value {
            FieldValue::U64(v) => out.push_str(&format!(",\"f.{name}\":{v}")),
            FieldValue::F64(v) => out.push_str(&format!(
                ",\"f.{name}\":{v},\"f.{name}_bits\":\"{:016x}\"",
                v.to_bits()
            )),
            FieldValue::Bool(v) => out.push_str(&format!(",\"f.{name}\":{v}")),
        }
    }
    out
}

impl Recorder for JsonlExporter {
    fn counter(&self, name: &str, delta: u64) {
        self.append_line(&format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"delta\":{delta}}}",
            escape_json(name)
        ));
    }

    fn gauge(&self, name: &str, value: f64) {
        self.append_line(&format!(
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{value},\"bits\":\"{:016x}\"}}",
            escape_json(name),
            value.to_bits()
        ));
    }

    fn span(&self, name: &str, seconds: f64, fields: &[(&str, FieldValue)]) {
        self.append_line(&format!(
            "{{\"type\":\"span\",\"name\":\"{}\",\"seconds\":{seconds},\"seconds_bits\":\"{:016x}\"{}}}",
            escape_json(name),
            seconds.to_bits(),
            render_fields(fields)
        ));
    }

    fn iteration(&self, scope: &str, event: IterationEvent) {
        self.append_line(&format!(
            concat!(
                "{{\"type\":\"iteration\",\"scope\":\"{scope}\",\"iteration\":{iteration},",
                "\"proposed\":{proposed},\"proposed_bits\":\"{proposed_bits:016x}\",",
                "\"current\":{current},\"current_bits\":\"{current_bits:016x}\",",
                "\"best\":{best},\"best_bits\":\"{best_bits:016x}\",",
                "\"temperature\":{temperature},\"temperature_bits\":\"{temperature_bits:016x}\",",
                "\"accepted\":{accepted}}}"
            ),
            scope = escape_json(scope),
            iteration = event.iteration,
            proposed = event.proposed_energy,
            proposed_bits = event.proposed_energy.to_bits(),
            current = event.current_energy,
            current_bits = event.current_energy.to_bits(),
            best = event.best_energy,
            best_bits = event.best_energy.to_bits(),
            temperature = event.temperature,
            temperature_bits = event.temperature.to_bits(),
            accepted = event.accepted,
        ));
    }

    fn event(&self, scope: &str, kind: &str, fields: &[(&str, FieldValue)]) {
        self.append_line(&format!(
            "{{\"type\":\"event\",\"scope\":\"{}\",\"kind\":\"{}\"{}}}",
            escape_json(scope),
            escape_json(kind),
            render_fields(fields)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::EventLog;
    use crate::ObsEvent;

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "wd_obs_exporter_{}_{name}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn header_is_stamped_and_events_round_trip() {
        let path = temp_path("round_trip");
        let exporter = JsonlExporter::create(&path).unwrap();
        exporter.counter("cache.hits", 7);
        exporter.gauge("temperature", 0.1 + 0.2); // not exactly representable
        exporter.iteration(
            "saml",
            IterationEvent {
                iteration: 3,
                proposed_energy: 1.5,
                current_energy: 1.25,
                best_energy: 1.0,
                temperature: 0.5,
                accepted: true,
            },
        );
        exporter.event("campaign", "merged", &[("shards", FieldValue::U64(4))]);
        exporter.flush().unwrap();
        assert_eq!(exporter.events_written(), 4);
        assert!(exporter.bytes_written() > 0);

        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.starts_with(&format!("{{\"schema\":\"{EVENT_SCHEMA_VERSION}\"}}")));

        let log = EventLog::read(&path).unwrap();
        assert_eq!(log.skipped_lines, 0);
        assert_eq!(log.events.len(), 4);
        match &log.events[0] {
            ObsEvent::Counter { name, delta } => {
                assert_eq!(name, "cache.hits");
                assert_eq!(*delta, 7);
            }
            other => panic!("expected counter, got {other:?}"),
        }
        match &log.events[1] {
            ObsEvent::Gauge { value, .. } => {
                assert_eq!(value.to_bits(), (0.1f64 + 0.2).to_bits());
            }
            other => panic!("expected gauge, got {other:?}"),
        }
        match &log.events[2] {
            ObsEvent::Iteration { scope, event } => {
                assert_eq!(scope, "saml");
                assert_eq!(event.iteration, 3);
                assert!(event.accepted);
                assert_eq!(event.best_energy.to_bits(), 1.0f64.to_bits());
            }
            other => panic!("expected iteration, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_is_skipped_on_replay() {
        let path = temp_path("truncated");
        let exporter = JsonlExporter::create(&path).unwrap();
        for i in 0..3 {
            exporter.counter("n", i);
        }
        exporter.flush().unwrap();
        drop(exporter);
        // simulate a crash mid-write: append half a line
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("{\"type\":\"counter\",\"name\":\"n\",\"de");
        std::fs::write(&path, contents).unwrap();

        let log = EventLog::read(&path).unwrap();
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.skipped_lines, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_finite_energies_survive_via_bits() {
        let path = temp_path("non_finite");
        let exporter = JsonlExporter::create(&path).unwrap();
        exporter.iteration(
            "x",
            IterationEvent {
                iteration: 0,
                proposed_energy: f64::INFINITY,
                current_energy: f64::INFINITY,
                best_energy: f64::INFINITY,
                temperature: 0.0,
                accepted: false,
            },
        );
        exporter.flush().unwrap();
        let log = EventLog::read(&path).unwrap();
        match &log.events[0] {
            ObsEvent::Iteration { event, .. } => {
                assert!(event.best_energy.is_infinite());
            }
            other => panic!("expected iteration, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }
}
