//! Replay of [`crate::JsonlExporter`] event files: line-oriented parsing (bits-first
//! for floats, like the dist store's loader) back into typed [`ObsEvent`]s.

use std::fs;
use std::io;
use std::path::Path;

use crate::recorder::IterationEvent;

/// One event parsed back from an exporter file.  Structured span/event payload
/// fields are not reconstructed — they are for external consumers (dashboards,
/// `jq`); replay reconstructs the signals the workspace itself consumes, most
/// importantly the full-fidelity iteration stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// A counter increment.
    Counter {
        /// Counter name.
        name: String,
        /// Amount added.
        delta: u64,
    },
    /// A gauge write.
    Gauge {
        /// Gauge name.
        name: String,
        /// Value written (bit-exact).
        value: f64,
    },
    /// A completed span.
    Span {
        /// Span name.
        name: String,
        /// Span duration (bit-exact).
        seconds: f64,
    },
    /// One optimizer iteration (all energies bit-exact).
    Iteration {
        /// The loop's scope (method name).
        scope: String,
        /// The iteration payload.
        event: IterationEvent,
    },
    /// A structured progress event.
    Marker {
        /// Event scope.
        scope: String,
        /// Event kind.
        kind: String,
    },
}

/// A parsed exporter file.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLog {
    /// All events, in file (= emission) order.
    pub events: Vec<ObsEvent>,
    /// Number of unparseable lines skipped (a truncated tail after a crash, or
    /// foreign lines).  Schema-header lines are not counted.
    pub skipped_lines: usize,
}

impl EventLog {
    /// Read and parse an exporter file.  Unparseable lines are skipped and counted,
    /// mirroring the dist store's truncation-tolerant loader.
    pub fn read(path: impl AsRef<Path>) -> io::Result<Self> {
        let contents = fs::read_to_string(path)?;
        let mut events = Vec::new();
        let mut skipped_lines = 0usize;
        for line in contents.lines() {
            if line.trim().is_empty() || json_str_field(line, "schema").is_some() {
                continue;
            }
            match parse_event(line) {
                Some(event) => events.push(event),
                None => skipped_lines += 1,
            }
        }
        Ok(EventLog {
            events,
            skipped_lines,
        })
    }

    /// The iteration events recorded under `scope`, in emission order.
    pub fn iteration_events(&self, scope: &str) -> Vec<IterationEvent> {
        self.events
            .iter()
            .filter_map(|event| match event {
                ObsEvent::Iteration { scope: s, event } if s == scope => Some(*event),
                _ => None,
            })
            .collect()
    }

    /// The best-energy-so-far series of the loop recorded under `scope` — the same
    /// series as `OptimizationTrace::best_energy_series`, reconstructed from the
    /// event file alone (bit-exact thanks to the `*_bits` fields).
    pub fn best_energy_series(&self, scope: &str) -> Vec<f64> {
        self.events
            .iter()
            .filter_map(|event| match event {
                ObsEvent::Iteration { scope: s, event } if s == scope => Some(event.best_energy),
                _ => None,
            })
            .collect()
    }
}

fn parse_event(line: &str) -> Option<ObsEvent> {
    let kind = json_str_field(line, "type")?;
    match kind.as_str() {
        "counter" => Some(ObsEvent::Counter {
            name: json_str_field(line, "name")?,
            delta: json_u64_field(line, "delta")?,
        }),
        "gauge" => Some(ObsEvent::Gauge {
            name: json_str_field(line, "name")?,
            value: json_f64_field(line, "value", "bits")?,
        }),
        "span" => Some(ObsEvent::Span {
            name: json_str_field(line, "name")?,
            seconds: json_f64_field(line, "seconds", "seconds_bits")?,
        }),
        "iteration" => Some(ObsEvent::Iteration {
            scope: json_str_field(line, "scope")?,
            event: IterationEvent {
                iteration: usize::try_from(json_u64_field(line, "iteration")?).ok()?,
                proposed_energy: json_f64_field(line, "proposed", "proposed_bits")?,
                current_energy: json_f64_field(line, "current", "current_bits")?,
                best_energy: json_f64_field(line, "best", "best_bits")?,
                temperature: json_f64_field(line, "temperature", "temperature_bits")?,
                accepted: json_bool_field(line, "accepted")?,
            },
        }),
        "event" => Some(ObsEvent::Marker {
            scope: json_str_field(line, "scope")?,
            kind: json_str_field(line, "kind")?,
        }),
        _ => None,
    }
}

/// Extract the string value of `"key":"..."`, un-escaping `\"` and `\\`.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let mut value = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '\\' => value.push(chars.next()?),
            '"' => return Some(value),
            c => value.push(c),
        }
    }
}

/// Extract the unsigned-integer value of `"key":N`.
fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let raw = json_raw_field(line, key)?;
    raw.parse().ok()
}

/// Extract the boolean value of `"key":true|false`.
fn json_bool_field(line: &str, key: &str) -> Option<bool> {
    match json_raw_field(line, key)?.as_str() {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// Extract an `f64`: the hex `bits_key` field is authoritative (exact IEEE-754 round
/// trip, covers non-finite values); the decimal `key` field is the fallback for
/// hand-edited files.
fn json_f64_field(line: &str, key: &str, bits_key: &str) -> Option<f64> {
    if let Some(bits) = json_str_field(line, bits_key) {
        if let Ok(bits) = u64::from_str_radix(&bits, 16) {
            return Some(f64::from_bits(bits));
        }
    }
    json_raw_field(line, key)?.parse().ok()
}

/// The raw token following `"key":` up to the next `,` or `}`.
fn json_raw_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    let token = rest[..end].trim();
    if token.is_empty() {
        None
    } else {
        Some(token.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_and_typed_field_parsers_work() {
        let line = "{\"type\":\"iteration\",\"scope\":\"sa\",\"iteration\":12,\"best\":1.5,\"best_bits\":\"3ff8000000000000\",\"accepted\":true}";
        assert_eq!(json_str_field(line, "type").unwrap(), "iteration");
        assert_eq!(json_u64_field(line, "iteration").unwrap(), 12);
        assert!(json_bool_field(line, "accepted").unwrap());
        assert_eq!(json_f64_field(line, "best", "best_bits").unwrap(), 1.5);
        assert_eq!(json_str_field(line, "missing"), None);
    }

    #[test]
    fn bits_take_precedence_over_decimal() {
        // decimal says 2.0 but the bits say 1.5: bits win
        let line = "{\"value\":2.0,\"bits\":\"3ff8000000000000\"}";
        assert_eq!(json_f64_field(line, "value", "bits").unwrap(), 1.5);
        // without bits, the decimal is used
        let line = "{\"value\":2.0}";
        assert_eq!(json_f64_field(line, "value", "bits").unwrap(), 2.0);
    }

    #[test]
    fn escaped_strings_round_trip() {
        let line = "{\"name\":\"a\\\"b\\\\c\"}";
        assert_eq!(json_str_field(line, "name").unwrap(), "a\"b\\c");
    }

    #[test]
    fn best_energy_series_filters_by_scope() {
        let mut events = Vec::new();
        for (scope, best) in [("a", 3.0), ("b", 9.0), ("a", 2.0), ("a", 1.0)] {
            events.push(ObsEvent::Iteration {
                scope: scope.to_string(),
                event: IterationEvent {
                    iteration: 0,
                    proposed_energy: best,
                    current_energy: best,
                    best_energy: best,
                    temperature: 0.0,
                    accepted: true,
                },
            });
        }
        let log = EventLog {
            events,
            skipped_lines: 0,
        };
        assert_eq!(log.best_energy_series("a"), vec![3.0, 2.0, 1.0]);
        assert_eq!(log.iteration_events("b").len(), 1);
        assert!(log.best_energy_series("c").is_empty());
    }
}
