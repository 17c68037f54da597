//! Small shared pieces: the run report, order statistics, the seeded input
//! generator and the peak-memory probe.

/// One reported metric: name, value and unit.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run returns to the command line.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, studies, campaigns, worker attempts).
    pub attempted: u64,
    /// Operations that failed: errors, failed output checks and failed
    /// worker attempts.
    pub failed: u64,
    /// One line per error or failed output check, printed to stderr.  Any
    /// entry makes the run incorrect.
    pub problems: Vec<String>,
    /// The machine-read metrics (end-to-end or per-layer, by `--trace`).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result, under the names the
    /// workload notes use (`study_s`, `tune_p50_ms`, `campaign_s`, ...).
    pub details: Vec<Metric>,
    /// Per-layer values of a traced run, by name; layers a workload does not
    /// exercise are left out and reported as 0.
    pub layers: Vec<(String, f64)>,
}

impl Report {
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.push((name.into(), value));
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.details.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a failed check; `false` conditions count as one failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Whether every output check passed and nothing errored.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Rust's shortest round-trip form, which never uses an exponent; integral
/// values keep a trailing `.0` off so counts read as counts.
fn json_number(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Percentile with linear interpolation between closest ranks (the
/// `inclusive` method of Python's `statistics.quantiles`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// SplitMix64: the benchmark's only source of generated inputs, so one seed
/// always yields the same inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// `hits / requests`, 0 when nothing was requested.
pub fn hit_ratio(hits: f64, requests: f64) -> f64 {
    if requests > 0.0 {
        hits / requests
    } else {
        0.0
    }
}

/// Traced-over-untraced slowdown in percent.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        100.0 * (traced / untraced - 1.0)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_like_python_inclusive_quantiles() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 100.0), 4.0);
        assert!((percentile(&values, 90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.metric("setup_s", 0.5, "s");
        report.metric("n", 7.0, "count");
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"n\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
    }
}
