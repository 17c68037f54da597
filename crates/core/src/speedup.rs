//! Speedup accounting against the CPU-only and accelerator-only baselines
//! (the paper's Tables VIII and IX).

use hetero_platform::{ExecutionStats, HeterogeneousPlatform, PlatformError, WorkloadProfile};

use crate::config::SystemConfiguration;
use crate::evaluator::MeasurementEvaluator;

/// Execution-time baselines and the speedups of a combined (host + device)
/// configuration against them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupReport {
    /// Time when all work runs on the host with all 48 threads.
    pub host_only_seconds: f64,
    /// Time when all work runs on the accelerator with all 240 usable threads.
    pub device_only_seconds: f64,
    /// Time of the combined configuration being reported.
    pub combined_seconds: f64,
    /// Execution breakdown of the host-only baseline measurement (`None` for reports
    /// assembled from times obtained elsewhere).
    pub host_stats: Option<ExecutionStats>,
    /// Execution breakdown of the device-only baseline measurement (`None` for
    /// reports assembled from times obtained elsewhere).
    pub device_stats: Option<ExecutionStats>,
}

impl SpeedupReport {
    /// Measure the baselines for `workload` on `platform` and compare them with a
    /// combined execution time obtained elsewhere.  The baselines' full
    /// [`ExecutionStats`] breakdowns are kept on the report.
    ///
    /// # Errors
    ///
    /// The [`PlatformError`] of a baseline the platform cannot run (e.g. for an empty
    /// workload).
    pub fn for_combined_time(
        platform: &HeterogeneousPlatform,
        workload: &WorkloadProfile,
        combined_seconds: f64,
    ) -> Result<Self, PlatformError> {
        let accelerators = platform.accelerator_count();
        let evaluator = MeasurementEvaluator::new(platform.clone(), workload.clone());
        let host_only =
            evaluator.measure(&SystemConfiguration::host_only_baseline_for(accelerators))?;
        let device_only =
            evaluator.measure(&SystemConfiguration::device_only_baseline_for(accelerators))?;
        Ok(SpeedupReport {
            host_only_seconds: host_only.t_host.max(host_only.t_device),
            device_only_seconds: device_only.t_host.max(device_only.t_device),
            combined_seconds,
            host_stats: Some(host_only.stats),
            device_stats: Some(device_only.stats),
        })
    }

    /// Speedup of the combined execution over the host-only baseline (Table VIII).
    ///
    /// A degenerate (zero or negative) combined time reports `f64::INFINITY`:
    /// returning 0 — "infinitely slow" — would understate the result.
    pub fn speedup_vs_host(&self) -> f64 {
        if self.combined_seconds <= 0.0 {
            return f64::INFINITY;
        }
        self.host_only_seconds / self.combined_seconds
    }

    /// Speedup of the combined execution over the device-only baseline (Table IX).
    ///
    /// A degenerate (zero or negative) combined time reports `f64::INFINITY`, see
    /// [`SpeedupReport::speedup_vs_host`].
    pub fn speedup_vs_device(&self) -> f64 {
        if self.combined_seconds <= 0.0 {
            return f64::INFINITY;
        }
        self.device_only_seconds / self.combined_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_analysis::Genome;

    #[test]
    fn speedups_match_paper_regime_for_a_good_split() {
        let platform = HeterogeneousPlatform::emil().without_noise();
        let workload = Genome::Human.workload();
        // a known-good split found by enumeration elsewhere: ~65 % on the host
        let evaluator = MeasurementEvaluator::new(platform.clone(), workload.clone());
        let combined = evaluator.energy(&SystemConfiguration::with_host_percent(
            48,
            hetero_platform::Affinity::Scatter,
            240,
            hetero_platform::Affinity::Balanced,
            65,
        ));
        let report = SpeedupReport::for_combined_time(&platform, &workload, combined).unwrap();
        // Paper: 1.37–1.95× over host-only and 1.64–2.36× over device-only.
        assert!(
            report.speedup_vs_host() > 1.15 && report.speedup_vs_host() < 2.3,
            "speedup vs host {}",
            report.speedup_vs_host()
        );
        assert!(
            report.speedup_vs_device() > 1.4 && report.speedup_vs_device() < 3.0,
            "speedup vs device {}",
            report.speedup_vs_device()
        );
        // the device-only baseline is slower than the host-only baseline, as in the paper
        assert!(report.device_only_seconds > report.host_only_seconds);
    }

    #[test]
    fn zero_combined_time_reports_infinite_speedup() {
        // Regression: a degenerate combined time used to report a speedup of 0.0 —
        // "infinitely slow" — silently understating the result.
        let report = SpeedupReport {
            host_only_seconds: 1.0,
            device_only_seconds: 2.0,
            combined_seconds: 0.0,
            host_stats: None,
            device_stats: None,
        };
        assert_eq!(report.speedup_vs_host(), f64::INFINITY);
        assert_eq!(report.speedup_vs_device(), f64::INFINITY);
        let negative = SpeedupReport {
            host_only_seconds: 1.0,
            device_only_seconds: 2.0,
            combined_seconds: -1.0,
            host_stats: None,
            device_stats: None,
        };
        assert_eq!(negative.speedup_vs_host(), f64::INFINITY);
        // a healthy report is unaffected
        let healthy = SpeedupReport {
            host_only_seconds: 1.0,
            device_only_seconds: 2.0,
            combined_seconds: 0.5,
            host_stats: None,
            device_stats: None,
        };
        assert_eq!(healthy.speedup_vs_host(), 2.0);
        assert_eq!(healthy.speedup_vs_device(), 4.0);
    }

    #[test]
    fn baselines_follow_the_platform_accelerator_count() {
        let platform = HeterogeneousPlatform::emil_with_gpu().without_noise();
        let workload = Genome::Human.workload();
        let report = SpeedupReport::for_combined_time(&platform, &workload, 0.4).unwrap();
        assert!(report.host_only_seconds > 0.0);
        assert!(report.device_only_seconds > 0.0);
        assert!(report.speedup_vs_host().is_finite());
    }
}
