//! Execution statistics reported alongside simulated measurements.

/// Detailed breakdown of one simulated execution, useful for reports and debugging the
/// performance model.  All times are in seconds, all rates in bytes/second.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecutionStats {
    /// Bytes processed by the host.
    pub host_bytes: u64,
    /// Bytes processed by all accelerators.
    pub device_bytes: u64,
    /// Aggregate effective scan rate achieved on the host.
    pub host_rate: f64,
    /// Aggregate effective scan rate achieved on the accelerators (compute only).
    pub device_rate: f64,
    /// Host threads actually used.
    pub host_threads: u32,
    /// Accelerator threads actually used (summed over accelerators).
    pub device_threads: u32,
    /// Time spent transferring data over PCIe (both directions, all accelerators).
    pub transfer_seconds: f64,
    /// Fixed offload launch overhead (all accelerators).
    pub launch_seconds: f64,
    /// Host compute time excluding setup.
    pub host_compute_seconds: f64,
    /// Device compute time excluding transfers/launch/setup (max over accelerators).
    pub device_compute_seconds: f64,
}

impl ExecutionStats {
    /// Total bytes processed on any device.
    pub fn total_bytes(&self) -> u64 {
        self.host_bytes + self.device_bytes
    }

    /// Fraction of bytes processed by the host (0 if the workload was empty).
    pub fn host_share(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            self.host_bytes as f64 / total as f64
        }
    }

    /// Fraction of the device-side wall clock spent on offload overhead rather than
    /// compute (0 when nothing was offloaded).
    fn offload_overhead_share(&self) -> f64 {
        let overhead = self.transfer_seconds + self.launch_seconds;
        let total = overhead + self.device_compute_seconds;
        if total <= 0.0 {
            0.0
        } else {
            overhead / total
        }
    }

    /// Publish this breakdown to `recorder` as gauges named `{scope}.exec.*` — one
    /// gauge per field plus the derived [`ExecutionStats::host_share`] and
    /// `offload_overhead_share` ratios.  Gauges are last-write-wins,
    /// so publishing the stats of several executions under one scope keeps the most
    /// recent breakdown (publish under distinct scopes to keep them all).
    pub fn publish(&self, recorder: &dyn wd_obs::Recorder, scope: &str) {
        if !recorder.enabled() {
            return;
        }
        for (name, value) in [
            ("host_bytes", self.host_bytes as f64),
            ("device_bytes", self.device_bytes as f64),
            ("host_rate", self.host_rate),
            ("device_rate", self.device_rate),
            ("host_threads", f64::from(self.host_threads)),
            ("device_threads", f64::from(self.device_threads)),
            ("transfer_seconds", self.transfer_seconds),
            ("launch_seconds", self.launch_seconds),
            ("host_compute_seconds", self.host_compute_seconds),
            ("device_compute_seconds", self.device_compute_seconds),
            ("host_share", self.host_share()),
            ("offload_overhead_share", self.offload_overhead_share()),
        ] {
            recorder.gauge(&format!("{scope}.exec.{name}"), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_are_safe_on_empty_stats() {
        let s = ExecutionStats::default();
        assert_eq!(s.host_share(), 0.0);
        assert_eq!(s.offload_overhead_share(), 0.0);
        assert_eq!(s.total_bytes(), 0);
    }

    #[test]
    fn host_share_reflects_partition() {
        let s = ExecutionStats {
            host_bytes: 600,
            device_bytes: 400,
            ..Default::default()
        };
        assert!((s.host_share() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn publish_writes_one_gauge_per_field() {
        let s = ExecutionStats {
            host_bytes: 600,
            device_bytes: 400,
            host_threads: 24,
            transfer_seconds: 0.25,
            ..Default::default()
        };
        let registry = wd_obs::Registry::new();
        s.publish(&registry, "em");
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.gauges.get("em.exec.host_bytes"), Some(&600.0));
        assert_eq!(snapshot.gauges.get("em.exec.host_threads"), Some(&24.0));
        assert_eq!(snapshot.gauges.get("em.exec.transfer_seconds"), Some(&0.25));
        assert_eq!(snapshot.gauges.get("em.exec.host_share"), Some(&0.6));
        assert_eq!(snapshot.gauges.len(), 12);

        // a disabled recorder short-circuits
        s.publish(&wd_obs::NoopRecorder, "em");
    }

    #[test]
    fn overhead_share_combines_transfer_and_launch() {
        let s = ExecutionStats {
            transfer_seconds: 0.3,
            launch_seconds: 0.2,
            device_compute_seconds: 0.5,
            ..Default::default()
        };
        assert!((s.offload_overhead_share() - 0.5).abs() < 1e-12);
    }
}
