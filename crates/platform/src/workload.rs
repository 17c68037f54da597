//! Workload description consumed by the performance model.
//!
//! The paper targets *divisible* data-parallel workloads: a workload can be split at an
//! arbitrary ratio between host and device (the "DNA sequence fraction" parameter).
//! A [`WorkloadProfile`] captures the properties the analytical model needs: how many
//! bytes have to be scanned, how expensive a byte is relative to the calibrated DNA DFA
//! scan, how much of the work is inherently serial, and how SIMD-friendly it is.

/// A divisible data-parallel workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Human readable name (e.g. the genome being analysed).
    pub name: String,
    /// Total input size in bytes.
    pub bytes: u64,
    /// Per-byte compute cost relative to the reference DNA DFA scan (1.0).
    /// A value of 2.0 means every byte costs twice as many cycles.
    pub cost_factor: f64,
    /// Fraction of the work that cannot be parallelised (automaton construction,
    /// result merging); charged at single-thread speed.
    pub serial_fraction: f64,
    /// Fraction of the per-byte work that profits from wide SIMD units (0..=1).
    pub vectorizable: f64,
    /// Fixed start-up cost on the host (thread pool creation, input mapping) in seconds.
    pub host_setup_seconds: f64,
    /// Fixed start-up cost on an accelerator (offload runtime initialisation, automaton
    /// upload) in seconds, *in addition to* the PCIe transfer of the input fraction.
    pub device_setup_seconds: f64,
    /// Bytes of results produced per input byte (transferred back from the device).
    pub result_bytes_per_input_byte: f64,
}

impl WorkloadProfile {
    /// Reference workload of the paper: DNA sequence (motif) analysis of `bytes` bytes.
    ///
    /// The per-byte cost of 1.0 is the calibration anchor of
    /// [`DeviceSpec::scan_rate_per_thread`](crate::DeviceSpec::scan_rate_per_thread).
    pub fn dna_scan(name: &str, bytes: u64) -> Self {
        WorkloadProfile {
            name: name.to_string(),
            bytes,
            cost_factor: 1.0,
            serial_fraction: 0.003,
            vectorizable: 0.85,
            host_setup_seconds: 0.045,
            device_setup_seconds: 0.05,
            result_bytes_per_input_byte: 1.0 / 4096.0,
        }
    }

    /// A synthetic compute-bound workload (e.g. an n-body style kernel): expensive per
    /// byte, highly vectorizable, negligible result traffic.  Used by the
    /// `custom_workload` example.
    pub fn compute_bound(name: &str, bytes: u64, cost_factor: f64) -> Self {
        WorkloadProfile {
            name: name.to_string(),
            bytes,
            cost_factor,
            serial_fraction: 0.002,
            vectorizable: 0.97,
            host_setup_seconds: 0.02,
            device_setup_seconds: 0.12,
            result_bytes_per_input_byte: 1.0 / 65536.0,
        }
    }

    /// A memory/transfer-bound workload: cheap per byte so that PCIe transfer dominates
    /// offloading.  Offloading such workloads rarely pays off — useful for exercising
    /// the "CPU-only is optimal" regime.
    pub fn streaming(name: &str, bytes: u64) -> Self {
        WorkloadProfile {
            name: name.to_string(),
            bytes,
            cost_factor: 0.25,
            serial_fraction: 0.01,
            vectorizable: 0.4,
            host_setup_seconds: 0.02,
            device_setup_seconds: 0.12,
            result_bytes_per_input_byte: 1.0 / 1024.0,
        }
    }

    /// Return a copy of this workload describing only `fraction` (0..=1) of the input.
    ///
    /// Fixed setup costs are preserved (they do not shrink with the input share) while
    /// the byte count scales.  A zero fraction yields a zero-byte share.
    pub fn fraction(&self, fraction: f64) -> WorkloadProfile {
        let fraction = fraction.clamp(0.0, 1.0);
        let mut shared = self.clone();
        shared.bytes = (self.bytes as f64 * fraction).round() as u64;
        shared
    }

    /// Input size in gigabytes (decimal).
    pub fn gigabytes(&self) -> f64 {
        self.bytes as f64 / 1e9
    }

    /// Whether this share contains no work.
    pub fn is_empty(&self) -> bool {
        self.bytes == 0
    }

    /// Validate invariants (fractions within [0, 1], non-negative costs).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.serial_fraction) {
            return Err(format!(
                "serial_fraction must be in [0,1], got {}",
                self.serial_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.vectorizable) {
            return Err(format!(
                "vectorizable must be in [0,1], got {}",
                self.vectorizable
            ));
        }
        if self.cost_factor <= 0.0 {
            return Err(format!(
                "cost_factor must be positive, got {}",
                self.cost_factor
            ));
        }
        if self.host_setup_seconds < 0.0
            || self.device_setup_seconds < 0.0
            || self.result_bytes_per_input_byte < 0.0
        {
            return Err("setup costs and result ratio must be non-negative".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for w in [
            WorkloadProfile::dna_scan("human", 3_170_000_000),
            WorkloadProfile::compute_bound("nbody", 1 << 30, 8.0),
            WorkloadProfile::streaming("stream", 1 << 30),
        ] {
            w.validate().unwrap();
            assert!(w.bytes > 0);
        }
    }

    #[test]
    fn fraction_scales_bytes_but_not_setup() {
        let w = WorkloadProfile::dna_scan("human", 1_000_000_000);
        let half = w.fraction(0.5);
        assert_eq!(half.bytes, 500_000_000);
        assert_eq!(half.host_setup_seconds, w.host_setup_seconds);
        assert_eq!(half.device_setup_seconds, w.device_setup_seconds);

        let none = w.fraction(0.0);
        assert!(none.is_empty());

        let all = w.fraction(1.0);
        assert_eq!(all.bytes, w.bytes);
    }

    #[test]
    fn fraction_is_clamped() {
        let w = WorkloadProfile::dna_scan("human", 1_000);
        assert_eq!(w.fraction(2.0).bytes, 1_000);
        assert_eq!(w.fraction(-1.0).bytes, 0);
    }

    #[test]
    fn unit_conversions() {
        let w = WorkloadProfile::dna_scan("x", 3_250_000_000);
        assert!((w.gigabytes() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_fractions() {
        let mut w = WorkloadProfile::dna_scan("x", 10);
        w.serial_fraction = 1.5;
        assert!(w.validate().is_err());
        w.serial_fraction = 0.1;
        w.vectorizable = -0.1;
        assert!(w.validate().is_err());
        w.vectorizable = 0.5;
        w.cost_factor = 0.0;
        assert!(w.validate().is_err());
    }
}
