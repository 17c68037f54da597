//! Device specifications for hosts and accelerators.
//!
//! A [`DeviceSpec`] captures the architectural parameters the performance model needs:
//! socket/core/thread topology, frequencies, SIMD width, memory bandwidth and a
//! calibrated per-thread scan rate together with an SMT (simultaneous multithreading)
//! gain curve.  Presets are provided for the two devices of the paper's "Emil"
//! evaluation machine (Table III): a dual-socket Intel Xeon E5-2695v2 host and an Intel
//! Xeon Phi 7120P co-processor.

use crate::topology::Topology;

/// What role a device plays in the heterogeneous node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// The multi-core host CPU(s); runs the operating system and launches offloads.
    HostCpu,
    /// A many-core co-processor / accelerator reachable over PCIe (e.g. Intel Xeon Phi).
    ManyCoreAccelerator,
}

/// Architectural description of one device of the heterogeneous platform.
///
/// The fields up to `cache_mb` mirror the hardware datasheet values reported in the
/// paper's Table III.  The remaining fields are the calibration anchors of the
/// analytical performance model (see [`crate::perf_model`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human readable device name, e.g. `"Intel Xeon E5-2695v2 (dual socket)"`.
    pub name: String,
    /// Whether this device is the host or an accelerator.
    pub kind: DeviceKind,
    /// Number of CPU sockets (always 1 for accelerators).
    pub sockets: u32,
    /// Physical cores per socket.
    pub cores_per_socket: u32,
    /// Hardware threads per core (2 for Xeon E5 hyper-threading, 4 for Xeon Phi).
    pub threads_per_core: u32,
    /// Cores reserved for system software and unavailable to the application
    /// (the Xeon Phi µOS occupies one core).
    pub reserved_cores: u32,
    /// Nominal core frequency in GHz.
    pub base_frequency_ghz: f64,
    /// Maximum (turbo) core frequency in GHz.
    pub turbo_frequency_ghz: f64,
    /// SIMD register width in bits (256 for AVX on the host, 512 on the Xeon Phi).
    pub simd_width_bits: u32,
    /// Peak memory bandwidth per socket in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Last-level cache size in MB.
    pub cache_mb: f64,
    /// Calibrated throughput (bytes/second) of one thread running alone on a core for
    /// the reference workload (cost factor 1.0, i.e. the DNA DFA scan).
    pub scan_rate_per_thread: f64,
    /// Relative throughput of a single core when `k` hardware threads are placed on it,
    /// normalised so that `smt_gain[0] == 1.0`.  The host curve saturates around 1.4×
    /// with hyper-threading; the in-order Xeon Phi cores need several threads to hide
    /// latency and reach ~3.6× the single-thread rate with all four threads.
    pub smt_gain: Vec<f64>,
    /// Per-socket contention coefficient: each additional active core on a socket
    /// degrades the effective per-core rate by roughly this relative amount
    /// (shared last-level cache, ring/mesh interconnect and memory-controller pressure).
    pub core_contention: f64,
}

impl DeviceSpec {
    /// Topology (sockets × cores × hardware threads, minus reserved cores) of the device.
    pub fn topology(&self) -> Topology {
        Topology::new(
            self.sockets,
            self.cores_per_socket,
            self.threads_per_core,
            self.reserved_cores,
        )
    }

    /// Number of cores usable by the application.
    pub fn usable_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket - self.reserved_cores
    }

    /// Maximum number of application hardware threads.
    pub fn max_threads(&self) -> u32 {
        self.usable_cores() * self.threads_per_core
    }

    /// Total peak memory bandwidth (all sockets) in bytes/second.
    pub fn total_bandwidth_bytes(&self) -> f64 {
        self.mem_bandwidth_gbs * self.sockets as f64 * 1e9
    }

    /// Relative core throughput with `threads_on_core` resident hardware threads.
    ///
    /// Values beyond the calibrated SMT curve saturate at the last entry; zero threads
    /// contribute zero throughput.
    pub fn smt_factor(&self, threads_on_core: u32) -> f64 {
        if threads_on_core == 0 {
            return 0.0;
        }
        let idx = (threads_on_core as usize - 1).min(self.smt_gain.len().saturating_sub(1));
        self.smt_gain.get(idx).copied().unwrap_or(1.0)
    }

    /// Preset: dual-socket Intel Xeon E5-2695v2 host (2 × 12 cores, 2-way SMT, AVX).
    ///
    /// Table III of the paper: 2.4–3.2 GHz, 30 MB cache, 59.7 GB/s per socket.
    pub fn xeon_e5_2695v2_dual() -> Self {
        DeviceSpec {
            name: "Intel Xeon E5-2695v2 (dual socket)".to_string(),
            kind: DeviceKind::HostCpu,
            sockets: 2,
            cores_per_socket: 12,
            threads_per_core: 2,
            reserved_cores: 0,
            base_frequency_ghz: 2.4,
            turbo_frequency_ghz: 3.2,
            simd_width_bits: 256,
            mem_bandwidth_gbs: 59.7,
            cache_mb: 30.0,
            // Calibration: one thread per core scans roughly 210 MB/s of DNA; a second
            // hyper-thread adds ~44 %.
            scan_rate_per_thread: 211.0e6,
            smt_gain: vec![1.0, 1.44],
            core_contention: 0.025,
        }
    }

    /// Preset: Intel Xeon Phi 7120P co-processor (61 cores, 4-way SMT, 512-bit SIMD).
    ///
    /// One core is reserved for the lightweight µOS, leaving 60 cores / 240 threads for
    /// the application, exactly as in the paper's experiments.
    pub fn xeon_phi_7120p() -> Self {
        DeviceSpec {
            name: "Intel Xeon Phi 7120P".to_string(),
            kind: DeviceKind::ManyCoreAccelerator,
            sockets: 1,
            cores_per_socket: 61,
            threads_per_core: 4,
            reserved_cores: 1,
            base_frequency_ghz: 1.238,
            turbo_frequency_ghz: 1.333,
            simd_width_bits: 512,
            mem_bandwidth_gbs: 352.0,
            cache_mb: 30.5,
            // Calibration: the in-order cores need all four hardware threads to approach
            // their peak of ~97 MB/s per core for the DNA scan.
            scan_rate_per_thread: 36.0e6,
            smt_gain: vec![1.0, 1.50, 2.20, 2.70],
            core_contention: 0.0012,
        }
    }

    /// Preset: a generic discrete GPU-like accelerator.
    ///
    /// Not part of the paper's machine; provided so that multi-accelerator
    /// configurations (the architecture diagram allows 1–8 devices) and the
    /// `multi_accelerator` example have a second device type with different
    /// performance characteristics.
    pub fn generic_gpu() -> Self {
        DeviceSpec {
            name: "Generic many-core GPU".to_string(),
            kind: DeviceKind::ManyCoreAccelerator,
            sockets: 1,
            cores_per_socket: 56,
            threads_per_core: 8,
            reserved_cores: 0,
            base_frequency_ghz: 1.1,
            turbo_frequency_ghz: 1.4,
            simd_width_bits: 1024,
            mem_bandwidth_gbs: 480.0,
            cache_mb: 6.0,
            scan_rate_per_thread: 18.0e6,
            smt_gain: vec![1.0, 1.9, 3.4, 4.6, 5.5, 6.2, 6.7, 7.0],
            core_contention: 0.0008,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_preset_matches_table_iii() {
        let host = DeviceSpec::xeon_e5_2695v2_dual();
        assert_eq!(host.kind, DeviceKind::HostCpu);
        assert_eq!(host.sockets * host.cores_per_socket, 24);
        assert_eq!(host.max_threads(), 48);
        assert!((host.base_frequency_ghz - 2.4).abs() < 1e-9);
        assert!((host.cache_mb - 30.0).abs() < 1e-9);
    }

    #[test]
    fn phi_preset_matches_table_iii() {
        let phi = DeviceSpec::xeon_phi_7120p();
        assert_eq!(phi.kind, DeviceKind::ManyCoreAccelerator);
        assert_eq!(phi.sockets * phi.cores_per_socket, 61);
        // one core is reserved for the µOS -> 60 usable cores, 240 threads
        assert_eq!(phi.usable_cores(), 60);
        assert_eq!(phi.max_threads(), 240);
        assert_eq!(phi.simd_width_bits, 512);
        assert!((phi.cache_mb - 30.5).abs() < 1e-9);
    }

    #[test]
    fn smt_factor_is_monotone_and_saturates() {
        for spec in [
            DeviceSpec::xeon_e5_2695v2_dual(),
            DeviceSpec::xeon_phi_7120p(),
            DeviceSpec::generic_gpu(),
        ] {
            assert_eq!(spec.smt_factor(0), 0.0);
            let mut prev = 0.0;
            for k in 1..=spec.threads_per_core {
                let f = spec.smt_factor(k);
                assert!(f >= prev, "SMT gain must be monotone for {}", spec.name);
                prev = f;
            }
            // beyond the curve the factor saturates
            assert_eq!(
                spec.smt_factor(spec.threads_per_core + 3),
                spec.smt_factor(spec.threads_per_core)
            );
            assert!((spec.smt_factor(1) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bandwidth_accounts_for_sockets() {
        let host = DeviceSpec::xeon_e5_2695v2_dual();
        assert!((host.total_bandwidth_bytes() - 2.0 * 59.7e9).abs() < 1.0);
    }
}
