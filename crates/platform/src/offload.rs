//! Offload (host → accelerator) cost model.
//!
//! The paper uses the Intel offload programming model: the host ships the device's
//! share of the DNA sequence over PCIe, launches the kernel, and the co-processor's
//! results travel back.  Offloaded work overlaps with the host's own share, so the
//! total time is `max(T_host, T_device)` where `T_device` includes all offload costs.

/// PCIe / offload-runtime cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadModel {
    /// Effective host→device transfer bandwidth in bytes/second.
    pub bandwidth_to_device: f64,
    /// Effective device→host transfer bandwidth in bytes/second.
    pub bandwidth_to_host: f64,
    /// Fixed per-offload latency: runtime initialisation, kernel launch, pinning, in seconds.
    pub launch_overhead_s: f64,
    /// Per-transfer latency (one-way) in seconds.
    pub per_transfer_latency_s: f64,
}

impl OffloadModel {
    /// PCIe gen-2 x16 link to a Xeon Phi 7120P with the Intel offload runtime,
    /// as on the paper's evaluation machine.
    pub fn pcie_gen2_x16() -> Self {
        OffloadModel {
            bandwidth_to_device: 6.2e9,
            bandwidth_to_host: 6.6e9,
            launch_overhead_s: 0.06,
            per_transfer_latency_s: 25e-6,
        }
    }

    /// Time to move `bytes` from the host to the device.
    pub fn transfer_to_device(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.per_transfer_latency_s + bytes as f64 / self.bandwidth_to_device
    }

    /// Time to move `bytes` of results back from the device to the host.
    pub fn transfer_to_host(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.per_transfer_latency_s + bytes as f64 / self.bandwidth_to_host
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_zero_cost() {
        let o = OffloadModel::pcie_gen2_x16();
        assert_eq!(o.transfer_to_device(0), 0.0);
        assert_eq!(o.transfer_to_host(0), 0.0);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let o = OffloadModel::pcie_gen2_x16();
        let t1 = o.transfer_to_device(1_000_000_000);
        let t2 = o.transfer_to_device(2_000_000_000);
        // latency is tiny compared to a GB-scale transfer
        assert!((t2 / t1 - 2.0).abs() < 0.01);
        // a 1 GB transfer over ~6 GB/s takes roughly 160 ms
        assert!(t1 > 0.1 && t1 < 0.3, "unexpected transfer time {t1}");
    }
}
