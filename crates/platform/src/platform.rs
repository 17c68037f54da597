//! The heterogeneous platform: host + accelerators + interconnect + noise.
//!
//! [`HeterogeneousPlatform::execute`] is the simulator's front door: it takes a
//! workload, a host/device partition and per-device execution configurations and
//! returns a simulated [`Measurement`] — the quantity the paper's optimization methods
//! treat as a black box.  [`HeterogeneousPlatform::execute_many`] is the batched front
//! door: it scores many [`ExecutionRequest`]s against one workload in a single
//! rayon-parallel pass, which is what the unified evaluation layer's
//! `evaluate_batch` builds on.  The noise model is a pure hash of the measurement
//! context, so batched execution is bit-identical to one-at-a-time execution.

use rayon::prelude::*;

use crate::affinity::Affinity;
use crate::counters::ExecutionStats;
use crate::device::{DeviceKind, DeviceSpec};
use crate::error::PlatformError;
use crate::noise::NoiseModel;
use crate::offload::OffloadModel;
use crate::perf_model::{ComputeBreakdown, PerfModel};
use crate::workload::WorkloadProfile;

/// Thread count and affinity for one device — the per-device half of a *system
/// configuration* in the paper's terminology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecutionConfig {
    /// Number of software threads to run.
    pub threads: u32,
    /// Thread-affinity policy.
    pub affinity: Affinity,
}

impl ExecutionConfig {
    /// Convenience constructor.
    pub fn new(threads: u32, affinity: Affinity) -> Self {
        ExecutionConfig { threads, affinity }
    }
}

/// How the workload's bytes are split between the host and the accelerators.
///
/// `fractions[0]` is the host share, `fractions[1..]` the accelerator shares; they must
/// be in `[0, 1]` and sum to 1 (within a small tolerance).
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    fractions: Vec<f64>,
}

impl Partition {
    /// Tolerance when checking that fractions sum to one.
    const SUM_TOLERANCE: f64 = 1e-6;

    /// Build a partition from explicit fractions (`[host, device1, device2, ...]`).
    pub fn new(fractions: Vec<f64>) -> Result<Self, PlatformError> {
        if fractions.is_empty() {
            return Err(PlatformError::InvalidPartition {
                reason: "at least the host fraction is required".to_string(),
            });
        }
        if fractions
            .iter()
            .any(|f| !(0.0..=1.0).contains(f) || f.is_nan())
        {
            return Err(PlatformError::InvalidPartition {
                reason: format!("all fractions must lie in [0,1], got {fractions:?}"),
            });
        }
        let sum: f64 = fractions.iter().sum();
        if (sum - 1.0).abs() > Self::SUM_TOLERANCE {
            return Err(PlatformError::InvalidPartition {
                reason: format!("fractions must sum to 1.0, got {sum}"),
            });
        }
        Ok(Partition { fractions })
    }

    /// Two-way split between the host and a single accelerator.
    ///
    /// `host_fraction` must lie in `[0, 1]`; NaN and out-of-range values are rejected
    /// with the same error policy as [`Partition::new`].  (Earlier versions silently
    /// clamped, which let `f64::NAN` slip through `f64::clamp` and poison every
    /// downstream timing.)
    pub fn two_way(host_fraction: f64) -> Result<Self, PlatformError> {
        if !(0.0..=1.0).contains(&host_fraction) || host_fraction.is_nan() {
            return Err(PlatformError::InvalidPartition {
                reason: format!("host fraction must lie in [0,1], got {host_fraction}"),
            });
        }
        Ok(Partition {
            fractions: vec![host_fraction, 1.0 - host_fraction],
        })
    }

    /// Split expressed as a host percentage (the paper's "workload fraction" parameter,
    /// 0..=100).  Percentages above 100 are rejected, like [`Partition::new`] rejects
    /// fractions above 1.
    pub fn from_host_percent(host_percent: u32) -> Result<Self, PlatformError> {
        if host_percent > 100 {
            return Err(PlatformError::InvalidPartition {
                reason: format!("host percentage must lie in 0..=100, got {host_percent}"),
            });
        }
        Self::two_way(f64::from(host_percent) / 100.0)
    }

    /// Everything on the host.
    pub fn host_only(accelerators: usize) -> Self {
        let mut fractions = vec![0.0; accelerators + 1];
        fractions[0] = 1.0;
        Partition { fractions }
    }

    /// Everything on the (first) accelerator.
    pub fn device_only(accelerators: usize) -> Self {
        assert!(
            accelerators >= 1,
            "device_only requires at least one accelerator"
        );
        let mut fractions = vec![0.0; accelerators + 1];
        fractions[1] = 1.0;
        Partition { fractions }
    }

    /// The host's share (0..=1).
    pub fn host_fraction(&self) -> f64 {
        self.fractions[0]
    }

    /// The accelerators' shares.
    pub fn device_fractions(&self) -> &[f64] {
        &self.fractions[1..]
    }

    /// Number of accelerator entries in this partition.
    pub fn accelerator_count(&self) -> usize {
        self.fractions.len() - 1
    }
}

/// One entry of a batched [`HeterogeneousPlatform::execute_many`] call: a partition
/// plus the host and per-accelerator execution configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionRequest {
    /// How the workload's bytes are split between host and accelerators.
    pub partition: Partition,
    /// Host thread count and affinity.
    pub host: ExecutionConfig,
    /// Per-accelerator thread counts and affinities (one entry per accelerator).
    pub devices: Vec<ExecutionConfig>,
}

impl ExecutionRequest {
    /// Convenience constructor for the common single-accelerator case.  Propagates
    /// [`Partition::two_way`]'s validation (NaN / out-of-range host fractions).
    pub fn two_way(
        host_fraction: f64,
        host: ExecutionConfig,
        device: ExecutionConfig,
    ) -> Result<Self, PlatformError> {
        Ok(ExecutionRequest {
            partition: Partition::two_way(host_fraction)?,
            host,
            devices: vec![device],
        })
    }
}

/// Result of one simulated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Time spent by the host on its share (0 if the host received no work).
    pub t_host: f64,
    /// Wall-clock time of the slowest accelerator including offload overheads
    /// (0 if nothing was offloaded).
    pub t_device: f64,
    /// Total application time: host and device work overlap, so this is the maximum of
    /// the two (Eq. 2 of the paper).
    pub t_total: f64,
    /// Detailed breakdown.
    pub stats: ExecutionStats,
}

/// One side's simulated run: its time plus the parts of it
/// [`HeterogeneousPlatform::execute`] folds into the [`ExecutionStats`].
struct SideRun {
    time: f64,
    compute: ComputeBreakdown,
    transfer: f64,
}

/// A simulated heterogeneous node.
#[derive(Debug, Clone, PartialEq)]
pub struct HeterogeneousPlatform {
    /// The host CPU(s).
    pub host: DeviceSpec,
    /// The accelerators (possibly more than one).
    pub accelerators: Vec<DeviceSpec>,
    /// Host ↔ accelerator interconnect model.
    pub offload: OffloadModel,
    /// Measurement noise model.
    pub noise: NoiseModel,
    /// Analytical per-device performance model.
    pub perf: PerfModel,
}

impl HeterogeneousPlatform {
    /// The paper's evaluation machine "Emil": dual Xeon E5-2695v2 host plus one Xeon Phi
    /// 7120P, PCIe gen-2 interconnect, ~3 % measurement noise.
    pub fn emil() -> Self {
        Self::emil_with_seed(0x45_6d_69_6c) // "Emil"
    }

    /// Same as [`HeterogeneousPlatform::emil`] but with a caller-chosen noise seed, so
    /// experiments can simulate independent measurement campaigns.
    pub fn emil_with_seed(seed: u64) -> Self {
        HeterogeneousPlatform {
            host: DeviceSpec::xeon_e5_2695v2_dual(),
            accelerators: vec![DeviceSpec::xeon_phi_7120p()],
            offload: OffloadModel::pcie_gen2_x16(),
            noise: NoiseModel::paper_default(seed),
            perf: PerfModel::default(),
        }
    }

    /// The "Emil" machine extended with a second, GPU-like accelerator — the paper's
    /// architecture allows one to eight accelerators per node; this is the smallest
    /// heterogeneous-accelerator instance of it.
    pub fn emil_with_gpu() -> Self {
        Self::emil_with_gpu_seed(0x45_6d_69_6c)
    }

    /// Same as [`HeterogeneousPlatform::emil_with_gpu`] with a caller-chosen noise seed.
    fn emil_with_gpu_seed(seed: u64) -> Self {
        HeterogeneousPlatform {
            host: DeviceSpec::xeon_e5_2695v2_dual(),
            accelerators: vec![DeviceSpec::xeon_phi_7120p(), DeviceSpec::generic_gpu()],
            offload: OffloadModel::pcie_gen2_x16(),
            noise: NoiseModel::paper_default(seed),
            perf: PerfModel::default(),
        }
    }

    /// A noiseless copy of this platform (useful for analytical tests that isolate
    /// model effects from measurement noise).
    pub fn without_noise(mut self) -> Self {
        self.noise = NoiseModel::disabled();
        self
    }

    /// Build a custom platform.
    pub fn new(
        host: DeviceSpec,
        accelerators: Vec<DeviceSpec>,
        offload: OffloadModel,
        noise: NoiseModel,
        perf: PerfModel,
    ) -> Self {
        HeterogeneousPlatform {
            host,
            accelerators,
            offload,
            noise,
            perf,
        }
    }

    /// Number of accelerators attached to the host.
    pub fn accelerator_count(&self) -> usize {
        self.accelerators.len()
    }

    /// Simulate one execution of `workload` split according to `partition`, with the
    /// host using `host_cfg` and accelerator `i` using `device_cfgs[i]`.
    ///
    /// Host and device shares run concurrently (offload model of the paper), so the
    /// total time is the maximum of the per-device times; the device time includes the
    /// offload launch overhead and PCIe transfers, with the input transfer overlapping
    /// device compute (double-buffered streaming).
    ///
    /// Each side's time depends only on that side's own threads, affinity and share:
    /// `t_host` is exactly [`HeterogeneousPlatform::host_time`] and each accelerator's
    /// time exactly [`HeterogeneousPlatform::device_time`] for the same inputs, which
    /// is what lets a caller tabulate the simulator side by side.
    pub fn execute(
        &self,
        workload: &WorkloadProfile,
        partition: &Partition,
        host_cfg: &ExecutionConfig,
        device_cfgs: &[ExecutionConfig],
    ) -> Result<Measurement, PlatformError> {
        self.validate(workload, partition, host_cfg, device_cfgs)?;

        let mut stats = ExecutionStats::default();

        let host_share = workload.fraction(partition.host_fraction());
        let t_host = match self.host_run(&host_share, host_cfg) {
            None => 0.0,
            Some(run) => {
                stats.host_bytes = host_share.bytes;
                stats.host_threads = host_cfg.threads;
                stats.host_rate = run.compute.aggregate_rate;
                stats.host_compute_seconds = run.compute.parallel + run.compute.serial;
                run.time
            }
        };

        let mut t_device_max: f64 = 0.0;
        for (idx, accel) in self.accelerators.iter().enumerate() {
            let fraction = partition
                .device_fractions()
                .get(idx)
                .copied()
                .unwrap_or(0.0);
            let share = workload.fraction(fraction);
            let cfg = device_cfgs[idx];
            let Some(run) = self.device_run(idx, accel, &share, &cfg) else {
                continue;
            };
            stats.device_bytes += share.bytes;
            stats.device_threads += cfg.threads;
            stats.device_rate += run.compute.aggregate_rate;
            stats.transfer_seconds += run.transfer;
            stats.launch_seconds += self.offload.launch_overhead_s;
            stats.device_compute_seconds = stats
                .device_compute_seconds
                .max(run.compute.parallel + run.compute.serial);
            t_device_max = t_device_max.max(run.time);
        }

        Ok(Measurement {
            t_host,
            t_device: t_device_max,
            t_total: t_host.max(t_device_max),
            stats,
        })
    }

    /// The host's time for running `fraction` of `workload` under `cfg` — the
    /// `t_host` [`HeterogeneousPlatform::execute`] reports for any partition with
    /// that host fraction, bit for bit (0 when the share holds no bytes).
    ///
    /// # Errors
    ///
    /// [`PlatformError::EmptyWorkload`] for a zero-byte workload; when `fraction > 0`,
    /// the error `execute` reports for a host configuration that cannot run.
    pub fn host_time(
        &self,
        workload: &WorkloadProfile,
        fraction: f64,
        cfg: &ExecutionConfig,
    ) -> Result<f64, PlatformError> {
        Self::check_workload(workload)?;
        if fraction > 0.0 {
            self.validate_host(cfg)?;
        }
        Ok(self
            .host_run(&workload.fraction(fraction), cfg)
            .map_or(0.0, |run| run.time))
    }

    /// Accelerator `index`'s time for running `fraction` of `workload` under `cfg`,
    /// offload included — the time [`HeterogeneousPlatform::execute`] folds into
    /// `t_device` for that accelerator, bit for bit (0 when the share holds no bytes).
    ///
    /// # Errors
    ///
    /// [`PlatformError::InvalidPartition`] for an index the platform has no
    /// accelerator for, [`PlatformError::EmptyWorkload`] for a zero-byte workload;
    /// when `fraction > 0`, the error `execute` reports for a device configuration
    /// that cannot run.
    pub fn device_time(
        &self,
        index: usize,
        workload: &WorkloadProfile,
        fraction: f64,
        cfg: &ExecutionConfig,
    ) -> Result<f64, PlatformError> {
        let accel = self.accelerator(index)?;
        Self::check_workload(workload)?;
        if fraction > 0.0 {
            self.validate_device(accel, cfg)?;
        }
        Ok(self
            .device_run(index, accel, &workload.fraction(fraction), cfg)
            .map_or(0.0, |run| run.time))
    }

    /// The host's side of one execution, `None` for an empty share.
    fn host_run(&self, share: &WorkloadProfile, cfg: &ExecutionConfig) -> Option<SideRun> {
        if share.is_empty() {
            return None;
        }
        let compute = self
            .perf
            .compute_time(&self.host, cfg.affinity, cfg.threads, share);
        let noise = self.noise.factor(&[
            0x01,
            u64::from(cfg.threads),
            cfg.affinity as u64,
            share.bytes,
        ]);
        Some(SideRun {
            time: compute.total() * noise,
            compute,
            transfer: 0.0,
        })
    }

    /// Accelerator `idx`'s side of one execution, `None` for an empty share.
    fn device_run(
        &self,
        idx: usize,
        accel: &DeviceSpec,
        share: &WorkloadProfile,
        cfg: &ExecutionConfig,
    ) -> Option<SideRun> {
        if share.is_empty() {
            return None;
        }
        let compute = self
            .perf
            .compute_time(accel, cfg.affinity, cfg.threads, share);
        let result_bytes = (share.bytes as f64 * share.result_bytes_per_input_byte).ceil() as u64;
        let transfer_in = self.offload.transfer_to_device(share.bytes);
        let transfer_back = self.offload.transfer_to_host(result_bytes);

        // The input stream is double-buffered: chunks are scanned while the next
        // chunk is in flight, so transfer and compute overlap.
        let overlapped = compute.parallel.max(transfer_in);
        let time = self.offload.launch_overhead_s
            + compute.setup
            + compute.serial
            + compute.spawn
            + overlapped
            + transfer_back;

        let noise = self.noise.factor(&[
            0x10 + idx as u64,
            u64::from(cfg.threads),
            cfg.affinity as u64,
            share.bytes,
        ]);
        Some(SideRun {
            time: time * noise,
            compute,
            transfer: transfer_in + transfer_back,
        })
    }

    /// Simulate many executions of `workload` in one batch, one [`Measurement`] per
    /// [`ExecutionRequest`], in request order.
    ///
    /// The requests are scored in parallel on rayon workers.  Because the simulator is
    /// stateless and its noise model is a pure hash of the measurement context, the
    /// results are bit-identical to calling [`HeterogeneousPlatform::execute`] once
    /// per request, regardless of thread count.
    pub fn execute_many(
        &self,
        workload: &WorkloadProfile,
        requests: &[ExecutionRequest],
    ) -> Vec<Result<Measurement, PlatformError>> {
        requests
            .par_iter()
            .map(|request| {
                self.execute(
                    workload,
                    &request.partition,
                    &request.host,
                    &request.devices,
                )
            })
            .collect()
    }

    /// Run the whole workload on the host only.
    pub fn execute_host_only(
        &self,
        workload: &WorkloadProfile,
        host_cfg: &ExecutionConfig,
    ) -> Result<Measurement, PlatformError> {
        let dummy_cfgs: Vec<ExecutionConfig> = self
            .accelerators
            .iter()
            .map(|_| ExecutionConfig::new(1, Affinity::Balanced))
            .collect();
        self.execute(
            workload,
            &Partition::host_only(self.accelerators.len()),
            host_cfg,
            &dummy_cfgs,
        )
    }

    /// Run the whole workload on the first accelerator only.
    pub fn execute_device_only(
        &self,
        workload: &WorkloadProfile,
        device_cfg: &ExecutionConfig,
    ) -> Result<Measurement, PlatformError> {
        self.execute_device_only_on(0, workload, device_cfg)
    }

    /// Run the whole workload on accelerator `index` only (the per-device entry point
    /// the multi-accelerator training campaign uses to characterise each device).
    pub fn execute_device_only_on(
        &self,
        index: usize,
        workload: &WorkloadProfile,
        device_cfg: &ExecutionConfig,
    ) -> Result<Measurement, PlatformError> {
        assert!(
            index < self.accelerators.len(),
            "accelerator index {index} out of range (platform has {})",
            self.accelerators.len()
        );
        let mut cfgs: Vec<ExecutionConfig> = self
            .accelerators
            .iter()
            .map(|_| ExecutionConfig::new(1, Affinity::Balanced))
            .collect();
        cfgs[index] = *device_cfg;
        let mut fractions = vec![0.0; self.accelerators.len() + 1];
        fractions[index + 1] = 1.0;
        self.execute(
            workload,
            &Partition { fractions },
            &ExecutionConfig::new(1, Affinity::Scatter),
            &cfgs,
        )
    }

    fn validate(
        &self,
        workload: &WorkloadProfile,
        partition: &Partition,
        host_cfg: &ExecutionConfig,
        device_cfgs: &[ExecutionConfig],
    ) -> Result<(), PlatformError> {
        Self::check_workload(workload)?;
        if partition.accelerator_count() != self.accelerators.len() {
            return Err(PlatformError::InvalidPartition {
                reason: format!(
                    "partition describes {} accelerator(s) but the platform has {}",
                    partition.accelerator_count(),
                    self.accelerators.len()
                ),
            });
        }
        if device_cfgs.len() != self.accelerators.len() {
            return Err(PlatformError::ConfigCountMismatch {
                accelerators: self.accelerators.len(),
                configs: device_cfgs.len(),
            });
        }
        let sum: f64 = partition.host_fraction() + partition.device_fractions().iter().sum::<f64>();
        if (sum - 1.0).abs() > Partition::SUM_TOLERANCE {
            return Err(PlatformError::InvalidPartition {
                reason: format!("fractions must sum to 1.0, got {sum}"),
            });
        }

        if partition.host_fraction() > 0.0 {
            self.validate_host(host_cfg)?;
        }
        for (idx, accel) in self.accelerators.iter().enumerate() {
            let fraction = partition.device_fractions()[idx];
            if fraction > 0.0 {
                self.validate_device(accel, &device_cfgs[idx])?;
            }
        }
        Ok(())
    }

    /// Check that the host can run `cfg`: the validation
    /// [`HeterogeneousPlatform::execute`] applies to a host that receives work.
    ///
    /// # Errors
    ///
    /// The error `execute` reports for that host configuration.
    pub fn validate_host(&self, cfg: &ExecutionConfig) -> Result<(), PlatformError> {
        self.validate_device(&self.host, cfg)
    }

    /// Check that accelerator `index` exists and can run `cfg`: the validation
    /// [`HeterogeneousPlatform::execute`] applies to an accelerator that receives work.
    ///
    /// # Errors
    ///
    /// [`PlatformError::InvalidPartition`] for an index the platform has no
    /// accelerator for, else the error `execute` reports for that configuration.
    pub fn validate_accelerator(
        &self,
        index: usize,
        cfg: &ExecutionConfig,
    ) -> Result<(), PlatformError> {
        self.validate_device(self.accelerator(index)?, cfg)
    }

    fn accelerator(&self, index: usize) -> Result<&DeviceSpec, PlatformError> {
        self.accelerators
            .get(index)
            .ok_or_else(|| PlatformError::InvalidPartition {
                reason: format!(
                    "accelerator {index} does not exist (the platform has {})",
                    self.accelerators.len()
                ),
            })
    }

    fn check_workload(workload: &WorkloadProfile) -> Result<(), PlatformError> {
        if workload.bytes == 0 {
            return Err(PlatformError::EmptyWorkload);
        }
        Ok(())
    }

    fn validate_device(
        &self,
        spec: &DeviceSpec,
        cfg: &ExecutionConfig,
    ) -> Result<(), PlatformError> {
        if cfg.threads == 0 {
            return Err(PlatformError::ZeroThreads {
                device: spec.name.clone(),
            });
        }
        if cfg.threads > spec.max_threads() {
            return Err(PlatformError::TooManyThreads {
                device: spec.name.clone(),
                requested: cfg.threads,
                maximum: spec.max_threads(),
            });
        }
        let valid = match spec.kind {
            DeviceKind::HostCpu => cfg.affinity.valid_for_host(),
            DeviceKind::ManyCoreAccelerator => cfg.affinity.valid_for_device(),
        };
        if !valid {
            return Err(PlatformError::UnsupportedAffinity {
                device: spec.name.clone(),
                affinity: cfg.affinity,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn human() -> WorkloadProfile {
        WorkloadProfile::dna_scan("human", 3_170_000_000)
    }

    fn small() -> WorkloadProfile {
        WorkloadProfile::dna_scan("small", 190_000_000)
    }

    fn host48() -> ExecutionConfig {
        ExecutionConfig::new(48, Affinity::Scatter)
    }

    fn phi240() -> ExecutionConfig {
        ExecutionConfig::new(240, Affinity::Balanced)
    }

    #[test]
    fn partition_constructors() {
        let p = Partition::two_way(0.6).unwrap();
        assert!((p.host_fraction() - 0.6).abs() < 1e-12);
        assert!((p.device_fractions()[0] - 0.4).abs() < 1e-12);

        let p = Partition::from_host_percent(70).unwrap();
        assert!((p.host_fraction() - 0.7).abs() < 1e-12);

        assert_eq!(Partition::host_only(1).device_fractions(), &[0.0]);
        assert_eq!(Partition::device_only(1).host_fraction(), 0.0);

        assert!(Partition::new(vec![0.5, 0.6]).is_err());
        assert!(Partition::new(vec![-0.1, 1.1]).is_err());
        assert!(Partition::new(vec![]).is_err());
        assert!(Partition::new(vec![0.25, 0.25, 0.5]).is_ok());
    }

    #[test]
    fn two_way_rejects_nan_and_out_of_range_fractions() {
        // Regression: `f64::clamp` propagates NaN, so `two_way(f64::NAN)` used to
        // return a NaN partition that bypassed `Partition::new`'s validation and
        // silently poisoned every downstream timing.
        assert!(Partition::two_way(f64::NAN).is_err());
        assert!(Partition::new(vec![f64::NAN, 1.0]).is_err());
        // and the silent-clamp policy is gone: out-of-range inputs error like `new`
        assert!(Partition::two_way(-0.1).is_err());
        assert!(Partition::two_way(1.5).is_err());
        assert!(Partition::two_way(f64::INFINITY).is_err());
        assert!(Partition::from_host_percent(101).is_err());
        assert!(Partition::from_host_percent(100).is_ok());
        assert!(Partition::two_way(0.0).is_ok());
        assert!(Partition::two_way(1.0).is_ok());
        assert!(ExecutionRequest::two_way(f64::NAN, host48(), phi240()).is_err());
    }

    #[test]
    fn execute_device_only_on_targets_the_requested_accelerator() {
        let platform = HeterogeneousPlatform::emil_with_gpu().without_noise();
        assert_eq!(platform.accelerator_count(), 2);
        let phi = platform
            .execute_device_only_on(0, &human(), &phi240())
            .unwrap();
        let gpu = platform
            .execute_device_only_on(1, &human(), &ExecutionConfig::new(448, Affinity::Balanced))
            .unwrap();
        assert!(phi.t_device > 0.0 && gpu.t_device > 0.0);
        assert_eq!(phi.t_host, 0.0);
        assert_eq!(gpu.t_host, 0.0);
        // the two accelerators are genuinely different devices
        assert_ne!(phi.t_device, gpu.t_device);
        // index 0 matches the single-accelerator entry point on the emil platform
        let emil = HeterogeneousPlatform::emil().without_noise();
        assert_eq!(
            emil.execute_device_only(&human(), &phi240())
                .unwrap()
                .t_device,
            emil.execute_device_only_on(0, &human(), &phi240())
                .unwrap()
                .t_device
        );
    }

    #[test]
    fn total_is_max_of_host_and_device() {
        let platform = HeterogeneousPlatform::emil();
        let m = platform
            .execute(
                &human(),
                &Partition::two_way(0.6).unwrap(),
                &host48(),
                &[phi240()],
            )
            .unwrap();
        assert!(m.t_host > 0.0 && m.t_device > 0.0);
        assert!((m.t_total - m.t_host.max(m.t_device)).abs() < 1e-12);
    }

    #[test]
    fn host_only_and_device_only_baselines_match_paper_anchors() {
        let platform = HeterogeneousPlatform::emil().without_noise();
        let host_only = platform.execute_host_only(&human(), &host48()).unwrap();
        let device_only = platform.execute_device_only(&human(), &phi240()).unwrap();
        // Paper anchors: host-only ≈ 0.74 s, device-only ≈ 0.9-1.0 s for the human genome.
        assert!(
            (0.55..=0.95).contains(&host_only.t_total),
            "host-only {}",
            host_only.t_total
        );
        assert!(
            (0.8..=1.4).contains(&device_only.t_total),
            "device-only {}",
            device_only.t_total
        );
        assert!(device_only.t_total > host_only.t_total);
    }

    #[test]
    fn a_mixed_split_beats_both_baselines_for_large_inputs() {
        let platform = HeterogeneousPlatform::emil().without_noise();
        let host_only = platform
            .execute_host_only(&human(), &host48())
            .unwrap()
            .t_total;
        let device_only = platform
            .execute_device_only(&human(), &phi240())
            .unwrap()
            .t_total;
        let best_mixed = (1..100)
            .map(|pct| {
                platform
                    .execute(
                        &human(),
                        &Partition::from_host_percent(pct).unwrap(),
                        &host48(),
                        &[phi240()],
                    )
                    .unwrap()
                    .t_total
            })
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_mixed < host_only,
            "mixed {best_mixed} vs host {host_only}"
        );
        assert!(
            best_mixed < device_only,
            "mixed {best_mixed} vs device {device_only}"
        );
        // Paper: ≈1.4-2.0× over host-only, ≈1.8-2.4× over device-only.
        assert!(host_only / best_mixed > 1.2);
        assert!(device_only / best_mixed > 1.5);
    }

    #[test]
    fn cpu_only_wins_for_small_inputs() {
        // Fig. 2a: with a 190 MB input and 48 host threads, any offloading loses to
        // CPU-only because of the offload overhead.
        let platform = HeterogeneousPlatform::emil().without_noise();
        let host_only = platform
            .execute_host_only(&small(), &host48())
            .unwrap()
            .t_total;
        for pct in (10..=90).step_by(10) {
            let mixed = platform
                .execute(
                    &small(),
                    &Partition::from_host_percent(pct).unwrap(),
                    &host48(),
                    &[phi240()],
                )
                .unwrap()
                .t_total;
            assert!(
                mixed >= host_only,
                "offloading {}% should not pay off for a small input ({mixed} vs {host_only})",
                100 - pct
            );
        }
    }

    #[test]
    fn device_favoured_split_wins_when_host_threads_are_few() {
        // Fig. 2c: with only 4 host threads the optimum assigns ~70 % to the device.
        let platform = HeterogeneousPlatform::emil().without_noise();
        let host4 = ExecutionConfig::new(4, Affinity::Scatter);
        let large = WorkloadProfile::dna_scan("large", 3_250_000_000);
        let mut best_pct = 0;
        let mut best = f64::INFINITY;
        for pct in 0..=100 {
            let t = platform
                .execute(
                    &large,
                    &Partition::from_host_percent(pct).unwrap(),
                    &host4,
                    &[phi240()],
                )
                .unwrap()
                .t_total;
            if t < best {
                best = t;
                best_pct = pct;
            }
        }
        assert!(
            best_pct <= 40,
            "optimum host share should be small with 4 host threads, got {best_pct}%"
        );
        let host_only = platform.execute_host_only(&large, &host4).unwrap().t_total;
        assert!(best < host_only);
    }

    #[test]
    fn noise_is_reproducible_and_small() {
        let platform = HeterogeneousPlatform::emil();
        let a = platform
            .execute(
                &human(),
                &Partition::two_way(0.6).unwrap(),
                &host48(),
                &[phi240()],
            )
            .unwrap();
        let b = platform
            .execute(
                &human(),
                &Partition::two_way(0.6).unwrap(),
                &host48(),
                &[phi240()],
            )
            .unwrap();
        assert_eq!(
            a.t_total, b.t_total,
            "same configuration must reproduce exactly"
        );

        let noiseless = HeterogeneousPlatform::emil().without_noise();
        let c = noiseless
            .execute(
                &human(),
                &Partition::two_way(0.6).unwrap(),
                &host48(),
                &[phi240()],
            )
            .unwrap();
        let rel = (a.t_total - c.t_total).abs() / c.t_total;
        assert!(
            rel < 0.15,
            "noise should stay within a few percent, got {rel}"
        );
    }

    #[test]
    fn validation_errors() {
        let platform = HeterogeneousPlatform::emil();
        let w = human();

        // too many threads on the host
        let err = platform
            .execute(
                &w,
                &Partition::two_way(0.5).unwrap(),
                &ExecutionConfig::new(64, Affinity::Scatter),
                &[phi240()],
            )
            .unwrap_err();
        assert!(matches!(err, PlatformError::TooManyThreads { .. }));

        // zero threads with work assigned
        let err = platform
            .execute(
                &w,
                &Partition::two_way(0.5).unwrap(),
                &ExecutionConfig::new(0, Affinity::Scatter),
                &[phi240()],
            )
            .unwrap_err();
        assert!(matches!(err, PlatformError::ZeroThreads { .. }));

        // balanced is not a host affinity
        let err = platform
            .execute(
                &w,
                &Partition::two_way(0.5).unwrap(),
                &ExecutionConfig::new(24, Affinity::Balanced),
                &[phi240()],
            )
            .unwrap_err();
        assert!(matches!(err, PlatformError::UnsupportedAffinity { .. }));

        // `none` is not a device affinity
        let err = platform
            .execute(
                &w,
                &Partition::two_way(0.5).unwrap(),
                &host48(),
                &[ExecutionConfig::new(60, Affinity::None)],
            )
            .unwrap_err();
        assert!(matches!(err, PlatformError::UnsupportedAffinity { .. }));

        // missing device configuration
        let err = platform
            .execute(&w, &Partition::two_way(0.5).unwrap(), &host48(), &[])
            .unwrap_err();
        assert!(matches!(err, PlatformError::ConfigCountMismatch { .. }));

        // empty workload
        let err = platform
            .execute(
                &w.fraction(0.0),
                &Partition::two_way(0.5).unwrap(),
                &host48(),
                &[phi240()],
            )
            .unwrap_err();
        assert!(matches!(err, PlatformError::EmptyWorkload));

        // wrong partition arity
        let err = platform
            .execute(
                &w,
                &Partition::new(vec![0.5, 0.25, 0.25]).unwrap(),
                &host48(),
                &[phi240()],
            )
            .unwrap_err();
        assert!(matches!(err, PlatformError::InvalidPartition { .. }));
    }

    #[test]
    fn execute_many_matches_one_at_a_time_execution() {
        let platform = HeterogeneousPlatform::emil();
        let workload = human();
        let requests: Vec<ExecutionRequest> = (0..=10u32)
            .map(|step| ExecutionRequest::two_way(step as f64 / 10.0, host48(), phi240()).unwrap())
            .collect();
        let batched = platform.execute_many(&workload, &requests);
        assert_eq!(batched.len(), requests.len());
        for (request, result) in requests.iter().zip(batched) {
            let single = platform
                .execute(
                    &workload,
                    &request.partition,
                    &request.host,
                    &request.devices,
                )
                .unwrap();
            let batched = result.expect("all requests are valid");
            assert_eq!(
                batched.t_total, single.t_total,
                "batched execution must be bit-identical"
            );
            assert_eq!(batched.t_host, single.t_host);
            assert_eq!(batched.t_device, single.t_device);
        }
    }

    #[test]
    fn execute_many_reports_per_request_errors() {
        let platform = HeterogeneousPlatform::emil();
        let workload = human();
        let requests = vec![
            ExecutionRequest::two_way(0.5, host48(), phi240()).unwrap(),
            // 64 host threads exceed the dual-socket maximum
            ExecutionRequest::two_way(0.5, ExecutionConfig::new(64, Affinity::Scatter), phi240())
                .unwrap(),
        ];
        let results = platform.execute_many(&workload, &requests);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(PlatformError::TooManyThreads { .. })
        ));
    }

    #[test]
    fn per_side_times_compose_execute_bit_for_bit() {
        let platform = HeterogeneousPlatform::emil_with_gpu();
        let workload = human();
        let gpu = ExecutionConfig::new(448, Affinity::Balanced);
        let m = platform
            .execute(
                &workload,
                &Partition::new(vec![0.5, 0.3, 0.2]).unwrap(),
                &host48(),
                &[phi240(), gpu],
            )
            .unwrap();
        let host = platform.host_time(&workload, 0.5, &host48()).unwrap();
        let phi = platform.device_time(0, &workload, 0.3, &phi240()).unwrap();
        let gpu = platform.device_time(1, &workload, 0.2, &gpu).unwrap();
        assert_eq!(m.t_host.to_bits(), host.to_bits());
        assert_eq!(m.t_device.to_bits(), phi.max(gpu).to_bits());

        // an idle side reports 0 and, as in `execute`, is not validated
        let invalid = ExecutionConfig::new(0, Affinity::None);
        assert_eq!(platform.host_time(&workload, 0.0, &invalid), Ok(0.0));
        assert_eq!(platform.device_time(1, &workload, 0.0, &invalid), Ok(0.0));
        // a side with work reports `execute`'s errors
        let too_many = ExecutionConfig::new(64, Affinity::Scatter);
        assert!(matches!(
            platform.host_time(&workload, 0.5, &too_many),
            Err(PlatformError::TooManyThreads { .. })
        ));
        assert!(matches!(
            platform.device_time(0, &workload.fraction(0.0), 0.5, &phi240()),
            Err(PlatformError::EmptyWorkload)
        ));
        assert!(matches!(
            platform.device_time(2, &workload, 0.5, &phi240()),
            Err(PlatformError::InvalidPartition { .. })
        ));
        assert!(platform.validate_accelerator(2, &phi240()).is_err());
        assert!(platform.validate_host(&too_many).is_err());
        assert!(platform.validate_host(&host48()).is_ok());
    }

    #[test]
    fn invalid_config_on_idle_device_is_tolerated() {
        // If a device receives no work, its configuration is irrelevant.
        let platform = HeterogeneousPlatform::emil();
        let m = platform
            .execute(
                &human(),
                &Partition::host_only(1),
                &host48(),
                &[ExecutionConfig::new(0, Affinity::None)],
            )
            .unwrap();
        assert_eq!(m.t_device, 0.0);
        assert!(m.t_host > 0.0);
    }

    #[test]
    fn stats_reflect_the_partition() {
        let platform = HeterogeneousPlatform::emil();
        let m = platform
            .execute(
                &human(),
                &Partition::two_way(0.75).unwrap(),
                &host48(),
                &[phi240()],
            )
            .unwrap();
        assert!((m.stats.host_share() - 0.75).abs() < 0.01);
        assert!(m.stats.transfer_seconds > 0.0);
        assert!(m.stats.launch_seconds > 0.0);
    }

    #[test]
    fn multi_accelerator_platform_works() {
        let platform = HeterogeneousPlatform::new(
            DeviceSpec::xeon_e5_2695v2_dual(),
            vec![DeviceSpec::xeon_phi_7120p(), DeviceSpec::generic_gpu()],
            OffloadModel::pcie_gen2_x16(),
            NoiseModel::disabled(),
            PerfModel::default(),
        );
        let m = platform
            .execute(
                &human(),
                &Partition::new(vec![0.5, 0.3, 0.2]).unwrap(),
                &host48(),
                &[phi240(), ExecutionConfig::new(448, Affinity::Balanced)],
            )
            .unwrap();
        assert!(m.t_total > 0.0);
        assert!(m.stats.device_bytes > 0);
        assert_eq!(m.stats.device_threads, 240 + 448);
    }
}
