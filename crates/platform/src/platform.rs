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
    /// `t_host` is exactly [`HeterogeneousPlatform::side_time`] of side 0 and each
    /// accelerator `d`'s time exactly that of side `d + 1` for the same inputs, which
    /// is what lets a caller tabulate the simulator side by side.
    pub fn execute(
        &self,
        workload: &WorkloadProfile,
        partition: &Partition,
        host_cfg: &ExecutionConfig,
        device_cfgs: &[ExecutionConfig],
    ) -> Result<Measurement, PlatformError> {
        self.check_shape(workload, partition, device_cfgs)?;

        let mut stats = ExecutionStats::default();
        let (mut t_host, mut t_device_max) = (0.0_f64, 0.0_f64);
        let cfgs = std::iter::once(host_cfg).chain(device_cfgs);
        for (side, (&fraction, cfg)) in partition.fractions.iter().zip(cfgs).enumerate() {
            if fraction > 0.0 {
                self.validate_side(side, cfg)?;
            }
            let share = workload.fraction(fraction);
            let Some(run) = self.side_run(side, &share, cfg)? else {
                continue;
            };
            let compute = run.compute.parallel + run.compute.serial;
            if side == 0 {
                stats.host_bytes = share.bytes;
                stats.host_threads = cfg.threads;
                stats.host_rate = run.compute.aggregate_rate;
                stats.host_compute_seconds = compute;
                t_host = run.time;
            } else {
                stats.device_bytes += share.bytes;
                stats.device_threads += cfg.threads;
                stats.device_rate += run.compute.aggregate_rate;
                stats.transfer_seconds += run.transfer;
                stats.launch_seconds += self.offload.launch_overhead_s;
                stats.device_compute_seconds = stats.device_compute_seconds.max(compute);
                t_device_max = t_device_max.max(run.time);
            }
        }

        Ok(Measurement {
            t_host,
            t_device: t_device_max,
            t_total: t_host.max(t_device_max),
            stats,
        })
    }

    /// Side `side`'s time (0 the host, `d + 1` accelerator `d`, offload included) for
    /// running `fraction` of `workload` under `cfg` — the time
    /// [`HeterogeneousPlatform::execute`] reports for that side for any partition
    /// giving it that fraction, bit for bit (0 when the share holds no bytes).
    ///
    /// # Errors
    ///
    /// [`PlatformError::EmptyWorkload`] for a zero-byte workload,
    /// [`PlatformError::InvalidPartition`] for a fraction outside `[0, 1]` (NaN
    /// included, as [`Partition::new`] rejects it) or a side past the last
    /// accelerator; when `fraction > 0`, the error `execute` reports for a
    /// configuration that side cannot run.
    pub fn side_time(
        &self,
        side: usize,
        workload: &WorkloadProfile,
        fraction: f64,
        cfg: &ExecutionConfig,
    ) -> Result<f64, PlatformError> {
        Self::check_workload(workload)?;
        if !(0.0..=1.0).contains(&fraction) {
            return Err(PlatformError::InvalidPartition {
                reason: format!("side {side}'s fraction must lie in [0,1], got {fraction}"),
            });
        }
        if fraction > 0.0 {
            self.validate_side(side, cfg)?;
        }
        Ok(self
            .side_run(side, &workload.fraction(fraction), cfg)?
            .map_or(0.0, |run| run.time))
    }

    /// Side `side`'s part of one execution, `None` for an empty share.  The host
    /// computes in place; an accelerator pays the offload launch and the PCIe
    /// transfers.  Each side salts its noise differently: `0x01` for the host,
    /// `0x10 + d` for accelerator `d`.
    fn side_run(
        &self,
        side: usize,
        share: &WorkloadProfile,
        cfg: &ExecutionConfig,
    ) -> Result<Option<SideRun>, PlatformError> {
        let spec = self.spec(side)?;
        if share.is_empty() {
            return Ok(None);
        }
        let compute = self
            .perf
            .compute_time(spec, cfg.affinity, cfg.threads, share);
        let (time, transfer, salt) = match side.checked_sub(1) {
            None => (compute.total(), 0.0, 0x01),
            Some(d) => {
                let result_bytes =
                    (share.bytes as f64 * share.result_bytes_per_input_byte).ceil() as u64;
                let transfer_in = self.offload.transfer_to_device(share.bytes);
                let transfer_back = self.offload.transfer_to_host(result_bytes);
                // The input stream is double-buffered: chunks are scanned while the
                // next chunk is in flight, so transfer and compute overlap.
                let overlapped = compute.parallel.max(transfer_in);
                let time = self.offload.launch_overhead_s
                    + compute.setup
                    + compute.serial
                    + compute.spawn
                    + overlapped
                    + transfer_back;
                (time, transfer_in + transfer_back, 0x10 + d as u64)
            }
        };
        let noise = self.noise.factor(&[
            salt,
            u64::from(cfg.threads),
            cfg.affinity as u64,
            share.bytes,
        ]);
        Ok(Some(SideRun {
            time: time * noise,
            compute,
            transfer,
        }))
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

    /// Check that `execute` has a workload, and a share and a configuration per
    /// accelerator.
    fn check_shape(
        &self,
        workload: &WorkloadProfile,
        partition: &Partition,
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
        Ok(())
    }

    /// Check that side `side` (0 the host, `d + 1` accelerator `d`) exists and can
    /// run `cfg`: the validation [`HeterogeneousPlatform::execute`] applies to a side
    /// that receives work.
    ///
    /// # Errors
    ///
    /// [`PlatformError::InvalidPartition`] for a side past the last accelerator, else
    /// the error `execute` reports for that configuration.
    pub fn validate_side(&self, side: usize, cfg: &ExecutionConfig) -> Result<(), PlatformError> {
        let spec = self.spec(side)?;
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

    /// The device of side `side`.
    fn spec(&self, side: usize) -> Result<&DeviceSpec, PlatformError> {
        match side.checked_sub(1) {
            None => Ok(&self.host),
            Some(d) => self
                .accelerators
                .get(d)
                .ok_or_else(|| PlatformError::InvalidPartition {
                    reason: format!(
                        "side {side} does not exist (the platform has {} accelerator(s))",
                        self.accelerators.len()
                    ),
                }),
        }
    }

    fn check_workload(workload: &WorkloadProfile) -> Result<(), PlatformError> {
        if workload.bytes == 0 {
            return Err(PlatformError::EmptyWorkload);
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
        assert!(Partition::two_way(0.0).is_ok());
        assert!(Partition::two_way(1.0).is_ok());
        assert!(ExecutionRequest::two_way(f64::NAN, host48(), phi240()).is_err());
    }

    #[test]
    fn side_time_targets_the_requested_accelerator() {
        let platform = HeterogeneousPlatform::emil_with_gpu().without_noise();
        assert_eq!(platform.accelerator_count(), 2);
        let phi = platform.side_time(1, &human(), 1.0, &phi240()).unwrap();
        let gpu = platform
            .side_time(
                2,
                &human(),
                1.0,
                &ExecutionConfig::new(448, Affinity::Balanced),
            )
            .unwrap();
        assert!(phi > 0.0 && gpu > 0.0);
        // the two accelerators are genuinely different devices
        assert_ne!(phi, gpu);
        // side 1 is the same Phi on the single-accelerator emil platform
        let emil = HeterogeneousPlatform::emil().without_noise();
        assert_eq!(emil.side_time(1, &human(), 1.0, &phi240()), Ok(phi));
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
        let host_only = platform.side_time(0, &human(), 1.0, &host48()).unwrap();
        let device_only = platform.side_time(1, &human(), 1.0, &phi240()).unwrap();
        // Paper anchors: host-only ≈ 0.74 s, device-only ≈ 0.9-1.0 s for the human genome.
        assert!((0.55..=0.95).contains(&host_only), "host-only {host_only}");
        assert!(
            (0.8..=1.4).contains(&device_only),
            "device-only {device_only}"
        );
        assert!(device_only > host_only);
    }

    #[test]
    fn a_mixed_split_beats_both_baselines_for_large_inputs() {
        let platform = HeterogeneousPlatform::emil().without_noise();
        let host_only = platform.side_time(0, &human(), 1.0, &host48()).unwrap();
        let device_only = platform.side_time(1, &human(), 1.0, &phi240()).unwrap();
        let best_mixed = (1..100)
            .map(|pct| {
                platform
                    .execute(
                        &human(),
                        &Partition::two_way(f64::from(pct) / 100.0).unwrap(),
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
        let host_only = platform.side_time(0, &small(), 1.0, &host48()).unwrap();
        for pct in (10..=90).step_by(10) {
            let mixed = platform
                .execute(
                    &small(),
                    &Partition::two_way(f64::from(pct) / 100.0).unwrap(),
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
                    &Partition::two_way(f64::from(pct) / 100.0).unwrap(),
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
        let host_only = platform.side_time(0, &large, 1.0, &host4).unwrap();
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
        let host = platform.side_time(0, &workload, 0.5, &host48()).unwrap();
        let phi = platform.side_time(1, &workload, 0.3, &phi240()).unwrap();
        let gpu = platform.side_time(2, &workload, 0.2, &gpu).unwrap();
        assert_eq!(m.t_host.to_bits(), host.to_bits());
        assert_eq!(m.t_device.to_bits(), phi.max(gpu).to_bits());

        // an idle side reports 0 and, as in `execute`, is not validated
        let invalid = ExecutionConfig::new(0, Affinity::None);
        assert_eq!(platform.side_time(0, &workload, 0.0, &invalid), Ok(0.0));
        assert_eq!(platform.side_time(2, &workload, 0.0, &invalid), Ok(0.0));
        // a side with work reports `execute`'s errors
        let too_many = ExecutionConfig::new(64, Affinity::Scatter);
        assert!(matches!(
            platform.side_time(0, &workload, 0.5, &too_many),
            Err(PlatformError::TooManyThreads { .. })
        ));
        assert!(matches!(
            platform.side_time(1, &workload.fraction(0.0), 0.5, &phi240()),
            Err(PlatformError::EmptyWorkload)
        ));
        assert!(matches!(
            platform.side_time(3, &workload, 0.5, &phi240()),
            Err(PlatformError::InvalidPartition { .. })
        ));
        // a fraction outside [0, 1] is rejected as `Partition::new` rejects it,
        // before the configuration is looked at
        for fraction in [f64::NAN, -0.5, 1.5] {
            for side in 0..3 {
                assert!(
                    matches!(
                        platform.side_time(side, &workload, fraction, &invalid),
                        Err(PlatformError::InvalidPartition { .. })
                    ),
                    "side {side}, fraction {fraction}"
                );
            }
        }
        assert!(platform.validate_side(3, &phi240()).is_err());
        assert!(platform.validate_side(0, &too_many).is_err());
        assert!(platform.validate_side(0, &host48()).is_ok());
    }

    #[test]
    fn two_accelerator_times_are_pinned_bit_for_bit() {
        // Recorded on the noisy Emil + GPU node: every side's noise salt, share and
        // offload path shows in these bits, the GPU's included.
        let platform = HeterogeneousPlatform::emil_with_gpu();
        let workload = human();
        let (phi, gpu) = (phi240(), ExecutionConfig::new(448, Affinity::Balanced));
        let cases: [([f64; 3], [u64; 3]); 4] = [
            (
                [0.5, 0.3, 0.2],
                [0x3fd8031c6e5df916, 0x3fd839bb567cd47c, 0x3fd839bb567cd47c],
            ),
            ([1.0, 0.0, 0.0], [0x3fe633d83bb6d012, 0, 0x3fe633d83bb6d012]),
            ([0.0, 1.0, 0.0], [0, 0x3fec721f35c7b9fa, 0x3fec721f35c7b9fa]),
            ([0.0, 0.0, 1.0], [0, 0x3fe82cd01a743934, 0x3fe82cd01a743934]),
        ];
        for (fractions, bits) in cases {
            let m = platform
                .execute(
                    &workload,
                    &Partition::new(fractions.to_vec()).unwrap(),
                    &host48(),
                    &[phi, gpu],
                )
                .unwrap();
            let got = [m.t_host, m.t_device, m.t_total].map(f64::to_bits);
            assert_eq!(got, bits, "{fractions:?}");
        }
        // the stats fold of the three-way run: rates, transfers, launches, compute
        let s = platform
            .execute(
                &workload,
                &Partition::new(vec![0.5, 0.3, 0.2]).unwrap(),
                &host48(),
                &[phi, gpu],
            )
            .unwrap()
            .stats;
        let stats = [
            s.host_rate,
            s.device_rate,
            s.transfer_seconds,
            s.launch_seconds,
            s.host_compute_seconds,
            s.device_compute_seconds,
        ];
        assert_eq!(
            stats.map(f64::to_bits),
            [
                0x41f54e6387878788,
                0x4206bbce1b21778e,
                0x3fd05f16de6c1cda,
                0x3fbeb851eb851eb8,
                0x3fd411e20e1814a4,
                0x3fcbd0be76a9e54f,
            ]
        );
        let sides = [
            platform.side_time(0, &workload, 0.5, &host48()),
            platform.side_time(1, &workload, 0.3, &phi),
            platform.side_time(2, &workload, 0.2, &gpu),
        ];
        assert_eq!(
            sides.map(|t| t.unwrap().to_bits()),
            [0x3fd8031c6e5df916, 0x3fd839bb567cd47c, 0x3fd3a3a228db06bd]
        );
    }

    #[test]
    fn invalid_config_on_idle_device_is_tolerated() {
        // If a device receives no work, its configuration is irrelevant.
        let platform = HeterogeneousPlatform::emil();
        let m = platform
            .execute(
                &human(),
                &Partition::two_way(1.0).unwrap(),
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
