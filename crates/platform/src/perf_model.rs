//! Analytical performance model of a single device.
//!
//! The model maps `(device spec, thread count, affinity, workload share)` to an
//! execution-time breakdown.  It is intentionally simple — a handful of first-order
//! effects with calibrated coefficients — because the optimization problem studied in
//! the paper only needs the *shape* of the time surface:
//!
//! * throughput grows with the number of threads but sub-linearly (SMT gains saturate,
//!   active cores contend for the shared cache / memory system),
//! * affinity decides how many cores and sockets a given thread count actually covers,
//! * a small serial fraction and fixed setup costs put a floor under the time,
//! * load imbalance grows mildly with the thread count,
//! * wide SIMD only helps the vectorizable part of the workload,
//! * memory bandwidth caps the achievable aggregate rate.

use crate::affinity::Affinity;
use crate::device::{DeviceKind, DeviceSpec};
use crate::workload::WorkloadProfile;

/// Vectorizable share of the *reference* workload used to calibrate
/// [`DeviceSpec::scan_rate_per_thread`].
pub const REFERENCE_VECTORIZABLE: f64 = 0.85;

/// Tunable coefficients of the analytical model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModelParams {
    /// Load imbalance at full machine occupancy, as a fraction of the parallel time
    /// (linearly interpolated from 0 at one thread).
    pub imbalance_at_full: f64,
    /// Per-thread spawn/join/teardown overhead in seconds.
    pub spawn_overhead_s: f64,
    /// Fraction of the datasheet memory bandwidth that a real scan can sustain.
    pub bandwidth_utilization: f64,
    /// Relative efficiency of the `none` affinity (OS scheduling) vs. explicit binding.
    pub none_affinity_efficiency: f64,
    /// Relative efficiency of `compact` placement (reduced bandwidth per thread).
    pub compact_affinity_efficiency: f64,
    /// Relative efficiency of `scatter` placement on an accelerator compared to `balanced`.
    pub device_scatter_efficiency: f64,
}

impl Default for PerfModelParams {
    fn default() -> Self {
        PerfModelParams {
            imbalance_at_full: 0.08,
            spawn_overhead_s: 0.00017,
            bandwidth_utilization: 0.80,
            none_affinity_efficiency: 0.96,
            compact_affinity_efficiency: 0.965,
            device_scatter_efficiency: 0.985,
        }
    }
}

/// Execution-time breakdown produced by the model (all values in seconds except
/// `aggregate_rate`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComputeBreakdown {
    /// Fixed setup time (thread pool / offload runtime initialisation, automaton build).
    pub setup: f64,
    /// Serial (non-parallelisable) portion.
    pub serial: f64,
    /// Parallel portion including load imbalance.
    pub parallel: f64,
    /// Thread spawn/join overhead.
    pub spawn: f64,
    /// Effective aggregate processing rate in bytes/second (0 for an empty share).
    pub aggregate_rate: f64,
}

impl ComputeBreakdown {
    /// Total compute-side time (excluding any data transfer).
    pub fn total(&self) -> f64 {
        self.setup + self.serial + self.parallel + self.spawn
    }
}

/// The analytical performance model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PerfModel {
    /// Coefficients used by the model.
    pub params: PerfModelParams,
}

impl PerfModel {
    /// Create a model with the given coefficients.
    pub fn new(params: PerfModelParams) -> Self {
        PerfModel { params }
    }

    /// Relative slowdown/speedup of `workload` compared to the reference workload on
    /// `spec`, considering SIMD friendliness and per-byte cost.
    ///
    /// The returned value multiplies the *time per byte*: 1.0 for the reference DNA
    /// scan, larger for more expensive or less vectorizable workloads.
    fn workload_cost_scale(&self, spec: &DeviceSpec, workload: &WorkloadProfile) -> f64 {
        let lanes = (spec.simd_width_bits as f64 / 64.0).max(1.0);
        let reference = REFERENCE_VECTORIZABLE / lanes + (1.0 - REFERENCE_VECTORIZABLE);
        let actual = workload.vectorizable / lanes + (1.0 - workload.vectorizable);
        workload.cost_factor * actual / reference
    }

    /// Efficiency multiplier of the chosen affinity policy on the given device kind.
    fn affinity_efficiency(&self, kind: DeviceKind, affinity: Affinity) -> f64 {
        match (kind, affinity) {
            (DeviceKind::HostCpu, Affinity::Scatter) => 1.0,
            (DeviceKind::HostCpu, Affinity::None) => self.params.none_affinity_efficiency,
            (DeviceKind::HostCpu, Affinity::Compact) => self.params.compact_affinity_efficiency,
            // balanced is not offered by the host runtime; treat it like scatter
            (DeviceKind::HostCpu, Affinity::Balanced) => 1.0,
            (DeviceKind::ManyCoreAccelerator, Affinity::Balanced) => 1.0,
            (DeviceKind::ManyCoreAccelerator, Affinity::Scatter) => {
                self.params.device_scatter_efficiency
            }
            (DeviceKind::ManyCoreAccelerator, Affinity::Compact) => {
                self.params.compact_affinity_efficiency
            }
            (DeviceKind::ManyCoreAccelerator, Affinity::None) => {
                self.params.none_affinity_efficiency
            }
        }
    }

    /// Effective aggregate scan rate (bytes/s of the *reference* workload) of `spec`
    /// when `threads` threads are placed according to `affinity`.
    pub fn aggregate_rate(&self, spec: &DeviceSpec, affinity: Affinity, threads: u32) -> f64 {
        if threads == 0 {
            return 0.0;
        }
        let topology = spec.topology();
        let placement = affinity.place(&topology, threads);
        let mut rate = 0.0;
        for socket in 0..topology.sockets() {
            let active = placement.active_cores_on_socket(socket);
            if active == 0 {
                continue;
            }
            // shared-resource contention grows with the number of active cores per socket
            let contention = 1.0 / (1.0 + spec.core_contention * (active as f64 - 1.0));
            let mut socket_rate = 0.0;
            for core in 0..topology.usable_cores() {
                if topology.socket_of_core(core) != socket {
                    continue;
                }
                let k = placement.threads_on_core(core);
                if k > 0 {
                    socket_rate += spec.scan_rate_per_thread * spec.smt_factor(k);
                }
            }
            rate += socket_rate * contention;
        }
        let rate = rate * self.affinity_efficiency(spec.kind, affinity);
        // The scan cannot stream faster than the memory system allows.
        rate.min(spec.total_bandwidth_bytes() * self.params.bandwidth_utilization)
    }

    /// Compute-side execution time of processing `workload` (a share that may be the
    /// whole input or a fraction of it) on `spec` with the given configuration.
    ///
    /// Transfers and offload launch costs are *not* included; see
    /// [`crate::platform::HeterogeneousPlatform`].
    pub fn compute_time(
        &self,
        spec: &DeviceSpec,
        affinity: Affinity,
        threads: u32,
        workload: &WorkloadProfile,
    ) -> ComputeBreakdown {
        if workload.is_empty() || threads == 0 {
            return ComputeBreakdown::default();
        }
        let cost_scale = self.workload_cost_scale(spec, workload);
        let aggregate = self.aggregate_rate(spec, affinity, threads) / cost_scale;

        let setup = match spec.kind {
            DeviceKind::HostCpu => workload.host_setup_seconds,
            DeviceKind::ManyCoreAccelerator => workload.device_setup_seconds,
        };

        // The serial portion runs on a single fully-occupied core.
        let serial_rate =
            spec.scan_rate_per_thread * spec.smt_factor(spec.threads_per_core) / cost_scale;
        let serial = workload.serial_fraction * workload.bytes as f64 / serial_rate;

        let effective_threads = threads.min(spec.max_threads());
        let imbalance = 1.0
            + self.params.imbalance_at_full * (effective_threads.saturating_sub(1)) as f64
                / spec.max_threads().max(1) as f64;
        let parallel =
            (1.0 - workload.serial_fraction) * workload.bytes as f64 / aggregate * imbalance;

        let spawn = self.params.spawn_overhead_s * effective_threads as f64;

        ComputeBreakdown {
            setup,
            serial,
            parallel,
            spawn,
            aggregate_rate: aggregate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> DeviceSpec {
        DeviceSpec::xeon_e5_2695v2_dual()
    }

    fn phi() -> DeviceSpec {
        DeviceSpec::xeon_phi_7120p()
    }

    fn human() -> WorkloadProfile {
        WorkloadProfile::dna_scan("human", 3_170_000_000)
    }

    #[test]
    fn zero_threads_or_empty_workload_cost_nothing() {
        let model = PerfModel::default();
        let empty = human().fraction(0.0);
        assert_eq!(
            model
                .compute_time(&host(), Affinity::Scatter, 48, &empty)
                .total(),
            0.0
        );
        assert_eq!(
            model
                .compute_time(&host(), Affinity::Scatter, 0, &human())
                .total(),
            0.0
        );
        assert_eq!(model.aggregate_rate(&host(), Affinity::Scatter, 0), 0.0);
    }

    #[test]
    fn more_threads_never_slower_on_host_scatter() {
        let model = PerfModel::default();
        let mut prev = f64::INFINITY;
        for threads in [2u32, 4, 6, 12, 24, 36, 48] {
            let t = model
                .compute_time(&host(), Affinity::Scatter, threads, &human())
                .total();
            assert!(
                t <= prev * 1.001,
                "time should not increase with threads: {threads} threads -> {t}"
            );
            prev = t;
        }
    }

    #[test]
    fn scaling_is_sublinear() {
        let model = PerfModel::default();
        let t6 = model
            .compute_time(&host(), Affinity::Scatter, 6, &human())
            .total();
        let t48 = model
            .compute_time(&host(), Affinity::Scatter, 48, &human())
            .total();
        let speedup = t6 / t48;
        // 8x more threads yield clearly less than 8x speedup but clearly more than 2x
        assert!(
            speedup > 2.0 && speedup < 8.0,
            "unexpected 6->48 speedup {speedup}"
        );
    }

    #[test]
    fn host_full_machine_time_matches_calibration_anchor() {
        // Paper anchor: the human genome (3.17 GB) on 48 host threads takes roughly
        // 0.7-0.8 s (the host-only baseline of Table VIII).
        let model = PerfModel::default();
        let t = model
            .compute_time(&host(), Affinity::Scatter, 48, &human())
            .total();
        assert!(
            (0.55..=0.95).contains(&t),
            "host 48-thread time {t} outside anchor range"
        );
    }

    #[test]
    fn host_few_threads_time_matches_calibration_anchor() {
        // Paper Fig. 5: ~2.4-2.8 s with 6 scatter threads on a ~3.1 GB sequence.
        let model = PerfModel::default();
        let t = model
            .compute_time(&host(), Affinity::Scatter, 6, &human())
            .total();
        assert!(
            (2.0..=3.3).contains(&t),
            "host 6-thread time {t} outside anchor range"
        );
    }

    #[test]
    fn phi_full_machine_compute_matches_calibration_anchor() {
        // Device compute (without offload transfer) for the full human genome with 240
        // balanced threads is well under a second... but clearly slower than the host.
        let model = PerfModel::default();
        let t = model
            .compute_time(&phi(), Affinity::Balanced, 240, &human())
            .total();
        let t_host = model
            .compute_time(&host(), Affinity::Scatter, 48, &human())
            .total();
        assert!(
            (0.5..=1.2).contains(&t),
            "phi 240-thread compute {t} outside anchor range"
        );
        assert!(t > t_host);
    }

    #[test]
    fn phi_two_threads_is_dramatically_slower() {
        // Paper: device executions span 0.9 - 42 s; the slow end comes from 2-thread runs.
        let model = PerfModel::default();
        let t = model
            .compute_time(&phi(), Affinity::Balanced, 2, &human())
            .total();
        assert!(
            t > 20.0,
            "2-thread Phi run should take tens of seconds, got {t}"
        );
    }

    #[test]
    fn scatter_beats_compact_at_low_thread_counts_on_host() {
        let model = PerfModel::default();
        let scatter = model
            .compute_time(&host(), Affinity::Scatter, 6, &human())
            .total();
        let compact = model
            .compute_time(&host(), Affinity::Compact, 6, &human())
            .total();
        assert!(
            scatter < compact,
            "scatter ({scatter}) should beat compact ({compact}) at 6 threads"
        );
    }

    #[test]
    fn balanced_is_best_on_the_device_at_partial_occupancy() {
        let model = PerfModel::default();
        let balanced = model
            .compute_time(&phi(), Affinity::Balanced, 60, &human())
            .total();
        let compact = model
            .compute_time(&phi(), Affinity::Compact, 60, &human())
            .total();
        let scatter = model
            .compute_time(&phi(), Affinity::Scatter, 60, &human())
            .total();
        assert!(balanced <= scatter);
        assert!(balanced < compact);
    }

    #[test]
    fn none_affinity_is_slightly_slower_than_scatter() {
        let model = PerfModel::default();
        let scatter = model
            .compute_time(&host(), Affinity::Scatter, 24, &human())
            .total();
        let none = model
            .compute_time(&host(), Affinity::None, 24, &human())
            .total();
        assert!(none > scatter);
        assert!(none < scatter * 1.15);
    }

    #[test]
    fn time_scales_roughly_linearly_with_bytes() {
        let model = PerfModel::default();
        let full = human();
        let half = full.fraction(0.5);
        let t_full = model.compute_time(&host(), Affinity::Scatter, 48, &full);
        let t_half = model.compute_time(&host(), Affinity::Scatter, 48, &half);
        // variable part halves, fixed setup does not
        let var_full = t_full.total() - t_full.setup - t_full.spawn;
        let var_half = t_half.total() - t_half.setup - t_half.spawn;
        assert!((var_full / var_half - 2.0).abs() < 0.05);
    }

    #[test]
    fn expensive_workloads_take_proportionally_longer() {
        let model = PerfModel::default();
        let cheap = WorkloadProfile::dna_scan("w", 1 << 30);
        let mut costly = cheap.clone();
        costly.cost_factor = 3.0;
        let t_cheap = model
            .compute_time(&host(), Affinity::Scatter, 48, &cheap)
            .total();
        let t_costly = model
            .compute_time(&host(), Affinity::Scatter, 48, &costly)
            .total();
        assert!(t_costly > 2.0 * t_cheap);
    }

    #[test]
    fn poorly_vectorizable_work_hurts_the_wide_simd_device_more() {
        let model = PerfModel::default();
        let mut scalarish = human();
        scalarish.vectorizable = 0.0;
        let host_pen = model.workload_cost_scale(&host(), &scalarish)
            / model.workload_cost_scale(&host(), &human());
        let phi_pen = model.workload_cost_scale(&phi(), &scalarish)
            / model.workload_cost_scale(&phi(), &human());
        assert!(phi_pen > host_pen);
    }

    #[test]
    fn aggregate_rate_respects_bandwidth_ceiling() {
        let model = PerfModel::default();
        let mut spec = host();
        // pretend the memory system is extremely weak
        spec.mem_bandwidth_gbs = 0.5;
        let rate = model.aggregate_rate(&spec, Affinity::Scatter, 48);
        assert!(rate <= 2.0 * 0.5e9 * model.params.bandwidth_utilization + 1.0);
    }
}
