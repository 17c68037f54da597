//! Property-based tests for the platform simulator.

use hetero_platform::{
    Affinity, DeviceSpec, ExecutionConfig, HeterogeneousPlatform, Partition, PerfModel, Topology,
    WorkloadProfile,
};
use proptest::prelude::*;

fn arb_affinity() -> impl Strategy<Value = Affinity> {
    prop_oneof![
        Just(Affinity::None),
        Just(Affinity::Scatter),
        Just(Affinity::Compact),
        Just(Affinity::Balanced),
    ]
}

fn arb_host_affinity() -> impl Strategy<Value = Affinity> {
    prop_oneof![
        Just(Affinity::None),
        Just(Affinity::Scatter),
        Just(Affinity::Compact),
    ]
}

fn arb_device_affinity() -> impl Strategy<Value = Affinity> {
    prop_oneof![
        Just(Affinity::Balanced),
        Just(Affinity::Scatter),
        Just(Affinity::Compact),
    ]
}

proptest! {
    /// Any placement accounts for exactly the requested number of threads (capped at
    /// the machine size) and never oversubscribes a core.
    #[test]
    fn placement_conserves_threads(
        sockets in 1u32..4,
        cores in 1u32..32,
        smt in 1u32..5,
        reserved in 0u32..2,
        threads in 0u32..700,
        affinity in arb_affinity(),
    ) {
        let total_cores = sockets * cores;
        prop_assume!(reserved < total_cores);
        let topology = Topology::new(sockets, cores, smt, reserved);
        let placement = affinity.place(&topology, threads);
        prop_assert_eq!(placement.total_threads(), threads.min(topology.max_threads()));
        prop_assert!(placement.per_core().iter().all(|&t| t <= smt));
        prop_assert_eq!(placement.per_core().len() as u32, topology.usable_cores());
    }

    /// The aggregate rate is monotone (non-decreasing) in the thread count for every
    /// affinity policy and device.
    #[test]
    fn aggregate_rate_is_monotone_in_threads(
        affinity in arb_affinity(),
        base in 1u32..240,
        extra in 1u32..16,
    ) {
        let model = PerfModel::default();
        for spec in [DeviceSpec::xeon_e5_2695v2_dual(), DeviceSpec::xeon_phi_7120p()] {
            let lo = base.min(spec.max_threads());
            let hi = (base + extra).min(spec.max_threads());
            let r_lo = model.aggregate_rate(&spec, affinity, lo);
            let r_hi = model.aggregate_rate(&spec, affinity, hi);
            prop_assert!(r_hi >= r_lo * 0.999,
                "rate decreased from {} ({} thr) to {} ({} thr) on {}",
                r_lo, lo, r_hi, hi, spec.name);
        }
    }

    /// Compute time scales (weakly) monotonically with the input size.
    #[test]
    fn compute_time_monotone_in_bytes(
        mb in 1u64..4000,
        threads in 1u32..48,
        affinity in arb_host_affinity(),
    ) {
        let model = PerfModel::default();
        let spec = DeviceSpec::xeon_e5_2695v2_dual();
        let small = WorkloadProfile::dna_scan("s", mb * 1_000_000);
        let large = WorkloadProfile::dna_scan("l", (mb + 100) * 1_000_000);
        let t_small = model.compute_time(&spec, affinity, threads, &small).total();
        let t_large = model.compute_time(&spec, affinity, threads, &large).total();
        prop_assert!(t_large >= t_small);
    }

    /// For every valid two-way split the measurement satisfies
    /// `t_total == max(t_host, t_device)` and all times are non-negative and finite.
    #[test]
    fn measurement_invariants(
        host_pct in 0u32..=100,
        host_threads_idx in 0usize..7,
        device_threads_idx in 0usize..9,
        host_aff in arb_host_affinity(),
        device_aff in arb_device_affinity(),
        mb in 10u64..4000,
    ) {
        let host_threads = [2u32, 4, 6, 12, 24, 36, 48][host_threads_idx];
        let device_threads = [2u32, 4, 8, 16, 30, 60, 120, 180, 240][device_threads_idx];
        let platform = HeterogeneousPlatform::emil();
        let workload = WorkloadProfile::dna_scan("w", mb * 1_000_000);
        let m = platform.execute(
            &workload,
            &Partition::two_way(f64::from(host_pct) / 100.0).unwrap(),
            &ExecutionConfig::new(host_threads, host_aff),
            &[ExecutionConfig::new(device_threads, device_aff)],
        ).unwrap();
        prop_assert!(m.t_host >= 0.0 && m.t_host.is_finite());
        prop_assert!(m.t_device >= 0.0 && m.t_device.is_finite());
        prop_assert!((m.t_total - m.t_host.max(m.t_device)).abs() < 1e-12);
        if host_pct == 0 { prop_assert_eq!(m.t_host, 0.0); }
        if host_pct == 100 { prop_assert_eq!(m.t_device, 0.0); }
        if host_pct > 0 { prop_assert!(m.t_host > 0.0); }
        if host_pct < 100 { prop_assert!(m.t_device > 0.0); }
    }

    /// The simulator is a pure function of its inputs: repeating a measurement yields
    /// bit-identical results.
    #[test]
    fn measurements_are_reproducible(
        host_pct in 0u32..=100,
        mb in 10u64..2000,
        seed in 0u64..1000,
    ) {
        let platform = HeterogeneousPlatform::emil_with_seed(seed);
        let workload = WorkloadProfile::dna_scan("w", mb * 1_000_000);
        let cfg_h = ExecutionConfig::new(24, Affinity::Scatter);
        let cfg_d = ExecutionConfig::new(120, Affinity::Balanced);
        let a = platform.execute(&workload, &Partition::two_way(f64::from(host_pct) / 100.0).unwrap(), &cfg_h, &[cfg_d]).unwrap();
        let b = platform.execute(&workload, &Partition::two_way(f64::from(host_pct) / 100.0).unwrap(), &cfg_h, &[cfg_d]).unwrap();
        prop_assert_eq!(a.t_total, b.t_total);
        prop_assert_eq!(a.t_host, b.t_host);
        prop_assert_eq!(a.t_device, b.t_device);
    }

    /// `two_way` accepts exactly the fractions in [0,1] (regression for the
    /// silent-clamp hole that let NaN and out-of-range fractions through).
    #[test]
    fn two_way_accepts_exactly_unit_fractions(f in -2.0f64..=2.0) {
        let result = Partition::two_way(f);
        if (0.0..=1.0).contains(&f) {
            let p = result.unwrap();
            prop_assert!((p.host_fraction() - f).abs() < 1e-15);
            prop_assert!(p.device_fractions().iter().all(|d| (0.0..=1.0).contains(d)));
        } else {
            prop_assert!(result.is_err());
        }
    }

    /// Partition construction accepts exactly the vectors that are element-wise in
    /// [0,1] and sum to 1.
    #[test]
    fn partition_validation(fracs in proptest::collection::vec(0.0f64..=1.0, 1..5)) {
        let sum: f64 = fracs.iter().sum();
        let result = Partition::new(fracs.clone());
        if (sum - 1.0).abs() <= 1e-6 {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(result.is_err());
        }
    }
}
