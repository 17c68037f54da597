//! Tuning a non-DNA workload: the autotuner is not tied to the DNA application — any
//! divisible data-parallel workload described by a `WorkloadProfile` can be tuned.
//! This example tunes a compute-bound kernel and a transfer-bound streaming kernel and
//! shows how the optimal split moves between "mostly on the accelerator" and
//! "CPU-only" depending on the workload's character.
//!
//! Run with:
//! ```text
//! cargo run --release --example custom_workload
//! ```

use workdist::autotune::{Autotuner, MethodKind};
use workdist::platform::WorkloadProfile;

fn tune(label: &str, workload: WorkloadProfile) {
    let mut tuner = Autotuner::quick_setup(21).with_workload(workload);
    // SAM works directly on simulated measurements, so no training campaign is needed —
    // handy when the workload changes often.
    let outcome = tuner
        .run(MethodKind::Sam, 1200)
        .expect("SAM needs no models");
    let speedup = tuner
        .speedup(&outcome)
        .expect("the baselines run on this platform");
    println!("{label}");
    println!("  best configuration : {}", outcome.best_config);
    println!("  execution time     : {:.3} s", outcome.measured_energy);
    println!(
        "  vs host-only {:.2}x, vs device-only {:.2}x",
        speedup.speedup_vs_host(),
        speedup.speedup_vs_device()
    );
    println!();
}

fn main() {
    // A compute-bound kernel: 8x the per-byte cost of the DNA scan, highly vectorizable.
    // Offloading a large share to the wide-SIMD accelerator pays off.
    tune(
        "compute-bound kernel (2 GB, 8x per-byte cost, 97 % vectorizable)",
        WorkloadProfile::compute_bound("nbody-like", 2_000_000_000, 8.0),
    );

    // A streaming kernel: cheap per byte, so PCIe transfer dominates any offload.
    // The tuner should keep (almost) everything on the host.
    tune(
        "streaming kernel (2 GB, 0.25x per-byte cost, transfer-bound)",
        WorkloadProfile::streaming("stream-like", 2_000_000_000),
    );

    // A small DNA job: offload overhead cannot be amortised (the paper's Fig. 2a regime).
    tune(
        "small DNA scan (190 MB)",
        WorkloadProfile::dna_scan("small-dna", 190_000_000),
    );

    // A large DNA job: the paper's main regime, a 60/40-ish split wins.
    tune(
        "large DNA scan (3.25 GB)",
        WorkloadProfile::dna_scan("large-dna", 3_250_000_000),
    );
}
