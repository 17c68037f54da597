//! Beyond the paper: autotuning a node with *two* different accelerators through the
//! standard method pipeline.
//!
//! The architecture diagram in the paper allows one to eight accelerators per node,
//! but the evaluation uses a single Xeon Phi.  Since the configuration space, the
//! training campaign and every optimization method are generalised to host + N
//! accelerators, the three-way work-distribution problem runs through exactly the
//! same EM / EML / SAM / SAML pipeline as the paper's host + Phi setup — no
//! hand-rolled sweeps:
//!
//! 1. train one prediction model per device (host, Xeon Phi, GPU),
//! 2. enumerate the three-way grid with EM (and as a sharded, store-backed campaign),
//! 3. let SAML find a near-optimal split with a fraction of EM's evaluations.
//!
//! Run with:
//! ```text
//! cargo run --release --example multi_accelerator
//! ```

use workdist::autotune::{
    run_enumeration_sharded, ConfigurationSpace, DeviceAxis, MethodKind, MethodRunner,
    SpeedupReport, TrainingCampaign,
};
use workdist::dist::MemoryStore;
use workdist::ml::BoostingParams;
use workdist::platform::{Affinity, HeterogeneousPlatform, WorkloadProfile};

fn main() {
    let platform = HeterogeneousPlatform::emil_with_gpu();
    let workload = WorkloadProfile::dna_scan("human", 3_170_000_000);
    println!("platform : {}", platform.host.name);
    for accelerator in &platform.accelerators {
        println!("           + {}", accelerator.name);
    }

    // --- 1. one prediction model per device ---------------------------------------
    let campaign = TrainingCampaign::reduced_for(&platform);
    let models = campaign.run(&platform, BoostingParams::fast());
    println!(
        "\ntrained {} device models from {} simulated experiments",
        models.device_model_count(),
        models.total_experiments()
    );
    println!(
        "  host model : {:.2} % mean percent error",
        models.host_accuracy.mean_percent_error()
    );
    for (index, accuracy) in models.device_accuracies.iter().enumerate() {
        println!(
            "  {:<11}: {:.2} % mean percent error",
            platform.accelerators[index].name,
            accuracy.mean_percent_error()
        );
    }

    // --- 2. the three-way configuration space -------------------------------------
    // host + Phi + GPU shares on a 10 % simplex; thread/affinity axes per device
    let grid = ConfigurationSpace::multi_accelerator(
        vec![12, 24, 48],
        vec![Affinity::Scatter],
        vec![
            DeviceAxis::new(vec![60, 120, 240], vec![Affinity::Balanced]),
            DeviceAxis::new(vec![112, 224, 448], vec![Affinity::Balanced]),
        ],
        100,
    );
    println!(
        "\nthree-way space: {} configurations ({} splits on the 10 % simplex)",
        grid.total_configurations(),
        grid.splits().len()
    );

    // --- 3. EM / SAML through the standard method pipeline ------------------------
    let runner = MethodRunner::new(&platform, &workload, Some(&models), 42)
        .with_grid(grid.clone())
        .with_space(grid.clone());
    let em = runner.run(MethodKind::Em, 0).expect("EM runs");
    let saml = runner.run(MethodKind::Saml, 400).expect("SAML runs");

    println!(
        "\nEM   ({} evaluations): {}",
        em.evaluations, em.best_config
    );
    println!("     measured time {:.3} s", em.measured_energy);
    println!(
        "SAML ({} evaluations): {}",
        saml.evaluations, saml.best_config
    );
    println!(
        "     measured time {:.3} s ({:+.1} % vs the EM optimum)",
        saml.measured_energy,
        100.0 * (saml.measured_energy - em.measured_energy) / em.measured_energy
    );

    // --- 4. the same grid as a sharded, store-backed campaign ---------------------
    let store = MemoryStore::new();
    let sharded = run_enumeration_sharded(
        &platform,
        &workload,
        Some(&models),
        MethodKind::Em,
        &grid,
        4,
        &store,
    )
    .expect("sharded EM runs");
    assert_eq!(sharded.best_config, em.best_config);
    let resumed = run_enumeration_sharded(
        &platform,
        &workload,
        Some(&models),
        MethodKind::Em,
        &grid,
        4,
        &store,
    )
    .expect("warm resume runs");
    println!(
        "\nsharded EM over 4 nodes matches the single-node optimum; a repeated campaign \
         against the warm store re-evaluates {} configurations",
        resumed.cache.misses
    );

    // --- 5. baselines -------------------------------------------------------------
    let speedup = SpeedupReport::for_combined_time(&platform, &workload, em.measured_energy);
    println!(
        "\nhost-only: {:.3} s ({:.2}x slower than the best three-way split)",
        speedup.host_only_seconds,
        speedup.speedup_vs_host()
    );
    println!(
        "Phi-only : {:.3} s ({:.2}x slower than the best three-way split)",
        speedup.device_only_seconds,
        speedup.speedup_vs_device()
    );
}
