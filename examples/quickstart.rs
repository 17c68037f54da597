//! Quickstart: tune the work distribution of a DNA analysis job on the simulated
//! "Emil" platform with SAML (Simulated Annealing + Machine Learning) and compare it
//! against the host-only / device-only baselines.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use workdist::autotune::{Autotuner, MethodKind};

fn main() {
    // The quick setup uses a reduced training campaign so this example finishes in a
    // couple of seconds; `Autotuner::paper_setup` reproduces the full 7 200-experiment
    // campaign of the paper.
    let mut tuner = Autotuner::quick_setup(42);

    println!(
        "workload : {} ({:.2} GB)",
        tuner.workload().name,
        tuner.workload().gigabytes()
    );
    println!("platform : {}", tuner.platform().host.name);
    for accelerator in &tuner.platform().accelerators {
        println!("           + {}", accelerator.name);
    }

    // Train the prediction models (lazy: SAML triggers it automatically, but doing it
    // explicitly lets us print the accuracy first).
    let models = tuner.models();
    println!(
        "\nprediction models trained on {} simulated experiments",
        models.total_experiments()
    );
    println!(
        "  host  model: {:.2} % mean percent error",
        models.host_accuracy.mean_percent_error()
    );
    println!(
        "  device model: {:.2} % mean percent error",
        models.device_accuracy().mean_percent_error()
    );

    // Ask SAML for a near-optimal system configuration using 1 000 annealing iterations
    // (about 5 % of the 19 926 experiments full enumeration would need).
    let outcome = tuner
        .run(MethodKind::Saml, 1000)
        .expect("models are trained");

    println!(
        "\nSAML suggestion after {} evaluated configurations:",
        outcome.evaluations
    );
    println!("  {}", outcome.best_config);
    println!("  predicted execution time: {:.3} s", outcome.search_energy);
    println!(
        "  measured  execution time: {:.3} s",
        outcome.measured_energy
    );

    let speedup = tuner
        .speedup(&outcome)
        .expect("the baselines run on this platform");
    println!("\ncompared with the baselines:");
    println!(
        "  host-only (48 threads)   : {:.3} s",
        speedup.host_only_seconds
    );
    println!(
        "  device-only (240 threads): {:.3} s",
        speedup.device_only_seconds
    );
    println!(
        "  speedup vs host-only     : {:.2}x",
        speedup.speedup_vs_host()
    );
    println!(
        "  speedup vs device-only   : {:.2}x",
        speedup.speedup_vs_device()
    );
}
