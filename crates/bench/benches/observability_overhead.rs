//! Wall-clock gate for the observability layer's hot-path cost.
//!
//! Runs the same 2000-iteration SAML delta walk on the 2-accelerator bench space
//! four ways: plain `run_delta` (unobserved), `run_delta_observed` under the disabled
//! `NoopRecorder` (what every unobserved entry point pays), under an in-memory
//! `Registry`, and under a `JsonlExporter` streaming every iteration event to disk.
//!
//! The printed summary is the acceptance evidence: all four trajectories are
//! bit-identical, replaying the exporter's JSONL file reconstructs the walk's
//! best-energy series from the file alone, and the NoopRecorder costs < 2 %
//! wall-clock (asserted on the median paired ratio via
//! [`wd_bench::ObservabilityMeasurement::assert_noop_is_free`]).  A plain `main`:
//! `cargo bench -p wd_bench --bench observability_overhead` runs it.

use dna_analysis::Genome;
use hetero_autotune::TrainingCampaign;
use hetero_platform::HeterogeneousPlatform;
use wd_bench::{measure_observability_overhead, two_accel_bench_grid};
use wd_ml::BoostingParams;

const ITERATIONS: usize = 2000;
const SEED: u64 = 29;
const REPEATS: usize = 21;

fn print_summary(m: &wd_bench::ObservabilityMeasurement) {
    println!(
        "SAML on the 2-accelerator bench space ({} configurations, {} iterations, best of {} repeats):",
        m.space_configs, m.iterations, m.repeats
    );
    println!(
        "  unobserved run_delta              {:>12.2?}",
        m.unobserved
    );
    println!(
        "  observed, NoopRecorder (disabled) {:>12.2?}  ({:+.2}%)",
        m.noop,
        m.noop_overhead() * 100.0
    );
    println!(
        "  observed, in-memory Registry      {:>12.2?}  ({:+.2}%)",
        m.registry,
        m.registry_overhead() * 100.0
    );
    println!(
        "  observed, JSONL exporter to disk  {:>12.2?}  ({:+.2}%, {} events, {} bytes)",
        m.exporter,
        m.exporter_overhead() * 100.0,
        m.events_written,
        m.bytes_written
    );
    println!(
        "  trajectories identical: {}, replay reconstructs best-energy series: {}",
        m.identical_trajectories, m.replay_matches
    );
}

fn main() {
    let platform = HeterogeneousPlatform::emil_with_gpu();
    let models = TrainingCampaign::reduced_for(&platform).run(&platform, BoostingParams::fast());
    let m = measure_observability_overhead(
        &models,
        Genome::Human.workload(),
        &two_accel_bench_grid(),
        ITERATIONS,
        SEED,
        REPEATS,
    );
    print_summary(&m);
    m.assert_noop_is_free();
}
