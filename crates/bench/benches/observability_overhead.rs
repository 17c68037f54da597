//! Bench for the observability layer's hot-path cost, one group:
//!
//! * `observability_overhead` — the same 2000-iteration SAML delta walk on the
//!   2-accelerator bench space, four ways: plain `run_delta` (unobserved),
//!   `run_delta_observed` under the disabled `NoopRecorder` (what every unobserved
//!   entry point pays after the instrumentation PR), under an in-memory `Registry`,
//!   and under a `JsonlExporter` streaming every iteration event to disk.
//!
//! The printed summary doubles as the acceptance evidence: all four trajectories
//! are bit-identical, replaying the exporter's JSONL file reconstructs the walk's
//! best-energy series from the file alone, and the NoopRecorder costs < 2 %
//! wall-clock (asserted on the median paired ratio via
//! [`wd_bench::ObservabilityMeasurement::assert_noop_is_free`]).

use criterion::{criterion_group, criterion_main, Criterion};
use dna_analysis::Genome;
use hetero_autotune::TrainingCampaign;
use hetero_platform::HeterogeneousPlatform;
use wd_bench::{measure_observability_overhead, two_accel_bench_grid};
use wd_ml::BoostingParams;
use wd_obs::{NoopRecorder, Registry};
use wd_opt::SimulatedAnnealing;

const ITERATIONS: usize = 2000;
const SEED: u64 = 29;
const REPEATS: usize = 7;

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

fn bench_observability_overhead(c: &mut Criterion) {
    let platform = HeterogeneousPlatform::emil_with_gpu();
    let models = TrainingCampaign::reduced_for(&platform).run(&platform, BoostingParams::fast());
    let space = two_accel_bench_grid();
    let workload = Genome::Human.workload();

    let m = measure_observability_overhead(
        &models,
        workload.clone(),
        &space,
        ITERATIONS,
        SEED,
        REPEATS,
    );
    print_summary(&m);
    m.assert_noop_is_free();

    let sa = SimulatedAnnealing::with_budget_and_range(ITERATIONS, 2.0, 0.02, SEED);
    let mut group = c.benchmark_group("observability_overhead");
    group.bench_function("saml_2000_unobserved", |b| {
        b.iter(|| {
            let prediction = models.prediction_evaluator(workload.clone());
            let tables = prediction.lazy_tabulated();
            sa.run_delta(&space, &tables)
        })
    });
    group.bench_function("saml_2000_noop_recorder", |b| {
        b.iter(|| {
            let prediction = models.prediction_evaluator(workload.clone());
            let tables = prediction.lazy_tabulated();
            sa.run_delta_observed(&space, &tables, &NoopRecorder, "saml")
        })
    });
    group.bench_function("saml_2000_registry_recorder", |b| {
        b.iter(|| {
            let registry = Registry::new();
            let prediction = models.prediction_evaluator(workload.clone());
            let tables = prediction.lazy_tabulated();
            sa.run_delta_observed(&space, &tables, &registry, "saml")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_observability_overhead);
criterion_main!(benches);
