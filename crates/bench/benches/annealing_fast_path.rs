//! Benches for the incremental annealing fast path (lazy per-device tables + O(1)
//! delta energy updates), one group:
//!
//! * `annealing_fast_path` — SAML walks on the paper's Table-I space and on the
//!   2-accelerator bench space, three ways each: the classic walk (full
//!   re-evaluation of the direct prediction models on every proposal), the
//!   incremental walk over *eagerly* prefilled tables (the enumeration-style fill that
//!   only pays off on huge budgets), and the incremental walk over *lazy*
//!   fill-on-first-touch tables (`run_delta` + `LazyTabulatedPredictionEvaluator` —
//!   the path `MethodRunner` wires for SAML).
//!
//! The group tracks wall-clock only.  The exact model-query counts of the same walks
//! (2 000 iterations, seed 29), the ≥ 5× lazy-vs-direct reduction on the
//! 2-accelerator space and the bit-identity of all three trajectories are asserted
//! by the `model_query_counts` integration test.

use criterion::{criterion_group, criterion_main, Criterion};
use dna_analysis::Genome;
use hetero_autotune::{ConfigurationSpace, TrainingCampaign};
use hetero_platform::HeterogeneousPlatform;
use wd_bench::two_accel_bench_grid;
use wd_ml::BoostingParams;
use wd_opt::SimulatedAnnealing;

const ITERATIONS: usize = 2000;
const SEED: u64 = 29;

fn bench_annealing_fast_path(c: &mut Criterion) {
    // 2-accelerator space over the Emil-with-GPU platform — the acceptance space
    let gpu_platform = HeterogeneousPlatform::emil_with_gpu();
    let gpu_models =
        TrainingCampaign::reduced_for(&gpu_platform).run(&gpu_platform, BoostingParams::fast());
    let two_accel = two_accel_bench_grid();

    // the paper's Table-I space (host + Xeon Phi)
    let platform = HeterogeneousPlatform::emil();
    let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());
    let table1 = ConfigurationSpace::paper();

    let sa = SimulatedAnnealing::with_budget_and_range(ITERATIONS, 2.0, 0.02, SEED);
    let workload = Genome::Human.workload();

    let mut group = c.benchmark_group("annealing_fast_path");
    group.sample_size(10);
    group.bench_function("table1_saml_direct", |b| {
        let prediction = models.prediction_evaluator(workload.clone());
        b.iter(|| sa.run(&table1, &prediction));
    });
    group.bench_function("table1_saml_eager_tabulated", |b| {
        let prediction = models.prediction_evaluator(workload.clone());
        b.iter(|| {
            let tables = prediction.tabulated(&table1);
            sa.run_delta(&table1, &tables)
        });
    });
    group.bench_function("table1_saml_lazy_delta", |b| {
        let prediction = models.prediction_evaluator(workload.clone());
        b.iter(|| {
            let tables = prediction.lazy_tabulated();
            sa.run_delta(&table1, &tables)
        });
    });
    group.bench_function("two_accel_saml_direct", |b| {
        let prediction = gpu_models.prediction_evaluator(workload.clone());
        b.iter(|| sa.run(&two_accel, &prediction));
    });
    group.bench_function("two_accel_saml_eager_tabulated", |b| {
        let prediction = gpu_models.prediction_evaluator(workload.clone());
        b.iter(|| {
            let tables = prediction.tabulated(&two_accel);
            sa.run_delta(&two_accel, &tables)
        });
    });
    group.bench_function("two_accel_saml_lazy_delta", |b| {
        let prediction = gpu_models.prediction_evaluator(workload.clone());
        b.iter(|| {
            let tables = prediction.lazy_tabulated();
            sa.run_delta(&two_accel, &tables)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_annealing_fast_path);
criterion_main!(benches);
