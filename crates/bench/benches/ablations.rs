//! Ablation benches for the reproduction's design choices:
//!
//! * cooling schedule of the annealer (geometric — the paper's choice — vs. linear vs.
//!   logarithmic),
//! * choice of regression model (boosted trees — the paper's choice — vs. linear and
//!   Poisson regression).
//!
//! Each group prints a one-line quality summary (how close each variant gets to the EM
//! optimum / how accurate each model is) before measuring runtime, so the bench output
//! doubles as the ablation table.

use criterion::{criterion_group, criterion_main, Criterion};
use dna_analysis::Genome;
use hetero_autotune::features::host_feature_names;
use hetero_autotune::{ConfigurationSpace, MeasurementEvaluator, TrainingCampaign};
use hetero_platform::HeterogeneousPlatform;
use wd_ml::{
    metrics, BoostedTreesRegressor, BoostingParams, Dataset, LinearRegressor, PoissonRegressor,
    Regressor,
};
use wd_opt::{CoolingSchedule, Enumeration, SimulatedAnnealing};

const BUDGET: usize = 1000;

/// The evaluator *is* the objective: `MeasurementEvaluator` implements
/// `wd_opt::Objective` directly, so the heuristics consume it without adapters.
fn setup(genome: Genome) -> MeasurementEvaluator {
    MeasurementEvaluator::new(HeterogeneousPlatform::emil(), genome.workload())
}

fn ablation_cooling_schedules(c: &mut Criterion) {
    let objective = setup(Genome::Human);
    let space = ConfigurationSpace::paper();

    // quality summary
    let em = Enumeration::parallel().run(&ConfigurationSpace::enumeration_grid(), &objective);
    for (name, schedule) in [
        (
            "geometric (paper)",
            CoolingSchedule::geometric_for_budget(BUDGET, 2.0, 0.02),
        ),
        (
            "linear",
            CoolingSchedule::Linear {
                decrement: (2.0 - 0.02) / BUDGET as f64,
            },
        ),
        ("logarithmic", CoolingSchedule::Logarithmic),
    ] {
        let mut sa = SimulatedAnnealing::with_budget_and_range(BUDGET, 2.0, 0.02, 9);
        sa = sa.with_schedule(schedule);
        sa.max_iterations = BUDGET;
        let outcome = sa.run(&space, &objective);
        println!(
            "cooling {name:<18}: best {:.3} s ({:+.1} % vs EM optimum, {} evaluations)",
            outcome.best_energy,
            100.0 * (outcome.best_energy - em.best_energy) / em.best_energy,
            outcome.evaluations
        );
    }

    let mut group = c.benchmark_group("ablation_cooling");
    group.sample_size(10);
    group.bench_function("geometric", |b| {
        b.iter(|| {
            SimulatedAnnealing::with_budget_and_range(BUDGET, 2.0, 0.02, 9).run(&space, &objective)
        });
    });
    group.bench_function("logarithmic", |b| {
        let mut sa = SimulatedAnnealing::with_budget_and_range(BUDGET, 2.0, 0.02, 9)
            .with_schedule(CoolingSchedule::Logarithmic);
        sa.max_iterations = BUDGET;
        b.iter(|| sa.run(&space, &objective));
    });
    group.finish();
}

fn ablation_regressors(c: &mut Criterion) {
    // Compare the three candidate models the paper mentions on the host training data.
    let platform = HeterogeneousPlatform::emil();
    let campaign = TrainingCampaign::reduced();
    let models = campaign.run(&platform, BoostingParams::fast());

    // rebuild a dataset from the accuracy rows (features reconstructed from metadata)
    let mut data = Dataset::new(host_feature_names());
    for row in &models.host_accuracy.rows {
        data.push(
            hetero_autotune::features::host_features(
                row.threads,
                row.affinity,
                (row.input_megabytes * 1e6) as u64,
            ),
            row.measured,
        )
        .unwrap();
    }
    let (train, test) = data.train_test_split(0.5, 3);

    let mut summaries = Vec::new();
    let mut boosted = BoostedTreesRegressor::new(BoostingParams::fast());
    boosted.fit(&train).unwrap();
    summaries.push(("boosted trees (paper)", &boosted as &dyn Regressor));
    let mut linear = LinearRegressor::new();
    linear.fit(&train).unwrap();
    summaries.push(("linear regression", &linear as &dyn Regressor));
    let mut poisson = PoissonRegressor::new();
    poisson.fit(&train).unwrap();
    summaries.push(("poisson regression", &poisson as &dyn Regressor));

    for (name, model) in &summaries {
        let predictions = model.predict_batch(test.feature_matrix(), test.n_features());
        println!(
            "regressor {name:<24}: MAPE {:.2} %, RMSE {:.3} s",
            metrics::mean_absolute_percent_error(test.targets(), &predictions),
            metrics::root_mean_squared_error(test.targets(), &predictions),
        );
    }

    let mut group = c.benchmark_group("ablation_regressor_fit");
    group.sample_size(10);
    group.bench_function("boosted_trees", |b| {
        b.iter(|| {
            let mut model = BoostedTreesRegressor::new(BoostingParams::fast());
            model.fit(&train).unwrap();
            model
        });
    });
    group.bench_function("linear", |b| {
        b.iter(|| {
            let mut model = LinearRegressor::new();
            model.fit(&train).unwrap();
            model
        });
    });
    group.bench_function("poisson", |b| {
        b.iter(|| {
            let mut model = PoissonRegressor::new();
            model.fit(&train).unwrap();
            model
        });
    });
    group.finish();
}

fn ablation_noise(c: &mut Criterion) {
    // How much does measurement noise change the evaluated energy surface?
    let workload = Genome::Dog.workload();
    let noisy = MeasurementEvaluator::new(HeterogeneousPlatform::emil(), workload.clone());
    let clean = MeasurementEvaluator::new(HeterogeneousPlatform::emil().without_noise(), workload);
    let config = hetero_autotune::SystemConfiguration::with_host_percent(
        48,
        hetero_platform::Affinity::Scatter,
        240,
        hetero_platform::Affinity::Balanced,
        60,
    );
    println!(
        "noise ablation: noisy energy {:.4} s vs noiseless {:.4} s",
        noisy.energy(&config),
        clean.energy(&config)
    );
    let mut group = c.benchmark_group("ablation_noise");
    group.bench_function("noisy_evaluation", |b| b.iter(|| noisy.energy(&config)));
    group.bench_function("noiseless_evaluation", |b| b.iter(|| clean.energy(&config)));
    group.finish();
}

fn ablation_accelerator_count(c: &mut Criterion) {
    // ROADMAP "Multi-accelerator configurations": how much does a second accelerator
    // buy, and what does N-way enumeration cost?  Same workload, same method pipeline,
    // host+Phi vs host+Phi+GPU.
    use hetero_autotune::DeviceAxis;
    use hetero_platform::Affinity;

    let workload = Genome::Human.workload();
    let one = HeterogeneousPlatform::emil().without_noise();
    let two = HeterogeneousPlatform::emil_with_gpu().without_noise();

    let grid_one = ConfigurationSpace::two_way(
        vec![12, 24, 48],
        vec![Affinity::Scatter],
        vec![60, 120, 240],
        vec![Affinity::Balanced],
        (0..=10).map(|p| p * 100).collect(),
    );
    let grid_two = ConfigurationSpace::multi_accelerator(
        vec![12, 24, 48],
        vec![Affinity::Scatter],
        vec![
            DeviceAxis::new(vec![60, 120, 240], vec![Affinity::Balanced]),
            DeviceAxis::new(vec![112, 224, 448], vec![Affinity::Balanced]),
        ],
        100,
    );

    let objective_one = MeasurementEvaluator::new(one, workload.clone());
    let objective_two = MeasurementEvaluator::new(two, workload);
    let em_one = Enumeration::parallel().run(&grid_one, &objective_one);
    let em_two = Enumeration::parallel().run(&grid_two, &objective_two);
    println!(
        "accelerators 1: EM optimum {:.3} s over {} configs | accelerators 2: {:.3} s over {} configs ({:+.1} % faster)",
        em_one.best_energy,
        grid_one.total_configurations(),
        em_two.best_energy,
        grid_two.total_configurations(),
        100.0 * (em_one.best_energy - em_two.best_energy) / em_one.best_energy,
    );

    let mut group = c.benchmark_group("ablation_accelerator_count");
    group.sample_size(10);
    group.bench_function("em_host_phi", |b| {
        b.iter(|| Enumeration::parallel().run(&grid_one, &objective_one))
    });
    group.bench_function("em_host_phi_gpu", |b| {
        b.iter(|| Enumeration::parallel().run(&grid_two, &objective_two))
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_cooling_schedules,
    ablation_regressors,
    ablation_noise,
    ablation_accelerator_count
);
criterion_main!(benches);
