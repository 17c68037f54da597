//! Exact boosted-tree walk counts of the prediction fast paths — the repo's analogue
//! of the paper's "near-optimal after about 5 % of the experiments" claim.
//!
//! Every model is wrapped in a counting [`Regressor`], so a test sees each tree walk
//! the evaluator performs, batched or single.  Each fast path (EML's tabulated scan,
//! SAML's eager and lazy delta walks, GAML's lazy delta run) must
//!
//! * reproduce the direct path bit for bit: best index, configuration, energy bits,
//!   evaluation count and per-iteration trace;
//! * walk the models exactly as often as recorded below — a changed count is either
//!   a regression or an improvement that should update the number on purpose;
//! * on the 2-accelerator grid, walk the models at least 5× less often than the
//!   direct path.
//!
//! The inputs are those of the `enumeration_fast_path` and `annealing_fast_path`
//! benches: reduced campaigns with fast boosting, the 2-accelerator grid
//! (3 168 configurations) and 2 000-iteration walks at seed 29.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use workdist::autotune::{
    ConfigurationSpace, DeviceAxis, PredictionEvaluator, SystemConfiguration, TrainedModels,
    TrainingCampaign,
};
use workdist::dna::Genome;
use workdist::ml::{BoostingParams, Dataset, MlError, Regressor};
use workdist::opt::{GeneticAlgorithm, Outcome, ParallelEnumeration, SimulatedAnnealing};
use workdist::platform::{Affinity, HeterogeneousPlatform};

const ITERATIONS: usize = 2000;
const SEED: u64 = 29;

/// Counts one model walk per predicted row, through both entry points.
struct Counting<M> {
    inner: M,
    walks: Arc<AtomicUsize>,
}

impl<M: Regressor> Regressor for Counting<M> {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.inner.fit(data)
    }
    fn predict_one(&self, features: &[f64]) -> f64 {
        self.walks.fetch_add(1, Ordering::Relaxed);
        self.inner.predict_one(features)
    }
    fn predict_batch(&self, rows: &[f64], width: usize) -> Vec<f64> {
        self.walks.fetch_add(
            rows.len().checked_div(width).unwrap_or(0),
            Ordering::Relaxed,
        );
        self.inner.predict_batch(rows, width)
    }
    fn is_fitted(&self) -> bool {
        self.inner.is_fitted()
    }
    fn name(&self) -> &'static str {
        "counting"
    }
}

/// A prediction evaluator over `models` for the human genome whose host and device
/// models all count into the returned total.
fn counting_evaluator(models: &TrainedModels) -> (PredictionEvaluator, Arc<AtomicUsize>) {
    let walks = Arc::new(AtomicUsize::new(0));
    let host = Counting {
        inner: models.host_model.clone(),
        walks: walks.clone(),
    };
    let devices = models
        .device_models
        .iter()
        .map(|model| {
            Box::new(Counting {
                inner: model.clone(),
                walks: walks.clone(),
            }) as Box<dyn Regressor + Send + Sync>
        })
        .collect();
    let evaluator = PredictionEvaluator::new(Box::new(host), devices, Genome::Human.workload());
    (evaluator, walks)
}

fn walks(counter: &AtomicUsize) -> usize {
    counter.load(Ordering::Relaxed)
}

/// Host + Xeon Phi + GPU models (reduced campaign, fast boosting), trained once.
fn two_accel_models() -> &'static TrainedModels {
    static MODELS: OnceLock<TrainedModels> = OnceLock::new();
    MODELS.get_or_init(|| {
        let platform = HeterogeneousPlatform::emil_with_gpu();
        TrainingCampaign::reduced_for(&platform).run(&platform, BoostingParams::fast())
    })
}

/// The 2-accelerator (Phi + GPU) grid with 10 % split granularity: 3 168 configurations.
fn two_accel_grid() -> ConfigurationSpace {
    ConfigurationSpace::multi_accelerator(
        vec![2, 12, 24, 48],
        vec![Affinity::Scatter],
        vec![
            DeviceAxis::new(vec![30, 60, 120, 240], vec![Affinity::Balanced]),
            DeviceAxis::new(vec![112, 224, 448], vec![Affinity::Balanced]),
        ],
        100,
    )
}

fn assert_identical(
    label: &str,
    direct: &Outcome<SystemConfiguration>,
    fast: &Outcome<SystemConfiguration>,
) {
    assert_eq!(fast.best_config, direct.best_config, "{label}: best config");
    assert_eq!(
        fast.best_energy.to_bits(),
        direct.best_energy.to_bits(),
        "{label}: best energy bits"
    );
    assert_eq!(fast.evaluations, direct.evaluations, "{label}: evaluations");
    assert_eq!(
        fast.trace.records(),
        direct.trace.records(),
        "{label}: trace"
    );
}

#[test]
fn eml_scans_prefilled_tables_with_110_walks_instead_of_7920() {
    let models = two_accel_models();
    let grid = two_accel_grid();
    assert_eq!(grid.total_configurations(), 3168);

    let (direct, direct_walks) = counting_evaluator(models);
    let reference = ParallelEnumeration::new().run_indexed(&grid, &direct);

    let (counted, tabulated_walks) = counting_evaluator(models);
    let tables = counted.tabulated(&grid);
    let prefill = walks(&tabulated_walks);
    let fast = tables.scan(&grid).expect("the grid is not empty");

    assert_eq!(walks(&direct_walks), 7920);
    assert_eq!(prefill, 110);
    assert_eq!(walks(&tabulated_walks), prefill, "the scan walks no model");
    assert_eq!(tables.model_queries(), prefill);
    assert!(walks(&direct_walks) >= 5 * prefill);
    assert_eq!(fast.best_index, reference.best_index);
    assert_identical("EML", &reference.outcome, &fast.outcome);
}

#[test]
fn saml_delta_walks_on_the_two_accelerator_grid_save_over_5x() {
    let models = two_accel_models();
    let space = two_accel_grid();
    let sa = SimulatedAnnealing::with_budget_and_range(ITERATIONS, 2.0, 0.02, SEED);

    let (direct, direct_walks) = counting_evaluator(models);
    let reference = sa.run(&space, &direct);

    let (counted, eager_walks) = counting_evaluator(models);
    let eager_tables = counted.tabulated(&space);
    let prefill = walks(&eager_walks);
    let eager = sa.run_delta(&space, &eager_tables);

    let (counted, lazy_walks) = counting_evaluator(models);
    let lazy = sa.run_delta(&space, &counted.lazy_tabulated());

    assert_eq!(walks(&direct_walks), 5572);
    assert_eq!(prefill, 110);
    assert_eq!(
        walks(&eager_walks),
        prefill,
        "the eager walk stays in-space"
    );
    assert_eq!(walks(&lazy_walks), 93);
    assert!(walks(&direct_walks) >= 5 * walks(&lazy_walks));
    assert_identical("eager SAML", &reference, &eager);
    assert_identical("lazy SAML", &reference, &lazy);
}

#[test]
fn saml_on_the_table_i_space_walks_1191_times_lazily_instead_of_3998() {
    let platform = HeterogeneousPlatform::emil();
    let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());
    let space = ConfigurationSpace::paper();
    let sa = SimulatedAnnealing::with_budget_and_range(ITERATIONS, 2.0, 0.02, SEED);

    let (direct, direct_walks) = counting_evaluator(&models);
    let reference = sa.run(&space, &direct);

    let (counted, eager_walks) = counting_evaluator(&models);
    let eager_tables = counted.tabulated(&space);
    let prefill = walks(&eager_walks);
    let eager = sa.run_delta(&space, &eager_tables);

    let (counted, lazy_walks) = counting_evaluator(&models);
    let lazy = sa.run_delta(&space, &counted.lazy_tabulated());

    // the 1 % split axis makes the walk visit many distinct triples, so the
    // saving is real but below the 5x of the coarser 2-accelerator grid, and
    // prefilling every triple up front costs more than the direct walk
    assert_eq!(walks(&direct_walks), 3998);
    assert_eq!(prefill, 4800);
    assert_eq!(
        walks(&eager_walks),
        prefill,
        "the eager walk stays in-space"
    );
    assert_eq!(walks(&lazy_walks), 1191);
    assert!(walks(&lazy_walks) < walks(&direct_walks));
    assert_identical("eager SAML on Table I", &reference, &eager);
    assert_identical("lazy SAML on Table I", &reference, &lazy);
}

#[test]
fn gaml_delta_run_walks_77_times_instead_of_5634() {
    let models = two_accel_models();
    let space = two_accel_grid();
    let ga = GeneticAlgorithm::with_budget(ITERATIONS, SEED);

    let (direct, direct_walks) = counting_evaluator(models);
    let reference = ga.run(&space, &direct);

    let (counted, lazy_walks) = counting_evaluator(models);
    let lazy = ga.run_delta(&space, &counted.lazy_tabulated());

    assert_eq!(reference.trace.records().len(), 62, "generations");
    assert_eq!(walks(&direct_walks), 5634);
    assert_eq!(walks(&lazy_walks), 77);
    assert!(walks(&direct_walks) >= 5 * walks(&lazy_walks));
    assert_identical("lazy GAML", &reference, &lazy);
}
