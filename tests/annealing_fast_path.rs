//! Acceptance tests for the incremental annealing fast path (lazy per-device tables
//! + O(1) delta energy updates):
//!
//! * property: the [`LazyTabulatedPredictionEvaluator`], filled on first touch or
//!   eagerly prefilled, is **bit-identical** to the direct [`PredictionEvaluator`]
//!   over the whole enumeration of random 1/2/3-accelerator spaces, and after a full
//!   sweep the lazy tables paid exactly the prefill cost — no more, no less;
//! * property: incremental SA trajectories (`run_delta` over
//!   the lazy tables) are **bit-identical** to full re-evaluation of the direct
//!   models (`run`): same RNG seed → same accepted moves, same per-iteration trace,
//!   same final energy — while walking the boosted-tree models far less often;
//! * the per-device split granularity composes with the fast path: a heterogeneous
//!   (per-device step) space anneals through the delta drivers unchanged.

use proptest::prelude::*;
use workdist::autotune::{ConfigurationSpace, DeviceAxis, PredictionEvaluator};
use workdist::ml::{Dataset, MlError, Regressor};
use workdist::opt::SimulatedAnnealing;
use workdist::platform::{Affinity, WorkloadProfile};

/// A deterministic, nonlinear dummy regressor counting its invocations: cheap enough
/// for property tests, wavy enough that a wrong table lookup or a stale delta state
/// almost surely produces a different energy.  Each evaluator carries its **own**
/// counter (libtest runs the tests of this binary in parallel, so a shared static
/// would interleave counts across tests and flake).
struct Wavy {
    salt: f64,
    calls: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl Regressor for Wavy {
    fn fit(&mut self, _data: &Dataset) -> Result<(), MlError> {
        Ok(())
    }
    fn predict_one(&self, features: &[f64]) -> f64 {
        self.calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let threads = features[0];
        let gigabytes = features[4];
        (threads * self.salt).sin().abs() * 0.5 + gigabytes * (1.0 + features[1] * 0.125)
            - features[2] * 0.0625
    }
    fn is_fitted(&self) -> bool {
        true
    }
    fn name(&self) -> &'static str {
        "wavy"
    }
}

/// Build a random configuration space with `accelerators` accelerators, small enough
/// to enumerate exhaustively inside a property test.
fn space_from(
    accelerators: usize,
    host_threads: Vec<u32>,
    device_threads: Vec<u32>,
    step_index: usize,
) -> ConfigurationSpace {
    let steps = [
        [100u32, 200, 250], // 1 accelerator
        [200, 250, 500],    // 2 accelerators
        [250, 500, 500],    // 3 accelerators
    ];
    let step = steps[accelerators - 1][step_index % 3];
    ConfigurationSpace::multi_accelerator(
        host_threads,
        vec![Affinity::Scatter, Affinity::Compact],
        (0..accelerators)
            .map(|device| {
                DeviceAxis::new(
                    device_threads.iter().map(|&t| t + device as u32).collect(),
                    vec![Affinity::Balanced],
                )
            })
            .collect(),
        step,
    )
}

/// Build an evaluator over counting `Wavy` models, returning its private invocation
/// counter alongside.
fn wavy_evaluator(
    accelerators: usize,
    bytes: u64,
) -> (
    PredictionEvaluator,
    std::sync::Arc<std::sync::atomic::AtomicUsize>,
) {
    let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let evaluator = PredictionEvaluator::new(
        Box::new(Wavy {
            salt: 0.37,
            calls: calls.clone(),
        }),
        (0..accelerators)
            .map(|device| {
                Box::new(Wavy {
                    salt: 0.11 + device as f64 * 0.07,
                    calls: calls.clone(),
                }) as Box<dyn Regressor + Send + Sync>
            })
            .collect(),
        WorkloadProfile::dna_scan("prop", bytes),
    );
    (evaluator, calls)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Lazy and eagerly prefilled tables are bit-identical to the direct prediction
    /// path over whole enumerations of random 1/2/3-accelerator spaces, and a full
    /// lazy sweep walks the models exactly as often as the prefill.
    #[test]
    fn lazy_and_eager_tabulation_are_bit_identical(
        accelerators in 1usize..=3,
        host_threads in proptest::sample::select(vec![vec![2u32, 48], vec![12, 24, 48], vec![4]]),
        device_threads in proptest::sample::select(vec![vec![30u32, 240], vec![60], vec![8, 64, 448]]),
        step_index in 0usize..3,
        bytes in 500_000_000u64..4_000_000_000,
    ) {
        use workdist::opt::SearchSpace as _;

        let space = space_from(accelerators, host_threads, device_threads, step_index);
        let (evaluator, _calls) = wavy_evaluator(accelerators, bytes);
        let eager = evaluator.tabulated(&space);
        let prefilled = eager.model_queries();
        let lazy = evaluator.lazy_tabulated();

        for config in space.enumerate().unwrap() {
            let direct = evaluator.energy(&config);
            prop_assert_eq!(eager.energy(&config).to_bits(), direct.to_bits(), "eager {}", config);
            prop_assert_eq!(lazy.energy(&config).to_bits(), direct.to_bits(), "lazy {}", config);
        }
        prop_assert_eq!(eager.model_queries(), prefilled);
        // one full sweep touches every distinct (threads, affinity, share) triple of
        // the space — exactly the entries the prefill computed
        prop_assert_eq!(lazy.model_queries(), prefilled);
        prop_assert_eq!(lazy.table_len(), eager.table_len());
    }

    /// Incremental SA over the lazy tables replays the direct full-re-evaluation
    /// trajectory bit for bit, with far fewer model walks.
    #[test]
    fn delta_walks_are_bit_identical_to_direct_reevaluation(
        accelerators in 1usize..=3,
        host_threads in proptest::sample::select(vec![vec![2u32, 48], vec![12, 24, 48], vec![4]]),
        device_threads in proptest::sample::select(vec![vec![30u32, 240], vec![60], vec![8, 64, 448]]),
        step_index in 0usize..3,
        bytes in 500_000_000u64..4_000_000_000,
        seed in 0u64..1000,
        budget in 60usize..200,
    ) {
        let space = space_from(accelerators, host_threads, device_threads, step_index);
        let (evaluator, calls) = wavy_evaluator(accelerators, bytes);
        let lazy = evaluator.lazy_tabulated();
        let model_calls = || calls.load(std::sync::atomic::Ordering::Relaxed);

        let sa = SimulatedAnnealing::with_budget_and_range(budget, 2.0, 0.02, seed);
        let before = model_calls();
        let full = sa.run(&space, &evaluator);
        let full_walks = model_calls() - before;
        let before = model_calls();
        let fast = sa.run_delta(&space, &lazy);
        let fast_walks = model_calls() - before;
        prop_assert_eq!(&full.best_config, &fast.best_config);
        prop_assert_eq!(full.best_energy.to_bits(), fast.best_energy.to_bits());
        prop_assert_eq!(full.evaluations, fast.evaluations);
        prop_assert_eq!(full.trace.records(), fast.trace.records());
        // the direct path walks every device's model on every evaluation, except the
        // zero-share components it short-circuits
        prop_assert!(full_walks <= (accelerators + 1) * full.evaluations);
        prop_assert!(full_walks > full.evaluations / 2);
        prop_assert!(fast_walks < full_walks,
            "lazy SA walked the models {fast_walks} times, direct {full_walks}");
    }
}

/// The per-device split granularity composes with the incremental fast path: a
/// heterogeneous-step space (coarse slow device) anneals through `run_delta`
/// bit-identically to direct full re-evaluation, inside a simplex a fraction of the
/// uniform one's size.
#[test]
fn heterogeneous_step_space_anneals_through_the_fast_path() {
    let axes = || {
        vec![
            DeviceAxis::new(vec![60, 240], vec![Affinity::Balanced]),
            DeviceAxis::new(vec![112, 448], vec![Affinity::Balanced]),
        ]
    };
    let heterogeneous = ConfigurationSpace::multi_accelerator_heterogeneous(
        vec![12, 48],
        vec![Affinity::Scatter],
        axes(),
        &[100, 100, 500], // fine host + fast device, coarse slow device
    );
    let uniform =
        ConfigurationSpace::multi_accelerator(vec![12, 48], vec![Affinity::Scatter], axes(), 100);
    assert!(
        heterogeneous.splits().len() * 3 < uniform.splits().len(),
        "coarse slow-device steps must shrink the simplex ({} vs {})",
        heterogeneous.splits().len(),
        uniform.splits().len()
    );

    let (evaluator, _calls) = wavy_evaluator(2, 3_170_000_000);
    let lazy = evaluator.lazy_tabulated();
    let sa = SimulatedAnnealing::with_budget_and_range(300, 2.0, 0.02, 23);
    let full = sa.run(&heterogeneous, &evaluator);
    let fast = sa.run_delta(&heterogeneous, &lazy);
    assert_eq!(full.best_config, fast.best_config);
    assert_eq!(full.best_energy.to_bits(), fast.best_energy.to_bits());
    assert_eq!(full.trace.records(), fast.trace.records());
    // every split the walk visited lies on the heterogeneous grid
    assert!(heterogeneous.splits().contains(&fast.best_config.split()));
}
