//! Property-based tests for the optimization crate.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use wd_opt::space::GridSpace;
use wd_opt::{
    CoolingSchedule, DeltaObjective, Enumeration, GeneticAlgorithm, Objective, SearchSpace,
    SimulatedAnnealing, Touched,
};

/// A separable objective over grid configurations — `max(f(x), g(y))`, the same
/// composition shape as the work-distribution energy — implementing the incremental
/// contract: component 0 is `x`, component 1 is `y` (matching
/// `GridSpace::neighbor_move`), and a move re-evaluates only the touched component.
/// Counts per-component evaluations so tests can verify moves really got cheaper.
struct SeparableGrid {
    target: (u32, u32),
    component_evals: AtomicUsize,
}

impl SeparableGrid {
    fn new(target: (u32, u32)) -> Self {
        SeparableGrid {
            target,
            component_evals: AtomicUsize::new(0),
        }
    }

    fn fx(&self, x: u32) -> f64 {
        self.component_evals.fetch_add(1, Ordering::Relaxed);
        let dx = x as f64 - self.target.0 as f64;
        dx * dx + 5.0 * (dx * 0.31).sin().abs()
    }

    fn gy(&self, y: u32) -> f64 {
        self.component_evals.fetch_add(1, Ordering::Relaxed);
        let dy = y as f64 - self.target.1 as f64;
        dy * dy + 5.0 * (dy * 0.47).sin().abs()
    }
}

impl Objective<(u32, u32)> for SeparableGrid {
    fn evaluate(&self, config: &(u32, u32)) -> f64 {
        self.fx(config.0).max(self.gy(config.1))
    }
}

impl DeltaObjective<(u32, u32)> for SeparableGrid {
    type State = (f64, f64);

    fn evaluate_with_state(&self, config: &(u32, u32)) -> (f64, (f64, f64)) {
        let fx = self.fx(config.0);
        let gy = self.gy(config.1);
        (fx.max(gy), (fx, gy))
    }

    fn evaluate_move(
        &self,
        base: &(u32, u32),
        state: &(f64, f64),
        config: &(u32, u32),
        touched: &Touched,
    ) -> (f64, (f64, f64)) {
        let fx = if touched.may_touch(0) && config.0 != base.0 {
            self.fx(config.0)
        } else {
            state.0
        };
        let gy = if touched.may_touch(1) && config.1 != base.1 {
            self.gy(config.1)
        } else {
            state.1
        };
        (fx.max(gy), (fx, gy))
    }
}

/// A deterministic but seed-parameterised objective with its global optimum at
/// `(target_x, target_y)`.
fn objective(target: (u32, u32)) -> impl Fn(&(u32, u32)) -> f64 + Sync {
    move |config: &(u32, u32)| {
        let dx = config.0 as f64 - target.0 as f64;
        let dy = config.1 as f64 - target.1 as f64;
        dx * dx + dy * dy + 5.0 * ((dx * 0.31).sin().abs() + (dy * 0.47).sin().abs())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Enumeration always returns the true optimum and evaluates every configuration
    /// exactly once.
    #[test]
    fn enumeration_finds_the_optimum(
        width in 2u32..30,
        height in 2u32..30,
        tx in 0u32..30,
        ty in 0u32..30,
    ) {
        let space = GridSpace { width, height };
        let target = (tx.min(width - 1), ty.min(height - 1));
        let outcome = Enumeration::sequential().run(&space, &objective(target));
        prop_assert_eq!(outcome.evaluations as u128, space.cardinality().unwrap());
        // the optimum of the objective restricted to the grid is the clamped target
        prop_assert_eq!(outcome.best_config, target);
    }

    /// Every heuristic returns an energy it actually evaluated (best ≤ every recorded
    /// proposal) and respects its evaluation budget.
    #[test]
    fn heuristics_report_consistent_outcomes(seed in 0u64..500, budget in 50usize..400) {
        let space = GridSpace { width: 64, height: 64 };
        let objective = objective((13, 57));

        let outcomes = vec![
            ("sa", SimulatedAnnealing::with_budget_and_range(budget, 50.0, 0.5, seed).run(&space, &objective)),
            ("ga", GeneticAlgorithm::with_budget(budget, seed).run(&space, &objective)),
        ];
        for (name, outcome) in outcomes {
            prop_assert!(outcome.best_energy.is_finite(), "{name}");
            // the reported best is never larger than any proposal seen in the trace
            for record in outcome.trace.records() {
                prop_assert!(outcome.best_energy <= record.best_energy + 1e-12, "{name}");
            }
            // budget respected within a small structural slack
            prop_assert!(outcome.evaluations <= budget * 2 + 64,
                "{name} used {} evaluations for budget {budget}", outcome.evaluations);
            // the best energy equals evaluating the best configuration again
            prop_assert!((objective(&outcome.best_config) - outcome.best_energy).abs() < 1e-9, "{name}");
        }
    }

    /// Simulated annealing runs are exactly reproducible per seed, and the best-energy
    /// series in the trace is non-increasing.
    #[test]
    fn annealing_is_reproducible_and_monotone(seed in 0u64..500, budget in 50usize..600) {
        let space = GridSpace { width: 100, height: 100 };
        let objective = objective((71, 23));
        let sa = SimulatedAnnealing::with_budget_and_range(budget, 80.0, 0.4, seed);
        let a = sa.run(&space, &objective);
        let b = sa.run(&space, &objective);
        prop_assert_eq!(a.best_config, b.best_config);
        prop_assert_eq!(a.best_energy, b.best_energy);
        prop_assert_eq!(a.evaluations, b.evaluations);
        let series = a.trace.best_energy_series();
        for pair in series.windows(2) {
            prop_assert!(pair[1] <= pair[0] + 1e-12);
        }
    }

    /// Incremental (delta) simulated-annealing trajectories are bit-identical to full
    /// re-evaluation: same accepted moves, same energies, same evaluation counts —
    /// while evaluating strictly fewer objective components.
    #[test]
    fn delta_trajectories_are_bit_identical_to_full_reevaluation(
        seed in 0u64..500,
        budget in 50usize..250,
        tx in 0u32..64,
        ty in 0u32..64,
    ) {
        let space = GridSpace { width: 64, height: 64 };
        let full = SeparableGrid::new((tx, ty));
        let delta = SeparableGrid::new((tx, ty));

        let sa = SimulatedAnnealing::with_budget_and_range(budget, 50.0, 0.5, seed);
        let a = sa.run(&space, &full);
        let b = sa.run_delta(&space, &delta);
        prop_assert_eq!(&a.best_config, &b.best_config);
        prop_assert_eq!(a.best_energy.to_bits(), b.best_energy.to_bits());
        prop_assert_eq!(a.evaluations, b.evaluations);
        prop_assert_eq!(a.trace.records(), b.trace.records());
        // the full path pays 2 components per evaluation; the delta path at most
        // that, and strictly less whenever any move left a component untouched
        let full_components = full.component_evals.load(Ordering::Relaxed);
        let delta_components = delta.component_evals.load(Ordering::Relaxed);
        prop_assert_eq!(full_components, 2 * a.evaluations);
        prop_assert!(delta_components < full_components,
            "delta path evaluated {delta_components} components, full {full_components}");
    }

    /// The genetic algorithm's incremental path (`run_delta`, scoring each child
    /// against its first parent's retained state from the crossover/mutation
    /// footprint) is bit-identical to the full re-evaluation path — same best
    /// configuration, energies, evaluation counts and trace — while evaluating
    /// strictly fewer objective components.
    #[test]
    fn ga_delta_trajectories_are_bit_identical_to_full_reevaluation(
        seed in 0u64..500,
        budget in 100usize..400,
        tx in 0u32..64,
        ty in 0u32..64,
    ) {
        let space = GridSpace { width: 64, height: 64 };
        let full = SeparableGrid::new((tx, ty));
        let delta = SeparableGrid::new((tx, ty));

        let ga = GeneticAlgorithm::with_budget(budget, seed);
        let a = ga.run(&space, &full);
        let b = ga.run_delta(&space, &delta);
        prop_assert_eq!(&a.best_config, &b.best_config);
        prop_assert_eq!(a.best_energy.to_bits(), b.best_energy.to_bits());
        prop_assert_eq!(a.evaluations, b.evaluations);
        prop_assert_eq!(a.trace.records(), b.trace.records());

        // the full path pays 2 components per evaluation; the delta path scores
        // children from their first parent's retained per-component state, so
        // every component inherited from the first parent is free
        let full_components = full.component_evals.load(Ordering::Relaxed);
        let delta_components = delta.component_evals.load(Ordering::Relaxed);
        prop_assert_eq!(full_components, 2 * a.evaluations);
        prop_assert!(delta_components < full_components,
            "delta path evaluated {delta_components} components, full {full_components}");
    }

    /// Observed runs (a live [`wd_obs::Registry`] recorder attached) are bit-identical
    /// to unobserved runs for every driver: the recorder is consulted strictly after
    /// each trace record is produced and never draws from the RNG, so attaching one
    /// cannot perturb the trajectory.  The registry also receives exactly one
    /// iteration event per trace record with the best-energy series intact.
    #[test]
    fn observed_runs_are_bit_identical_to_unobserved_runs(
        seed in 0u64..200,
        budget in 50usize..250,
        tx in 0u32..64,
        ty in 0u32..64,
    ) {
        use wd_obs::Registry;

        let space = GridSpace { width: 64, height: 64 };
        let plain = SeparableGrid::new((tx, ty));
        let observed = SeparableGrid::new((tx, ty));

        let sa = SimulatedAnnealing::with_budget_and_range(budget, 50.0, 0.5, seed);
        let ga = GeneticAlgorithm::with_budget(budget.max(100), seed);

        let registry = Registry::new();
        let runs = vec![
            ("sa", sa.run_delta(&space, &plain),
             sa.run_delta_observed(&space, &observed, &registry, "sa")),
            ("genetic", ga.run_delta(&space, &plain),
             ga.run_delta_observed(&space, &observed, &registry, "genetic")),
        ];

        let snapshot = registry.snapshot();
        for (scope, unobserved, observed) in runs {
            prop_assert_eq!(&unobserved.best_config, &observed.best_config, "{}", scope);
            prop_assert_eq!(
                unobserved.best_energy.to_bits(), observed.best_energy.to_bits(),
                "{}", scope
            );
            prop_assert_eq!(unobserved.evaluations, observed.evaluations, "{}", scope);
            prop_assert_eq!(unobserved.trace.records(), observed.trace.records(), "{}", scope);

            // one iteration event per trace record, ending at the final best energy
            let summary = snapshot.iterations.get(scope)
                .unwrap_or_else(|| panic!("no iteration summary for scope {scope}"));
            prop_assert_eq!(summary.count, observed.trace.len() as u64, "{}", scope);
            prop_assert_eq!(
                summary.last_best_energy.to_bits(), observed.best_energy.to_bits(),
                "{}", scope
            );
        }
        // the two objective instances saw exactly the same component evaluations
        prop_assert_eq!(
            plain.component_evals.load(Ordering::Relaxed),
            observed.component_evals.load(Ordering::Relaxed)
        );
    }

    /// The geometric budget helper produces a schedule that reaches the stop
    /// temperature in (approximately) the requested number of iterations.
    #[test]
    fn geometric_budget_matches_iterations(
        iterations in 10usize..3000,
        t0 in 10.0f64..2000.0,
        t_end in 0.001f64..1.0,
    ) {
        prop_assume!(t0 > t_end * 10.0);
        let schedule = CoolingSchedule::geometric_for_budget(iterations, t0, t_end);
        let steps = schedule.geometric_iterations(t0, t_end).unwrap();
        prop_assert!(steps.abs_diff(iterations) <= 1 + iterations / 100,
            "requested {iterations}, schedule needs {steps}");
    }
}
