//! Integration tests of the generic optimizers against the work-distribution objective.

use rand::rngs::StdRng;
use rand::SeedableRng;
use workdist::autotune::{ConfigurationSpace, MeasurementEvaluator, MethodKind};
use workdist::dna::Genome;
use workdist::opt::{Enumeration, GeneticAlgorithm, Objective, SearchSpace, SimulatedAnnealing};
use workdist::platform::HeterogeneousPlatform;

/// The evaluator *is* the objective: `MeasurementEvaluator` implements
/// `wd_opt::Objective<SystemConfiguration>` directly.
fn objective_setup() -> MeasurementEvaluator {
    MeasurementEvaluator::new(HeterogeneousPlatform::emil(), Genome::Human.workload())
}

#[test]
fn every_heuristic_beats_random_sampling_of_equal_budget() {
    let objective = objective_setup();
    let space = ConfigurationSpace::paper();
    let budget = 600;

    // the baseline: the best of `budget` uniformly random configurations
    let mut rng = StdRng::seed_from_u64(17);
    let random_best = (0..budget)
        .map(|_| objective.evaluate(&space.random(&mut rng)))
        .fold(f64::INFINITY, f64::min);
    let annealing =
        SimulatedAnnealing::with_budget_and_range(budget, 2.0, 0.02, 17).run(&space, &objective);
    let genetic = GeneticAlgorithm::with_budget(budget, 17).run(&space, &objective);

    // the structured heuristics should do at least as well as random sampling (small
    // tolerance for the stochastic nature of the comparison)
    for (name, outcome) in [
        ("simulated annealing", &annealing),
        ("genetic algorithm", &genetic),
    ] {
        assert!(
            outcome.best_energy <= random_best * 1.10,
            "{name} ({}) should not be clearly worse than random sampling ({random_best})",
            outcome.best_energy,
        );
    }
}

#[test]
fn enumeration_of_the_small_grid_is_the_true_optimum() {
    let objective = objective_setup();
    let grid = ConfigurationSpace::tiny();

    let sequential = Enumeration.run(&grid, &objective).unwrap();
    assert_eq!(sequential.evaluations as u128, grid.total_configurations());

    // the batched, rayon-parallel path agrees bit-exactly
    let batched = workdist::opt::ParallelEnumeration::new().run(&grid, &objective);
    assert_eq!(batched.best_energy, sequential.best_energy);
    assert_eq!(batched.best_config, sequential.best_config);

    // no simulated annealing run on the same grid may beat the enumerated optimum
    for seed in 0..5u64 {
        let sa =
            SimulatedAnnealing::with_budget_and_range(400, 2.0, 0.02, seed).run(&grid, &objective);
        assert!(sa.best_energy >= sequential.best_energy - 1e-12);
    }
}

#[test]
fn method_kinds_report_the_evaluation_economics_of_the_paper() {
    // EM needs the full grid; SA-based methods work with a user-chosen budget.
    let kinds = MethodKind::ALL;
    assert!(kinds.iter().filter(|k| k.uses_enumeration()).count() == 2);
    assert!(kinds.iter().filter(|k| k.uses_prediction()).count() == 2);
    // Table II effort ordering: enumeration-based methods are "high" effort
    for kind in kinds {
        let props = kind.properties();
        if kind.uses_enumeration() {
            assert_eq!(props.effort, "high");
        } else {
            assert_eq!(props.effort, "medium");
        }
        assert_eq!(props.prediction, kind.uses_prediction());
    }
}

#[test]
fn annealing_budget_controls_the_number_of_experiments() {
    let objective = objective_setup();
    let space = ConfigurationSpace::paper();
    for budget in [250usize, 1000, 2000] {
        let outcome =
            SimulatedAnnealing::with_iteration_budget(budget, 1000.0, 3).run(&space, &objective);
        // +1 for the initial configuration, small slack for the budget-to-cooling conversion
        assert!(
            outcome.evaluations >= budget / 2 && outcome.evaluations <= budget + 32,
            "budget {budget} produced {} evaluations",
            outcome.evaluations
        );
    }
}
