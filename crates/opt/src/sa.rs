//! Simulated Annealing (the paper's space-exploration heuristic, Fig. 3).
//!
//! The algorithm follows the structure of the paper's flow chart:
//!
//! 1. set an initial temperature and a random initial solution;
//! 2. repeatedly generate a neighbour of the current solution, evaluate its energy
//!    `E'` and accept it if `E' < E` or with probability `p = exp((E − E') / T)`
//!    (Eq. 4);
//! 3. cool down `T ← T · (1 − coolingRate)` (Eq. 3) and stop once `T` drops below the
//!    stop temperature.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wd_obs::{NoopRecorder, Recorder};

use crate::delta::{DeltaObjective, FullDelta};
use crate::objective::Objective;
use crate::outcome::Outcome;
use crate::schedule::CoolingSchedule;
use crate::space::SearchSpace;
use crate::trace::{IterationRecord, OptimizationTrace};

/// Simulated-annealing optimizer.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedAnnealing {
    /// Initial temperature `T₀`.
    pub initial_temperature: f64,
    /// The run stops when the temperature drops below this value (the paper uses 1).
    pub stop_temperature: f64,
    /// Cooling schedule (the paper uses geometric cooling).
    pub schedule: CoolingSchedule,
    /// Hard cap on iterations (a safety net a few steps past the cooling budget).
    pub max_iterations: usize,
    /// RNG seed; two runs with the same seed explore identically.
    pub seed: u64,
}

impl SimulatedAnnealing {
    /// Construct a run that performs (approximately) `iterations` iterations by fixing
    /// `T₀` and deriving the geometric cooling rate (stop temperature 1, as in the
    /// paper's flow chart).
    pub fn with_iteration_budget(iterations: usize, initial_temperature: f64, seed: u64) -> Self {
        Self::with_budget_and_range(iterations, initial_temperature, 1.0, seed)
    }

    /// Construct a run that performs (approximately) `iterations` iterations cooling
    /// geometrically from `initial_temperature` down to `stop_temperature`.
    ///
    /// The temperature should be on the scale of typical *energy differences* between
    /// neighbouring configurations: the annealer explores while `T` is above that scale
    /// and becomes greedy once `T` falls below it.  For objectives measured in seconds
    /// with differences of a few hundredths of a second, a range like `2.0 → 0.02`
    /// works well.
    pub fn with_budget_and_range(
        iterations: usize,
        initial_temperature: f64,
        stop_temperature: f64,
        seed: u64,
    ) -> Self {
        let iterations = iterations.max(1);
        SimulatedAnnealing {
            initial_temperature,
            stop_temperature,
            schedule: CoolingSchedule::geometric_for_budget(
                iterations,
                initial_temperature,
                stop_temperature,
            ),
            max_iterations: iterations + 16,
            seed,
        }
    }

    /// Run the optimizer on `space` with objective `objective`, re-scoring every
    /// proposal from scratch.
    ///
    /// This is [`SimulatedAnnealing::run_delta`] behind the full-evaluation adapter
    /// ([`FullDelta`]), so the two entry points share one loop and — for a correct
    /// [`DeltaObjective`] — produce bit-identical trajectories.
    pub fn run<S, O>(&self, space: &S, objective: &O) -> Outcome<S::Config>
    where
        S: SearchSpace,
        O: Objective<S::Config> + ?Sized,
    {
        self.run_delta(space, &FullDelta::new(objective))
    }

    /// Run the optimizer with an incrementally evaluable objective: each proposal is
    /// scored through [`DeltaObjective::evaluate_move`] against the current
    /// configuration, which recomputes only the components the neighbour move
    /// changed — for a separable objective like the work-distribution energy this
    /// makes the per-move cost O(1) component evaluations instead of one per
    /// component.
    pub fn run_delta<S, O>(&self, space: &S, objective: &O) -> Outcome<S::Config>
    where
        S: SearchSpace,
        O: DeltaObjective<S::Config> + ?Sized,
    {
        self.run_delta_observed(space, objective, &NoopRecorder, "sa")
    }

    /// [`SimulatedAnnealing::run_delta`] with every iteration published to `recorder`
    /// under `scope` as a [`wd_obs::IterationEvent`] carrying exactly the values of
    /// the corresponding [`IterationRecord`].
    ///
    /// The recorder only observes — it is consulted *after* each trace record is
    /// produced and never touches the RNG stream — so the trajectory is bit-identical
    /// to the unobserved run for every recorder.  With the disabled
    /// [`NoopRecorder`] (which is what [`SimulatedAnnealing::run_delta`] passes), the
    /// per-iteration cost is one virtual `enabled()` call.
    pub fn run_delta_observed<S, O>(
        &self,
        space: &S,
        objective: &O,
        recorder: &dyn Recorder,
        scope: &str,
    ) -> Outcome<S::Config>
    where
        S: SearchSpace,
        O: DeltaObjective<S::Config> + ?Sized,
    {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut trace = OptimizationTrace::new();
        let mut evaluations = 0usize;

        let mut current = space.random(&mut rng);
        evaluations += 1;
        let (mut current_energy, mut current_state) = objective.evaluate_with_state(&current);
        let mut best = current.clone();
        let mut best_energy = current_energy;

        let mut temperature = self.initial_temperature;
        let mut iteration = 0usize;

        while temperature >= self.stop_temperature && iteration < self.max_iterations {
            let proposal = space.neighbor_move(&current, &mut rng);
            evaluations += 1;
            let (proposal_energy, proposal_state) =
                objective.evaluate_move(&current, &current_state, &proposal);

            let accepted = if proposal_energy < current_energy {
                true
            } else {
                // Metropolis criterion (Eq. 4): p = exp((E - E') / T)
                let p =
                    ((current_energy - proposal_energy) / temperature.max(f64::MIN_POSITIVE)).exp();
                rng.gen_bool(p.clamp(0.0, 1.0))
            };

            if accepted {
                current = proposal;
                current_energy = proposal_energy;
                current_state = proposal_state;
                if current_energy < best_energy {
                    best = current.clone();
                    best_energy = current_energy;
                }
            }

            let record = IterationRecord {
                iteration,
                proposed_energy: proposal_energy,
                current_energy,
                best_energy,
                temperature,
                accepted,
            };
            trace.push(record);
            if recorder.enabled() {
                recorder.iteration(scope, record.into());
            }

            temperature = self.schedule.next_temperature(temperature);
            iteration += 1;
        }

        Outcome {
            best_config: best,
            best_energy,
            evaluations,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::GridSpace;

    /// Rastrigin-like rugged objective on the grid with the global optimum at (37, 91).
    fn rugged(config: &(u32, u32)) -> f64 {
        let dx = config.0 as f64 - 37.0;
        let dy = config.1 as f64 - 91.0;
        dx * dx + dy * dy + 20.0 * ((dx * 0.7).sin().abs() + (dy * 0.9).sin().abs())
    }

    #[test]
    fn finds_a_near_optimal_solution_on_a_rugged_landscape() {
        let space = GridSpace {
            width: 128,
            height: 128,
        };
        let sa = SimulatedAnnealing::with_iteration_budget(4000, 500.0, 11);
        let outcome = sa.run(&space, &rugged);
        // global optimum value is 0; random configurations average in the thousands
        assert!(
            outcome.best_energy < 150.0,
            "SA should land near the optimum, got {}",
            outcome.best_energy
        );
        assert!(outcome.evaluations <= 4000 + 32);
        assert_eq!(outcome.trace.len() + 1, outcome.evaluations);
    }

    #[test]
    fn iteration_budget_is_respected() {
        let space = GridSpace {
            width: 64,
            height: 64,
        };
        for budget in [100usize, 500, 1000] {
            let sa = SimulatedAnnealing::with_iteration_budget(budget, 1000.0, 3);
            let outcome = sa.run(&space, &rugged);
            let got = outcome.trace.len();
            assert!(
                got.abs_diff(budget) <= budget / 50 + 2,
                "budget {budget} produced {got} iterations"
            );
        }
    }

    #[test]
    fn best_energy_series_is_non_increasing() {
        let space = GridSpace {
            width: 100,
            height: 100,
        };
        let sa = SimulatedAnnealing::with_iteration_budget(1500, 200.0, 5);
        let outcome = sa.run(&space, &rugged);
        let series = outcome.trace.best_energy_series();
        for pair in series.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-12);
        }
        assert_eq!(*series.last().unwrap(), outcome.best_energy);
    }

    #[test]
    fn same_seed_reproduces_same_run() {
        let space = GridSpace {
            width: 80,
            height: 80,
        };
        let sa = SimulatedAnnealing::with_iteration_budget(800, 300.0, 42);
        let a = sa.run(&space, &rugged);
        let b = sa.run(&space, &rugged);
        assert_eq!(a.best_config, b.best_config);
        assert_eq!(a.best_energy, b.best_energy);
        assert_eq!(a.trace.records().len(), b.trace.records().len());

        let c = SimulatedAnnealing::with_iteration_budget(800, 300.0, 43).run(&space, &rugged);
        assert!(
            c.trace.records() != a.trace.records(),
            "different seeds should differ"
        );
    }

    #[test]
    fn accepts_worse_solutions_at_high_temperature() {
        let space = GridSpace {
            width: 50,
            height: 50,
        };
        let sa = SimulatedAnnealing::with_iteration_budget(2000, 2000.0, 9);
        let outcome = sa.run(&space, &rugged);
        let records = outcome.trace.records();
        let first_quarter = &records[..records.len() / 4];
        let last_quarter = &records[3 * records.len() / 4..];
        let uphill_accepts = |rs: &[IterationRecord]| {
            rs.iter()
                .filter(|r| r.accepted && r.proposed_energy > r.best_energy)
                .count() as f64
                / rs.len() as f64
        };
        assert!(
            uphill_accepts(first_quarter) > uphill_accepts(last_quarter),
            "uphill moves should become rarer as the system cools"
        );
    }

    #[test]
    fn more_iterations_do_not_hurt_solution_quality_on_average() {
        let space = GridSpace {
            width: 256,
            height: 256,
        };
        let average_energy = |budget: usize| -> f64 {
            (0..8)
                .map(|seed| {
                    SimulatedAnnealing::with_iteration_budget(budget, 500.0, seed)
                        .run(&space, &rugged)
                        .best_energy
                })
                .sum::<f64>()
                / 8.0
        };
        let short = average_energy(150);
        let long = average_energy(3000);
        assert!(
            long <= short,
            "3000-iteration runs ({long}) should on average beat 150-iteration runs ({short})"
        );
    }
}
