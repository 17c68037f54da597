//! A simple generational genetic algorithm (another Section III-A alternative).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wd_obs::{NoopRecorder, Recorder};

use crate::delta::{DeltaObjective, FullDelta, Touched};
use crate::objective::Objective;
use crate::outcome::Outcome;
use crate::space::SearchSpace;
use crate::trace::{IterationRecord, OptimizationTrace};

/// Hyper-parameters of the genetic algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneticParams {
    /// Number of individuals per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Tournament size used for parent selection.
    pub tournament: usize,
    /// Probability that a child is mutated (one neighbour move).
    pub mutation_rate: f64,
    /// Number of elite individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneticParams {
    fn default() -> Self {
        GeneticParams {
            population: 32,
            generations: 40,
            tournament: 3,
            mutation_rate: 0.35,
            elitism: 2,
            seed: 0x6e6e_6e6e,
        }
    }
}

/// Generational GA with tournament selection, uniform crossover (delegated to the
/// search space) and neighbour-move mutation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneticAlgorithm {
    /// Hyper-parameters.
    pub params: GeneticParams,
}

impl GeneticAlgorithm {
    /// Create a GA with the given parameters.
    pub fn new(params: GeneticParams) -> Self {
        GeneticAlgorithm { params }
    }

    /// A GA whose total evaluation budget is approximately `budget`.
    pub fn with_budget(budget: usize, seed: u64) -> Self {
        let population = 32usize;
        let generations = (budget / population).max(1);
        GeneticAlgorithm {
            params: GeneticParams {
                population,
                generations,
                seed,
                ..GeneticParams::default()
            },
        }
    }

    /// Run the GA, re-scoring every child from scratch.
    ///
    /// This is [`GeneticAlgorithm::run_delta`] behind the full-evaluation adapter
    /// ([`FullDelta`]), so the two entry points share one loop and — for a correct
    /// [`DeltaObjective`] — produce bit-identical trajectories.  Through the
    /// adapter, whole generations are scored via [`Objective::evaluate_batch`]
    /// (batch dedup and platform parallelism come for free).
    pub fn run<S, O>(&self, space: &S, objective: &O) -> Outcome<S::Config>
    where
        S: SearchSpace,
        O: Objective<S::Config> + ?Sized,
    {
        self.run_delta(space, &FullDelta::new(objective))
    }

    /// Run the GA with an incrementally evaluable objective.
    ///
    /// Each generation runs in two phases.  Phase one draws all offspring —
    /// tournament selection, [`SearchSpace::crossover_move`] recombination, and
    /// the optional [`SearchSpace::neighbor_move`] mutation, whose footprints
    /// merge via [`Touched::union`] — consuming exactly the RNG draws of the
    /// classic generate-and-score loop (scoring never consumed RNG).  Phase two
    /// scores the whole generation through
    /// [`DeltaObjective::evaluate_move_batch`]: every child is re-scored against
    /// the evaluation state retained for its **first** parent, so only the
    /// components inherited from the second parent (plus any mutated ones) are
    /// recomputed.
    pub fn run_delta<S, O>(&self, space: &S, objective: &O) -> Outcome<S::Config>
    where
        S: SearchSpace,
        O: DeltaObjective<S::Config> + ?Sized,
        O::State: Clone,
    {
        self.run_delta_observed(space, objective, &NoopRecorder, "genetic")
    }

    /// [`GeneticAlgorithm::run_delta`] with every generation published to `recorder`
    /// under `scope` (one [`wd_obs::IterationEvent`] per generation, carrying exactly
    /// the values of the corresponding [`IterationRecord`]).  The recorder only
    /// observes, so trajectories are bit-identical to the unobserved run.
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
        O::State: Clone,
    {
        let p = &self.params;
        let mut rng = StdRng::seed_from_u64(p.seed);
        let mut trace = OptimizationTrace::new();
        let mut evaluations = 0usize;

        let population_size = p.population.max(2);
        // draw the whole initial population before scoring it: sampling consumes
        // RNG, scoring does not, so the stream matches the classic
        // one-individual-at-a-time loop draw for draw
        let configs: Vec<S::Config> = (0..population_size)
            .map(|_| space.random(&mut rng))
            .collect();
        evaluations += configs.len();
        let scored = objective.evaluate_with_state_batch(&configs);
        let mut population: Vec<(S::Config, f64, O::State)> = configs
            .into_iter()
            .zip(scored)
            .map(|(config, (energy, state))| (config, energy, state))
            .collect();

        // the first strict `total_cmp` minimum, as `min_by` would pick it; the
        // population holds at least two scored individuals
        let mut best = (population[0].0.clone(), population[0].1);
        for (config, energy, _) in &population[1..] {
            if energy.total_cmp(&best.1).is_lt() {
                best = (config.clone(), *energy);
            }
        }

        for generation in 0..p.generations {
            // sort ascending by energy for elitism
            population.sort_by(|a, b| a.1.total_cmp(&b.1));
            let elite_count = p.elitism.min(population_size);

            // phase one: generate every child of this generation
            let offspring_count = population_size - elite_count;
            let mut children: Vec<(S::Config, usize, Touched)> =
                Vec::with_capacity(offspring_count);
            for _ in 0..offspring_count {
                let parent_a = tournament_index(&population, p.tournament, &mut rng);
                let parent_b = tournament_index(&population, p.tournament, &mut rng);
                let (mut child, mut touched) = space.crossover_move(
                    &population[parent_a].0,
                    &population[parent_b].0,
                    &mut rng,
                );
                if rng.gen_bool(p.mutation_rate.clamp(0.0, 1.0)) {
                    let (mutated, mutation_touched) = space.neighbor_move(&child, &mut rng);
                    child = mutated;
                    touched = touched.union(&mutation_touched);
                }
                children.push((child, parent_a, touched));
            }

            // phase two: score the generation in one batched delta call, each
            // child against its first parent's retained state
            evaluations += children.len();
            #[allow(clippy::type_complexity)] // the DeltaObjective::evaluate_move_batch tuple
            let moves: Vec<(&S::Config, &O::State, &S::Config, &Touched)> = children
                .iter()
                .map(|(child, parent_a, touched)| {
                    (
                        &population[*parent_a].0,
                        &population[*parent_a].2,
                        child,
                        touched,
                    )
                })
                .collect();
            let scored = objective.evaluate_move_batch(&moves);

            let mut next: Vec<(S::Config, f64, O::State)> =
                population.iter().take(elite_count).cloned().collect();
            for ((child, _, _), (energy, state)) in children.into_iter().zip(scored) {
                next.push((child, energy, state));
            }
            population = next;

            if let Some(generation_best) = population.iter().min_by(|a, b| a.1.total_cmp(&b.1)) {
                if generation_best.1 < best.1 {
                    best = (generation_best.0.clone(), generation_best.1);
                }
            }

            let record = IterationRecord {
                iteration: generation,
                proposed_energy: population
                    .iter()
                    .map(|(_, e, _)| *e)
                    .fold(f64::INFINITY, f64::min),
                current_energy: population.iter().map(|(_, e, _)| *e).sum::<f64>()
                    / population.len() as f64,
                best_energy: best.1,
                temperature: 0.0,
                accepted: true,
            };
            trace.push(record);
            if recorder.enabled() {
                recorder.iteration(scope, record.into());
            }
        }

        Outcome {
            best_config: best.0,
            best_energy: best.1,
            evaluations,
            trace,
        }
    }
}

fn tournament_index<C, S>(population: &[(C, f64, S)], size: usize, rng: &mut StdRng) -> usize {
    let mut best = rng.gen_range(0..population.len());
    for _ in 1..size.max(1) {
        let candidate = rng.gen_range(0..population.len());
        if population[candidate].1 < population[best].1 {
            best = candidate;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::GridSpace;

    fn rugged(config: &(u32, u32)) -> f64 {
        let dx = config.0 as f64 - 70.0;
        let dy = config.1 as f64 - 21.0;
        dx * dx + dy * dy + 10.0 * ((dx * 0.5).sin().abs() + (dy * 0.3).sin().abs())
    }

    #[test]
    fn improves_over_generations() {
        let space = GridSpace {
            width: 128,
            height: 128,
        };
        let outcome = GeneticAlgorithm::with_budget(2000, 5).run(&space, &rugged);
        assert!(outcome.best_energy < 300.0, "got {}", outcome.best_energy);
        let series = outcome.trace.best_energy_series();
        assert!(series.last().unwrap() <= series.first().unwrap());
    }

    #[test]
    fn evaluation_budget_is_approximately_respected() {
        let space = GridSpace {
            width: 64,
            height: 64,
        };
        let outcome = GeneticAlgorithm::with_budget(1000, 1).run(&space, &rugged);
        assert!(outcome.evaluations <= 1100, "got {}", outcome.evaluations);
        assert!(outcome.evaluations >= 500);
    }

    #[test]
    fn runs_are_reproducible() {
        let space = GridSpace {
            width: 64,
            height: 64,
        };
        let a = GeneticAlgorithm::with_budget(600, 9).run(&space, &rugged);
        let b = GeneticAlgorithm::with_budget(600, 9).run(&space, &rugged);
        assert_eq!(a.best_config, b.best_config);
        assert_eq!(a.best_energy, b.best_energy);
    }

    #[test]
    fn elitism_preserves_the_best_individual() {
        let space = GridSpace {
            width: 32,
            height: 32,
        };
        let ga = GeneticAlgorithm::new(GeneticParams {
            population: 10,
            generations: 30,
            elitism: 2,
            ..GeneticParams::default()
        });
        let outcome = ga.run(&space, &rugged);
        // best energy series must be non-increasing when elitism is enabled
        for pair in outcome.trace.best_energy_series().windows(2) {
            assert!(pair[1] <= pair[0] + 1e-12);
        }
    }
}
