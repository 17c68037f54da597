//! Incremental (delta) evaluation: the contract that lets local-search walks stop
//! re-scoring unchanged parts of a configuration.
//!
//! A neighbour move changes one or two parameters of a configuration; when the
//! objective is *separable* — the energy composes per-component contributions, like the
//! work-distribution energy `E = max(T_host, max_d T_d)` where each device's time
//! depends only on that device's own parameters — re-scoring the whole configuration
//! wastes all but one of its component evaluations.  [`DeltaObjective`] captures the
//! incremental alternative: a full evaluation returns an opaque per-configuration
//! [`DeltaObjective::State`] (e.g. the per-device times), and every subsequent
//! configuration is scored against an already-scored base by recomputing only the
//! components in which the two differ and re-composing the rest from the state.
//!
//! A move is just the new configuration: the objective diffs the base and the
//! proposal itself, so what a component is (for work distribution: the host or one
//! accelerator) stays private to the objective, and any scored configuration may
//! serve as the base.
//!
//! The drivers ([`crate::SimulatedAnnealing::run_delta`] and
//! [`crate::GeneticAlgorithm::run_delta`]) are built so
//! that a correct `DeltaObjective` produces **bit-identical trajectories** to the full
//! re-evaluation path (`run`): same RNG stream, same accepted moves, same energies.
//! `run` itself is implemented through [`FullDelta`], the adapter that turns any
//! [`Objective`] into a (trivially non-incremental) `DeltaObjective`, so there is one
//! loop per driver, not two.

use crate::objective::Objective;

/// An [`Objective`] that can re-score a configuration *incrementally* from the
/// evaluation state of another already-scored configuration (typically a neighbour).
///
/// # Contract
///
/// For every configuration `c`, `evaluate_with_state(c).0` must be **bit-identical**
/// to [`Objective::evaluate`]`(c)`; and for every `(base, state)` produced by either
/// method and every `config`, `evaluate_move(base, state, config)` must be
/// bit-identical to `evaluate_with_state(config)`.  The drivers rely on this to make
/// the incremental path invisible in the results (property-tested in the workspace).
pub trait DeltaObjective<C>: Objective<C> {
    /// Opaque per-configuration evaluation state (for a separable objective: the
    /// per-component contributions the energy composes).
    type State;

    /// Score `config` from scratch, producing the reusable state.
    fn evaluate_with_state(&self, config: &C) -> (f64, Self::State);

    /// Score `config` against the already-scored `base` (whose state is `state`):
    /// implementations recompute the components in which `config` differs from
    /// `base` and re-compose the rest from `state`.
    fn evaluate_move(&self, base: &C, state: &Self::State, config: &C) -> (f64, Self::State);

    /// Batched [`DeltaObjective::evaluate_with_state`]: score many configurations in
    /// one call.  Element `i` of the result must be bit-identical to
    /// `evaluate_with_state(&configs[i])` (which the default loop guarantees);
    /// overrides exist so adapters can route whole generations through
    /// [`Objective::evaluate_batch`] (batch dedup, platform parallelism).
    fn evaluate_with_state_batch(&self, configs: &[C]) -> Vec<(f64, Self::State)> {
        configs
            .iter()
            .map(|config| self.evaluate_with_state(config))
            .collect()
    }

    /// Batched [`DeltaObjective::evaluate_move`] over pending moves
    /// `(base, state, config)` — e.g. one generation of GA offspring, each
    /// scored against the evaluation state retained for its first parent.  Element
    /// `i` must be bit-identical to the scalar `evaluate_move` on `moves[i]` (the
    /// default loop guarantees it).
    fn evaluate_move_batch(&self, moves: &[(&C, &Self::State, &C)]) -> Vec<(f64, Self::State)> {
        moves
            .iter()
            .map(|(base, state, config)| self.evaluate_move(base, state, config))
            .collect()
    }
}

/// Adapter that turns any [`Objective`] into a [`DeltaObjective`] that performs a full
/// evaluation on every move (state `()`).
///
/// This is how the drivers' classic `run` entry points share one loop with
/// `run_delta`: `run(space, objective)` is `run_delta(space, &FullDelta::new(objective))`.
pub struct FullDelta<'a, O: ?Sized> {
    inner: &'a O,
}

impl<'a, O: ?Sized> FullDelta<'a, O> {
    /// Wrap an objective.
    pub fn new(inner: &'a O) -> Self {
        FullDelta { inner }
    }
}

impl<C, O> Objective<C> for FullDelta<'_, O>
where
    O: Objective<C> + ?Sized,
{
    fn evaluate(&self, config: &C) -> f64 {
        self.inner.evaluate(config)
    }

    fn evaluate_batch(&self, configs: &[C]) -> Vec<f64> {
        self.inner.evaluate_batch(configs)
    }
}

impl<C, O> DeltaObjective<C> for FullDelta<'_, O>
where
    C: Clone,
    O: Objective<C> + ?Sized,
{
    type State = ();

    fn evaluate_with_state(&self, config: &C) -> (f64, ()) {
        (self.inner.evaluate(config), ())
    }

    fn evaluate_move(&self, _base: &C, _state: &(), config: &C) -> (f64, ()) {
        (self.inner.evaluate(config), ())
    }

    fn evaluate_with_state_batch(&self, configs: &[C]) -> Vec<(f64, ())> {
        self.inner
            .evaluate_batch(configs)
            .into_iter()
            .map(|energy| (energy, ()))
            .collect()
    }

    fn evaluate_move_batch(&self, moves: &[(&C, &(), &C)]) -> Vec<(f64, ())> {
        let configs: Vec<C> = moves.iter().map(|&(_, _, config)| config.clone()).collect();
        self.inner
            .evaluate_batch(&configs)
            .into_iter()
            .map(|energy| (energy, ()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_delta_evaluation_matches_the_scalar_calls() {
        let inner = |x: &i64| (*x as f64) * 1.5;
        let delta = FullDelta::new(&inner);
        let scored = delta.evaluate_with_state_batch(&[1, 2, 3]);
        assert_eq!(
            scored.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![1.5, 3.0, 4.5]
        );
        let moves = vec![(&1i64, &(), &5i64), (&2i64, &(), &6i64)];
        let moved = delta.evaluate_move_batch(&moves);
        assert_eq!(
            moved.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![7.5, 9.0]
        );
    }

    #[test]
    fn full_delta_matches_the_inner_objective() {
        let inner = |x: &i64| (*x as f64) * 1.5;
        let delta = FullDelta::new(&inner);
        assert_eq!(Objective::evaluate(&delta, &4), 6.0);
        assert_eq!(delta.evaluate_batch(&[1, 2]), vec![1.5, 3.0]);
        let (energy, state) = delta.evaluate_with_state(&4);
        assert_eq!(energy, 6.0);
        let (moved, _) = delta.evaluate_move(&4, &state, &6);
        assert_eq!(moved, 9.0);
    }
}
