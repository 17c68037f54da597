//! Incremental (delta) evaluation: the contract that lets local-search walks stop
//! re-scoring untouched parts of a configuration.
//!
//! A neighbour move changes one or two parameters of a configuration; when the
//! objective is *separable* — the energy composes per-component contributions, like the
//! work-distribution energy `E = max(T_host, max_d T_d)` where each device's time
//! depends only on that device's own parameters — re-scoring the whole configuration
//! wastes all but one of its component evaluations.  [`DeltaObjective`] captures the
//! incremental alternative: a full evaluation returns an opaque per-configuration
//! [`DeltaObjective::State`] (e.g. the per-device times), and every subsequent move is
//! scored by recomputing only the components the move *touched* and re-composing the
//! rest from the state.
//!
//! Which components a move touched is reported by
//! [`SearchSpace::neighbor_move`](crate::SearchSpace::neighbor_move) as a [`Touched`]
//! value.  The component indexing is a convention shared between the space and the
//! objective (for work distribution: component 0 is the host, component `i + 1` is
//! accelerator `i`); spaces that cannot describe their moves report
//! [`Touched::Unknown`], which delta objectives must treat as "anything may have
//! changed" (diff the configurations, or fall back to a full evaluation).
//!
//! The drivers ([`crate::SimulatedAnnealing::run_delta`] and
//! [`crate::GeneticAlgorithm::run_delta`]) are built so
//! that a correct `DeltaObjective` produces **bit-identical trajectories** to the full
//! re-evaluation path (`run`): same RNG stream, same accepted moves, same energies.
//! `run` itself is implemented through [`FullDelta`], the adapter that turns any
//! [`Objective`] into a (trivially non-incremental) `DeltaObjective`, so there is one
//! loop per driver, not two.

use crate::objective::Objective;

/// Which components of a configuration one neighbour move touched.
///
/// Component indices are a convention shared between the [`crate::SearchSpace`] that
/// produced the move and the [`DeltaObjective`] consuming it.  The set may
/// *over*-approximate (listing an unchanged component only costs a redundant
/// recomputation) but must never under-approximate: every component in which the two
/// configurations differ must be listed, or the recomposed energy is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Touched {
    /// The move's footprint is unknown; delta objectives must diff the configurations
    /// or fall back to a full evaluation.  This is what the default
    /// [`crate::SearchSpace::crossover_move`] reports.
    Unknown,
    /// The move touched exactly (or at most) the listed components.
    Components(Vec<usize>),
}

impl Touched {
    /// Whether `component` may have changed under this move description.
    pub fn may_touch(&self, component: usize) -> bool {
        match self {
            Touched::Unknown => true,
            Touched::Components(components) => components.contains(&component),
        }
    }

    /// The union of two move footprints — e.g. a crossover's two-parent merge
    /// footprint combined with a follow-up mutation's.  `Unknown` absorbs
    /// everything (the union may touch anything); component lists concatenate
    /// without duplicates.
    pub fn union(&self, other: &Touched) -> Touched {
        match (self, other) {
            (Touched::Unknown, _) | (_, Touched::Unknown) => Touched::Unknown,
            (Touched::Components(a), Touched::Components(b)) => {
                let mut components = a.clone();
                for &component in b {
                    if !components.contains(&component) {
                        components.push(component);
                    }
                }
                Touched::Components(components)
            }
        }
    }
}

/// An [`Objective`] that can re-score a configuration *incrementally* from the
/// evaluation state of a neighbouring configuration.
///
/// # Contract
///
/// For every configuration `c`, `evaluate_with_state(c).0` must be **bit-identical**
/// to [`Objective::evaluate`]`(c)`; and for every `(base, state)` produced by either
/// method and every `config` whose differences from `base` are covered by `touched`,
/// `evaluate_move(base, state, config, touched)` must be bit-identical to
/// `evaluate_with_state(config)`.  The drivers rely on this to make the incremental
/// path invisible in the results (property-tested in the workspace).
pub trait DeltaObjective<C>: Objective<C> {
    /// Opaque per-configuration evaluation state (for a separable objective: the
    /// per-component contributions the energy composes).
    type State;

    /// Score `config` from scratch, producing the reusable state.
    fn evaluate_with_state(&self, config: &C) -> (f64, Self::State);

    /// Score `config`, which differs from the already-scored `base` (whose state is
    /// `state`) only in the components covered by `touched`; implementations recompute
    /// those components and re-compose the rest from `state`.
    fn evaluate_move(
        &self,
        base: &C,
        state: &Self::State,
        config: &C,
        touched: &Touched,
    ) -> (f64, Self::State);

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
    /// `(base, state, config, touched)` — e.g. one generation of GA offspring, each
    /// scored against the evaluation state retained for its first parent.  Element
    /// `i` must be bit-identical to the scalar `evaluate_move` on `moves[i]` (the
    /// default loop guarantees it).
    #[allow(clippy::type_complexity)]
    fn evaluate_move_batch(
        &self,
        moves: &[(&C, &Self::State, &C, &Touched)],
    ) -> Vec<(f64, Self::State)> {
        moves
            .iter()
            .map(|(base, state, config, touched)| self.evaluate_move(base, state, config, touched))
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

    fn evaluate_move(&self, _base: &C, _state: &(), config: &C, _touched: &Touched) -> (f64, ()) {
        (self.inner.evaluate(config), ())
    }

    fn evaluate_with_state_batch(&self, configs: &[C]) -> Vec<(f64, ())> {
        self.inner
            .evaluate_batch(configs)
            .into_iter()
            .map(|energy| (energy, ()))
            .collect()
    }

    fn evaluate_move_batch(&self, moves: &[(&C, &(), &C, &Touched)]) -> Vec<(f64, ())> {
        let configs: Vec<C> = moves
            .iter()
            .map(|&(_, _, config, _)| config.clone())
            .collect();
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
    fn touched_membership() {
        assert!(Touched::Unknown.may_touch(0));
        assert!(Touched::Unknown.may_touch(17));
        let some = Touched::Components(vec![0, 2]);
        assert!(some.may_touch(0));
        assert!(!some.may_touch(1));
        assert!(some.may_touch(2));
        assert_eq!(Touched::Components(vec![]), Touched::Components(vec![]));
    }

    #[test]
    fn touched_union_merges_footprints() {
        let a = Touched::Components(vec![0, 2]);
        let b = Touched::Components(vec![2, 3]);
        assert_eq!(a.union(&b), Touched::Components(vec![0, 2, 3]));
        assert_eq!(a.union(&Touched::Unknown), Touched::Unknown);
        assert_eq!(Touched::Unknown.union(&b), Touched::Unknown);
        assert_eq!(
            Touched::Components(vec![]).union(&Touched::Components(vec![])),
            Touched::Components(vec![])
        );
    }

    #[test]
    fn batched_delta_evaluation_matches_the_scalar_calls() {
        let inner = |x: &i64| (*x as f64) * 1.5;
        let delta = FullDelta::new(&inner);
        let scored = delta.evaluate_with_state_batch(&[1, 2, 3]);
        assert_eq!(
            scored.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
            vec![1.5, 3.0, 4.5]
        );
        let touched = Touched::Components(vec![0]);
        let moves = vec![(&1i64, &(), &5i64, &touched), (&2i64, &(), &6i64, &touched)];
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
        let (moved, _) = delta.evaluate_move(&4, &state, &6, &Touched::Unknown);
        assert_eq!(moved, 9.0);
        // the touched description is irrelevant to the full-evaluation adapter
        let (moved, _) = delta.evaluate_move(&4, &state, &6, &Touched::Components(vec![0]));
        assert_eq!(moved, 9.0);
    }
}
