//! Performance evaluation of system configurations — implementations of the unified
//! [`wd_opt::Objective`] evaluation layer.
//!
//! An evaluator binds a platform (or trained models) to one workload and scores
//! [`SystemConfiguration`]s; the optimization energy is `max(T_host, T_device)` (the
//! paper's Eq. 2).  Two evaluators are provided, matching the paper's two evaluation
//! modes:
//!
//! * [`MeasurementEvaluator`] — "runs" the configuration on the simulated platform
//!   (stands in for executing the real application on the Emil machine);
//! * [`PredictionEvaluator`] — queries the trained host/device regression models, the
//!   fast evaluation mode that makes EML and SAML possible.
//!
//! Both implement [`Objective<SystemConfiguration>`] directly — one execution or one
//! model query per side and configuration — so any optimizer in [`wd_opt`]
//! (enumeration, simulated annealing, the genetic search) consumes them without
//! adapters, and both override [`Objective::evaluate_batch`]: measurement batches go
//! through the platform's parallel [`HeterogeneousPlatform::execute_many`], prediction
//! batches fan out over rayon workers.
//!
//! Both are also *separable*: the host's time and each accelerator's time depend only
//! on that side's own `(threads, affinity, share)`, for the simulator
//! ([`HeterogeneousPlatform::host_time`] / [`HeterogeneousPlatform::device_time`]) as
//! for the models.  Both therefore implement [`SideTimes`], and one tabulating
//! evaluator, [`LazyTabulatedEvaluator`], puts per-side time tables in front of
//! either: filled on first touch or in batches, composed by Eq. 2's max-fold, and
//! scanned by index over a whole grid.  EM and EML are the same scan
//! ([`LazyTabulatedEvaluator::scan`]) over measured and predicted tables; SAM's misses
//! (SAM memoises whole configurations behind a [`wd_opt::CachedObjective`]) are
//! measured-table probes; SAML/GAML walk prediction tables filled on first touch.
//! Every tabulated energy is bit-identical to its evaluator's direct path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use hetero_platform::{
    Affinity, ExecutionConfig, ExecutionRequest, HeterogeneousPlatform, Measurement, PlatformError,
    WorkloadProfile,
};
use rayon::prelude::*;
use wd_ml::Regressor;
use wd_opt::{
    better_indexed, CacheStats, DeltaObjective, EnumerationError, IndexedOutcome, Objective,
    OptimizationTrace, Outcome, SearchSpace, Touched,
};

use crate::config::{ConfigurationSpace, DeviceSetting, SystemConfiguration};
use crate::features::{device_features, host_features, share_bytes};

/// Per-configuration evaluation state of the delta-evaluable prediction evaluators:
/// the predicted host time plus one predicted time per accelerator — exactly what
/// [`PredictionEvaluator::evaluate_all_times`] returns, retained between neighbour
/// moves so untouched devices are never re-scored.
pub type PredictedTimes = (f64, Vec<f64>);

/// A `(threads, affinity, share permille)` triple: one side's knobs, and the key of
/// that side's time table.
pub type SideKey = (u32, Affinity, u32);

/// A separable source of per-side times: what a [`LazyTabulatedEvaluator`] tabulates.
///
/// Side 0 is the host and side `i + 1` accelerator `i`.  A side's time depends only
/// on the side and its [`SideKey`], never on the other sides, and is deterministic, so
/// a table can store exactly what the source returns and Eq. 2's max-fold over the
/// sides gives the source's energy for any configuration.
pub trait SideTimes: Sync {
    /// Number of accelerators the source can time.
    fn accelerators(&self) -> usize;

    /// Whether a configuration of `accelerators` accelerators can be scored at all;
    /// the tables score one that cannot `+∞`.
    fn scores(&self, accelerators: usize) -> bool;

    /// The time of `side` under `key`, or `None` for a side that receives no work: it
    /// reports 0 and costs nothing.  A side that cannot run reports `+∞`.
    fn side_time(&self, side: usize, key: SideKey) -> Option<f64>;

    /// [`SideTimes::side_time`] of every key, in order.  The default scores the keys
    /// on rayon workers.
    fn side_times(&self, side: usize, keys: &[SideKey]) -> Vec<Option<f64>> {
        keys.par_iter()
            .map(|&key| self.side_time(side, key))
            .collect()
    }
}

fn host_key(config: &SystemConfiguration) -> SideKey {
    (
        config.host_threads,
        config.host_affinity,
        config.host_permille(),
    )
}

fn device_key(device: DeviceSetting) -> SideKey {
    (device.threads, device.affinity, device.permille)
}

/// Re-score `config` against `base`'s retained per-device times: recompute the
/// components `touched` may cover (component 0 is the host, component `i + 1` is
/// accelerator `i`; [`Touched::Unknown`] falls back to diffing the two
/// configurations), copy every other component's time from `state`, and re-compose
/// the energy with the same max-fold, in the same order, as the full evaluation path
/// — so the result is bit-identical to evaluating `config` from scratch.
fn recompose_move(
    base: &SystemConfiguration,
    state: &PredictedTimes,
    config: &SystemConfiguration,
    touched: &Touched,
    host_time: impl FnOnce() -> f64,
    device_time: impl Fn(usize, DeviceSetting) -> f64,
) -> (f64, PredictedTimes) {
    // a state from a differently-shaped configuration cannot be reused
    let comparable = base.accelerator_count() == config.accelerator_count()
        && state.1.len() == config.accelerator_count();
    let host_changed = !comparable
        || (touched.may_touch(0)
            && (config.host_threads != base.host_threads
                || config.host_affinity != base.host_affinity
                || config.host_permille() != base.host_permille()));
    let host = if host_changed { host_time() } else { state.0 };
    let devices: Vec<f64> = config
        .devices()
        .iter()
        .enumerate()
        .map(|(index, &device)| {
            if comparable && !(touched.may_touch(index + 1) && device != base.devices()[index]) {
                state.1[index]
            } else {
                device_time(index, device)
            }
        })
        .collect();
    let device = devices.iter().copied().fold(0.0, f64::max);
    (host.max(device), (host, devices))
}

/// Evaluation by "measurement": one simulated execution per query, bound to one
/// workload.
///
/// The platform is separable, so [`MeasurementEvaluator::lazy_tabulated`] puts
/// *measured per-side tables* in front of it: each distinct `(threads, affinity,
/// share)` of the host or of an accelerator is simulated once
/// ([`HeterogeneousPlatform::host_time`] / [`HeterogeneousPlatform::device_time`]) and
/// every configuration is scored by table probes — bit-identical to this evaluator's
/// own [`Objective`] path, which stays one real [`HeterogeneousPlatform::execute`] per
/// configuration.  EM scans such tables and SAM's misses probe them.
#[derive(Debug, Clone)]
pub struct MeasurementEvaluator {
    platform: HeterogeneousPlatform,
    workload: WorkloadProfile,
}

impl MeasurementEvaluator {
    /// Evaluate `workload` on the given platform.
    pub fn new(platform: HeterogeneousPlatform, workload: WorkloadProfile) -> Self {
        MeasurementEvaluator { platform, workload }
    }

    /// The underlying platform.
    pub fn platform(&self) -> &HeterogeneousPlatform {
        &self.platform
    }

    /// The workload being evaluated.
    pub fn workload(&self) -> &WorkloadProfile {
        &self.workload
    }

    /// Rebind the evaluator to a different workload.
    pub fn with_workload(mut self, workload: WorkloadProfile) -> Self {
        self.workload = workload;
        self
    }

    fn request(config: &SystemConfiguration) -> ExecutionRequest {
        ExecutionRequest {
            partition: config.partition(),
            host: config.host_execution(),
            devices: config.device_executions(),
        }
    }

    /// The full simulated [`Measurement`] of running the workload under `config` —
    /// the exact execution behind [`MeasurementEvaluator::energy`], with the
    /// [`hetero_platform::ExecutionStats`] breakdown kept instead of discarded.
    ///
    /// # Errors
    ///
    /// The [`PlatformError`] of a configuration the platform cannot run.
    pub fn measure(&self, config: &SystemConfiguration) -> Result<Measurement, PlatformError> {
        self.platform.execute(
            &self.workload,
            &config.partition(),
            &config.host_execution(),
            &config.device_executions(),
        )
    }

    /// Measured `(T_host, T_device)` for running the workload under `config`.
    /// A device that receives no work reports 0.
    ///
    /// # Errors
    ///
    /// The [`PlatformError`] of a configuration the platform cannot run.
    pub fn evaluate_times(
        &self,
        config: &SystemConfiguration,
    ) -> Result<(f64, f64), PlatformError> {
        self.measure(config)
            .map(|measurement| (measurement.t_host, measurement.t_device))
    }

    /// The optimization energy `E = max(T_host, T_device)` (Eq. 2); `+∞` for a
    /// configuration the platform cannot run.
    pub fn energy(&self, config: &SystemConfiguration) -> f64 {
        self.evaluate_times(config)
            .map_or(f64::INFINITY, |(host, device)| host.max(device))
    }

    /// Measured per-side tables over this evaluator, empty and filled on first touch
    /// or by [`LazyTabulatedEvaluator::scan`]; see the type docs.  Every run that
    /// scores through one set of tables pays each side simulation once.
    pub fn lazy_tabulated(&self) -> LazyTabulatedEvaluator<'_, MeasurementEvaluator> {
        LazyTabulatedEvaluator::new(self)
    }

    /// Check that the platform can run every configuration of `space`: the space
    /// describes the platform's accelerator count, and every thread count and
    /// affinity of a side that some split gives work is valid for that side.
    ///
    /// # Errors
    ///
    /// The [`PlatformError`] [`MeasurementEvaluator::measure`] would report for the
    /// first offending side.
    pub fn check_space(&self, space: &ConfigurationSpace) -> Result<(), PlatformError> {
        if !self.scores(space.accelerator_count()) {
            return Err(PlatformError::InvalidPartition {
                reason: format!(
                    "the space describes {} accelerator(s) but the platform has {}",
                    space.accelerator_count(),
                    self.platform.accelerator_count()
                ),
            });
        }
        if self.workload.bytes == 0 {
            return Err(PlatformError::EmptyWorkload);
        }
        let loaded = |position: usize| space.splits().iter().any(|split| split[position] > 0);
        let configs = |threads: &[u32], affinities: &[Affinity]| {
            threads
                .iter()
                .flat_map(|&t| affinities.iter().map(move |&a| ExecutionConfig::new(t, a)))
                .collect::<Vec<_>>()
        };
        if loaded(0) {
            for cfg in configs(&space.host_threads, &space.host_affinities) {
                self.platform.validate_host(&cfg)?;
            }
        }
        for (index, axis) in space.device_axes.iter().enumerate() {
            if loaded(index + 1) {
                for cfg in configs(&axis.threads, &axis.affinities) {
                    self.platform.validate_accelerator(index, &cfg)?;
                }
            }
        }
        Ok(())
    }
}

impl SideTimes for MeasurementEvaluator {
    fn accelerators(&self) -> usize {
        self.platform.accelerator_count()
    }

    /// Exactly the platform's accelerator count, as [`HeterogeneousPlatform::execute`]
    /// requires.
    fn scores(&self, accelerators: usize) -> bool {
        accelerators == self.platform.accelerator_count()
    }

    /// One side simulation; a zero share is idle without one, a side that cannot run
    /// its share is `+∞`.
    fn side_time(&self, side: usize, (threads, affinity, permille): SideKey) -> Option<f64> {
        if permille == 0 {
            return None;
        }
        // the fraction exactly as `SystemConfiguration::partition` builds it
        let fraction = f64::from(permille) / 1000.0;
        let cfg = ExecutionConfig::new(threads, affinity);
        let time = match side {
            0 => self.platform.host_time(&self.workload, fraction, &cfg),
            _ => self
                .platform
                .device_time(side - 1, &self.workload, fraction, &cfg),
        };
        Some(time.unwrap_or(f64::INFINITY))
    }
}

/// Measured energies, one real execution per configuration.  A configuration the
/// platform cannot run — a side with work but an unsupported thread count or
/// affinity, or an accelerator count other than the platform's — scores `+∞`, so a
/// search never picks it; [`MeasurementEvaluator::measure`] reports why it cannot
/// run.
impl Objective<SystemConfiguration> for MeasurementEvaluator {
    fn evaluate(&self, config: &SystemConfiguration) -> f64 {
        self.energy(config)
    }

    /// Batched measurement: all configurations are executed in one
    /// [`HeterogeneousPlatform::execute_many`] pass (rayon-parallel, bit-identical to
    /// one-at-a-time execution).
    fn evaluate_batch(&self, configs: &[SystemConfiguration]) -> Vec<f64> {
        let requests: Vec<ExecutionRequest> = configs.iter().map(Self::request).collect();
        self.platform
            .execute_many(&self.workload, &requests)
            .into_iter()
            .map(|result| {
                result.map_or(f64::INFINITY, |measurement| {
                    measurement.t_host.max(measurement.t_device)
                })
            })
            .collect()
    }
}

/// Evaluation by machine-learning prediction: one model query per device (one trained
/// model *per accelerator*), bound to one workload.
pub struct PredictionEvaluator {
    host_model: Box<dyn Regressor + Send + Sync>,
    device_models: Vec<Box<dyn Regressor + Send + Sync>>,
    workload: WorkloadProfile,
    /// Fixed overhead added to the device prediction for the offload launch + transfer
    /// of the device share.  The paper's device-side training measurements include the
    /// offload cost, so after training this is zero; it is exposed for experimentation
    /// with models trained on compute-only data.
    device_fixed_overhead: f64,
}

impl PredictionEvaluator {
    /// Build an evaluator for `workload` from a trained host model and one trained
    /// model per accelerator (device order matches the platform's accelerator order).
    pub fn new(
        host_model: Box<dyn Regressor + Send + Sync>,
        device_models: Vec<Box<dyn Regressor + Send + Sync>>,
        workload: WorkloadProfile,
    ) -> Self {
        assert!(
            !device_models.is_empty(),
            "at least one device model is required"
        );
        PredictionEvaluator {
            host_model,
            device_models,
            workload,
            device_fixed_overhead: 0.0,
        }
    }

    /// Number of accelerators this evaluator has models for.
    pub fn device_model_count(&self) -> usize {
        self.device_models.len()
    }

    /// Add a fixed overhead to every device prediction.
    pub fn with_device_overhead(mut self, overhead: f64) -> Self {
        self.device_fixed_overhead = overhead.max(0.0);
        self
    }

    /// The workload being evaluated.
    pub fn workload(&self) -> &WorkloadProfile {
        &self.workload
    }

    /// Rebind the evaluator to a different workload (the models depend only on the
    /// platform, not on the particular workload).
    pub fn with_workload(mut self, workload: WorkloadProfile) -> Self {
        self.workload = workload;
        self
    }

    /// Predict the host time for a host share of `bytes` bytes.
    pub fn predict_host(
        &self,
        threads: u32,
        affinity: hetero_platform::Affinity,
        bytes: u64,
    ) -> f64 {
        self.host_model
            .predict_one(&host_features(threads, affinity, bytes))
            .max(0.0)
    }

    /// Predict the time of accelerator `device_index` for a share of `bytes` bytes.
    pub fn predict_device_on(
        &self,
        device_index: usize,
        threads: u32,
        affinity: hetero_platform::Affinity,
        bytes: u64,
    ) -> f64 {
        (self.device_models[device_index].predict_one(&device_features(threads, affinity, bytes))
            + self.device_fixed_overhead)
            .max(0.0)
    }

    /// Predict the time of the first accelerator for a device share of `bytes` bytes.
    pub fn predict_device(
        &self,
        threads: u32,
        affinity: hetero_platform::Affinity,
        bytes: u64,
    ) -> f64 {
        self.predict_device_on(0, threads, affinity, bytes)
    }

    fn assert_arity(&self, accelerators: usize) {
        assert!(
            accelerators <= self.device_models.len(),
            "configuration describes {accelerators} accelerators but only {} device models are trained",
            self.device_models.len()
        );
    }

    /// Predicted host time plus one predicted time per accelerator for running the
    /// workload under `config`.  A device that receives no work reports 0.
    pub fn evaluate_all_times(&self, config: &SystemConfiguration) -> (f64, Vec<f64>) {
        self.assert_arity(config.accelerator_count());
        let host = self.side_time(0, host_key(config)).unwrap_or(0.0);
        let devices = config
            .devices()
            .iter()
            .enumerate()
            .map(|(index, &device)| self.side_time(index + 1, device_key(device)).unwrap_or(0.0))
            .collect();
        (host, devices)
    }

    /// Predicted `(T_host, T_device)` for running the workload under `config`, where
    /// `T_device` is the time of the slowest accelerator (matching
    /// [`hetero_platform::Measurement::t_device`]).
    pub fn evaluate_times(&self, config: &SystemConfiguration) -> (f64, f64) {
        let (host, devices) = self.evaluate_all_times(config);
        (host, devices.into_iter().fold(0.0, f64::max))
    }

    /// The optimization energy `E = max(T_host, T_device)` (Eq. 2) under the models.
    pub fn energy(&self, config: &SystemConfiguration) -> f64 {
        let (host, device) = self.evaluate_times(config);
        host.max(device)
    }

    /// The factorized fast path for exhaustive searches over `space`: a
    /// [`LazyTabulatedPredictionEvaluator`] whose per-device time tables are prefilled
    /// with batched, rayon-parallel model queries, so enumerating `space` walks no
    /// model.
    pub fn tabulated(&self, space: &ConfigurationSpace) -> LazyTabulatedPredictionEvaluator<'_> {
        self.lazy_tabulated().prefill(space)
    }

    /// Build the factorized fast path for *local-search* walks: a
    /// [`LazyTabulatedPredictionEvaluator`] whose per-device time tables start empty
    /// and are filled on first touch, so a SAM/SAML walk pays one model query per
    /// *distinct* `(threads, affinity, share)` triple it ever visits instead of one
    /// per device per move.
    pub fn lazy_tabulated(&self) -> LazyTabulatedPredictionEvaluator<'_> {
        LazyTabulatedEvaluator::new(self)
    }
}

impl SideTimes for PredictionEvaluator {
    fn accelerators(&self) -> usize {
        self.device_models.len()
    }

    /// At most as many accelerators as there are device models (the direct path
    /// panics on more).
    fn scores(&self, accelerators: usize) -> bool {
        accelerators <= self.device_models.len()
    }

    /// One model query, exactly `predict_host` / `predict_device_on`; a share of zero
    /// bytes is idle without one.
    fn side_time(&self, side: usize, (threads, affinity, permille): SideKey) -> Option<f64> {
        let bytes = share_bytes(self.workload.bytes, permille);
        if bytes == 0 {
            None
        } else if side == 0 {
            Some(self.predict_host(threads, affinity, bytes))
        } else {
            Some(self.predict_device_on(side - 1, threads, affinity, bytes))
        }
    }

    /// Batched model queries: the keys with work are scored through rayon-parallel
    /// [`Regressor::predict_batch`] calls of `TABLE_BATCH` rows each.
    fn side_times(&self, side: usize, keys: &[SideKey]) -> Vec<Option<f64>> {
        let total_bytes = self.workload.bytes;
        let queried: Vec<(usize, SideKey)> = keys
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, (_, _, share))| share_bytes(total_bytes, share) != 0)
            .collect();
        let (model, featurize, overhead) = match side {
            0 => (
                &self.host_model,
                host_features as fn(_, _, _) -> Vec<f64>,
                None,
            ),
            _ => (
                &self.device_models[side - 1],
                device_features as fn(_, _, _) -> Vec<f64>,
                Some(self.device_fixed_overhead),
            ),
        };
        // exactly `predict_host` (clamp at zero) or `predict_device_on` (add the
        // offload overhead, clamp)
        let finish = |prediction: f64| match overhead {
            None => prediction.max(0.0),
            Some(overhead) => (prediction + overhead).max(0.0),
        };
        let predictions: Vec<Vec<f64>> = queried
            .chunks(TABLE_BATCH)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|chunk| {
                let mut width = 0;
                let mut matrix: Vec<f64> = Vec::new();
                for &(_, (t, a, share)) in chunk {
                    let row = featurize(t, a, share_bytes(total_bytes, share));
                    width = row.len();
                    matrix.extend(row);
                }
                model
                    .predict_batch(&matrix, width)
                    .into_iter()
                    .map(finish)
                    .collect()
            })
            .collect();
        let mut times = vec![None; keys.len()];
        for (&(position, _), time) in queried.iter().zip(predictions.into_iter().flatten()) {
            times[position] = Some(time);
        }
        times
    }
}

impl Objective<SystemConfiguration> for PredictionEvaluator {
    fn evaluate(&self, config: &SystemConfiguration) -> f64 {
        self.energy(config)
    }

    /// Batched prediction: the model queries fan out over rayon workers.
    fn evaluate_batch(&self, configs: &[SystemConfiguration]) -> Vec<f64> {
        configs
            .par_iter()
            .map(|config| self.energy(config))
            .collect()
    }
}

/// Direct-model incremental evaluation: a neighbour move that touched only one
/// device re-queries only that device's model — O(1) model walks per move instead of
/// N + 1 — and re-composes the energy from the retained [`PredictedTimes`],
/// bit-identically to [`PredictionEvaluator::energy`].
impl DeltaObjective<SystemConfiguration> for PredictionEvaluator {
    type State = PredictedTimes;

    fn evaluate_with_state(&self, config: &SystemConfiguration) -> (f64, PredictedTimes) {
        let (host, devices) = self.evaluate_all_times(config);
        let device = devices.iter().copied().fold(0.0, f64::max);
        (host.max(device), (host, devices))
    }

    fn evaluate_move(
        &self,
        base: &SystemConfiguration,
        state: &PredictedTimes,
        config: &SystemConfiguration,
        touched: &Touched,
    ) -> (f64, PredictedTimes) {
        self.assert_arity(config.accelerator_count());
        recompose_move(
            base,
            state,
            config,
            touched,
            || self.side_time(0, host_key(config)).unwrap_or(0.0),
            |index, device| self.side_time(index + 1, device_key(device)).unwrap_or(0.0),
        )
    }
}

/// One side's time table, keyed by that side's own [`SideKey`] axis.
type TimeTable = HashMap<SideKey, f64>;

/// Acquire a read guard on a time table, recovering from poisoning instead of
/// panicking: a worker that panicked while holding the guard leaves the table
/// consistent (every insert is a whole entry), so its data is still usable.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a write guard, recovering from poisoning (see [`read_lock`]).
fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Number of table entries scored per batched model call during a prefill.
const TABLE_BATCH: usize = 256;

/// The factorized fast path over a [`SideTimes`] source: per-side time tables of its
/// own, in front of a borrowed source.  Over the models
/// ([`LazyTabulatedPredictionEvaluator`]) it is behind every prediction-based method
/// (EML's scan, SAML/GAML walks, sharded EML campaigns); over a
/// [`MeasurementEvaluator`] ([`MeasurementEvaluator::lazy_tabulated`]) it holds the
/// measured tables EM scans and SAM's misses probe.
///
/// The energy `E = max(T_host, max_d T_d)` is *separable*: each side's time depends
/// only on that side's own `(threads, affinity, share)` triple, never on the other
/// sides.  The evaluator keeps one table per side over those triples, so any
/// configuration is scored by a handful of table probes and a max-fold, and each
/// distinct triple is computed once — one boosted-tree walk for the models, one side
/// simulation for the platform.
///
/// The tables fill two ways, into the same entries:
///
/// * **on first touch** — every probe of a missing entry queries the source, so a
///   SAML/GAML walk, which revisits the same few dozen axis values constantly, pays
///   for the distinct triples it visits, not for its length or the space's size;
/// * **in batches** — [`LazyTabulatedEvaluator::prefill`] and
///   [`LazyTabulatedEvaluator::scan`] fill every missing entry of a whole space
///   through [`SideTimes::side_times`] (rayon-parallel
///   [`wd_ml::Regressor::predict_batch`] calls for the models): an N-way grid of
///   `|host axis| × Π_d |axis_d| × |splits|` configurations costs
///   `Σ_d |threads_d| × |affinities_d| × |shares_d|` queries.
///
/// Memoization is keyed by value, so the evaluator is total and every energy is
/// **bit-identical** to the source's direct path on every configuration: the tables
/// store exactly what the source returns (`predict_host` / `predict_device_on` for
/// the models, [`HeterogeneousPlatform::host_time`] /
/// [`HeterogeneousPlatform::device_time`] for the platform), idle sides short-circuit
/// to 0 without a query, and the max-composition replicates
/// [`PredictionEvaluator::energy`] and [`HeterogeneousPlatform::execute`] operation
/// for operation.  A configuration the source cannot score ([`SideTimes::scores`])
/// scores `+∞`.
///
/// The tables live behind [`RwLock`]s, so one evaluator can be shared across rayon
/// workers (e.g. the convergence study's parallel annealing repeats); under a race
/// two workers may redundantly query the source for the same fresh entry — the values
/// are identical, one wins the insert, and [`LazyTabulatedEvaluator::model_queries`]
/// counts both queries (it reports real cost, not distinct entries).
///
/// Implements [`DeltaObjective`], so the incremental drivers
/// ([`wd_opt::SimulatedAnnealing::run_delta`] and friends) re-probe only the devices
/// a neighbour move touched: an accepted move costs O(1) table probes and — once the
/// tables are warm — zero queries.
pub struct LazyTabulatedEvaluator<'a, S> {
    inner: &'a S,
    /// One table per side: the host, then each accelerator.
    sides: Vec<RwLock<TimeTable>>,
    probes: AtomicUsize,
    queries: AtomicUsize,
}

/// The tabulating evaluator over the trained models: the prediction methods' fast
/// path.
pub type LazyTabulatedPredictionEvaluator<'a> = LazyTabulatedEvaluator<'a, PredictionEvaluator>;

impl<'a, S: SideTimes> LazyTabulatedEvaluator<'a, S> {
    /// Wrap `inner` with empty tables (one per side it can time).
    pub fn new(inner: &'a S) -> Self {
        LazyTabulatedEvaluator {
            inner,
            sides: (0..=inner.accelerators())
                .map(|_| RwLock::new(TimeTable::new()))
                .collect(),
            probes: AtomicUsize::new(0),
            queries: AtomicUsize::new(0),
        }
    }

    /// Fill every entry of `space`'s axes the tables do not hold yet, in batches (see
    /// the type docs), and return the evaluator.  Enumerating `space` afterwards
    /// queries nothing.  A space `inner` cannot score fills nothing.
    pub fn prefill(self, space: &ConfigurationSpace) -> Self {
        self.fill(space);
        self
    }

    /// The wrapped source.
    pub fn inner(&self) -> &'a S {
        self.inner
    }

    /// Total number of per-device table probes served so far (every energy evaluation
    /// performs one probe for the host plus one per accelerator; a delta re-evaluation
    /// probes only the touched components).  Batched fills and
    /// [`LazyTabulatedEvaluator::scan`] probe nothing.
    pub fn probes(&self) -> usize {
        self.probes.load(Ordering::Relaxed)
    }

    /// Number of source queries — boosted-tree model walks, or side simulations over
    /// a [`MeasurementEvaluator`] — performed so far, by probes and batched fills
    /// alike: the *entire* query cost of the evaluator, bounded by the number of
    /// distinct `(threads, affinity, share)` triples with work filled (plus any racing
    /// duplicate fills under concurrent use).
    pub fn model_queries(&self) -> usize {
        self.queries.load(Ordering::Relaxed)
    }

    /// Table entries memoized so far per side: the host first, then each
    /// accelerator.  Idle entries (zero shares) count, though they cost no query.
    pub fn table_lens(&self) -> Vec<usize> {
        self.sides
            .iter()
            .map(|table| read_lock(table).len())
            .collect()
    }

    /// Total number of table entries memoized so far across the host and all devices.
    pub fn table_len(&self) -> usize {
        self.table_lens().into_iter().sum()
    }

    /// Hit/miss counters at the *per-device probe* granularity: `misses` is the number
    /// of source queries performed (the real evaluation cost), `hits` every probe
    /// answered without one (warm table entries and zero-share short-circuits).
    pub fn stats(&self) -> CacheStats {
        let misses = self.model_queries();
        CacheStats {
            hits: self.probes().saturating_sub(misses),
            misses,
        }
    }

    /// Publish the table counters to `recorder` as `{scope}.lazy.*`: probes served,
    /// boosted-tree model walks, and entries memoized.  Called post-hoc (counters are
    /// read once at the end of a run, never on the evaluation path), so observed runs
    /// stay bit-identical.
    pub fn publish_stats(&self, recorder: &dyn wd_obs::Recorder, scope: &str) {
        if !recorder.enabled() {
            return;
        }
        recorder.counter(&format!("{scope}.lazy.probes"), self.probes() as u64);
        recorder.counter(
            &format!("{scope}.lazy.model_walks"),
            self.model_queries() as u64,
        );
        recorder.counter(
            &format!("{scope}.lazy.table_entries"),
            self.table_len() as u64,
        );
    }

    /// Probe one side's table, querying the source on first touch.
    fn probe(&self, side: usize, key: SideKey) -> f64 {
        self.probes.fetch_add(1, Ordering::Relaxed);
        if let Some(&time) = read_lock(&self.sides[side]).get(&key) {
            return time;
        }
        let time = match self.inner.side_time(side, key) {
            Some(time) => {
                self.queries.fetch_add(1, Ordering::Relaxed);
                time
            }
            None => 0.0,
        };
        // a racing worker may have filled the entry while we computed; the values are
        // identical, so first insert wins
        write_lock(&self.sides[side]).entry(key).or_insert(time);
        time
    }

    /// The host time plus one time per accelerator, served from (and memoized into)
    /// the tables — bit-identical to [`PredictionEvaluator::evaluate_all_times`] over
    /// the models; every side `+∞` for a configuration the source cannot score.
    pub fn evaluate_all_times(&self, config: &SystemConfiguration) -> (f64, Vec<f64>) {
        if !self.inner.scores(config.accelerator_count()) {
            return (
                f64::INFINITY,
                vec![f64::INFINITY; config.accelerator_count()],
            );
        }
        let host = self.probe(0, host_key(config));
        let devices = config
            .devices()
            .iter()
            .enumerate()
            .map(|(index, &device)| self.probe(index + 1, device_key(device)))
            .collect();
        (host, devices)
    }

    /// The optimization energy `E = max(T_host, max_d T_d)` by memoized table probe +
    /// max-composition — the same fold, in the same order, as
    /// [`PredictionEvaluator::energy`] and [`HeterogeneousPlatform::execute`].
    pub fn energy(&self, config: &SystemConfiguration) -> f64 {
        if !self.inner.scores(config.accelerator_count()) {
            return f64::INFINITY;
        }
        let host = self.probe(0, host_key(config));
        let device = config
            .devices()
            .iter()
            .enumerate()
            .map(|(index, &device)| self.probe(index + 1, device_key(device)))
            .fold(0.0, f64::max);
        host.max(device)
    }

    /// Fill every entry of `space`'s axes the tables do not hold yet, one batched
    /// [`SideTimes::side_times`] call per side.
    fn fill(&self, space: &ConfigurationSpace) {
        if !self.inner.scores(space.accelerator_count()) {
            return;
        }
        // every (threads, affinity) of an axis against the distinct share values of
        // its simplex position (column 0 is the host)
        let keys = |threads: &[u32], affinities: &[Affinity], position: usize| {
            let mut shares: Vec<u32> = space.splits().iter().map(|split| split[position]).collect();
            shares.sort_unstable();
            shares.dedup();
            let mut keys = Vec::with_capacity(threads.len() * affinities.len() * shares.len());
            for &t in threads {
                for &a in affinities {
                    keys.extend(shares.iter().map(|&share| (t, a, share)));
                }
            }
            keys
        };
        self.fill_side(0, keys(&space.host_threads, &space.host_affinities, 0));
        for (index, axis) in space.device_axes.iter().enumerate() {
            self.fill_side(index + 1, keys(&axis.threads, &axis.affinities, index + 1));
        }
    }

    /// Fill the `keys` one side's table does not hold yet, computed outside the lock.
    fn fill_side(&self, side: usize, keys: Vec<SideKey>) {
        let missing: Vec<SideKey> = {
            let table = read_lock(&self.sides[side]);
            keys.into_iter()
                .filter(|key| !table.contains_key(key))
                .collect()
        };
        if missing.is_empty() {
            return;
        }
        let times = self.inner.side_times(side, &missing);
        self.queries
            .fetch_add(times.iter().flatten().count(), Ordering::Relaxed);
        // a racing worker may have filled an entry meanwhile; first insert wins
        let mut table = write_lock(&self.sides[side]);
        table.reserve(missing.len());
        for (key, time) in missing.into_iter().zip(times) {
            table.entry(key).or_insert(time.unwrap_or(0.0));
        }
    }

    /// Exhaustive search over `grid`, by index — EML's path over the models and EM's
    /// over measured tables in [`crate::MethodRunner`].
    ///
    /// First fills the grid's missing table entries in batches, as
    /// [`LazyTabulatedEvaluator::prefill`] does.  Then the grid is visited in
    /// [`SearchSpace::config_at`] order — host threads, host affinity, then each
    /// device's threads and affinity, the split fastest — without building a
    /// configuration per point: under one read guard per table, one row of times over
    /// the splits is read per `(threads, affinity)` of every axis, the device rows are
    /// max-folded per device combination, and each point is the host row against one
    /// fold.  The composition is [`LazyTabulatedEvaluator::energy`]'s, operation for
    /// operation, and the reduction is [`better_indexed`], so the outcome (index,
    /// configuration, energy bits, evaluation count) equals
    /// [`wd_opt::ParallelEnumeration::run_indexed`] over this evaluator or over the
    /// direct source.  Only the winner is built, through `config_at`.  The scan counts
    /// no probes; its query cost is the fill's, in `model_queries`.  Over a grid the
    /// source cannot score, every point is `+∞` and the first one wins.
    ///
    /// # Errors
    ///
    /// [`EnumerationError::Empty`] for a grid without configurations, and
    /// [`EnumerationError::MissingConfig`] if the grid cannot build its winner.
    pub fn scan(
        &self,
        grid: &ConfigurationSpace,
    ) -> Result<IndexedOutcome<SystemConfiguration>, EnumerationError> {
        if !self.inner.scores(grid.accelerator_count()) {
            let evaluations = grid.space_len().unwrap_or(0);
            if evaluations == 0 {
                return Err(EnumerationError::Empty);
            }
            return indexed_outcome(grid, (0, f64::INFINITY), evaluations);
        }
        self.fill(grid);
        // the device max-fold of every device combination, last device fastest
        let mut folds: Vec<Vec<f64>> = vec![vec![0.0; grid.splits().len()]];
        for (index, axis) in grid.device_axes.iter().enumerate() {
            let table = read_lock(&self.sides[index + 1]);
            let rows = axis_rows(
                grid.splits(),
                &axis.threads,
                &axis.affinities,
                index + 1,
                |t, a, share| table[&(t, a, share)],
            );
            drop(table);
            folds = folds
                .iter()
                .flat_map(|fold| {
                    rows.iter()
                        .map(move |row| fold.iter().zip(row).map(|(&f, &t)| f.max(t)).collect())
                })
                .collect();
        }
        let table = read_lock(&self.sides[0]);
        let hosts = axis_rows(
            grid.splits(),
            &grid.host_threads,
            &grid.host_affinities,
            0,
            |t, a, share| table[&(t, a, share)],
        );
        drop(table);

        let best = hosts
            .iter()
            .flat_map(|host| {
                folds
                    .iter()
                    .flat_map(move |fold| host.iter().zip(fold).map(|(&h, &d)| h.max(d)))
            })
            .enumerate()
            .reduce(better_indexed)
            .ok_or(EnumerationError::Empty)?;
        indexed_outcome(grid, best, hosts.len() * folds.len() * grid.splits().len())
    }
}

/// The outcome of a scan whose best is `best`, building only the winner.
fn indexed_outcome(
    grid: &ConfigurationSpace,
    best: (usize, f64),
    evaluations: usize,
) -> Result<IndexedOutcome<SystemConfiguration>, EnumerationError> {
    let best_config = grid
        .config_at(best.0)
        .ok_or(EnumerationError::MissingConfig { index: best.0 })?;
    Ok(IndexedOutcome {
        best_index: best.0,
        outcome: Outcome {
            best_config,
            best_energy: best.1,
            evaluations,
            trace: OptimizationTrace::new(),
        },
    })
}

/// One row of times over `splits` (at simplex `position`) per `(threads, affinity)`
/// of an axis, threads outer — the digit order of `config_at`.
fn axis_rows(
    splits: &[Vec<u32>],
    threads: &[u32],
    affinities: &[Affinity],
    position: usize,
    time: impl Fn(u32, Affinity, u32) -> f64,
) -> Vec<Vec<f64>> {
    threads
        .iter()
        .flat_map(|&t| affinities.iter().map(move |&a| (t, a)))
        .map(|(t, a)| {
            splits
                .iter()
                .map(|split| time(t, a, split[position]))
                .collect()
        })
        .collect()
}

impl<S: SideTimes> Objective<SystemConfiguration> for LazyTabulatedEvaluator<'_, S> {
    fn evaluate(&self, config: &SystemConfiguration) -> f64 {
        self.energy(config)
    }
}

/// Incremental evaluation over the memoized tables: an accepted move re-probes only
/// the touched components, so long walks cost O(1) probes per move and amortized
/// zero queries.
impl<S: SideTimes> DeltaObjective<SystemConfiguration> for LazyTabulatedEvaluator<'_, S> {
    type State = PredictedTimes;

    fn evaluate_with_state(&self, config: &SystemConfiguration) -> (f64, PredictedTimes) {
        let (host, devices) = self.evaluate_all_times(config);
        let device = devices.iter().copied().fold(0.0, f64::max);
        (host.max(device), (host, devices))
    }

    fn evaluate_move(
        &self,
        base: &SystemConfiguration,
        state: &PredictedTimes,
        config: &SystemConfiguration,
        touched: &Touched,
    ) -> (f64, PredictedTimes) {
        if !self.inner.scores(config.accelerator_count()) {
            return self.evaluate_with_state(config);
        }
        recompose_move(
            base,
            state,
            config,
            touched,
            || self.probe(0, host_key(config)),
            |index, device| self.probe(index + 1, device_key(device)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_analysis::Genome;
    use hetero_platform::Affinity;

    fn human() -> WorkloadProfile {
        Genome::Human.workload()
    }

    fn evaluator() -> MeasurementEvaluator {
        MeasurementEvaluator::new(HeterogeneousPlatform::emil().without_noise(), human())
    }

    #[test]
    fn energy_is_the_maximum_of_both_times() {
        let evaluator = evaluator();
        let cfg = SystemConfiguration::with_host_percent(
            48,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            60,
        );
        let (host, device) = evaluator.evaluate_times(&cfg).unwrap();
        assert!(host > 0.0 && device > 0.0);
        assert_eq!(evaluator.energy(&cfg), host.max(device));
    }

    #[test]
    fn host_only_and_device_only_have_one_sided_times() {
        let evaluator = evaluator();
        let host_only = SystemConfiguration::host_only_baseline();
        let (host, device) = evaluator.evaluate_times(&host_only).unwrap();
        assert!(host > 0.0);
        assert_eq!(device, 0.0);

        let device_only = SystemConfiguration::device_only_baseline();
        let (host, device) = evaluator.evaluate_times(&device_only).unwrap();
        assert_eq!(host, 0.0);
        assert!(device > 0.0);
    }

    #[test]
    fn measurement_energy_prefers_balanced_splits_for_large_inputs() {
        let evaluator = evaluator();
        let all_host = evaluator.energy(&SystemConfiguration::host_only_baseline());
        let all_device = evaluator.energy(&SystemConfiguration::device_only_baseline());
        let split = evaluator.energy(&SystemConfiguration::with_host_percent(
            48,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            65,
        ));
        assert!(split < all_host);
        assert!(split < all_device);
    }

    #[test]
    fn measurement_batches_match_single_evaluations() {
        let evaluator = evaluator();
        let configs: Vec<SystemConfiguration> = (0..=10u32)
            .map(|p| {
                SystemConfiguration::with_host_percent(
                    48,
                    Affinity::Scatter,
                    240,
                    Affinity::Balanced,
                    p * 10,
                )
            })
            .collect();
        let batched = evaluator.evaluate_batch(&configs);
        for (config, energy) in configs.iter().zip(batched) {
            assert_eq!(energy, evaluator.evaluate(config), "config {config}");
        }
    }

    #[test]
    fn prediction_evaluator_uses_the_models() {
        // dummy models: host predicts 2 s/GB of its share, device predicts 1 s/GB + 0.3 s
        struct PerGb(f64);
        impl Regressor for PerGb {
            fn fit(&mut self, _data: &wd_ml::Dataset) -> Result<(), wd_ml::MlError> {
                Ok(())
            }
            fn predict_one(&self, features: &[f64]) -> f64 {
                self.0 * features[4]
            }
            fn is_fitted(&self) -> bool {
                true
            }
            fn name(&self) -> &'static str {
                "per-gb"
            }
        }
        let workload = WorkloadProfile::dna_scan("x", 1_000_000_000);
        let evaluator =
            PredictionEvaluator::new(Box::new(PerGb(2.0)), vec![Box::new(PerGb(1.0))], workload)
                .with_device_overhead(0.3);
        let cfg = SystemConfiguration::with_host_percent(
            48,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            50,
        );
        let (host, device) = evaluator.evaluate_times(&cfg);
        assert!((host - 1.0).abs() < 1e-9, "host {host}");
        assert!((device - 0.8).abs() < 1e-9, "device {device}");
        assert!((evaluator.energy(&cfg) - 1.0).abs() < 1e-9);

        // zero shares produce zero predictions
        let host_only = SystemConfiguration::with_host_percent(
            48,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            100,
        );
        let (_, device) = evaluator.evaluate_times(&host_only);
        assert_eq!(device, 0.0);

        // batch evaluation matches single evaluation
        let configs = vec![cfg, host_only];
        assert_eq!(
            evaluator.evaluate_batch(&configs),
            configs
                .iter()
                .map(|c| evaluator.evaluate(c))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn tabulated_evaluator_is_bit_identical_and_factorizes_the_queries() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use wd_opt::SearchSpace as _;

        // a deterministic nonlinear dummy model that counts its invocations
        struct Wavy(&'static AtomicUsize);
        impl Regressor for Wavy {
            fn fit(&mut self, _data: &wd_ml::Dataset) -> Result<(), wd_ml::MlError> {
                Ok(())
            }
            fn predict_one(&self, features: &[f64]) -> f64 {
                self.0.fetch_add(1, Ordering::Relaxed);
                (features[0] * 0.37).sin().abs() + features[4] * (1.0 + features[1] * 0.25)
            }
            fn is_fitted(&self) -> bool {
                true
            }
            fn name(&self) -> &'static str {
                "wavy"
            }
        }
        static HOST_CALLS: AtomicUsize = AtomicUsize::new(0);
        static DEVICE_CALLS: AtomicUsize = AtomicUsize::new(0);

        let space = crate::config::ConfigurationSpace::tiny();
        let workload = WorkloadProfile::dna_scan("x", 3_000_000_000);
        let evaluator = PredictionEvaluator::new(
            Box::new(Wavy(&HOST_CALLS)),
            vec![Box::new(Wavy(&DEVICE_CALLS))],
            workload,
        )
        .with_device_overhead(0.125);

        let configs = space.enumerate().unwrap();
        let direct: Vec<f64> = configs.iter().map(|c| evaluator.energy(c)).collect();
        let direct_queries =
            HOST_CALLS.load(Ordering::Relaxed) + DEVICE_CALLS.load(Ordering::Relaxed);

        HOST_CALLS.store(0, Ordering::Relaxed);
        DEVICE_CALLS.store(0, Ordering::Relaxed);
        let tabulated = evaluator.tabulated(&space);
        let table_queries =
            HOST_CALLS.load(Ordering::Relaxed) + DEVICE_CALLS.load(Ordering::Relaxed);
        assert_eq!(tabulated.model_queries(), table_queries);
        // the factorization collapses |grid| × 2 queries to Σ axis sizes
        assert!(
            table_queries * 5 <= direct_queries,
            "tabulation used {table_queries} queries, direct used {direct_queries}"
        );

        for (config, &reference) in configs.iter().zip(&direct) {
            assert_eq!(
                tabulated.energy(config).to_bits(),
                reference.to_bits(),
                "config {config}"
            );
        }
        // scoring the whole grid consumed zero additional model queries
        assert_eq!(
            HOST_CALLS.load(Ordering::Relaxed) + DEVICE_CALLS.load(Ordering::Relaxed),
            table_queries
        );
        assert_eq!(tabulated.model_queries(), table_queries);

        // a configuration outside the space fills its own entries, identically
        let outside =
            SystemConfiguration::with_host_percent(48, Affinity::None, 240, Affinity::Balanced, 55);
        assert_eq!(
            tabulated.energy(&outside).to_bits(),
            evaluator.energy(&outside).to_bits()
        );
        assert!(tabulated.model_queries() > table_queries);

        // the batched path matches too
        let batched = tabulated.evaluate_batch(&configs);
        assert_eq!(batched.len(), direct.len());
        for (a, b) in batched.iter().zip(&direct) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// A deterministic nonlinear dummy model counting invocations (shared by the lazy
    /// tests below).
    struct CountingWavy(&'static AtomicUsize);
    impl Regressor for CountingWavy {
        fn fit(&mut self, _data: &wd_ml::Dataset) -> Result<(), wd_ml::MlError> {
            Ok(())
        }
        fn predict_one(&self, features: &[f64]) -> f64 {
            self.0.fetch_add(1, Ordering::Relaxed);
            (features[0] * 0.29).sin().abs() * 0.75 + features[4] * (1.0 + features[1] * 0.125)
        }
        fn is_fitted(&self) -> bool {
            true
        }
        fn name(&self) -> &'static str {
            "counting-wavy"
        }
    }

    fn counting_wavy_evaluator(
        host_calls: &'static AtomicUsize,
        device_calls: &'static AtomicUsize,
    ) -> PredictionEvaluator {
        PredictionEvaluator::new(
            Box::new(CountingWavy(host_calls)),
            vec![Box::new(CountingWavy(device_calls))],
            WorkloadProfile::dna_scan("x", 2_500_000_000),
        )
        .with_device_overhead(0.0625)
    }

    #[test]
    fn lazy_tabulation_is_bit_identical_and_memoizes_model_queries() {
        use wd_opt::SearchSpace as _;
        static HOST_CALLS: AtomicUsize = AtomicUsize::new(0);
        static DEVICE_CALLS: AtomicUsize = AtomicUsize::new(0);

        let space = crate::config::ConfigurationSpace::tiny();
        let evaluator = counting_wavy_evaluator(&HOST_CALLS, &DEVICE_CALLS);
        let configs = space.enumerate().unwrap();
        let direct: Vec<f64> = configs.iter().map(|c| evaluator.energy(c)).collect();
        let direct_queries =
            HOST_CALLS.load(Ordering::Relaxed) + DEVICE_CALLS.load(Ordering::Relaxed);

        HOST_CALLS.store(0, Ordering::Relaxed);
        DEVICE_CALLS.store(0, Ordering::Relaxed);
        let lazy = evaluator.lazy_tabulated();
        assert_eq!(lazy.table_len(), 0, "lazy tables start empty");

        // first pass fills the tables, bit-identically to the direct path
        for (config, &reference) in configs.iter().zip(&direct) {
            assert_eq!(lazy.energy(config).to_bits(), reference.to_bits());
        }
        let fill_queries =
            HOST_CALLS.load(Ordering::Relaxed) + DEVICE_CALLS.load(Ordering::Relaxed);
        assert_eq!(lazy.model_queries(), fill_queries);
        // the factorization collapses |grid| × 2 queries to the distinct axis triples
        assert!(
            fill_queries * 5 <= direct_queries,
            "lazy filled {fill_queries} entries, direct used {direct_queries} queries"
        );

        // second pass is answered entirely from the tables
        for (config, &reference) in configs.iter().zip(&direct) {
            assert_eq!(lazy.energy(config).to_bits(), reference.to_bits());
        }
        assert_eq!(
            HOST_CALLS.load(Ordering::Relaxed) + DEVICE_CALLS.load(Ordering::Relaxed),
            fill_queries,
            "a warm table must not walk the models again"
        );

        // probe-level stats: every evaluation probes host + 1 device
        assert_eq!(lazy.probes(), configs.len() * 4);
        assert_eq!(lazy.stats().misses, fill_queries);
        assert_eq!(lazy.stats().hits, lazy.probes() - fill_queries);

        // a configuration outside the tiny space is memoized by value, identically
        let outside =
            SystemConfiguration::with_host_percent(48, Affinity::None, 240, Affinity::Balanced, 55);
        assert_eq!(
            lazy.energy(&outside).to_bits(),
            evaluator.energy(&outside).to_bits()
        );
    }

    #[test]
    fn delta_moves_recompute_only_touched_devices() {
        use wd_opt::Touched;
        static HOST_CALLS: AtomicUsize = AtomicUsize::new(0);
        static DEVICE_CALLS: AtomicUsize = AtomicUsize::new(0);
        let evaluator = counting_wavy_evaluator(&HOST_CALLS, &DEVICE_CALLS);

        let base = SystemConfiguration::with_host_percent(
            24,
            Affinity::Scatter,
            120,
            Affinity::Balanced,
            60,
        );
        let device_move = SystemConfiguration::with_host_percent(
            24,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            60,
        );
        let host_move = SystemConfiguration::with_host_percent(
            48,
            Affinity::Scatter,
            240,
            Affinity::Balanced,
            60,
        );
        // reference energies first, so the counters below see only the delta path
        let expected_base = evaluator.energy(&base);
        let expected_device_move = evaluator.energy(&device_move);
        let expected_host_move = evaluator.energy(&host_move);

        let (energy, state) = evaluator.evaluate_with_state(&base);
        assert_eq!(energy.to_bits(), expected_base.to_bits());

        // a device-only move re-queries only the device model...
        HOST_CALLS.store(0, Ordering::Relaxed);
        DEVICE_CALLS.store(0, Ordering::Relaxed);
        let (moved, moved_state) =
            evaluator.evaluate_move(&base, &state, &device_move, &Touched::Components(vec![1]));
        assert_eq!(HOST_CALLS.load(Ordering::Relaxed), 0);
        assert_eq!(DEVICE_CALLS.load(Ordering::Relaxed), 1);
        assert_eq!(moved.to_bits(), expected_device_move.to_bits());

        // ...and Unknown footprints diff the configurations, same result & cost
        let (diffed, _) = evaluator.evaluate_move(&base, &state, &device_move, &Touched::Unknown);
        assert_eq!(diffed.to_bits(), moved.to_bits());
        assert_eq!(HOST_CALLS.load(Ordering::Relaxed), 0);

        // chaining from the moved state works too (host-only move)
        DEVICE_CALLS.store(0, Ordering::Relaxed);
        let (chained, _) = evaluator.evaluate_move(
            &device_move,
            &moved_state,
            &host_move,
            &Touched::Components(vec![0]),
        );
        assert_eq!(DEVICE_CALLS.load(Ordering::Relaxed), 0);
        assert_eq!(chained.to_bits(), expected_host_move.to_bits());
    }

    #[test]
    fn crossover_footprints_rescore_children_from_the_first_parents_state() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use wd_opt::SearchSpace as _;

        static HOST_CALLS: AtomicUsize = AtomicUsize::new(0);
        static DEVICE_CALLS: AtomicUsize = AtomicUsize::new(0);
        let evaluator = counting_wavy_evaluator(&HOST_CALLS, &DEVICE_CALLS);
        let space = crate::config::ConfigurationSpace::paper();
        let mut rng = StdRng::seed_from_u64(0x6a11);

        // the GA's recombination contract: a child scored against its FIRST parent's
        // retained state via the crossover footprint must be bit-identical to scoring
        // it from scratch, for arbitrary parent pairs
        for _ in 0..120 {
            let parent_a = space.random(&mut rng);
            let parent_b = space.random(&mut rng);
            let (child, touched) = space.crossover_move(&parent_a, &parent_b, &mut rng);
            let (_, state) = evaluator.evaluate_with_state(&parent_a);
            let (expected, _) = evaluator.evaluate_with_state(&child);
            let (delta, delta_state) = evaluator.evaluate_move(&parent_a, &state, &child, &touched);
            assert_eq!(delta.to_bits(), expected.to_bits());
            // the re-scored state is itself reusable: a follow-up identity move
            // (empty footprint) reproduces the energy without any model walk
            HOST_CALLS.store(0, Ordering::Relaxed);
            DEVICE_CALLS.store(0, Ordering::Relaxed);
            let (again, _) = evaluator.evaluate_move(
                &child,
                &delta_state,
                &child,
                &wd_opt::Touched::Components(vec![]),
            );
            assert_eq!(again.to_bits(), expected.to_bits());
            assert_eq!(HOST_CALLS.load(Ordering::Relaxed), 0);
            assert_eq!(DEVICE_CALLS.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn prefilled_delta_matches_the_direct_delta() {
        use wd_opt::SearchSpace as _;
        use wd_opt::Touched;
        static HOST_CALLS: AtomicUsize = AtomicUsize::new(0);
        static DEVICE_CALLS: AtomicUsize = AtomicUsize::new(0);
        let evaluator = counting_wavy_evaluator(&HOST_CALLS, &DEVICE_CALLS);
        let space = crate::config::ConfigurationSpace::tiny();
        let tabulated = evaluator.tabulated(&space);
        let prefilled = tabulated.model_queries();

        let configs = space.enumerate().unwrap();
        let (_, mut state) = tabulated.evaluate_with_state(&configs[0]);
        let mut previous = configs[0].clone();
        for config in configs.iter().skip(1).take(40) {
            let (energy, next) =
                tabulated.evaluate_move(&previous, &state, config, &Touched::Unknown);
            assert_eq!(energy.to_bits(), evaluator.energy(config).to_bits());
            state = next;
            previous = config.clone();
        }
        assert_eq!(tabulated.model_queries(), prefilled);
    }

    #[test]
    fn evaluators_are_objectives() {
        let evaluator = evaluator();
        let cfg = SystemConfiguration::with_host_percent(
            24,
            Affinity::Scatter,
            120,
            Affinity::Balanced,
            70,
        );
        assert!((Objective::evaluate(&evaluator, &cfg) - evaluator.energy(&cfg)).abs() < 1e-12);

        // and therefore compose with the generic wrappers of the evaluation layer
        let cached = wd_opt::CachedObjective::new(&evaluator);
        assert_eq!(cached.evaluate(&cfg), cached.evaluate(&cfg));
        assert_eq!(cached.stats(), wd_opt::CacheStats { hits: 1, misses: 1 });
    }
}
