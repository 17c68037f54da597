//! Tracing from outside the program: a timing and counting `Regressor`
//! wrapper for the trained models, and a `Recorder` that timestamps the
//! `worker.*` lifecycle events of a `ProcCampaign`.  Nothing here changes what
//! the wrapped code computes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use wd_ml::{BoostedTreesRegressor, Dataset, MlError, Regressor};
use wd_obs::{FieldValue, Recorder};

/// Rows predicted and busy time spent predicting, summed over every model
/// sharing the probe (and over threads, for rayon-parallel table fills).
#[derive(Debug, Default)]
pub struct PredictProbe {
    rows: AtomicU64,
    nanos: AtomicU64,
}

impl PredictProbe {
    fn add(&self, rows: usize, elapsed: Duration) {
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    pub fn seconds(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// A trained model that reports every prediction to a [`PredictProbe`].
/// Both entry points delegate to the wrapped model, so predictions are
/// bit-identical to the unwrapped model's.
pub struct TimedRegressor {
    inner: BoostedTreesRegressor,
    probe: Arc<PredictProbe>,
}

impl TimedRegressor {
    pub fn boxed(
        inner: BoostedTreesRegressor,
        probe: &Arc<PredictProbe>,
    ) -> Box<dyn Regressor + Send + Sync> {
        Box::new(TimedRegressor {
            inner,
            probe: Arc::clone(probe),
        })
    }
}

impl Regressor for TimedRegressor {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        self.inner.fit(data)
    }

    fn predict_one(&self, features: &[f64]) -> f64 {
        let started = Instant::now();
        let prediction = self.inner.predict_one(features);
        self.probe.add(1, started.elapsed());
        prediction
    }

    fn is_fitted(&self) -> bool {
        self.inner.is_fitted()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict_batch(&self, rows: &[f64], width: usize) -> Vec<f64> {
        let started = Instant::now();
        let predictions = self.inner.predict_batch(rows, width);
        self.probe.add(predictions.len(), started.elapsed());
        predictions
    }
}

/// Measures each worker process from its `worker.spawned` event to its
/// `worker.exited` event (both published by the coordinator as it spawns and
/// reaps, so the resolution is the coordinator's poll interval).
#[derive(Debug, Default)]
pub struct WorkerClock {
    inner: Mutex<WorkerClockInner>,
}

#[derive(Debug, Default)]
struct WorkerClockInner {
    live: HashMap<(u64, u64), Instant>,
    seconds: f64,
}

impl WorkerClock {
    /// Total spawned-to-exited seconds over every reaped worker.
    pub fn seconds(&self) -> f64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).seconds
    }
}

fn field(fields: &[(&str, FieldValue)], name: &str) -> Option<u64> {
    fields.iter().find_map(|(key, value)| match value {
        FieldValue::U64(v) if *key == name => Some(*v),
        _ => None,
    })
}

impl Recorder for WorkerClock {
    fn event(&self, _scope: &str, kind: &str, fields: &[(&str, FieldValue)]) {
        let (Some(slot), Some(generation)) = (field(fields, "slot"), field(fields, "generation"))
        else {
            return;
        };
        let now = Instant::now();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match kind {
            "worker.spawned" => {
                inner.live.insert((slot, generation), now);
            }
            "worker.exited" => {
                if let Some(spawned) = inner.live.remove(&(slot, generation)) {
                    inner.seconds += (now - spawned).as_secs_f64();
                }
            }
            _ => {}
        }
    }
}
