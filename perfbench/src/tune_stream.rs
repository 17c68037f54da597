//! `tune-stream`: the path the tuner serves once the models are trained.  Set-up
//! trains the paper models; then one client sends a closed loop of tuning
//! requests through `MethodRunner::run`, each request waiting for the previous
//! one.  Every request is a DNA scan of a seeded size between 100 MB and
//! 3.5 GB, and the methods mix SAML@1000 : GAML@1000 : EML at 3 : 1 : 1.
//!
//! The traced variant serves the same requests through the same public pieces
//! `MethodRunner` composes (tabulated or lazily tabulated prediction, cached
//! enumeration or delta walks, the final re-measurement), with the models
//! wrapped in a timing `Regressor`, so a request's time splits into layers.

use std::sync::Arc;
use std::time::Instant;

use hetero_autotune::{
    ConfigurationSpace, MeasurementEvaluator, MethodKind, MethodRunner, PredictionEvaluator,
    SystemConfiguration, TrainedModels, TrainingCampaign,
};
use hetero_platform::{HeterogeneousPlatform, WorkloadProfile};
use wd_ml::BoostingParams;
use wd_opt::{
    CacheStats, CachedObjective, GeneticAlgorithm, Outcome, ParallelEnumeration, SimulatedAnnealing,
};

use crate::paper_study::{traced_training, TrainingLayers};
use crate::probe::{PredictProbe, TimedRegressor};
use crate::util::{hit_ratio, median, overhead_pct, peak_rss_mb, percentile, Report, SplitMix};

/// Requests served per run at least, whatever `--seconds` says.
const MIN_REQUESTS: usize = 1000;
/// Requests of a `--trace 1` run, each served once untraced and once traced.
const TRACED_REQUESTS: usize = 1000;
/// Annealing / genetic budget of every SAML and GAML request.
const BUDGET: usize = 1000;
const MIN_BYTES: u64 = 100_000_000;
const MAX_BYTES: u64 = 3_500_000_000;
const SETUP_REPEATS: usize = 5;
/// Every this many requests one is re-checked through the direct path.
const CHECK_EVERY: usize = 250;

#[derive(Debug)]
struct Request {
    method: MethodKind,
    bytes: u64,
    seed: u64,
}

impl Request {
    fn workload(&self) -> WorkloadProfile {
        WorkloadProfile::dna_scan("request", self.bytes)
    }

    /// The annealer `MethodRunner` builds for this request.
    fn annealer(&self) -> SimulatedAnnealing {
        SimulatedAnnealing::with_budget_and_range(BUDGET.max(8), 2.0, 0.02, self.budget_seed())
    }

    /// The genetic search `MethodRunner` builds for this request.
    fn genetic(&self) -> GeneticAlgorithm {
        GeneticAlgorithm::with_budget(BUDGET.max(8), self.budget_seed())
    }

    fn budget_seed(&self) -> u64 {
        self.seed ^ (BUDGET as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// The seeded request sequence: the same seed always yields the same requests.
struct RequestStream(SplitMix);

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let method = match self.0.below(5) {
            0..=2 => MethodKind::Saml,
            3 => MethodKind::Gaml,
            _ => MethodKind::Eml,
        };
        let bytes = MIN_BYTES + self.0.below(MAX_BYTES - MIN_BYTES + 1);
        Some(Request {
            method,
            bytes,
            seed: self.0.next_u64(),
        })
    }
}

fn requests(seed: u64) -> RequestStream {
    RequestStream(SplitMix::new(seed ^ 0x7475_6e65_2d73_7472))
}

/// The part of a served request the checks compare.
#[derive(Debug, PartialEq)]
struct Served {
    best_config: SystemConfiguration,
    search_energy_bits: u64,
}

impl Served {
    fn new(best_config: SystemConfiguration, search_energy: f64) -> Self {
        Served {
            best_config,
            search_energy_bits: search_energy.to_bits(),
        }
    }
}

struct Tuner {
    platform: HeterogeneousPlatform,
    models: TrainedModels,
    space: ConfigurationSpace,
    grid: ConfigurationSpace,
}

impl Tuner {
    fn serve(&self, request: &Request) -> Result<Served, String> {
        let workload = request.workload();
        let outcome =
            MethodRunner::new(&self.platform, &workload, Some(&self.models), request.seed)
                .run(request.method, BUDGET)?;
        Ok(Served::new(outcome.best_config, outcome.search_energy))
    }

    /// The same request through the direct, untabulated `PredictionEvaluator`:
    /// no tables, no cache, no delta moves.
    fn serve_direct(&self, request: &Request) -> Served {
        let prediction = self.models.prediction_evaluator(request.workload());
        let outcome = match request.method {
            MethodKind::Eml => ParallelEnumeration::new().run(&self.grid, &prediction),
            MethodKind::Gaml => request.genetic().run(&self.space, &prediction),
            _ => request.annealer().run(&self.space, &prediction),
        };
        Served::new(outcome.best_config, outcome.best_energy)
    }

    /// `MethodRunner::run` for a prediction method, composed from its public
    /// pieces with every layer timed.
    fn serve_traced(
        &self,
        request: &Request,
        probe: &Arc<PredictProbe>,
        layers: &mut Layers,
    ) -> Served {
        let started = Instant::now();
        let workload = request.workload();
        let prediction = PredictionEvaluator::new(
            TimedRegressor::boxed(self.models.host_model.clone(), probe),
            self.models
                .device_models
                .iter()
                .map(|model| TimedRegressor::boxed(model.clone(), probe))
                .collect(),
            workload.clone(),
        );
        let measurement = MeasurementEvaluator::new(self.platform.clone(), workload);
        layers.build_s += started.elapsed().as_secs_f64();
        let predicted_before = probe.seconds();

        let outcome: Outcome<SystemConfiguration> = if request.method == MethodKind::Eml {
            let fill = Instant::now();
            let table = prediction.tabulated(&self.grid);
            layers.table_fill_s += fill.elapsed().as_secs_f64();
            let scan = Instant::now();
            let cached = CachedObjective::new(&table);
            let outcome = ParallelEnumeration::new().run(&self.grid, &cached);
            layers.cache += cached.stats();
            drop(cached);
            layers.enumerate_s += scan.elapsed().as_secs_f64();
            let release = Instant::now();
            drop(table);
            layers.table_fill_s += release.elapsed().as_secs_f64();
            outcome
        } else {
            let walk = Instant::now();
            let lazy = prediction.lazy_tabulated();
            let outcome = if request.method == MethodKind::Gaml {
                request.genetic().run_delta(&self.space, &lazy)
            } else {
                request.annealer().run_delta(&self.space, &lazy)
            };
            layers.lazy_probes += lazy.probes();
            layers.lazy_queries += lazy.model_queries();
            drop(lazy);
            layers.walk_s += walk.elapsed().as_secs_f64();
            layers.walk_predict_s += probe.seconds() - predicted_before;
            let records = outcome.trace.records();
            layers.accepted += records.iter().filter(|r| r.accepted).count();
            layers.iterations += records.len();
            outcome
        };
        layers.evaluations += outcome.evaluations;

        let remeasure = Instant::now();
        let _measured = measurement.measure(&outcome.best_config);
        layers.measure_s += remeasure.elapsed().as_secs_f64();

        let release = Instant::now();
        drop(prediction);
        drop(measurement);
        layers.build_s += release.elapsed().as_secs_f64();
        layers.total_s += started.elapsed().as_secs_f64();
        Served::new(outcome.best_config, outcome.best_energy)
    }
}

/// Per-layer totals over the traced requests.  The timed segments
/// (`build_s`, `table_fill_s`, `enumerate_s`, `walk_s`, `measure_s`) tile each
/// request; `walk_predict_s` is the model time nested inside `walk_s`.
#[derive(Debug, Default)]
struct Layers {
    total_s: f64,
    build_s: f64,
    table_fill_s: f64,
    enumerate_s: f64,
    walk_s: f64,
    walk_predict_s: f64,
    measure_s: f64,
    cache: CacheStats,
    lazy_probes: usize,
    lazy_queries: usize,
    evaluations: usize,
    accepted: usize,
    iterations: usize,
}

fn train(platform: &HeterogeneousPlatform) -> TrainedModels {
    TrainingCampaign::paper().run(platform, BoostingParams::default())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let platform = HeterogeneousPlatform::emil_with_seed(seed);
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut models = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        models = Some(train(&platform));
        setup.push(started.elapsed().as_secs_f64());
    }
    let Some(mut models) = models else {
        return report;
    };
    let mut training = TrainingLayers::default();
    if trace {
        match traced_training(&platform, &TrainingCampaign::paper()) {
            Ok((traced, layers)) => {
                report.check(
                    format!("{:?}", traced.host_model) == format!("{:?}", models.host_model)
                        && format!("{:?}", traced.device_models)
                            == format!("{:?}", models.device_models),
                    || "tune-stream: composed training differs from the campaign's".to_string(),
                );
                models = traced;
                training = layers;
            }
            Err(err) => report.check(false, || format!("tune-stream training: {err}")),
        }
    }
    let tuner = Tuner {
        platform,
        models,
        space: ConfigurationSpace::paper(),
        grid: ConfigurationSpace::enumeration_grid(),
    };

    // the closed loop; a traced run serves each request a second time, traced,
    // right after its untraced turn, so drift hits both alike
    let probe = Arc::new(PredictProbe::default());
    let mut layers = Layers::default();
    let mut latencies = Vec::new();
    let mut served = Vec::new();
    let mut stream = requests(seed);
    let loop_started = Instant::now();
    loop {
        let done = if trace {
            latencies.len() >= TRACED_REQUESTS
        } else {
            latencies.len() >= MIN_REQUESTS && loop_started.elapsed().as_secs_f64() >= seconds
        };
        if done {
            break;
        }
        let Some(request) = stream.next() else { break };
        let index = latencies.len();
        report.attempted += 1;
        let started = Instant::now();
        let result = tuner.serve(&request);
        latencies.push(started.elapsed().as_secs_f64());
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(err) => {
                report.check(false, || format!("tune-stream request {index}: {err}"));
                continue;
            }
        };
        if trace {
            report.attempted += 1;
            let traced = tuner.serve_traced(&request, &probe, &mut layers);
            report.check(traced == outcome, || {
                format!("tune-stream: traced request {index} differs from the untraced one")
            });
        }
        served.push((request, outcome));
    }
    let loop_s = loop_started.elapsed().as_secs_f64();

    // a seeded sample re-run through the direct path: the first request of
    // each method plus every CHECK_EVERY-th
    let mut seen = Vec::new();
    for (index, (request, outcome)) in served.iter().enumerate() {
        let first_of_method = !seen.contains(&request.method);
        if first_of_method || index % CHECK_EVERY == 0 {
            seen.push(request.method);
            report.check(tuner.serve_direct(request) == *outcome, || {
                format!(
                    "tune-stream: request {index} ({}) differs from the direct path",
                    request.method
                )
            });
        }
    }

    let p50 = percentile(&latencies, 50.0) * 1e3;
    let p90 = percentile(&latencies, 90.0) * 1e3;
    let rate = latencies.len() as f64 / loop_s;
    report.detail("tune_p50_ms", p50, "ms");
    report.detail("tune_p90_ms", p90, "ms");
    report.detail("tunes_per_s", rate, "1/s");

    report.detail("error_rate", report.error_rate(), "ratio");
    if !trace {
        report.metric("setup_s", median(&setup), "s");
        report.metric("op_p50_ms", p50, "ms");
        report.metric("op_p90_ms", p90, "ms");
        report.metric("ops_per_s", rate, "1/s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return report;
    }

    let n = served.len().max(1) as f64;
    let untraced_s: f64 = latencies.iter().sum();
    let segments = layers.build_s
        + layers.table_fill_s
        + layers.enumerate_s
        + layers.walk_s
        + layers.measure_s;

    report.layer("platform.measure_calls", 1.0);
    report.layer("platform.measure_s", layers.measure_s / n);
    report.layer("ml.fit_s", training.fit_s);
    report.layer("ml.fit_rows", training.fit_rows as f64);
    report.layer("ml.predict_rows", probe.rows() as f64 / n);
    report.layer("ml.predict_s", probe.seconds() / n);
    report.layer("evaluator.build_s", layers.build_s / n);
    report.layer("evaluator.table_fill_s", layers.table_fill_s / n);
    report.layer("evaluator.lazy_probes", layers.lazy_probes as f64 / n);
    report.layer(
        "evaluator.lazy_model_queries",
        layers.lazy_queries as f64 / n,
    );
    report.layer(
        "evaluator.lazy_hit_ratio",
        hit_ratio(
            (layers.lazy_probes - layers.lazy_queries.min(layers.lazy_probes)) as f64,
            layers.lazy_probes as f64,
        ),
    );
    report.layer("opt.enumerate_s", layers.enumerate_s / n);
    report.layer(
        "opt.cache_hit_ratio",
        hit_ratio(layers.cache.hits as f64, layers.cache.requests() as f64),
    );
    report.layer(
        "opt.walk_self_s",
        (layers.walk_s - layers.walk_predict_s) / n,
    );
    report.layer("opt.evaluations", layers.evaluations as f64 / n);
    report.layer(
        "opt.accept_ratio",
        hit_ratio(layers.accepted as f64, layers.iterations as f64),
    );
    report.layer("trace.request_s", layers.total_s / n);
    report.layer("trace.layer_sum_pct", 100.0 * segments / layers.total_s);
    report.layer(
        "obs.trace_overhead_pct",
        overhead_pct(layers.total_s, untraced_s),
    );
    report
}
