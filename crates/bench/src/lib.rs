//! # wd-bench
//!
//! Shared plumbing for the reproduction harness: the [`repro`](../repro/index.html)
//! binary regenerates every table and figure of the paper's evaluation section, and two
//! plain bench mains (`prediction_model`, `observability_overhead`) run the
//! wall-clock gates measured by [`measure_prediction_kernel`] and
//! [`measure_observability_overhead`].
//!
//! The heavy lifting lives in [`hetero_autotune`]; this crate only decides which
//! experiments to run at which scale and formats the results the way the paper's tables
//! present them.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use dna_analysis::Genome;
use hetero_autotune::experiments::{paper_iteration_budgets, ConvergenceStudy};
use hetero_autotune::report::{fmt2, fmt3, format_table};
use hetero_autotune::{TrainedModels, TrainingCampaign};
use hetero_platform::HeterogeneousPlatform;
use wd_ml::BoostingParams;

/// At which scale to run the reproduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's full campaign: 7 200 training experiments, the 19 926-point
    /// enumeration grid and iteration budgets 250..=2000.
    Paper,
    /// A scaled-down run (reduced campaign, smaller budgets) for smoke tests.
    Quick,
}

impl Scale {
    /// Training campaign for this scale.
    pub fn campaign(&self) -> TrainingCampaign {
        match self {
            Scale::Paper => TrainingCampaign::paper(),
            Scale::Quick => TrainingCampaign::reduced(),
        }
    }

    /// Boosting hyper-parameters for this scale.
    pub fn boosting(&self) -> BoostingParams {
        match self {
            Scale::Paper => BoostingParams::default(),
            Scale::Quick => BoostingParams::fast(),
        }
    }

    /// Simulated-annealing iteration budgets for this scale.
    pub fn budgets(&self) -> Vec<usize> {
        match self {
            Scale::Paper => paper_iteration_budgets(),
            Scale::Quick => vec![100, 250, 500],
        }
    }

    /// Genomes examined at this scale.
    pub fn genomes(&self) -> Vec<Genome> {
        match self {
            Scale::Paper => Genome::ALL.to_vec(),
            Scale::Quick => vec![Genome::Human, Genome::Cat],
        }
    }
}

/// Everything the tables/figures of the evaluation section need, computed once.
pub struct PaperStudy {
    /// The simulated platform.
    pub platform: HeterogeneousPlatform,
    /// Scale the study was run at.
    pub scale: Scale,
    /// Trained prediction models and their accuracy reports (Figs. 5-8, Tables IV-V).
    pub models: TrainedModels,
    /// Convergence study (Fig. 9, Tables VI-IX).
    pub convergence: ConvergenceStudy,
}

impl PaperStudy {
    /// Run the training campaign and the convergence study at the given scale.
    pub fn run(scale: Scale, seed: u64) -> Self {
        let platform = HeterogeneousPlatform::emil_with_seed(seed);
        let models = scale.campaign().run(&platform, scale.boosting());
        let convergence =
            ConvergenceStudy::run(&platform, &models, &scale.genomes(), &scale.budgets(), seed);
        PaperStudy {
            platform,
            scale,
            models,
            convergence,
        }
    }

    /// Run only the training part (enough for Figs. 5-8 and Tables IV-V).
    pub fn run_training_only(scale: Scale, seed: u64) -> (HeterogeneousPlatform, TrainedModels) {
        let platform = HeterogeneousPlatform::emil_with_seed(seed);
        let models = scale.campaign().run(&platform, scale.boosting());
        (platform, models)
    }
}

/// The 2-accelerator (Phi + GPU) grid the `observability_overhead` bench
/// measures, with 10 % split granularity (3 168 configurations).
pub fn two_accel_bench_grid() -> hetero_autotune::ConfigurationSpace {
    hetero_autotune::ConfigurationSpace::multi_accelerator(
        vec![2, 12, 24, 48],
        vec![hetero_platform::Affinity::Scatter],
        vec![
            hetero_autotune::DeviceAxis::new(
                vec![30, 60, 120, 240],
                vec![hetero_platform::Affinity::Balanced],
            ),
            hetero_autotune::DeviceAxis::new(
                vec![112, 224, 448],
                vec![hetero_platform::Affinity::Balanced],
            ),
        ],
        100,
    )
}

/// One reference-vs-blocked measurement of the flat-forest batch kernels
/// (see [`measure_prediction_kernel`]).
pub struct PredictionKernelMeasurement {
    /// Rows per predicted batch.
    pub rows: usize,
    /// Features per row.
    pub width: usize,
    /// Trees in the measured ensemble.
    pub trees: usize,
    /// Timed repetitions per kernel (each duration below is the best of these).
    pub repeats: usize,
    /// Best wall-clock of the seed kernel (checked, branchy, tree-major).
    pub reference: std::time::Duration,
    /// Best wall-clock of the cache-blocked branch-free kernel.
    pub blocked: std::time::Duration,
    /// Whether both kernels reproduced the `predict_one` row loop bit for bit.
    pub identical: bool,
}

impl PredictionKernelMeasurement {
    /// Reference-over-blocked wall-clock ratio.
    pub fn blocked_speedup(&self) -> f64 {
        self.reference.as_secs_f64() / self.blocked.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Assert the acceptance criteria: bit-identical predictions and a ≥ 2× blocked
    /// kernel.  Unlike the query-count tests this one *does* gate on wall-clock —
    /// the kernel rework claims raw speed, and query counts cannot witness that —
    /// so the ratio is taken between best-of-[`PredictionKernelMeasurement::repeats`]
    /// times of the same in-process batch, which cancels machine speed and absorbs
    /// scheduling noise.
    pub fn assert_fast_path_won(&self) {
        assert!(
            self.identical,
            "a batch kernel diverged from the predict_one row loop"
        );
        assert!(
            self.blocked_speedup() >= 2.0,
            "the blocked kernel must be >= 2x the seed kernel (got {:.2}x: {:.1} us vs {:.1} us)",
            self.blocked_speedup(),
            self.reference.as_secs_f64() * 1e6,
            self.blocked.as_secs_f64() * 1e6,
        );
    }
}

/// A deterministic boosted ensemble plus one EML-tabulation-sized batch
/// (`rows × width`, the 256-row chunks the table builders feed
/// [`wd_ml::Regressor::predict_batch`]) for the flat-kernel measurements of the
/// `prediction_model` bench and this crate's unit test.  Synthetic (LCG-drawn)
/// features keep the fit off the hot path: the kernels only care about tree
/// *shape*, not accuracy.
pub fn kernel_bench_forest() -> (wd_ml::BoostedTreesRegressor, Vec<f64>, usize) {
    use wd_ml::Regressor as _;

    const WIDTH: usize = 5;
    const TRAIN_ROWS: usize = 800;
    const BATCH_ROWS: usize = 256;

    // deterministic pseudo-random features without pulling an RNG into the bench API
    let mut state = 0x9e37_79b9_97f4_a7c1u64;
    let mut draw = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };

    let mut data = wd_ml::Dataset::new((0..WIDTH).map(|i| format!("f{i}")).collect::<Vec<_>>());
    for _ in 0..TRAIN_ROWS {
        let features: Vec<f64> = (0..WIDTH).map(|_| draw() * 10.0).collect();
        let target = features[0] * features[1].sin() + (features[2] - 5.0).abs()
            - features[3] * 0.25
            + (features[4] * 0.7).cos() * 3.0;
        data.push(features, target).expect("row width is fixed");
    }
    let mut model = wd_ml::BoostedTreesRegressor::new(wd_ml::BoostingParams::default());
    model.fit(&data).expect("synthetic dataset is well-formed");

    let batch: Vec<f64> = (0..BATCH_ROWS * WIDTH).map(|_| draw() * 10.0).collect();
    (model, batch, WIDTH)
}

/// Time the flat-forest batch kernels (seed/reference and cache-blocked) over
/// the same batch, `repeats` times each keeping the best, and check both
/// against the `predict_one` row loop bit for bit.
pub fn measure_prediction_kernel(
    model: &wd_ml::BoostedTreesRegressor,
    rows: &[f64],
    width: usize,
    repeats: usize,
) -> PredictionKernelMeasurement {
    use std::time::{Duration, Instant};
    use wd_ml::Regressor as _;

    let repeats = repeats.max(1);
    let best_of = |kernel: &dyn Fn() -> Vec<f64>| -> (Duration, Vec<f64>) {
        let mut best = Duration::MAX;
        let mut output = kernel(); // warm-up pass, also the checked output
        for _ in 0..repeats {
            let start = Instant::now();
            let predictions = kernel();
            let elapsed = start.elapsed();
            if elapsed < best {
                best = elapsed;
            }
            output = predictions;
        }
        (best, output)
    };

    let (t_reference, reference) = best_of(&|| model.predict_batch_reference(rows, width));
    let (t_blocked, blocked) = best_of(&|| model.predict_batch_blocked(rows, width));

    let row_loop: Vec<f64> = rows
        .chunks(width.max(1))
        .map(|row| model.predict_one(row))
        .collect();
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let identical = bits(&reference) == bits(&row_loop) && bits(&blocked) == bits(&row_loop);

    PredictionKernelMeasurement {
        rows: rows.len() / width.max(1),
        width,
        trees: model.tree_count(),
        repeats,
        reference: t_reference,
        blocked: t_blocked,
        identical,
    }
}

/// One observability-overhead measurement of a SAML walk (see
/// [`measure_observability_overhead`]): the same delta walk timed unobserved and
/// under three recorders, plus the fidelity checks that make the timings meaningful.
#[derive(Debug, Clone)]
pub struct ObservabilityMeasurement {
    /// Number of configurations in the search space.
    pub space_configs: usize,
    /// Iteration budget of each walk.
    pub iterations: usize,
    /// Timed repeats per variant (each timing below is the best of these).
    pub repeats: usize,
    /// Back-to-back walks per timed sample: as many warm walks as fit in 10 ms, so
    /// every sample is long enough for the 2 % comparison to be above timer noise.
    pub rounds: usize,
    /// Best-of-repeats per-walk duration of the plain `run_delta` walk.
    pub unobserved: std::time::Duration,
    /// Best-of-repeats per-walk duration under the disabled [`wd_obs::NoopRecorder`].
    pub noop: std::time::Duration,
    /// Best-of-repeats per-walk duration under an in-memory [`wd_obs::Registry`].
    pub registry: std::time::Duration,
    /// Best-of-repeats per-walk duration under a [`wd_obs::JsonlExporter`] writing
    /// every iteration event to disk.
    pub exporter: std::time::Duration,
    /// Median over repeats of the per-repeat `noop / unobserved` duration ratio.
    /// Both samples of a pair run back to back in each repeat, in alternating order,
    /// so they share the machine's momentary state (frequency, cache pressure) — the
    /// paired ratio is stable where cross-run minima on a busy host are not.
    ///
    /// `SimulatedAnnealing::run_delta` is itself `run_delta_observed(.., &NoopRecorder,
    /// ..)`, so both sides of this ratio run the same code path and any distance from
    /// 1.0 is timing noise. The 2 % bound therefore guards against a future
    /// `run_delta` that stops delegating and gains work the observed path skips (or
    /// the reverse); on a loaded host the noise alone can occasionally cross it.
    pub noop_ratio: f64,
    /// Median paired `registry / unobserved` duration ratio (see `noop_ratio`).
    pub registry_ratio: f64,
    /// Median paired `exporter / unobserved` duration ratio (see `noop_ratio`).
    pub exporter_ratio: f64,
    /// Events the last exporter run wrote to its JSONL file.
    pub events_written: u64,
    /// Bytes the last exporter run wrote to its JSONL file.
    pub bytes_written: u64,
    /// All four walks produced bit-identical outcomes and traces.
    pub identical_trajectories: bool,
    /// Replaying the exporter's JSONL file reconstructed the walk's best-energy
    /// series bit for bit, using nothing but the file.
    pub replay_matches: bool,
}

impl ObservabilityMeasurement {
    /// Fractional overhead of the disabled [`wd_obs::NoopRecorder`] (0.01 = 1 %),
    /// from the median paired ratio.
    pub fn noop_overhead(&self) -> f64 {
        self.noop_ratio - 1.0
    }

    /// Fractional overhead of recording every iteration into a [`wd_obs::Registry`].
    pub fn registry_overhead(&self) -> f64 {
        self.registry_ratio - 1.0
    }

    /// Fractional overhead of streaming every iteration event to a JSONL file.
    pub fn exporter_overhead(&self) -> f64 {
        self.exporter_ratio - 1.0
    }

    /// Assert the observability acceptance criteria: every observed walk is
    /// bit-identical to the unobserved one, the exporter's file alone reconstructs
    /// the best-energy series, and the disabled [`wd_obs::NoopRecorder`] costs less
    /// than 2 % wall-clock (compared on the median paired ratio, which is stable
    /// even on a noisy runner).
    pub fn assert_noop_is_free(&self) {
        assert!(
            self.identical_trajectories,
            "an observed SAML walk diverged from the unobserved run"
        );
        assert!(
            self.replay_matches,
            "replaying the exporter's JSONL file did not reconstruct the walk's \
             best-energy series bit for bit"
        );
        assert!(
            self.noop_ratio <= 1.02,
            "NoopRecorder overhead {:.2}% exceeds the 2% bound (median paired ratio over {} repeats; best walks {:?} observed vs {:?} unobserved)",
            self.noop_overhead() * 100.0,
            self.repeats,
            self.noop,
            self.unobserved
        );
    }
}

/// Run one SAML walk (budget `iterations`, fixed `seed`) over `space` four ways —
/// the plain `run_delta`, and `run_delta_observed` under the disabled
/// [`wd_obs::NoopRecorder`], an in-memory [`wd_obs::Registry`], and a
/// [`wd_obs::JsonlExporter`] streaming every iteration event to a temporary JSONL
/// file — timing each walk as the best of `repeats` interleaved runs over fresh
/// lazy tables (so every variant pays the same fill-on-first-touch cost), checking
/// all trajectories agree bit for bit, and replaying the exporter's file to verify
/// the recorded event stream alone reconstructs the walk's best-energy series.
pub fn measure_observability_overhead(
    models: &TrainedModels,
    workload: hetero_platform::WorkloadProfile,
    space: &hetero_autotune::ConfigurationSpace,
    iterations: usize,
    seed: u64,
    repeats: usize,
) -> ObservabilityMeasurement {
    use std::time::{Duration, Instant};
    use wd_obs::{EventLog, JsonlExporter, NoopRecorder, Registry};
    use wd_opt::{SearchSpace as _, SimulatedAnnealing};

    assert!(repeats > 0, "need at least one timed repeat");
    let sa = SimulatedAnnealing::with_budget_and_range(iterations, 2.0, 0.02, seed);
    let scope = "saml";

    // Warmup: a cold walk that yields the reference outcome, then warm walks over
    // fresh tables, back to back as a sample runs them, until they span 10 ms; their
    // count is the per-sample round count.  Every variant runs the exact same
    // monomorphized loop (the unobserved entry points delegate to the observed
    // ones), so the measured difference is timer noise unless each sample is
    // comfortably above it.  The cold walk pays first-touch costs the timed samples
    // never see, so sizing from it would cut every sample short.
    let reference = sa.run_delta(
        space,
        &models
            .prediction_evaluator(workload.clone())
            .lazy_tabulated(),
    );
    let rounds = {
        let prediction = models.prediction_evaluator(workload.clone());
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < 100 && start.elapsed() < Duration::from_millis(10) {
            let _ = sa.run_delta(space, &prediction.lazy_tabulated());
            rounds += 1;
        }
        rounds
    };

    let mut identical = true;
    let mut best = [Duration::MAX; 4];
    let mut events_written = 0u64;
    let mut bytes_written = 0u64;
    let exporter_path =
        std::env::temp_dir().join(format!("wd_obs_overhead_{}.jsonl", std::process::id()));

    // One timed sample = `rounds` back-to-back walks; evaluators (model clones) are
    // built outside the timer, the cheap lazy-table construction inside it — the
    // same split for every variant, so the comparison stays fair.
    let mut sample =
        |run: &mut dyn FnMut(
            &hetero_autotune::PredictionEvaluator,
        ) -> wd_opt::Outcome<hetero_autotune::SystemConfiguration>|
         -> Duration {
            let evaluators: Vec<hetero_autotune::PredictionEvaluator> = (0..rounds)
                .map(|_| models.prediction_evaluator(workload.clone()))
                .collect();
            let mut outcomes = Vec::with_capacity(rounds);
            let start = Instant::now();
            for evaluator in &evaluators {
                outcomes.push(run(evaluator));
            }
            let elapsed = start.elapsed();
            for outcome in &outcomes {
                identical &= outcomes_identical(&reference, outcome);
            }
            elapsed / rounds as u32
        };

    // The gated pair (unobserved, NoopRecorder) runs back to back at the start of
    // each repeat, alternating which goes first, so its paired ratio compares two
    // adjacent samples and neither side systematically runs in the other's wake.
    // The exporter follows and the registry comes last, so the aftermath of the
    // exporter's disk I/O lands on the (ungated) registry sample, never on the pair.
    let mut times = vec![[Duration::ZERO; 4]; repeats];
    for (repeat, repeat_times) in times.iter_mut().enumerate() {
        let pair = if repeat % 2 == 0 { [0, 1] } else { [1, 0] };
        for variant in pair.into_iter().chain([3, 2]) {
            let t = match variant {
                // unobserved run_delta
                0 => sample(&mut |evaluator| sa.run_delta(space, &evaluator.lazy_tabulated())),
                // observed, disabled NoopRecorder
                1 => sample(&mut |evaluator| {
                    sa.run_delta_observed(space, &evaluator.lazy_tabulated(), &NoopRecorder, scope)
                }),
                // observed, in-memory registry
                2 => sample(&mut |evaluator| {
                    let registry = Registry::new();
                    sa.run_delta_observed(space, &evaluator.lazy_tabulated(), &registry, scope)
                }),
                // observed, JSONL exporter streaming to disk (recreating the scratch
                // file each round, so the replay below sees exactly one walk)
                _ => sample(&mut |evaluator| {
                    let exporter = JsonlExporter::create(&exporter_path)
                        .expect("create the scratch JSONL file");
                    let outcome =
                        sa.run_delta_observed(space, &evaluator.lazy_tabulated(), &exporter, scope);
                    exporter.flush().expect("flush the scratch JSONL file");
                    events_written = exporter.events_written();
                    bytes_written = exporter.bytes_written();
                    outcome
                }),
            };
            best[variant] = best[variant].min(t);
            repeat_times[variant] = t;
        }
    }
    let median_ratio = |variant: usize| -> f64 {
        let mut ratios: Vec<f64> = times
            .iter()
            .map(|t| t[variant].as_secs_f64() / t[0].as_secs_f64().max(f64::MIN_POSITIVE))
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    };

    // Replay the last exporter file: the event stream alone must reconstruct the
    // best-energy series of the walk, bit for bit.
    let replayed = EventLog::read(&exporter_path)
        .expect("read back the exporter's JSONL file")
        .best_energy_series(scope);
    let expected: Vec<u64> = reference
        .trace
        .records()
        .iter()
        .map(|record| record.best_energy.to_bits())
        .collect();
    let replay_matches = replayed.len() == expected.len()
        && replayed
            .iter()
            .zip(&expected)
            .all(|(a, b)| a.to_bits() == *b);
    let _ = std::fs::remove_file(&exporter_path);

    ObservabilityMeasurement {
        space_configs: space.space_len().expect("bench spaces are indexed"),
        iterations,
        repeats,
        rounds,
        unobserved: best[0],
        noop: best[1],
        registry: best[2],
        exporter: best[3],
        noop_ratio: median_ratio(1),
        registry_ratio: median_ratio(2),
        exporter_ratio: median_ratio(3),
        events_written,
        bytes_written,
        identical_trajectories: identical,
        replay_matches,
    }
}

fn outcomes_identical(
    a: &wd_opt::Outcome<hetero_autotune::SystemConfiguration>,
    b: &wd_opt::Outcome<hetero_autotune::SystemConfiguration>,
) -> bool {
    a.best_config == b.best_config
        && a.best_energy.to_bits() == b.best_energy.to_bits()
        && a.evaluations == b.evaluations
        && a.trace.records() == b.trace.records()
}

/// Render a `(label, values-per-budget)` table with one column per iteration budget,
/// as used by Tables VI and VII.
pub fn render_budget_table(
    caption: &str,
    budgets: &[usize],
    rows: &[(String, Vec<f64>)],
) -> String {
    let mut headers = vec!["DNA".to_string()];
    headers.extend(budgets.iter().map(|b| b.to_string()));
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, values)| {
            let mut row = vec![label.clone()];
            row.extend(values.iter().map(|v| fmt3(*v)));
            row
        })
        .collect();
    format!("{caption}\n{}", format_table(&headers, &body))
}

/// Render a speedup table (Tables VIII and IX): one column per budget plus the EM column.
pub fn render_speedup_table(
    caption: &str,
    budgets: &[usize],
    rows: &[(String, Vec<f64>, f64)],
) -> String {
    let mut headers = vec!["DNA".to_string()];
    headers.extend(budgets.iter().map(|b| b.to_string()));
    headers.push("EM".to_string());
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, values, em)| {
            let mut row = vec![label.clone()];
            row.extend(values.iter().map(|v| fmt2(*v)));
            row.push(fmt2(*em));
            row
        })
        .collect();
    format!("{caption}\n{}", format_table(&headers, &body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wd_ml::Regressor as _;

    #[test]
    fn quick_scale_is_small() {
        assert!(Scale::Quick.campaign().total_experiment_count() < 1000);
        assert!(Scale::Quick.budgets().len() < Scale::Paper.budgets().len());
        assert_eq!(Scale::Paper.campaign().total_experiment_count(), 7200);
        assert_eq!(Scale::Paper.genomes().len(), 4);
    }

    #[test]
    fn budget_table_renders_all_rows_and_columns() {
        let budgets = vec![250, 500];
        let rows = vec![
            ("human".to_string(), vec![22.15, 16.17]),
            ("average".to_string(), vec![19.68, 14.07]),
        ];
        let table = render_budget_table("Table VI", &budgets, &rows);
        assert!(table.contains("Table VI"));
        assert!(table.contains("human"));
        assert!(table.contains("average"));
        assert!(table.contains("250") && table.contains("500"));
        assert!(table.contains("22.150"));
    }

    #[test]
    fn speedup_table_has_an_em_column() {
        let budgets = vec![1000];
        let rows = vec![("dog".to_string(), vec![1.56], 1.69)];
        let table = render_speedup_table("Table VIII", &budgets, &rows);
        assert!(table.contains("EM"));
        assert!(table.contains("1.56"));
        assert!(table.contains("1.69"));
    }

    #[test]
    fn prediction_kernel_measurement_is_bit_identical() {
        let (model, batch, width) = kernel_bench_forest();
        // wall-clock is not asserted here (unit tests run unoptimised); the ≥ 2×
        // gate lives in the release-built `prediction_model` bench
        let m = measure_prediction_kernel(&model, &batch, width, 2);
        assert!(m.identical, "a batch kernel diverged from predict_one");
        assert_eq!(m.rows, 256);
        assert_eq!(m.width, 5);
        assert!(m.trees > 0);
        assert!(m.blocked_speedup() > 0.0);
    }

    #[test]
    fn quick_study_end_to_end() {
        let study = PaperStudy::run(Scale::Quick, 1);
        assert_eq!(study.scale, Scale::Quick);
        assert!(study.models.host_model.is_fitted());
        assert_eq!(study.convergence.cases.len(), 2);
        let table = study.convergence.percent_difference_rows();
        // two genomes + the average row
        assert_eq!(table.len(), 3);
    }
}
