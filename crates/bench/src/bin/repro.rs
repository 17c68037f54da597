//! Regenerate every table and figure of the paper's evaluation section.
//!
//! ```text
//! repro [--quick] [--seed N] [--metrics PATH] <artifact>...
//!
//! artifacts:
//!   table1 table2 table3          setup tables (parameter space, methods, hardware)
//!   fig2                          motivational work-distribution experiment
//!   fig5 fig6                     measured vs. predicted execution times
//!   fig7 fig8                     prediction error histograms
//!   table4 table5                 prediction accuracy per thread count
//!   fig9                          SAML/SAM vs. EM/EML convergence
//!   table6 table7                 percent / absolute difference to the EM optimum
//!   table8 table9                 speedups vs. host-only / device-only
//!   all                           everything above
//!   model-selection               Section III-B: k-fold cross-validated MAPE / RMSE
//!                                 of boosted trees vs. linear vs. Poisson regression
//!                                 on the training campaign, host and each device
//!   bench-enumeration             enumeration fast-path measurements; also writes
//!                                 the BENCH_enumeration.json perf-trajectory artifact
//!   bench-annealing               incremental-annealing fast-path measurements
//!                                 (direct vs eager vs lazy SAML); also writes the
//!                                 BENCH_annealing.json perf-trajectory artifact
//!   bench-prediction              flat-forest kernel measurements (seed vs blocked
//!                                 vs SIMD batch prediction) plus the GA's
//!                                 incremental-recombination fast path; also writes
//!                                 the BENCH_prediction.json perf-trajectory artifact
//!   bench-observability           observability-layer overhead measurements (the
//!                                 same SAML walk unobserved vs NoopRecorder vs
//!                                 Registry vs JSONL exporter, with bit-identity and
//!                                 event-replay checks); also writes the
//!                                 BENCH_observability.json perf-trajectory artifact
//! ```
//!
//! `--quick` runs a scaled-down study (reduced training campaign, fewer budgets) so the
//! whole reproduction finishes in a few seconds; the default reproduces the paper-scale
//! campaign (7 200 training experiments, 19 926-point enumeration per genome).
//!
//! An unknown artifact name is a usage error (exit status 2).
//!
//! `--metrics PATH` writes a `wd_obs` metrics snapshot (schema
//! [`wd_obs::METRICS_SCHEMA_VERSION`])
//! to `PATH` when the run finishes: one span per artifact rendered, a span for the
//! training campaign, and whatever gauges/counters the requested artifacts published
//! through the shared registry.

use std::collections::BTreeSet;

use dna_analysis::Genome;
use hetero_autotune::experiments::{motivation_experiment, SpeedupBaseline};
use hetero_autotune::report::{fmt2, fmt3, format_table};
use hetero_autotune::{ConfigurationSpace, MethodKind, ModelComparison, TrainingCampaign};
use hetero_platform::{Affinity, DeviceSpec, HeterogeneousPlatform};
use wd_bench::{render_budget_table, render_speedup_table, PaperStudy, Scale};
use wd_ml::ErrorHistogram;
use wd_obs::{FieldValue, Recorder, Registry};

/// The paper's artifacts, in the order `all` regenerates them.
const PAPER_ARTIFACTS: [&str; 15] = [
    "table1", "table2", "table3", "fig2", "fig5", "fig6", "fig7", "fig8", "table4", "table5",
    "fig9", "table6", "table7", "table8", "table9",
];

/// Artifacts `all` leaves out: the model-selection table and the perf measurements.
const EXTRA_ARTIFACTS: [&str; 5] = [
    "model-selection",
    "bench-enumeration",
    "bench-annealing",
    "bench-prediction",
    "bench-observability",
];

/// Folds of the `model-selection` cross-validation.
const MODEL_SELECTION_FOLDS: usize = 5;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut seed = 0x45_6d_69_6cu64; // "Emil"
    let mut metrics_path: Option<String> = None;
    let mut artifacts: BTreeSet<String> = BTreeSet::new();

    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                let value = iter.next().unwrap_or_else(|| usage("--seed needs a value"));
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs an integer"));
            }
            "--metrics" => {
                let value = iter
                    .next()
                    .unwrap_or_else(|| usage("--metrics needs a path"));
                metrics_path = Some(value.clone());
            }
            "--help" | "-h" => usage(""),
            name => {
                artifacts.insert(name.to_ascii_lowercase());
            }
        }
    }
    if artifacts.is_empty() {
        usage("no artifact requested");
    }
    if let Some(unknown) = artifacts.iter().find(|name| {
        name.as_str() != "all"
            && !PAPER_ARTIFACTS.contains(&name.as_str())
            && !EXTRA_ARTIFACTS.contains(&name.as_str())
    }) {
        usage(&format!("unknown artifact `{unknown}`"));
    }
    if artifacts.contains("all") {
        artifacts = PAPER_ARTIFACTS.iter().map(|s| s.to_string()).collect();
    }

    let needs_models = artifacts.iter().any(|a| {
        matches!(
            a.as_str(),
            "fig5" | "fig6" | "fig7" | "fig8" | "table4" | "table5"
        )
    });
    let needs_convergence = artifacts.iter().any(|a| {
        matches!(
            a.as_str(),
            "fig9" | "table6" | "table7" | "table8" | "table9"
        )
    });

    // the shared metrics registry: artifacts publish into it, `--metrics` serializes it
    let registry = Registry::new();

    // static artifacts first
    for artifact in &artifacts {
        let started = std::time::Instant::now();
        match artifact.as_str() {
            "table1" => table1(),
            "table2" => table2(),
            "table3" => table3(),
            "fig2" => fig2(seed),
            "model-selection" => model_selection(scale, seed),
            "bench-enumeration" => bench_enumeration(scale),
            "bench-annealing" => bench_annealing(scale, seed),
            "bench-prediction" => bench_prediction(scale, seed),
            "bench-observability" => bench_observability(scale, seed, &registry),
            _ => continue,
        }
        registry.span(
            &format!("repro.{artifact}"),
            started.elapsed().as_secs_f64(),
            &[],
        );
    }

    if !(needs_models || needs_convergence) {
        write_metrics(&registry, metrics_path.as_deref());
        return;
    }

    eprintln!(
        "# running the {} campaign (this performs {} simulated experiments)...",
        if scale == Scale::Paper {
            "paper-scale"
        } else {
            "quick"
        },
        scale.campaign().total_experiment_count(),
    );

    let started = std::time::Instant::now();
    let study = if needs_convergence {
        PaperStudy::run(scale, seed)
    } else {
        let (platform, models) = PaperStudy::run_training_only(scale, seed);
        PaperStudy {
            platform,
            scale,
            models,
            convergence: hetero_autotune::experiments::ConvergenceStudy {
                budgets: vec![],
                cases: vec![],
            },
        }
    };
    registry.span(
        "repro.campaign",
        started.elapsed().as_secs_f64(),
        &[
            (
                "experiments",
                FieldValue::U64(scale.campaign().total_experiment_count() as u64),
            ),
            ("convergence", FieldValue::Bool(needs_convergence)),
        ],
    );

    for artifact in &artifacts {
        let started = std::time::Instant::now();
        match artifact.as_str() {
            "fig5" => fig5or6(&study, true),
            "fig6" => fig5or6(&study, false),
            "fig7" => fig7or8(&study, true),
            "fig8" => fig7or8(&study, false),
            "table4" => table4or5(&study, true),
            "table5" => table4or5(&study, false),
            "fig9" => fig9(&study),
            "table6" => println!(
                "{}",
                render_budget_table(
                    "Table VI: percent difference [%] of SAML vs. the EM optimum",
                    &study.convergence.budgets,
                    &study.convergence.percent_difference_rows(),
                )
            ),
            "table7" => println!(
                "{}",
                render_budget_table(
                    "Table VII: absolute difference [s] of SAML vs. the EM optimum",
                    &study.convergence.budgets,
                    &study.convergence.absolute_difference_rows(),
                )
            ),
            "table8" => println!(
                "{}",
                render_speedup_table(
                    "Table VIII: speedup of SAML/EM configurations vs. host-only (48 threads)",
                    &study.convergence.budgets,
                    &study.convergence.speedup_rows(SpeedupBaseline::HostOnly),
                )
            ),
            "table9" => println!(
                "{}",
                render_speedup_table(
                    "Table IX: speedup of SAML/EM configurations vs. device-only (240 threads)",
                    &study.convergence.budgets,
                    &study.convergence.speedup_rows(SpeedupBaseline::DeviceOnly),
                )
            ),
            _ => continue,
        }
        registry.span(
            &format!("repro.{artifact}"),
            started.elapsed().as_secs_f64(),
            &[],
        );
    }

    write_metrics(&registry, metrics_path.as_deref());
}

/// Serialize the shared registry's snapshot to `path` (no-op without `--metrics`).
fn write_metrics(registry: &Registry, path: Option<&str>) {
    let Some(path) = path else { return };
    let json = registry.snapshot().to_json();
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
    eprintln!("# wrote {path}");
}

fn usage(message: &str) -> ! {
    if !message.is_empty() {
        eprintln!("error: {message}\n");
    }
    eprintln!(
        "usage: repro [--quick] [--seed N] [--metrics PATH] <artifact>...\n\
         artifacts: {} all {}",
        PAPER_ARTIFACTS.join(" "),
        EXTRA_ARTIFACTS.join(" "),
    );
    std::process::exit(if message.is_empty() { 0 } else { 2 });
}

/// Table I: the parameter space, plus the Eq. 1 cardinalities.
fn table1() {
    let space = ConfigurationSpace::paper();
    let grid = ConfigurationSpace::enumeration_grid();
    let headers = vec![
        "Parameter".to_string(),
        "Host".to_string(),
        "Device".to_string(),
    ];
    let rows = vec![
        vec![
            "Threads".to_string(),
            format!("{:?}", space.host_threads),
            format!("{:?}", space.device_axes[0].threads),
        ],
        vec![
            "Affinity".to_string(),
            format!(
                "{:?}",
                space
                    .host_affinities
                    .iter()
                    .map(Affinity::name)
                    .collect::<Vec<_>>()
            ),
            format!(
                "{:?}",
                space.device_axes[0]
                    .affinities
                    .iter()
                    .map(Affinity::name)
                    .collect::<Vec<_>>()
            ),
        ],
        vec![
            "Workload fraction".to_string(),
            "0..=100 %".to_string(),
            "100 - host fraction".to_string(),
        ],
    ];
    println!("Table I: system configuration parameters");
    println!("{}", format_table(&headers, &rows));
    println!(
        "Search space size (Eq. 1): {} configurations; enumeration grid (2.5 % fraction steps): {} experiments\n",
        space.total_configurations(),
        grid.total_configurations()
    );
}

/// Table II: properties of the optimization methods.
fn table2() {
    let headers = vec![
        "Method".to_string(),
        "Space Exploration".to_string(),
        "Sys. Conf. Evaluation".to_string(),
        "Effort".to_string(),
        "Accuracy".to_string(),
        "Prediction".to_string(),
    ];
    let rows: Vec<Vec<String>> = MethodKind::ALL
        .iter()
        .map(|m| {
            let p = m.properties();
            vec![
                m.name().to_string(),
                p.space_exploration.to_string(),
                p.evaluation.to_string(),
                p.effort.to_string(),
                p.accuracy.to_string(),
                if p.prediction { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    println!("Table II: properties of optimization methods");
    println!("{}", format_table(&headers, &rows));
}

/// Table III: the hardware of the simulated Emil platform.
fn table3() {
    let host = DeviceSpec::xeon_e5_2695v2_dual();
    let phi = DeviceSpec::xeon_phi_7120p();
    let headers = vec![
        "Specification".to_string(),
        "Intel Xeon".to_string(),
        "Intel Xeon Phi".to_string(),
    ];
    let rows = vec![
        vec![
            "Type".to_string(),
            "E5-2695v2".to_string(),
            "7120P".to_string(),
        ],
        vec![
            "Core frequency [GHz]".to_string(),
            format!("{} - {}", host.base_frequency_ghz, host.turbo_frequency_ghz),
            format!("{} - {}", phi.base_frequency_ghz, phi.turbo_frequency_ghz),
        ],
        vec![
            "# of Cores (per socket/device)".to_string(),
            host.cores_per_socket.to_string(),
            phi.cores_per_socket.to_string(),
        ],
        vec![
            "# of Threads".to_string(),
            (host.cores_per_socket * host.threads_per_core).to_string(),
            (phi.cores_per_socket * phi.threads_per_core).to_string(),
        ],
        vec![
            "Cache [MB]".to_string(),
            host.cache_mb.to_string(),
            phi.cache_mb.to_string(),
        ],
        vec![
            "Max Mem. Bandwidth [GB/s]".to_string(),
            host.mem_bandwidth_gbs.to_string(),
            phi.mem_bandwidth_gbs.to_string(),
        ],
    ];
    println!("Table III: Emil hardware architecture (simulated)");
    println!("{}", format_table(&headers, &rows));
}

/// Fig. 2: the motivational work-distribution experiment.
fn fig2(seed: u64) {
    let platform = HeterogeneousPlatform::emil_with_seed(seed);
    let cases = [
        ("Fig. 2a: 190 MB, 48 CPU threads", 190u64, 48u32),
        ("Fig. 2b: 3250 MB, 48 CPU threads", 3250, 48),
        ("Fig. 2c: 3250 MB, 4 CPU threads", 3250, 4),
    ];
    for (caption, megabytes, threads) in cases {
        let points = motivation_experiment(&platform, megabytes, threads);
        let headers = vec![
            "Work distribution".to_string(),
            "Time [s]".to_string(),
            "Normalized (1-10)".to_string(),
        ];
        let rows: Vec<Vec<String>> = points
            .iter()
            .map(|p| vec![p.label.clone(), fmt3(p.seconds), fmt2(p.normalized)])
            .collect();
        println!("{caption}");
        println!("{}", format_table(&headers, &rows));
        let best = points
            .iter()
            .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
            .expect("eleven points");
        println!("best distribution: {}\n", best.label);
    }
}

/// Figs. 5 / 6: measured vs. predicted execution times.
fn fig5or6(study: &PaperStudy, host: bool) {
    let (caption, report, threads, affinity) = if host {
        (
            "Fig. 5: host, thread affinity scatter — measured vs. predicted [s]",
            &study.models.host_accuracy,
            vec![6u32, 12, 24, 48],
            Affinity::Scatter,
        )
    } else {
        (
            "Fig. 6: device, thread affinity balanced — measured vs. predicted [s]",
            study.models.device_accuracy(),
            vec![30u32, 60, 120, 240],
            Affinity::Balanced,
        )
    };
    println!("{caption}");
    let mut headers = vec!["File size [MB]".to_string()];
    for t in &threads {
        headers.push(format!("{t}thr measured"));
        headers.push(format!("{t}thr predicted"));
    }
    // collect the union of sizes over the selected series, bucketed to whole MB
    let mut sizes: Vec<u64> = vec![];
    let mut series = vec![];
    for &t in &threads {
        let s = report.series(t, affinity);
        for point in &s {
            let mb = point.0.round() as u64;
            if !sizes.contains(&mb) {
                sizes.push(mb);
            }
        }
        series.push(s);
    }
    sizes.sort_unstable();
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|&mb| {
            let mut row = vec![mb.to_string()];
            for s in &series {
                match s.iter().find(|p| p.0.round() as u64 == mb) {
                    Some(&(_, measured, predicted)) => {
                        row.push(fmt3(measured));
                        row.push(fmt3(predicted));
                    }
                    None => {
                        row.push("-".to_string());
                        row.push("-".to_string());
                    }
                }
            }
            row
        })
        .collect();
    println!("{}", format_table(&headers, &rows));
}

/// Figs. 7 / 8: histograms of absolute prediction errors.
fn fig7or8(study: &PaperStudy, host: bool) {
    let (caption, report, bins) = if host {
        (
            "Fig. 7: error histogram for execution-time predictions on the host",
            &study.models.host_accuracy,
            ErrorHistogram::paper_host_bins(),
        )
    } else {
        (
            "Fig. 8: error histogram for execution-time predictions on the device",
            study.models.device_accuracy(),
            ErrorHistogram::paper_device_bins(),
        )
    };
    let histogram = report.histogram(bins);
    println!("{caption}");
    let headers = vec!["Absolute error ≤ [s]".to_string(), "Frequency".to_string()];
    let mut rows: Vec<Vec<String>> = histogram
        .upper_bounds()
        .iter()
        .zip(histogram.counts())
        .map(|(bound, count)| vec![format!("{bound}"), count.to_string()])
        .collect();
    rows.push(vec![
        "(larger)".to_string(),
        histogram.overflow().to_string(),
    ]);
    println!("{}", format_table(&headers, &rows));
    println!("total predictions evaluated: {}\n", histogram.total());
}

/// Tables IV / V: prediction accuracy per thread count.
fn table4or5(study: &PaperStudy, host: bool) {
    let (caption, report) = if host {
        (
            "Table IV: prediction accuracy for the host",
            &study.models.host_accuracy,
        )
    } else {
        (
            "Table V: prediction accuracy for the device",
            study.models.device_accuracy(),
        )
    };
    let by_threads = report.by_threads();
    let mut headers = vec!["Threads".to_string()];
    headers.extend(by_threads.iter().map(|(t, _, _)| t.to_string()));
    headers.push("avg".to_string());
    let absolute_row = {
        let mut row = vec!["absolute [s]".to_string()];
        row.extend(by_threads.iter().map(|(_, abs, _)| fmt3(*abs)));
        row.push(fmt3(report.mean_absolute_error()));
        row
    };
    let percent_row = {
        let mut row = vec!["percent [%]".to_string()];
        row.extend(by_threads.iter().map(|(_, _, pct)| fmt3(*pct)));
        row.push(fmt3(report.mean_percent_error()));
        row
    };
    println!("{caption}");
    println!("{}", format_table(&headers, &[absolute_row, percent_row]));
}

/// Section III-B: cross-validated prediction error of each candidate model family on
/// the training campaign, host and every accelerator (boosted trees are the paper's
/// choice).
fn model_selection(scale: Scale, seed: u64) {
    let platform = HeterogeneousPlatform::emil_with_seed(seed);
    let comparison = ModelComparison::run(
        &platform,
        &scale.campaign(),
        scale.boosting(),
        MODEL_SELECTION_FOLDS,
        seed,
    )
    .unwrap_or_else(|err| {
        eprintln!("error: model comparison failed: {err}");
        std::process::exit(1);
    });
    let mut sides = vec![("host".to_string(), &comparison.host)];
    for (index, scores) in comparison.devices.iter().enumerate() {
        let label = if comparison.devices.len() == 1 {
            "device".to_string()
        } else {
            format!("device {index}")
        };
        sides.push((label, scores));
    }
    let mut headers = vec!["Model".to_string()];
    for (label, _) in &sides {
        headers.push(format!("{label} MAPE [%]"));
        headers.push(format!("{label} RMSE [s]"));
    }
    let rows: Vec<Vec<String>> = (0..comparison.host.len())
        .map(|family| {
            let mut row = vec![comparison.host[family].family.to_string()];
            for (_, scores) in &sides {
                row.push(fmt3(scores[family].mape));
                row.push(fmt3(scores[family].rmse));
            }
            row
        })
        .collect();
    println!(
        "Section III-B: {MODEL_SELECTION_FOLDS}-fold cross-validated prediction error per \
         model family"
    );
    println!("{}", format_table(&headers, &rows));
}

/// Fig. 9: per-genome convergence of SAML/SAM towards the EM optimum.
fn fig9(study: &PaperStudy) {
    for genome in study.convergence.cases.iter().filter_map(|c| c.genome) {
        let series = study
            .convergence
            .figure9_series(genome)
            .expect("series exists for every genome of the study");
        println!(
            "Fig. 9 ({genome}): execution time [s] of the configuration suggested after N iterations"
        );
        let headers = vec![
            "Iterations".to_string(),
            "SAML".to_string(),
            "SAM".to_string(),
            "GAML".to_string(),
            "EM".to_string(),
            "EML".to_string(),
        ];
        let rows: Vec<Vec<String>> = series
            .budgets
            .iter()
            .enumerate()
            .map(|(i, b)| {
                vec![
                    b.to_string(),
                    fmt3(series.saml[i]),
                    fmt3(series.sam[i]),
                    fmt3(series.gaml[i]),
                    fmt3(series.em),
                    fmt3(series.eml),
                ]
            })
            .collect();
        println!("{}", format_table(&headers, &rows));
    }
}

/// `bench-enumeration`: measure the enumeration fast path and write the
/// `BENCH_enumeration.json` perf-trajectory artifact (one JSON object per run,
/// suitable for diffing across commits in CI).
///
/// The direct-vs-factorized measurement is `wd_bench::measure_fast_path` — the same
/// code the `enumeration_fast_path` criterion bench runs, on the same grid at paper
/// scale, so the JSON trajectory and the bench numbers describe one experiment.
fn bench_enumeration(scale: Scale) {
    use std::time::Instant;
    use wd_bench::{measure_fast_path, two_accel_bench_grid};
    use wd_opt::{MaterializedOnly, ParallelEnumeration, SearchSpace};

    let platform = HeterogeneousPlatform::emil_with_gpu();
    let models = TrainingCampaign::reduced_for(&platform).run(&platform, scale.boosting());

    // 2-accelerator EML grid: quick shrinks it, paper uses the bench grid
    let grid = match scale {
        Scale::Quick => ConfigurationSpace::tiny_multi(),
        Scale::Paper => two_accel_bench_grid(),
    };
    let m = measure_fast_path(&models, Genome::Human.workload(), &grid);

    // lazy vs. materialized streaming on the Table-I grid, cheap objective
    let table1 = ConfigurationSpace::enumeration_grid();
    let cheap = |config: &hetero_autotune::SystemConfiguration| {
        f64::from(config.host_threads) + f64::from(config.host_permille()) * 1e-3
    };
    let start = Instant::now();
    let lazy = ParallelEnumeration::new().run_indexed(&table1, &cheap);
    let t_lazy = start.elapsed();
    let start = Instant::now();
    let materialized =
        ParallelEnumeration::new().run_indexed(&MaterializedOnly::new(&table1), &cheap);
    let t_materialized = start.elapsed();
    assert_eq!(lazy.best_index, materialized.best_index);

    let json = format!(
        "{{\n  \"schema\": \"bench-enumeration/v1\",\n  \"scale\": \"{}\",\n  \
         \"tabulated_vs_direct\": {{\n    \"grid_configs\": {},\n    \
         \"direct_ms\": {:.3},\n    \"tabulated_ms\": {:.3},\n    \
         \"model_queries_direct\": {},\n    \
         \"model_queries_tabulated\": {},\n    \
         \"query_reduction\": {:.2},\n    \"identical_best\": {}\n  }},\n  \
         \"lazy_vs_materialized\": {{\n    \"grid_configs\": {},\n    \
         \"lazy_ms\": {:.3},\n    \"materialized_ms\": {:.3}\n  }}\n}}\n",
        if scale == Scale::Paper {
            "paper"
        } else {
            "quick"
        },
        m.grid_configs,
        m.direct.as_secs_f64() * 1e3,
        m.tabulated_total().as_secs_f64() * 1e3,
        m.model_queries_direct,
        m.model_queries_tabulated,
        m.query_reduction(),
        m.identical_best,
        table1.space_len().expect("Table-I grid is indexed"),
        t_lazy.as_secs_f64() * 1e3,
        t_materialized.as_secs_f64() * 1e3,
    );
    print!("{json}");
    std::fs::write("BENCH_enumeration.json", &json)
        .expect("failed to write BENCH_enumeration.json");
    eprintln!("# wrote BENCH_enumeration.json");
    m.assert_fast_path_won();
}

/// `bench-annealing`: measure the incremental annealing fast path and write the
/// `BENCH_annealing.json` perf-trajectory artifact (one JSON object per run,
/// suitable for diffing across commits in CI).
///
/// The measurement is `wd_bench::measure_annealing_fast_path` — the same code the
/// `annealing_fast_path` criterion bench runs — on the 2-accelerator bench space at
/// paper scale (`tiny_multi` + a shorter walk for `--quick`): one SAML trajectory,
/// walked three ways (direct full re-evaluation, eager tables + delta, lazy tables +
/// delta), with bit-identity and the ≥ 5× per-accepted-move query reduction asserted.
fn bench_annealing(scale: Scale, seed: u64) {
    use wd_bench::{measure_annealing_fast_path, two_accel_bench_grid};

    let platform = HeterogeneousPlatform::emil_with_gpu();
    let models = TrainingCampaign::reduced_for(&platform).run(&platform, scale.boosting());
    let (space, iterations) = match scale {
        Scale::Quick => (ConfigurationSpace::tiny_multi(), 300),
        Scale::Paper => (two_accel_bench_grid(), 2000),
    };
    let m =
        measure_annealing_fast_path(&models, Genome::Human.workload(), &space, iterations, seed);

    let json = format!(
        "{{\n  \"schema\": \"bench-annealing/v1\",\n  \"scale\": \"{}\",\n  \
         \"space_configs\": {},\n  \"iterations\": {},\n  \"evaluations\": {},\n  \
         \"accepted_moves\": {},\n  \"direct_ms\": {:.3},\n  \"eager_ms\": {:.3},\n  \
         \"lazy_ms\": {:.3},\n  \"model_queries_direct\": {},\n  \
         \"model_queries_eager\": {},\n  \"model_queries_lazy\": {},\n  \
         \"queries_per_accepted_direct\": {:.3},\n  \
         \"queries_per_accepted_lazy\": {:.3},\n  \"query_reduction\": {:.2},\n  \
         \"identical_trajectories\": {}\n}}\n",
        if scale == Scale::Paper {
            "paper"
        } else {
            "quick"
        },
        m.space_configs,
        m.iterations,
        m.evaluations,
        m.accepted_moves,
        m.direct.as_secs_f64() * 1e3,
        m.eager_total().as_secs_f64() * 1e3,
        m.lazy.as_secs_f64() * 1e3,
        m.model_queries_direct,
        m.model_queries_eager,
        m.model_queries_lazy,
        m.queries_per_accepted_direct(),
        m.queries_per_accepted_lazy(),
        m.query_reduction(),
        m.identical_trajectories,
    );
    print!("{json}");
    std::fs::write("BENCH_annealing.json", &json).expect("failed to write BENCH_annealing.json");
    eprintln!("# wrote BENCH_annealing.json");
    m.assert_fast_path_won();
}

/// `bench-prediction`: measure the flat-forest batch kernels and the GA's
/// incremental-recombination fast path, and write the `BENCH_prediction.json`
/// perf-trajectory artifact (one JSON object per run, suitable for diffing across
/// commits in CI).
///
/// The kernel half is `wd_bench::measure_prediction_kernel` over the shared
/// [`wd_bench::kernel_bench_forest`] ensemble and EML-tabulation-sized batch — the
/// same experiment the `prediction_model` criterion bench's `flat_kernel` group
/// times — asserting bit-identity and the ≥ 2× blocked-over-seed speedup.  The GA
/// half is `wd_bench::measure_genetic_fast_path` on the 2-accelerator bench space
/// (`tiny_multi` + a smaller budget for `--quick`): one GA trajectory, run twice
/// (direct full re-evaluation vs `run_delta` over lazy tables), with bit-identity
/// and the ≥ 5× per-generation query reduction asserted.
fn bench_prediction(scale: Scale, seed: u64) {
    use wd_bench::{
        kernel_bench_forest, measure_genetic_fast_path, measure_prediction_kernel,
        two_accel_bench_grid,
    };

    let (model, batch, width) = kernel_bench_forest();
    let repeats = match scale {
        Scale::Quick => 50,
        Scale::Paper => 200,
    };
    let kernel = measure_prediction_kernel(&model, &batch, width, repeats);

    let platform = HeterogeneousPlatform::emil_with_gpu();
    let models = TrainingCampaign::reduced_for(&platform).run(&platform, scale.boosting());
    let (space, iterations) = match scale {
        Scale::Quick => (ConfigurationSpace::tiny_multi(), 300),
        Scale::Paper => (two_accel_bench_grid(), 2000),
    };
    let ga = measure_genetic_fast_path(&models, Genome::Human.workload(), &space, iterations, seed);

    let simd_ms = kernel
        .simd
        .map(|t| format!("{:.3}", t.as_secs_f64() * 1e3))
        .unwrap_or_else(|| "null".to_string());
    let simd_speedup = kernel
        .simd_speedup()
        .map(|s| format!("{s:.2}"))
        .unwrap_or_else(|| "null".to_string());
    let json = format!(
        "{{\n  \"schema\": \"bench-prediction/v1\",\n  \"scale\": \"{}\",\n  \
         \"kernel\": {{\n    \"rows\": {},\n    \"width\": {},\n    \"trees\": {},\n    \
         \"repeats\": {},\n    \"reference_ms\": {:.3},\n    \"blocked_ms\": {:.3},\n    \
         \"simd_ms\": {},\n    \"blocked_speedup\": {:.2},\n    \"simd_speedup\": {},\n    \
         \"identical\": {}\n  }},\n  \
         \"ga_delta\": {{\n    \"space_configs\": {},\n    \"iterations\": {},\n    \
         \"generations\": {},\n    \"evaluations\": {},\n    \"direct_ms\": {:.3},\n    \
         \"lazy_ms\": {:.3},\n    \"model_queries_direct\": {},\n    \
         \"model_queries_lazy\": {},\n    \"queries_per_generation_direct\": {:.3},\n    \
         \"queries_per_generation_lazy\": {:.3},\n    \"query_reduction\": {:.2},\n    \
         \"identical_trajectories\": {}\n  }}\n}}\n",
        if scale == Scale::Paper {
            "paper"
        } else {
            "quick"
        },
        kernel.rows,
        kernel.width,
        kernel.trees,
        kernel.repeats,
        kernel.reference.as_secs_f64() * 1e3,
        kernel.blocked.as_secs_f64() * 1e3,
        simd_ms,
        kernel.blocked_speedup(),
        simd_speedup,
        kernel.identical,
        ga.space_configs,
        ga.iterations,
        ga.generations,
        ga.evaluations,
        ga.direct.as_secs_f64() * 1e3,
        ga.lazy.as_secs_f64() * 1e3,
        ga.model_queries_direct,
        ga.model_queries_lazy,
        ga.queries_per_generation_direct(),
        ga.queries_per_generation_lazy(),
        ga.query_reduction(),
        ga.identical_trajectories,
    );
    print!("{json}");
    std::fs::write("BENCH_prediction.json", &json).expect("failed to write BENCH_prediction.json");
    eprintln!("# wrote BENCH_prediction.json");
    kernel.assert_fast_path_won();
    ga.assert_fast_path_won();
}

/// `bench-observability`: measure the observability layer's hot-path cost and write
/// the `BENCH_observability.json` perf-trajectory artifact (one JSON object per run,
/// suitable for diffing across commits in CI).
///
/// The measurement is `wd_bench::measure_observability_overhead` — the same code the
/// `observability_overhead` criterion bench runs — on the 2-accelerator bench space
/// at paper scale (`tiny_multi` for `--quick`): one SAML delta walk timed unobserved
/// and under three recorders (disabled `NoopRecorder`, in-memory `Registry`, JSONL
/// exporter to disk), with bit-identity of all four trajectories, a bit-exact replay
/// of the best-energy series from the exporter's file alone, and the < 2 %
/// NoopRecorder overhead bound asserted.  The measurement's headline numbers are
/// also published into the shared `--metrics` registry.
fn bench_observability(scale: Scale, seed: u64, recorder: &dyn Recorder) {
    use wd_bench::{measure_observability_overhead, two_accel_bench_grid};

    let platform = HeterogeneousPlatform::emil_with_gpu();
    let models = TrainingCampaign::reduced_for(&platform).run(&platform, scale.boosting());
    // the walk stays at the bench's 2000 iterations even for --quick (the budget is
    // what the < 2 % bound is quoted against); quick only shrinks space + training
    let (space, repeats) = match scale {
        Scale::Quick => (ConfigurationSpace::tiny_multi(), 15),
        Scale::Paper => (two_accel_bench_grid(), 7),
    };
    let iterations = 2000;
    let m = measure_observability_overhead(
        &models,
        Genome::Human.workload(),
        &space,
        iterations,
        seed,
        repeats,
    );

    let json = format!(
        "{{\n  \"schema\": \"bench-observability/v1\",\n  \"scale\": \"{}\",\n  \
         \"space_configs\": {},\n  \"iterations\": {},\n  \"repeats\": {},\n  \
         \"unobserved_ms\": {:.3},\n  \"noop_ms\": {:.3},\n  \"registry_ms\": {:.3},\n  \
         \"exporter_ms\": {:.3},\n  \"noop_overhead_pct\": {:.3},\n  \
         \"registry_overhead_pct\": {:.3},\n  \"exporter_overhead_pct\": {:.3},\n  \
         \"events_written\": {},\n  \"bytes_written\": {},\n  \
         \"identical_trajectories\": {},\n  \"replay_matches\": {}\n}}\n",
        if scale == Scale::Paper {
            "paper"
        } else {
            "quick"
        },
        m.space_configs,
        m.iterations,
        m.repeats,
        m.unobserved.as_secs_f64() * 1e3,
        m.noop.as_secs_f64() * 1e3,
        m.registry.as_secs_f64() * 1e3,
        m.exporter.as_secs_f64() * 1e3,
        m.noop_overhead() * 100.0,
        m.registry_overhead() * 100.0,
        m.exporter_overhead() * 100.0,
        m.events_written,
        m.bytes_written,
        m.identical_trajectories,
        m.replay_matches,
    );
    print!("{json}");
    std::fs::write("BENCH_observability.json", &json)
        .expect("failed to write BENCH_observability.json");
    eprintln!("# wrote BENCH_observability.json");

    if recorder.enabled() {
        recorder.gauge("bench.observability.noop_overhead", m.noop_overhead());
        recorder.gauge(
            "bench.observability.registry_overhead",
            m.registry_overhead(),
        );
        recorder.gauge(
            "bench.observability.exporter_overhead",
            m.exporter_overhead(),
        );
        recorder.counter("bench.observability.events_written", m.events_written);
        recorder.counter("bench.observability.bytes_written", m.bytes_written);
    }
    m.assert_noop_is_free();
}
