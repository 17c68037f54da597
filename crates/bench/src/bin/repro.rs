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
//! to `PATH` when the run finishes: one span per artifact rendered and a span for the
//! training campaign.

use std::collections::BTreeSet;

use hetero_autotune::experiments::{motivation_experiment, SpeedupBaseline};
use hetero_autotune::report::{fmt2, fmt3, format_table};
use hetero_autotune::{ConfigurationSpace, MethodKind, ModelComparison};
use hetero_platform::{Affinity, DeviceSpec, HeterogeneousPlatform};
use wd_bench::{render_budget_table, render_speedup_table, PaperStudy, Scale};
use wd_ml::ErrorHistogram;
use wd_obs::{FieldValue, Recorder, Registry};

/// The paper's artifacts, in the order `all` regenerates them.
const PAPER_ARTIFACTS: [&str; 15] = [
    "table1", "table2", "table3", "fig2", "fig5", "fig6", "fig7", "fig8", "table4", "table5",
    "fig9", "table6", "table7", "table8", "table9",
];

/// Artifacts `all` leaves out.
const EXTRA_ARTIFACTS: [&str; 1] = ["model-selection"];

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

    // the run's metrics registry: one span per artifact, `--metrics` serializes it
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
    for genome in study.convergence.cases.iter().map(|c| c.genome) {
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
