//! End-to-end tests of the observability layer through the `workdist` facade:
//!
//! * observing a method run never perturbs it — `MethodRunner::run_observed` is
//!   bit-identical to `MethodRunner::run` for every method, recorder or not;
//! * the telemetry a run publishes into a `Registry` is complete enough to audit the
//!   run (per-method span, cache/table counters, execution-stat gauges, iteration
//!   summaries), and the uncached EM/EML enumerations still publish their
//!   `cache.hits`/`cache.misses` counters as exact `{0, |grid|}` values;
//! * a `JsonlExporter` file alone — no in-process state — reconstructs each
//!   method's best-energy series and full optimization trace, bit for bit.

use workdist::autotune::{ConfigurationSpace, MethodKind, MethodRunner, TrainingCampaign};
use workdist::dna::Genome;
use workdist::ml::BoostingParams;
use workdist::obs::{EventLog, JsonlExporter, Registry};
use workdist::opt::OptimizationTrace;
use workdist::platform::HeterogeneousPlatform;

const METHODS: [MethodKind; 5] = [
    MethodKind::Em,
    MethodKind::Eml,
    MethodKind::Sam,
    MethodKind::Saml,
    MethodKind::Gaml,
];
const BUDGET: usize = 300;

fn setup() -> (HeterogeneousPlatform, workdist::autotune::TrainedModels) {
    let platform = HeterogeneousPlatform::emil();
    let models = TrainingCampaign::reduced().run(&platform, BoostingParams::fast());
    (platform, models)
}

#[test]
fn observed_runs_are_bit_identical_for_every_method() {
    let (platform, models) = setup();
    let workload = Genome::Cat.workload();
    let runner = MethodRunner::new(&platform, &workload, Some(&models), 11)
        .with_grid(ConfigurationSpace::tiny())
        .with_space(ConfigurationSpace::tiny());

    for method in METHODS {
        let plain = runner.run(method, BUDGET).unwrap();
        let registry = Registry::new();
        let observed = runner.run_observed(method, BUDGET, &registry).unwrap();

        assert_eq!(observed.best_config, plain.best_config, "{method:?}");
        assert_eq!(
            observed.search_energy.to_bits(),
            plain.search_energy.to_bits(),
            "{method:?}"
        );
        assert_eq!(
            observed.measured_energy.to_bits(),
            plain.measured_energy.to_bits(),
            "{method:?}"
        );
        assert_eq!(observed.evaluations, plain.evaluations, "{method:?}");
        assert_eq!(observed.cache, plain.cache, "{method:?}");
        assert_eq!(observed.stats, plain.stats, "{method:?}");
        assert_eq!(
            observed.trace.records(),
            plain.trace.records(),
            "{method:?}"
        );

        // the run left its span on the registry, under the lowercase method name
        let scope = method.name().to_ascii_lowercase();
        let snapshot = registry.snapshot();
        let span = snapshot
            .spans
            .get(&format!("{scope}.run"))
            .unwrap_or_else(|| panic!("no {scope}.run span recorded"));
        assert_eq!(span.count, 1);
    }
}

#[test]
fn registry_telemetry_is_complete_enough_to_audit_a_saml_run() {
    let (platform, models) = setup();
    let workload = Genome::Cat.workload();
    let runner = MethodRunner::new(&platform, &workload, Some(&models), 11)
        .with_grid(ConfigurationSpace::tiny())
        .with_space(ConfigurationSpace::tiny());

    let registry = Registry::new();
    let outcome = runner
        .run_observed(MethodKind::Saml, BUDGET, &registry)
        .unwrap();
    let snapshot = registry.snapshot();

    // iteration summary: every trace record was published, best energy bit-exact
    let iterations = snapshot
        .iterations
        .get("saml")
        .expect("saml iteration summary");
    assert_eq!(iterations.count as usize, outcome.trace.len());
    assert_eq!(
        iterations.last_best_energy.to_bits(),
        outcome.search_energy.to_bits()
    );

    // lazy-table counters match the outcome's cache view of the same atomics
    assert_eq!(
        snapshot.counters["saml.lazy.probes"],
        (outcome.cache.hits + outcome.cache.misses) as u64
    );
    assert_eq!(
        snapshot.counters["saml.lazy.model_walks"],
        outcome.cache.misses as u64
    );

    // the final re-measurement's execution breakdown is published as gauges
    assert_eq!(
        snapshot.gauges["saml.exec.host_bytes"],
        outcome.stats.host_bytes as f64
    );
    assert!(snapshot
        .gauges
        .contains_key("saml.exec.device_compute_seconds"));

    // the run span carries the headline numbers of the outcome
    assert_eq!(
        snapshot.gauges["saml.run.iterations"],
        outcome.trace.len() as f64
    );
    assert_eq!(
        snapshot.gauges["saml.run.measured_energy"].to_bits(),
        outcome.measured_energy.to_bits()
    );
}

#[test]
fn enumeration_cache_counters_report_one_miss_per_grid_point() {
    let (platform, models) = setup();
    let workload = Genome::Human.workload();
    let grid = ConfigurationSpace::tiny();
    let points = grid.total_configurations() as u64;
    let runner = MethodRunner::new(&platform, &workload, Some(&models), 5).with_grid(grid.clone());

    for method in [MethodKind::Em, MethodKind::Eml] {
        let registry = Registry::new();
        let outcome = runner.run_observed(method, 0, &registry).unwrap();
        let snapshot = registry.snapshot();
        let scope = method.name().to_ascii_lowercase();

        assert_eq!(
            snapshot.counters[&format!("{scope}.cache.hits")],
            0,
            "{scope}"
        );
        assert_eq!(
            snapshot.counters[&format!("{scope}.cache.misses")],
            points,
            "{scope}"
        );
        assert_eq!(outcome.cache.hits, 0, "{scope}");
        assert_eq!(outcome.cache.misses as u64, points, "{scope}");
        assert_eq!(outcome.evaluations as u64, points, "{scope}");
    }
}

#[test]
fn exporter_file_alone_reconstructs_every_best_energy_series() {
    let (platform, models) = setup();
    let workload = Genome::Human.workload();
    let runner = MethodRunner::new(&platform, &workload, Some(&models), 23)
        .with_grid(ConfigurationSpace::tiny())
        .with_space(ConfigurationSpace::tiny());

    // one "campaign": three observed method runs streaming into a single event file
    let path = std::env::temp_dir().join(format!("wd_obs_e2e_{}.jsonl", std::process::id()));
    let exporter = JsonlExporter::create(&path).expect("create the event file");
    let campaign = [MethodKind::Sam, MethodKind::Saml, MethodKind::Gaml];
    let outcomes: Vec<_> = campaign
        .iter()
        .map(|&method| runner.run_observed(method, BUDGET, &exporter).unwrap())
        .collect();
    exporter.flush().expect("flush the event file");
    drop(exporter);

    // replay from the file alone: nothing of the in-process run survives here
    let log = EventLog::read(&path).expect("read back the event file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(log.skipped_lines, 0, "every line must parse");

    for (method, outcome) in campaign.iter().zip(&outcomes) {
        let scope = method.name().to_ascii_lowercase();

        // best-energy series: bit-for-bit equal to the trace's own series
        let replayed = log.best_energy_series(&scope);
        let expected = outcome.trace.best_energy_series();
        assert_eq!(replayed.len(), expected.len(), "{scope}");
        for (a, b) in replayed.iter().zip(&expected) {
            assert_eq!(a.to_bits(), b.to_bits(), "{scope}");
        }

        // and the full trace reconstructs from the iteration events
        let reconstructed = OptimizationTrace::from_events(&log.iteration_events(&scope));
        assert_eq!(reconstructed.records(), outcome.trace.records(), "{scope}");
    }
}
