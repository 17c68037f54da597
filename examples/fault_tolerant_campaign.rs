//! Fault-tolerant sharded campaign: deterministic fault injection, supervised
//! recovery, and a warm resume from a torn store.
//!
//! Runs the paper's EM campaign under a hostile fault schedule — an evaluation
//! error, a shard death, a stalled worker and a torn store append — and shows the
//! supervised runner converging to the **bit-identical** result of a fault-free
//! run, with every supervision decision exported as JSONL telemetry.  Afterwards
//! the store is reopened: each torn half-record the plan fired is skipped (and
//! counted), never half-parsed, and a repeated campaign over the reopened store
//! is answered without a single evaluation and with the same best, bit for bit.
//!
//! ```sh
//! cargo run --release --example fault_tolerant_campaign
//! WD_CHAOS_SEED=7 cargo run --release --example fault_tolerant_campaign
//! ```

use workdist::autotune::{
    campaign_context, ConfigurationSpace, MeasurementEvaluator, MethodKind, SystemConfiguration,
};
use workdist::dist::{
    FailureReason, FaultPlan, JsonlStore, MemoryStore, ResultStore, RetryPolicy, ShardedCampaign,
};
use workdist::dna::Genome;
use workdist::obs::JsonlExporter;
use workdist::opt::CountingObjective;
use workdist::platform::HeterogeneousPlatform;

fn main() {
    let platform = HeterogeneousPlatform::emil();
    let workload = Genome::Human.workload();
    let context = campaign_context(MethodKind::Em, &workload);
    let evaluator = MeasurementEvaluator::new(platform, workload);
    let grid = ConfigurationSpace::enumeration_grid();
    let shards = 4;

    // the chaos schedule is deterministic: same seed, same faults, same recovery
    let seed = std::env::var("WD_CHAOS_SEED")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(7u64); // the default plan covers all four fault kinds
    let faults = FaultPlan::random(seed, shards, 2, 3);
    println!("fault plan (seed {seed}, slot:attempt:after_batches:kind):");
    for event in faults.events() {
        println!("    {event}");
    }

    // the reference: the same campaign with no faults injected
    let reference = ShardedCampaign::new(shards)
        .run(&grid, &evaluator, &MemoryStore::new())
        .expect("fault-free reference campaign");

    let store_path = std::env::temp_dir().join("workdist-fault-tolerant-campaign.jsonl");
    let _ = std::fs::remove_file(&store_path);
    let telemetry_path = std::env::temp_dir().join("workdist-fault-tolerant-telemetry.jsonl");
    let exporter = JsonlExporter::create(&telemetry_path).expect("create telemetry exporter");

    let store: JsonlStore<SystemConfiguration> =
        JsonlStore::open_with_context(&store_path, &context).expect("open the result store");
    let supervised = ShardedCampaign::new(shards)
        .run_supervised_observed(
            &grid,
            &evaluator,
            &store,
            &faults,
            &RetryPolicy::default(),
            &exporter,
            "chaos",
        )
        .expect("supervised campaign");
    exporter.flush().expect("flush telemetry");

    let resilience = supervised.supervision.resilience;
    println!(
        "supervised campaign over {} configurations, {shards} shards:",
        supervised.outcome.evaluations
    );
    println!(
        "    {} attempts, {} retries, {} lease expiries, {} steals, {} dead slot(s)",
        resilience.attempts,
        resilience.retries,
        resilience.lease_expiries,
        resilience.steals,
        supervised.supervision.dead_slots.len()
    );
    println!(
        "    logical clock at {} ticks; {} failed-attempt evaluations were reused from the store",
        supervised.supervision.final_clock, supervised.supervision.failed_stats.misses
    );
    println!(
        "    best {} -> {:.4} s (index {})",
        supervised.outcome.best_config,
        supervised.outcome.best_energy,
        supervised.outcome.best_index
    );
    assert_eq!(supervised.outcome.best_config, reference.best_config);
    assert_eq!(
        supervised.outcome.best_energy.to_bits(),
        reference.best_energy.to_bits(),
        "the supervised result must be bit-identical to the fault-free run"
    );
    println!("    bit-identical to the fault-free reference ✓");
    println!(
        "    telemetry: {} events -> {}",
        exporter.events_written(),
        telemetry_path.display()
    );
    drop(store);

    // warm resume: every torn write the plan fired left one unparseable line,
    // which the reopened store skips; the intact records answer the whole grid
    let torn_writes = supervised
        .supervision
        .attempts
        .iter()
        .filter(|attempt| attempt.failure == Some(FailureReason::TornWrite))
        .count();
    let reopened: JsonlStore<SystemConfiguration> =
        JsonlStore::open_with_context(&store_path, &context).expect("reopen the result store");
    println!(
        "reopened store: {} records, {} torn line(s) skipped ({torn_writes} torn write(s) fired)",
        reopened.len(),
        reopened.skipped_lines()
    );
    assert_eq!(
        reopened.skipped_lines(),
        torn_writes,
        "each fired torn write leaves exactly one skipped line"
    );
    let counting = CountingObjective::new(&evaluator);
    let resumed = ShardedCampaign::new(shards)
        .run(&grid, &counting, &reopened)
        .expect("warm resume campaign");
    assert_eq!(counting.evaluations(), 0, "a warm resume evaluates nothing");
    assert_eq!(resumed.stats.misses, 0);
    assert_eq!(resumed.best_config, reference.best_config);
    assert_eq!(
        resumed.best_energy.to_bits(),
        reference.best_energy.to_bits(),
        "the warm resume must be bit-identical to the fault-free run"
    );
    println!(
        "warm resume: 0 evaluations, {} store hits, bit-identical best ✓",
        resumed.stats.hits
    );
    println!("store: {}", store_path.display());
}
