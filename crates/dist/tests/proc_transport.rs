//! End-to-end tests of the multi-process transport (`ProcCampaign` +
//! `wd-worker`): a real fleet of worker processes, a real `kill -9`
//! mid-campaign, lease fencing of a stalled zombie, and elastic slot counts
//! via a mid-campaign manifest rewrite.  Every scenario must converge to a
//! `CampaignOutcome` bit-identical to a fault-free single-process run, with
//! `ProcCampaign::run_observed` proving through `verification_evaluations`
//! that persisted keys are never re-evaluated.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::Duration;

use wd_dist::proc::{ProcManifest, WorkDir, EXIT_FENCED, RANGES_PER_SLOT};
use wd_dist::{
    read_result_records, CampaignOutcome, ConfigKey, FaultEvent, FaultKind, FaultPlan, JsonlStore,
    MemoryStore, ProcCampaign, ProcOutcome, ResultStore, WorkloadSpec,
};
use wd_obs::{FieldValue, Recorder};
use wd_opt::{Objective, SearchSpace};

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_wd-worker")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wd-proc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bowl(width: u32, height: u32) -> WorkloadSpec {
    WorkloadSpec::GridBowl {
        width,
        height,
        center_x: width / 3,
        center_y: height / 2,
    }
}

/// The fault-free single-process reference every scenario must reproduce
/// bit for bit.
fn reference(spec: &WorkloadSpec, shards: usize, batch: usize) -> CampaignOutcome<(u32, u32)> {
    let store = MemoryStore::new();
    wd_dist::ShardedCampaign::new(shards)
        .with_batch_size(batch)
        .run(&spec.space(), spec, &store)
        .expect("reference campaign")
}

fn assert_bit_identical(
    got: &ProcOutcome,
    reference: &CampaignOutcome<(u32, u32)>,
    spec: &WorkloadSpec,
    work_root: &Path,
) {
    assert_eq!(got.outcome.best_config, reference.best_config);
    assert_eq!(got.outcome.best_index, reference.best_index);
    assert_eq!(
        got.outcome.best_energy.to_bits(),
        reference.best_energy.to_bits()
    );
    assert_eq!(got.outcome.evaluations, reference.evaluations);

    // Every persisted record must carry the exact bits the objective computes.
    let work = WorkDir::new(work_root);
    let (records, torn) = read_result_records(&work.merged()).expect("read merged log");
    assert_eq!(torn, 0, "the coordinator-owned merged log is never torn");
    assert_eq!(records.len(), reference.evaluations);
    for (key, energy) in records {
        let config = <(u32, u32)>::decode_key(&key).expect("stored keys decode");
        assert_eq!(
            energy.to_bits(),
            spec.evaluate(&config).to_bits(),
            "record {key} drifted from the deterministic objective"
        );
    }
}

/// Collects `(scope, kind, fields)` triples so tests can assert on the
/// transport lifecycle events.
type EventRow = (String, String, Vec<(String, String)>);

#[derive(Debug, Default)]
struct CollectingRecorder {
    events: Mutex<Vec<EventRow>>,
}

impl CollectingRecorder {
    fn kinds(&self) -> Vec<String> {
        self.events
            .lock()
            .unwrap()
            .iter()
            .map(|(_, kind, _)| kind.clone())
            .collect()
    }
}

impl Recorder for CollectingRecorder {
    fn event(&self, scope: &str, kind: &str, fields: &[(&str, FieldValue)]) {
        let fields = fields
            .iter()
            .map(|(name, value)| (name.to_string(), format!("{value:?}")))
            .collect();
        self.events
            .lock()
            .unwrap()
            .push((scope.to_string(), kind.to_string(), fields));
    }
}

#[test]
fn fault_free_fleet_matches_the_single_process_reference() {
    let spec = bowl(40, 30);
    let dir = scratch_dir("clean");
    let recorder = CollectingRecorder::default();
    let campaign = ProcCampaign::new(4)
        .with_batch_size(16)
        .with_worker_bin(worker_bin());
    let got = campaign
        .run_observed(&spec, &dir, &recorder, "proc")
        .expect("fleet campaign");

    // 4 slots * RANGES_PER_SLOT ranges, all spawned as real processes.
    assert!(got.report.spawned >= 4, "report: {:?}", got.report);
    assert_eq!(got.report.spawned, got.report.completed);
    assert_eq!(got.report.failed_attempts, 0);
    assert_eq!(got.report.worker_evaluations, 40 * 30);
    assert_eq!(got.report.verification_evaluations, 0);
    assert_eq!(got.outcome.stats.misses, 0);

    let kinds = recorder.kinds();
    assert!(kinds.iter().any(|k| k == "worker.spawned"));
    assert!(kinds.iter().any(|k| k == "worker.exited"));
    assert!(kinds.iter().any(|k| k == "merged"));

    assert_bit_identical(&got, &reference(&spec, 4, 16), &spec, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_resume_finishes_every_range_without_a_spawn() {
    let spec = bowl(36, 20); // 720 configurations, 12 ranges of 60
    let dir = scratch_dir("warm");
    let slots = 3;
    let campaign = ProcCampaign::new(slots)
        .with_batch_size(16)
        .with_worker_bin(worker_bin());
    let cold = campaign.run(&spec, &dir).expect("cold campaign");
    assert_eq!(cold.report.durable_ranges, 0);
    assert_eq!(cold.report.worker_evaluations, 720);

    let work = WorkDir::new(&dir);
    let pids = std::fs::read_to_string(work.pids()).expect("pids ledger");
    let (records, _) = read_result_records(&work.merged()).expect("read merged log");

    // Every key is durable: the coordinator finishes each queued range from
    // its store index, spawning nothing and evaluating nothing.
    let recorder = CollectingRecorder::default();
    let warm = campaign
        .run_observed(&spec, &dir, &recorder, "proc")
        .expect("warm resume");
    assert_eq!(warm.report.spawned, 0, "report: {:?}", warm.report);
    assert_eq!(warm.report.durable_ranges, slots * RANGES_PER_SLOT);
    assert_eq!(warm.report.worker_evaluations, 0);
    assert_eq!(warm.report.verification_evaluations, 0);
    assert_eq!(
        std::fs::read_to_string(work.pids()).expect("pids ledger"),
        pids
    );
    let durable_events = recorder
        .kinds()
        .iter()
        .filter(|kind| *kind == "range.durable")
        .count();
    assert_eq!(durable_events, slots * RANGES_PER_SLOT);

    assert_bit_identical(&warm, &reference(&spec, slots, 16), &spec, &dir);
    let (resumed, _) = read_result_records(&work.merged()).expect("read merged log");
    assert_eq!(resumed.len(), records.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partially_durable_store_evaluates_only_the_missing_keys() {
    let spec = bowl(40, 27); // 1080 configurations, 12 ranges of 90
    let dir = scratch_dir("partial");
    let work = WorkDir::new(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    // Every 3rd key is durable before the campaign starts, so each range's
    // skip file holds dozens of one-index runs.
    let space = spec.space();
    let total = 40 * 27;
    let prepopulated = {
        let store: JsonlStore<(u32, u32)> =
            JsonlStore::open_with_context(work.merged(), &spec.encode()).expect("open merged");
        let mut count = 0;
        for index in (0..total).step_by(3) {
            let config = space.config_at(index).expect("index in range");
            store.record(&config, spec.evaluate(&config));
            count += 1;
        }
        store.flush().expect("flush merged");
        count
    };

    let got = ProcCampaign::new(3)
        .with_batch_size(8)
        .with_worker_bin(worker_bin())
        .run(&spec, &dir)
        .expect("campaign over a partially durable store");
    assert_eq!(got.report.worker_evaluations, total - prepopulated);
    assert_eq!(got.report.salvaged_records, total - prepopulated);
    assert_eq!(got.report.durable_ranges, 0);
    assert_eq!(got.report.verification_evaluations, 0);

    assert_bit_identical(&got, &reference(&spec, 3, 8), &spec, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_dash_nine_mid_campaign_recovers_bit_identically() {
    let spec = bowl(48, 25); // 1200 configurations, 12 ranges of 100
    let dir = scratch_dir("kill9");
    // Slot 1's first attempt stalls indefinitely after 2 durable batches; the
    // test then delivers a real `kill -9` to that process.  The staleness
    // horizon is kept far away so the kill (not a lease fence) is what the
    // coordinator observes.
    let campaign = ProcCampaign::new(3)
        .with_batch_size(8)
        .with_worker_bin(worker_bin())
        .with_faults(FaultPlan::from_events(vec![FaultEvent {
            slot: 1,
            attempt: 0,
            after_batches: 2,
            kind: FaultKind::Stall,
        }]))
        .with_stall_ms(30_000)
        .with_timing(
            Duration::from_millis(10),
            Duration::from_secs(8),
            Duration::from_millis(5),
        );

    let work = WorkDir::new(&dir);
    let pids_path = work.pids();
    let killer = std::thread::spawn(move || {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if std::time::Instant::now() > deadline {
                panic!("no slot-1 worker appeared in {}", pids_path.display());
            }
            if let Ok(text) = std::fs::read_to_string(&pids_path) {
                if let Some(pid) = text.lines().find_map(|line| {
                    let mut parts = line.split(' ');
                    (parts.next() == Some("1")).then(|| parts.nth(1))?
                }) {
                    // Give the worker time to reach its stall point, then
                    // deliver the uncatchable signal.
                    std::thread::sleep(Duration::from_millis(300));
                    let status = Command::new("kill")
                        .args(["-9", pid])
                        .status()
                        .expect("spawn kill");
                    assert!(status.success(), "kill -9 {pid} failed");
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    let got = campaign
        .run(&spec, &dir)
        .expect("campaign survives kill -9");
    killer.join().expect("killer thread");

    // The killed attempt had exactly 2 batches (16 records) durable; those are
    // salvaged and never re-evaluated, the remaining 84 are re-run by the
    // respawned worker.  Nothing else fails.
    assert!(got.report.respawned >= 1, "report: {:?}", got.report);
    assert!(got.report.failed_attempts >= 1);
    assert_eq!(got.report.worker_evaluations, 1200 - 16);
    assert!(got.report.salvaged_records >= 16);
    assert_eq!(got.report.verification_evaluations, 0);

    assert_bit_identical(&got, &reference(&spec, 3, 8), &spec, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fenced_zombie_abandons_without_clobbering_committed_records() {
    let spec = bowl(30, 20); // 600 configurations, 12 ranges of 50
    let dir = scratch_dir("zombie");
    // Slot 0's first attempt stalls past the staleness horizon: the
    // coordinator rotates the grant's generation (the fencing token), salvages
    // the partial segment, and re-queues the range.  The zombie wakes with the
    // old token, must observe the mismatch, and exit EXIT_FENCED having
    // written nothing after the fence.
    let campaign = ProcCampaign::new(3)
        .with_batch_size(5)
        .with_worker_bin(worker_bin())
        .with_faults(FaultPlan::from_events(vec![FaultEvent {
            slot: 0,
            attempt: 0,
            after_batches: 1,
            kind: FaultKind::Stall,
        }]))
        .with_stall_ms(1_200)
        .with_timing(
            Duration::from_millis(20),
            Duration::from_millis(250),
            Duration::from_millis(10),
        );
    let recorder = CollectingRecorder::default();
    let got = campaign
        .run_observed(&spec, &dir, &recorder, "proc")
        .expect("campaign survives the zombie");

    assert!(got.report.fenced >= 1, "report: {:?}", got.report);
    assert!(
        got.report.fenced_exits >= 1,
        "the zombie must observe the rotated token and exit {EXIT_FENCED}: {:?}",
        got.report
    );
    assert!(got.report.worker_evaluations <= 600);
    assert_eq!(got.report.verification_evaluations, 0);
    assert!(recorder.kinds().iter().any(|k| k == "worker.fenced"));

    assert_bit_identical(&got, &reference(&spec, 3, 5), &spec, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_rewrite_grows_the_fleet_mid_campaign() {
    let spec = bowl(40, 40); // 1600 configurations, 8 ranges of 200
    let dir = scratch_dir("elastic");
    // Both initial slots stall briefly (no fence — the horizon is far away),
    // pinning six ranges in the queue; a mid-campaign manifest rewrite then
    // raises the slot count and the new slots must pull that queued work.
    let campaign = ProcCampaign::new(2)
        .with_batch_size(2)
        .with_worker_bin(worker_bin())
        .with_faults(FaultPlan::from_events(vec![
            FaultEvent {
                slot: 0,
                attempt: 0,
                after_batches: 0,
                kind: FaultKind::Stall,
            },
            FaultEvent {
                slot: 1,
                attempt: 0,
                after_batches: 0,
                kind: FaultKind::Stall,
            },
        ]))
        .with_stall_ms(500)
        .with_timing(
            Duration::from_millis(10),
            Duration::from_secs(10),
            Duration::from_millis(5),
        );

    let work = WorkDir::new(&dir);
    let manifest_path = work.manifest();
    let grower = std::thread::spawn(move || {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !manifest_path.exists() {
            assert!(
                std::time::Instant::now() < deadline,
                "manifest never appeared"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(120));
        ProcManifest::rewrite_slots(&manifest_path, 5).expect("rewrite slots");
    });

    let got = campaign.run(&spec, &dir).expect("elastic campaign");
    grower.join().expect("grower thread");

    // Slots 2.. only exist after the rewrite; seeing one in the spawn ledger
    // proves the coordinator picked up the new capacity mid-campaign.
    let pids = std::fs::read_to_string(work.pids()).expect("pids ledger");
    let grew = pids.lines().any(|line| {
        line.split(' ')
            .next()
            .and_then(|slot| slot.parse::<usize>().ok())
            .is_some_and(|slot| slot >= 2)
    });
    assert!(grew, "no worker ever ran on an elastic slot:\n{pids}");
    assert_eq!(got.report.verification_evaluations, 0);

    assert_bit_identical(&got, &reference(&spec, 2, 2), &spec, &dir);
    let _ = std::fs::remove_dir_all(&dir);
}
