//! `proc-resume`: the crash-proof campaign machinery with almost no compute.
//! One operation is a fault-free `ProcCampaign` with two worker slots over a
//! seeded `GridBowl` of 60 000 points: first a cold campaign into an empty
//! work directory (segment appends, then salvage into the merged `JsonlStore`),
//! then a warm resume on the same directory (every worker loads the merged
//! log and re-evaluates nothing).
//!

use std::path::{Path, PathBuf};
use std::time::Instant;

use wd_dist::proc::WorkDir;
use wd_dist::{
    read_result_records, CampaignOutcome, MemoryStore, ProcCampaign, ProcReport, ShardedCampaign,
    WorkloadSpec,
};
use wd_obs::{NoopRecorder, Recorder};

use crate::probe::WorkerClock;
use crate::util::{median, overhead_pct, peak_rss_mb, percentile, Report, SplitMix};

/// 60 000 points: a worker loads the merged log before its first heartbeat,
/// and that load must stay well inside the 400 ms heartbeat horizon even on a
/// loaded host (at ~400 k points fault-free workers get fenced).
const WIDTH: u32 = 300;
const HEIGHT: u32 = 200;
const SLOTS: usize = 2;
/// `ProcCampaign`'s default batch, which its verification pass also uses.
const BATCH: usize = 64;
const SETUP_REPEATS: usize = 15;
/// Cold + warm pairs timed per run at least, whatever `--seconds` says.
const MIN_PAIRS: usize = 3;
/// Untraced and traced pairs of a `--trace 1` run (each, alternating).
const TRACED_PAIRS: usize = 5;

fn spec(seed: u64) -> WorkloadSpec {
    let mut rng = SplitMix::new(seed ^ 0x7072_6f63_2d72_6573);
    WorkloadSpec::GridBowl {
        width: WIDTH,
        height: HEIGHT,
        center_x: rng.below(u64::from(WIDTH)) as u32,
        center_y: rng.below(u64::from(HEIGHT)) as u32,
    }
}

fn same_outcome(got: &CampaignOutcome<(u32, u32)>, want: &CampaignOutcome<(u32, u32)>) -> bool {
    got.best_config == want.best_config
        && got.best_index == want.best_index
        && got.best_energy.to_bits() == want.best_energy.to_bits()
        && got.evaluations == want.evaluations
}

/// One cold campaign plus its warm resume, with the merged log's load time
/// measured in between.
struct Pair {
    cold_s: f64,
    warm_s: f64,
    load_s: f64,
    records: usize,
    bytes: u64,
    reports: [ProcReport; 2],
}

struct Fleet {
    spec: WorkloadSpec,
    reference: CampaignOutcome<(u32, u32)>,
    worker_bin: PathBuf,
}

impl Fleet {
    fn campaign(
        &self,
        dir: &Path,
        warm: bool,
        recorder: &dyn Recorder,
        report: &mut Report,
    ) -> Option<ProcReport> {
        let phase = if warm { "warm" } else { "cold" };
        report.attempted += 1;
        let result = ProcCampaign::new(SLOTS)
            .with_batch_size(BATCH)
            .with_worker_bin(&self.worker_bin)
            .run_observed(&self.spec, dir, recorder, "proc");
        match result {
            Ok(got) => {
                report.attempted += got.report.spawned as u64;
                report.failed += got.report.failed_attempts as u64;
                report.check(same_outcome(&got.outcome, &self.reference), || {
                    format!("proc-resume: {phase} outcome differs from the in-process campaign")
                });
                report.check(got.report.verification_evaluations == 0, || {
                    format!(
                        "proc-resume: {phase} verification re-evaluated {} keys",
                        got.report.verification_evaluations
                    )
                });
                if warm {
                    report.check(got.report.worker_evaluations == 0, || {
                        format!(
                            "proc-resume: warm workers re-evaluated {} keys",
                            got.report.worker_evaluations
                        )
                    });
                }
                Some(got.report)
            }
            Err(err) => {
                report.check(false, || format!("proc-resume: {phase} campaign: {err}"));
                None
            }
        }
    }

    fn pair(&self, dir: &Path, recorder: &dyn Recorder, report: &mut Report) -> Option<Pair> {
        let _ = std::fs::remove_dir_all(dir);
        let started = Instant::now();
        let cold = self.campaign(dir, false, recorder, report);
        let cold_s = started.elapsed().as_secs_f64();

        let merged = WorkDir::new(dir).merged();
        let started = Instant::now();
        let loaded = read_result_records(&merged);
        let load_s = started.elapsed().as_secs_f64();
        let bytes = std::fs::metadata(&merged).map(|m| m.len()).unwrap_or(0);
        let records = match loaded {
            Ok((records, torn)) => {
                report.check(torn == 0, || {
                    format!("proc-resume: merged log has {torn} torn lines")
                });
                records.len()
            }
            Err(err) => {
                report.check(false, || {
                    format!("proc-resume: reading the merged log: {err}")
                });
                0
            }
        };
        report.check(records == self.reference.evaluations, || {
            format!(
                "proc-resume: merged log holds {records} records, expected {}",
                self.reference.evaluations
            )
        });

        let started = Instant::now();
        let warm = self.campaign(dir, true, recorder, report);
        let warm_s = started.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(dir);
        Some(Pair {
            cold_s,
            warm_s,
            load_s,
            records,
            bytes,
            reports: [cold?, warm?],
        })
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, work_root: &Path) -> Report {
    let mut report = Report::default();
    let spec = spec(seed);
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut reference = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let outcome = ShardedCampaign::new(SLOTS).with_batch_size(BATCH).run(
            &spec.space(),
            &spec,
            &MemoryStore::new(),
        );
        setup.push(started.elapsed().as_secs_f64());
        reference = Some(outcome);
    }
    let reference = match reference {
        Some(Ok(outcome)) => outcome,
        Some(Err(err)) => {
            report.check(false, || format!("proc-resume: reference campaign: {err}"));
            return report;
        }
        None => return report,
    };
    let worker_bin = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("perfbench-worker"),
        Err(err) => {
            report.check(false, || format!("proc-resume: locating the worker: {err}"));
            return report;
        }
    };
    let fleet = Fleet {
        spec,
        reference,
        worker_bin,
    };
    let dir = work_root.join("campaign");

    // a traced run alternates untraced and traced pairs, so drift hits both alike
    let clock = WorkerClock::default();
    let mut pairs = Vec::new();
    let mut traced = Vec::new();
    let loop_started = Instant::now();
    loop {
        let done = if trace {
            pairs.len() >= TRACED_PAIRS
        } else {
            pairs.len() >= MIN_PAIRS && loop_started.elapsed().as_secs_f64() >= seconds
        };
        // a campaign that errs or fails a check is already counted; stop
        // rather than retry it (a retried worker attempt is not an error)
        if done || !report.correct() {
            break;
        }
        let Some(pair) = fleet.pair(&dir, &NoopRecorder, &mut report) else {
            break;
        };
        pairs.push(pair);
        if trace {
            if let Some(pair) = fleet.pair(&dir, &clock, &mut report) {
                traced.push(pair);
            }
        }
    }
    let loop_s = loop_started.elapsed().as_secs_f64();
    let times: Vec<f64> = pairs.iter().map(|p| p.cold_s + p.warm_s).collect();
    let cold: Vec<f64> = pairs.iter().map(|p| p.cold_s).collect();
    let warm: Vec<f64> = pairs.iter().map(|p| p.warm_s).collect();
    report.detail("campaign_s", median(&cold), "s");
    report.detail("resume_s", median(&warm), "s");
    report.detail("error_rate", report.error_rate(), "ratio");

    if !trace {
        report.metric("setup_s", median(&setup), "s");
        report.metric("op_p50_ms", 1e3 * median(&times), "ms");
        report.metric("op_p90_ms", 1e3 * percentile(&times, 90.0), "ms");
        report.metric("ops_per_s", pairs.len() as f64 / loop_s, "1/s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return report;
    }

    let n = traced.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Pair) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let counter =
        |f: &dyn Fn(&ProcReport) -> usize| mean(&|p| p.reports.iter().map(f).sum::<usize>() as f64);
    report.layer("store.load_s", mean(&|p| p.load_s));
    report.layer("store.records", mean(&|p| p.records as f64));
    report.layer("store.bytes", mean(&|p| p.bytes as f64));
    report.layer("proc.spawned", counter(&|r| r.spawned));
    report.layer("proc.failed_attempts", counter(&|r| r.failed_attempts));
    report.layer("proc.fenced", counter(&|r| r.fenced));
    report.layer("proc.salvaged_records", counter(&|r| r.salvaged_records));
    report.layer(
        "proc.worker_evaluations",
        counter(&|r| r.worker_evaluations),
    );
    report.layer(
        "proc.verification_evaluations",
        counter(&|r| r.verification_evaluations),
    );
    report.layer("proc.worker_s", clock.seconds() / n);
    report.layer("proc.cold_s", mean(&|p| p.cold_s));
    report.layer("proc.warm_s", mean(&|p| p.warm_s));
    let traced_times: Vec<f64> = traced.iter().map(|p| p.cold_s + p.warm_s).collect();
    report.layer(
        "obs.trace_overhead_pct",
        overhead_pct(median(&traced_times), median(&times)),
    );
    report
}
