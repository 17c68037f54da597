//! Multi-process distributed campaigns: a coordinator that spawns real worker
//! **processes** (the `wd-worker` bin target), hands each one a shard of the
//! enumeration range, and reconciles exclusively through the on-disk file
//! protocol below.  This is the process-transport half of the fault-tolerance
//! story: where [`crate::supervisor`] simulates worker failure on a logical
//! clock inside one process, this module survives a real `kill -9` of any
//! worker at any point.  Both drive the same [`Scheduler`], which makes every
//! queue, retry, steal and abandon decision; this module only moves files,
//! processes and heartbeats, passing elapsed time in backoff ticks.
//!
//! ## On-disk protocol (everything lives under one work directory)
//!
//! * `manifest` — campaign description (workload, slot count, batch size,
//!   total range), header [`PROC_MANIFEST_VERSION`].  Rewritten atomically;
//!   the coordinator re-reads `slots` every poll, so rewriting the manifest
//!   mid-campaign grows or shrinks the worker fleet (**elastic shard counts**).
//! * `merged.jsonl` — the authoritative [`JsonlStore`], opened **only** by the
//!   coordinator (the store's single-writer lock enforces this).  Workers never
//!   read it: the coordinator answers "what is already durable" from the
//!   store's in-memory key index and hands each attempt a `.skip` file.  A
//!   queued range whose every key is already durable is finished on the spot
//!   — no grant, no spawn, no generation bump (a `range.durable` event) — so a
//!   warm resume spawns nothing.
//! * `leases/slot-<i>.lease` — the coordinator-written grant for a slot.  Its
//!   `gen` line is the **fencing token**: a worker that wakes up after the
//!   coordinator has re-issued the slot sees a generation mismatch and
//!   abandons ([`EXIT_FENCED`]) without writing anything further.
//! * `leases/slot-<i>-g<g>.skip` — the durable index runs of the attempt's
//!   range (`start end` lines, sorted and merged), written atomically before
//!   the spawn.  The worker skips exactly these indices; a missing or
//!   malformed skip file is broken input ([`EXIT_USAGE`]), never "nothing
//!   durable".
//! * `leases/slot-<i>-g<g>.beat` — the worker's heartbeat (batches completed),
//!   scoped to slot *and* generation so a zombie's beats never refresh the
//!   replacement's lease.
//! * `segments/seg-<i>-g<g>.jsonl` — the worker's private append log, one per
//!   attempt, so no two processes ever append to the same JSONL file.  The
//!   coordinator **salvages** every segment (clean exit or not) through the
//!   order-independent merge: only keys absent from `merged.jsonl` are copied,
//!   so replayed or duplicated segments are harmless.
//! * `segments/slot-<i>-g<g>.done` — commit marker a worker writes (atomic
//!   rename) after flushing its segment; exit 0 without it is still a failure.
//! * `logs/slot-<i>-g<g>.log` — the worker's stdout/stderr, and `logs/pids` —
//!   one `slot generation pid` line per spawn (the chaos harness reads this to
//!   aim its `kill -9`).
//!
//! ## Why a fenced zombie cannot corrupt the campaign
//!
//! A worker re-reads its grant **before every batch** and writes only to its
//! own generation-scoped segment.  After the coordinator fences a stalled
//! worker (bumps the grant generation), the zombie's next fence check fails
//! and it exits without another write.  The one benign race — a fence landing
//! mid-batch — at worst adds records to the zombie's *own* segment; salvaging
//! that segment is still safe because every process computes the same
//! deterministic energy for a key and the merge only fills absent keys.
//!
//! The final [`CampaignOutcome`] is produced by re-running the in-process
//! [`ShardedCampaign`] over the merged store with a [`CountingObjective`]:
//! bit-identical to a fault-free single-process run by construction, and the
//! counter proves how many configurations had to be re-evaluated (zero when
//! every batch landed; bounded by the interrupted batches otherwise).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use wd_obs::{FieldValue, NoopRecorder, Recorder};
use wd_opt::space::GridSpace;
use wd_opt::{CountingObjective, Objective, SearchSpace, ShardPlan};

use crate::coordinator::{CampaignOutcome, ShardedCampaign};
use crate::error::CampaignError;
use crate::fault::{FaultKind, FaultPlan};
use crate::key::ConfigKey;
use crate::scheduler::{Event, Grant, RetryPolicy, Scheduler, Verdict};
use crate::store::{read_result_records, JsonlStore, ResultStore};

/// Schema header of the campaign manifest file.
pub const PROC_MANIFEST_VERSION: &str = "wd-dist-proc-manifest/v1";

/// Work-queue decomposition factor: the coordinator carves the space into
/// `slots * RANGES_PER_SLOT` ranges rather than one range per slot, so freed
/// slots (including slots added by an elastic manifest rewrite) always have
/// queued ranges to pull, and a lost attempt forfeits a quarter-shard, not a
/// whole shard.
pub const RANGES_PER_SLOT: usize = 4;

/// Environment variable carrying a worker's injected fault:
/// `<kind-code>:<after-batches>[:<stall-ms>]` using [`FaultKind::code`] codes.
pub const WORKER_FAULT_ENV: &str = "WD_WORKER_FAULT";

/// Environment variable overriding where the coordinator finds the `wd-worker`
/// binary (tests pass `env!("CARGO_BIN_EXE_wd-worker")` instead).
pub const WORKER_BIN_ENV: &str = "WD_WORKER_BIN";

/// Worker exit: range completed and the done marker is durable.
pub const EXIT_OK: i32 = 0;
/// Worker exit: unusable arguments or a broken work directory.
pub const EXIT_USAGE: i32 = 2;
/// Worker exit: the grant's fencing token moved on — the worker abandoned its
/// range without writing anything after the mismatch.
pub const EXIT_FENCED: i32 = 3;
/// Worker exit: an injected evaluation error aborted the attempt before the
/// failing batch was recorded.
pub const EXIT_EVAL_ERROR: i32 = 4;

/// A self-describing workload a worker process can reconstruct from one line of
/// the manifest — the process transport cannot ship closures, so the objective
/// must be nameable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// Quadratic bowl over the grid `{0..width} x {0..height}`: energy
    /// `(x - center_x)² + (y - center_y)²`, minimised at the center.  Pure
    /// `f64` arithmetic, so every process computes bit-identical energies; the
    /// bowl's natural energy ties exercise the earliest-index merge rule.
    GridBowl {
        /// Exclusive upper bound of the first coordinate.
        width: u32,
        /// Exclusive upper bound of the second coordinate.
        height: u32,
        /// First coordinate of the minimum.
        center_x: u32,
        /// Second coordinate of the minimum.
        center_y: u32,
    },
}

impl WorkloadSpec {
    /// The search space this workload scans.
    pub fn space(&self) -> GridSpace {
        match *self {
            WorkloadSpec::GridBowl { width, height, .. } => GridSpace { width, height },
        }
    }

    /// One-line text form carried by the manifest (`grid-bowl/WxH/CX,CY`).
    pub fn encode(&self) -> String {
        match *self {
            WorkloadSpec::GridBowl {
                width,
                height,
                center_x,
                center_y,
            } => format!("grid-bowl/{width}x{height}/{center_x},{center_y}"),
        }
    }

    /// Parse [`WorkloadSpec::encode`] output.
    pub fn decode(text: &str) -> Option<WorkloadSpec> {
        let rest = text.strip_prefix("grid-bowl/")?;
        let (dims, center) = rest.split_once('/')?;
        let (width, height) = dims.split_once('x')?;
        let (center_x, center_y) = center.split_once(',')?;
        Some(WorkloadSpec::GridBowl {
            width: width.parse().ok()?,
            height: height.parse().ok()?,
            center_x: center_x.parse().ok()?,
            center_y: center_y.parse().ok()?,
        })
    }
}

impl Objective<(u32, u32)> for WorkloadSpec {
    fn evaluate(&self, config: &(u32, u32)) -> f64 {
        match *self {
            WorkloadSpec::GridBowl {
                center_x, center_y, ..
            } => {
                let dx = f64::from(config.0) - f64::from(center_x);
                let dy = f64::from(config.1) - f64::from(center_y);
                dx * dx + dy * dy
            }
        }
    }
}

/// The campaign manifest: what the fleet is scanning and how it is carved up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcManifest {
    /// The workload every worker reconstructs.
    pub workload: WorkloadSpec,
    /// Worker slot count; the coordinator re-reads this every poll, so
    /// rewriting it mid-campaign resizes the fleet.
    pub slots: usize,
    /// Scan batch size (also the fence-check cadence).
    pub batch: usize,
    /// Total number of configurations (`space_len` of the workload's space).
    pub total: usize,
}

impl ProcManifest {
    /// Serialize and atomically replace the manifest at `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let text = format!(
            "{PROC_MANIFEST_VERSION}\nworkload {}\nslots {}\nbatch {}\ntotal {}\n",
            self.workload.encode(),
            self.slots,
            self.batch,
            self.total
        );
        write_atomic(path, &text)
    }

    /// Read and parse the manifest at `path`.
    pub fn read(path: &Path) -> io::Result<ProcManifest> {
        let text = std::fs::read_to_string(path)?;
        let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if header != PROC_MANIFEST_VERSION {
            return Err(invalid(&format!(
                "manifest header `{header}` is not `{PROC_MANIFEST_VERSION}`"
            )));
        }
        let mut workload = None;
        let mut slots = None;
        let mut batch = None;
        let mut total = None;
        for line in lines {
            match line.split_once(' ') {
                Some(("workload", value)) => workload = WorkloadSpec::decode(value),
                Some(("slots", value)) => slots = value.parse().ok(),
                Some(("batch", value)) => batch = value.parse().ok(),
                Some(("total", value)) => total = value.parse().ok(),
                _ => {}
            }
        }
        Ok(ProcManifest {
            workload: workload.ok_or_else(|| invalid("manifest is missing a usable workload"))?,
            slots: slots.ok_or_else(|| invalid("manifest is missing slots"))?,
            batch: batch.ok_or_else(|| invalid("manifest is missing batch"))?,
            total: total.ok_or_else(|| invalid("manifest is missing total"))?,
        })
    }

    /// Rewrite only the slot count — the elasticity knob a controller (or a
    /// test) turns while the campaign is running.
    pub fn rewrite_slots(path: &Path, slots: usize) -> io::Result<()> {
        let mut manifest = ProcManifest::read(path)?;
        manifest.slots = slots.max(1);
        manifest.write(path)
    }
}

/// Path layout of one campaign's work directory.
#[derive(Debug, Clone)]
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    /// A layout rooted at `root` (nothing is created until
    /// [`WorkDir::create`]).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        WorkDir { root: root.into() }
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The campaign manifest file.
    pub fn manifest(&self) -> PathBuf {
        self.root.join("manifest")
    }

    /// The coordinator-owned merged result store.
    pub fn merged(&self) -> PathBuf {
        self.root.join("merged.jsonl")
    }

    /// The grant (lease + fencing token) for `slot`.
    pub fn grant(&self, slot: usize) -> PathBuf {
        self.root.join(format!("leases/slot-{slot}.lease"))
    }

    /// The heartbeat file for `slot` at `generation`.
    pub fn beat(&self, slot: usize, generation: u64) -> PathBuf {
        self.root
            .join(format!("leases/slot-{slot}-g{generation}.beat"))
    }

    /// The durable index runs the attempt of `slot` at `generation` skips.
    pub fn skip(&self, slot: usize, generation: u64) -> PathBuf {
        self.root
            .join(format!("leases/slot-{slot}-g{generation}.skip"))
    }

    /// The private segment log for `slot` at `generation`.
    pub fn segment(&self, slot: usize, generation: u64) -> PathBuf {
        self.root
            .join(format!("segments/seg-{slot}-g{generation}.jsonl"))
    }

    /// The commit marker for `slot` at `generation`.
    pub fn done(&self, slot: usize, generation: u64) -> PathBuf {
        self.root
            .join(format!("segments/slot-{slot}-g{generation}.done"))
    }

    /// The captured stdout/stderr log for `slot` at `generation`.
    pub fn log(&self, slot: usize, generation: u64) -> PathBuf {
        self.root
            .join(format!("logs/slot-{slot}-g{generation}.log"))
    }

    /// The spawn ledger: one `slot generation pid` line per spawned worker.
    pub fn pids(&self) -> PathBuf {
        self.root.join("logs/pids")
    }

    fn create(&self) -> io::Result<()> {
        for sub in ["leases", "segments", "logs"] {
            std::fs::create_dir_all(self.root.join(sub))?;
        }
        Ok(())
    }
}

/// Replace `path` atomically (write a unique temp file, then rename).
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = PathBuf::from(format!("{}.tmp{}", path.display(), std::process::id()));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Parse a `key value` lines file into a map (first token → rest of line).
fn read_kv(path: &Path) -> io::Result<HashMap<String, String>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter_map(|line| {
            let (key, value) = line.split_once(' ')?;
            Some((key.to_string(), value.to_string()))
        })
        .collect())
}

fn kv_number<T: std::str::FromStr>(kv: &HashMap<String, String>, key: &str) -> Option<T> {
    kv.get(key).and_then(|value| value.parse().ok())
}

/// The indices of one attempt's range whose keys the merged store already
/// holds, as sorted, disjoint, half-open runs with adjacent runs merged — the
/// content of a `.skip` file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SkipRuns {
    runs: Vec<Range<usize>>,
}

impl SkipRuns {
    /// The durable runs of `range`, read from the store's in-memory key index.
    fn durable(space: &GridSpace, store: &JsonlStore<(u32, u32)>, range: &Range<usize>) -> Self {
        let mut skip = SkipRuns::default();
        for index in range.clone() {
            if space
                .config_at(index)
                .is_some_and(|config| store.lookup(&config).is_some())
            {
                skip.extend(index..index + 1);
            }
        }
        skip
    }

    /// Append a run that starts at or after the last one ends.
    fn extend(&mut self, run: Range<usize>) {
        match self.runs.last_mut() {
            Some(last) if last.end == run.start => last.end = run.end,
            _ => self.runs.push(run),
        }
    }

    /// Whether every index of `range` is durable.
    fn covers(&self, range: &Range<usize>) -> bool {
        self.runs.as_slice() == std::slice::from_ref(range)
    }

    fn contains(&self, index: usize) -> bool {
        let pos = self.runs.partition_point(|run| run.end <= index);
        self.runs.get(pos).is_some_and(|run| run.start <= index)
    }

    fn encode(&self) -> String {
        self.runs
            .iter()
            .map(|run| format!("{} {}\n", run.start, run.end))
            .collect()
    }

    /// Parse [`SkipRuns::encode`] output; a line that is not a non-empty run
    /// starting at or after the previous run's end is malformed.
    fn decode(text: &str) -> io::Result<Self> {
        let mut skip = SkipRuns::default();
        for line in text.lines() {
            let run = line.split_once(' ').and_then(|(start, end)| {
                Some(start.parse::<usize>().ok()?..end.parse::<usize>().ok()?)
            });
            match run {
                Some(run)
                    if run.start < run.end
                        && skip.runs.last().is_none_or(|last| last.end <= run.start) =>
                {
                    skip.extend(run);
                }
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("malformed skip run `{line}`"),
                    ))
                }
            }
        }
        Ok(skip)
    }

    fn read(path: &Path) -> io::Result<Self> {
        std::fs::read_to_string(path)
            .and_then(|text| SkipRuns::decode(&text))
            .map_err(|error| io::Error::new(error.kind(), format!("{}: {error}", path.display())))
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

struct WorkerArgs {
    work_dir: PathBuf,
    slot: usize,
    generation: u64,
    range: Range<usize>,
}

fn parse_worker_args(args: &[String]) -> Option<WorkerArgs> {
    let mut work_dir = None;
    let mut slot = None;
    let mut generation = None;
    let mut start = None;
    let mut end = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next()?;
        match flag.as_str() {
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--slot" => slot = value.parse().ok(),
            "--generation" => generation = value.parse().ok(),
            "--start" => start = value.parse().ok(),
            "--end" => end = value.parse().ok(),
            _ => return None,
        }
    }
    Some(WorkerArgs {
        work_dir: work_dir?,
        slot: slot?,
        generation: generation?,
        range: start?..end?,
    })
}

struct WorkerFault {
    kind: FaultKind,
    after_batches: usize,
    stall_ms: u64,
}

impl WorkerFault {
    fn parse(raw: &str) -> Option<WorkerFault> {
        let mut parts = raw.split(':');
        let kind = FaultKind::from_code(parts.next()?)?;
        let after_batches = parts.next()?.parse().ok()?;
        let stall_ms = match parts.next() {
            Some(ms) => ms.parse().ok()?,
            None => 2_000,
        };
        Some(WorkerFault {
            kind,
            after_batches,
            stall_ms,
        })
    }
}

/// Entry point of the `wd-worker` binary: scan the assigned index range,
/// append results to a private generation-scoped segment, and honour the
/// grant's fencing token before every batch.
///
/// Returns the process exit code ([`EXIT_OK`], [`EXIT_USAGE`],
/// [`EXIT_FENCED`], [`EXIT_EVAL_ERROR`]); injected faults
/// ([`WORKER_FAULT_ENV`]) may instead abort the process outright.
pub fn worker_main(args: &[String]) -> i32 {
    match run_worker(args) {
        Ok(code) => code,
        Err(error) => {
            eprintln!("wd-worker: {error}");
            EXIT_USAGE
        }
    }
}

fn run_worker(args: &[String]) -> io::Result<i32> {
    let Some(args) = parse_worker_args(args) else {
        eprintln!("usage: wd-worker --work-dir DIR --slot N --generation G --start A --end B");
        return Ok(EXIT_USAGE);
    };
    let work = WorkDir::new(&args.work_dir);
    let manifest = ProcManifest::read(&work.manifest())?;
    let space = manifest.workload.space();
    // The coordinator's record of what was durable when it granted this
    // attempt: these indices are never re-evaluated, which is what bounds
    // recovery work to interrupted batches.
    let skip = SkipRuns::read(&work.skip(args.slot, args.generation))?;
    let segment: JsonlStore<(u32, u32)> =
        JsonlStore::open(work.segment(args.slot, args.generation))?;
    let mut fault = std::env::var(WORKER_FAULT_ENV)
        .ok()
        .and_then(|raw| WorkerFault::parse(&raw));

    let batch = manifest.batch.max(1);
    let mut evaluations = 0usize;
    let mut records = 0usize;
    let mut batch_index = 0usize;
    let mut index = args.range.start;
    while index < args.range.end {
        // Fencing check first: the grant's generation is the token.  Any
        // mismatch (or an unreadable grant) means the coordinator moved on —
        // abandon without one more write.
        let token: Option<u64> = read_kv(&work.grant(args.slot))
            .ok()
            .and_then(|kv| kv_number(&kv, "gen"));
        if token != Some(args.generation) {
            return Ok(EXIT_FENCED);
        }
        write_atomic(
            &work.beat(args.slot, args.generation),
            &format!("batches {batch_index}\n"),
        )?;

        if fault
            .as_ref()
            .is_some_and(|f| f.after_batches == batch_index)
        {
            // Take the fault so a stall that resumes does not re-trigger.
            if let Some(fault) = fault.take() {
                match fault.kind {
                    FaultKind::ShardDeath => std::process::abort(),
                    FaultKind::EvalError => return Ok(EXIT_EVAL_ERROR),
                    FaultKind::Stall => {
                        // Sleep past the coordinator's staleness horizon, then
                        // loop back to the fence check: the woken zombie must
                        // observe the bumped generation and abandon.
                        std::thread::sleep(Duration::from_millis(fault.stall_ms));
                        continue;
                    }
                    FaultKind::TornWrite => {
                        // A crash mid-`write(2)`: the batch prefix lands, the
                        // last record becomes a truncated line, the process dies.
                        let batch_end = (index + batch).min(args.range.end);
                        let mut configs = Vec::new();
                        for i in index..batch_end {
                            if let Some(config) = space.config_at(i) {
                                if !skip.contains(i) {
                                    configs.push(config);
                                }
                            }
                        }
                        if let Some((last, prefix)) = configs.split_last() {
                            let energies: Vec<f64> = prefix
                                .iter()
                                .map(|config| manifest.workload.evaluate(config))
                                .collect();
                            segment.record_batch(prefix, &energies);
                            segment.inject_torn_write(&last.encode_key());
                        }
                        let _ = segment.flush();
                        std::process::abort();
                    }
                }
            }
        }

        let batch_end = (index + batch).min(args.range.end);
        let mut configs = Vec::new();
        let mut energies = Vec::new();
        for i in index..batch_end {
            let Some(config) = space.config_at(i) else {
                return Ok(EXIT_USAGE);
            };
            if skip.contains(i) {
                continue;
            }
            energies.push(manifest.workload.evaluate(&config));
            evaluations += 1;
            configs.push(config);
        }
        if !configs.is_empty() {
            segment.record_batch(&configs, &energies);
            records += configs.len();
            // Flush per batch so a `kill -9` loses at most the in-flight
            // batch — that is what bounds re-evaluation after a crash.
            segment.flush()?;
        }
        index = batch_end;
        batch_index += 1;
    }

    segment.flush()?;
    write_atomic(
        &work.done(args.slot, args.generation),
        &format!("evaluations {evaluations}\nrecords {records}\n"),
    )?;
    Ok(EXIT_OK)
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// Counters of one multi-process campaign run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcReport {
    /// Worker processes spawned, including respawns.
    pub spawned: usize,
    /// Spawns that were retries or steals (attempt > 0 or a stolen range).
    pub respawned: usize,
    /// Attempts that finished their range and committed a done marker.
    pub completed: usize,
    /// Attempts that failed (crash, kill, injected error, or a fenced stall).
    pub failed_attempts: usize,
    /// Leases the coordinator fenced after heartbeat staleness.
    pub fenced: usize,
    /// Zombies that observed their fence and abandoned on their own
    /// ([`EXIT_FENCED`]).
    pub fenced_exits: usize,
    /// Ranges handed to the steal queue after exhausting per-range retries.
    pub steals: usize,
    /// Slots whose range had to be stolen.
    pub dead_slots: Vec<usize>,
    /// Records copied from worker segments into the merged store.
    pub salvaged_records: usize,
    /// Evaluations workers reported in their done markers.
    pub worker_evaluations: usize,
    /// Evaluations the final verification pass had to perform — `0` proves
    /// every persisted key was honoured and nothing was re-evaluated.
    pub verification_evaluations: usize,
    /// Pending ranges split in half to feed slots added mid-campaign.
    pub elastic_splits: usize,
    /// Queued ranges whose every key was already durable in the merged store,
    /// finished without a grant or a spawn (a warm resume finishes every
    /// range this way).
    pub durable_ranges: usize,
}

/// What a multi-process campaign returns: the merged outcome (bit-identical to
/// a fault-free single-process run) plus the transport's bookkeeping.
#[derive(Debug, Clone)]
pub struct ProcOutcome {
    /// The merged campaign outcome.
    pub outcome: CampaignOutcome<(u32, u32)>,
    /// Transport counters (spawns, fences, steals, salvage, verification).
    pub report: ProcReport,
}

struct LiveWorker {
    slot: usize,
    generation: u64,
    range: Range<usize>,
    fenced: bool,
    child: Child,
    beat_value: Option<u64>,
    beat_changed: Instant,
}

fn shutdown_workers(live: &mut Vec<LiveWorker>) {
    while let Some(mut worker) = live.pop() {
        let _ = worker.child.kill();
        let _ = worker.child.wait();
    }
}

/// Copy every record of `segment` whose key is absent from `store` (the
/// order-independent merge: duplicates are identical by determinism, so
/// first-writer-wins is safe), in sorted-key order for reproducible logs.
fn salvage_segment(store: &JsonlStore<(u32, u32)>, segment: &Path) -> Result<usize, CampaignError> {
    let (records, _torn) = read_result_records(segment).map_err(CampaignError::Transport)?;
    let mut entries: Vec<(String, f64)> = records.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut salvaged = 0;
    for (key, energy) in entries {
        let Some(config) = <(u32, u32)>::decode_key(&key) else {
            continue;
        };
        if store.lookup(&config).is_none() {
            store.record(&config, energy);
            salvaged += 1;
        }
    }
    if salvaged > 0 {
        // The segment's keys count as durable from now on (later grants skip
        // them), so they must be on disk in the merged log before the
        // coordinator acts on them: a coordinator crash cannot lose them.
        store.flush()?;
    }
    Ok(salvaged)
}

/// Write `slot`'s grant file: the lease generation (fencing token) and range.
fn write_grant(
    work: &WorkDir,
    slot: usize,
    generation: u64,
    range: &Range<usize>,
) -> Result<(), CampaignError> {
    write_atomic(
        &work.grant(slot),
        &format!(
            "gen {generation}\nstart {}\nend {}\n",
            range.start, range.end
        ),
    )
    .map_err(CampaignError::Transport)
}

/// Everything one coordinator run drives: the work directory, the merged
/// store, the scheduler, and the live worker processes.
struct Fleet<'a> {
    work: WorkDir,
    space: GridSpace,
    store: JsonlStore<(u32, u32)>,
    worker_bin: PathBuf,
    scheduler: Scheduler<'a>,
    live: Vec<LiveWorker>,
    report: ProcReport,
    recorder: &'a dyn Recorder,
    scope: &'a str,
}

/// A campaign run across real worker processes (see the module docs for the
/// protocol).  The coordinator spawns `wd-worker` children, watches exit
/// statuses and heartbeats, fences stalled leases and salvages every segment;
/// what runs where, and every retry or steal, is the [`Scheduler`]'s decision.
#[derive(Debug, Clone)]
pub struct ProcCampaign {
    shard_count: usize,
    batch_size: usize,
    policy: RetryPolicy,
    faults: FaultPlan,
    worker_bin: Option<PathBuf>,
    tick: Duration,
    stale_after: Duration,
    poll_interval: Duration,
    stall_ms: u64,
    max_duration: Duration,
}

impl ProcCampaign {
    /// A campaign over `shard_count` worker slots with defaults tuned for the
    /// test-scale workloads: 64-config batches, 25 ms backoff tick, 400 ms
    /// heartbeat staleness, 2 s injected stalls, 120 s wall-clock budget.
    pub fn new(shard_count: usize) -> Self {
        ProcCampaign {
            shard_count: shard_count.max(1),
            batch_size: 64,
            policy: RetryPolicy::default(),
            faults: FaultPlan::none(),
            worker_bin: None,
            tick: Duration::from_millis(25),
            stale_after: Duration::from_millis(400),
            poll_interval: Duration::from_millis(10),
            stall_ms: 2_000,
            max_duration: Duration::from_secs(120),
        }
    }

    /// Override the scan batch size (also the fence-check cadence; clamped to
    /// at least 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Override the retry/backoff policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Inject a deterministic fault schedule (delivered to workers through
    /// [`WORKER_FAULT_ENV`], keyed by slot and the slot's cumulative attempt
    /// counter, exactly as in the in-process supervisor: both use the
    /// [`Scheduler`]'s counters).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Pin the worker binary path (tests pass `env!("CARGO_BIN_EXE_wd-worker")`).
    pub fn with_worker_bin(mut self, bin: impl Into<PathBuf>) -> Self {
        self.worker_bin = Some(bin.into());
        self
    }

    /// Override the transport timing: backoff tick, heartbeat staleness
    /// horizon, and coordinator poll interval.
    pub fn with_timing(
        mut self,
        tick: Duration,
        stale_after: Duration,
        poll_interval: Duration,
    ) -> Self {
        self.tick = tick;
        self.stale_after = stale_after;
        self.poll_interval = poll_interval;
        self
    }

    /// Override how long an injected stall sleeps (must exceed the staleness
    /// horizon for the zombie-fencing path to fire).
    pub fn with_stall_ms(mut self, stall_ms: u64) -> Self {
        self.stall_ms = stall_ms;
        self
    }

    /// Override the campaign's wall-clock budget.
    pub fn with_max_duration(mut self, max_duration: Duration) -> Self {
        self.max_duration = max_duration;
        self
    }

    fn resolve_worker_bin(&self) -> io::Result<PathBuf> {
        if let Some(bin) = &self.worker_bin {
            return Ok(bin.clone());
        }
        if let Ok(bin) = std::env::var(WORKER_BIN_ENV) {
            return Ok(PathBuf::from(bin));
        }
        let mut dir = std::env::current_exe()?;
        dir.pop();
        // Examples and test binaries live one level below the profile dir.
        if dir
            .file_name()
            .is_some_and(|name| name == "examples" || name == "deps")
        {
            dir.pop();
        }
        let candidate = dir.join("wd-worker");
        if candidate.exists() {
            return Ok(candidate);
        }
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "wd-worker binary not found at {}; build it with \
                 `cargo build -p wd_dist --bin wd-worker` or set {WORKER_BIN_ENV}",
                candidate.display()
            ),
        ))
    }

    fn grace(&self) -> Duration {
        Duration::from_millis(self.stall_ms) + self.stale_after + Duration::from_millis(500)
    }

    /// Run the campaign in `work_dir` (created if needed), spawning real
    /// worker processes over `spec`'s space.
    ///
    /// # Errors
    ///
    /// [`CampaignError::EmptySpace`] for an empty workload,
    /// [`CampaignError::Transport`] for spawn/lease/manifest I/O failures or a
    /// blown wall-clock budget, [`CampaignError::Store`] for merged-store
    /// failures, and [`CampaignError::RangeAbandoned`] when a range exhausts
    /// every retry and steal.
    pub fn run(
        &self,
        spec: &WorkloadSpec,
        work_dir: impl AsRef<Path>,
    ) -> Result<ProcOutcome, CampaignError> {
        self.run_observed(spec, work_dir, &NoopRecorder, "proc")
    }

    /// [`ProcCampaign::run`] with the transport lifecycle published to
    /// `recorder` under `scope`: `worker.spawned` / `worker.exited` per
    /// process, `worker.fenced` per staleness fence, `worker.respawned` per
    /// retry or steal, `range.durable` (`start`, `len`) per range finished
    /// unspawned because the merged store already held every key, plus the
    /// underlying campaign's own events from the final verification pass.
    pub fn run_observed(
        &self,
        spec: &WorkloadSpec,
        work_dir: impl AsRef<Path>,
        recorder: &dyn Recorder,
        scope: &str,
    ) -> Result<ProcOutcome, CampaignError> {
        let work = WorkDir::new(work_dir.as_ref());
        work.create().map_err(CampaignError::Transport)?;
        let space = spec.space();
        let total = space.space_len().ok_or(CampaignError::NotEnumerable)?;
        if total == 0 {
            return Err(CampaignError::EmptySpace);
        }
        let manifest = ProcManifest {
            workload: spec.clone(),
            slots: self.shard_count,
            batch: self.batch_size,
            total,
        };
        manifest
            .write(&work.manifest())
            .map_err(CampaignError::Transport)?;
        let store: JsonlStore<(u32, u32)> =
            JsonlStore::open_with_context(work.merged(), &spec.encode())?;
        let worker_bin = self
            .resolve_worker_bin()
            .map_err(CampaignError::Transport)?;

        let plan = ShardPlan::new(total, self.shard_count.saturating_mul(RANGES_PER_SLOT));
        let mut fleet = Fleet {
            work,
            space,
            store,
            worker_bin,
            scheduler: Scheduler::new(plan.ranges(), self.shard_count, self.policy, &self.faults),
            live: Vec::new(),
            report: ProcReport::default(),
            recorder,
            scope,
        };
        let driven = self.drive(&mut fleet);
        // Every exit path reaps what is still running (settled zombies, or the
        // whole fleet when the campaign failed).
        shutdown_workers(&mut fleet.live);
        driven?;
        fleet.report.dead_slots = fleet.scheduler.dead_slots();

        fleet.store.flush()?;
        // The verification pass doubles as the merge proof: re-running the
        // in-process campaign over the merged store yields the canonical
        // outcome (bit-identical to a fault-free run by construction), and the
        // counter shows how many keys the fleet failed to persist.
        let counting = CountingObjective::new(spec);
        let outcome = ShardedCampaign::new(self.shard_count)
            .with_batch_size(self.batch_size)
            .run_observed(&fleet.space, &counting, &fleet.store, recorder, scope)?;
        fleet.report.verification_evaluations = counting.evaluations();
        Ok(ProcOutcome {
            outcome,
            report: fleet.report,
        })
    }

    /// The coordinator's poll loop: resize, grant, reap, fence — until every
    /// range is committed and only fenced zombies (if any) remain.
    fn drive(&self, fleet: &mut Fleet<'_>) -> Result<(), CampaignError> {
        let started = Instant::now();
        let tick = self.tick.as_nanos().max(1);
        let mut zombie_grace_since: Option<Instant> = None;
        loop {
            if started.elapsed() > self.max_duration {
                return Err(CampaignError::Transport(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "campaign did not settle within {:?}: {} range(s) still pending",
                        self.max_duration,
                        fleet.scheduler.open()
                    ),
                )));
            }
            let now = u64::try_from(started.elapsed().as_nanos() / tick).unwrap_or(u64::MAX);

            // Elasticity: the manifest's slot count is re-read every poll.
            let slots = ProcManifest::read(&fleet.work.manifest())
                .map(|m| m.slots.max(1))
                .unwrap_or(self.shard_count);
            if slots != fleet.scheduler.fleet() {
                fleet.report.elastic_splits += fleet
                    .scheduler
                    .resize(slots, self.batch_size.saturating_mul(2))?;
            }

            for slot in 0..slots {
                // A range whose every key is already durable is finished by the
                // scheduler on the spot, unspawned.
                let mut skip = SkipRuns::default();
                let grant = fleet.scheduler.next(slot, now, |range| {
                    skip = SkipRuns::durable(&fleet.space, &fleet.store, range);
                    let covered = skip.covers(range);
                    if covered {
                        fleet.report.durable_ranges += 1;
                        fleet.recorder.event(
                            fleet.scope,
                            "range.durable",
                            &[
                                ("start", FieldValue::U64(range.start as u64)),
                                ("len", FieldValue::U64(range.len() as u64)),
                            ],
                        );
                    }
                    covered
                });
                if let Some(grant) = grant {
                    let worker = self.spawn(fleet, &grant, &skip)?;
                    fleet.live.push(worker);
                }
            }

            self.reap(fleet, now)?;

            if fleet.scheduler.is_done() && fleet.live.iter().all(|w| w.fenced) {
                if fleet.live.is_empty() {
                    return Ok(());
                }
                // Only fenced zombies remain.  Give each a grace window to
                // observe the rotated token and abandon on its own (that path
                // is the fencing proof); they are reaped forcibly after that.
                let since = *zombie_grace_since.get_or_insert(Instant::now());
                if since.elapsed() > self.grace() {
                    return Ok(());
                }
            } else {
                zombie_grace_since = None;
            }
            std::thread::sleep(self.poll_interval);
        }
    }

    /// Write the grant and skip files of `grant` and start its worker process.
    fn spawn(
        &self,
        fleet: &mut Fleet<'_>,
        grant: &Grant,
        skip: &SkipRuns,
    ) -> Result<LiveWorker, CampaignError> {
        let work = &fleet.work;
        let (slot, generation) = (grant.slot, grant.generation);
        write_grant(work, slot, generation, &grant.range)?;
        write_atomic(&work.skip(slot, generation), &skip.encode())
            .map_err(CampaignError::Transport)?;
        let log = File::create(work.log(slot, generation)).map_err(CampaignError::Transport)?;
        let err_log = log.try_clone().map_err(CampaignError::Transport)?;
        let mut command = Command::new(&fleet.worker_bin);
        command
            .arg("--work-dir")
            .arg(work.root())
            .arg("--slot")
            .arg(slot.to_string())
            .arg("--generation")
            .arg(generation.to_string())
            .arg("--start")
            .arg(grant.range.start.to_string())
            .arg("--end")
            .arg(grant.range.end.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::from(log))
            .stderr(Stdio::from(err_log));
        if let Some(event) = grant.fault {
            command.env(
                WORKER_FAULT_ENV,
                format!(
                    "{}:{}:{}",
                    event.kind.code(),
                    event.after_batches,
                    self.stall_ms
                ),
            );
        }
        let child = command.spawn().map_err(CampaignError::Transport)?;
        if let Ok(mut pids) = OpenOptions::new()
            .create(true)
            .append(true)
            .open(work.pids())
        {
            let _ = writeln!(pids, "{slot} {generation} {}", child.id());
        }
        let (recorder, scope) = (fleet.recorder, fleet.scope);
        fleet.report.spawned += 1;
        recorder.event(
            scope,
            "worker.spawned",
            &[
                ("slot", FieldValue::U64(slot as u64)),
                ("generation", FieldValue::U64(generation)),
                ("start", FieldValue::U64(grant.range.start as u64)),
                ("len", FieldValue::U64(grant.range.len() as u64)),
                ("attempt", FieldValue::U64(grant.tries as u64)),
            ],
        );
        if grant.tries > 0 || grant.stolen_from.is_some() {
            fleet.report.respawned += 1;
            recorder.event(
                scope,
                "worker.respawned",
                &[
                    ("slot", FieldValue::U64(slot as u64)),
                    ("generation", FieldValue::U64(generation)),
                    ("attempt", FieldValue::U64(grant.tries as u64)),
                    ("stolen", FieldValue::Bool(grant.stolen_from.is_some())),
                ],
            );
        }
        Ok(LiveWorker {
            slot,
            generation,
            range: grant.range.clone(),
            fenced: false,
            child,
            beat_value: None,
            beat_changed: Instant::now(),
        })
    }

    /// Reap exited workers and fence the ones whose heartbeat went stale,
    /// reporting both to the scheduler.
    fn reap(&self, fleet: &mut Fleet<'_>, now: u64) -> Result<(), CampaignError> {
        let (recorder, scope) = (fleet.recorder, fleet.scope);
        let mut index = 0;
        while index < fleet.live.len() {
            let status = fleet.live[index]
                .child
                .try_wait()
                .map_err(CampaignError::Transport)?;
            if let Some(status) = status {
                let worker = fleet.live.remove(index);
                let (slot, generation) = (worker.slot, worker.generation);
                // Salvage whatever the attempt persisted, clean exit or not;
                // the merge only fills keys the merged log does not hold.
                fleet.report.salvaged_records +=
                    salvage_segment(&fleet.store, &fleet.work.segment(slot, generation))?;
                let code = status.code();
                let done = read_kv(&fleet.work.done(slot, generation)).ok();
                let completed = code == Some(EXIT_OK) && done.is_some();
                recorder.event(
                    scope,
                    "worker.exited",
                    &[
                        ("slot", FieldValue::U64(slot as u64)),
                        ("generation", FieldValue::U64(generation)),
                        // `u64::MAX` encodes "no exit code" (killed by signal).
                        (
                            "code",
                            FieldValue::U64(code.map(|c| c as i64 as u64).unwrap_or(u64::MAX)),
                        ),
                        ("completed", FieldValue::Bool(completed)),
                        ("fenced", FieldValue::Bool(worker.fenced)),
                    ],
                );
                let event = if completed {
                    Event::Completed
                } else {
                    Event::Failed
                };
                let report = &mut fleet.report;
                match fleet.scheduler.report(slot, generation, event, now)? {
                    // A fenced zombie: its range was requeued at the fence.
                    Verdict::Stale => report.fenced_exits += usize::from(code == Some(EXIT_FENCED)),
                    Verdict::Committed => {
                        report.completed += 1;
                        report.worker_evaluations += done
                            .as_ref()
                            .and_then(|kv| kv_number::<usize>(kv, "evaluations"))
                            .unwrap_or(0);
                    }
                    Verdict::Retry { .. } => report.failed_attempts += 1,
                    Verdict::Stolen => {
                        report.failed_attempts += 1;
                        report.steals += 1;
                    }
                }
                continue;
            }

            let worker = &mut fleet.live[index];
            index += 1;
            if worker.fenced {
                continue;
            }
            let beat: Option<u64> = read_kv(&fleet.work.beat(worker.slot, worker.generation))
                .ok()
                .and_then(|kv| kv_number(&kv, "batches"));
            if beat != worker.beat_value {
                worker.beat_value = beat;
                worker.beat_changed = Instant::now();
                continue;
            }
            if worker.beat_changed.elapsed() < self.stale_after {
                continue;
            }
            // The heartbeat went stale: fence the lease.  The scheduler rotates
            // the generation (the fencing token) and the grant file carries it,
            // so the zombie's next fence check fails and it abandons; meanwhile
            // its range goes back for a retry and its partial segment is
            // salvaged now.
            worker.fenced = true;
            let (slot, generation) = (worker.slot, worker.generation);
            let verdict = fleet
                .scheduler
                .report(slot, generation, Event::Fenced, now)?;
            let new_generation = fleet.scheduler.generation(slot);
            write_grant(&fleet.work, slot, new_generation, &worker.range)?;
            fleet.report.fenced += 1;
            fleet.report.failed_attempts += 1;
            if let Verdict::Stolen = verdict {
                fleet.report.steals += 1;
            }
            recorder.event(
                scope,
                "worker.fenced",
                &[
                    ("slot", FieldValue::U64(slot as u64)),
                    ("generation", FieldValue::U64(generation)),
                    ("new_generation", FieldValue::U64(new_generation)),
                ],
            );
            fleet.report.salvaged_records +=
                salvage_segment(&fleet.store, &fleet.work.segment(slot, generation))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_spec_round_trips_and_scores_the_bowl() {
        let spec = WorkloadSpec::GridBowl {
            width: 12,
            height: 9,
            center_x: 4,
            center_y: 6,
        };
        let encoded = spec.encode();
        assert_eq!(encoded, "grid-bowl/12x9/4,6");
        assert_eq!(WorkloadSpec::decode(&encoded), Some(spec.clone()));
        assert_eq!(WorkloadSpec::decode("grid-bowl/12x9"), None);
        assert_eq!(WorkloadSpec::decode("mystery/1"), None);
        assert_eq!(
            spec.space(),
            GridSpace {
                width: 12,
                height: 9
            }
        );
        assert_eq!(spec.evaluate(&(4, 6)), 0.0);
        assert_eq!(spec.evaluate(&(0, 0)), 52.0);
    }

    #[test]
    fn manifest_round_trips_and_rewrites_slots() {
        let dir = std::env::temp_dir().join(format!("wd-proc-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest");
        let manifest = ProcManifest {
            workload: WorkloadSpec::GridBowl {
                width: 8,
                height: 8,
                center_x: 1,
                center_y: 2,
            },
            slots: 3,
            batch: 16,
            total: 64,
        };
        manifest.write(&path).unwrap();
        assert_eq!(ProcManifest::read(&path).unwrap(), manifest);
        ProcManifest::rewrite_slots(&path, 5).unwrap();
        assert_eq!(ProcManifest::read(&path).unwrap().slots, 5);

        std::fs::write(&path, "not-a-manifest/v9\n").unwrap();
        let err = ProcManifest::read(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_fault_parses_codes_and_defaults_stall() {
        let fault = WorkerFault::parse("death:2").unwrap();
        assert_eq!(fault.kind, FaultKind::ShardDeath);
        assert_eq!(fault.after_batches, 2);
        assert_eq!(fault.stall_ms, 2_000);
        let fault = WorkerFault::parse("stall:0:50").unwrap();
        assert_eq!(fault.kind, FaultKind::Stall);
        assert_eq!(fault.stall_ms, 50);
        assert!(WorkerFault::parse("gremlins:1").is_none());
        assert!(WorkerFault::parse("death").is_none());
    }

    #[test]
    fn worker_args_require_every_flag() {
        let good: Vec<String> = [
            "--work-dir",
            "/tmp/x",
            "--slot",
            "1",
            "--generation",
            "3",
            "--start",
            "0",
            "--end",
            "10",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = parse_worker_args(&good).unwrap();
        assert_eq!(parsed.slot, 1);
        assert_eq!(parsed.generation, 3);
        assert_eq!(parsed.range, 0..10);
        assert!(parse_worker_args(&good[..4]).is_none());
        let odd = vec!["--slot".to_string()];
        assert!(parse_worker_args(&odd).is_none());
    }

    #[test]
    fn skip_runs_round_trip_merge_adjacent_runs_and_reject_malformed_lines() {
        let mut skip = SkipRuns::default();
        for run in [0..3, 3..5, 7..8, 9..12] {
            skip.extend(run);
        }
        assert_eq!(skip.runs, vec![0..5, 7..8, 9..12]);
        assert_eq!(skip.encode(), "0 5\n7 8\n9 12\n");
        assert_eq!(SkipRuns::decode(&skip.encode()).unwrap(), skip);
        assert_eq!(SkipRuns::decode("0 3\n3 5\n7 8\n9 12\n").unwrap(), skip);
        let hits: Vec<usize> = (0..14).filter(|&i| skip.contains(i)).collect();
        assert_eq!(hits, [0, 1, 2, 3, 4, 7, 9, 10, 11]);
        assert!(!skip.covers(&(0..5)));
        assert!(SkipRuns::decode("2 6\n").unwrap().covers(&(2..6)));
        assert!(!SkipRuns::decode("2 6\n").unwrap().covers(&(2..7)));

        // An empty file is a valid "nothing durable".
        let empty = SkipRuns::decode("").unwrap();
        assert_eq!(empty, SkipRuns::default());
        assert_eq!(empty.encode(), "");
        assert!(!empty.contains(0));

        for bad in ["0", "0 x", " 0 5", "5 5", "4 2", "0 5\n3 8", "4 5\n0 1"] {
            let err = SkipRuns::decode(bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
    }

    #[test]
    fn durable_runs_come_from_the_store_key_index() {
        let dir = std::env::temp_dir().join(format!("wd-proc-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let space = GridSpace {
            width: 4,
            height: 3,
        };
        let store: JsonlStore<(u32, u32)> = JsonlStore::open(dir.join("merged.jsonl")).unwrap();
        for index in [1, 2, 3, 6, 9, 10] {
            store.record(&space.config_at(index).unwrap(), 0.0);
        }
        assert_eq!(
            SkipRuns::durable(&space, &store, &(0..12)).runs,
            vec![1..4, 6..7, 9..11]
        );
        assert!(SkipRuns::durable(&space, &store, &(1..4)).covers(&(1..4)));
        assert_eq!(
            SkipRuns::durable(&space, &store, &(4..6)),
            SkipRuns::default()
        );
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worker_needs_a_well_formed_skip_file_and_honours_it() {
        let dir = std::env::temp_dir().join(format!("wd-proc-skip-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let work = WorkDir::new(&dir);
        work.create().unwrap();
        ProcManifest {
            workload: WorkloadSpec::GridBowl {
                width: 4,
                height: 4,
                center_x: 1,
                center_y: 1,
            },
            slots: 1,
            batch: 4,
            total: 16,
        }
        .write(&work.manifest())
        .unwrap();
        write_atomic(&work.grant(0), "gen 1\nstart 0\nend 16\n").unwrap();
        let root = dir.display().to_string();
        let args: Vec<String> = [
            "--work-dir",
            &root,
            "--slot",
            "0",
            "--generation",
            "1",
            "--start",
            "0",
            "--end",
            "16",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();

        // Missing or malformed: broken input, not "nothing durable".
        assert_eq!(worker_main(&args), EXIT_USAGE);
        std::fs::write(work.skip(0, 1), "0 4\n2 9\n").unwrap();
        assert_eq!(worker_main(&args), EXIT_USAGE);
        assert!(!work.done(0, 1).exists());

        std::fs::write(work.skip(0, 1), "0 4\n10 12\n").unwrap();
        assert_eq!(worker_main(&args), EXIT_OK);
        let done = read_kv(&work.done(0, 1)).unwrap();
        assert_eq!(kv_number::<usize>(&done, "evaluations"), Some(10));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn work_dir_layout_is_generation_scoped() {
        let work = WorkDir::new("/w");
        assert_eq!(work.grant(2), Path::new("/w/leases/slot-2.lease"));
        assert_eq!(work.beat(2, 7), Path::new("/w/leases/slot-2-g7.beat"));
        assert_eq!(work.skip(2, 7), Path::new("/w/leases/slot-2-g7.skip"));
        assert_eq!(work.segment(0, 1), Path::new("/w/segments/seg-0-g1.jsonl"));
        assert_eq!(work.done(0, 1), Path::new("/w/segments/slot-0-g1.done"));
        assert_eq!(work.log(3, 2), Path::new("/w/logs/slot-3-g2.log"));
        assert_eq!(work.pids(), Path::new("/w/logs/pids"));
    }
}
