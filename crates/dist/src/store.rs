//! Persistent result stores: where a campaign's `(configuration, energy)` pairs live.
//!
//! A [`ResultStore`] is the durability layer of the campaign coordinator: every energy
//! an [`wd_opt::Objective`] produces is recorded, and every shard consults the store
//! before evaluating, so a killed or repeated campaign resumes with zero
//! re-evaluations.  Two implementations are provided:
//!
//! * [`MemoryStore`] — a process-local map, the warm-cache of a single run (and the
//!   cheap store for tests and in-process multi-"node" simulations);
//! * [`JsonlStore`] — an append-only JSON-lines file.  Records carry the exact IEEE-754
//!   bit pattern of every energy, so a reloaded store reproduces results *bit for bit*;
//!   the loader skips truncated or foreign lines, so a campaign killed mid-write loses
//!   at most the record being written.
//!
//! Stores also accumulate the merged [`CacheStats`] of the campaigns that ran against
//! them ([`ResultStore::record_stats`]), giving an audit trail of how much work each
//! run actually performed.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::Hash;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use wd_obs::Recorder;
use wd_opt::CacheStats;

use crate::key::ConfigKey;
use crate::sync::{lock, read_lock, write_lock};

/// A concurrent store of evaluated `(configuration, energy)` pairs.
///
/// All methods take `&self`: stores are shared by the shards of a running campaign and
/// synchronise internally.  Implementations must return exactly the recorded energy
/// from [`ResultStore::lookup`] (bit-for-bit — resumed campaigns must reproduce the
/// original merge result).
pub trait ResultStore<C> {
    /// The recorded energy of `config`, if present.
    fn lookup(&self, config: &C) -> Option<f64>;

    /// Batched lookup, one slot per configuration in order.
    fn lookup_batch(&self, configs: &[C]) -> Vec<Option<f64>> {
        configs.iter().map(|config| self.lookup(config)).collect()
    }

    /// Record one evaluated configuration.
    fn record(&self, config: &C, energy: f64);

    /// Record a batch of evaluated configurations (`energies[i]` belongs to
    /// `configs[i]`).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    fn record_batch(&self, configs: &[C], energies: &[f64]) {
        assert_eq!(configs.len(), energies.len());
        for (config, &energy) in configs.iter().zip(energies) {
            self.record(config, energy);
        }
    }

    /// Fold a campaign's merged hit/miss counters into the store's running total.
    fn record_stats(&self, stats: CacheStats);

    /// Accumulated counters over every campaign recorded so far (for a persistent
    /// store: including previous processes).
    fn recorded_stats(&self) -> CacheStats;

    /// Number of distinct configurations stored.
    fn len(&self) -> usize;

    /// Whether the store holds no results yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flush buffered records to durable storage, reporting any write error that
    /// occurred since the last flush.  A no-op for purely in-memory stores.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }

    /// Fault-injection seam used by the chaos harness ([`crate::fault::FaultyStore`]):
    /// durably append a torn (truncated, unparseable) record line — the footprint a
    /// crash in the middle of a batch append leaves behind.  A reload must skip such
    /// lines (and count them in [`JsonlStore::skipped_lines`]), never half-parse them.
    /// Purely in-memory stores have nothing durable to tear; the default is a no-op.
    fn inject_torn_write(&self, hint: &str) {
        let _ = hint;
    }
}

/// An in-memory [`ResultStore`]: the durability of a warm cache, the API of the
/// persistent stores.
#[derive(Debug, Default)]
pub struct MemoryStore<C> {
    map: RwLock<HashMap<C, f64>>,
    stats: Mutex<CacheStats>,
}

impl<C> MemoryStore<C> {
    /// An empty store.
    pub fn new() -> Self {
        MemoryStore {
            map: RwLock::new(HashMap::new()),
            stats: Mutex::new(CacheStats::default()),
        }
    }
}

impl<C> ResultStore<C> for MemoryStore<C>
where
    C: Eq + Hash + Clone,
{
    fn lookup(&self, config: &C) -> Option<f64> {
        read_lock(&self.map).get(config).copied()
    }

    fn lookup_batch(&self, configs: &[C]) -> Vec<Option<f64>> {
        let map = read_lock(&self.map);
        configs
            .iter()
            .map(|config| map.get(config).copied())
            .collect()
    }

    fn record(&self, config: &C, energy: f64) {
        write_lock(&self.map).insert(config.clone(), energy);
    }

    fn record_batch(&self, configs: &[C], energies: &[f64]) {
        assert_eq!(configs.len(), energies.len());
        let mut map = write_lock(&self.map);
        for (config, &energy) in configs.iter().zip(energies) {
            map.insert(config.clone(), energy);
        }
    }

    fn record_stats(&self, stats: CacheStats) {
        *lock(&self.stats) += stats;
    }

    fn recorded_stats(&self) -> CacheStats {
        *lock(&self.stats)
    }

    fn len(&self) -> usize {
        read_lock(&self.map).len()
    }
}

/// An append-only on-disk [`ResultStore`], one JSON object per line.
///
/// Three record kinds exist:
///
/// ```text
/// {"context":"em|human-genome|3170000000"}
/// {"config":"<key>","energy":1.234,"bits":"3ff3be76c8b43958"}
/// {"stats":{"hits":19926,"misses":0}}
/// ```
///
/// `bits` is the hexadecimal IEEE-754 bit pattern of the energy and is authoritative
/// on load (the decimal `energy` field is for human eyes), so round trips are exact.
/// Configurations are keyed by their [`ConfigKey`] encoding.  The loader tolerates a
/// truncated final line (the footprint of a killed campaign) and foreign lines by
/// skipping them; [`JsonlStore::skipped_lines`] reports how many were dropped.
///
/// **A store is bound to one objective.**  Records carry no energy provenance, so
/// feeding a store populated under one objective (workload, platform, evaluator) to a
/// campaign over a different one would silently return the wrong energies as "warm"
/// hits.  [`JsonlStore::open_with_context`] guards against this: it stamps a caller
/// chosen context string into the file and refuses to open a store stamped with a
/// different one.  The plain [`JsonlStore::open`] performs no such check.
///
/// Record appends are flushed to the OS per call ([`ResultStore::record`] /
/// [`ResultStore::record_batch`]), so a killed campaign loses at most the batch being
/// written; [`ResultStore::flush`] (called by the campaign coordinator at the end of
/// every run) surfaces the first write error encountered since the previous flush.
///
/// **Single-writer guard.**  A JSONL log has exactly one append stream: interleaved
/// appends from two processes would tear each other's batch boundaries.  Opening a
/// store therefore acquires an advisory `<path>.lock` sentinel (created with
/// `create_new`, carrying the holder's PID); a second open of the same live log —
/// from this or any other process — fails loudly with
/// [`io::ErrorKind::WouldBlock`] instead of silently interleaving records.  A lock
/// whose holder process is gone (a `kill -9`'d worker) is stale and is taken over
/// after the staleness check.  The lock is released when the store is dropped;
/// read-only access never needs it (see [`read_result_records`]).
#[derive(Debug)]
pub struct JsonlStore<C> {
    path: PathBuf,
    map: RwLock<HashMap<String, f64>>,
    writer: Mutex<BufWriter<File>>,
    stats: Mutex<CacheStats>,
    write_error: Mutex<Option<io::Error>>,
    skipped_lines: usize,
    context: Option<String>,
    schema: Option<String>,
    io: IoCounters,
    // held for RAII only: dropping the store removes the `<path>.lock` sentinel
    _lock: StoreLock,
    _config: PhantomData<fn(&C) -> C>,
}

/// The held advisory append lock of one open [`JsonlStore`]: the `<path>.lock`
/// sentinel file, removed when the store is dropped.
#[derive(Debug)]
struct StoreLock {
    path: PathBuf,
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Whether the process `pid` is still alive, for the stale-lock takeover check.
///
/// Probes `/proc/<pid>`; on systems without a procfs the holder is conservatively
/// treated as alive (the lock must then be removed by hand), so a takeover can
/// never race a live writer.
fn process_alive(pid: u64) -> bool {
    if pid == u64::from(std::process::id()) {
        return true;
    }
    let proc_root = Path::new("/proc");
    if !proc_root.is_dir() {
        return true;
    }
    proc_root.join(pid.to_string()).exists()
}

impl StoreLock {
    fn lock_path(store_path: &Path) -> PathBuf {
        PathBuf::from(format!("{}.lock", store_path.display()))
    }

    /// Acquire the advisory single-writer lock for the log at `store_path`.
    ///
    /// The sentinel is created with `create_new` (atomic on every platform), so
    /// exactly one opener wins.  An existing sentinel whose holder PID is dead is
    /// stale — the footprint of a killed writer — and is removed and re-acquired;
    /// an existing sentinel with a live holder fails the open with
    /// [`io::ErrorKind::WouldBlock`].
    fn acquire(store_path: &Path) -> io::Result<StoreLock> {
        let path = Self::lock_path(store_path);
        // two rounds: the first may find (and clear) a stale holder, the second
        // re-attempts the atomic create; losing both means a live contender
        for _ in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut sentinel) => {
                    sentinel
                        .write_all(format!("{{\"pid\":{}}}\n", std::process::id()).as_bytes())?;
                    sentinel.flush()?;
                    return Ok(StoreLock { path });
                }
                Err(error) if error.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path).unwrap_or_default();
                    match json_uint_field(&holder, "pid") {
                        Some(pid) if process_alive(pid) => {
                            return Err(io::Error::new(
                                io::ErrorKind::WouldBlock,
                                format!(
                                    "result store {} is already open for append by live \
                                     process {pid} (lock {}); a JSONL log has exactly one \
                                     writer — a second appender would interleave and tear \
                                     batch boundaries",
                                    store_path.display(),
                                    path.display()
                                ),
                            ));
                        }
                        // dead holder or unreadable sentinel: stale, take it over
                        Some(_) | None => {
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                }
                Err(error) => return Err(error),
            }
        }
        Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            format!(
                "result store {} lock contended while clearing a stale sentinel",
                store_path.display()
            ),
        ))
    }
}

/// Load the result records of the log at `path` **read-only**: no append handle, no
/// tail sealing, and no single-writer lock is taken or required.
///
/// This is the view a worker process uses to warm-load a merged store that the
/// coordinator holds open (and locked) for append, and the view the coordinator
/// uses to salvage the segment of a dead worker.  Keys are the raw [`ConfigKey`]
/// encodings; the second element counts malformed/torn lines skipped (a flushed,
/// quiescent log reads back with zero).
pub fn read_result_records(path: &Path) -> io::Result<(HashMap<String, f64>, usize)> {
    let mut map = HashMap::new();
    let mut skipped = 0usize;
    if !path.exists() {
        return Ok((map, skipped));
    }
    for line in BufReader::new(File::open(path)?).split(b'\n') {
        let line = String::from_utf8(line?).unwrap_or_default();
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line) {
            Some(Record::Result(key, energy)) => {
                map.insert(key, energy);
            }
            Some(_) => {}
            None => skipped += 1,
        }
    }
    Ok((map, skipped))
}

#[derive(Debug, Default)]
struct IoCounters {
    loaded_records: u64,
    loaded_bytes: u64,
    appended_records: AtomicU64,
    appended_bytes: AtomicU64,
}

/// A point-in-time copy of one [`JsonlStore`]'s I/O counters — how much this store
/// instance read at load time and has written since.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreIoStats {
    /// Result records loaded from the file when this instance was opened.
    pub loaded_records: u64,
    /// Bytes of the file consumed at load time.
    pub loaded_bytes: u64,
    /// Malformed/truncated lines skipped at load time.
    pub skipped_lines: u64,
    /// Lines durably appended by this instance (results, stats, stamps).
    pub appended_records: u64,
    /// Bytes durably appended by this instance (including newlines).
    pub appended_bytes: u64,
}

/// The schema version stamped into the header line of freshly created stores,
/// e.g. `{"schema":"wd-dist-store/v2"}`.  Stores written before the header existed
/// load fine (their version reads as `None`); future migrations key off this stamp
/// to detect old layouts.
pub const STORE_SCHEMA_VERSION: &str = "wd-dist-store/v2";

enum Record {
    Result(String, f64),
    Stats(CacheStats),
    Context(String),
    Schema(String),
    /// The `{"gen":N}` header that logs compacted by earlier versions of this
    /// crate carry; recognised so those logs still load without skipped lines,
    /// and otherwise ignored.
    LegacyGeneration,
}

/// Extract the value of a `"name":"<value>"` string field.
fn json_str_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pattern = format!("\"{name}\":\"");
    let start = line.find(&pattern)? + pattern.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// Extract the value of a `"name":<digits>` unsigned integer field.
fn json_uint_field(line: &str, name: &str) -> Option<u64> {
    let pattern = format!("\"{name}\":");
    let start = line.find(&pattern)? + pattern.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Whether the file's last byte is a newline (empty files count as terminated).
fn ends_with_newline(path: &Path) -> io::Result<bool> {
    use std::io::{Read, Seek, SeekFrom};
    let mut file = File::open(path)?;
    if file.metadata()?.len() == 0 {
        return Ok(true);
    }
    file.seek(SeekFrom::End(-1))?;
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte)?;
    Ok(byte[0] == b'\n')
}

fn parse_line(line: &str) -> Option<Record> {
    if let Some(schema) = json_str_field(line, "schema") {
        return Some(Record::Schema(schema.to_string()));
    }
    if let Some(context) = json_str_field(line, "context") {
        return Some(Record::Context(context.to_string()));
    }
    if let Some(key) = json_str_field(line, "config") {
        // the bit pattern is authoritative; fall back to the decimal field for
        // hand-written lines
        let energy = match json_str_field(line, "bits") {
            Some(hex) => f64::from_bits(u64::from_str_radix(hex, 16).ok()?),
            None => {
                let pattern = "\"energy\":";
                let start = line.find(pattern)? + pattern.len();
                let rest = &line[start..];
                // a number not terminated by ',' or '}' is a torn tail: its
                // decimal may itself be truncated, and a truncated decimal parses
                // to a plausible but wrong energy — reject the line instead
                let end = rest.find([',', '}'])?;
                rest[..end].trim().parse().ok()?
            }
        };
        return Some(Record::Result(key.to_string(), energy));
    }
    if json_uint_field(line, "gen").is_some() {
        return Some(Record::LegacyGeneration);
    }
    if line.contains("\"stats\"") {
        return Some(Record::Stats(CacheStats {
            hits: json_uint_field(line, "hits")? as usize,
            misses: json_uint_field(line, "misses")? as usize,
        }));
    }
    None
}

impl<C: ConfigKey> JsonlStore<C> {
    /// Open (or create) the store at `path`, loading every intact record.
    ///
    /// No context check is performed — prefer [`JsonlStore::open_with_context`] for
    /// stores that outlive one process.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut map = HashMap::new();
        let mut stats = CacheStats::default();
        let mut skipped = 0usize;
        let mut context = None;
        let mut schema = None;
        let mut saw_lines = false;
        let mut loaded_records = 0u64;
        let mut loaded_bytes = 0u64;
        let mut needs_seal = false;
        if path.exists() {
            for line in BufReader::new(File::open(&path)?).split(b'\n') {
                let line = String::from_utf8(line?).unwrap_or_default();
                loaded_bytes += line.len() as u64 + 1;
                if line.trim().is_empty() {
                    continue;
                }
                saw_lines = true;
                match parse_line(&line) {
                    Some(Record::Result(key, energy)) => {
                        loaded_records += 1;
                        map.insert(key, energy);
                    }
                    Some(Record::Stats(loaded)) => stats += loaded,
                    Some(Record::Context(loaded)) => context = Some(loaded),
                    Some(Record::Schema(loaded)) => schema = Some(loaded),
                    Some(Record::LegacyGeneration) => {}
                    None => skipped += 1,
                }
            }
            // a log killed mid-append can end in a partial line with no newline;
            // seal it so the next append starts a fresh line instead of gluing onto
            // the fragment (which could corrupt — or worse, mis-associate — the
            // next record)
            needs_seal = !ends_with_newline(&path)?;
        }
        // the single-writer lock is taken before the append handle (and before the
        // seal write), so a second opener can never interleave with this one
        let lock = StoreLock::acquire(&path)?;
        let mut writer = BufWriter::new(OpenOptions::new().create(true).append(true).open(&path)?);
        if needs_seal {
            // `loaded_bytes` already counted the phantom newline of the partial
            // tail, so it matches the sealed file size without adjustment
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
        let store = JsonlStore {
            path,
            map: RwLock::new(map),
            writer: Mutex::new(writer),
            stats: Mutex::new(stats),
            write_error: Mutex::new(None),
            skipped_lines: skipped,
            context,
            schema,
            io: IoCounters {
                loaded_records,
                loaded_bytes,
                ..IoCounters::default()
            },
            _lock: lock,
            _config: PhantomData,
        };
        if !saw_lines {
            // stamp fresh stores with the current schema version so future readers
            // can detect (and migrate) old layouts; pre-header stores keep `None`
            store.append(&format!("{{\"schema\":\"{STORE_SCHEMA_VERSION}\"}}"));
            store.flush()?;
            return Ok(JsonlStore {
                schema: Some(STORE_SCHEMA_VERSION.to_string()),
                ..store
            });
        }
        Ok(store)
    }

    /// Open (or create) the store at `path` for one evaluation context.
    ///
    /// `context` should identify everything the energies depend on — workload,
    /// platform, evaluation mode (e.g. `"em|human-genome|3170000000"`) — and must be
    /// JSON-string-safe (no `"`, `\` or control characters).  A fresh store is
    /// stamped with the context; re-opening checks the stamp and fails with
    /// [`io::ErrorKind::InvalidData`] when it differs, so a campaign can never
    /// silently consume energies recorded under a different objective.  Stores with
    /// existing records but no stamp (created via [`JsonlStore::open`]) are rejected
    /// too — their provenance is unknown.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `context` holds a `"`, `\`, `\n` or
    /// `\r` (checked before the file or its lock is touched), plus the errors of
    /// [`JsonlStore::open`] and the context check above.
    pub fn open_with_context(path: impl AsRef<Path>, context: &str) -> io::Result<Self> {
        if context.contains(['"', '\\', '\n', '\r']) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("store contexts must be JSON-string-safe: {context:?}"),
            ));
        }
        let store = Self::open(path)?;
        match store.context.as_deref() {
            Some(existing) if existing == context => Ok(store),
            Some(existing) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "result store {} was recorded under context {existing:?}, \
                     refusing to reuse it for context {context:?}",
                    store.path.display()
                ),
            )),
            None if store.is_empty() => {
                store.append(&format!("{{\"context\":\"{context}\"}}"));
                store.flush()?;
                Ok(JsonlStore {
                    context: Some(context.to_string()),
                    ..store
                })
            }
            None => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "result store {} holds records of unknown provenance (no context \
                     stamp); refusing to reuse it for context {context:?}",
                    store.path.display()
                ),
            )),
        }
    }

    /// The file backing this store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The context this store was stamped with, when present.
    pub fn context(&self) -> Option<&str> {
        self.context.as_deref()
    }

    /// Number of malformed/truncated lines skipped while loading.
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// The schema version this store's file was stamped with *when it was loaded*
    /// ([`STORE_SCHEMA_VERSION`] for stores created by this code; `None` for stores
    /// written before the header existed).
    pub fn schema_version(&self) -> Option<&str> {
        self.schema.as_deref()
    }

    /// Decode every stored record back into configurations (records whose key no
    /// longer decodes — e.g. written by an older schema — are skipped).
    pub fn entries(&self) -> Vec<(C, f64)> {
        read_lock(&self.map)
            .iter()
            .filter_map(|(key, &energy)| Some((C::decode_key(key)?, energy)))
            .collect()
    }

    /// This instance's I/O counters: records/bytes read at load time and durably
    /// appended since.
    pub fn io_stats(&self) -> StoreIoStats {
        StoreIoStats {
            loaded_records: self.io.loaded_records,
            loaded_bytes: self.io.loaded_bytes,
            skipped_lines: self.skipped_lines as u64,
            appended_records: self.io.appended_records.load(Ordering::Relaxed),
            appended_bytes: self.io.appended_bytes.load(Ordering::Relaxed),
        }
    }

    /// Publish [`JsonlStore::io_stats`] to `recorder` as counters named
    /// `{scope}.store.*` (e.g. `campaign.store.appended_records`).  Call once at the
    /// end of a run — counters are cumulative, so publishing twice double-counts.
    pub fn publish_io(&self, recorder: &dyn Recorder, scope: &str) {
        if !recorder.enabled() {
            return;
        }
        let io = self.io_stats();
        for (name, value) in [
            ("loaded_records", io.loaded_records),
            ("loaded_bytes", io.loaded_bytes),
            ("skipped_lines", io.skipped_lines),
            ("appended_records", io.appended_records),
            ("appended_bytes", io.appended_bytes),
        ] {
            recorder.counter(&format!("{scope}.store.{name}"), value);
        }
    }

    /// Append `line`, flush it to the OS so a kill cannot lose it, and remember the
    /// first write error for the next `flush`.
    fn append(&self, line: &str) {
        let mut writer = lock(&self.writer);
        if let Err(error) = writeln!(writer, "{line}").and_then(|()| writer.flush()) {
            lock(&self.write_error).get_or_insert(error);
        } else {
            self.io.appended_records.fetch_add(1, Ordering::Relaxed);
            self.io
                .appended_bytes
                .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
        }
    }

    fn result_line(key: &str, energy: f64) -> String {
        debug_assert!(
            !key.contains(['"', '\\', '\n', '\r']),
            "ConfigKey encodings must be JSON-string-safe: {key:?}"
        );
        format!(
            "{{\"config\":\"{key}\",\"energy\":{energy},\"bits\":\"{bits:016x}\"}}",
            bits = energy.to_bits()
        )
    }
}

impl<C: ConfigKey> ResultStore<C> for JsonlStore<C> {
    fn lookup(&self, config: &C) -> Option<f64> {
        read_lock(&self.map).get(&config.encode_key()).copied()
    }

    fn lookup_batch(&self, configs: &[C]) -> Vec<Option<f64>> {
        let map = read_lock(&self.map);
        configs
            .iter()
            .map(|config| map.get(&config.encode_key()).copied())
            .collect()
    }

    fn record(&self, config: &C, energy: f64) {
        let key = config.encode_key();
        self.append(&Self::result_line(&key, energy));
        write_lock(&self.map).insert(key, energy);
    }

    fn record_batch(&self, configs: &[C], energies: &[f64]) {
        assert_eq!(configs.len(), energies.len());
        let keys: Vec<String> = configs.iter().map(ConfigKey::encode_key).collect();
        {
            // one writer lock for the whole batch keeps shard appends contiguous; the
            // trailing flush bounds what a kill can lose to this batch
            let mut writer = lock(&self.writer);
            let mut wrote = Ok(());
            for (key, &energy) in keys.iter().zip(energies) {
                let line = Self::result_line(key, energy);
                wrote = writeln!(writer, "{line}");
                if wrote.is_err() {
                    break;
                }
                self.io.appended_records.fetch_add(1, Ordering::Relaxed);
                self.io
                    .appended_bytes
                    .fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
            }
            if let Err(error) = wrote.and_then(|()| writer.flush()) {
                lock(&self.write_error).get_or_insert(error);
            }
        }
        let mut map = write_lock(&self.map);
        for (key, &energy) in keys.into_iter().zip(energies) {
            map.insert(key, energy);
        }
    }

    fn record_stats(&self, stats: CacheStats) {
        self.append(&format!(
            "{{\"stats\":{{\"hits\":{},\"misses\":{}}}}}",
            stats.hits, stats.misses
        ));
        *lock(&self.stats) += stats;
    }

    fn recorded_stats(&self) -> CacheStats {
        *lock(&self.stats)
    }

    fn len(&self) -> usize {
        read_lock(&self.map).len()
    }

    fn flush(&self) -> io::Result<()> {
        if let Some(error) = lock(&self.write_error).take() {
            return Err(error);
        }
        lock(&self.writer).flush()
    }

    fn inject_torn_write(&self, hint: &str) {
        // the front half of a result record with no closing quote or brace — what a
        // crash in the middle of `write(2)` leaves behind (written as its own line,
        // i.e. as the fragment looks once the tail is sealed, so the injection
        // stays local to one record)
        self.append(&format!("{{\"config\":\"{hint}\",\"ener"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "wd_dist-store-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn memory_store_round_trips_and_accumulates_stats() {
        let store: MemoryStore<(u32, u32)> = MemoryStore::new();
        assert!(store.is_empty());
        assert_eq!(store.lookup(&(1, 2)), None);
        store.record(&(1, 2), 0.5);
        store.record_batch(&[(3, 4), (5, 6)], &[1.5, 2.5]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.lookup(&(3, 4)), Some(1.5));
        assert_eq!(store.lookup_batch(&[(1, 2), (9, 9)]), vec![Some(0.5), None]);
        store.record_stats(CacheStats { hits: 2, misses: 3 });
        store.record_stats(CacheStats { hits: 1, misses: 0 });
        assert_eq!(store.recorded_stats(), CacheStats { hits: 3, misses: 3 });
        store.flush().unwrap();
    }

    #[test]
    fn jsonl_store_persists_exact_bits_across_instances() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        // energies chosen to stress decimal printing: a subnormal-ish value, a value
        // with no short decimal representation, and an integer
        let pairs = [((13u32, 5u32), 0.1 + 0.2), ((0, 0), 1e-300), ((7, 7), 42.0)];
        {
            let store: JsonlStore<(u32, u32)> = JsonlStore::open(&path).unwrap();
            for (config, energy) in pairs {
                store.record(&config, energy);
            }
            store.record_stats(CacheStats { hits: 0, misses: 3 });
            store.flush().unwrap();
        }
        {
            let store: JsonlStore<(u32, u32)> = JsonlStore::open(&path).unwrap();
            assert_eq!(store.len(), 3);
            assert_eq!(store.skipped_lines(), 0);
            for (config, energy) in pairs {
                assert_eq!(store.lookup(&config).unwrap().to_bits(), energy.to_bits());
            }
            assert_eq!(store.recorded_stats(), CacheStats { hits: 0, misses: 3 });
            let mut entries = store.entries();
            entries.sort_by_key(|(config, _)| *config);
            assert_eq!(entries.len(), 3);
            assert_eq!(entries[2].0, (13, 5));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn jsonl_store_skips_truncated_and_foreign_lines() {
        let path = temp_path("truncated");
        let _ = std::fs::remove_file(&path);
        {
            let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
            store.record(&1, 1.0);
            store.record(&2, 2.0);
            store.flush().unwrap();
        }
        // simulate a campaign killed mid-write: append garbage and a cut-off record
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("not json at all\n");
        contents.push_str("{\"config\":\"3\",\"ener");
        std::fs::write(&path, contents).unwrap();

        let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.skipped_lines(), 2);
        assert_eq!(store.lookup(&1), Some(1.0));
        assert_eq!(store.lookup(&3), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn context_stamp_guards_against_cross_objective_reuse() {
        let path = temp_path("context");
        let _ = std::fs::remove_file(&path);
        {
            let store: JsonlStore<u32> =
                JsonlStore::open_with_context(&path, "em|human|3170000000").unwrap();
            assert_eq!(store.context(), Some("em|human|3170000000"));
            store.record(&1, 1.0);
            store.flush().unwrap();
        }
        // the same context re-opens and resumes
        {
            let store: JsonlStore<u32> =
                JsonlStore::open_with_context(&path, "em|human|3170000000").unwrap();
            assert_eq!(store.len(), 1);
            assert_eq!(store.skipped_lines(), 0);
        }
        // a different objective is refused instead of silently served stale energies
        let err = JsonlStore::<u32>::open_with_context(&path, "eml|cat|2430000000").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();

        // records of unknown provenance (stampless store) are refused too
        let path = temp_path("context-unstamped");
        let _ = std::fs::remove_file(&path);
        {
            let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
            store.record(&1, 1.0);
            store.flush().unwrap();
        }
        assert!(JsonlStore::<u32>::open_with_context(&path, "any").is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn records_are_durable_before_an_explicit_flush() {
        // a killed campaign must lose at most the batch being written: appends are
        // flushed to the OS per record/batch, not parked in the process buffer
        let path = temp_path("durability");
        let _ = std::fs::remove_file(&path);
        let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        store.record(&1, 1.0);
        store.record_batch(&[2, 3], &[2.0, 3.0]);
        // read the file out-of-band while the store (and its buffer) is still alive
        // (3 records + the schema header of a fresh store)
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 4);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn jsonl_store_later_records_override_earlier_ones() {
        let path = temp_path("override");
        let _ = std::fs::remove_file(&path);
        {
            let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
            store.record(&9, 1.0);
            store.record(&9, 5.0);
            store.flush().unwrap();
            assert_eq!(store.lookup(&9), Some(5.0));
        }
        // append order is preserved on disk, so the reloaded map keeps the last write
        let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.lookup(&9), Some(5.0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fresh_stores_are_stamped_with_the_schema_version() {
        let path = temp_path("schema");
        let _ = std::fs::remove_file(&path);
        {
            let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
            assert_eq!(store.schema_version(), Some(STORE_SCHEMA_VERSION));
            store.record(&1, 1.0);
            store.flush().unwrap();
        }
        // the header is a recognised record kind, not a skipped foreign line
        let reopened: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        assert_eq!(reopened.schema_version(), Some(STORE_SCHEMA_VERSION));
        assert_eq!(reopened.skipped_lines(), 0);
        assert_eq!(reopened.len(), 1);
        std::fs::remove_file(&path).unwrap();

        // pre-header stores load fine and report no version
        let old = temp_path("schema-old");
        std::fs::write(&old, "{\"config\":\"7\",\"energy\":1.5}\n").unwrap();
        let store: JsonlStore<u32> = JsonlStore::open(&old).unwrap();
        assert_eq!(store.schema_version(), None);
        assert_eq!(store.lookup(&7), Some(1.5));
        std::fs::remove_file(&old).unwrap();
    }

    #[test]
    fn second_append_handle_on_a_live_log_fails_loudly() {
        let path = temp_path("single-writer");
        let _ = std::fs::remove_file(&path);
        let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        store.record(&1, 1.0);

        // a second handle on the same live log would interleave appends; the
        // advisory lock refuses it with an error naming the holder
        let contended = JsonlStore::<u32>::open(&path).unwrap_err();
        assert_eq!(contended.kind(), io::ErrorKind::WouldBlock);
        let message = contended.to_string();
        assert!(message.contains(&std::process::id().to_string()));
        assert!(message.contains(".lock"));

        // read-only access needs no lock and sees the flushed records
        store.flush().unwrap();
        let (records, skipped) = read_result_records(&path).unwrap();
        assert_eq!(records.get("1"), Some(&1.0));
        assert_eq!(skipped, 0);

        // dropping the store releases the lock; the next open succeeds
        drop(store);
        assert!(!StoreLock::lock_path(&path).exists());
        let reopened: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        assert_eq!(reopened.lookup(&1), Some(1.0));
        drop(reopened);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_locks_of_dead_processes_are_taken_over() {
        let path = temp_path("stale-lock");
        let _ = std::fs::remove_file(&path);
        // the footprint of a kill -9'd writer: a lock whose holder PID is gone
        // (pid 0 is the kernel's — never a valid lock holder, never in /proc)
        std::fs::write(StoreLock::lock_path(&path), "{\"pid\":0,\"gen\":0}\n").unwrap();
        let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        store.record(&7, 7.0);
        store.flush().unwrap();
        drop(store);

        // an unreadable sentinel is equally stale
        std::fs::write(StoreLock::lock_path(&path), "garbage").unwrap();
        let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        assert_eq!(store.lookup(&7), Some(7.0));
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_result_records_tolerates_torn_tails_and_missing_files() {
        let path = temp_path("raw-read");
        let _ = std::fs::remove_file(&path);
        let (records, skipped) = read_result_records(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(skipped, 0);

        std::fs::write(
            &path,
            "{\"schema\":\"wd-dist-store/v2\"}\n\
             {\"config\":\"3,4\",\"energy\":2.5,\"bits\":\"4004000000000000\"}\n\
             {\"config\":\"5,6\",\"ener",
        )
        .unwrap();
        let (records, skipped) = read_result_records(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records.get("3,4").copied(), Some(2.5));
        assert_eq!(skipped, 1, "the torn tail is counted, not half-parsed");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn io_counters_track_loads_and_appends() {
        let path = temp_path("io-counters");
        let _ = std::fs::remove_file(&path);
        {
            let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
            let io = store.io_stats();
            assert_eq!(io.loaded_records, 0);
            // the fresh-store schema stamp is already an append
            assert_eq!(io.appended_records, 1);
            assert!(io.appended_bytes > 0);

            store.record(&1, 1.0);
            store.record_batch(&[2, 3], &[2.0, 2.0]);
            store.record(&2, 5.0); // duplicate key: a fourth result line on disk
            store.record_stats(CacheStats { hits: 1, misses: 4 });
            store.flush().unwrap();
            let io = store.io_stats();
            assert_eq!(io.appended_records, 1 + 4 + 1);
            let on_disk = std::fs::metadata(&path).unwrap().len();
            assert_eq!(io.appended_bytes, on_disk);
        }
        // a reopened store counts what it loaded (4 result lines, 3 keys) byte for byte
        let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        assert_eq!(store.len(), 3);
        let io = store.io_stats();
        assert_eq!(io.loaded_records, 4);
        assert_eq!(io.loaded_bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(io.skipped_lines, 0);
        assert_eq!(io.appended_records, 0);

        // counters publish under the requested scope
        let registry = wd_obs::Registry::new();
        store.publish_io(&registry, "campaign");
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counters.get("campaign.store.loaded_records"),
            Some(&4)
        );
        assert_eq!(
            snapshot.counters.get("campaign.store.appended_records"),
            Some(&0)
        );
        // and a disabled recorder costs nothing and records nothing
        store.publish_io(&wd_obs::NoopRecorder, "campaign");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unterminated_tails_are_sealed_on_open() {
        let path = temp_path("seal");
        let _ = std::fs::remove_file(&path);
        {
            let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
            store.record(&1, 1.0);
            store.flush().unwrap();
        }
        // a crash mid-write leaves a partial record with no trailing newline
        let mut contents = std::fs::read_to_string(&path).unwrap();
        contents.push_str("{\"config\":\"2\",\"ener");
        std::fs::write(&path, &contents).unwrap();

        // without sealing, the next append would glue onto the fragment and corrupt
        // (or mis-associate) an otherwise intact record
        let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        assert_eq!(store.skipped_lines(), 1);
        store.record(&3, 3.0);
        store.flush().unwrap();
        drop(store);

        let reopened: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        assert_eq!(reopened.lookup(&1), Some(1.0));
        assert_eq!(reopened.lookup(&3), Some(3.0), "post-crash appends survive");
        assert_eq!(reopened.skipped_lines(), 1, "only the fragment is lost");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_torn_writes_are_unparseable() {
        let path = temp_path("inject-torn");
        let _ = std::fs::remove_file(&path);
        {
            let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
            store.record(&1, 1.0);
            ResultStore::<u32>::inject_torn_write(&store, "torn-hint");
            store.flush().unwrap();
        }
        // the torn line is skipped on reload, never half-parsed into a bogus record
        let reloaded: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        assert_eq!(reloaded.len(), 1);
        assert_eq!(reloaded.skipped_lines(), 1);
        assert_eq!(reloaded.lookup(&1), Some(1.0));
        drop(reloaded);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unsafe_contexts_are_refused_before_touching_the_file() {
        let path = temp_path("unsafe-context");
        let _ = std::fs::remove_file(&path);
        // a workload name is caller input; a quote in it would tear the context line
        for context in [
            "em|my\"run|1",
            "em|back\\slash|1",
            "em|line\nbreak|1",
            "cr\r",
        ] {
            let err = JsonlStore::<u32>::open_with_context(&path, context).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{context:?}");
            assert!(!path.exists(), "no store file for {context:?}");
            assert!(
                !StoreLock::lock_path(&path).exists(),
                "no lock for {context:?}"
            );
        }
    }

    #[test]
    fn logs_compacted_by_earlier_versions_still_load_cleanly() {
        // the shape earlier versions' compaction wrote: schema, a `{"gen":N}` header,
        // the context stamp, one record per key, one merged stats line
        let path = temp_path("legacy-gen");
        let awkward: f64 = 0.1 + 0.2;
        std::fs::write(
            &path,
            format!(
                "{{\"schema\":\"{STORE_SCHEMA_VERSION}\"}}\n\
                 {{\"gen\":1}}\n\
                 {{\"context\":\"em|human|legacy\"}}\n\
                 {}\n{}\n\
                 {{\"stats\":{{\"hits\":6,\"misses\":7}}}}\n",
                JsonlStore::<u32>::result_line("1", 3.0),
                JsonlStore::<u32>::result_line("2", awkward),
            ),
        )
        .unwrap();
        let store: JsonlStore<u32> =
            JsonlStore::open_with_context(&path, "em|human|legacy").unwrap();
        assert_eq!(store.skipped_lines(), 0);
        assert_eq!(store.schema_version(), Some(STORE_SCHEMA_VERSION));
        assert_eq!(store.len(), 2);
        assert_eq!(store.lookup(&1), Some(3.0));
        assert_eq!(store.lookup(&2).unwrap().to_bits(), awkward.to_bits());
        assert_eq!(store.recorded_stats(), CacheStats { hits: 6, misses: 7 });
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn energy_parsing_falls_back_to_the_decimal_field() {
        let path = temp_path("fallback");
        std::fs::write(&path, "{\"config\":\"4\",\"energy\":2.75}\n").unwrap();
        let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        assert_eq!(store.lookup(&4), Some(2.75));
        assert_eq!(store.skipped_lines(), 0);
        std::fs::remove_file(&path).unwrap();
    }
}
