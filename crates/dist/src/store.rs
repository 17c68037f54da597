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

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::hash::Hash;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, RwLock};

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
}

/// An in-memory [`ResultStore`]: the durability of a warm cache, the API of the
/// persistent stores.
#[derive(Debug, Default)]
pub struct MemoryStore<C> {
    map: RwLock<HashMap<C, f64>>,
}

impl<C> MemoryStore<C> {
    /// An empty store.
    pub fn new() -> Self {
        MemoryStore {
            map: RwLock::new(HashMap::new()),
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

    fn len(&self) -> usize {
        read_lock(&self.map).len()
    }
}

/// An append-only on-disk [`ResultStore`], one JSON object per line.
///
/// A store writes three line kinds: the schema stamp of a fresh file, the context
/// stamp of [`JsonlStore::open_with_context`] and one result line per record.
///
/// ```text
/// {"schema":"wd-dist-store/v2"}
/// {"context":"em|human-genome|3170000000"}
/// {"config":"<key>","energy":1.234,"bits":"3ff3be76c8b43958"}
/// ```
///
/// The loader also recognises, and ignores, two line kinds that earlier versions
/// of this crate wrote: the `{"gen":N}` header of a compacted log and a
/// campaign's `{"stats":{"hits":H,"misses":M}}` line.
///
/// `bits` is the hexadecimal IEEE-754 bit pattern of the energy and is authoritative
/// on load, so round trips are exact; the decimal `energy` field (written with
/// round-tripping `Display`) must parse to the same bits, or the line is skipped as
/// corrupt (any NaN matches any NaN).
/// A record's `config` is the [`ConfigKey`] encoding of its configuration, and the
/// in-memory index is keyed by the configuration itself: each key is decoded once, at
/// load, and lookups and appends hash the configuration directly.  A key that does
/// not decode, or that decodes to a configuration whose own encoding is spelled
/// differently (`07,3` or `+7,3` for `(7, 3)`), is not one this store writes and is
/// skipped like a foreign line.  The loader tolerates a truncated final line (the
/// footprint of a killed campaign) and foreign lines by skipping them;
/// [`JsonlStore::skipped_lines`] reports how many were dropped.
/// Loading reads the file through one reused line buffer and parses a result line
/// in exactly the written shape in one pass; every other line (other record kinds,
/// hand-written, torn or foreign lines) goes through the general parser, whose
/// checks and verdicts the one-pass parser shares.
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
    map: RwLock<HashMap<C, f64>>,
    writer: Mutex<BufWriter<File>>,
    write_error: Mutex<Option<io::Error>>,
    skipped_lines: usize,
    context: Option<String>,
    // held for RAII only: dropping the store removes the `<path>.lock` sentinel
    _lock: StoreLock,
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
/// This is the view for inspecting a log that a live store holds open (and locked)
/// for append: a campaign's merged log, or a worker's segment.  Keys are the raw
/// [`ConfigKey`] encodings as written, undecoded, with a later record of a key
/// replacing an earlier one; the second element counts malformed/torn lines
/// skipped (a flushed, quiescent log reads back with zero).
pub fn read_result_records(path: &Path) -> io::Result<(HashMap<String, f64>, usize)> {
    let mut map = HashMap::new();
    let mut skipped = 0usize;
    if !path.exists() {
        return Ok((map, skipped));
    }
    read_lines(path, |line| match line.and_then(parse_line) {
        Some(Record::Result(key, energy)) => {
            map.insert(key.to_string(), energy);
        }
        Some(_) => {}
        None => skipped += 1,
    })?;
    Ok((map, skipped))
}

/// Read every line of the log at `path` through one reused buffer, handing each
/// non-blank line to `visit`; a line holding a byte no record encodes (not
/// UTF-8) is as unreadable as a torn one and arrives as `None`.
fn read_lines(path: &Path, mut visit: impl FnMut(Option<&str>)) -> io::Result<()> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut buffer = Vec::new();
    loop {
        buffer.clear();
        if reader.read_until(b'\n', &mut buffer)? == 0 {
            return Ok(());
        }
        let line = buffer.strip_suffix(b"\n").unwrap_or(&buffer);
        match std::str::from_utf8(line) {
            Ok(line) if line.trim().is_empty() => {}
            Ok(line) => visit(Some(line)),
            Err(_) => visit(None),
        }
    }
}

/// The schema version stamped into the header line of freshly created stores,
/// e.g. `{"schema":"wd-dist-store/v2"}`.  Stores written before the header existed
/// load fine; future migrations key off this stamp to detect old layouts.
pub const STORE_SCHEMA_VERSION: &str = "wd-dist-store/v2";

#[derive(Debug)]
enum Record<'a> {
    Result(&'a str, f64),
    Context(&'a str),
    /// A line the loader recognises and skips without counting it: the
    /// `{"schema":…}` stamp, and the `{"gen":N}` header and `{"stats":…}` lines
    /// that earlier versions of this crate wrote.
    Ignored,
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

/// Whether a record's decimal `energy` field checks its authoritative bit pattern
/// (any NaN matches any NaN).
fn agrees(decimal: f64, energy: f64) -> bool {
    decimal.to_bits() == energy.to_bits() || decimal.is_nan() && energy.is_nan()
}

/// Parse one log line: the canonical result line in one pass, anything else through
/// [`parse_general`].
fn parse_line(line: &str) -> Option<Record<'_>> {
    match parse_canonical(line) {
        Some((key, energy)) => Some(Record::Result(key, energy)),
        None => parse_general(line),
    }
}

/// The key and energy of a line in exactly the shape [`write_result_line`] writes,
/// `{"config":"K","energy":D,"bits":"H"}` with `H` sixteen lowercase hex digits,
/// whose decimal agrees with its bits.  `None` for every other line, so the caller
/// falls back to [`parse_general`] — which, on a line this accepts, finds the same
/// fields and returns the same record.
fn parse_canonical(line: &str) -> Option<(&str, f64)> {
    let (key, rest) = line.strip_prefix("{\"config\":\"")?.split_once('"')?;
    let rest = rest.strip_prefix(",\"energy\":")?;
    let (decimal, rest) = rest.split_at(rest.find([',', '}'])?);
    let hex = rest.strip_prefix(",\"bits\":\"")?.strip_suffix("\"}")?;
    if hex.len() != 16 || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return None;
    }
    let energy = f64::from_bits(u64::from_str_radix(hex, 16).ok()?);
    let decimal = decimal.trim().parse::<f64>().ok()?;
    agrees(decimal, energy).then_some((key, energy))
}

/// Parse any record kind, each field found wherever it sits on the line.
fn parse_general(line: &str) -> Option<Record<'_>> {
    if json_str_field(line, "schema").is_some() {
        return Some(Record::Ignored);
    }
    if let Some(context) = json_str_field(line, "context") {
        return Some(Record::Context(context));
    }
    if let Some(key) = json_str_field(line, "config") {
        // `None` without a decimal field, `Some(None)` for one that does not parse
        let decimal = line.find("\"energy\":").map(|start| {
            let rest = &line[start + "\"energy\":".len()..];
            // a number not terminated by ',' or '}' is a torn tail: its decimal may
            // itself be truncated, and a truncated decimal parses to a plausible but
            // wrong energy — reject the line instead
            let end = rest.find([',', '}'])?;
            rest[..end].trim().parse::<f64>().ok()
        });
        // the bit pattern is authoritative and the decimal beside it checks it, so a
        // flipped digit in either field rejects the line; hand-written lines may
        // carry the decimal alone
        let energy = match json_str_field(line, "bits") {
            Some(hex) => {
                let energy = f64::from_bits(u64::from_str_radix(hex, 16).ok()?);
                match decimal {
                    Some(decimal) if !decimal.is_some_and(|decimal| agrees(decimal, energy)) => {
                        return None
                    }
                    _ => energy,
                }
            }
            None => decimal??,
        };
        return Some(Record::Result(key, energy));
    }
    let legacy = json_uint_field(line, "gen").is_some()
        || (line.contains("\"stats\"")
            && json_uint_field(line, "hits").is_some()
            && json_uint_field(line, "misses").is_some());
    legacy.then_some(Record::Ignored)
}

/// The configuration `key` encodes, when `key` is that configuration's own
/// encoding.  `scratch` is reused across calls, so the check allocates nothing
/// per key for configurations that write their key in place.
fn decode_canonical<C: ConfigKey>(key: &str, scratch: &mut String) -> Option<C> {
    let config = C::decode_key(key)?;
    scratch.clear();
    config.write_key(scratch);
    (scratch == key).then_some(config)
}

/// How many records to make room for before indexing the log at `path`: one per
/// 64 bytes, about the length of a result line with a short key.
fn index_capacity_hint(path: &Path) -> io::Result<usize> {
    Ok(usize::try_from(std::fs::metadata(path)?.len() / 64).unwrap_or(0))
}

impl<C: ConfigKey + Eq + Hash + Clone> JsonlStore<C> {
    /// Open (or create) the store at `path`, loading every intact record.
    ///
    /// No context check is performed — prefer [`JsonlStore::open_with_context`] for
    /// stores that outlive one process.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut map = HashMap::new();
        let mut skipped = 0usize;
        let mut context = None;
        let mut saw_lines = false;
        let mut needs_seal = false;
        if path.exists() {
            map.reserve(index_capacity_hint(&path)?);
            let mut scratch = String::new();
            read_lines(&path, |line| {
                saw_lines = true;
                match line.and_then(parse_line) {
                    Some(Record::Result(key, energy)) => {
                        match decode_canonical(key, &mut scratch) {
                            Some(config) => {
                                map.insert(config, energy);
                            }
                            None => skipped += 1,
                        }
                    }
                    Some(Record::Context(loaded)) => context = Some(loaded.to_string()),
                    Some(Record::Ignored) => {}
                    None => skipped += 1,
                }
            })?;
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
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
        let store = JsonlStore {
            path,
            map: RwLock::new(map),
            writer: Mutex::new(writer),
            write_error: Mutex::new(None),
            skipped_lines: skipped,
            context,
            _lock: lock,
        };
        if !saw_lines {
            // stamp fresh stores with the current schema version so future readers
            // can detect (and migrate) old layouts
            store.append(&format!("{{\"schema\":\"{STORE_SCHEMA_VERSION}\"}}"));
            store.flush()?;
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

    /// Number of malformed/truncated lines skipped while loading.
    pub fn skipped_lines(&self) -> usize {
        self.skipped_lines
    }

    /// Durably append a torn (truncated, unparseable) record line for `hint` — the
    /// footprint a crash in the middle of a batch append leaves behind.  A worker
    /// injecting [`crate::FaultKind::TornWrite`] calls this before it aborts; a
    /// reload skips the line and counts it in [`JsonlStore::skipped_lines`], never
    /// half-parses it.
    pub(crate) fn inject_torn_write(&self, hint: &str) {
        // the front half of a result record with no closing quote or brace — what a
        // crash in the middle of `write(2)` leaves behind (written as its own line,
        // i.e. as the fragment looks once the tail is sealed, so the injection
        // stays local to one record)
        self.append(&format!("{{\"config\":\"{hint}\",\"ener"));
    }

    /// Append every result record of the log at `path` whose configuration this
    /// store does not hold yet, in the log's order, and return how many were
    /// appended.
    ///
    /// The log is read once, with the checks of a load: torn, foreign and
    /// non-canonical lines are skipped.  A configuration is taken at its first
    /// intact line; a later line of it, like a line of a configuration the store
    /// already holds, is skipped.  A line [`parse_canonical`] accepts is copied
    /// byte for byte as read; any other result line (a decimal-only one, say) is
    /// rewritten by [`write_result_line`].  As with
    /// [`ResultStore::record_batch`], a write error stops the appends and
    /// surfaces at the next [`ResultStore::flush`]; the returned error is a read
    /// error of `path`.  A missing log appends nothing.
    pub(crate) fn append_absent(&self, path: &Path) -> io::Result<usize> {
        if !path.exists() {
            return Ok(0);
        }
        let mut map = write_lock(&self.map);
        map.reserve(index_capacity_hint(path)?);
        let mut writer = lock(&self.writer);
        let mut scratch = String::new();
        let mut lines = 0;
        let mut wrote = Ok(());
        read_lines(path, |line| {
            let (Some(line), Ok(())) = (line, &wrote) else {
                return;
            };
            let (key, energy, verbatim) = match parse_canonical(line) {
                Some((key, energy)) => (key, energy, true),
                None => match parse_general(line) {
                    Some(Record::Result(key, energy)) => (key, energy, false),
                    _ => return,
                },
            };
            let Some(Entry::Vacant(slot)) =
                decode_canonical(key, &mut scratch).map(|config| map.entry(config))
            else {
                return;
            };
            wrote = if verbatim {
                writer
                    .write_all(line.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
            } else {
                write_result_line(&mut *writer, key, energy)
            };
            if wrote.is_ok() {
                slot.insert(energy);
                lines += 1;
            }
        })?;
        if let Err(error) = wrote {
            lock(&self.write_error).get_or_insert(error);
        }
        Ok(lines)
    }

    /// Append `line`, flush it to the OS so a kill cannot lose it, and remember the
    /// first write error for the next `flush`.
    fn append(&self, line: &str) {
        let mut writer = lock(&self.writer);
        if let Err(error) = writeln!(writer, "{line}").and_then(|()| writer.flush()) {
            lock(&self.write_error).get_or_insert(error);
        }
    }

    /// The result line of `key` and `energy`, without its newline.
    #[cfg(test)]
    fn result_line(key: &str, energy: f64) -> String {
        let mut line = Vec::new();
        write_result_line(&mut line, key, energy).expect("writes to a Vec cannot fail");
        line.pop();
        String::from_utf8(line).expect("result lines are UTF-8")
    }
}

/// Write the result line of `key` and `energy`, newline included.
fn write_result_line(out: &mut impl Write, key: &str, energy: f64) -> io::Result<()> {
    debug_assert!(
        !key.contains(['"', '\\', '\n', '\r']),
        "ConfigKey encodings must be JSON-string-safe: {key:?}"
    );
    writeln!(
        out,
        "{{\"config\":\"{key}\",\"energy\":{energy},\"bits\":\"{bits:016x}\"}}",
        bits = energy.to_bits()
    )
}

impl<C: ConfigKey + Eq + Hash + Clone> ResultStore<C> for JsonlStore<C> {
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
        self.record_batch(std::slice::from_ref(config), &[energy]);
    }

    fn record_batch(&self, configs: &[C], energies: &[f64]) {
        assert_eq!(configs.len(), energies.len());
        {
            // one writer lock for the whole batch keeps shard appends contiguous; the
            // trailing flush bounds what a kill can lose to this batch, and a write
            // error stops it
            let mut writer = lock(&self.writer);
            let mut key = String::new();
            let wrote = configs
                .iter()
                .zip(energies)
                .try_for_each(|(config, &energy)| {
                    key.clear();
                    config.write_key(&mut key);
                    write_result_line(&mut *writer, &key, energy)
                });
            if let Err(error) = wrote.and_then(|()| writer.flush()) {
                lock(&self.write_error).get_or_insert(error);
            }
        }
        let mut map = write_lock(&self.map);
        for (config, &energy) in configs.iter().zip(energies) {
            map.insert(config.clone(), energy);
        }
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
    fn memory_store_round_trips() {
        let store: MemoryStore<(u32, u32)> = MemoryStore::new();
        assert!(store.is_empty());
        assert_eq!(store.lookup(&(1, 2)), None);
        store.record(&(1, 2), 0.5);
        store.record_batch(&[(3, 4), (5, 6)], &[1.5, 2.5]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.lookup(&(3, 4)), Some(1.5));
        assert_eq!(store.lookup_batch(&[(1, 2), (9, 9)]), vec![Some(0.5), None]);
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
            store.flush().unwrap();
        }
        {
            let store: JsonlStore<(u32, u32)> = JsonlStore::open(&path).unwrap();
            assert_eq!(store.len(), 3);
            assert_eq!(store.skipped_lines(), 0);
            for (config, energy) in pairs {
                assert_eq!(store.lookup(&config).unwrap().to_bits(), energy.to_bits());
            }
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
    fn lines_that_are_not_utf8_are_skipped_and_counted() {
        let path = temp_path("not-utf8");
        let _ = std::fs::remove_file(&path);
        {
            let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
            store.record(&1, 1.0);
            store.flush().unwrap();
        }
        let mut contents = std::fs::read(&path).unwrap();
        contents.extend_from_slice(b"{\"config\":\"2\",\"energy\":2.\xff5}\n");
        std::fs::write(&path, &contents).unwrap();

        let (records, skipped) = read_result_records(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(skipped, 1);
        let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.skipped_lines(), 1);
        assert_eq!(store.lookup(&2), None);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn context_stamp_guards_against_cross_objective_reuse() {
        let path = temp_path("context");
        let _ = std::fs::remove_file(&path);
        {
            let store: JsonlStore<u32> =
                JsonlStore::open_with_context(&path, "em|human|3170000000").unwrap();
            store.record(&1, 1.0);
            store.flush().unwrap();
        }
        // the stamp follows the schema line of the fresh file
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            contents.lines().nth(1),
            Some("{\"context\":\"em|human|3170000000\"}")
        );
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
        let header = format!("{{\"schema\":\"{STORE_SCHEMA_VERSION}\"}}\n");
        {
            let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), header);
            store.record(&1, 1.0);
            store.flush().unwrap();
        }
        // the header is a recognised record kind, not a skipped foreign line, and a
        // reopened store does not stamp its file again
        let written = std::fs::read(&path).unwrap();
        let reopened: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        assert_eq!(reopened.skipped_lines(), 0);
        assert_eq!(reopened.len(), 1);
        assert_eq!(std::fs::read(&path).unwrap(), written);
        drop(reopened);
        std::fs::remove_file(&path).unwrap();

        // pre-header stores load fine and stay unstamped
        let old = temp_path("schema-old");
        let contents = "{\"config\":\"7\",\"energy\":1.5}\n";
        std::fs::write(&old, contents).unwrap();
        let store: JsonlStore<u32> = JsonlStore::open(&old).unwrap();
        assert_eq!(store.lookup(&7), Some(1.5));
        assert_eq!(std::fs::read_to_string(&old).unwrap(), contents);
        drop(store);
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
        let sealed = std::fs::metadata(&path).unwrap().len();
        assert_eq!(sealed, contents.len() as u64 + 1);
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
            store.inject_torn_write("torn-hint");
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
        // the context stamp, one record per key, one merged stats line; then a
        // later campaign's stats line
        let path = temp_path("legacy-gen");
        let awkward: f64 = 0.1 + 0.2;
        std::fs::write(
            &path,
            format!(
                "{{\"schema\":\"{STORE_SCHEMA_VERSION}\"}}\n\
                 {{\"gen\":1}}\n\
                 {{\"context\":\"em|human|legacy\"}}\n\
                 {}\n{}\n\
                 {{\"stats\":{{\"hits\":6,\"misses\":7}}}}\n\
                 {{\"stats\":{{\"hits\":3,\"misses\":1}}}}\n",
                JsonlStore::<u32>::result_line("1", 3.0),
                JsonlStore::<u32>::result_line("2", awkward),
            ),
        )
        .unwrap();
        let store: JsonlStore<u32> =
            JsonlStore::open_with_context(&path, "em|human|legacy").unwrap();
        assert_eq!(store.skipped_lines(), 0);
        assert_eq!(store.len(), 2);
        assert_eq!(store.lookup(&1), Some(3.0));
        assert_eq!(store.lookup(&2).unwrap().to_bits(), awkward.to_bits());
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn records_whose_two_energy_fields_disagree_are_skipped() {
        let path = temp_path("disagree");
        let intact = [
            (1u32, 0.1 + 0.2),
            (2, 1e-300),
            (3, f64::INFINITY),
            (4, f64::NAN),
        ];
        let mut contents: String = intact
            .iter()
            .chain(&[(5, -0.0), (6, 2.5), (7, 7.25)])
            .map(|&(key, energy)| JsonlStore::<u32>::result_line(&key.to_string(), energy) + "\n")
            .collect();
        // one flipped hex digit of `bits` (2.5 loads as 2.625), one flipped decimal
        // digit of `energy`
        for (from, to) in [("\"bits\":\"4004", "\"bits\":\"4005"), ("7.25", "7.35")] {
            assert!(contents.contains(from));
            contents = contents.replace(from, to);
        }
        std::fs::write(&path, contents).unwrap();

        let store: JsonlStore<u32> = JsonlStore::open(&path).unwrap();
        assert_eq!(store.skipped_lines(), 2);
        assert_eq!(store.len(), 5);
        assert_eq!(store.lookup(&6), None);
        assert_eq!(store.lookup(&7), None);
        for (key, energy) in intact.into_iter().chain([(5, -0.0)]) {
            assert_eq!(store.lookup(&key).unwrap().to_bits(), energy.to_bits());
        }
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn the_one_pass_parser_agrees_with_the_general_one() {
        let verdict =
            |line: &[u8], parse: fn(&str) -> Option<Record<'_>>| match std::str::from_utf8(line)
                .ok()
                .and_then(parse)
            {
                Some(Record::Result(key, energy)) => format!("{key} {:016x}", energy.to_bits()),
                Some(other) => format!("{other:?}"),
                None => "rejected".to_string(),
            };
        let bowl = f64::from(13u32).powi(2) + f64::from(7u32).powi(2);
        let energies = [0.1 + 0.2, 1e-300, f64::INFINITY, f64::NAN, -0.0, bowl];
        let keys = ["3,4", "299,199", "em|human|3170000000"];
        let mut checked = 0;
        for (energy, key) in energies.into_iter().zip(keys.iter().cycle()) {
            let line = JsonlStore::<u32>::result_line(key, energy);
            assert!(parse_canonical(&line).is_some(), "{line}");
            let line = line.as_bytes();
            let mut variants: Vec<Vec<u8>> =
                (0..=line.len()).map(|end| line[..end].to_vec()).collect();
            for at in 0..line.len() {
                for byte in [b'"', b',', b'}', b'0', b'f', b' ', 0xFF] {
                    let mut variant = line.to_vec();
                    variant[at] = byte;
                    variants.push(variant);
                }
            }
            for variant in variants {
                assert_eq!(
                    verdict(&variant, parse_line),
                    verdict(&variant, parse_general),
                    "{}",
                    String::from_utf8_lossy(&variant)
                );
                checked += 1;
            }
        }
        assert!(checked > 1_000);
    }

    #[test]
    fn the_index_serves_exactly_the_intact_records_of_canonical_keys() {
        let path = temp_path("typed-index");
        let awkward: f64 = 0.1 + 0.2;
        let line = |key: &str, energy: f64| JsonlStore::<(u32, u32)>::result_line(key, energy);
        let served = [((3, 4), awkward), ((0, 0), 1e-300), ((5, 6), 2.75)];
        let contents = [
            line("3,4", awkward),
            line("0,0", 1e-300),
            "{\"config\":\"5,6\",\"energy\":2.75}".to_string(),
            line("7,8", 2.5).replace("\"energy\":2.5", "\"energy\":2.6"),
            line("x,7", 1.0),
            line("07,3", 1.0),
            line("+7,3", 1.0),
            "{\"config\":\"9,9\",\"ener".to_string(),
        ]
        .join("\n");
        std::fs::write(&path, contents).unwrap();

        let store: JsonlStore<(u32, u32)> = JsonlStore::open(&path).unwrap();
        assert_eq!(store.skipped_lines(), 5);
        assert_eq!(store.len(), served.len());
        for (config, energy) in served {
            assert_eq!(
                store.lookup(&config).map(f64::to_bits),
                Some(energy.to_bits())
            );
        }
        assert_eq!(store.lookup_batch(&[(7, 8), (7, 3), (9, 9)]), [None; 3]);
        drop(store);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_campaign_log_holds_its_stamps_and_results_and_nothing_else() {
        use crate::ShardedCampaign;
        use wd_opt::space::GridSpace;
        use wd_opt::SearchSpace;

        let path = temp_path("campaign-bytes");
        let _ = std::fs::remove_file(&path);
        let space = GridSpace {
            width: 6,
            height: 4,
        };
        let bowl = |&(x, y): &(u32, u32)| f64::from(x).powi(2) + 0.1 * f64::from(y);
        let context = "bowl|6x4";
        let store: JsonlStore<(u32, u32)> = JsonlStore::open_with_context(&path, context).unwrap();
        // one shard appends its batches in index order, so the bytes are exact
        let campaign = ShardedCampaign::new(1);
        let cold = campaign.run(&space, &bowl, &store).unwrap();
        let warm = campaign.run(&space, &bowl, &store).unwrap();
        assert_eq!((cold.stats.misses, warm.stats.hits), (24, 24));
        drop(store);

        let mut want =
            format!("{{\"schema\":\"{STORE_SCHEMA_VERSION}\"}}\n{{\"context\":\"{context}\"}}\n");
        for index in 0..space.space_len().unwrap() {
            let config = space.config_at(index).unwrap();
            want += &JsonlStore::<(u32, u32)>::result_line(&config.encode_key(), bowl(&config));
            want.push('\n');
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), want);
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
