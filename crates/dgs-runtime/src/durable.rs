//! Durable, crash-consistent checkpoint storage.
//!
//! [`DurableStore`] persists per-partition snapshots as **append-only
//! segment files** (one per partition root, in the spirit of pelikan's
//! `datapool`): each checkpoint is a length-prefixed, CRC-32-checksummed
//! record of `(root, ts, state)`, fsync'd on append, so the valid prefix
//! of a segment survives any crash. A **manifest** summarising segment
//! lengths is rewritten via write-tmp-then-rename (never updated in
//! place) and carries its own CRC; on open it is an integrity check and
//! a hint, while the segments themselves are the source of truth — a
//! stale manifest is tolerated, a manifest *ahead* of its segment means
//! data loss and is refused. Large per-key states stay cheap through
//! **incremental snapshots**: every fourth record per root is a full
//! encoding, the rest are deltas against the last full one
//! ([`StateCodec::encode_delta`]).
//!
//! Crash realism comes from a deterministic fault-injection layer
//! *below* the store trait: a [`FaultPlan`] crashes the writer of one
//! partition after its N-th append, optionally leaving behind exactly
//! the wreckage real crashes leave — a torn tail write, a truncated
//! manifest, or a manifest lagging the segments. Every failure mode is
//! a seeded, reproducible test case; [`DurableStore::open`] must repair
//! or reject each one.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dgs_core::codec::{CodecError, Reader, StateCodec};
use dgs_core::event::Timestamp;
use dgs_metrics::StoreMetrics;
use dgs_plan::plan::WorkerId;

use crate::checkpoint::{CheckpointStore, MemoryStore};

/// A durable-store failure.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level I/O failure.
    Io {
        /// File or directory involved.
        path: PathBuf,
        /// What the store was doing.
        op: &'static str,
        /// The underlying error.
        err: std::io::Error,
    },
    /// On-disk bytes that cannot be reconciled with a correct history
    /// (e.g. a manifest claiming more bytes than its segment holds).
    Corrupt(String),
    /// The writer hit its injected crash point; the partition's process
    /// is "dead" and every further append through this store object
    /// must fail, exactly like writes after a real crash.
    Crashed {
        /// Scoped appends that became durable before the crash.
        appends: u64,
    },
    /// A state failed to decode (only reachable through
    /// [`StoreError::Corrupt`] paths at open; kept distinct for tests).
    Codec(CodecError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, op, err } => {
                write!(f, "checkpoint io: {op} {}: {err}", path.display())
            }
            StoreError::Corrupt(what) => write!(f, "checkpoint corruption: {what}"),
            StoreError::Crashed { appends } => {
                write!(f, "checkpoint writer crashed (after {appends} appends)")
            }
            StoreError::Codec(e) => write!(f, "checkpoint codec: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

fn io_err(path: &Path, op: &'static str, err: std::io::Error) -> StoreError {
    StoreError::Io { path: path.to_path_buf(), op, err }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE), bitwise — plenty for checkpoint-sized records.
// ---------------------------------------------------------------------

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Tiny deterministic generator for fault-injection byte patterns.
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x.max(1);
    x
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

/// What wreckage the injected crash leaves on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The process dies between appends: segments end on a record
    /// boundary, the manifest may simply be one rewrite behind.
    CleanCrash,
    /// The process dies *mid-write*: a partial, CRC-invalid record
    /// prefix is left at the segment tail. Open must truncate it away.
    TornTail,
    /// The manifest file is cut short (as if an in-place writer died —
    /// the tmp+rename protocol can't produce this itself, but external
    /// corruption can). Open must fall back to scanning segments.
    TruncatedManifest,
    /// Manifest rewrites stopped a few appends before the crash, so the
    /// segments hold CRC-valid records the manifest doesn't know about.
    /// Open must trust the segments and accept the extra records.
    StaleManifest,
}

/// A deterministic crash plan, scoped to one partition's writer: after
/// that partition's `crash_after_appends`-th durable append, apply
/// [`Fault`] and kill the writer (further appends return
/// [`StoreError::Crashed`]). `seed` fixes every byte of the injected
/// wreckage, so each failure mode is a reproducible test, not a hope.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// Crash after this many appends by the scoped partition (1-based;
    /// the N-th append itself is durable).
    pub crash_after_appends: u64,
    /// The on-disk damage to leave behind.
    pub fault: Fault,
    /// Seeds torn-tail bytes, truncation offsets, and staleness lag.
    pub seed: u64,
}

#[derive(Debug)]
struct ScopedFaults {
    plan: FaultPlan,
    root: WorkerId,
    /// Scoped appends so far.
    appends: u64,
    /// For [`Fault::StaleManifest`]: how many appends before the crash
    /// manifest rewrites stop (derived from the seed, ≥ 1).
    stale_lag: u64,
}

// ---------------------------------------------------------------------
// Store.
// ---------------------------------------------------------------------

/// Every `FULL_EVERY`-th record per root is a full snapshot; the records
/// in between are deltas against the last full one.
const FULL_EVERY: u64 = 4;

/// What [`DurableStore::open`] found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpenReport {
    /// Valid records recovered across all segments.
    pub records: usize,
    /// Garbage bytes truncated off segment tails (torn writes).
    pub repaired_bytes: u64,
    /// True if the manifest was absent/unreadable and recovery fell
    /// back to scanning segments alone.
    pub manifest_fallback: bool,
}

#[derive(Debug)]
struct Part<S> {
    file: File,
    path: PathBuf,
    bytes: u64,
    records: u64,
    last_full: Option<S>,
}

const MANIFEST: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";
const MANIFEST_HEADER: &str = "flumina-checkpoint-manifest v1";
const KIND_FULL: u8 = 0;
const KIND_DELTA: u8 = 1;

/// The durable checkpoint backend. See the [module docs](self) for the
/// on-disk layout and crash-consistency contract.
#[derive(Debug)]
pub struct DurableStore<S> {
    dir: PathBuf,
    /// In-memory image of everything durable, serving all reads.
    mirror: MemoryStore<S>,
    parts: BTreeMap<WorkerId, Part<S>>,
    faults: Option<ScopedFaults>,
    crashed: bool,
    report: OpenReport,
    /// Observability sink (see [`DurableStore::with_metrics`]).
    metrics: Option<Arc<StoreMetrics>>,
}

impl<S: StateCodec + Clone> DurableStore<S> {
    /// Open (or create) the store rooted at `dir`, recovering every
    /// valid on-disk record.
    ///
    /// Recovery protocol: read the manifest if its CRC holds (otherwise
    /// fall back to segments alone); scan each segment front-to-back,
    /// accepting records while length bounds, CRC, and state decoding
    /// all hold; truncate whatever follows the valid prefix (a torn
    /// tail); and refuse the directory if a valid manifest claims more
    /// bytes than a segment actually holds — that is data loss, not a
    /// stale hint.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, "create_dir_all", e))?;
        let manifest = read_manifest(&dir)?;
        let mut report = OpenReport {
            manifest_fallback: manifest.is_none(),
            ..OpenReport::default()
        };
        let mut mirror = MemoryStore::new();
        let mut parts = BTreeMap::new();
        for (root, path) in list_segments(&dir)? {
            let scan = scan_segment::<S>(&path, root)?;
            let disk_len =
                fs::metadata(&path).map_err(|e| io_err(&path, "metadata", e))?.len();
            if let Some(m) = &manifest {
                let claimed = m.roots.get(&root).map(|(b, _)| *b).unwrap_or(0);
                if claimed > scan.valid_len {
                    return Err(StoreError::Corrupt(format!(
                        "manifest claims {claimed} bytes for root {} but segment {} holds \
                         only {} valid bytes — durable data is missing",
                        root.0,
                        path.display(),
                        scan.valid_len
                    )));
                }
            }
            if disk_len > scan.valid_len {
                // Torn tail: cut the segment back to its valid prefix.
                report.repaired_bytes += disk_len - scan.valid_len;
                let f = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err(&path, "open for repair", e))?;
                f.set_len(scan.valid_len).map_err(|e| io_err(&path, "truncate", e))?;
                f.sync_data().map_err(|e| io_err(&path, "fsync after repair", e))?;
            }
            report.records += scan.records.len();
            for (ts, state) in &scan.records {
                mirror.record(root, state.clone(), *ts)?;
            }
            let file = OpenOptions::new()
                .append(true)
                .open(&path)
                .map_err(|e| io_err(&path, "open append", e))?;
            parts.insert(
                root,
                Part {
                    file,
                    path,
                    bytes: scan.valid_len,
                    records: scan.records.len() as u64,
                    last_full: scan.last_full,
                },
            );
        }
        // A valid manifest may also claim roots with no segment at all.
        if let Some(m) = &manifest {
            for (root, (bytes, _)) in &m.roots {
                if *bytes > 0 && !parts.contains_key(root) {
                    return Err(StoreError::Corrupt(format!(
                        "manifest claims {bytes} bytes for root {} but its segment is gone",
                        root.0
                    )));
                }
            }
        }
        Ok(DurableStore {
            dir,
            mirror,
            parts,
            faults: None,
            crashed: false,
            report,
            metrics: None,
        })
    }

    /// Attach a metrics sink: future appends record their count and
    /// `sync_data` latency into it, and what [`DurableStore::open`]
    /// already found is folded in immediately — repaired bytes always,
    /// and a manifest fallback only when the store actually held data
    /// (a fresh empty directory legitimately has no manifest yet).
    pub fn with_metrics(mut self, metrics: Arc<StoreMetrics>) -> Self {
        metrics.repaired_bytes.add(self.report.repaired_bytes);
        if self.report.manifest_fallback
            && (self.report.records > 0 || self.report.repaired_bytes > 0)
        {
            metrics.manifest_fallbacks.inc();
        }
        self.metrics = Some(metrics);
        self
    }

    /// Arm a deterministic crash plan against the writer of partition
    /// `root`. Appends by other partitions are unaffected failure
    /// domains and keep working after the crash.
    pub fn with_faults(mut self, plan: FaultPlan, root: WorkerId) -> Self {
        let mut s = plan.seed | 1;
        let stale_lag = 1 + xorshift64(&mut s) % 3;
        self.faults = Some(ScopedFaults { plan, root, appends: 0, stale_lag });
        self
    }

    /// What [`DurableStore::open`] found and repaired.
    pub fn open_report(&self) -> &OpenReport {
        &self.report
    }

    /// True once the injected crash point has fired.
    pub fn has_crashed(&self) -> bool {
        self.crashed
    }

    fn segment_path(dir: &Path, root: WorkerId) -> PathBuf {
        dir.join(format!("seg-{:06}.log", root.0))
    }

    fn append(&mut self, root: WorkerId, state: S, ts: Timestamp) -> Result<(), StoreError> {
        if self.crashed && self.faults.as_ref().is_some_and(|f| f.root == root) {
            let appends = self.faults.as_ref().map(|f| f.appends).unwrap_or(0);
            return Err(StoreError::Crashed { appends });
        }
        // Per-root checkpoint timestamps are monotone within one logical
        // run; an append *behind* what the directory already holds means
        // a second history is being written over the first (typically a
        // fresh run pointed at a used checkpoint dir). Refuse before
        // touching the file — recovery must never see interleaved runs.
        if let Some((_, last)) = self.mirror.latest(root) {
            let last = *last;
            if last > ts {
                return Err(StoreError::Corrupt(format!(
                    "append at ts {ts} is behind root {}'s latest durable checkpoint \
                     (ts {last}): the directory already holds a later history — \
                     use a fresh checkpoint dir per run",
                    root.0
                )));
            }
        }
        if !self.parts.contains_key(&root) {
            let path = Self::segment_path(&self.dir, root);
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| io_err(&path, "create segment", e))?;
            self.parts.insert(
                root,
                Part { file, path, bytes: 0, records: 0, last_full: None },
            );
        }
        let part = self.parts.get_mut(&root).expect("just inserted");
        // Frame: [len:u32][crc32(payload):u32][payload], payload being
        // (root:u64, ts:u64, kind:u8, state bytes). Every FULL_EVERY-th
        // record per root is a full snapshot, the rest deltas against
        // the last full one.
        let kind = match &part.last_full {
            Some(_) if !part.records.is_multiple_of(FULL_EVERY) => KIND_DELTA,
            _ => KIND_FULL,
        };
        let mut payload = Vec::new();
        (root.0 as u64).encode(&mut payload);
        ts.encode(&mut payload);
        payload.push(kind);
        match (kind, &part.last_full) {
            (KIND_DELTA, Some(base)) => state.encode_delta(base, &mut payload),
            _ => state.encode(&mut payload),
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        (payload.len() as u32).encode(&mut frame);
        crc32(&payload).encode(&mut frame);
        frame.extend_from_slice(&payload);
        part.file
            .write_all(&frame)
            .map_err(|e| io_err(&part.path, "append", e))?;
        let fsync_start = self.metrics.as_ref().map(|_| Instant::now());
        part.file
            .sync_data()
            .map_err(|e| io_err(&part.path, "fsync", e))?;
        if let (Some(m), Some(t0)) = (&self.metrics, fsync_start) {
            m.appends.inc();
            m.fsync.record(t0.elapsed().as_nanos() as u64);
        }
        part.bytes += frame.len() as u64;
        part.records += 1;
        if kind == KIND_FULL {
            part.last_full = Some(state.clone());
        }
        self.mirror.record(root, state, ts)?;
        // Fault bookkeeping: the N-th scoped append is durable, *then*
        // the writer dies, leaving the planned wreckage behind.
        let mut crash_now = false;
        if let Some(f) = &mut self.faults {
            if f.root == root {
                f.appends += 1;
                if f.appends == f.plan.crash_after_appends {
                    crash_now = true;
                }
            }
        }
        if crash_now {
            self.apply_fault()?;
            self.crashed = true;
        }
        // The manifest is maintained by the (single) writer process; a
        // dead writer rewrites nothing, and a StaleManifest plan stops
        // rewrites a seeded window early.
        if !self.crashed && !self.manifest_suppressed() {
            self.write_manifest()?;
        }
        Ok(())
    }

    fn manifest_suppressed(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| {
            f.plan.fault == Fault::StaleManifest
                && f.appends + f.stale_lag > f.plan.crash_after_appends
        })
    }

    fn apply_fault(&mut self) -> Result<(), StoreError> {
        let f = self.faults.as_ref().expect("fault armed");
        let (fault, root, mut seed) = (f.plan.fault, f.root, f.plan.seed | 1);
        match fault {
            Fault::CleanCrash | Fault::StaleManifest => {}
            Fault::TornTail => {
                // A partial record the crashed writer never finished:
                // a plausible frame header plus a truncated payload
                // whose CRC can't hold.
                let part = self.parts.get_mut(&root).expect("scoped root has a segment");
                let mut frame = Vec::new();
                (48u32).encode(&mut frame);
                (xorshift64(&mut seed) as u32).encode(&mut frame);
                for _ in 0..48 {
                    frame.push(xorshift64(&mut seed) as u8);
                }
                let cut = 1 + (xorshift64(&mut seed) as usize) % (frame.len() - 1);
                part.file
                    .write_all(&frame[..cut])
                    .map_err(|e| io_err(&part.path, "torn write", e))?;
                part.file
                    .sync_data()
                    .map_err(|e| io_err(&part.path, "fsync torn write", e))?;
            }
            Fault::TruncatedManifest => {
                self.write_manifest()?;
                let path = self.dir.join(MANIFEST);
                let len = fs::metadata(&path)
                    .map_err(|e| io_err(&path, "metadata", e))?
                    .len();
                // Keep the cut at least two bytes short of the end: the
                // trailing `crc <hex>\n` line only stops validating once
                // the hex itself is damaged.
                let cut = 1 + xorshift64(&mut seed) % len.saturating_sub(2).max(1);
                let file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| io_err(&path, "open manifest", e))?;
                file.set_len(cut).map_err(|e| io_err(&path, "truncate manifest", e))?;
                file.sync_data().map_err(|e| io_err(&path, "fsync manifest", e))?;
            }
        }
        Ok(())
    }

    fn write_manifest(&self) -> Result<(), StoreError> {
        let mut body = String::new();
        body.push_str(MANIFEST_HEADER);
        body.push('\n');
        let total: u64 = self.parts.values().map(|p| p.records).sum();
        body.push_str(&format!("appends {total}\n"));
        for (root, part) in &self.parts {
            body.push_str(&format!(
                "root {} bytes {} records {}\n",
                root.0, part.bytes, part.records
            ));
        }
        let crc = crc32(body.as_bytes());
        body.push_str(&format!("crc {crc:08x}\n"));
        let tmp = self.dir.join(MANIFEST_TMP);
        let path = self.dir.join(MANIFEST);
        let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, "create tmp manifest", e))?;
        f.write_all(body.as_bytes())
            .map_err(|e| io_err(&tmp, "write tmp manifest", e))?;
        f.sync_data().map_err(|e| io_err(&tmp, "fsync tmp manifest", e))?;
        drop(f);
        fs::rename(&tmp, &path).map_err(|e| io_err(&path, "rename manifest", e))?;
        // Make the rename itself durable.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_data();
        }
        Ok(())
    }
}

impl<S: StateCodec + Clone> CheckpointStore<S> for DurableStore<S> {
    fn record(&mut self, root: WorkerId, state: S, ts: Timestamp) -> Result<(), StoreError> {
        self.append(root, state, ts)
    }
    fn latest(&self, root: WorkerId) -> Option<&(S, Timestamp)> {
        self.mirror.latest(root)
    }
    fn nth(&self, root: WorkerId, k: usize) -> Option<&(S, Timestamp)> {
        self.mirror.nth(root, k)
    }
    fn of_root(&self, root: WorkerId) -> &[(S, Timestamp)] {
        self.mirror.of_root(root)
    }
    fn roots(&self) -> Vec<WorkerId> {
        self.mirror.roots()
    }
    fn len(&self) -> usize {
        self.mirror.len()
    }
}

// ---------------------------------------------------------------------
// On-disk readers.
// ---------------------------------------------------------------------

struct ParsedManifest {
    roots: BTreeMap<WorkerId, (u64, u64)>,
}

/// Read and validate the manifest. `Ok(None)` means "absent or
/// unreadable — fall back to scanning segments"; only I/O failures are
/// hard errors (an unreadable manifest is an expected crash artifact).
fn read_manifest(dir: &Path) -> Result<Option<ParsedManifest>, StoreError> {
    let path = dir.join(MANIFEST);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(&path, "read manifest", e)),
    };
    // Corruption can turn the text binary; an undecodable manifest is
    // the same expected crash artifact as a truncated one.
    let Ok(text) = String::from_utf8(bytes) else { return Ok(None) };
    // The crc line covers every byte before it.
    let Some(crc_at) = text.rfind("crc ") else { return Ok(None) };
    if !text[..crc_at].ends_with('\n') && crc_at != 0 {
        return Ok(None);
    }
    // Exactly eight lowercase hex digits and a newline: a lax parse
    // (trimmed whitespace, leading-zero-elided forms) would let a flip
    // inside the checksum field itself decode back to the same value.
    let Some(hex) = text[crc_at + 4..].strip_suffix('\n') else { return Ok(None) };
    if hex.len() != 8 || hex.bytes().any(|b| !matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
        return Ok(None);
    }
    if u32::from_str_radix(hex, 16) != Ok(crc32(&text.as_bytes()[..crc_at])) {
        return Ok(None);
    }
    let mut lines = text[..crc_at].lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Ok(None);
    }
    let mut roots = BTreeMap::new();
    for line in lines {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["appends", _] => {}
            ["root", r, "bytes", b, "records", k] => {
                let (Ok(r), Ok(b), Ok(k)) =
                    (r.parse::<usize>(), b.parse::<u64>(), k.parse::<u64>())
                else {
                    return Ok(None);
                };
                roots.insert(WorkerId(r), (b, k));
            }
            _ => return Ok(None),
        }
    }
    Ok(Some(ParsedManifest { roots }))
}

/// Segment files present in `dir`, keyed by the root parsed from the
/// `seg-<root>.log` name.
fn list_segments(dir: &Path) -> Result<Vec<(WorkerId, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, "read_dir", e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, "read_dir entry", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(root) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<usize>().ok())
        {
            out.push((WorkerId(root), entry.path()));
        }
    }
    out.sort_by_key(|(r, _)| *r);
    Ok(out)
}

struct SegScan<S> {
    /// Valid records in append order, states fully materialized (deltas
    /// applied against their base snapshots).
    records: Vec<(Timestamp, S)>,
    /// Byte length of the valid prefix.
    valid_len: u64,
    /// Last full snapshot, the base for any further delta appends.
    last_full: Option<S>,
}

/// Scan one segment front-to-back, accepting the longest prefix of
/// records whose framing, CRC, and state decoding all hold. Anything
/// after the first bad byte is a torn tail (any single-bit flip fails
/// the CRC, so a flipped record and everything behind it is rejected
/// rather than silently decoded).
fn scan_segment<S: StateCodec + Clone>(
    path: &Path,
    expect_root: WorkerId,
) -> Result<SegScan<S>, StoreError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, "read segment", e))?;
    let mut pos = 0usize;
    let mut records = Vec::new();
    let mut last_full: Option<S> = None;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4"));
        if len > bytes.len() - pos - 8 {
            break; // torn: the record was never fully written
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break; // torn or flipped
        }
        let mut r = Reader::new(payload);
        let parsed = (|| -> Result<(u64, Timestamp, S), CodecError> {
            let root = r.u64()?;
            let ts = r.u64()?;
            let state = match r.u8()? {
                KIND_FULL => S::decode(&mut r)?,
                KIND_DELTA => match &last_full {
                    Some(base) => S::apply_delta(base, &mut r)?,
                    None => return Err(CodecError::Invalid("delta with no base snapshot")),
                },
                _ => return Err(CodecError::Invalid("record kind")),
            };
            if r.remaining() != 0 {
                return Err(CodecError::Trailing(r.remaining()));
            }
            Ok((root, ts, state))
        })();
        let Ok((root, ts, state)) = parsed else { break };
        if root != expect_root.0 as u64 {
            break; // record landed in the wrong segment: corrupt
        }
        // Full records re-anchor the delta chain; payload byte 16 is the
        // kind (after root + ts).
        if payload[16] == KIND_FULL {
            last_full = Some(state.clone());
        }
        records.push((ts, state));
        pos += 8 + len;
    }
    Ok(SegScan { records, valid_len: pos as u64, last_full })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dgs_sync::atomic::{AtomicU64, Ordering};

    const R0: WorkerId = WorkerId(0);
    const R1: WorkerId = WorkerId(1);

    /// Fresh scratch dir per test (no tempfile crate in the image);
    /// shared with the other checkpoint-plane unit tests in this crate.
    pub(crate) fn scratch(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "flumina-durable-{}-{}-{}",
            name,
            std::process::id(),
            // ORDERING: Relaxed — scratch-dir uniquifier only.
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    type Map = std::collections::BTreeMap<u32, i64>;

    fn maps(n: u64) -> Vec<Map> {
        (0..n)
            .map(|i| (0..=i as u32 % 5).map(|k| (k, (i as i64) * 10 + k as i64)).collect())
            .collect()
    }

    #[test]
    fn write_reopen_roundtrips_across_delta_chains() {
        let dir = scratch("roundtrip");
        let snaps = maps(11); // crosses several full/delta boundaries at K=4
        {
            let mut store = DurableStore::<Map>::open(&dir).unwrap();
            for (i, s) in snaps.iter().enumerate() {
                store.record(R0, s.clone(), i as u64 + 1).unwrap();
            }
            assert_eq!(CheckpointStore::len(&store), 11);
        }
        // Fresh object, same dir: everything must come back from disk.
        let store = DurableStore::<Map>::open(&dir).unwrap();
        assert_eq!(store.open_report().records, 11);
        assert!(!store.open_report().manifest_fallback);
        assert_eq!(store.open_report().repaired_bytes, 0);
        let got: Vec<Map> =
            store.of_root(R0).iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(got, snaps);
        assert_eq!(store.latest(R0), Some(&(snaps[10].clone(), 11)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn deltas_are_smaller_than_full_records() {
        let dir = scratch("delta-size");
        let base: Map = (0..500u32).map(|k| (k, k as i64)).collect();
        let mut store = DurableStore::<Map>::open(&dir).unwrap();
        store.record(R0, base.clone(), 1).unwrap(); // full
        let mut next = base.clone();
        next.insert(3, -3);
        store.record(R0, next, 2).unwrap(); // delta: one changed key
        let seg = fs::read(DurableStore::<Map>::segment_path(&dir, R0)).unwrap();
        let full_len = u32::from_le_bytes(seg[0..4].try_into().unwrap()) as usize;
        let delta_at = 8 + full_len;
        let delta_len =
            u32::from_le_bytes(seg[delta_at..delta_at + 4].try_into().unwrap()) as usize;
        assert!(
            delta_len * 20 < full_len,
            "delta {delta_len} vs full {full_len}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The metrics sink sees every append with its fsync latency, and
    /// reopening a manifest-less but non-empty store counts as a
    /// fallback (while a fresh empty dir does not).
    #[test]
    fn metrics_sink_counts_appends_and_fallbacks() {
        let dir = scratch("metrics");
        let fresh = Arc::new(StoreMetrics::default());
        {
            let mut store =
                DurableStore::<i64>::open(&dir).unwrap().with_metrics(fresh.clone());
            // A fresh empty dir has no manifest; that is not a fallback.
            assert_eq!(fresh.manifest_fallbacks.get(), 0);
            store.record(R0, 10, 1).unwrap();
            store.record(R0, 20, 2).unwrap();
            store.record(R1, -5, 1).unwrap();
        }
        assert_eq!(fresh.appends.get(), 3);
        let fsync = fresh.fsync.snapshot();
        assert_eq!(fsync.count, 3);
        assert!(fsync.sum > 0, "fsync latencies must be recorded");
        // Delete the manifest: reopening recovers from segments alone,
        // which the sink must surface as a fallback.
        fs::remove_file(dir.join(MANIFEST)).unwrap();
        let reopened = Arc::new(StoreMetrics::default());
        let store = DurableStore::<i64>::open(&dir).unwrap().with_metrics(reopened.clone());
        assert!(store.open_report().manifest_fallback);
        assert_eq!(reopened.manifest_fallbacks.get(), 1);
        assert_eq!(reopened.appends.get(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn roots_are_separate_segments() {
        let dir = scratch("two-roots");
        {
            let mut store = DurableStore::<i64>::open(&dir).unwrap();
            store.record(R0, 10, 1).unwrap();
            store.record(R1, -7, 1).unwrap();
            store.record(R0, 20, 2).unwrap();
        }
        let store = DurableStore::<i64>::open(&dir).unwrap();
        assert_eq!(store.of_root(R0), &[(10, 1), (20, 2)]);
        assert_eq!(store.of_root(R1), &[(-7, 1)]);
        assert_eq!(CheckpointStore::roots(&store), vec![R0, R1]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_crash_kills_only_the_scoped_root() {
        let dir = scratch("clean-crash");
        let mut store = DurableStore::<i64>::open(&dir).unwrap().with_faults(
            FaultPlan { crash_after_appends: 2, fault: Fault::CleanCrash, seed: 9 },
            R0,
        );
        store.record(R0, 1, 1).unwrap();
        store.record(R0, 2, 2).unwrap(); // the 2nd append is durable, then: crash
        assert!(store.has_crashed());
        assert!(matches!(
            store.record(R0, 3, 3),
            Err(StoreError::Crashed { appends: 2 })
        ));
        // The other partition is an independent failure domain.
        store.record(R1, 100, 1).unwrap();
        drop(store);
        let store = DurableStore::<i64>::open(&dir).unwrap();
        assert_eq!(store.of_root(R0), &[(1, 1), (2, 2)]);
        assert_eq!(store.of_root(R1), &[(100, 1)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = scratch("torn");
        for seed in [1u64, 7, 42, 1234] {
            let _ = fs::remove_dir_all(&dir);
            let mut store = DurableStore::<i64>::open(&dir).unwrap().with_faults(
                FaultPlan { crash_after_appends: 3, fault: Fault::TornTail, seed },
                R0,
            );
            for i in 1..=3i64 {
                store.record(R0, i, i as u64).unwrap();
            }
            assert!(store.has_crashed());
            drop(store);
            let seg = DurableStore::<i64>::segment_path(&dir, R0);
            let dirty = fs::metadata(&seg).unwrap().len();
            let store = DurableStore::<i64>::open(&dir).unwrap();
            assert_eq!(store.of_root(R0), &[(1, 1), (2, 2), (3, 3)], "seed {seed}");
            assert!(store.open_report().repaired_bytes > 0, "seed {seed}");
            assert!(fs::metadata(&seg).unwrap().len() < dirty, "seed {seed}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_manifest_falls_back_to_segment_scan() {
        let dir = scratch("trunc-manifest");
        for seed in [3u64, 19, 77] {
            let _ = fs::remove_dir_all(&dir);
            let mut store = DurableStore::<i64>::open(&dir).unwrap().with_faults(
                FaultPlan {
                    crash_after_appends: 2,
                    fault: Fault::TruncatedManifest,
                    seed,
                },
                R0,
            );
            store.record(R0, 5, 1).unwrap();
            store.record(R0, 6, 2).unwrap();
            drop(store);
            let store = DurableStore::<i64>::open(&dir).unwrap();
            assert!(store.open_report().manifest_fallback, "seed {seed}");
            assert_eq!(store.of_root(R0), &[(5, 1), (6, 2)], "seed {seed}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_manifest_trusts_newer_segments() {
        let dir = scratch("stale-manifest");
        let mut store = DurableStore::<i64>::open(&dir).unwrap().with_faults(
            FaultPlan { crash_after_appends: 5, fault: Fault::StaleManifest, seed: 11 },
            R0,
        );
        for i in 1..=5i64 {
            store.record(R0, i, i as u64).unwrap();
        }
        drop(store);
        // The manifest genuinely lags the segment.
        let manifest = fs::read_to_string(dir.join(MANIFEST)).unwrap();
        let records_line = manifest
            .lines()
            .find(|l| l.starts_with("root 0"))
            .expect("root line");
        let claimed: u64 = records_line.split_whitespace().last().unwrap().parse().unwrap();
        assert!(claimed < 5, "manifest should be stale, claims {claimed}");
        // Open accepts the CRC-valid records beyond it.
        let store = DurableStore::<i64>::open(&dir).unwrap();
        assert!(!store.open_report().manifest_fallback);
        assert_eq!(
            store.of_root(R0),
            &[(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_ahead_of_segment_is_refused() {
        let dir = scratch("manifest-ahead");
        {
            let mut store = DurableStore::<i64>::open(&dir).unwrap();
            for i in 1..=4i64 {
                store.record(R0, i, i as u64).unwrap();
            }
        }
        // Lop a whole record off the segment *behind the manifest's
        // back* — now the manifest promises durable data that is gone.
        let seg = DurableStore::<i64>::segment_path(&dir, R0);
        let bytes = fs::read(&seg).unwrap();
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize + 8;
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len((bytes.len() - first_len) as u64).unwrap();
        drop(f);
        match DurableStore::<i64>::open(&dir) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("manifest claims"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}", other = other.err()),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_segment_with_manifest_claim_is_refused() {
        let dir = scratch("missing-seg");
        {
            let mut store = DurableStore::<i64>::open(&dir).unwrap();
            store.record(R0, 1, 1).unwrap();
        }
        fs::remove_file(DurableStore::<i64>::segment_path(&dir, R0)).unwrap();
        assert!(matches!(
            DurableStore::<i64>::open(&dir),
            Err(StoreError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_crosscheck_known_vector() {
        // "123456789" → 0xCBF43926 is the IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
