//! Durable checkpoints: crash-safe persistence of supervised runs and
//! process-level resume.
//!
//! The supervisor's in-memory recovery ladder (checkpointed retry, then
//! sequential degradation) survives *thread* failures but not *process*
//! failures — a SIGKILL, OOM kill, or power loss discards every fused-block
//! barrier the run had reached. This module extends the same checkpoint
//! discipline to disk:
//!
//! - At every k-th fused-block barrier (`CheckpointPolicy::every_barriers`,
//!   or on a wall-clock cadence via `every_wall`), the worker pool's
//!   consistent grid buffer is serialized into a **generation** — one file,
//!   written temp-file → fdatasync → atomic rename, so a crash at any
//!   instant leaves either the previous generations or the previous
//!   generations *plus* one new sealed file, never a half-written newest
//!   generation masquerading as valid. The barrier itself pays only a
//!   grid-state clone + enqueue: serialization, digesting, and the disk
//!   I/O all run on a dedicated seal thread that is joined before the run
//!   returns, keeping the durability contract while taking the entire
//!   sealing cost off the compute path.
//! - Every generation is sealed with the run's word-wise FNV-1a-64 digest
//!   (the same primitive that seals boundary slabs) over the entire file,
//!   and carries a JSON [`CheckpointManifest`] embedding the program itself,
//!   its iterations-normalized hash, the iteration cursor, the fused-block
//!   sequence base, the remaining wall-clock deadline budget, and a
//!   telemetry counter snapshot.
//! - [`resume_supervised_full`] walks the generations newest → oldest: a
//!   generation that fails digest or decode validation is skipped with a
//!   diagnostic and the next-older one is tried; an *intact* manifest whose
//!   program hash does not match the resuming program is a permanent
//!   [`ExecError::CheckpointMismatch`] — the store belongs to a different
//!   run and no amount of fallback makes it compatible.
//!
//! Resume is bit-exact: the grid bytes are stored as `f64` bit patterns,
//! and the resumed run re-enters the supervisor at the recorded iteration
//! cursor with the recorded fused-block base, so fault triggers, slab
//! sequence numbers, and the computed values all continue exactly as an
//! uninterrupted run would have produced them.
//!
//! Crash-consistency faults (torn writes, short reads, post-seal
//! corruption, fsync failures) are injectable through the crate's
//! [`FaultPlan`](crate::FaultPlan) under the `fault-injection` feature —
//! see `tests/chaos.rs` for the negative paths.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use stencilcl_grid::{Grid, Partition};
use stencilcl_lang::{GridState, Program};
use stencilcl_telemetry::{Counter, CounterSnapshot, EnvConfig, Recorder, TracePhase, TraceSink};

use crate::error::ExecError;
use crate::faults::{FaultKind, FaultPlan, IoOp};
use crate::integrity::fnv1a_bytes;
use crate::options::ExecOptions;
use crate::supervise::{dispatch, globalize, ExecPolicy, RecoveryPath, ResumeBase, RunReport};

/// File magic of a checkpoint generation.
const MAGIC: &[u8; 8] = b"STCLCKPT";
/// On-disk format version; bumped on any layout change so older readers
/// reject newer files with a diagnostic instead of misparsing them.
const VERSION: u32 = 1;

/// When and where [`run_supervised_full`](crate::run_supervised_full)
/// persists durable checkpoints. Disabled by default (`dir: None`) — the
/// hot path pays nothing until a directory is configured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Seal a generation every this many fused-block barriers (≥ 1).
    pub every_barriers: u64,
    /// Additionally seal a generation whenever this much wall time has
    /// passed since the last one, even mid-stride. `None` disables the
    /// wall-clock cadence.
    pub every_wall: Option<Duration>,
    /// Whether a successful run seals one last generation at completion.
    /// Callers that record completion elsewhere (the service journals the
    /// terminal digest) can turn this off so short jobs whose cadence
    /// never fired pay no seal at all.
    pub final_seal: bool,
    /// Newest generations kept on disk; older ones are pruned after each
    /// successful seal (≥ 1). More generations deepen the corruption
    /// fallback ladder at the cost of disk.
    pub keep_generations: usize,
    /// Checkpoint directory. `None` disables persistence entirely.
    pub dir: Option<PathBuf>,
    /// Optional design summary sealed into each manifest so `stencilcl
    /// resume` can rebuild the partition without re-deriving flags. Library
    /// callers that manage their own partitions may leave it `None`.
    pub design: Option<DesignSpec>,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_barriers: 1,
            every_wall: None,
            final_seal: true,
            keep_generations: 3,
            dir: None,
            design: None,
        }
    }
}

impl CheckpointPolicy {
    /// Persistence into `dir` with the default cadence (every barrier,
    /// three generations kept).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        CheckpointPolicy {
            dir: Some(dir.into()),
            ..CheckpointPolicy::default()
        }
    }

    /// Sets the barrier stride (clamped to ≥ 1 at use time).
    #[must_use]
    pub fn every_barriers(mut self, n: u64) -> Self {
        self.every_barriers = n;
        self
    }

    /// Sets the wall-clock cadence.
    #[must_use]
    pub fn every_wall(mut self, d: Duration) -> Self {
        self.every_wall = Some(d);
        self
    }

    /// Sets how many newest generations survive pruning.
    #[must_use]
    pub fn keep_generations(mut self, n: usize) -> Self {
        self.keep_generations = n;
        self
    }

    /// Disables the completion-time seal (see [`CheckpointPolicy::final_seal`]).
    #[must_use]
    pub fn no_final_seal(mut self) -> Self {
        self.final_seal = false;
        self
    }

    /// Seals `design` into every manifest this policy writes.
    #[must_use]
    pub fn design(mut self, design: DesignSpec) -> Self {
        self.design = Some(design);
        self
    }

    /// Whether persistence is armed.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// Defaults overridden by an [`EnvConfig`] snapshot
    /// (`STENCILCL_CKPT_DIR`, `STENCILCL_CKPT_EVERY`); CLI flags layered on
    /// top always beat the env.
    pub fn from_config(cfg: &EnvConfig) -> Self {
        let mut policy = CheckpointPolicy::default();
        if let Some(dir) = &cfg.ckpt_dir {
            policy.dir = Some(dir.clone());
        }
        if let Some(n) = cfg.ckpt_every {
            policy.every_barriers = n;
        }
        policy
    }
}

/// Design summary a manifest carries so the CLI can rebuild the same
/// partition at resume time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DesignSpec {
    /// Design kind name as the CLI spells it (e.g. `pipe-shared`).
    pub kind: String,
    /// Fused iterations per block.
    pub fused: u64,
    /// Kernel parallelism per axis.
    pub parallelism: Vec<usize>,
    /// Tile edge per axis.
    pub tile: Vec<usize>,
}

/// Per-grid payload bookkeeping inside a manifest: payload grids are stored
/// in manifest order, each exactly `cells` 8-byte little-endian `f64` bit
/// patterns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridMeta {
    /// Grid name, matching a declaration of the embedded program.
    pub name: String,
    /// Cell count (the declared extent's volume).
    pub cells: u64,
}

/// The JSON header sealed into every checkpoint generation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointManifest {
    /// Monotonic generation number within the store.
    pub generation: u64,
    /// Iterations-normalized FNV-1a-64 hash of `program` — the hard resume
    /// gate: a resuming program with a different hash can never use this
    /// store ([`program_hash`]).
    pub program_hash: u64,
    /// Fingerprint of the writing run's [`ExecPolicy`] (deadline excluded);
    /// diagnostic only — resume under a different policy is legal.
    pub policy_fingerprint: u64,
    /// The program itself, so resume needs no source file.
    pub program: Program,
    /// Design summary for partition reconstruction (CLI runs).
    pub design: Option<DesignSpec>,
    /// The writing run's iteration target (informational; the resume target
    /// is the resuming program's own count).
    pub total_iterations: u64,
    /// Iterations fully completed and contained in this generation's grids.
    pub completed_iterations: u64,
    /// Global fused-block sequence base for the resumed run, so slab
    /// sequence numbers and fault triggers continue instead of restarting.
    pub blocks_done: u64,
    /// The original run's total wall-clock budget in milliseconds, if any.
    pub deadline_total_ms: Option<u64>,
    /// Budget still unspent when this generation was sealed. `Some(0)`
    /// means the original absolute cutoff has already passed: resume must
    /// fail with `DeadlineExceeded` instead of granting new time.
    pub deadline_remaining_ms: Option<u64>,
    /// Payload layout, in storage order.
    pub grids: Vec<GridMeta>,
    /// Telemetry counters accumulated up to the seal point.
    pub counters: CounterSnapshot,
}

/// Iterations-normalized program hash: the FNV-1a-64 digest of the
/// program's canonical JSON with the iteration count zeroed out. Two runs
/// of the same stencil toward different iteration targets share a hash, so
/// a checkpoint written mid-run resumes cleanly toward any target; any
/// change to grids, extents, parameters, or update statements changes it.
pub fn program_hash(program: &Program) -> u64 {
    let canon = program.with_iterations(0);
    let json = serde_json::to_string(&canon).expect("program serialization is infallible");
    fnv1a_bytes(json.as_bytes())
}

/// Fingerprint of the retry/watchdog shape of a policy. Excludes the
/// deadline (persisted separately as an absolute budget) and the jitter
/// seed (noise, not semantics). Recorded for diagnostics only.
pub fn policy_fingerprint(policy: &ExecPolicy) -> u64 {
    let repr = format!(
        "{:?}|{:?}|{:?}|{}|{:?}|{:?}|{}",
        policy.watchdog,
        policy.drain,
        policy.teardown_grace,
        policy.max_retries,
        policy.backoff_base,
        policy.backoff_max,
        policy.sequential_fallback,
    );
    fnv1a_bytes(repr.as_bytes())
}

/// Serializes one consistent barrier state into the on-disk generation
/// layout: magic, version, manifest length + JSON, grid payloads in
/// manifest order as `f64` bit patterns, and the trailing FNV-1a-64 digest
/// over everything before it.
#[cfg(test)]
fn encode_checkpoint(manifest: &CheckpointManifest, state: &GridState) -> Result<Vec<u8>, String> {
    let json = serde_json::to_string(manifest).map_err(|e| format!("manifest encoding: {e}"))?;
    encode_with_json(manifest, &json, state)
}

/// `encode_checkpoint` with the manifest JSON already serialized — the
/// writer prices the sealed size on the compute path (the JSON is tiny) and
/// hands both to the seal thread so nothing is serialized twice.
fn encode_with_json(
    manifest: &CheckpointManifest,
    json: &str,
    state: &GridState,
) -> Result<Vec<u8>, String> {
    let payload_cells: u64 = manifest.grids.iter().map(|g| g.cells).sum();
    let mut buf =
        Vec::with_capacity(16 + json.len() + usize::try_from(payload_cells * 8).unwrap_or(0) + 8);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    let len = u32::try_from(json.len()).map_err(|_| "manifest larger than 4 GiB".to_string())?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(json.as_bytes());
    for meta in &manifest.grids {
        let grid = state
            .grid(&meta.name)
            .map_err(|e| format!("grid `{}` absent from state: {e}", meta.name))?;
        for v in grid.as_slice() {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    let digest = fnv1a_bytes(&buf);
    buf.extend_from_slice(&digest.to_le_bytes());
    Ok(buf)
}

/// Validates and decodes one generation. Errors are human-readable reasons
/// for the fallback ladder, not `ExecError`s — a single bad generation is
/// not yet a failed resume.
fn decode_checkpoint(
    bytes: &[u8],
) -> Result<(CheckpointManifest, BTreeMap<String, Grid<f64>>), String> {
    let digest_at = bytes
        .len()
        .checked_sub(8)
        .ok_or_else(|| format!("file is {} byte(s), shorter than its digest", bytes.len()))?;
    let sealed = u64::from_le_bytes(bytes[digest_at..].try_into().expect("8-byte digest"));
    let computed = fnv1a_bytes(&bytes[..digest_at]);
    if sealed != computed {
        return Err(format!(
            "digest mismatch: sealed {sealed:#018x}, computed {computed:#018x}"
        ));
    }
    let body = &bytes[..digest_at];
    if body.len() < 16 {
        return Err("header truncated".to_string());
    }
    if &body[..8] != MAGIC {
        return Err("bad magic (not a stencilcl checkpoint)".to_string());
    }
    let version = u32::from_le_bytes(body[8..12].try_into().expect("4-byte version"));
    if version != VERSION {
        return Err(format!(
            "unsupported format version {version} (this build reads {VERSION})"
        ));
    }
    let manifest_len = u32::from_le_bytes(body[12..16].try_into().expect("4-byte length")) as usize;
    let rest = &body[16..];
    if rest.len() < manifest_len {
        return Err("manifest truncated".to_string());
    }
    let text = std::str::from_utf8(&rest[..manifest_len])
        .map_err(|e| format!("manifest is not UTF-8: {e}"))?;
    let manifest: CheckpointManifest =
        serde_json::from_str(text).map_err(|e| format!("manifest parse: {e}"))?;
    let mut payload = &rest[manifest_len..];
    let mut grids = BTreeMap::new();
    for meta in &manifest.grids {
        let decl = manifest
            .program
            .grids
            .iter()
            .find(|d| d.name == meta.name)
            .ok_or_else(|| format!("payload grid `{}` missing from its own program", meta.name))?;
        if decl.extent.volume() != meta.cells {
            return Err(format!(
                "grid `{}` declares {} cell(s) but its extent holds {}",
                meta.name,
                meta.cells,
                decl.extent.volume()
            ));
        }
        let cells = usize::try_from(meta.cells).map_err(|_| "payload overflow".to_string())?;
        let nbytes = cells
            .checked_mul(8)
            .ok_or_else(|| "payload overflow".to_string())?;
        if payload.len() < nbytes {
            return Err(format!(
                "payload truncated inside grid `{}`: {} of {} byte(s) present",
                meta.name,
                payload.len(),
                nbytes
            ));
        }
        let mut data = Vec::with_capacity(cells);
        for chunk in payload[..nbytes].chunks_exact(8) {
            data.push(f64::from_bits(u64::from_le_bytes(
                chunk.try_into().expect("8-byte cell"),
            )));
        }
        let grid = Grid::from_vec(decl.extent, data)
            .map_err(|e| format!("grid `{}` reconstruction: {e}", meta.name))?;
        grids.insert(meta.name.clone(), grid);
        payload = &payload[nbytes..];
    }
    if !payload.is_empty() {
        return Err(format!("{} trailing byte(s) after payload", payload.len()));
    }
    Ok((manifest, grids))
}

/// Where checkpoint generations live. [`DirStore`] is the production
/// filesystem implementation; tests substitute in-memory or misbehaving
/// stores to exercise the fallback ladder.
pub trait CheckpointStore {
    /// Durably stores `bytes` as generation `generation`. Must be atomic:
    /// after an error, either the full generation exists or none of it.
    fn save(&self, generation: u64, bytes: &[u8]) -> io::Result<()>;
    /// Reads back one generation.
    fn load(&self, generation: u64) -> io::Result<Vec<u8>>;
    /// All stored generation numbers, ascending. An empty store is `Ok`.
    fn generations(&self) -> io::Result<Vec<u64>>;
    /// Deletes one generation (pruning).
    fn remove(&self, generation: u64) -> io::Result<()>;
}

/// Filesystem checkpoint store: one `ckpt-<generation>.stckpt` file per
/// generation inside a directory, written temp-file → fsync → atomic
/// rename. Injected I/O faults (`fault-injection` feature) are applied
/// here, at the storage boundary, exactly where real hardware lies.
#[derive(Debug, Clone)]
pub struct DirStore {
    dir: PathBuf,
    faults: Arc<FaultPlan>,
}

impl DirStore {
    /// A store over `dir` (created lazily on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DirStore::with_faults(dir, Arc::new(FaultPlan::new()))
    }

    pub(crate) fn with_faults(dir: impl Into<PathBuf>, faults: Arc<FaultPlan>) -> Self {
        DirStore {
            dir: dir.into(),
            faults,
        }
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn generation_path(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{generation:08}.stckpt"))
    }
}

/// Parses `ckpt-<generation>.stckpt` back into its generation number.
fn parse_generation(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".stckpt")?
        .parse()
        .ok()
}

impl CheckpointStore for DirStore {
    fn save(&self, generation: u64, bytes: &[u8]) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let fault = self.faults.fire_io(IoOp::Write, generation);
        if matches!(fault, Some(FaultKind::FsyncFail)) {
            // Model a failed fsync as a failed save: the temp file never
            // reaches the rename, so no generation appears at all.
            return Err(io::Error::other("injected checkpoint fsync failure"));
        }
        let written: &[u8] = match fault {
            // A torn write models a device that acknowledged durability it
            // did not deliver: the generation *is* sealed (renamed into
            // place) but its tail is gone, so only the digest catches it.
            Some(FaultKind::TornWrite(n)) => &bytes[..n.min(bytes.len())],
            _ => bytes,
        };
        let tmp = self.dir.join(format!(".ckpt-{generation:08}.tmp"));
        let mut file = fs::File::create(&tmp)?;
        file.write_all(written)?;
        // fdatasync, not fsync: the payload and its size must be durable
        // before the rename publishes the generation, but the inode's
        // timestamp metadata need not be — on journaling filesystems that
        // halves the seal latency.
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp, self.generation_path(generation))?;
        // Make the rename itself durable; best-effort — some filesystems
        // refuse to fsync directories.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        if matches!(fault, Some(FaultKind::CorruptCheckpoint(_))) {
            // Bit-rot after the seal: flip one payload byte in place.
            let path = self.generation_path(generation);
            let mut data = fs::read(&path)?;
            let mid = data.len() / 2;
            data[mid] ^= 0x40;
            fs::write(&path, data)?;
        }
        Ok(())
    }

    fn load(&self, generation: u64) -> io::Result<Vec<u8>> {
        let bytes = fs::read(self.generation_path(generation))?;
        Ok(match self.faults.fire_io(IoOp::Read, generation) {
            Some(FaultKind::ShortRead) => bytes[..bytes.len() / 2].to_vec(),
            _ => bytes,
        })
    }

    fn generations(&self) -> io::Result<Vec<u64>> {
        let mut out = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            if let Some(g) = entry.file_name().to_str().and_then(parse_generation) {
                out.push(g);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn remove(&self, generation: u64) -> io::Result<()> {
        fs::remove_file(self.generation_path(generation))
    }
}

/// One successfully validated checkpoint, plus the diagnostics of any newer
/// generations the fallback ladder skipped to reach it.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    /// The sealed manifest.
    pub manifest: CheckpointManifest,
    /// The reconstructed grid contents, bit-exact.
    pub grids: BTreeMap<String, Grid<f64>>,
    /// One line per newer generation that failed validation.
    pub fallback_notes: Vec<String>,
}

/// Walks the store's generations newest → oldest and returns the first one
/// that validates. Corrupt or unreadable generations are skipped with a
/// note; an **intact** manifest whose program hash differs from
/// `expected_program_hash` fails immediately — the store belongs to a
/// different program, and older generations of the wrong program are not a
/// fallback.
///
/// # Errors
///
/// [`ExecError::CheckpointMismatch`] when the store is empty, unlistable,
/// hash-incompatible, or every generation fails validation; the detail
/// string carries the per-generation diagnostics.
pub fn load_latest(
    store: &dyn CheckpointStore,
    expected_program_hash: Option<u64>,
) -> Result<LoadedCheckpoint, ExecError> {
    let generations = store
        .generations()
        .map_err(|e| ExecError::CheckpointMismatch {
            detail: format!("cannot list checkpoint store: {e}"),
        })?;
    if generations.is_empty() {
        return Err(ExecError::CheckpointMismatch {
            detail: "store holds no checkpoint generations".to_string(),
        });
    }
    let mut notes = Vec::new();
    for &generation in generations.iter().rev() {
        let bytes = match store.load(generation) {
            Ok(b) => b,
            Err(e) => {
                notes.push(format!("generation {generation}: read failed: {e}"));
                continue;
            }
        };
        match decode_checkpoint(&bytes) {
            Ok((manifest, grids)) => {
                if let Some(expected) = expected_program_hash {
                    if manifest.program_hash != expected {
                        return Err(ExecError::CheckpointMismatch {
                            detail: format!(
                                "generation {generation} was sealed for program hash \
                                 {:#018x}, but the resuming program hashes to {expected:#018x}",
                                manifest.program_hash
                            ),
                        });
                    }
                }
                if manifest.generation != generation {
                    notes.push(format!(
                        "generation {generation}: manifest claims generation {} \
                         (misplaced file)",
                        manifest.generation
                    ));
                    continue;
                }
                return Ok(LoadedCheckpoint {
                    manifest,
                    grids,
                    fallback_notes: notes,
                });
            }
            Err(reason) => notes.push(format!("generation {generation}: {reason}")),
        }
    }
    Err(ExecError::CheckpointMismatch {
        detail: format!(
            "all {} generation(s) failed validation: {}",
            generations.len(),
            notes.join("; ")
        ),
    })
}

/// One generation's worth of work for the seal thread: the grids are a
/// plain clone of the committed barrier buffer (a memcpy — the cheapest
/// consistent copy possible, since the buffer is the next fused block's
/// write target), and serialization, digesting, and disk I/O all happen
/// off the compute path.
struct SealJob {
    generation: u64,
    manifest: CheckpointManifest,
    manifest_json: String,
    state: GridState,
}

/// Sealing is serialization + digest + I/O (write + fdatasync + rename)
/// and must not stall the barrier: the worker pool would sit idle for
/// milliseconds per seal. The supervisor thread pays only a grid-state
/// clone + enqueue; this dedicated thread drains the queue in generation
/// order (encode, save, then prune). Dropping the worker closes the
/// channel and joins, so every enqueued generation is durably on disk
/// before the run returns — the durability contract is unchanged, only
/// its latency moved off the compute path. When the thread cannot start
/// (fd/thread exhaustion), sealing degrades to inline synchronous writes
/// instead of losing durability.
struct SealWorker {
    tx: Option<mpsc::Sender<SealJob>>,
    handle: Option<thread::JoinHandle<()>>,
    /// Synchronous fallback when the thread failed to spawn.
    inline: Option<(DirStore, usize)>,
}

impl SealWorker {
    fn spawn(store: DirStore, keep: usize) -> SealWorker {
        let (tx, rx) = mpsc::channel::<SealJob>();
        let worker_store = store.clone();
        let spawned = thread::Builder::new()
            .name("stencilcl-ckpt-seal".into())
            .spawn(move || {
                for job in rx {
                    seal_one(&worker_store, keep, &job);
                }
            });
        match spawned {
            Ok(handle) => SealWorker {
                tx: Some(tx),
                handle: Some(handle),
                inline: None,
            },
            Err(_) => SealWorker {
                tx: None,
                handle: None,
                inline: Some((store, keep)),
            },
        }
    }

    fn enqueue(&self, job: SealJob) {
        if let Some(tx) = &self.tx {
            let generation = job.generation;
            if tx.send(job).is_ok() {
                return;
            }
            // The seal thread is gone (it cannot panic, but be defensive):
            // fall through to nothing — there is no receiver to recover.
            eprintln!("[stencilcl] checkpoint generation {generation} dropped: seal thread gone");
        } else if let Some((store, keep)) = &self.inline {
            seal_one(store, *keep, &job);
        }
    }
}

impl Drop for SealWorker {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Encodes, saves, and prunes one generation; failures warn and keep the
/// run alive — the older generations on disk stay valid, which is strictly
/// better than killing a healthy run over a full disk.
fn seal_one(store: &DirStore, keep: usize, job: &SealJob) {
    let generation = job.generation;
    let bytes = match encode_with_json(&job.manifest, &job.manifest_json, &job.state) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("[stencilcl] checkpoint generation {generation} not encoded: {e}");
            return;
        }
    };
    if let Err(e) = store.save(generation, &bytes) {
        eprintln!(
            "[stencilcl] checkpoint generation {generation} not written \
             (older generations remain intact): {e}"
        );
        return;
    }
    let Ok(generations) = store.generations() else {
        return;
    };
    if generations.len() <= keep {
        return;
    }
    for &g in &generations[..generations.len() - keep] {
        if let Err(e) = store.remove(g) {
            eprintln!("[stencilcl] stale checkpoint generation {g} not pruned: {e}");
        }
    }
}

/// The supervisor-side writer: owns the store, cadence, and manifest
/// template, and is called at every fused-block barrier on the collector
/// thread (no synchronization needed — hence the `Cell`s).
pub(crate) struct CheckpointWriter {
    seal: SealWorker,
    every_barriers: u64,
    every_wall: Option<Duration>,
    final_seal: bool,
    /// The resuming-compatible program at the *global* iteration target.
    program: Program,
    program_hash: u64,
    policy_fingerprint: u64,
    design: Option<DesignSpec>,
    /// Global iteration target (resume base + this run's remainder).
    total_iterations: u64,
    base_iterations: u64,
    /// Global iterations already sealed when the current attempt started.
    attempt_base: Cell<u64>,
    /// Absolute deadline cutoff, shared with `RunLimits`.
    deadline: Option<Instant>,
    deadline_total_ms: Option<u64>,
    recorder: Option<Recorder>,
    next_generation: Cell<u64>,
    barriers_since: Cell<u64>,
    last_write: Cell<Instant>,
    /// Completed-iteration count of the newest sealed generation, so
    /// `finalize` skips a duplicate when the cadence already caught the
    /// final barrier.
    last_sealed: Cell<Option<u64>>,
}

impl CheckpointWriter {
    /// Builds the writer when `opts.checkpoint` is armed; `None` otherwise.
    /// `program` is the remainder handed to the supervisor; `base` rebases
    /// it onto the global run when resuming. The store fires I/O faults
    /// from `opts.faults`.
    pub(crate) fn from_options(
        program: &Program,
        opts: &ExecOptions,
        base: &ResumeBase,
        deadline: Option<Instant>,
    ) -> Option<CheckpointWriter> {
        let dir = opts.checkpoint.dir.clone()?;
        let store = DirStore::with_faults(dir, Arc::clone(&opts.faults));
        let total = base.iterations + program.iterations;
        let target = program.with_iterations(total);
        // Continue the store's numbering so resumed runs never reuse a
        // generation number (pruning and the ladder both rely on order).
        let next = store
            .generations()
            .ok()
            .and_then(|g| g.last().copied())
            .map_or(0, |g| g + 1);
        Some(CheckpointWriter {
            program_hash: program_hash(&target),
            policy_fingerprint: policy_fingerprint(&opts.policy),
            design: opts.checkpoint.design.clone(),
            every_barriers: opts.checkpoint.every_barriers.max(1),
            every_wall: opts.checkpoint.every_wall,
            final_seal: opts.checkpoint.final_seal,
            program: target,
            total_iterations: total,
            base_iterations: base.iterations,
            attempt_base: Cell::new(base.iterations),
            deadline,
            deadline_total_ms: opts
                .policy
                .deadline
                .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            recorder: opts.trace.clone(),
            next_generation: Cell::new(next),
            barriers_since: Cell::new(0),
            last_write: Cell::new(Instant::now()),
            last_sealed: Cell::new(None),
            seal: SealWorker::spawn(store, opts.checkpoint.keep_generations.max(1)),
        })
    }

    /// Rebases barrier-local iteration counts onto the global cursor; the
    /// supervisor calls this before every attempt.
    pub(crate) fn begin_attempt(&self, supervisor_done: u64) {
        self.attempt_base
            .set(self.base_iterations + supervisor_done);
    }

    /// Called at every committed fused-block barrier with the consistent
    /// buffer; seals a generation when the cadence says so.
    pub(crate) fn at_barrier<S: TraceSink>(
        &self,
        state: &GridState,
        attempt_iterations: u64,
        blocks_global: u64,
        sink: &S,
    ) {
        let since = self.barriers_since.get() + 1;
        self.barriers_since.set(since);
        let wall_due = self
            .every_wall
            .is_some_and(|w| self.last_write.get().elapsed() >= w);
        if since < self.every_barriers && !wall_due {
            return;
        }
        self.write(
            state,
            self.attempt_base.get() + attempt_iterations,
            blocks_global,
            sink,
        );
    }

    /// Seals the final generation of a successful run (skipped when the
    /// cadence already sealed the last barrier).
    pub(crate) fn finalize<S: TraceSink>(&self, state: &GridState, blocks_global: u64, sink: &S) {
        if !self.final_seal || self.last_sealed.get() == Some(self.total_iterations) {
            return;
        }
        self.write(state, self.total_iterations, blocks_global, sink);
    }

    /// Best-effort seal: the barrier pays a grid-state clone + enqueue; the
    /// encode, digest, and save (and any of their failures) happen on the
    /// seal thread. A generation number is consumed per enqueue, so a
    /// failed seal leaves a numbering gap the fallback ladder simply walks
    /// across. The `CheckpointWrite` span therefore measures the
    /// compute-path cost of sealing, not the serialization or the disk.
    fn write<S: TraceSink>(&self, state: &GridState, completed: u64, blocks: u64, sink: &S) {
        let t0 = sink.now();
        self.barriers_since.set(0);
        self.last_write.set(Instant::now());
        let generation = self.next_generation.get();
        let manifest = self.manifest(generation, completed, blocks);
        // The JSON is tiny (no payload), so serialize it here: it prices
        // the sealed file exactly for the counters, and it surfaces
        // encoding errors synchronously.
        let manifest_json = match serde_json::to_string(&manifest) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("[stencilcl] checkpoint generation {generation} not encoded: {e}");
                return;
            }
        };
        self.next_generation.set(generation + 1);
        self.last_sealed.set(Some(completed));
        if S::ACTIVE {
            let cells: u64 = manifest.grids.iter().map(|g| g.cells).sum();
            // magic + version + len + JSON + payload + digest — exactly
            // what `encode_with_json` seals for this manifest.
            sink.add(
                Counter::CkptBytes,
                16 + manifest_json.len() as u64 + cells * 8 + 8,
            );
            sink.add(Counter::CkptGenerations, 1);
        }
        self.seal.enqueue(SealJob {
            generation,
            manifest,
            manifest_json,
            state: state.clone(),
        });
        if S::ACTIVE {
            sink.span(0, 0, TracePhase::CheckpointWrite, t0, sink.now());
        }
    }

    fn manifest(&self, generation: u64, completed: u64, blocks: u64) -> CheckpointManifest {
        CheckpointManifest {
            generation,
            program_hash: self.program_hash,
            policy_fingerprint: self.policy_fingerprint,
            program: self.program.clone(),
            design: self.design.clone(),
            total_iterations: self.total_iterations,
            completed_iterations: completed,
            blocks_done: blocks,
            deadline_total_ms: self.deadline_total_ms,
            deadline_remaining_ms: self.deadline.map(|d| {
                u64::try_from(d.saturating_duration_since(Instant::now()).as_millis())
                    .unwrap_or(u64::MAX)
            }),
            grids: self
                .program
                .grids
                .iter()
                .map(|d| GridMeta {
                    name: d.name.clone(),
                    cells: d.extent.volume(),
                })
                .collect(),
            counters: self
                .recorder
                .as_ref()
                .map(Recorder::counters)
                .unwrap_or_default(),
        }
    }
}

/// Resumes a SIGKILLed (or otherwise dead) run from the newest valid
/// generation in `dir`, finishing the remaining iterations of `program`
/// under the same supervision ladder. The final grid is bit-exact with an
/// uninterrupted run. Further checkpoints continue into the same store.
///
/// Load failures are separated from run failures: the outer error means no
/// checkpoint could be loaded (nothing ran); an inner error comes with the
/// restored state and the attempt history of the resumed run — including
/// [`ExecError::DeadlineExceeded`] when the original run's absolute
/// deadline has already passed, since resuming never grants new wall-clock
/// budget. [`ExecOptions::faults`] reaches both the worker pool and the
/// checkpoint store.
///
/// # Errors
///
/// Outer: [`ExecError::CheckpointMismatch`] only, when no generation is
/// resumable (see [`load_latest`]).
pub fn resume_supervised_full(
    program: &Program,
    partition: &Partition,
    dir: &Path,
    opts: &ExecOptions,
) -> Result<(GridState, RunReport, Result<(), ExecError>), ExecError> {
    let t0 = opts.trace.as_ref().map(TraceSink::now);
    let store = DirStore::with_faults(dir, Arc::clone(&opts.faults));
    let loaded = load_latest(&store, Some(program_hash(program)))?;
    for note in &loaded.fallback_notes {
        eprintln!("[stencilcl] checkpoint fallback: {note}");
    }
    let total = program.iterations;
    let done = loaded.manifest.completed_iterations;
    if done > total {
        return Err(ExecError::CheckpointMismatch {
            detail: format!(
                "generation {} already holds {done} completed iteration(s), \
                 past the resume target of {total}",
                loaded.manifest.generation
            ),
        });
    }
    let mut state = GridState::from_grids(program, loaded.grids)?;
    if let (Some(rec), Some(t0)) = (&opts.trace, t0) {
        rec.span(0, 0, TracePhase::CheckpointLoad, t0, rec.now());
    }

    // The manifest's deadline remainder is authoritative: the resumed run
    // inherits the original absolute cutoff, never a fresh budget.
    let mut opts = opts.clone();
    opts.checkpoint.dir = Some(dir.to_path_buf());
    match loaded.manifest.deadline_remaining_ms {
        Some(0) => {
            let report = RunReport {
                attempts: Vec::new(),
                path: RecoveryPath::Threaded,
            };
            let err = ExecError::DeadlineExceeded { completed: done };
            return Ok((state, report, Err(err)));
        }
        Some(ms) => opts.policy.deadline = Some(Duration::from_millis(ms)),
        None => opts.policy.deadline = None,
    }

    if done == total {
        let report = RunReport {
            attempts: Vec::new(),
            path: RecoveryPath::Threaded,
        };
        return Ok((state, report, Ok(())));
    }

    let rest = program.with_iterations(total - done);
    let base = ResumeBase {
        iterations: done,
        blocks: loaded.manifest.blocks_done,
    };
    let (mut report, result) = dispatch(&rest, partition, &mut state, &opts, base);
    // Attempt and error coordinates become run-global, matching what an
    // uninterrupted run would have reported.
    for attempt in &mut report.attempts {
        attempt.start_iteration += done;
    }
    let result = result.map_err(|mut e| {
        globalize(&mut e, done);
        e
    });
    Ok((state, report, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_reference_opts, run_supervised_full};
    use stencilcl_grid::{Design, DesignKind, Extent, Point};
    use stencilcl_lang::{programs, StencilFeatures};

    /// [`resume_supervised_full`] with load and run failures flattened.
    fn resume(
        program: &Program,
        partition: &Partition,
        dir: &Path,
        opts: &ExecOptions,
    ) -> Result<(GridState, RunReport), ExecError> {
        let (state, report, result) = resume_supervised_full(program, partition, dir, opts)?;
        result.map(|()| (state, report))
    }

    fn init(name: &str, p: &Point) -> f64 {
        let mut v = name.len() as f64 + 2.0;
        for d in 0..p.dim() {
            v = v * 23.0 + p.coord(d) as f64;
        }
        (v * 0.004).sin()
    }

    /// A unique, empty scratch directory per call (no tempfile dependency).
    fn scratch(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "stencilcl-persist-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn blur() -> (Program, Partition) {
        let p = programs::jacobi_2d()
            .with_extent(Extent::new2(24, 24))
            .with_iterations(9);
        let f = StencilFeatures::extract(&p).unwrap();
        let d = Design::equal(DesignKind::PipeShared, 2, vec![2, 2], vec![6, 6]).unwrap();
        let partition = Partition::new(p.extent(), &d, &f.growth).unwrap();
        (p, partition)
    }

    fn manifest_for(program: &Program, state: &GridState, completed: u64) -> CheckpointManifest {
        CheckpointManifest {
            generation: 0,
            program_hash: program_hash(program),
            policy_fingerprint: policy_fingerprint(&ExecPolicy::default()),
            program: program.clone(),
            design: None,
            total_iterations: program.iterations,
            completed_iterations: completed,
            blocks_done: completed,
            deadline_total_ms: None,
            deadline_remaining_ms: None,
            grids: program
                .grids
                .iter()
                .map(|d| GridMeta {
                    name: d.name.clone(),
                    cells: d.extent.volume(),
                })
                .collect(),
            counters: CounterSnapshot::default(),
        }
        .validate_against(state)
    }

    impl CheckpointManifest {
        /// Test helper: sanity-checks the manifest matches the state it is
        /// about to seal.
        fn validate_against(self, state: &GridState) -> Self {
            for g in &self.grids {
                assert!(state.grid(&g.name).is_ok());
            }
            self
        }
    }

    #[test]
    fn encode_decode_roundtrip_is_bit_exact() {
        let (p, _) = blur();
        let state = GridState::new(&p, init);
        let manifest = manifest_for(&p, &state, 4);
        let bytes = encode_checkpoint(&manifest, &state).unwrap();
        let (back_manifest, grids) = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back_manifest, manifest);
        for decl in &p.grids {
            let orig = state.grid(&decl.name).unwrap();
            let back = &grids[&decl.name];
            assert_eq!(orig.as_slice().len(), back.as_slice().len());
            for (a, b) in orig.as_slice().iter().zip(back.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn digest_rejects_any_flipped_byte() {
        let (p, _) = blur();
        let state = GridState::uniform(&p, 1.5);
        let manifest = manifest_for(&p, &state, 2);
        let good = encode_checkpoint(&manifest, &state).unwrap();
        // Flip one byte in the header, the manifest, and the payload.
        for &at in &[4usize, 40, good.len() / 2, good.len() - 12] {
            let mut bad = good.clone();
            bad[at] ^= 0x10;
            let err = decode_checkpoint(&bad).unwrap_err();
            assert!(
                err.contains("digest") || err.contains("magic"),
                "byte {at}: unexpected reason {err}"
            );
        }
        // Truncation (torn write) is also caught.
        let err = decode_checkpoint(&good[..good.len() - 100]).unwrap_err();
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn program_hash_ignores_iterations_but_nothing_else() {
        let (p, _) = blur();
        assert_eq!(program_hash(&p), program_hash(&p.with_iterations(999)));
        assert_ne!(
            program_hash(&p),
            program_hash(&p.with_extent(Extent::new2(32, 32)))
        );
    }

    #[test]
    fn dir_store_seals_atomically_and_lists_in_order() {
        let dir = scratch("store");
        let store = DirStore::new(&dir);
        assert_eq!(store.generations().unwrap(), Vec::<u64>::new());
        for g in [2u64, 0, 7] {
            store.save(g, &[g as u8; 64]).unwrap();
        }
        assert_eq!(store.generations().unwrap(), vec![0, 2, 7]);
        assert_eq!(store.load(7).unwrap(), vec![7u8; 64]);
        // No temp files survive a completed save.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        store.remove(2).unwrap();
        assert_eq!(store.generations().unwrap(), vec![0, 7]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpointed_run_is_bit_exact_and_prunes_generations() {
        let (p, partition) = blur();
        let dir = scratch("run");
        let mut expect = GridState::new(&p, init);
        run_reference_opts(&p, &mut expect, &ExecOptions::new()).unwrap();

        let opts = ExecOptions::new().checkpoint(
            CheckpointPolicy::at(&dir)
                .every_barriers(1)
                .keep_generations(2),
        );
        let mut got = GridState::new(&p, init);
        let (report, result) = run_supervised_full(&p, &partition, &mut got, &opts);
        result.unwrap();
        assert_eq!(report.recoveries(), 0);
        assert_eq!(expect.max_abs_diff(&got).unwrap(), 0.0);

        let store = DirStore::new(&dir);
        let generations = store.generations().unwrap();
        assert_eq!(
            generations.len(),
            2,
            "pruning keeps exactly two: {generations:?}"
        );
        let loaded = load_latest(&store, Some(program_hash(&p))).unwrap();
        assert!(loaded.fallback_notes.is_empty());
        assert_eq!(loaded.manifest.completed_iterations, p.iterations);
        assert_eq!(loaded.manifest.total_iterations, p.iterations);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_from_an_intermediate_generation_is_bit_exact() {
        let (p, partition) = blur();
        let dir = scratch("resume");
        let mut expect = GridState::new(&p, init);
        run_reference_opts(&p, &mut expect, &ExecOptions::new()).unwrap();

        // Run to completion with a deep generation history, then discard the
        // newest generations — exactly what a mid-run SIGKILL leaves behind.
        let opts = ExecOptions::new().checkpoint(
            CheckpointPolicy::at(&dir)
                .every_barriers(1)
                .keep_generations(16),
        );
        let mut got = GridState::new(&p, init);
        run_supervised_full(&p, &partition, &mut got, &opts)
            .1
            .unwrap();
        let store = DirStore::new(&dir);
        let generations = store.generations().unwrap();
        assert!(generations.len() >= 3, "{generations:?}");
        for &g in &generations[generations.len() - 2..] {
            store.remove(g).unwrap();
        }
        let mid = load_latest(&store, None).unwrap();
        let done = mid.manifest.completed_iterations;
        assert!(done > 0 && done < p.iterations, "cut mid-run, got {done}");

        let (state, report) = resume(&p, &partition, &dir, &opts).unwrap();
        assert_eq!(expect.max_abs_diff(&state).unwrap(), 0.0);
        assert_eq!(report.attempts[0].start_iteration, done);
        assert_eq!(report.attempts[0].iterations_completed, p.iterations - done);
        // The resumed run sealed its own final generation.
        let final_load = load_latest(&store, Some(program_hash(&p))).unwrap();
        assert_eq!(final_load.manifest.completed_iterations, p.iterations);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_of_a_finished_run_returns_without_executing() {
        let (p, partition) = blur();
        let dir = scratch("finished");
        let opts = ExecOptions::new().checkpoint(CheckpointPolicy::at(&dir));
        let mut got = GridState::new(&p, init);
        run_supervised_full(&p, &partition, &mut got, &opts)
            .1
            .unwrap();
        let (state, report) = resume(&p, &partition, &dir, &opts).unwrap();
        assert!(report.attempts.is_empty());
        assert_eq!(got.max_abs_diff(&state).unwrap(), 0.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ladder_skips_corrupt_newest_and_reports_it() {
        let (p, _) = blur();
        let dir = scratch("ladder");
        let store = DirStore::new(&dir);
        let state = GridState::uniform(&p, 0.25);
        let mut m0 = manifest_for(&p, &state, 3);
        m0.generation = 0;
        store
            .save(0, &encode_checkpoint(&m0, &state).unwrap())
            .unwrap();
        let mut m1 = manifest_for(&p, &state, 6);
        m1.generation = 1;
        let mut newest = encode_checkpoint(&m1, &state).unwrap();
        let at = newest.len() / 3;
        newest[at] ^= 0xff; // corrupt after sealing
        store.save(1, &newest).unwrap();

        let loaded = load_latest(&store, Some(program_hash(&p))).unwrap();
        assert_eq!(
            loaded.manifest.completed_iterations, 3,
            "older generation wins"
        );
        assert_eq!(loaded.fallback_notes.len(), 1);
        assert!(
            loaded.fallback_notes[0].contains("generation 1"),
            "{:?}",
            loaded.fallback_notes
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ladder_with_every_generation_corrupt_is_a_permanent_mismatch() {
        let dir = scratch("allbad");
        let store = DirStore::new(&dir);
        store.save(0, b"not a checkpoint at all").unwrap();
        store.save(1, &[0u8; 300]).unwrap();
        let err = load_latest(&store, None).unwrap_err();
        let ExecError::CheckpointMismatch { detail } = &err else {
            panic!("wrong error: {err:?}");
        };
        assert!(detail.contains("all 2 generation(s)"), "{detail}");
        assert!(detail.contains("generation 0"), "{detail}");
        assert!(detail.contains("generation 1"), "{detail}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_program_hash_fails_immediately_without_fallback() {
        let (p, partition) = blur();
        let dir = scratch("hash");
        let opts = ExecOptions::new().checkpoint(CheckpointPolicy::at(&dir));
        let mut got = GridState::new(&p, init);
        run_supervised_full(&p, &partition, &mut got, &opts)
            .1
            .unwrap();

        let other = p.with_extent(Extent::new2(16, 16));
        let f = StencilFeatures::extract(&other).unwrap();
        let d = Design::equal(DesignKind::PipeShared, 2, vec![2, 2], vec![4, 4]).unwrap();
        let part2 = Partition::new(other.extent(), &d, &f.growth).unwrap();
        let err = resume(&other, &part2, &dir, &opts).unwrap_err();
        let ExecError::CheckpointMismatch { detail } = &err else {
            panic!("wrong error: {err:?}");
        };
        assert!(detail.contains("program hash"), "{detail}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_is_a_mismatch_not_a_panic() {
        let dir = scratch("empty");
        let err = load_latest(&DirStore::new(&dir), None).unwrap_err();
        assert!(matches!(err, ExecError::CheckpointMismatch { .. }));
    }

    #[test]
    fn expired_deadline_fails_at_resume_without_granting_new_time() {
        let (p, partition) = blur();
        let dir = scratch("deadline");
        let store = DirStore::new(&dir);
        let state = GridState::uniform(&p, 0.5);
        let mut m = manifest_for(&p, &state, 4);
        m.deadline_total_ms = Some(250);
        m.deadline_remaining_ms = Some(0); // the original cutoff has passed
        store
            .save(0, &encode_checkpoint(&m, &state).unwrap())
            .unwrap();

        let opts = ExecOptions::new();
        let (restored, report, result) =
            resume_supervised_full(&p, &partition, &dir, &opts).unwrap();
        assert!(report.attempts.is_empty(), "nothing may run");
        let err = result.unwrap_err();
        assert_eq!(err, ExecError::DeadlineExceeded { completed: 4 });
        // The restored state is intact for diagnostics.
        assert_eq!(
            restored.max_abs_diff(&GridState::uniform(&p, 0.5)).unwrap(),
            0.0
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remaining_deadline_budget_carries_into_the_resumed_run() {
        let (p, partition) = blur();
        let dir = scratch("budget");
        let store = DirStore::new(&dir);
        let state = GridState::uniform(&p, 0.5);
        let mut m = manifest_for(&p, &state, 4);
        m.deadline_total_ms = Some(60_000);
        m.deadline_remaining_ms = Some(30_000); // plenty for 5 tiny iterations
        store
            .save(0, &encode_checkpoint(&m, &state).unwrap())
            .unwrap();

        // Sequentially compute the expected tail: reference from the
        // checkpoint state for the remaining iterations.
        let mut expect = GridState::uniform(&p, 0.5);
        run_reference_opts(
            &p.with_iterations(p.iterations - 4),
            &mut expect,
            &ExecOptions::new(),
        )
        .unwrap();

        let (resumed, report) = resume(&p, &partition, &dir, &ExecOptions::new()).unwrap();
        assert_eq!(expect.max_abs_diff(&resumed).unwrap(), 0.0);
        assert_eq!(report.attempts[0].start_iteration, 4);
        let _ = fs::remove_dir_all(&dir);
    }
}
