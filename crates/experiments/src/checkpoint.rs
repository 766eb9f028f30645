//! Durable sweep checkpoints: kill a sweep mid-grid, resume it later,
//! get the same report byte-for-byte.
//!
//! The unit of durability is the **cell**: after every batch of
//! [`CheckpointConfig::every`] completed cells, each cell's full
//! [`CellResult`] (measurements, mean, retry count, telemetry snapshot)
//! is serialized into `cell_<idx>.bin` using the workspace snapshot
//! container (`mph_oracle::snapshot` — versioned, checksummed,
//! dependency-free), and `manifest.bin` is rewritten: the checkpoint
//! cadence, the grid size, and the `(index, payload-CRC32)` pairs of
//! completed cells. Resume reads only this binary (the workspace has no
//! JSON parser by design — see docs/OBSERVABILITY.md).
//!
//! [`run_cells`] is the one loop that streams, stops and persists cells;
//! every checkpointed sweep and every `mphd` session runs through it and
//! differs only in how it computes a batch. Resume comes for free:
//! completed cells are loaded (CRC-verified against the manifest digest
//! and label-checked against the requested grid; any mismatch silently
//! falls back to recomputation) and only the remaining cells are run.
//! Because every trial is a pure function of `(pipeline, seed)` — the
//! sweep engine's determinism contract — a resumed sweep's results are
//! **byte-identical** to an uninterrupted run, across thread counts.
//! `exp_resume` (E13) asserts exactly that, end to end, through a
//! simulated mid-grid kill.

use crate::sweep::{self, Cell, CellResult, CellStatus};
use mph_core::theorem::RoundMeasurement;
use mph_metrics::{MetricsSnapshot, OracleTotals, RamTotals, Totals};
use mph_mpc::stats::{decode_round_stats, encode_round_stats};
use mph_oracle::snapshot::crc32;
use mph_oracle::{SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Section tag of a serialized [`CellResult`] payload.
pub const SECTION_CELL: [u8; 4] = *b"CELL";
/// Section tag of the binary manifest.
pub const SECTION_MANIFEST: [u8; 4] = *b"MNFT";

/// Default checkpoint cadence: flush after every 4 completed cells —
/// frequent enough that a kill loses at most a few cells of work, rare
/// enough that the writes stay a small share of a sweep (perfbench's
/// `serve` workload measures them as `checkpoint.write_ms`).
pub const DEFAULT_EVERY: usize = 4;

/// Where and how often a sweep checkpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Directory holding `cell_<idx>.bin` payloads and `manifest.bin`.
    pub dir: PathBuf,
    /// Flush cadence in completed cells (clamped to ≥ 1).
    pub every: usize,
}

impl CheckpointConfig {
    /// The conventional layout for an experiment binary:
    /// `target/checkpoints/<exp>` at cadence `every`.
    pub fn for_exp(exp: &str, every: usize) -> Self {
        CheckpointConfig { dir: PathBuf::from("target/checkpoints").join(exp), every }
    }

    fn cell_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("cell_{index}.bin"))
    }

    fn manifest_bin(&self) -> PathBuf {
        self.dir.join("manifest.bin")
    }
}

/// Serializes one [`CellResult`] into a standalone snapshot container.
pub fn encode_cell_result(result: &CellResult) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    let section = w.begin_section(&SECTION_CELL);
    w.put_str(&result.label);
    match &result.status {
        CellStatus::Ok => w.put_u8(0),
        CellStatus::Failed { reason } => {
            w.put_u8(1);
            w.put_str(reason);
        }
        CellStatus::Degraded { reason } => {
            w.put_u8(2);
            w.put_str(reason);
        }
    }
    w.put_u64(result.measurements.len() as u64);
    for m in &result.measurements {
        w.put_u64(m.rounds as u64);
        w.put_bool(m.completed);
        w.put_bool(m.correct);
        w.put_u64(m.total_queries);
        w.put_u64(m.peak_memory_bits as u64);
        w.put_u64(m.total_comm_bits as u64);
    }
    w.put_f64(result.mean_rounds);
    w.put_u64(result.retries_used as u64);
    match &result.snapshot {
        None => w.put_bool(false),
        Some(snap) => {
            w.put_bool(true);
            encode_metrics_snapshot(&mut w, snap);
        }
    }
    w.end_section(section);
    w.finish()
}

/// Decodes a [`CellResult`] serialized by [`encode_cell_result`].
///
/// Decoding is exact: the `CELL` section must span the rest of the
/// container, every map must list its keys in the strictly increasing
/// order [`encode_cell_result`] writes, and no byte may follow the last
/// field. Bytes that decode therefore re-encode to themselves, and a
/// payload of another layout (such as one that still carries a retired
/// field) is a [`SnapshotError::Malformed`] that resume recomputes,
/// never a cell read with its fields shifted.
pub fn decode_cell_result(bytes: &[u8]) -> Result<CellResult, SnapshotError> {
    let mut r = SnapshotReader::new(bytes)?;
    let len = r.begin_section(&SECTION_CELL)?;
    if len != r.remaining() as u64 {
        return Err(SnapshotError::Malformed(format!(
            "CELL section declares {len} bytes but {} follow",
            r.remaining()
        )));
    }
    let label = r.get_str()?;
    let status = match r.get_u8()? {
        0 => CellStatus::Ok,
        1 => CellStatus::Failed { reason: r.get_str()? },
        2 => CellStatus::Degraded { reason: r.get_str()? },
        other => return Err(SnapshotError::Malformed(format!("unknown cell status {other}"))),
    };
    let count = r.get_u64()? as usize;
    let mut measurements = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        measurements.push(RoundMeasurement {
            rounds: r.get_u64()? as usize,
            completed: r.get_bool()?,
            correct: r.get_bool()?,
            total_queries: r.get_u64()?,
            peak_memory_bits: r.get_u64()? as usize,
            total_comm_bits: r.get_u64()? as usize,
        });
    }
    let mean_rounds = r.get_f64()?;
    let retries_used = r.get_u64()? as usize;
    let snapshot = if r.get_bool()? { Some(decode_metrics_snapshot(&mut r)?) } else { None };
    if r.remaining() > 0 {
        return Err(SnapshotError::Malformed(format!(
            "{} bytes after the last CELL field",
            r.remaining()
        )));
    }
    Ok(CellResult { label, status, measurements, mean_rounds, retries_used, snapshot })
}

/// Writes a string-keyed map: its length, then each key (in the map's
/// sorted order) followed by its value.
fn put_map<V>(
    w: &mut SnapshotWriter,
    map: &BTreeMap<String, V>,
    put: impl Fn(&mut SnapshotWriter, &V),
) {
    w.put_u64(map.len() as u64);
    for (k, v) in map {
        w.put_str(k);
        put(w, v);
    }
}

/// Reads a map written by [`put_map`], refusing keys that are not
/// strictly increasing: a duplicate or reordered key would decode to a
/// map that re-encodes to other bytes.
fn get_map<'a, V>(
    r: &mut SnapshotReader<'a>,
    get: impl Fn(&mut SnapshotReader<'a>) -> Result<V, SnapshotError>,
) -> Result<BTreeMap<String, V>, SnapshotError> {
    let mut map = BTreeMap::new();
    for _ in 0..r.get_u64()? {
        let k = r.get_str()?;
        if map.last_key_value().is_some_and(|(last, _)| *last >= k) {
            return Err(SnapshotError::Malformed(format!("map key {k:?} out of order")));
        }
        let v = get(r)?;
        map.insert(k, v);
    }
    Ok(map)
}

fn encode_metrics_snapshot(w: &mut SnapshotWriter, snap: &MetricsSnapshot) {
    w.put_u32(snap.schema_version);
    put_map(w, &snap.tags, |w, v| w.put_str(v));
    w.put_u64(snap.rounds.len() as u64);
    for r in &snap.rounds {
        encode_round_stats(w, r);
    }
    w.put_u64(snap.totals.rounds);
    w.put_u64(snap.totals.messages);
    w.put_u64(snap.totals.bits_sent);
    w.put_u64(snap.totals.oracle_queries);
    w.put_u64(snap.totals.peak_queries_one_machine);
    w.put_u64(snap.totals.peak_memory_bits);
    w.put_u64(snap.totals.messages_routed);
    w.put_u64(snap.totals.routed_bits);
    w.put_u64(snap.oracle.fresh);
    w.put_u64(snap.oracle.cached);
    w.put_u64(snap.oracle.patched);
    w.put_u64(snap.ram.steps);
    w.put_u64(snap.ram.cost);
    for map in [&snap.violations, &snap.faults, &snap.workers] {
        put_map(w, map, |w, v| w.put_u64(*v));
    }
}

fn decode_metrics_snapshot(r: &mut SnapshotReader<'_>) -> Result<MetricsSnapshot, SnapshotError> {
    let schema_version = r.get_u32()?;
    let tags = get_map(r, SnapshotReader::get_str)?;
    let round_count = r.get_u64()? as usize;
    let mut rounds = Vec::with_capacity(round_count.min(1 << 20));
    for _ in 0..round_count {
        rounds.push(decode_round_stats(r)?);
    }
    let totals = Totals {
        rounds: r.get_u64()?,
        messages: r.get_u64()?,
        bits_sent: r.get_u64()?,
        oracle_queries: r.get_u64()?,
        peak_queries_one_machine: r.get_u64()?,
        peak_memory_bits: r.get_u64()?,
        messages_routed: r.get_u64()?,
        routed_bits: r.get_u64()?,
    };
    let oracle = OracleTotals { fresh: r.get_u64()?, cached: r.get_u64()?, patched: r.get_u64()? };
    let ram = RamTotals { steps: r.get_u64()?, cost: r.get_u64()? };
    let violations = get_map(r, SnapshotReader::get_u64)?;
    let faults = get_map(r, SnapshotReader::get_u64)?;
    let workers = get_map(r, SnapshotReader::get_u64)?;
    Ok(MetricsSnapshot {
        schema_version,
        tags,
        rounds,
        totals,
        oracle,
        ram,
        violations,
        faults,
        workers,
    })
}

/// One manifest entry: a completed cell and the CRC32 of its payload
/// file, so resume can reject payloads that rotted on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ManifestEntry {
    index: usize,
    digest: u32,
}

fn encode_manifest(every: usize, total: usize, entries: &[ManifestEntry]) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    let section = w.begin_section(&SECTION_MANIFEST);
    w.put_u64(every as u64);
    w.put_u64(total as u64);
    w.put_u64(entries.len() as u64);
    for e in entries {
        w.put_u64(e.index as u64);
        w.put_u32(e.digest);
    }
    w.end_section(section);
    w.finish()
}

fn decode_manifest(bytes: &[u8]) -> Result<(usize, usize, Vec<ManifestEntry>), SnapshotError> {
    let mut r = SnapshotReader::new(bytes)?;
    r.begin_section(&SECTION_MANIFEST)?;
    let every = r.get_u64()? as usize;
    let total = r.get_u64()? as usize;
    let count = r.get_u64()? as usize;
    let mut entries = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        let index = r.get_u64()? as usize;
        let digest = r.get_u32()?;
        if index >= total {
            return Err(SnapshotError::Malformed(format!(
                "manifest entry {index} out of range (total {total})"
            )));
        }
        entries.push(ManifestEntry { index, digest });
    }
    Ok((every, total, entries))
}

/// Warns on stderr about a failed checkpoint IO step. Checkpointing is
/// best-effort durability on top of a correct in-memory sweep: a flush
/// that cannot reach disk costs resume coverage, never results — and a
/// daemon-hosted sweep must keep serving through a full disk or a
/// permissions change rather than die mid-session.
fn warn_io(what: &str, path: &Path, err: &std::io::Error) {
    eprintln!("warning: checkpoint {what} {} failed: {err} (continuing without)", path.display());
}

fn write_manifest(ckpt: &CheckpointConfig, total: usize, entries: &[ManifestEntry]) {
    let bin = encode_manifest(ckpt.every, total, entries);
    if let Err(e) = std::fs::write(ckpt.manifest_bin(), &bin) {
        warn_io("manifest write", &ckpt.manifest_bin(), &e);
    }
}

/// Loads the completed cells recorded in `dir`'s manifest, verifying
/// each payload's CRC against the manifest digest and its label against
/// the requested grid. Anything missing, corrupt, or mismatched simply
/// comes back `None` — resume then recomputes that cell, so a damaged
/// checkpoint degrades to extra work, never to wrong results.
fn load_completed(ckpt: &CheckpointConfig, labels: &[String]) -> Vec<Option<CellResult>> {
    let mut slots: Vec<Option<CellResult>> = labels.iter().map(|_| None).collect();
    let Ok(bytes) = std::fs::read(ckpt.manifest_bin()) else {
        return slots;
    };
    let Ok((_, total, entries)) = decode_manifest(&bytes) else {
        return slots;
    };
    if total != labels.len() {
        // A manifest for a different grid (e.g. --quick vs full scale):
        // nothing in it can be trusted for this run.
        return slots;
    }
    for entry in entries {
        let Ok(payload) = std::fs::read(ckpt.cell_path(entry.index)) else {
            continue;
        };
        if crc32(&payload) != entry.digest {
            continue;
        }
        let Ok(result) = decode_cell_result(&payload) else {
            continue;
        };
        if result.label != labels[entry.index] {
            continue;
        }
        slots[entry.index] = Some(result);
    }
    slots
}

/// [`sweep::run_sweep`] with durable checkpoints: previously completed
/// cells are loaded from `ckpt.dir` and skipped, the remaining cells run
/// in batches of [`CheckpointConfig::every`], and after each batch the
/// payloads and the manifest are flushed. The returned results are
/// byte-identical to `run_sweep(cells)` — resume changes *when* work
/// happens, never what it computes.
pub fn run_sweep_checkpointed(cells: Vec<Cell>, ckpt: &CheckpointConfig) -> Vec<CellResult> {
    run_sweep_checkpointed_observed(cells, ckpt, None, &mut |_, _| {})
        .expect("no abort was requested, so the sweep runs to completion")
}

/// The one-line gate every sweep binary routes through: with the shared
/// `--checkpoint-every N` flag, run checkpointed under
/// `target/checkpoints/<exp>`; without it, take the historical
/// [`sweep::run_sweep`] path untouched. Either way the results are
/// byte-identical.
pub fn run_sweep_with_args(
    exp: &str,
    args: &crate::setup::SweepArgs,
    cells: Vec<Cell>,
) -> Vec<CellResult> {
    match args.checkpoint_every() {
        Some(every) => run_sweep_checkpointed(cells, &CheckpointConfig::for_exp(exp, every)),
        None => sweep::run_sweep(cells),
    }
}

/// [`run_sweep_checkpointed`] with a per-cell progress observer and an
/// optional simulated mid-grid kill: [`run_cells`] over in-process
/// [`sweep::run_sweep`] batches. When `abort_after = Some(j)` with
/// `j ≥ 1`, the run stops (returning `None`) at the first batch boundary
/// after `j` cells have been computed in *this* process, leaving the
/// directory exactly as a SIGKILL at that moment would. `exp_resume`
/// (E13) uses this to prove kill-and-resume byte-identity without
/// needing an actual kill.
pub fn run_sweep_checkpointed_observed(
    cells: Vec<Cell>,
    ckpt: &CheckpointConfig,
    abort_after: Option<usize>,
    observer: &mut dyn FnMut(usize, &CellResult),
) -> Option<Vec<CellResult>> {
    let labels: Vec<String> = cells.iter().map(|c| c.label.clone()).collect();
    let mut cells: Vec<Option<Cell>> = cells.into_iter().map(Some).collect();
    run_cells(
        &labels,
        Some(ckpt),
        &|computed| abort_after.is_some_and(|j| computed >= j),
        &mut |batch| sweep::run_sweep(batch.iter().filter_map(|&i| cells[i].take()).collect()),
        &|_| true,
        observer,
    )
}

/// The one loop that streams, stops and persists the cells of a grid,
/// named by `labels`.
///
/// With `ckpt`, cells already recorded in its directory are loaded
/// first, the rest run in batches of [`CheckpointConfig::every`], and
/// each batch's payloads and the manifest are flushed before the next
/// batch starts. Without `ckpt`, nothing touches disk and every cell is
/// its own batch.
///
/// `compute(batch)` returns the results of the cells at the given
/// indices, in order; callers choose the engine (in-process
/// [`sweep::run_sweep`], or one supervised worker fleet per cell).
/// `persist(result)` says whether a newly computed result may be
/// checkpointed: a refused one is observed and returned like any other,
/// but never written, so the next run recomputes it.
/// `stop(computed)` is asked before each batch with the number of cells
/// computed so far in this call; `true` ends the run with `None`.
/// `observer(index, result)` fires once per cell as it becomes final —
/// first for every cell resumed from the checkpoint directory (in index
/// order), then for each newly computed cell once its batch is in the
/// manifest, so every persisted cell observed before a stop or a kill
/// is resumed by a later run of the same grid, byte-identically. The
/// emission order is a deterministic function of the checkpoint
/// contents and the grid, never of thread scheduling.
pub fn run_cells(
    labels: &[String],
    ckpt: Option<&CheckpointConfig>,
    stop: &dyn Fn(usize) -> bool,
    compute: &mut dyn FnMut(&[usize]) -> Vec<CellResult>,
    persist: &dyn Fn(&CellResult) -> bool,
    observer: &mut dyn FnMut(usize, &CellResult),
) -> Option<Vec<CellResult>> {
    let total = labels.len();
    let mut slots = match ckpt {
        Some(ckpt) => {
            if let Err(e) = std::fs::create_dir_all(&ckpt.dir) {
                // No directory means no durability, not no results: the
                // sweep still runs; flushes below will warn individually.
                warn_io("directory creation", &ckpt.dir, &e);
            }
            load_completed(ckpt, labels)
        }
        None => labels.iter().map(|_| None).collect(),
    };
    // The cells whose payload this run loaded or wrote. Only these enter
    // the manifest, so a refused result never does, whatever an earlier
    // run left in its file.
    let mut on_disk: Vec<bool> = slots.iter().map(Option::is_some).collect();
    for (i, slot) in slots.iter().enumerate() {
        if let Some(result) = slot {
            observer(i, result);
        }
    }
    let pending: Vec<usize> = (0..total).filter(|&i| slots[i].is_none()).collect();
    let every = ckpt.map_or(1, |c| c.every.max(1));

    let mut computed = 0usize;
    for batch in pending.chunks(every) {
        if stop(computed) {
            return None;
        }
        for (&i, result) in batch.iter().zip(compute(batch)) {
            if let Some(ckpt) = ckpt.filter(|_| persist(&result)) {
                match std::fs::write(ckpt.cell_path(i), encode_cell_result(&result)) {
                    Ok(()) => on_disk[i] = true,
                    Err(e) => warn_io("cell write", &ckpt.cell_path(i), &e),
                }
            }
            slots[i] = Some(result);
        }
        if let Some(ckpt) = ckpt {
            // Digest what actually landed on disk: a cell whose payload
            // cannot be re-read (races with an operator's cleanup) is
            // left out of the manifest and recomputed on resume.
            let entries: Vec<ManifestEntry> = (0..total)
                .filter(|&i| on_disk[i])
                .filter_map(|i| match std::fs::read(ckpt.cell_path(i)) {
                    Ok(payload) => Some(ManifestEntry { index: i, digest: crc32(&payload) }),
                    Err(e) => {
                        warn_io("cell re-read", &ckpt.cell_path(i), &e);
                        None
                    }
                })
                .collect();
            write_manifest(ckpt, total, &entries);
        }
        for &i in batch {
            observer(i, slots[i].as_ref().expect("computed above"));
        }
        computed += batch.len();
    }
    Some(slots.into_iter().map(|s| s.expect("every cell completed")).collect())
}

/// Removes a checkpoint directory, ignoring "already gone". Experiment
/// binaries call this before a fresh (non-resuming) run so stale cells
/// from an earlier grid cannot linger next to the new manifest. Removal
/// failures are warned, not fatal: resume's grid-size and label checks
/// already reject stale cells, so a lingering directory costs nothing
/// but disk.
pub fn clean_dir(dir: &Path) {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => warn_io("cleanup", dir, &e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mph_core::algorithms::pipeline::{Pipeline, Target};
    use mph_core::algorithms::BlockAssignment;
    use mph_core::LineParams;
    use mph_mpc::FaultSpec;

    fn cell(label: &str, target: Target, trials: usize, seed: u64) -> Cell {
        let params = LineParams::new(64, 48, 16, 8);
        let pipeline = Pipeline::new(params, BlockAssignment::new(8, 4, 3), target);
        Cell::new(label, pipeline, trials, seed, 10_000)
    }

    fn grid() -> Vec<Cell> {
        vec![
            cell("a", Target::Line, 3, 100),
            cell("b", Target::SimLine, 2, 200),
            cell("c", Target::SimLine, 3, 300),
            cell("d", Target::Line, 2, 400),
            cell("e", Target::SimLine, 2, 500),
        ]
    }

    fn tmp(name: &str) -> CheckpointConfig {
        let dir = std::env::temp_dir().join(format!("mph_ckpt_{name}_{}", std::process::id()));
        clean_dir(&dir);
        CheckpointConfig { dir, every: 2 }
    }

    fn assert_same(a: &[CellResult], b: &[CellResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.status, y.status);
            assert_eq!(x.measurements, y.measurements);
            assert_eq!(x.mean_rounds.to_bits(), y.mean_rounds.to_bits());
            assert_eq!(x.retries_used, y.retries_used);
            assert_eq!(
                x.snapshot.as_ref().map(|s| s.to_json_string()),
                y.snapshot.as_ref().map(|s| s.to_json_string())
            );
        }
    }

    #[test]
    fn cell_result_round_trips_bit_exactly() {
        let spec = FaultSpec { drop_rate: 0.05, ..FaultSpec::default() };
        let results =
            sweep::run_sweep(vec![cell("rt", Target::SimLine, 4, 50).with_faults(spec, 7, 2)]);
        for result in &results {
            let bytes = encode_cell_result(result);
            let decoded = decode_cell_result(&bytes).expect("decodes");
            assert_same(std::slice::from_ref(result), std::slice::from_ref(&decoded));
        }
    }

    #[test]
    fn failed_cells_round_trip_too() {
        let mut poisoned = cell("poisoned", Target::Line, 2, 10);
        poisoned.s_bits = Some(1);
        let results = sweep::run_sweep(vec![poisoned]);
        assert!(results[0].status.is_failed());
        let decoded = decode_cell_result(&encode_cell_result(&results[0])).expect("decodes");
        assert_eq!(decoded.status, results[0].status);
    }

    #[test]
    fn corrupted_cell_payloads_are_rejected() {
        let results = sweep::run_sweep(vec![cell("x", Target::Line, 2, 10)]);
        let bytes = encode_cell_result(&results[0]);
        for i in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(decode_cell_result(&bad).is_err(), "flip at byte {i} went undetected");
        }
        assert!(decode_cell_result(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn checkpointed_sweep_matches_plain_sweep() {
        let ckpt = tmp("plain");
        let baseline = sweep::run_sweep(grid());
        let checkpointed = run_sweep_checkpointed(grid(), &ckpt);
        assert_same(&baseline, &checkpointed);
        assert!(ckpt.manifest_bin().exists());
        clean_dir(&ckpt.dir);
    }

    #[test]
    fn aborted_sweep_resumes_byte_identically() {
        let ckpt = tmp("resume");
        let baseline = sweep::run_sweep(grid());
        let aborted = run_sweep_checkpointed_observed(grid(), &ckpt, Some(3), &mut |_, _| {});
        assert!(aborted.is_none(), "a mid-grid abort must not return results");
        // The manifest records the flushed prefix; nothing else exists.
        let bytes = std::fs::read(ckpt.manifest_bin()).expect("manifest written");
        let (_, total, entries) = decode_manifest(&bytes).expect("manifest decodes");
        assert_eq!(total, 5);
        assert!(!entries.is_empty() && entries.len() < 5, "{} entries", entries.len());
        let resumed = run_sweep_checkpointed(grid(), &ckpt);
        assert_same(&baseline, &resumed);
        clean_dir(&ckpt.dir);
    }

    #[test]
    fn damaged_checkpoints_degrade_to_recomputation() {
        let ckpt = tmp("damaged");
        let baseline = sweep::run_sweep(grid());
        let complete = run_sweep_checkpointed(grid(), &ckpt);
        assert_same(&baseline, &complete);
        // Rot one payload on disk; its digest no longer matches.
        let victim = ckpt.cell_path(0);
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();
        let resumed = run_sweep_checkpointed(grid(), &ckpt);
        assert_same(&baseline, &resumed);
        clean_dir(&ckpt.dir);
    }

    #[test]
    fn degraded_cells_round_trip_too() {
        let spec = FaultSpec { crash_rate: 1.0, ..FaultSpec::default() };
        let results =
            sweep::run_sweep(vec![cell("doomed", Target::SimLine, 2, 50).with_faults(spec, 7, 0)]);
        assert!(results[0].status.is_degraded());
        let decoded = decode_cell_result(&encode_cell_result(&results[0])).expect("decodes");
        assert_eq!(decoded.status, results[0].status);
    }

    #[test]
    fn zero_cadence_is_clamped_not_divided_by() {
        // `--checkpoint-every 0` is rejected by the CLI parser, but the
        // daemon constructs configs programmatically: the runner itself
        // must clamp to 1 instead of panicking on empty chunks.
        let mut ckpt = tmp("zero");
        ckpt.every = 0;
        let baseline = sweep::run_sweep(grid());
        let results = run_sweep_checkpointed(grid(), &ckpt);
        assert_same(&baseline, &results);
        // Cadence 1 flushes after every cell, so a full manifest exists.
        let (_, total, entries) =
            decode_manifest(&std::fs::read(ckpt.manifest_bin()).unwrap()).unwrap();
        assert_eq!((total, entries.len()), (5, 5));
        clean_dir(&ckpt.dir);
    }

    #[test]
    fn empty_grids_complete_without_panicking() {
        let ckpt = tmp("empty");
        let results = run_sweep_checkpointed(Vec::new(), &ckpt);
        assert!(results.is_empty());
        // And resume over the (manifest-less) directory is equally fine.
        let resumed = run_sweep_checkpointed(Vec::new(), &ckpt);
        assert!(resumed.is_empty());
        clean_dir(&ckpt.dir);
    }

    #[test]
    fn unwritable_checkpoint_dir_degrades_to_an_undurable_run() {
        // Point the checkpoint directory at a path that cannot be a
        // directory (a plain file). Every flush fails; the sweep must
        // still return results identical to the plain engine instead of
        // crashing the hosting process.
        let blocker = std::env::temp_dir().join(format!("mph_ckpt_file_{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let ckpt = CheckpointConfig { dir: blocker.clone(), every: 2 };
        let baseline = sweep::run_sweep(grid());
        let results = run_sweep_checkpointed(grid(), &ckpt);
        assert_same(&baseline, &results);
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn observer_sees_every_cell_exactly_once_across_resume() {
        let ckpt = tmp("observed");
        let mut first = Vec::new();
        let aborted = run_sweep_checkpointed_observed(grid(), &ckpt, Some(3), &mut |i, r| {
            first.push((i, r.label.clone()))
        });
        assert!(aborted.is_none());
        assert!(!first.is_empty() && first.len() < 5);
        let mut second = Vec::new();
        let resumed = run_sweep_checkpointed_observed(grid(), &ckpt, None, &mut |i, r| {
            second.push((i, r.label.clone()))
        });
        assert!(resumed.is_some());
        // The resumed run re-announces the restored prefix, then the
        // rest: every index exactly once.
        let mut indices: Vec<usize> = second.iter().map(|(i, _)| *i).collect();
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
        for (i, label) in &second {
            assert_eq!(label, &grid()[*i].label);
        }
        clean_dir(&ckpt.dir);
    }

    fn labels() -> Vec<String> {
        grid().iter().map(|c| c.label.clone()).collect()
    }

    /// `compute` for [`run_cells`] over a fresh [`grid`], recording each
    /// batch's indices.
    fn sweep_batches(
        batches: &mut Vec<Vec<usize>>,
    ) -> impl FnMut(&[usize]) -> Vec<CellResult> + '_ {
        let mut cells: Vec<Option<Cell>> = grid().into_iter().map(Some).collect();
        move |batch| {
            batches.push(batch.to_vec());
            sweep::run_sweep(batch.iter().filter_map(|&i| cells[i].take()).collect())
        }
    }

    #[test]
    fn cancelled_sweeps_flush_and_resume_byte_identically() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let ckpt = tmp("cancel");
        let baseline = sweep::run_sweep(grid());
        // Cancel as soon as the first batch's cells are observed: the run
        // stops at the next batch boundary with that batch flushed.
        let flag = AtomicBool::new(false);
        let stop = |_| flag.load(Ordering::Relaxed);
        let mut first = Vec::new();
        let mut batches = Vec::new();
        let outcome = run_cells(
            &labels(),
            Some(&ckpt),
            &stop,
            &mut sweep_batches(&mut batches),
            &|_| true,
            &mut |i, _| {
                // Every observed cell is already in the manifest.
                let (_, _, entries) =
                    decode_manifest(&std::fs::read(ckpt.manifest_bin()).unwrap()).unwrap();
                assert!(entries.iter().any(|e| e.index == i), "cell {i} observed before flush");
                first.push(i);
                flag.store(true, Ordering::Relaxed);
            },
        );
        assert!(outcome.is_none(), "a cancelled run must not return results");
        assert_eq!(first, vec![0, 1], "one batch (every = 2) completed before the cancel");
        assert_eq!(batches, vec![vec![0, 1]]);
        let (_, total, entries) =
            decode_manifest(&std::fs::read(ckpt.manifest_bin()).unwrap()).unwrap();
        assert_eq!((total, entries.len()), (5, 2), "the completed batch is on disk");
        // A pre-set flag stops the run before any new computation.
        let mut batches = Vec::new();
        let noop = run_cells(
            &labels(),
            Some(&ckpt),
            &stop,
            &mut sweep_batches(&mut batches),
            &|_| true,
            &mut |_, _| {},
        );
        assert!(noop.is_none());
        assert!(batches.is_empty());
        // Resubmission without the flag resumes the flushed prefix and
        // lands byte-identical to an uninterrupted run.
        flag.store(false, Ordering::Relaxed);
        let mut batches = Vec::new();
        let resumed = run_cells(
            &labels(),
            Some(&ckpt),
            &stop,
            &mut sweep_batches(&mut batches),
            &|_| true,
            &mut |_, _| {},
        )
        .expect("uncancelled run completes");
        assert_same(&baseline, &resumed);
        assert_eq!(batches, vec![vec![2, 3], vec![4]], "only the remainder is computed");
        clean_dir(&ckpt.dir);
    }

    #[test]
    fn undurable_runs_go_cell_by_cell_and_touch_no_disk() {
        let dir = tmp("undurable").dir;
        let baseline = sweep::run_sweep(grid());
        let mut batches = Vec::new();
        let mut seen = Vec::new();
        let results = run_cells(
            &labels(),
            None,
            &|_| false,
            &mut sweep_batches(&mut batches),
            &|_| true,
            &mut |i, _| seen.push(i),
        )
        .expect("runs to completion");
        assert_same(&baseline, &results);
        assert_eq!(batches, vec![vec![0], vec![1], vec![2], vec![3], vec![4]]);
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert!(!dir.exists(), "an undurable run must not create its directory");
        // `stop` is asked before every cell, with the count computed so far.
        let mut batches = Vec::new();
        let stopped = run_cells(
            &labels(),
            None,
            &|computed| computed >= 2,
            &mut sweep_batches(&mut batches),
            &|_| true,
            &mut |_, _| {},
        );
        assert!(stopped.is_none());
        assert_eq!(batches, vec![vec![0], vec![1]]);
    }

    #[test]
    fn refused_results_stream_but_are_recomputed() {
        let ckpt = tmp("persist");
        let baseline = sweep::run_sweep(grid());
        let mut batches = Vec::new();
        let mut seen = Vec::new();
        let results = run_cells(
            &labels(),
            Some(&ckpt),
            &|_| false,
            &mut sweep_batches(&mut batches),
            &|res| res.label != "b",
            &mut |i, _| seen.push(i),
        )
        .expect("runs to completion");
        assert_same(&baseline, &results);
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "a refused cell still streams");
        assert!(!ckpt.cell_path(1).exists(), "a refused cell is never written");
        let (_, _, entries) =
            decode_manifest(&std::fs::read(ckpt.manifest_bin()).unwrap()).unwrap();
        assert_eq!(entries.iter().map(|e| e.index).collect::<Vec<_>>(), vec![0, 2, 3, 4]);
        // The next run resumes the rest and recomputes only the refused cell.
        let mut batches = Vec::new();
        let resumed = run_cells(
            &labels(),
            Some(&ckpt),
            &|_| false,
            &mut sweep_batches(&mut batches),
            &|_| true,
            &mut |_, _| {},
        )
        .expect("runs to completion");
        assert_same(&baseline, &resumed);
        assert_eq!(batches, vec![vec![1]]);
        clean_dir(&ckpt.dir);
    }

    #[test]
    fn stale_manifests_for_other_grids_are_ignored() {
        let ckpt = tmp("stale");
        assert!(run_sweep_checkpointed_observed(grid(), &ckpt, Some(1), &mut |_, _| {}).is_none());
        // A different (smaller) grid must not pick up the stale cells.
        let small = vec![cell("a", Target::Line, 3, 100), cell("b", Target::SimLine, 2, 200)];
        let baseline = sweep::run_sweep(vec![
            cell("a", Target::Line, 3, 100),
            cell("b", Target::SimLine, 2, 200),
        ]);
        let resumed = run_sweep_checkpointed(small, &ckpt);
        assert_same(&baseline, &resumed);
        clean_dir(&ckpt.dir);
    }

    /// Stamps a worker tally on each result's telemetry, as a sharded
    /// cell carries one.
    fn with_worker_tally(mut results: Vec<CellResult>) -> Vec<CellResult> {
        for r in &mut results {
            let snap = r.snapshot.as_mut().expect("grid cells record telemetry");
            snap.workers.insert("round_ack".into(), 12);
            snap.workers.insert("spawn".into(), 2);
        }
        results
    }

    /// Patches the section length of an unsealed `CELL` container (its
    /// bytes without the CRC trailer) and seals it with its CRC.
    fn seal(mut unsealed: Vec<u8>) -> Vec<u8> {
        let len = (unsealed.len() - 18) as u64;
        unsealed[10..18].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&unsealed);
        unsealed.extend_from_slice(&crc.to_le_bytes());
        unsealed
    }

    /// Rewrites a payload in the layout that still carried the 8-byte
    /// `timeouts` count between the fault map and the worker tally.
    fn with_timeouts_slot(bytes: &[u8], workers: &BTreeMap<String, u64>) -> Vec<u8> {
        let tally = 8 + workers.keys().map(|k| 16 + k.len()).sum::<usize>();
        let at = bytes.len() - 4 - tally;
        seal([&bytes[..at], &[0u8; 8], &bytes[at..bytes.len() - 4]].concat())
    }

    /// A tallied durable run over [`grid`]: its results and the batches
    /// it computed.
    fn tallied_run(ckpt: &CheckpointConfig) -> (Vec<CellResult>, Vec<Vec<usize>>) {
        let mut batches = Vec::new();
        let mut compute = sweep_batches(&mut batches);
        let results = run_cells(
            &labels(),
            Some(ckpt),
            &|_| false,
            &mut |batch| with_worker_tally(compute(batch)),
            &|_| true,
            &mut |_, _| {},
        )
        .expect("runs to completion");
        drop(compute);
        (results, batches)
    }

    #[test]
    fn cells_in_the_timeouts_layout_are_recomputed() {
        let ckpt = tmp("timeouts_layout");
        let (uninterrupted, batches) = tallied_run(&ckpt);
        assert_eq!(batches, vec![vec![0, 1], vec![2, 3], vec![4]]);
        // Cell 1 and its manifest digest as a checkpoint written with the
        // `timeouts` slot left them. Read field by field, its zero count
        // would be taken for an empty worker tally and the real tally
        // dropped; exact decoding refuses it instead.
        let workers = &uninterrupted[1].snapshot.as_ref().unwrap().workers;
        let old = with_timeouts_slot(&std::fs::read(ckpt.cell_path(1)).unwrap(), workers);
        match decode_cell_result(&old).err() {
            Some(SnapshotError::Malformed(why)) => {
                assert_eq!(why, "54 bytes after the last CELL field")
            }
            other => panic!("expected a Malformed error, got {other:?}"),
        }
        std::fs::write(ckpt.cell_path(1), &old).unwrap();
        let (every, total, mut entries) =
            decode_manifest(&std::fs::read(ckpt.manifest_bin()).unwrap()).unwrap();
        entries.iter_mut().find(|e| e.index == 1).unwrap().digest = crc32(&old);
        std::fs::write(ckpt.manifest_bin(), encode_manifest(every, total, &entries)).unwrap();

        let (resumed, batches) = tallied_run(&ckpt);
        assert_eq!(batches, vec![vec![1]], "only the old-layout cell is recomputed");
        for (got, want) in resumed.iter().zip(&uninterrupted) {
            assert_eq!(encode_cell_result(got), encode_cell_result(want), "{}", want.label);
        }
        assert_eq!(
            std::fs::read(ckpt.cell_path(1)).unwrap(),
            encode_cell_result(&uninterrupted[1])
        );
        clean_dir(&ckpt.dir);
    }

    #[test]
    fn unordered_map_keys_are_malformed() {
        let mut result = sweep::run_sweep(vec![cell("keys", Target::Line, 1, 10)]).remove(0);
        result.snapshot.as_mut().unwrap().tags =
            BTreeMap::from([("a".into(), "1".into()), ("b".into(), "2".into())]);
        let bytes = encode_cell_result(&result);
        // Each tag is `len ‖ key ‖ len ‖ value`, 18 bytes here: swap the two.
        let entry = [&1u64.to_le_bytes()[..], b"a", &1u64.to_le_bytes(), b"1"].concat();
        let at = bytes.windows(18).position(|w| w == entry).expect("tag `a` is encoded");
        let mut bad = bytes[..bytes.len() - 4].to_vec();
        bad[at..at + 36].rotate_left(18);
        match decode_cell_result(&seal(bad)).err() {
            Some(SnapshotError::Malformed(why)) => assert_eq!(why, r#"map key "a" out of order"#),
            other => panic!("expected a Malformed error, got {other:?}"),
        }
    }

    /// Payloads of every status, with fault and worker tallies, for the
    /// structural mutation proptest.
    fn payloads() -> &'static [Vec<u8>] {
        static PAYLOADS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
        PAYLOADS.get_or_init(|| {
            let spec = FaultSpec { drop_rate: 0.05, ..FaultSpec::default() };
            let doomed = FaultSpec { crash_rate: 1.0, ..FaultSpec::default() };
            let mut poisoned = cell("poisoned", Target::Line, 2, 10);
            poisoned.s_bits = Some(1);
            let mut cells = vec![
                cell("faulty", Target::SimLine, 3, 50).with_faults(spec, 7, 2),
                poisoned,
                cell("doomed", Target::SimLine, 2, 50).with_faults(doomed, 7, 0),
            ];
            // A trial that loses its token runs to the round cap; a short
            // cap keeps the payloads, and each case's CRC over them, small.
            for c in &mut cells {
                c.max_rounds = 40;
            }
            let results = sweep::run_sweep(cells);
            assert_eq!(results[0].status, CellStatus::Ok);
            assert!(results[1].status.is_failed() && results[2].status.is_degraded());
            let mut payloads: Vec<Vec<u8>> = results.iter().map(encode_cell_result).collect();
            payloads.extend(with_worker_tally(results).iter().map(encode_cell_result));
            payloads
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Structure-aware corruption behind an intact frame: insert, cut
        /// or overwrite bytes inside the `CELL` section, then re-seal the
        /// section length and the CRC so the field decoders see the
        /// damage. Every case is a typed error or decodes to a cell that
        /// re-encodes to exactly the mutated bytes.
        #[test]
        fn resealed_structural_mutations_decode_exactly_or_not_at_all(
            which in 0usize..6,
            at in proptest::prelude::any::<u64>(),
            op in 0u8..3,
            k in 1usize..24,
            fill in proptest::prelude::any::<u8>(),
        ) {
            let bytes = &payloads()[which];
            let body = 18..bytes.len() - 4;
            let at = body.start + (at % body.len() as u64) as usize;
            let mut bad = bytes[..bytes.len() - 4].to_vec();
            match op {
                0 => {
                    bad.splice(at..at, vec![fill; k]);
                }
                1 => {
                    bad.drain(at..(at + k).min(body.end));
                }
                _ => {
                    for b in &mut bad[at..(at + k).min(body.end)] {
                        *b ^= fill | 1;
                    }
                }
            }
            let bad = seal(bad);
            if let Ok(cell) = decode_cell_result(&bad) {
                proptest::prop_assert!(
                    encode_cell_result(&cell) == bad,
                    "payload {which}, op {op} at byte {at}: decoded bytes re-encode differently"
                );
            }
        }
    }
}
