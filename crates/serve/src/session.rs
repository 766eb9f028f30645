//! One daemon session: a validated [`GridSpec`] turned into sweep cells,
//! run through the one checkpointed cell loop ([`checkpoint::run_cells`])
//! — in process on the shared worker pool, or on supervised worker
//! processes — and rendered into the canonical report.
//!
//! Everything here is deterministic: two sessions running the same spec
//! — concurrently, on different thread counts, with or without the
//! shared [`OracleHub`], resumed from a checkpoint or computed fresh —
//! produce byte-identical report JSON and markdown. That is the daemon's
//! core contract, pinned by `tests/daemon_determinism.rs` and the CI
//! `serve-smoke` job.

use crate::proto::{GridSpec, ProtoError};
use mph_core::algorithms::pipeline::Target;
use mph_core::theorem::RetryPolicy;
use mph_experiments::checkpoint::{self, CheckpointConfig};
use mph_experiments::setup;
use mph_experiments::shard::{default_worker_cmd, run_cell_sharded, supervisor_config, ShardSpec};
use mph_experiments::sweep::{degraded, run_sweep, Cell, CellResult, CellStatus};
use mph_experiments::Report;
use mph_metrics::json::Json;
use mph_mpc::shard::SupervisorConfig;
use mph_oracle::OracleHub;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Renders a caught panic payload into a message (the two shapes
/// `panic!` produces, then a fallback).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "construction panicked (non-string payload)".to_string()
    }
}

/// Builds the sweep grid for a spec: one cell per window size over the
/// standard demo instance, labelled `window=<n>`, optionally checking
/// oracle caches out of a shared hub.
///
/// Pipeline constructors assert on inconsistent geometry; a client must
/// not be able to reach those asserts, so construction runs under
/// `catch_unwind` and any panic comes back as a typed `bad_request`
/// carrying the constructor's message.
pub fn grid_for_spec(
    spec: &GridSpec,
    hub: Option<&Arc<OracleHub>>,
) -> Result<Vec<Cell>, ProtoError> {
    let target = spec_target(spec)?;
    catch_unwind(AssertUnwindSafe(|| {
        spec.windows
            .iter()
            .map(|&window| {
                let pipeline = setup::demo_pipeline(spec.w, spec.v, spec.m, window, target);
                let mut cell = Cell::new(
                    format!("window={window}"),
                    pipeline,
                    spec.trials,
                    spec.seed,
                    spec.max_rounds,
                );
                // A too-small memory override is the experiment's data,
                // not a protocol error: the cell degrades or fails with
                // a reason, never a panic (pinned by the sweep tests).
                cell.s_bits = spec.s_bits;
                cell.q = spec.q;
                if let Some(faults) = spec.fault_spec() {
                    cell = cell.with_faults(faults, spec.fault_seed, spec.retries);
                }
                match hub {
                    Some(hub) => cell.with_hub(Arc::clone(hub)),
                    None => cell,
                }
            })
            .collect()
    }))
    .map_err(|payload| {
        ProtoError::bad(format!("grid construction rejected: {}", panic_reason(payload.as_ref())))
    })
}

fn spec_target(spec: &GridSpec) -> Result<Target, ProtoError> {
    match spec.target.as_str() {
        "line" => Ok(Target::Line),
        "simline" => Ok(Target::SimLine),
        other => Err(ProtoError::bad(format!("unknown target {other:?}"))),
    }
}

/// The supervisor configuration for a sharded session: the standard
/// policy-derived config ([`supervisor_config`]) with the spec's
/// execution knobs — transport, wire chaos, per-reply deadline, respawn
/// budget — layered on top. All of them change *how* the session
/// executes, never the report bytes.
pub fn shard_supervisor_config(spec: &GridSpec) -> SupervisorConfig {
    let mut cfg =
        supervisor_config(spec.shards, &RetryPolicy::for_retries(0), default_worker_cmd());
    cfg.transport = spec.transport_kind();
    cfg.chaos = spec.chaos_spec();
    if let Some(ms) = spec.round_deadline_ms {
        cfg.round_deadline = std::time::Duration::from_millis(ms);
    }
    if let Some(n) = spec.respawns {
        cfg.max_respawns = n;
    }
    cfg
}

/// The wire spelling of a cell's status word (reasons travel separately).
pub fn status_word(status: &CellStatus) -> &'static str {
    match status {
        CellStatus::Ok => "ok",
        CellStatus::Failed { .. } => "failed",
        CellStatus::Degraded { .. } => "degraded",
    }
}

fn status_reason(status: &CellStatus) -> Option<&str> {
    match status {
        CellStatus::Ok => None,
        CellStatus::Failed { reason } | CellStatus::Degraded { reason } => Some(reason),
    }
}

/// The fields of a streamed `cell` progress event: the cell's index,
/// label, status, aggregates, and its full `mph-metrics` telemetry
/// snapshot (`null` when telemetry was off or the cell failed before
/// recording).
pub fn cell_event_fields(index: usize, result: &CellResult) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("index".to_string(), Json::u64(index as u64)),
        ("label".to_string(), Json::str(&result.label)),
        ("status".to_string(), Json::str(status_word(&result.status))),
    ];
    if let Some(reason) = status_reason(&result.status) {
        fields.push(("reason".to_string(), Json::str(reason)));
    }
    fields.push(("mean_rounds".to_string(), Json::f64(result.mean_rounds)));
    fields.push(("correct_trials".to_string(), Json::u64(result.correct_trials() as u64)));
    fields.push(("trials".to_string(), Json::u64(result.measurements.len() as u64)));
    fields.push(("retries_used".to_string(), Json::u64(result.retries_used as u64)));
    fields.push((
        "snapshot".to_string(),
        result.snapshot.as_ref().map(|s| s.to_json()).unwrap_or(Json::Null),
    ));
    fields
}

/// A completed session: the health flag, the canonical report document,
/// and its markdown rendering.
pub struct SessionOutcome {
    /// Whether any cell failed or degraded (the report carries it too).
    pub degraded: bool,
    /// The report JSON document (schema-versioned envelope).
    pub report: Json,
    /// The aligned markdown rendering of the same data.
    pub markdown: String,
}

/// Renders the canonical session report from completed cells. Both views
/// are built from the same data in the same order, so equal results give
/// byte-equal output.
pub fn render_report(spec: &GridSpec, results: &[CellResult]) -> SessionOutcome {
    let is_degraded = degraded(results);
    let mut r = Report::new();
    r.h1(&spec.exp);
    r.kv("target", &spec.target)
        .kv("w", spec.w)
        .kv("v", spec.v)
        .kv("m", spec.m)
        .kv("trials", spec.trials)
        .kv("seed", spec.seed)
        .kv("max_rounds", spec.max_rounds);
    // Overrides render only when set, so default-spec reports keep their
    // historical bytes (the determinism tests compare them verbatim).
    if let Some(s) = spec.s_bits {
        r.kv("s_bits", s);
    }
    if let Some(q) = spec.q {
        r.kv("q", q);
    }
    for (key, rate) in [
        ("crash_rate", spec.crash_rate),
        ("drop_rate", spec.drop_rate),
        ("corrupt_rate", spec.corrupt_rate),
        ("straggler_rate", spec.straggler_rate),
    ] {
        if let Some(x) = rate {
            r.kv(key, x);
        }
    }
    if spec.has_faults() {
        r.kv("fault_seed", spec.fault_seed).kv("retries", spec.retries);
    }
    r.kv("session", spec.session_key()).kv("degraded", is_degraded).end_block();
    r.h2("sweep");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|res| {
            vec![
                res.label.clone(),
                status_word(&res.status).to_string(),
                setup::fmt(res.mean_rounds),
                res.correct_trials().to_string(),
                res.measurements.len().to_string(),
                res.retries_used.to_string(),
            ]
        })
        .collect();
    r.table(&["window", "status", "mean_rounds", "correct", "trials", "retries"], &rows);
    let cells = Json::array(results.iter().enumerate().map(|(i, res)| {
        let mut fields = cell_event_fields(i, res);
        // The report keeps the aggregates; the (large) per-cell snapshot
        // already streamed as the session's progress events.
        fields.retain(|(k, _)| k != "snapshot");
        Json::Object(fields)
    }));
    r.json_extra("cells", cells);
    let exp = spec.exp.clone();
    SessionOutcome {
        degraded: is_degraded,
        report: r.to_json(&exp),
        markdown: r.finish().to_string(),
    }
}

/// How a session ended: normally, or stopped early by a `cancel`.
pub enum SessionControl {
    /// The grid ran to completion; the report is rendered.
    Done(SessionOutcome),
    /// A cancel flag was observed before a batch. Durable work up to the
    /// stop is checkpointed; resubmitting the grid resumes it.
    Cancelled {
        /// Cells finalized (and streamed) before the stop.
        completed: usize,
    },
}

/// Where and how often a session checkpoints: under
/// `<ckpt_root>/<session key>`, when the spec is `durable` and the
/// server has a checkpoint root; otherwise `None`, and the session runs
/// without touching disk. The one rule for every session, in process or
/// sharded — the `accepted` event's `durable` flag reads it too.
///
/// In-process sessions flush every `checkpoint_every` cells. A sharded
/// session flushes after every cell: each of its cells runs alone on its
/// own fleet and costs far more than a manifest write, and a batch of
/// one keeps its stream and its cancel per cell.
pub fn checkpoint_config(spec: &GridSpec, ckpt_root: Option<&Path>) -> Option<CheckpointConfig> {
    ckpt_root.filter(|_| spec.durable).map(|root| CheckpointConfig {
        dir: root.join(spec.session_key()),
        every: if spec.shards > 1 { 1 } else { spec.checkpoint_every.max(1) },
    })
}

/// Runs one session end to end: build the grid, run it through
/// [`checkpoint::run_cells`] (durably when [`checkpoint_config`] says
/// so), fire `on_cell` once per finalized cell — resumed cells first, in
/// index order — and render the report.
///
/// The durable path keys its checkpoint directory by
/// [`GridSpec::session_key`], so a client that resubmits the same grid
/// to a restarted server resumes the completed cells instead of
/// recomputing them — byte-identically, per the checkpoint contract.
pub fn run_session(
    spec: &GridSpec,
    hub: Option<&Arc<OracleHub>>,
    ckpt_root: Option<&Path>,
    mut on_cell: impl FnMut(usize, &CellResult),
) -> Result<SessionOutcome, ProtoError> {
    match run_session_with(spec, hub, ckpt_root, None, &mut on_cell)? {
        SessionControl::Done(outcome) => Ok(outcome),
        // Without a cancel flag nothing can stop the sweep early, but a
        // daemon never converts an engine surprise into a panic.
        SessionControl::Cancelled { .. } => Err(ProtoError {
            code: crate::proto::ErrorCode::Internal,
            message: "sweep aborted unexpectedly".into(),
        }),
    }
}

/// [`run_session`] with a cooperative cancel flag, checked before each
/// batch: before every cell of a sharded or undurable session, every
/// `checkpoint_every` cells of a durable in-process one. A session
/// differs only in how it computes a batch: [`run_sweep`] in process,
/// or — when `spec.shards > 1` — one supervised fleet of worker
/// processes per cell ([`mph_experiments::shard`]), crash recovery
/// included, with reports byte-identical to the in-process path.
/// Durability, resume and cancel are the same either way, except that a
/// sharded cell is checkpointed only when it is `Ok`: a failed or
/// degraded one records the machine (workers that would not start, a
/// fleet that shrank), not the grid, so a resubmit recomputes it.
pub fn run_session_with(
    spec: &GridSpec,
    hub: Option<&Arc<OracleHub>>,
    ckpt_root: Option<&Path>,
    cancel: Option<&AtomicBool>,
    on_cell: &mut dyn FnMut(usize, &CellResult),
) -> Result<SessionControl, ProtoError> {
    // Also the geometry check of a sharded session: a hostile spec is a
    // typed `bad_request` here, never a panic inside the supervisor.
    let grid = grid_for_spec(spec, hub)?;
    let ckpt = checkpoint_config(spec, ckpt_root);
    let labels: Vec<String> = grid.iter().map(|cell| cell.label.clone()).collect();
    let target = spec_target(spec)?;
    let sharded = (spec.shards > 1).then(|| shard_supervisor_config(spec));
    let mut cells: Vec<Option<Cell>> = grid.into_iter().map(Some).collect();
    let mut compute = |batch: &[usize]| match &sharded {
        Some(cfg) => batch
            .iter()
            .map(|&i| {
                let shard_spec = ShardSpec {
                    target,
                    w: spec.w,
                    v: spec.v,
                    m: spec.m,
                    window: spec.windows[i],
                    s_bits: spec.s_bits,
                    q: spec.q,
                    seed: spec.seed,
                };
                run_cell_sharded(&labels[i], &shard_spec, spec.trials, spec.max_rounds, cfg)
            })
            .collect(),
        None => run_sweep(batch.iter().filter_map(|&i| cells[i].take()).collect()),
    };
    let stop = |_| cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    let persist = |res: &CellResult| sharded.is_none() || res.status == CellStatus::Ok;
    let mut completed = 0usize;
    let results = checkpoint::run_cells(
        &labels,
        ckpt.as_ref(),
        &stop,
        &mut compute,
        &persist,
        &mut |i, res| {
            completed += 1;
            on_cell(i, res);
        },
    );
    Ok(match results {
        Some(results) => SessionControl::Done(render_report(spec, &results)),
        None => SessionControl::Cancelled { completed },
    })
}

/// The single-process reference run the daemon's output is compared
/// against (`mphd_smoke --local`, the determinism tests, the CI
/// `serve-smoke` job): one [`run_sweep`] over the grid, no hub, no
/// durability, no cancel, and the same renderer.
pub fn run_local(spec: &GridSpec) -> Result<SessionOutcome, ProtoError> {
    Ok(render_report(spec, &run_sweep(grid_for_spec(spec, None)?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ErrorCode;
    use std::path::PathBuf;

    fn quick_spec() -> GridSpec {
        GridSpec { windows: vec![2, 3], trials: 2, ..GridSpec::default() }
    }

    fn temp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mph_serve_{}_{}", name, std::process::id()));
        checkpoint::clean_dir(&dir);
        dir
    }

    #[test]
    fn sessions_are_deterministic_and_hub_invisible() {
        let spec = quick_spec();
        let a = run_local(&spec).expect("local run");
        let hub = Arc::new(OracleHub::new(16));
        let b = run_session(&spec, Some(&hub), None, |_, _| {}).expect("hub run");
        assert_eq!(a.report.to_string(), b.report.to_string());
        assert_eq!(a.markdown, b.markdown);
        assert!(!a.degraded);
        assert!(a.report.to_string().contains(&spec.session_key()));
    }

    #[test]
    fn cell_events_fire_once_per_cell_in_order() {
        let spec = quick_spec();
        let mut seen = Vec::new();
        run_session(&spec, None, None, |i, res| seen.push((i, res.label.clone())))
            .expect("session");
        assert_eq!(seen, vec![(0, "window=2".to_string()), (1, "window=3".to_string())]);
    }

    #[test]
    fn durable_sessions_resume_byte_identically() {
        let spec = quick_spec();
        let root = temp_root("resume");
        let reference = run_local(&spec).expect("reference run");

        // Simulate a killed server: a partial checkpoint directory with
        // only the first cell completed.
        let partial = CheckpointConfig { dir: root.join(spec.session_key()), every: 1 };
        let cells = grid_for_spec(&spec, None).expect("grid");
        let aborted =
            checkpoint::run_sweep_checkpointed_observed(cells, &partial, Some(1), &mut |_, _| {});
        assert!(aborted.is_none());

        // The restarted server resumes cell 0 from disk, computes the
        // rest, and the final report is byte-identical.
        let mut seen = Vec::new();
        let resumed = run_session(&spec, None, Some(&root), |i, _| seen.push(i)).expect("resume");
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(resumed.report.to_string(), reference.report.to_string());
        assert_eq!(resumed.markdown, reference.markdown);
        checkpoint::clean_dir(&root);
    }

    #[test]
    fn memory_and_query_overrides_reach_the_cells() {
        let spec =
            GridSpec { s_bits: Some(1), q: Some(64), windows: vec![2], ..GridSpec::default() };
        let cells = grid_for_spec(&spec, None).expect("grid");
        assert_eq!(cells[0].s_bits, Some(1));
        assert_eq!(cells[0].q, Some(64));

        // A starved memory budget is the experiment's data, not a crash:
        // the sweep contains the cell's failure and the session completes
        // degraded, with the override visible in the report.
        let outcome = run_local(&spec).expect("session");
        assert!(outcome.degraded);
        assert!(outcome.markdown.contains("- s_bits: 1\n"), "markdown: {}", outcome.markdown);
        assert!(outcome.report.to_string().contains(r#""s_bits":"1""#));
    }

    #[test]
    fn fault_params_flow_into_cells_and_the_report() {
        let spec = GridSpec {
            drop_rate: Some(0.05),
            fault_seed: 7,
            retries: 2,
            windows: vec![2],
            trials: 2,
            ..GridSpec::default()
        };
        let cells = grid_for_spec(&spec, None).expect("grid");
        let faults = cells[0].faults.as_ref().expect("fault spec reaches the cell");
        assert_eq!(faults.drop_rate, 0.05);
        assert_eq!((cells[0].fault_seed, cells[0].retries), (7, 2));

        let outcome = run_local(&spec).expect("session");
        assert!(outcome.markdown.contains("- drop_rate: 0.05\n"), "markdown: {}", outcome.markdown);
        assert!(outcome.markdown.contains("- fault_seed: 7\n"));
        assert!(outcome.markdown.contains("- retries: 2\n"));
        assert!(outcome.report.to_string().contains(r#""drop_rate":"0.05""#));

        // Fault-free reports keep their historical bytes.
        let plain = run_local(&quick_spec()).expect("plain session");
        assert!(!plain.markdown.contains("drop_rate"));
        assert!(!plain.report.to_string().contains("fault_seed"));
    }

    #[test]
    fn cancel_stops_nondurable_sessions_at_the_next_cell_boundary() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let spec = GridSpec { windows: vec![2, 3, 4], trials: 2, ..GridSpec::default() };
        let flag = AtomicBool::new(false);
        let mut seen = Vec::new();
        let control = run_session_with(&spec, None, None, Some(&flag), &mut |i, _| {
            seen.push(i);
            flag.store(true, Ordering::Relaxed);
        })
        .expect("session");
        match control {
            SessionControl::Cancelled { completed } => {
                assert_eq!(completed, 1, "stopped at the boundary after cell 0");
                assert_eq!(seen, vec![0]);
            }
            SessionControl::Done(_) => panic!("session must observe the cancel"),
        }
    }

    #[test]
    fn cancelled_durable_sessions_resume_on_resubmit() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let spec = GridSpec { windows: vec![2, 3], trials: 2, checkpoint_every: 1, ..quick_spec() };
        let root = temp_root("cancel_resume");
        let reference = run_local(&spec).expect("reference");

        let flag = AtomicBool::new(false);
        let control = run_session_with(&spec, None, Some(&root), Some(&flag), &mut |_, _| {
            flag.store(true, Ordering::Relaxed);
        })
        .expect("session");
        let SessionControl::Cancelled { completed } = control else {
            panic!("session must observe the cancel");
        };
        assert_eq!(completed, 1);

        // The resubmitted grid resumes the flushed cell and finishes with
        // the byte-identical report.
        let mut seen = Vec::new();
        let resumed = run_session(&spec, None, Some(&root), |i, _| seen.push(i)).expect("resume");
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(resumed.report.to_string(), reference.report.to_string());
        assert_eq!(resumed.markdown, reference.markdown);
        checkpoint::clean_dir(&root);
    }

    #[test]
    fn hostile_geometry_is_a_typed_rejection_not_a_panic() {
        // One machine holding a one-block window cannot cover v = 8
        // blocks; whether the constructor asserts or the run degrades,
        // the daemon path must never panic. Exercise grid construction
        // under the worst plausible geometry.
        let spec = GridSpec { m: 1, windows: vec![1], trials: 1, ..GridSpec::default() };
        match grid_for_spec(&spec, None) {
            Ok(cells) => assert_eq!(cells.len(), 1),
            Err(e) => assert_eq!(e.code, ErrorCode::BadRequest),
        }
    }

    #[test]
    fn cell_event_fields_carry_status_and_snapshot() {
        let spec = quick_spec();
        let mut fields_of_first = None;
        run_session(&spec, None, None, |i, res| {
            if i == 0 {
                fields_of_first = Some(cell_event_fields(i, res));
            }
        })
        .expect("session");
        let fields = fields_of_first.expect("cell 0 observed");
        let doc = Json::Object(fields).to_string();
        assert!(doc.contains(r#""label":"window=2""#), "doc: {doc}");
        assert!(doc.contains(r#""status":"ok""#));
        assert!(doc.contains(r#""snapshot":{"#), "telemetry snapshot should be embedded");
    }
}
