//! E13 — Checkpoint/resume: a killed sweep resumes byte-identically.
//!
//! Runs one grid three ways and proves durability end to end:
//!
//! 1. **baseline** — the plain [`sweep::run_sweep`] path, uninterrupted;
//! 2. **interrupted** — the checkpointed path, killed mid-grid: the
//!    simulated SIGKILL of `checkpoint::run_sweep_checkpointed_observed`
//!    with `abort_after`, which stops `checkpoint::run_cells` — the one
//!    loop every checkpointed sweep and every `mphd` session runs
//!    through — at a batch boundary; recorded in telemetry as a
//!    `checkpoint_abort` fault (see `mph_mpc::faults::FaultKind::Checkpoint`);
//! 3. **resumed** — the checkpointed path again, which loads the flushed
//!    cells from `target/checkpoints/exp_resume` and computes the rest.
//!
//! The binary then renders a report from the baseline results and one
//! from the resumed results and asserts the two are **byte-identical** —
//! markdown and JSON both. Because every trial is a pure function of
//! `(pipeline, seed)`, this holds across thread counts too; CI's
//! `resume-smoke` job writes the checkpoint at `RAYON_NUM_THREADS=1` and
//! resumes it at `RAYON_NUM_THREADS=4`.
//!
//! Flags: the shared `--trials N --seed N --quick --checkpoint-every N`
//! set, plus `--stage full|interrupt|resume` (default `full`) so CI can
//! split the kill and the recovery across processes:
//!
//! * `interrupt` — clean the checkpoint dir, run until the simulated
//!   kill, exit without a report;
//! * `resume` — pick up whatever checkpoint exists, finish the grid,
//!   verify against an in-process baseline, write the report;
//! * `full` — all of the above in one process.

use mph_core::algorithms::pipeline::Target;
use mph_experiments::checkpoint::{self, CheckpointConfig};
use mph_experiments::setup::{demo_pipeline, fmt, SweepArgs};
use mph_experiments::sweep::{self, Cell, CellResult};
use mph_experiments::Report;
use mph_metrics::json::Json;
use mph_metrics::{Event, MetricsSink, Recorder};
use mph_mpc::faults::FaultKind;
use mph_mpc::FaultSpec;

/// Which part of the kill-and-resume cycle this process performs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    Full,
    Interrupt,
    Resume,
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: [--trials N] [--seed N] [--quick] [--checkpoint-every N] \
         [--stage full|interrupt|resume]"
    );
    std::process::exit(2);
}

/// Splits `--stage` off the argument list, handing the rest to the
/// shared [`SweepArgs`] parser.
fn parse_args() -> (SweepArgs, Stage) {
    let mut stage = Stage::Full;
    let mut rest = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--stage" {
            let value = argv.next().unwrap_or_else(|| usage_exit("--stage requires a value"));
            stage = match value.as_str() {
                "full" => Stage::Full,
                "interrupt" => Stage::Interrupt,
                "resume" => Stage::Resume,
                other => usage_exit(&format!("unknown stage: {other}")),
            };
        } else {
            rest.push(arg);
        }
    }
    match SweepArgs::parse_from(rest.into_iter()) {
        Ok(args) => (args, stage),
        Err(msg) => usage_exit(&msg),
    }
}

/// The E13 grid: plain and faulty cells across both targets, so the
/// checkpoint codec is exercised on every CellResult shape (fault
/// tallies, retries, telemetry snapshots).
fn grid(args: &SweepArgs) -> Vec<Cell> {
    let (w, v, m, window) = if args.quick { (48, 8, 4, 3) } else { (96, 16, 4, 4) };
    let trials = args.trials(if args.quick { 3 } else { 6 });
    let base_seed = args.seed(13_000);
    let max_rounds = 10 * w as usize + 100;
    let drops = FaultSpec { drop_rate: 0.05, ..FaultSpec::default() };
    let crashes = FaultSpec { crash_rate: 0.01, ..FaultSpec::default() };
    vec![
        Cell::new(
            "line/a",
            demo_pipeline(w, v, m, window, Target::Line),
            trials,
            base_seed,
            max_rounds,
        ),
        Cell::new(
            "line/b",
            demo_pipeline(w, v, m, window, Target::Line),
            trials,
            base_seed + 1000,
            max_rounds,
        ),
        Cell::new(
            "simline/a",
            demo_pipeline(w, v, m, window, Target::SimLine),
            trials,
            base_seed,
            max_rounds,
        ),
        Cell::new(
            "simline/b",
            demo_pipeline(w, v, m, window, Target::SimLine),
            trials,
            base_seed + 2000,
            max_rounds,
        ),
        Cell::new(
            "faulty/drop",
            demo_pipeline(w, v, m, window, Target::SimLine),
            trials,
            base_seed,
            max_rounds,
        )
        .with_faults(drops, base_seed ^ 0x0D0D, 2),
        Cell::new(
            "faulty/crash",
            demo_pipeline(w, v, m, window, Target::SimLine),
            trials,
            base_seed,
            max_rounds,
        )
        .with_faults(crashes, base_seed ^ 0xC4A5, 2),
    ]
}

/// Renders the results-derived report. Everything here is a pure
/// function of `results` (plus static configuration), so two result
/// sets are byte-identical exactly when their renders are.
fn render(args: &SweepArgs, every: usize, abort_after: usize, results: &[CellResult]) -> Report {
    let mut report = Report::new();
    report.h1("E13 — Checkpoint/resume: durable sweeps survive a mid-grid kill");
    report
        .kv("cells", results.len())
        .kv("checkpoint cadence (cells)", every)
        .kv("simulated kill: after first flush covering N cells, N", abort_after)
        .kv("quick", args.quick)
        .end_block();
    let mut rows = Vec::new();
    let mut telemetry: Vec<(String, Json)> = Vec::new();
    for result in results {
        telemetry
            .push((result.label.clone(), result.snapshot.as_ref().expect("telemetry").to_json()));
        let trials = result.measurements.len();
        let correct = result.correct_trials();
        rows.push(vec![
            result.label.clone(),
            if result.status.is_failed() { "failed".into() } else { "ok".into() },
            format!("{correct}/{trials}"),
            if correct > 0 { fmt(result.mean_rounds) } else { "-".into() },
            result.retries_used.to_string(),
        ]);
    }
    report.table(&["cell", "status", "correct/trials", "mean rounds", "retries used"], &rows);
    report.json_extra("telemetry", Json::Object(telemetry));
    report.json_extra("degraded", Json::Bool(sweep::degraded(results)));
    report
}

/// Asserts the two renders are byte-identical (markdown and JSON), and
/// returns the resumed one for printing.
fn assert_identical(
    args: &SweepArgs,
    every: usize,
    abort_after: usize,
    baseline: &[CellResult],
    resumed: &[CellResult],
) -> Report {
    let a = render(args, every, abort_after, baseline);
    let b = render(args, every, abort_after, resumed);
    assert_eq!(a.finish(), b.finish(), "markdown reports diverged after resume");
    assert_eq!(
        a.to_json("exp_resume").to_string(),
        b.to_json("exp_resume").to_string(),
        "JSON reports diverged after resume"
    );
    b
}

fn main() {
    let (args, stage) = parse_args();
    let every = args.checkpoint_every().unwrap_or(checkpoint::DEFAULT_EVERY);
    let ckpt = CheckpointConfig::for_exp("exp_resume", every);
    let cells = grid(&args);
    let abort_after = cells.len() / 2;
    drop(cells);

    if matches!(stage, Stage::Full | Stage::Interrupt) {
        // A fresh cycle starts from a clean directory, exactly like a
        // first-ever run of the experiment.
        checkpoint::clean_dir(&ckpt.dir);
        let aborted = checkpoint::run_sweep_checkpointed_observed(
            grid(&args),
            &ckpt,
            Some(abort_after),
            &mut |_, _| {},
        );
        assert!(aborted.is_none(), "the simulated kill must abort the sweep mid-grid");
        eprintln!(
            "interrupted: checkpoint flushed to {} (manifest + completed cells)",
            ckpt.dir.display()
        );
        if stage == Stage::Interrupt {
            return;
        }
    }

    // Resume from whatever the (possibly different) interrupted process
    // flushed, then verify against an uninterrupted in-process baseline.
    let resumed = checkpoint::run_sweep_checkpointed(grid(&args), &ckpt);
    let baseline = sweep::run_sweep(grid(&args));
    let mut report = assert_identical(&args, every, abort_after, &baseline, &resumed);

    // The kill itself is telemetry: one checkpoint_abort fault, recorded
    // through the same event machinery as the injected message faults.
    let durability = Recorder::new();
    durability.record(&Event::Fault { kind: FaultKind::Checkpoint.name(), machine: 0, round: 0 });
    report.h2("durability");
    report
        .kv("resumed report byte-identical to uninterrupted baseline", true)
        .kv("checkpoint_abort faults recorded", 1)
        .end_block();
    report.json_extra("byte_identical", Json::Bool(true));
    report.json_extra("durability_telemetry", durability.snapshot().to_json());
    report.para(
        "Shape check: the resumed sweep loads the CRC-verified cells the \
         killed process flushed, recomputes only the remainder, and renders \
         a report byte-identical to the uninterrupted baseline — determinism \
         makes durability checkable with a string comparison.",
    );
    report.print_and_write("exp_resume");
}
