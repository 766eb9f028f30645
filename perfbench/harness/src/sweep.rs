//! The `sweep` workload: in-process sweeps of the E1, E2 and E12 (ρ = 3)
//! experiment grids through `sweep::run_sweep` on the 2-thread pool,
//! with telemetry on and fresh base seeds for every grid.
//!
//! The traced run replays each grid's trials on the same pool through
//! `draw_instance` → `reference_output` → `build_simulation` /
//! `reset_simulation` → `run_until_output`, with timing wrappers around
//! the trial's `CachedOracle` and the `LazyOracle` inside it, and checks
//! that every replayed measurement and telemetry snapshot equals what
//! `run_sweep` returned for the same grid.

use crate::common::{self, Gen, Options, Outcome};
use crate::trace::{self, OracleClocks, Span, SpanBuf, Timed, Trace};
use mph_core::algorithms::pipeline::Target;
use mph_core::algorithms::ReplicatedPipeline;
use mph_core::theorem::{self, MeasurablePipeline, RoundMeasurement};
use mph_experiments::setup::{demo_params, demo_pipeline};
use mph_experiments::sweep::{run_sweep, Cell, CellResult};
use mph_metrics::json::Json;
use mph_metrics::{MetricsSink, Recorder};
use mph_mpc::faults::derive_seed;
use mph_mpc::{FaultPlan, FaultSpec, Simulation};
use mph_oracle::{CachedOracle, Oracle, RandomTape};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One cell of a generated grid.
struct CellPlan {
    label: String,
    pipeline: Arc<dyn MeasurablePipeline>,
    trials: usize,
    base_seed: u64,
    max_rounds: usize,
    /// Fault rates and the fault-schedule seed (E12 cells; no retries).
    faults: Option<(FaultSpec, u64)>,
}

/// Grid `rep` of a run: E1's SimLine memory sweep (w = 512), E2's Line
/// memory and length sweeps (up to w = 1024) and E12's ρ = 3 cells under
/// their crash plan, each cell on a fresh base seed.
fn grid(seed: u64, rep: u64) -> Vec<CellPlan> {
    let mut gen = Gen::new(seed, 0x5EE9 + rep);
    let mut fresh = move || gen.next() >> 16;
    let mut plan = Vec::new();
    let cell =
        |label: String, pipeline: Arc<dyn MeasurablePipeline>, trials, base_seed, max_rounds| {
            CellPlan { label, pipeline, trials, base_seed, max_rounds, faults: None }
        };
    for window in [8, 16, 32, 64] {
        let p = demo_pipeline(512, 64, 8, window, Target::SimLine);
        plan.push(cell(format!("e1/window={window}"), p, 5, fresh(), 100_000));
    }
    for window in [8, 16, 32, 48] {
        let p = demo_pipeline(512, 64, 8, window, Target::Line);
        plan.push(cell(format!("e2/window={window}"), p, 5, fresh(), 1_000_000));
    }
    for w in [128, 256, 512, 1024] {
        let p = demo_pipeline(w, 64, 8, 16, Target::Line);
        plan.push(cell(format!("e2/w={w}"), p, 5, fresh(), 1_000_000));
    }
    for rate in [0.0, 0.005, 0.01, 0.02] {
        let p = ReplicatedPipeline::new(demo_params(192, 32), 8, 8, 3, Target::SimLine);
        let base_seed = fresh();
        let spec = FaultSpec { crash_rate: rate, ..FaultSpec::default() };
        plan.push(CellPlan {
            faults: Some((spec, base_seed ^ 0xFA17)),
            ..cell(format!("e12/rho=3,crash={rate}"), p, 8, base_seed, 10 * 192 + 100)
        });
    }
    plan
}

/// The sweep cells of a plan, exactly as the experiment binaries build
/// them (telemetry on, no retries).
fn cells(plan: &[CellPlan]) -> Vec<Cell> {
    plan.iter()
        .map(|c| {
            let mut cell = Cell {
                label: c.label.clone(),
                pipeline: Arc::clone(&c.pipeline),
                s_bits: None,
                q: None,
                trials: c.trials,
                base_seed: c.base_seed,
                max_rounds: c.max_rounds,
                telemetry: true,
                faults: None,
                fault_seed: 0,
                retries: 0,
                hub: None,
            };
            if let Some((spec, fault_seed)) = c.faults {
                cell = cell.with_faults(spec, fault_seed, 0);
            }
            cell
        })
        .collect()
}

/// The exact simulated counts of one grid: rounds, messages, bits and
/// oracle queries summed over its cells' telemetry.
fn grid_counts(results: &[CellResult]) -> Vec<u64> {
    let mut counts = vec![0u64; 4];
    for r in results {
        if let Some(s) = &r.snapshot {
            counts[0] += s.totals.rounds;
            counts[1] += s.totals.messages;
            counts[2] += s.totals.bits_sent;
            counts[3] += s.totals.oracle_queries;
        }
    }
    counts
}

/// Checks one grid's results: every fault-free trial correct, no cell
/// failed. Returns the trials attempted.
fn check_grid(plan: &[CellPlan], results: &[CellResult], out: &mut Outcome) -> u64 {
    let mut attempted = 0;
    for (c, r) in plan.iter().zip(results) {
        attempted += c.trials as u64;
        if r.status.is_failed() {
            let lost = c.trials as u64 - r.correct_trials() as u64;
            out.fail(lost.max(1), format!("cell {} failed: {:?}", c.label, r.status));
        } else if c.faults.is_none() {
            let wrong = r.measurements.iter().filter(|m| !m.correct).count() as u64;
            if wrong > 0 || r.measurements.len() != c.trials {
                out.fail(
                    wrong.max(1),
                    format!("cell {}: {wrong} incorrect fault-free trials", c.label),
                );
            }
        }
    }
    attempted
}

struct Untraced {
    /// The grids and their results, kept only for a traced replay.
    plans: Vec<Vec<CellPlan>>,
    results: Vec<Vec<CellResult>>,
    counts: Vec<Vec<u64>>,
    grid_ms: Vec<f64>,
    trials: u64,
    wall: Duration,
}

/// Runs fresh grids through `run_sweep` until `budget` is spent, checking
/// each as it completes.
fn run_untraced(opts: &Options, budget: Duration, out: &mut Outcome) -> Untraced {
    let start = Instant::now();
    let mut u = Untraced {
        plans: Vec::new(),
        results: Vec::new(),
        counts: Vec::new(),
        grid_ms: Vec::new(),
        trials: 0,
        wall: Duration::ZERO,
    };
    let mut rep = 0u64;
    while rep == 0 || start.elapsed() < budget {
        let plan = grid(opts.seed, rep);
        let (results, took) = common::timed(|| run_sweep(cells(&plan)));
        u.grid_ms.push(common::ms(took));
        u.trials += check_grid(&plan, &results, out);
        u.counts.push(grid_counts(&results));
        if opts.trace {
            u.plans.push(plan);
            u.results.push(results);
        }
        rep += 1;
    }
    u.wall = start.elapsed();
    u
}

/// Time until the first trial can start in a fresh process: the pool's
/// start plus the construction of a grid's cells, median over nine
/// processes. Each process has its own address-space layout, and a warm
/// repetition inside one process reads 8 or 14 µs depending on that
/// layout; the cold first construction is what a user pays.
fn setup_s(seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let mut samples = Vec::new();
    for _ in 0..9 {
        let probe = std::process::Command::new(&exe)
            .args(["setup-probe", &seed.to_string()])
            .output()
            .map_err(|e| format!("running the set-up probe: {e}"))?;
        let text = String::from_utf8_lossy(&probe.stdout);
        let seconds: f64 = text
            .trim()
            .parse()
            .map_err(|_| format!("set-up probe printed {text:?} (exit {})", probe.status))?;
        samples.push(seconds);
    }
    Ok(common::median(&samples))
}

/// The body of `perfbench setup-probe SEED`: starts the pool, builds one
/// grid's cells, and prints the seconds taken. Returns the exit code.
pub fn setup_probe(args: &[String]) -> i32 {
    let Some(seed) = args.first().and_then(|s| s.parse::<u64>().ok()) else {
        eprintln!("usage: perfbench setup-probe SEED");
        return 2;
    };
    let (_, took) = common::timed(|| {
        let threads = rayon::current_num_threads();
        std::hint::black_box((threads, cells(&grid(seed, 0))))
    });
    println!("{}", took.as_secs_f64());
    0
}

pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let setup = match setup_s(opts.seed) {
        Ok(setup) => setup,
        Err(e) => {
            out.fail(1, e);
            return out;
        }
    };
    let threads = rayon::current_num_threads();
    out.extra("pool_threads", Json::u64(threads as u64));
    let budget = if opts.trace { opts.budget() / 2 } else { opts.budget() };
    let u = run_untraced(opts, budget, &mut out);
    out.attempted = u.trials;
    if let Some(diff) = common::compare_counts(opts, &u.counts) {
        out.fail(0, diff);
    }
    let grids = u.grid_ms.len() as f64;
    let wall_s = u.wall.as_secs_f64();
    out.extra("grids", Json::u64(grids as u64));
    out.extra("trials_per_grid", Json::u64(u.trials / grids as u64));
    out.extra("wall_s", Json::f64(wall_s));
    common::latency_extra(&mut out, "grid", &u.grid_ms);
    if !opts.trace {
        out.metric("setup_s", setup, "s");
        out.metric("peak_rss_mb", common::vm_hwm_kib("self") as f64 / 1024.0, "MiB");
        out.metric("trials_per_s", u.trials as f64 / wall_s, "1/s");
        out.metric("sessions_per_s", grids / wall_s, "1/s");
        out.metric("latency_p50_ms", common::median(&u.grid_ms), "ms");
        return out;
    }
    traced(opts, &u, threads, &mut out);
    out
}

/// Per-trial exact counts of a replayed trial.
#[derive(Default, Clone, Copy)]
struct TrialCounts {
    trials: u64,
    rounds: u64,
    messages: u64,
    bits: u64,
    oracle_calls: u64,
    derive_calls: u64,
}

impl TrialCounts {
    fn add(&mut self, o: &TrialCounts) {
        self.trials += o.trials;
        self.rounds += o.rounds;
        self.messages += o.messages;
        self.bits += o.bits;
        self.oracle_calls += o.oracle_calls;
        self.derive_calls += o.derive_calls;
    }
}

/// Replays one trial as `TrialRunner` runs it,
/// recording its spans into `buf` under `trial`.
fn replay_trial(
    cell: &CellPlan,
    seed: u64,
    sim_slot: &mut Option<Simulation>,
    sink: &Arc<Recorder>,
    buf: &mut SpanBuf<'_>,
    trial: usize,
) -> (RoundMeasurement, TrialCounts) {
    let pipeline = &cell.pipeline;
    let clocks = OracleClocks::default();
    let (lazy, blocks) =
        buf.run("core.draw", Some(trial), None, || theorem::draw_instance(pipeline.params(), seed));
    let oracle: Arc<dyn Oracle> = Arc::new(Timed::new(
        CachedOracle::new(Timed::new(lazy, Arc::clone(&clocks.derive))),
        Arc::clone(&clocks.query),
    ));
    let expected = buf.run("core.reference", Some(trial), Some(&clocks), || {
        theorem::reference_output(&**pipeline, &*oracle, &blocks)
    });
    let s = pipeline.required_s();
    let tape = RandomTape::new(seed);
    let mut sim = buf.run("core.build", Some(trial), Some(&clocks), || match sim_slot.take() {
        Some(mut sim) if sim.m() == pipeline.machines() && sim.s_bits() == s => {
            Arc::clone(pipeline).reset_simulation(
                &mut sim,
                Arc::clone(&oracle),
                tape,
                None,
                &blocks,
            );
            sim
        }
        _ => Arc::clone(pipeline).build_simulation(Arc::clone(&oracle), tape, s, None, &blocks),
    });
    sim.set_metrics(Arc::clone(sink) as Arc<dyn MetricsSink>);
    // The grid's cells run without retries: attempt 0 is the only one.
    match cell.faults {
        Some((spec, fault_seed)) => {
            sim.set_fault_plan(FaultPlan::new(derive_seed(fault_seed, seed, 0), spec))
        }
        None => sim.clear_fault_plan(),
    };
    let run =
        buf.run("mpc.run", Some(trial), Some(&clocks), || sim.run_until_output(cell.max_rounds));
    let (measurement, messages) = match run {
        Ok(result) => (
            RoundMeasurement {
                rounds: result.rounds(),
                completed: result.completed(),
                correct: result.completed() && result.unanimous_output() == Some(&expected),
                total_queries: result.stats.total_queries(),
                peak_memory_bits: result.stats.peak_memory_bits(),
                total_comm_bits: result.stats.total_bits(),
            },
            result.stats.total_messages(),
        ),
        Err(violation) => {
            assert!(cell.faults.is_some(), "model violation in a fault-free trial: {violation}");
            let stats = sim.stats();
            (
                RoundMeasurement {
                    rounds: sim.round(),
                    completed: false,
                    correct: false,
                    total_queries: stats.total_queries(),
                    peak_memory_bits: stats.peak_memory_bits(),
                    total_comm_bits: stats.total_bits(),
                },
                stats.total_messages(),
            )
        }
    };
    let counts = TrialCounts {
        trials: 1,
        rounds: measurement.rounds as u64,
        messages: messages as u64,
        bits: measurement.total_comm_bits as u64,
        oracle_calls: clocks.query.calls(),
        derive_calls: clocks.derive.calls(),
    };
    *sim_slot = Some(sim);
    (measurement, counts)
}

/// What a replayed grid produced.
struct ReplayedCell {
    measurements: Vec<RoundMeasurement>,
    snapshot: String,
    failure: Option<String>,
}

/// Replays one grid on the pool, one span tree per trial under a
/// pool-wide grid span; telemetry snapshots are taken per cell as
/// `run_sweep` does.
fn replay_grid(
    plan: &[CellPlan],
    trace: &Trace,
    grid_id: u64,
    threads: usize,
) -> (Vec<ReplayedCell>, TrialCounts) {
    let grid_start = Instant::now();
    let grid_span = trace.push(Span {
        name: "sweep.grid",
        id: grid_id,
        parent: None,
        start_ns: trace.ns_at(grid_start),
        dur_ns: 0,
        threads: threads as u32,
    });
    let recorders: Vec<Arc<Recorder>> = plan
        .iter()
        .map(|c| {
            let recorder = Arc::new(Recorder::new());
            theorem::run_tags(&recorder, c.pipeline.params(), c.pipeline.required_s(), None);
            recorder
        })
        .collect();
    // The (cell, seed chunk) units of run_sweep: four chunks per cell.
    let mut units: Vec<(usize, u64, usize)> = Vec::new();
    for (ci, c) in plan.iter().enumerate() {
        let chunk = c.trials.div_ceil(4).max(1);
        let mut t = 0;
        while t < c.trials {
            let len = chunk.min(c.trials - t);
            units.push((ci, c.base_seed.wrapping_add(t as u64), len));
            t += len;
        }
    }
    type Unit = Result<(Vec<RoundMeasurement>, TrialCounts), String>;
    let measured: Vec<Unit> = units
        .par_iter()
        .map(|&(ci, seed0, len)| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut sim = None;
                let mut counts = TrialCounts::default();
                let mut ms = Vec::with_capacity(len);
                for t in 0..len as u64 {
                    let seed = seed0.wrapping_add(t);
                    let mut buf = SpanBuf::new(trace, grid_id << 20 | (ci as u64) << 12 | t);
                    let trial = buf.open("sweep.trial", None);
                    let (m, c) =
                        replay_trial(&plan[ci], seed, &mut sim, &recorders[ci], &mut buf, trial.0);
                    buf.end(trial);
                    buf.finish(Some(grid_span));
                    counts.add(&c);
                    ms.push(m);
                }
                (ms, counts)
            }))
            .map_err(|_| "replayed trial panicked".to_string())
        })
        .collect();
    let mut cells: Vec<ReplayedCell> = plan
        .iter()
        .map(|_| ReplayedCell { measurements: Vec::new(), snapshot: String::new(), failure: None })
        .collect();
    let mut totals = TrialCounts::default();
    for (&(ci, _, _), unit) in units.iter().zip(measured) {
        match unit {
            Ok((ms, counts)) => {
                cells[ci].measurements.extend(ms);
                totals.add(&counts);
            }
            Err(e) => cells[ci].failure = Some(e),
        }
    }
    let mut snap_buf = SpanBuf::new(trace, grid_id << 20);
    for (cell, recorder) in cells.iter_mut().zip(&recorders) {
        cell.snapshot = snap_buf
            .run("metrics.snapshot", None, None, || recorder.snapshot().to_json())
            .to_string();
    }
    snap_buf.finish(Some(grid_span));
    trace.set_dur(grid_span, grid_start.elapsed().as_nanos() as u64);
    (cells, totals)
}

fn traced(opts: &Options, u: &Untraced, threads: usize, out: &mut Outcome) {
    let trace = Trace::new();
    let phase = Instant::now();
    let replays: Vec<(Vec<ReplayedCell>, TrialCounts)> = u
        .plans
        .iter()
        .enumerate()
        .map(|(g, plan)| replay_grid(plan, &trace, g as u64, threads))
        .collect();
    let wall = phase.elapsed();
    let mut totals = TrialCounts::default();
    let mut cells_n = 0u64;
    for (g, ((plan, results), (replayed, counts))) in
        u.plans.iter().zip(&u.results).zip(&replays).enumerate()
    {
        totals.add(counts);
        for ((c, r), rep) in plan.iter().zip(results).zip(replayed) {
            cells_n += 1;
            let same = rep.failure.is_none()
                && rep.measurements == r.measurements
                && Some(&rep.snapshot)
                    == r.snapshot.as_ref().map(|s| s.to_json().to_string()).as_ref();
            if !same {
                out.fail(
                    c.trials as u64,
                    format!("grid {g} cell {}: traced replay differs from run_sweep", c.label),
                );
            }
        }
    }
    let _ = trace.write(&opts.out_dir.join(format!("spans-sweep-seed{}.jsonl", opts.seed)));
    let capacity = wall.as_nanos() as u64 * threads as u64;
    let (by_name, acc) = trace.self_times(capacity);
    let self_us = |name: &str| by_name.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e3);
    let total_us = |name: &str| by_name.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e3);
    let trials = totals.trials.max(1) as f64;
    out.metric("oracle.queries", totals.oracle_calls as f64 / trials, "count");
    out.metric("oracle.query_us", total_us("oracle.query") / trials, "us");
    out.metric("oracle.derive_queries", totals.derive_calls as f64 / trials, "count");
    out.metric("oracle.derive_us", total_us("oracle.derive") / trials, "us");
    out.metric(
        "oracle.hit_frac",
        1.0 - totals.derive_calls as f64 / totals.oracle_calls.max(1) as f64,
        "ratio",
    );
    out.metric("core.draw_us", self_us("core.draw") / trials, "us");
    out.metric("core.reference_us", self_us("core.reference") / trials, "us");
    out.metric("core.build_us", self_us("core.build") / trials, "us");
    out.metric("mpc.run_us", self_us("mpc.run") / trials, "us");
    out.metric("mpc.round_ns", self_us("mpc.run") * 1e3 / totals.rounds.max(1) as f64, "ns");
    out.metric("mpc.rounds", totals.rounds as f64 / trials, "count");
    out.metric("mpc.messages", totals.messages as f64 / trials, "count");
    out.metric("mpc.bits", totals.bits as f64 / trials, "count");
    out.metric("metrics.snapshot_us", total_us("metrics.snapshot") / cells_n.max(1) as f64, "us");
    let trial_ns = by_name.get("sweep.trial").map_or(0, |s| s.total_ns);
    let grid_ns = by_name.get("sweep.grid").map_or(0, |s| s.total_ns);
    out.metric(
        "sweep.busy_frac",
        trial_ns as f64 / (grid_ns.max(1) as f64 * threads as f64),
        "ratio",
    );
    out.metric("trace.overhead", wall.as_secs_f64() / u.wall.as_secs_f64(), "ratio");
    trace::check_accounting(out, &acc);
    out.extra(
        "exact_counts",
        Json::object(vec![
            ("trials", Json::u64(totals.trials)),
            ("rounds", Json::u64(totals.rounds)),
            ("messages", Json::u64(totals.messages)),
            ("bits", Json::u64(totals.bits)),
            ("oracle_queries", Json::u64(totals.oracle_calls)),
            ("derive_queries", Json::u64(totals.derive_calls)),
        ]),
    );
}
