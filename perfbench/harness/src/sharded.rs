//! The `sharded` and `sharded_tcp` workloads: cells of one geometry (E1's
//! SimLine at w = 512, v = 64, m = 8, window 16: 32 rounds per trial)
//! run through `ShardedRunner` with two real `mphd_worker` processes,
//! over pipes or over TCP loopback. Each cell gets a fresh fleet and runs
//! five trials on it, as `run_cells_sharded` does; cells differ only by
//! seed. One cell in every four carries a seeded kill schedule, which
//! `Supervisor::rebind` re-arms, so every trial of that cell loses one
//! worker mid-round and recovers. Every measurement, killed trials
//! included, is checked against `theorem::measure_rounds` for its seed,
//! and no trial may degrade.
//!
//! The traced run replays the same cells driving `Supervisor` directly,
//! with the benchmark's own counting worker (`perfbench worker`).

use crate::common::{self, Gen, Options, Outcome};
use crate::trace::{self, SpanBuf, Trace};
use crate::worker;
use mph_core::algorithms::pipeline::Target;
use mph_core::theorem::{self, MeasurablePipeline, RetryPolicy, RoundMeasurement};
use mph_experiments::shard::{build_from_spec, supervisor_config, ShardSpec, ShardedRunner};
use mph_metrics::json::Json;
use mph_mpc::shard::{KillSpec, Supervisor, SupervisorConfig};
use mph_mpc::TransportKind;
use mph_oracle::CachedOracle;
use rayon::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const TRIALS_PER_CELL: usize = 5;
const MAX_ROUNDS: usize = 10_000;

fn spec(seed: u64) -> ShardSpec {
    ShardSpec {
        target: Target::SimLine,
        w: 512,
        v: 64,
        m: 8,
        window: 16,
        s_bits: None,
        q: None,
        seed,
    }
}

/// One generated cell: its base seed and, for one cell in every four,
/// the worker to kill and the round to kill it in.
#[derive(Clone, Copy)]
struct CellPlan {
    base_seed: u64,
    kill: Option<KillSpec>,
}

struct Cells {
    gen: Gen,
    next: usize,
    slot: usize,
}

impl Cells {
    fn new(seed: u64) -> Self {
        Cells { gen: Gen::new(seed, 0x5A4D), next: 0, slot: 0 }
    }

    fn next(&mut self) -> CellPlan {
        let i = self.next;
        self.next += 1;
        if i.is_multiple_of(4) {
            self.slot = self.gen.below(4) as usize;
        }
        let base_seed = self.gen.below(1 << 40);
        let kill = (i % 4 == self.slot).then(|| KillSpec {
            round: 1 + self.gen.below(30) as usize,
            worker: self.gen.below(SHARDS as u64) as usize,
        });
        CellPlan { base_seed, kill }
    }
}

fn config(
    transport: TransportKind,
    worker_cmd: Vec<String>,
    kill: Option<KillSpec>,
) -> SupervisorConfig {
    let mut cfg = supervisor_config(SHARDS, &RetryPolicy::for_retries(0), worker_cmd);
    cfg.transport = transport;
    cfg.kills = kill.into_iter().collect();
    cfg
}

/// One measured trial.
struct Trial {
    cell: usize,
    index: usize,
    killed: bool,
    wall: Duration,
    result: Result<RoundMeasurement, String>,
    degraded: Option<String>,
}

struct Untraced {
    cells: Vec<CellPlan>,
    trials: Vec<Trial>,
    wall: Duration,
    /// Largest sum of worker `VmHWM` seen at the end of a cell, KiB.
    workers_kib: u64,
}

fn run_untraced(
    opts: &Options,
    transport: TransportKind,
    worker_cmd: &[String],
    budget: Duration,
) -> Untraced {
    let start = Instant::now();
    let mut gen = Cells::new(opts.seed);
    let mut u =
        Untraced { cells: Vec::new(), trials: Vec::new(), wall: Duration::ZERO, workers_kib: 0 };
    while u.cells.is_empty() || start.elapsed() < budget {
        let plan = gen.next();
        let mut runner =
            ShardedRunner::new(config(transport, worker_cmd.to_vec(), plan.kill), None);
        for t in 0..TRIALS_PER_CELL {
            let s = spec(plan.base_seed + t as u64);
            let (result, wall) = common::timed(|| runner.measure(&s, MAX_ROUNDS));
            u.trials.push(Trial {
                cell: u.cells.len(),
                index: t,
                killed: plan.kill.is_some(),
                wall,
                result: result.map_err(|e| e.to_string()),
                degraded: runner.last_degradation().map(str::to_string),
            });
        }
        let kib: u64 = common::child_pids().iter().map(|pid| common::vm_hwm_kib(pid)).sum();
        u.workers_kib = u.workers_kib.max(kib);
        u.cells.push(plan);
    }
    u.wall = start.elapsed();
    u
}

/// Checks every trial against the in-process measurement for its seed,
/// computed on the pool after the timed window.
fn check(u: &Untraced, out: &mut Outcome) -> Vec<RoundMeasurement> {
    let seeds: Vec<u64> =
        u.trials.iter().map(|t| u.cells[t.cell].base_seed + t.index as u64).collect();
    let pipeline = spec(0).pipeline();
    let reference: Vec<RoundMeasurement> = seeds
        .par_iter()
        .map(|&seed| theorem::measure_rounds(&pipeline, seed, None, None, MAX_ROUNDS))
        .collect();
    for (t, r) in u.trials.iter().zip(&reference) {
        out.attempted += 1;
        match &t.result {
            Ok(m) if m == r && r.correct && t.degraded.is_none() => {}
            Ok(m) if m != r => {
                out.fail(1, format!("cell {} trial {}: {m:?} differs from {r:?}", t.cell, t.index))
            }
            Ok(_) => out.fail(
                1,
                format!(
                    "cell {} trial {}: degraded or incorrect: {:?}",
                    t.cell, t.index, t.degraded
                ),
            ),
            Err(e) => out.fail(1, format!("cell {} trial {}: {e}", t.cell, t.index)),
        }
    }
    reference
}

/// Time to spawn a fleet and complete its handshakes, median of nine.
fn setup_s(
    transport: TransportKind,
    worker_cmd: &[String],
    out: &mut Outcome,
) -> Result<f64, String> {
    let mut samples = Vec::new();
    for i in 0..9u64 {
        let bytes = spec(i).encode();
        let (sup, took) = common::timed(|| {
            Supervisor::new(config(transport, worker_cmd.to_vec(), None), bytes, 8, None)
        });
        sup.map_err(|e| format!("spawning a fleet: {e}"))?;
        samples.push(took.as_secs_f64());
    }
    out.extra("setup_samples_s", Json::array(samples.iter().map(|&s| Json::f64(s))));
    Ok(common::median(&samples))
}

pub fn run(opts: &Options, transport: TransportKind) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(opts, transport, &mut out) {
        out.fail(1, e);
    }
    out
}

fn run_inner(opts: &Options, transport: TransportKind, out: &mut Outcome) -> Result<(), String> {
    let worker_cmd = vec![opts.bin_dir.join("mphd_worker").display().to_string()];
    if !opts.bin_dir.join("mphd_worker").is_file() {
        return Err(format!("no mphd_worker in {}", opts.bin_dir.display()));
    }
    let setup = setup_s(transport, &worker_cmd, out)?;
    let budget = if opts.trace { opts.budget() / 2 } else { opts.budget() };
    let u = run_untraced(opts, transport, &worker_cmd, budget);
    let reference = check(&u, out);
    let fingerprint: Vec<Vec<u64>> = u
        .trials
        .iter()
        .map(|t| match &t.result {
            Ok(m) => vec![m.rounds as u64, m.total_queries, m.total_comm_bits as u64],
            Err(_) => vec![0],
        })
        .collect();
    if let Some(diff) = common::compare_counts(opts, &fingerprint) {
        out.fail(0, diff);
    }
    let ms_of = |pred: &dyn Fn(&Trial) -> bool| -> Vec<f64> {
        u.trials.iter().filter(|t| pred(t)).map(|t| common::ms(t.wall)).collect()
    };
    let clean = ms_of(&|t| !t.killed && t.index > 0);
    let killed = ms_of(&|t| t.killed && t.index > 0);
    let spawning = ms_of(&|t| !t.killed && t.index == 0);
    let clean_p50 = common::median(&clean);
    let recovery: Vec<f64> = killed.iter().map(|k| k - clean_p50).collect();
    let wall_s = u.wall.as_secs_f64();
    let kills = u.cells.iter().filter(|c| c.kill.is_some()).count();
    out.extra("cells", Json::u64(u.cells.len() as u64));
    out.extra("trials", Json::u64(u.trials.len() as u64));
    out.extra("trials_per_cell", Json::u64(TRIALS_PER_CELL as u64));
    out.extra("kill_share", Json::f64(kills as f64 / u.cells.len() as f64));
    out.extra("shards", Json::u64(SHARDS as u64));
    out.extra("wall_s", Json::f64(wall_s));
    common::latency_extra(out, "trial", &clean);
    out.extra("recovery_p50_ms", Json::f64(common::median(&recovery)));
    out.extra("recovery_samples", Json::u64(recovery.len() as u64));
    out.extra("first_trial_p50_ms", Json::f64(common::median(&spawning)));
    let rounds: u64 = reference.iter().map(|m| m.rounds as u64).sum();
    out.extra("rounds_per_trial", Json::f64(rounds as f64 / reference.len().max(1) as f64));
    if !opts.trace {
        let rss_kib = common::vm_hwm_kib("self") + u.workers_kib;
        out.metric("setup_s", setup, "s");
        out.metric("peak_rss_mb", rss_kib as f64 / 1024.0, "MiB");
        out.metric("trials_per_s", u.trials.len() as f64 / wall_s, "1/s");
        out.metric("sessions_per_s", u.cells.len() as f64 / wall_s, "1/s");
        out.metric("latency_p50_ms", clean_p50, "ms");
        return Ok(());
    }
    traced(opts, transport, &u, out)
}

/// Exact counts of one replayed trial: rounds, messages, bits, queries.
type Counts = [u64; 4];

fn traced(
    opts: &Options,
    transport: TransportKind,
    u: &Untraced,
    out: &mut Outcome,
) -> Result<(), String> {
    let stats_dir = opts.scratch_dir("worker-stats");
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let worker_cmd = vec![
        exe.display().to_string(),
        "worker".into(),
        "--stats".into(),
        stats_dir.display().to_string(),
    ];
    let trace = Trace::new();
    let mut measured: Vec<Result<(RoundMeasurement, Counts), String>> = Vec::new();
    let (mut clean_run, mut killed_run) = (Vec::new(), Vec::new());
    let (mut clean_rounds, mut clean_run_ns) = (0u64, 0u64);
    let phase = Instant::now();
    for (c, plan) in u.cells.iter().enumerate() {
        let cfg = config(transport, worker_cmd.clone(), plan.kill);
        let mut buf = SpanBuf::new(&trace, c as u64);
        let cell = buf.open("shard.cell", None);
        let mut sup: Option<Supervisor> = None;
        for t in 0..TRIALS_PER_CELL {
            let s = spec(plan.base_seed + t as u64);
            let trial = buf.open("shard.trial", Some(cell.0));
            let parent = Some(trial.0);
            let (pipeline, expected) = buf.run("shard.reference", parent, None, || {
                let pipeline = s.pipeline();
                let (oracle, blocks) = theorem::draw_instance(pipeline.params(), s.seed);
                let oracle = Arc::new(CachedOracle::new(oracle));
                let expected = theorem::reference_output(&*pipeline, &*oracle, &blocks);
                (pipeline, expected)
            });
            let bytes = s.encode();
            let mut fleet = match sup.take() {
                Some(mut prev) => {
                    match buf.run("shard.rebind", parent, None, || prev.rebind(bytes.clone())) {
                        Ok(()) => Some(prev),
                        Err(_) => None,
                    }
                }
                None => None,
            };
            if fleet.is_none() {
                let spawned = buf.run("shard.spawn", parent, None, || {
                    Supervisor::new(cfg.clone(), bytes, pipeline.machines(), None)
                });
                let mut spawned = spawned.map_err(|e| format!("cell {c}: spawn: {e}"))?;
                spawned.set_fallback_builder(Arc::new(|b: &[u8]| build_from_spec(b, None)));
                fleet = Some(spawned);
            }
            let mut fleet = fleet.expect("a fleet");
            let run = buf.run("shard.run", parent, None, || fleet.run_until_output(MAX_ROUNDS));
            let run_ns = buf.spans.last().expect("the run span").dur_ns;
            let degraded = fleet.degradation().map(str::to_string);
            if degraded.is_none() {
                sup = Some(fleet);
            }
            buf.end(trial);
            measured.push(match (run, degraded) {
                (Ok(run), None) => {
                    let m = RoundMeasurement {
                        rounds: run.rounds(),
                        completed: run.completed(),
                        correct: run.completed() && run.unanimous_output() == Some(&expected),
                        total_queries: run.stats.total_queries(),
                        peak_memory_bits: run.stats.peak_memory_bits(),
                        total_comm_bits: run.stats.total_bits(),
                    };
                    if plan.kill.is_some() {
                        killed_run.push(run_ns as f64 / 1e6);
                    } else {
                        clean_run.push(run_ns as f64 / 1e6);
                        clean_rounds += m.rounds as u64;
                        clean_run_ns += run_ns;
                    }
                    let counts = [
                        m.rounds as u64,
                        run.stats.total_messages() as u64,
                        m.total_comm_bits as u64,
                        m.total_queries,
                    ];
                    Ok((m, counts))
                }
                (Ok(_), Some(d)) => Err(format!("cell {c} trial {t}: degraded: {d}")),
                (Err(e), _) => Err(format!("cell {c} trial {t}: {e}")),
            });
        }
        drop(sup);
        buf.end(cell);
        buf.finish(None);
    }
    let wall = phase.elapsed();
    let mut totals = [0u64; 4];
    for (t, m) in u.trials.iter().zip(&measured) {
        match (m, &t.result) {
            (Ok((m, counts)), Ok(expected)) if m == expected => {
                for (a, b) in totals.iter_mut().zip(counts) {
                    *a += b;
                }
            }
            (Err(e), _) => out.fail(0, format!("traced replay: {e}")),
            _ => out.fail(0, format!("cell {} trial {}: traced replay differs", t.cell, t.index)),
        }
    }
    let _ =
        trace.write(&opts.out_dir.join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed)));
    let (by_name, acc) = trace.self_times(wall.as_nanos() as u64);
    let mean = |name: &str, scale: f64| {
        by_name.get(name).map_or(0.0, |s| s.total_ns as f64 / scale / s.count.max(1) as f64)
    };
    let n = measured.len().max(1) as f64;
    out.metric("shard.spawn_ms", mean("shard.spawn", 1e6), "ms");
    out.metric("shard.rebind_us", mean("shard.rebind", 1e3), "us");
    out.metric("shard.reference_us", mean("shard.reference", 1e3), "us");
    out.metric("shard.round_us", clean_run_ns as f64 / 1e3 / clean_rounds.max(1) as f64, "us");
    out.metric("shard.recovery_ms", common::median(&killed_run) - common::median(&clean_run), "ms");
    out.metric("mpc.rounds", totals[0] as f64 / n, "count");
    out.metric("mpc.messages", totals[1] as f64 / n, "count");
    out.metric("mpc.bits", totals[2] as f64 / n, "count");
    out.metric("oracle.queries", totals[3] as f64 / n, "count");
    let w = worker::collect(&stats_dir);
    let f = |name: &str| worker::field(&w, name) as f64;
    let rounds = f("rounds").max(1.0);
    let waits = f("read_wait_round_ns") + f("read_wait_hello_ns") + f("read_wait_other_ns");
    let busy =
        f("wall_ns") - waits - f("write_ns") - f("classify_ns") - f("build_ns") - f("record_ns");
    out.metric("worker.build_us", f("build_ns") / 1e3 / f("hellos").max(1.0), "us");
    out.metric("worker.busy_us", busy / 1e3 / rounds, "us");
    out.metric("worker.read_wait_us", f("read_wait_round_ns") / 1e3 / rounds, "us");
    out.metric("worker.write_us", f("write_ns") / 1e3 / rounds, "us");
    out.metric("transport.frames_per_round", (f("frames_out") + f("frames_in")) / rounds, "count");
    out.metric("transport.bytes_per_round", (f("bytes_out") + f("bytes_in")) / rounds, "B");
    out.metric("transport.barrier_bytes_per_round", f("barrier_bytes") / rounds, "B");
    out.metric("transport.writes_per_round", f("writes") / rounds, "count");
    out.metric("trace.overhead", wall.as_secs_f64() / u.wall.as_secs_f64(), "ratio");
    trace::check_accounting(out, &acc);
    out.extra(
        "worker_counters",
        Json::Object(
            worker::FIELDS
                .iter()
                .map(|name| (name.to_string(), Json::u64(worker::field(&w, name))))
                .collect(),
        ),
    );
    out.extra(
        "exact_counts",
        Json::object(vec![
            ("trials", Json::u64(measured.len() as u64)),
            ("rounds", Json::u64(totals[0])),
            ("messages", Json::u64(totals[1])),
            ("bits", Json::u64(totals[2])),
            ("oracle_queries", Json::u64(totals[3])),
        ]),
    );
    Ok(())
}
