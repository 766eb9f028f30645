//! E14 — Shard recovery: crash-recovery latency and overhead vs shard
//! count, with real worker processes and real SIGKILLs.
//!
//! For each shard count the binary runs the same trials three ways:
//!
//! 1. **in-process** — [`theorem::measure_rounds`], the reference;
//! 2. **sharded/clean** — the multi-process supervisor, no faults;
//! 3. **sharded/killed** — the supervisor with a seeded kill schedule:
//!    each trial SIGKILLs one worker right after a round's message batch
//!    hits the wire, forcing a detect → respawn → replay cycle.
//!
//! Every sharded measurement — clean *and* recovered — is asserted equal
//! to the in-process [`RoundMeasurement`], so the timing table below is
//! a table of *identical transcripts*: the overhead column is the pure
//! price of crash recovery, not of a different computation. The report
//! carries `byte_identical: true` only because those assertions passed.
//!
//! Workers are located via [`shard::default_worker_cmd`]: build the
//! workspace first (so `mphd_worker` sits next to this binary) or point
//! `MPH_WORKER_BIN` at a worker. Flags: the shared
//! `--trials N --seed N --quick` set.

use mph_core::theorem::{self, RetryPolicy, RoundMeasurement};
use mph_experiments::setup::{fmt, SweepArgs};
use mph_experiments::shard::{self, ShardSpec, ShardedRunner};
use mph_experiments::Report;
use mph_metrics::json::Json;
use mph_metrics::{MetricsSink, Recorder};
use mph_mpc::shard::KillSpec;
use std::sync::Arc;
use std::time::Instant;

use mph_core::algorithms::pipeline::Target;

/// m = 7 covers even, uneven, and one-machine-per-worker partitions
/// across the sweep's shard counts.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];
const MAX_ROUNDS: usize = 10_000;

fn spec(seed: u64) -> ShardSpec {
    ShardSpec { target: Target::SimLine, w: 48, v: 8, m: 7, window: 2, s_bits: None, q: None, seed }
}

/// One shard count's aggregate outcome.
struct Row {
    shards: usize,
    in_process_ms: f64,
    clean_ms: f64,
    killed_ms: f64,
    crashes: u64,
    respawns: u64,
    replays: u64,
}

impl Row {
    /// Wall-clock cost of the kill schedule: recovered run minus clean
    /// run over the same trials (can dip below zero in the noise when
    /// recovery is cheap; reported as measured).
    fn overhead_ms(&self) -> f64 {
        self.killed_ms - self.clean_ms
    }

    /// Mean detect → respawn → replay cycle cost.
    fn per_crash_ms(&self) -> f64 {
        if self.crashes == 0 {
            0.0
        } else {
            self.overhead_ms() / self.crashes as f64
        }
    }
}

fn measure_shard_count(
    shards: usize,
    trials: usize,
    base_seed: u64,
    reference: &[RoundMeasurement],
) -> Row {
    let policy = RetryPolicy::for_retries(0);
    let cfg = shard::supervisor_config(shards, &policy, shard::default_worker_cmd());

    let start = Instant::now();
    for (t, expected) in reference.iter().enumerate() {
        let s = spec(base_seed + t as u64);
        let got = ShardedRunner::new(cfg.clone(), None)
            .measure(&s, MAX_ROUNDS)
            .unwrap_or_else(|e| panic!("{shards} shards, clean trial {t}: {e}"));
        assert_eq!(&got, expected, "{shards} shards, clean trial {t}: transcript diverged");
    }
    let clean_ms = start.elapsed().as_secs_f64() * 1e3;

    // The seeded kill schedule: trial t kills worker (seed + t) % shards
    // in round 1 + t % 2 — deterministic, varied, always inside the run
    // (the reference trials all take > 3 rounds, asserted in main).
    let recorder = Arc::new(Recorder::new());
    let sink: Arc<dyn MetricsSink> = recorder.clone();
    let start = Instant::now();
    for (t, expected) in reference.iter().enumerate() {
        let s = spec(base_seed + t as u64);
        let mut killed = cfg.clone();
        killed.kills =
            vec![KillSpec { round: 1 + t % 2, worker: (base_seed as usize + t) % shards }];
        let got = ShardedRunner::new(killed, Some(sink.clone()))
            .measure(&s, MAX_ROUNDS)
            .unwrap_or_else(|e| panic!("{shards} shards, killed trial {t}: {e}"));
        assert_eq!(&got, expected, "{shards} shards, killed trial {t}: recovery diverged");
    }
    let killed_ms = start.elapsed().as_secs_f64() * 1e3;

    let workers = recorder.snapshot().workers;
    let tally = |key: &str| workers.get(key).copied().unwrap_or(0);
    let row = Row {
        shards,
        in_process_ms: 0.0,
        clean_ms,
        killed_ms,
        crashes: tally("crash"),
        respawns: tally("respawn"),
        replays: tally("replay"),
    };
    assert!(row.crashes >= trials as u64, "every trial must observe its SIGKILL");
    assert_eq!(row.crashes, row.respawns, "every crash respawns");
    assert_eq!(row.respawns, row.replays, "every respawn replays");
    row
}

fn main() {
    let args = SweepArgs::parse();
    let trials = args.trials(if args.quick { 2 } else { 4 });
    let base_seed = args.seed(14_000);

    // The in-process reference: both the byte-identity oracle and the
    // zero-overhead timing floor.
    let pipeline = spec(base_seed).pipeline();
    let start = Instant::now();
    let reference: Vec<RoundMeasurement> = (0..trials as u64)
        .map(|t| theorem::measure_rounds(&pipeline, base_seed + t, None, None, MAX_ROUNDS))
        .collect();
    let in_process_ms = start.elapsed().as_secs_f64() * 1e3;
    for (t, m) in reference.iter().enumerate() {
        assert!(m.correct, "reference trial {t} must be healthy");
        assert!(m.rounds > 3, "reference trial {t} too short to kill into ({} rounds)", m.rounds);
    }

    let rows: Vec<Row> = SHARD_COUNTS
        .iter()
        .map(|&shards| Row {
            in_process_ms,
            ..measure_shard_count(shards, trials, base_seed, &reference)
        })
        .collect();

    let mut report = Report::new();
    report.h1("E14 — Shard recovery: SIGKILL cost vs shard count");
    report
        .kv("target", "simline")
        .kv("w", 48)
        .kv("v", 8)
        .kv("m", 7)
        .kv("trials per shard count", trials)
        .kv("seed", base_seed)
        .kv("kills per trial", 1)
        .kv("quick", args.quick)
        .end_block();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.shards.to_string(),
                fmt(r.in_process_ms),
                fmt(r.clean_ms),
                fmt(r.killed_ms),
                fmt(r.overhead_ms()),
                fmt(r.per_crash_ms()),
                r.crashes.to_string(),
            ]
        })
        .collect();
    report.table(
        &[
            "shards",
            "in-process ms",
            "sharded ms",
            "killed ms",
            "recovery overhead ms",
            "per-crash ms",
            "crashes",
        ],
        &table,
    );
    report.json_extra(
        "recovery",
        Json::array(rows.iter().map(|r| {
            Json::Object(vec![
                ("shards".to_string(), Json::u64(r.shards as u64)),
                ("in_process_ms".to_string(), Json::f64(r.in_process_ms)),
                ("clean_ms".to_string(), Json::f64(r.clean_ms)),
                ("killed_ms".to_string(), Json::f64(r.killed_ms)),
                ("overhead_ms".to_string(), Json::f64(r.overhead_ms())),
                ("per_crash_ms".to_string(), Json::f64(r.per_crash_ms())),
                ("crashes".to_string(), Json::u64(r.crashes)),
                ("respawns".to_string(), Json::u64(r.respawns)),
                ("replays".to_string(), Json::u64(r.replays)),
            ])
        })),
    );
    report.json_extra("byte_identical", Json::Bool(true));
    report.para(
        "Shape check: every sharded measurement — clean and SIGKILLed — \
         is asserted equal to the in-process reference before its timing \
         enters the table, so the overhead column prices recovery alone. \
         Per-crash cost stays flat-ish in the shard count: a respawn \
         replays one shard's state from the last round barrier, not the \
         whole fleet's.",
    );
    report.print_and_write("exp_shard_recovery");
}
