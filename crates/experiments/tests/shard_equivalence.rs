//! Shard-boundary equivalence with real worker processes.
//!
//! The tentpole contract of the shard subsystem: a supervised
//! multi-process run — at any shard count, over pipes or TCP, with or
//! without workers SIGKILLed mid-round, and under deterministic chaos
//! injection on the wire — measures **byte-identically** to the
//! in-process executor on the same trial. Every test here spawns genuine
//! OS processes of the `mphd_worker` binary.

use mph_core::algorithms::pipeline::Target;
use mph_core::theorem;
use mph_experiments::shard::{run_cell_sharded, ShardSpec, ShardedRunner};
use mph_experiments::sweep::{run_sweep, Cell, CellStatus};
use mph_metrics::{MetricsSink, Recorder};
use mph_mpc::shard::{KillSpec, ShardError, SupervisorConfig};
use mph_mpc::{ChaosDirection, ChaosFaultKind, ChaosSpec, ForcedFault, TransportKind};
use std::sync::Arc;
use std::time::Duration;

fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_mphd_worker").to_string()]
}

fn config(shards: usize) -> SupervisorConfig {
    SupervisorConfig::new(shards, worker_cmd())
}

fn tcp_config(shards: usize) -> SupervisorConfig {
    let mut cfg = config(shards);
    cfg.transport = TransportKind::Tcp;
    cfg
}

/// m = 7 so shard counts 1, 2, 4, 7 cover even, uneven, and
/// one-machine-per-worker partitions.
fn spec(seed: u64) -> ShardSpec {
    ShardSpec { target: Target::SimLine, w: 48, v: 8, m: 7, window: 2, s_bits: None, q: None, seed }
}

#[test]
fn sharded_runs_match_in_process_across_shard_counts() {
    let s = spec(100);
    let expected = theorem::measure_rounds(&s.pipeline(), s.seed, s.s_bits, s.q, 10_000);
    assert!(expected.correct, "reference trial must be healthy");
    for shards in [1, 2, 4, 7] {
        let got = ShardedRunner::new(config(shards), None)
            .measure(&s, 10_000)
            .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
        assert_eq!(got, expected, "shards = {shards}");
    }
}

#[test]
fn sigkill_mid_round_recovers_byte_identically() {
    let s = spec(101);
    let expected = theorem::measure_rounds(&s.pipeline(), s.seed, s.s_bits, s.q, 10_000);
    assert!(expected.rounds > 3, "need enough rounds to kill into (got {})", expected.rounds);
    // Kill worker 1 in round 1 and worker 0 again in round 3 — real
    // SIGKILLs delivered right after the round's batch hits the wire.
    let mut cfg = config(4);
    cfg.kills = vec![KillSpec { round: 1, worker: 1 }, KillSpec { round: 3, worker: 0 }];
    let recorder = Arc::new(Recorder::new());
    let sink: Arc<dyn MetricsSink> = recorder.clone();
    let got = ShardedRunner::new(cfg, Some(sink)).measure(&s, 10_000).expect("recovered run");
    assert_eq!(got, expected, "post-recovery transcript must be byte-identical");
    // The kills really happened: the supervisor observed the crashes and
    // rolled replacements forward from the round barriers.
    let workers = recorder.snapshot().workers;
    assert!(workers["crash"] >= 2, "workers: {workers:?}");
    assert_eq!(workers["crash"], workers["respawn"], "every crash respawns");
    assert_eq!(workers["respawn"], workers["replay"], "every respawn replays");
    assert!(workers["spawn"] >= 4, "initial fleet spawns recorded");
    assert!(workers["round_ack"] > 0, "per-round acks recorded");
}

#[test]
fn respawn_exhaustion_redistributes_to_survivors_byte_identically() {
    // Worker 0 of 3 dies with a zero respawn budget: the supervisor
    // walks the degradation ladder — the dead shard's machine range is
    // absorbed by a survivor and the run completes *degraded*, with
    // measurements still byte-identical to the in-process executor.
    let s = spec(102);
    let expected = theorem::measure_rounds(&s.pipeline(), s.seed, s.s_bits, s.q, 10_000);
    let mut cfg = config(3);
    cfg.max_respawns = 0;
    cfg.kills = vec![KillSpec { round: 0, worker: 0 }];
    let recorder = Arc::new(Recorder::new());
    let sink: Arc<dyn MetricsSink> = recorder.clone();
    let mut runner = ShardedRunner::new(cfg.clone(), Some(sink));
    let got = runner.measure(&s, 10_000).expect("degraded run completes");
    assert_eq!(got, expected, "redistributed transcript must be byte-identical");
    let reason = runner.last_degradation().expect("degradation surfaced").to_string();
    assert!(reason.contains("worker 0"), "reason names the dead shard: {reason}");
    let workers = recorder.snapshot().workers;
    assert!(workers["redistribute"] >= 1, "workers: {workers:?}");
    // The same scenario at the sweep-cell level lands as a Degraded
    // cell whose measurements still match the in-process engine.
    let result = run_cell_sharded("exhausted", &s, 1, 10_000, &cfg);
    let CellStatus::Degraded { reason } = &result.status else {
        panic!("expected Degraded, got {:?}", result.status);
    };
    assert!(reason.contains("trial 0"), "reason: {reason}");
    assert_eq!(result.measurements, vec![expected]);
}

#[test]
fn losing_every_worker_falls_back_in_process_byte_identically() {
    // Both ladder rungs in one run: the round-0 kill redistributes
    // shard 0 onto the survivor, the round-1 kill takes the last worker
    // down — with no budget left the supervisor rebuilds the simulation
    // in-process from the final barrier and finishes the trial.
    let s = spec(104);
    let expected = theorem::measure_rounds(&s.pipeline(), s.seed, s.s_bits, s.q, 10_000);
    assert!(expected.rounds > 2, "need rounds to kill into (got {})", expected.rounds);
    let mut cfg = config(2);
    cfg.max_respawns = 0;
    cfg.kills = vec![KillSpec { round: 0, worker: 0 }, KillSpec { round: 1, worker: 0 }];
    let recorder = Arc::new(Recorder::new());
    let sink: Arc<dyn MetricsSink> = recorder.clone();
    let mut runner = ShardedRunner::new(cfg, Some(sink));
    let got = runner.measure(&s, 10_000).expect("fallback run completes");
    assert_eq!(got, expected, "in-process fallback must be byte-identical");
    assert!(runner.last_degradation().is_some());
    let workers = recorder.snapshot().workers;
    assert!(workers["redistribute"] >= 1, "workers: {workers:?}");
    assert!(workers["degrade"] >= 1, "workers: {workers:?}");
}

#[test]
fn tcp_transport_matches_in_process_across_shard_counts() {
    let s = spec(105);
    let expected = theorem::measure_rounds(&s.pipeline(), s.seed, s.s_bits, s.q, 10_000);
    assert!(expected.correct, "reference trial must be healthy");
    for shards in [1, 2, 4, 7] {
        let got = ShardedRunner::new(tcp_config(shards), None)
            .measure(&s, 10_000)
            .unwrap_or_else(|e| panic!("{shards} TCP shards: {e}"));
        assert_eq!(got, expected, "TCP shards = {shards}");
    }
}

#[test]
fn tcp_with_random_chaos_rates_recovers_byte_identically() {
    // Seeded random chaos on every link: bit corruption, duplication,
    // bounded delay, occasional truncation and mid-frame disconnects.
    // Whatever the chaos plane throws, the merged transcript must stay
    // byte-identical — faults funnel into the same detect → respawn →
    // replay-from-barrier path as real crashes.
    let s = spec(106);
    let expected = theorem::measure_rounds(&s.pipeline(), s.seed, s.s_bits, s.q, 10_000);
    let mut cfg = tcp_config(3);
    cfg.round_deadline = Duration::from_secs(3);
    cfg.max_respawns = 50;
    cfg.chaos = Some(ChaosSpec {
        seed: 0xC4A05,
        corrupt_rate: 0.01,
        truncate_rate: 0.005,
        disconnect_rate: 0.005,
        duplicate_rate: 0.02,
        delay_rate: 0.05,
        max_delay: Duration::from_millis(2),
        ..ChaosSpec::default()
    });
    let recorder = Arc::new(Recorder::new());
    let sink: Arc<dyn MetricsSink> = recorder.clone();
    let got =
        ShardedRunner::new(cfg, Some(sink)).measure(&s, 10_000).expect("chaotic run completes");
    assert_eq!(got, expected, "chaos must be invisible in the merged transcript");
    let workers = recorder.snapshot().workers;
    assert_eq!(
        workers.get("crash").copied().unwrap_or(0),
        workers.get("respawn").copied().unwrap_or(0),
        "every chaos crash respawns: {workers:?}"
    );
}

#[test]
fn every_single_frame_fault_recovers_byte_identically() {
    // One forced fault per run, each kind in each direction, striking a
    // mid-protocol frame over TCP. Send frame 1 is the round-0 batch;
    // recv frame 2 is the worker's round-0 stats ack — both well past
    // the handshake, so recovery (not fleet construction) is on trial.
    let s = spec(107);
    let expected = theorem::measure_rounds(&s.pipeline(), s.seed, s.s_bits, s.q, 10_000);
    let kinds = [
        ChaosFaultKind::Corrupt,
        ChaosFaultKind::Truncate,
        ChaosFaultKind::Disconnect,
        ChaosFaultKind::Duplicate,
    ];
    for direction in [ChaosDirection::Send, ChaosDirection::Recv] {
        let frame_index = match direction {
            ChaosDirection::Send => 1,
            ChaosDirection::Recv => 2,
        };
        for kind in kinds {
            let mut cfg = tcp_config(2);
            cfg.round_deadline = Duration::from_secs(2);
            cfg.chaos = Some(ChaosSpec {
                force: vec![ForcedFault { worker: 1, direction, frame_index, kind }],
                ..ChaosSpec::default()
            });
            let got = ShardedRunner::new(cfg, None)
                .measure(&s, 10_000)
                .unwrap_or_else(|e| panic!("{kind:?}/{direction:?}: {e}"));
            assert_eq!(got, expected, "fault {kind:?} on {direction:?} frame {frame_index}");
        }
    }
}

#[test]
fn zero_rate_chaos_is_byte_invisible_end_to_end() {
    // A chaos plane with all rates at zero must not perturb the wire at
    // all: same measurements, no crashes, no respawns.
    let s = spec(108);
    let baseline = ShardedRunner::new(tcp_config(2), None).measure(&s, 10_000).expect("baseline");
    let mut cfg = tcp_config(2);
    cfg.chaos = Some(ChaosSpec { seed: 99, ..ChaosSpec::default() });
    let recorder = Arc::new(Recorder::new());
    let sink: Arc<dyn MetricsSink> = recorder.clone();
    let got = ShardedRunner::new(cfg, Some(sink)).measure(&s, 10_000).expect("inert chaos run");
    assert_eq!(got, baseline);
    let workers = recorder.snapshot().workers;
    assert_eq!(workers.get("crash").copied().unwrap_or(0), 0, "workers: {workers:?}");
    assert_eq!(workers.get("respawn").copied().unwrap_or(0), 0, "workers: {workers:?}");
}

#[test]
fn sharded_cells_match_the_sweep_engine() {
    // Whole-cell comparison: run_cell_sharded vs run_sweep on the same
    // grid — measurements, means, and statuses all equal (the report
    // built from either is byte-identical).
    let trials = 3;
    let base_seed = 100;
    let max_rounds = 10_000;
    let windows = [2usize, 3];
    let in_process: Vec<Cell> = windows
        .iter()
        .map(|&window| {
            let s = ShardSpec { window, ..spec(0) };
            Cell::new(format!("window={window}"), s.pipeline(), trials, base_seed, max_rounds)
        })
        .collect();
    let expected = run_sweep(in_process);
    let got: Vec<_> = windows
        .iter()
        .map(|&window| {
            let s = ShardSpec { window, ..spec(base_seed) };
            run_cell_sharded(&format!("window={window}"), &s, trials, max_rounds, &config(4))
        })
        .collect();
    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g.label, e.label);
        assert_eq!(g.status, CellStatus::Ok);
        assert_eq!(g.status, e.status);
        assert_eq!(g.measurements, e.measurements, "cell {}", g.label);
        assert_eq!(g.mean_rounds, e.mean_rounds);
        // Sharded telemetry carries the same tags plus worker tallies —
        // and the spawn count stays exactly one fleet per cell: trials
        // rebind the warm fleet (reusing each worker's oracle cache)
        // instead of respawning, observationally invisibly.
        let snap = g.snapshot.as_ref().expect("telemetry");
        assert_eq!(snap.tags, e.snapshot.as_ref().expect("telemetry").tags);
        assert_eq!(snap.workers["spawn"], 4, "one fleet serves all trials of a cell");
    }
}

#[test]
fn worker_with_memory_starved_spec_fails_the_cell_not_the_process() {
    // s_bits = 1 cannot hold the input delivery: the worker reports the
    // model violation as a deterministic error ack and the supervisor
    // fails the trial with a typed Worker error (no respawn loop — a
    // deterministic failure would just recur).
    let s = ShardSpec { s_bits: Some(1), ..spec(103) };
    match ShardedRunner::new(config(2), None).measure(&s, 10_000) {
        Err(ShardError::Worker { .. }) => {}
        other => panic!("expected a deterministic Worker error, got {other:?}"),
    }
    // And at the cell level it degrades to a Failed cell, like the
    // in-process sweep engine's contract.
    let result = run_cell_sharded("starved", &s, 2, 10_000, &config(2));
    assert!(result.status.is_failed(), "status: {:?}", result.status);
}
