//! No worker process outlives its supervisor — on any path.
//!
//! Lives in its own integration-test binary (its own OS process) so the
//! child census below counts only workers spawned here, never workers
//! belonging to tests running in parallel elsewhere. The scenarios run
//! inside one `#[test]` for the same reason.

use mph_core::algorithms::pipeline::Target;
use mph_experiments::shard::{ShardSpec, ShardedRunner};
use mph_mpc::shard::{KillSpec, SupervisorConfig};
use mph_mpc::TransportKind;

/// Lists this process's live children (tasks still parented to us —
/// running workers and unreaped zombies alike) via
/// `/proc/self/task/*/children`.
fn live_children() -> Vec<u32> {
    let mut pids = Vec::new();
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    for task in tasks {
        let mut path = task.expect("task entry").path();
        path.push("children");
        let Ok(list) = std::fs::read_to_string(&path) else { continue };
        pids.extend(list.split_whitespace().filter_map(|p| p.parse::<u32>().ok()));
    }
    pids.sort_unstable();
    pids
}

fn spec(seed: u64) -> ShardSpec {
    ShardSpec { target: Target::SimLine, w: 48, v: 8, m: 7, window: 2, s_bits: None, q: None, seed }
}

fn config(shards: usize, worker_cmd: Vec<String>) -> SupervisorConfig {
    SupervisorConfig::new(shards, worker_cmd)
}

#[test]
fn no_scenario_leaks_a_child_process() {
    let real = vec![env!("CARGO_BIN_EXE_mphd_worker").to_string()];
    assert_eq!(live_children(), [], "census must start clean");

    // 1. Clean run: the supervisor's drop closes pipes and reaps the
    //    whole fleet.
    ShardedRunner::new(config(4, real.clone()), None)
        .measure(&spec(200), 10_000)
        .expect("clean run");
    assert_eq!(live_children(), [], "clean run leaked workers");

    // 2. Failed handshake: the worker command exists but exits
    //    immediately without speaking the protocol. Supervisor::new
    //    errors — and the partially-built fleet must still be reaped.
    let bad = vec!["/bin/false".to_string()];
    ShardedRunner::new(config(3, bad), None)
        .measure(&spec(201), 10_000)
        .expect_err("handshake with /bin/false must fail");
    assert_eq!(live_children(), [], "failed handshake leaked children");

    // 3. Respawn budget exhausted mid-run: the degradation ladder
    //    redistributes the dead shard onto survivors and completes —
    //    the dead worker's corpse must be reaped at the moment of
    //    removal, and the surviving fleet on supervisor drop.
    let mut cfg = config(4, real.clone());
    cfg.max_respawns = 0;
    cfg.kills = vec![KillSpec { round: 0, worker: 2 }];
    ShardedRunner::new(cfg, None)
        .measure(&spec(202), 10_000)
        .expect("budget 0 + kill degrades, not dies");
    assert_eq!(live_children(), [], "exhausted-budget path leaked workers");

    // 4. Deterministic worker-side failure (memory too small to deliver
    //    the input): fatal Worker error, fleet reaped.
    let starved = ShardSpec { s_bits: Some(1), ..spec(203) };
    ShardedRunner::new(config(2, real.clone()), None)
        .measure(&starved, 10_000)
        .expect_err("starved spec must fail");
    assert_eq!(live_children(), [], "worker-error path leaked workers");

    // 5. TCP transport: workers hold sockets, not pipes — the reaping
    //    contract is transport-independent.
    let mut cfg = config(3, real);
    cfg.transport = TransportKind::Tcp;
    ShardedRunner::new(cfg, None).measure(&spec(204), 10_000).expect("clean TCP run");
    assert_eq!(live_children(), [], "TCP run leaked workers");
}
